"""Call census: which ``src/repro`` functions an entry point enters.

Run one entry point under a profile hook and dump the functions it
entered, keyed ``relpath:co_qualname`` (relpath under ``src/repro``)::

    PYTHONPATH=<tree>:<tree>/src PYTHONHASHSEED=0 python census.py \\
        OUT.json -m repro.bench table1 --scale test --out -
    ... python census.py OUT.json <tree>/examples/quickstart.py <tmp>

Then compare the union of the dumps with every function the tree
defines (``ast`` walk, keyed the way ``co_qualname`` is)::

    python census.py --report <tree> OUT1.json OUT2.json ...
"""

import ast
import json
import runpy
import sys
import threading
from pathlib import Path


def defined(tree: Path) -> set[str]:
    root = tree / "src" / "repro"
    out = set()
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    out.add(f"{rel}:{prefix}{child.name}")
                    walk(child, f"{prefix}{child.name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text()), "")
    return out


def run(out: str, argv: list[str]) -> None:
    root = next(str(Path(p, "repro").resolve()) for p in sys.path
                if Path(p, "repro", "__init__.py").is_file())
    seen, entered = set(), set()

    def hook(frame, event, arg):
        code = frame.f_code
        if event == "call" and code not in seen:  # once per code object
            seen.add(code)
            if code.co_filename.startswith(root):
                rel = Path(code.co_filename).relative_to(root).as_posix()
                entered.add(f"{rel}:{code.co_qualname}")

    module = argv[1] if argv[0] == "-m" else None
    sys.argv = argv[1:] if module else argv
    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        if module:
            runpy.run_module(module, run_name="__main__", alter_sys=True)
        else:
            runpy.run_path(argv[0], run_name="__main__")
    except SystemExit:
        pass
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        Path(out).write_text(json.dumps(sorted(entered), indent=0))


def report(tree: Path, dumps: list[str]) -> None:
    defs = defined(tree)
    entered = set().union(*(json.loads(Path(d).read_text()) for d in dumps))
    never = sorted(defs - entered)
    print(f"{len(defs)} defined, {len(defs & entered)} entered, "
          f"{len(never)} never entered")
    print("\n".join(never))


if __name__ == "__main__":
    if sys.argv[1] == "--report":
        report(Path(sys.argv[2]), sys.argv[3:])
    else:
        run(sys.argv[1], sys.argv[2:])
