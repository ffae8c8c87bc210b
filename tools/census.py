"""Call census: which ``src/repro`` functions an entry point enters.

Run one entry point under a profile hook and dump the functions it
entered, keyed ``relpath:co_qualname`` (relpath under ``src/repro``)::

    PYTHONPATH=<tree>:<tree>/src PYTHONHASHSEED=0 python census.py \\
        OUT.json -m repro.bench table1 --scale test --out -
    ... python census.py OUT.json <tree>/examples/quickstart.py <tmp>

Then compare the union of the dumps with every function the tree
defines (``ast`` walk, keyed the way ``co_qualname`` is)::

    python census.py --report <tree> OUT1.json OUT2.json ...

Or run every entry point of the census (:func:`entry_points`), each in
its own process from a scratch working directory under OUTDIR, two at a
time, and print the report (about 5 minutes on 2 CPUs)::

    python census.py --all <tree> <outdir>
"""

import ast
import json
import os
import runpy
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

WORKLOADS = ("redis_set_gc", "ycsb_a_always", "snap_recover", "openloop_net")


def entry_points(tree: Path, tmp: Path) -> list[tuple[str, list[str], dict]]:
    """``(name, argv after OUT.json, env overrides)`` for every entry
    point, in run order: the last three read files that earlier ones
    write. An entry whose overrides set ``PYTHONPATH`` runs from the
    tree, the others from the scratch working directory."""
    bench = ["-m", "repro.bench"]
    eps = [("bench_all", bench + ["all", "--scale", "test", "--out", "-"], {})]
    for w in WORKLOADS:
        eps.append((f"slimbench_{w}", ["-m", "benchmarks.slimbench.worker",
                    "--workload", w, "--seed", "1", "--smoke",
                    "--out-dir", str(tmp / f"slimbench_{w}")], {}))
    eps += [
        ("slimbench_openloop_net_traced", [
            "-m", "benchmarks.slimbench.worker", "--workload", "openloop_net",
            "--seed", "1", "--smoke", "--traced",
            "--out-dir", str(tmp / "slimbench_traced")], {}),
        ("sweep", bench + ["sweep", "--grid", "single", "--scale", "tiny",
                           "--out-dir", str(tmp / "sweep")], {}),
        ("faults", ["-m", "repro.faults"], {}),
        ("faults_sanitized", ["-m", "repro.faults", "--ops", "24",
                              "--cuts", "16", "--sanitize"], {}),
        ("analysis", ["-m", "repro.analysis", str(tree / "src"),
                      str(tree / "tests"), str(tree / "examples")], {}),
        ("analysis_sarif", ["-m", "repro.analysis", str(tree / "src"),
                            str(tree / "tests"), str(tree / "examples"),
                            "--format", "sarif",
                            "--output", str(tmp / "analysis.sarif")], {}),
        ("tailtrace", bench + ["tailtrace", "--scale", "test",
                               "--out", str(tmp / "tailtrace.txt")],
         {"SLIMIO_TRACE_DIR": str(tmp / "trace")}),
        ("openloop", bench + ["openloop", "--scale", "test",
                              "--out", str(tmp / "openloop.txt")],
         {"SLIMIO_NET_DIR": str(tmp / "net")}),
        ("cluster_sanitized", bench + ["cluster", "--scale", "test",
                                       "--sanitize",
                                       "--out", str(tmp / "cluster.txt")], {}),
        ("table1_prod", bench + ["table1", "--scale", "prod", "--out", "-"],
         {}),
        ("perf", bench + ["perf", "--scale", "test",
                          "--out", str(tmp / "perf.json")], {}),
        ("perf_compare", bench + ["perf", "--compare",
                                  str(tree / "BENCH_perf.json"),
                                  str(tree / "BENCH_perf.json")], {}),
        # as CI runs it: from the tree, with a relative PYTHONPATH (with
        # the tree root on it, test_bare_checkout_fails_without_a_result
        # imports the tree's benchmarks package instead of its copy's)
        ("slimbench_pytest", ["-m", "pytest", "-q", "-p", "no:cacheprovider",
                              "benchmarks/slimbench"], {"PYTHONPATH": "src"}),
    ]
    for script in sorted((tree / "examples").glob("*.py")):
        eps.append((f"example_{script.stem}",
                    [str(script), str(tmp / script.stem)], {}))
    dump = tmp / "telemetry_tour" / "slimio.jsonl"
    eps += [
        ("obs_summarize", ["-m", "repro.obs", "summarize", str(dump)], {}),
        ("obs_trace", ["-m", "repro.obs", "trace", str(dump),
                       "-o", str(tmp / "slimio.perfetto.json")], {}),
        ("obs_report", ["-m", "repro.obs", "report",
                        str(tmp / "trace" / "tailtrace_shared.trace.jsonl"),
                        "-k", "4", "-w", "1"], {}),
    ]
    return eps


def run_all(tree: Path, outdir: Path) -> list[str]:
    tree, outdir = tree.resolve(), outdir.resolve()
    tmp, work, dumps = outdir / "tmp", outdir / "work", outdir / "dumps"
    for d in (tmp, work, dumps):
        d.mkdir(parents=True, exist_ok=True)
    eps = entry_points(tree, tmp)

    def one(ep):
        name, argv, extra = ep
        env = {**os.environ, "PYTHONHASHSEED": "0",
               "PYTHONPATH": f"{tree}{os.pathsep}{tree / 'src'}", **extra}
        cwd = tree if "PYTHONPATH" in extra else work
        out = dumps / f"{name}.json"
        with open(outdir / f"{name}.log", "w") as log:
            rc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), str(out)]
                + argv, cwd=cwd, env=env, stdout=log,
                stderr=subprocess.STDOUT, check=False).returncode
        print(f"{name}: rc {rc}", file=sys.stderr, flush=True)
        return str(out)

    readers = 3  # the repro.obs commands read what earlier runs wrote
    with ThreadPoolExecutor(2) as pool:
        out = list(pool.map(one, eps[:-readers]))
    return out + [one(ep) for ep in eps[-readers:]]


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
    elif sys.argv[1] == "--all":
        report(Path(sys.argv[2]), run_all(Path(sys.argv[2]), Path(sys.argv[3])))
    else:
        run(sys.argv[1], sys.argv[2:])
