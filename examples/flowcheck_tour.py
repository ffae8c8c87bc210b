#!/usr/bin/env python3
"""slimflow tour: whole-program dataflow analysis, rule by rule.

slimlint (see ``analysis_tour.py``) checks one file at a time; the
bugs that actually bit this repo were interprocedural. This tour runs
the **slimflow** rules over seeded bad/fixed module pairs for each of
its three rules, prints the diagnostics — including the
read→yield→write race trace — and finishes with the historical WalPath
double-flush: the real ``core/paths.py`` with its flush lock stripped,
caught statically.

    PYTHONPATH=src python examples/flowcheck_tour.py
"""

from pathlib import Path

from repro.analysis import FLOW_CODES, analyze_sources, lint_paths

REPO = Path(__file__).resolve().parents[1]


def banner(title):
    print()
    print("=" * 64)
    print(title)
    print("=" * 64)


def show(result):
    for f in result.findings:
        print(f"  {f.render()}")
    if not result.findings:
        print("  (clean)")
    return result


RACY = """\
class Counter:
    def __init__(self, env):
        self.env = env
        self.value = 0
        self.lock = Resource(env, capacity=1)

    def bump(self):
        v = self.value              # read ...
        yield self.env.timeout(1)   # ... park (a rival process runs) ...
        self.value = v + 1          # ... write from the stale value

class App:
    def __init__(self, env):
        self.env = env
        self.counter = Counter(env)

    def start(self):
        self.env.process(self.writer_a())
        self.env.process(self.writer_b())

    def writer_a(self):
        yield from self.counter.bump()

    def writer_b(self):
        yield from self.counter.bump()
"""

LOCKED_BUMP = """\
    def bump(self):
        req = self.lock.request()
        yield req
        try:
            v = self.value
            yield self.env.timeout(1)
            self.value = v + 1
        finally:
            self.lock.release(req)
"""


def part1_yield_race():
    banner("Part 1: SLIM010 — yield-interleaving races")
    print("two simulator processes share Counter.bump, which parks "
          "between\nread and write:")
    result = show(analyze_sources({"src/repro/persist/app.py": RACY}))
    assert [f.code for f in result.findings] == ["SLIM010"]

    print("\nsame module with the read-yield-write under the lock:")
    fixed = RACY.replace(
        "    def bump(self):\n"
        "        v = self.value              # read ...\n"
        "        yield self.env.timeout(1)   # ... park (a rival process "
        "runs) ...\n"
        "        self.value = v + 1          # ... write from the stale "
        "value\n",
        LOCKED_BUMP,
    )
    result = show(analyze_sources({"src/repro/persist/app.py": fixed}))
    assert result.ok


TAINTED = """\
import random

class Sampler:
    def __init__(self, name):
        self.rng = random.Random(abs(hash(name)) % (2**32))
"""

SEEDED = """\
import random

class Sampler:
    def __init__(self, name, seed):
        self.rng = random.Random(seed ^ 0xBEEF)
"""


def part2_seed_provenance():
    banner("Part 2: SLIM011 — seed provenance")
    print("an RNG seeded from hash(): PYTHONHASHSEED salts it per "
          "process,\nso 'deterministic' sampling differs run to run "
          "(a real bug this\nrule found in repro.obs):")
    result = show(analyze_sources({"src/repro/obs/sampler.py": TAINTED}))
    assert [f.code for f in result.findings] == ["SLIM011"]

    print("\nseed traced to a seed-named parameter — the trust anchor:")
    result = show(analyze_sources({"src/repro/obs/sampler.py": SEEDED}))
    assert result.ok


UNFENCED = """\
class Server:
    def execute(self, op):
        yield self.cpu.request()
        seq = self.wal.stage(op)
        if self.policy == "always":
            yield from self.wal.ensure_durable(seq)
        return seq
"""


def part3_durability():
    banner("Part 3: SLIM012 — durability before the ack")
    print("the gate sits on one branch only, so it does not *dominate* "
          "the\nack — the 'everysec' path acknowledges un-durable "
          "writes:")
    result = show(analyze_sources({"src/repro/imdb/server.py": UNFENCED}))
    assert [f.code for f in result.findings] == ["SLIM012"]

    print("\nthe relaxation is a deliberate Redis-everysec contract; "
          "saying\nso at the ack site satisfies the rule:")
    tagged = UNFENCED.replace(
        "return seq",
        "return seq  # slimflow: relaxed-durability — everysec window")
    result = show(analyze_sources({"src/repro/imdb/server.py": tagged}))
    assert result.ok


def part4_walpath():
    banner("Part 4: the WalPath double-flush, caught statically")
    print("the real src/repro tree is flow-clean; stripping WalPath's "
          "flush\nlock (the PR 3 bug, originally caught at *runtime* by "
          "the\nsanitizer) re-opens the race and SLIM010 finds it from "
          "source\nalone:")
    tree = {
        str(p.relative_to(REPO)): p.read_text(encoding="utf-8")
        for p in sorted((REPO / "src" / "repro").rglob("*.py"))
    }
    target = "src/repro/core/paths.py"
    mutated = tree[target].replace("_flush_lock", "_flush_note")
    assert mutated != tree[target]
    tree[target] = mutated
    result = analyze_sources(tree)
    races = [f for f in result.findings
             if f.code == "SLIM010" and f.file == target]
    for f in races:
        print(f"  {f.render()}")
    assert races, "expected the stripped-lock WalPath race to surface"

    print("\nand the shipped tree:")
    result = lint_paths([str(REPO / "src" / "repro")], root=REPO,
                        select=FLOW_CODES)
    print(f"  {len(result.findings)} findings in "
          f"{result.files_checked} files "
          f"({result.suppressed} suppressed)")
    assert result.ok


def main():
    part1_yield_race()
    part2_seed_provenance()
    part3_durability()
    part4_walpath()
    print("\ntour complete — see docs/ANALYSIS.md for the rule "
          "catalogue and how to run slimcheck")


if __name__ == "__main__":
    main()
