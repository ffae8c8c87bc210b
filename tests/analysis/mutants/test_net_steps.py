"""slimflow on ``repro.net`` after its client and reader became steps.

SLIM012's net ack site is the dispatcher's ``encode("OK")``, and the
dispatcher is still a generator process, so the rule reads the real
``net/conn.py`` as before: the ack is covered exactly when the backend
it delegates to gates durability.

SLIM010 reads generator processes: a race is a read of shared ``self``
state, a yield, and a write of it back.  A step never yields, so it
has no such window inside it.  The callback form of the race — read
in one step, write the stale value back in a later one — spans two
methods joined only through a heap entry, which the rule's per-function
walk cannot follow.  The last case pins that miss.
"""

from pathlib import Path

from repro.analysis import analyze_sources

CONN = Path(__file__).resolve().parents[3] / "src/repro/net/conn.py"

SERVER = """
class Server:
    def execute(self, op):
        yield self.cpu.request()
        seq = self.wal.stage(op)
{gate}        return seq
"""
GATE = "        yield from self.wal.ensure_durable(seq)\n"


def _ack_line():
    lines = CONN.read_text().splitlines()
    hits = [n for n, line in enumerate(lines, 1) if 'encode("OK")' in line]
    assert len(hits) == 1
    return hits[0]


def _slim012(gate):
    result = analyze_sources({
        "src/repro/net/conn.py": CONN.read_text(),
        "src/repro/imdb/fake_server.py": SERVER.format(gate=gate),
    }, select={"SLIM012"})
    return sorted((f.file, f.line) for f in result.findings)


def test_the_real_dispatcher_ack_is_covered_by_a_gated_backend():
    assert _slim012(GATE) == []


def test_the_real_dispatcher_ack_fires_with_an_unfenced_backend():
    found = _slim012("")
    assert ("src/repro/net/conn.py", _ack_line()) in found


PROCESS_FORM = """
class Counter:
    def __init__(self, env):
        self.env = env
        self.value = 0

    def start(self):
        self.env.process(self.writer_a())
        self.env.process(self.writer_b())

    def writer_a(self):
        yield from self.bump()

    def writer_b(self):
        yield from self.bump()

    def bump(self):
        v = self.value
        yield self.env.timeout(1)
        self.value = v + 1
"""

STEP_FORM = """
class Counter:
    def __init__(self, env, step):
        self.env = env
        self.step = step
        self.value = 0
        self.seen = 0

    def start(self):
        self.bump(None)
        self.bump(None)

    def bump(self, _):
        self.seen = self.value
        self.step.at(self.env.now + 1, self.bumped)

    def bumped(self, _):
        self.value = self.seen + 1
"""


def test_slim010_cannot_see_a_race_split_across_steps():
    race = analyze_sources({"src/repro/net/fake_counter.py": PROCESS_FORM},
                           select={"SLIM010"})
    assert [f.code for f in race.findings] == ["SLIM010"]
    steps = analyze_sources({"src/repro/net/fake_counter.py": STEP_FORM},
                            select={"SLIM010"})
    assert steps.findings == []
