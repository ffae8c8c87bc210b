"""slimflow whole-program rules: seeded bad examples must fire, their
fixed counterparts must stay quiet.

Each scenario is a small in-memory module set fed through
``analyze_sources`` — whole-program rules need several modules (or at
least several functions) to mean anything. The capstone tests run the
real tree: pristine ``src/repro`` must be clean, and a copy with the
historical ``WalPath`` flush lock stripped must light up SLIM010.
"""

import shutil
from pathlib import Path

from repro.analysis import FLOW_CODES, analyze_sources, lint_paths

REPO = Path(__file__).resolve().parents[2]


def codes(result):
    return [f.code for f in result.findings]


# --------------------------------------------------------------------------
# SLIM010 — yield-interleaving races
# --------------------------------------------------------------------------

def _counter_module(bump_body: str) -> dict:
    src = f"""
class Counter:
    def __init__(self, env):
        self.env = env
        self.value = 0
        self.lock = Resource(env, capacity=1)

    def bump(self):
{bump_body}

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
    return {"src/repro/persist/fake_counter.py": src}


RACY_BUMP = """\
        v = self.value
        yield self.env.timeout(1)
        self.value = v + 1
"""

LOCKED_BUMP = """\
        req = self.lock.request()
        yield req
        try:
            v = self.value
            yield self.env.timeout(1)
            self.value = v + 1
        finally:
            self.lock.release(req)
"""


def test_slim010_unlocked_read_yield_write_fires():
    result = analyze_sources(_counter_module(RACY_BUMP))
    assert codes(result) == ["SLIM010"]
    f = result.findings[0]
    assert "self.value" in f.message
    assert "Counter.bump" in f.message
    # the race trace names all three steps
    labels = [label for label, _line in f.trace]
    assert any("read" in s for s in labels)
    assert any("yield" in s for s in labels)
    assert any("write" in s for s in labels)


def test_slim010_lock_region_is_quiet():
    result = analyze_sources(_counter_module(LOCKED_BUMP))
    assert codes(result) == []


def test_slim010_single_process_is_quiet():
    # same racy body, but only one simulator process ever runs it
    mods = _counter_module(RACY_BUMP)
    src = mods["src/repro/persist/fake_counter.py"]
    src = src.replace("self.env.process(self.writer_b())", "pass")
    result = analyze_sources({"src/repro/persist/fake_counter.py": src})
    assert codes(result) == []


def test_slim010_pragma_suppresses_with_intent():
    mods = _counter_module(RACY_BUMP.replace(
        "self.value = v + 1",
        "self.value = v + 1  # slimlint: ignore[SLIM010] test intent",
    ))
    result = analyze_sources(mods)
    assert codes(result) == []
    assert result.suppressed == 1


WALPATH_IDIOM = """
class Path:
    def __init__(self, env):
        self.env = env
        self.tail = 0
        self.flush_lock = Resource(env, capacity=1)

    def flush(self):
        req = self.flush_lock.request()
        yield req
        try:
            yield from self._flush_locked()
        finally:
            self.flush_lock.release(req)

    def _flush_locked(self):
        t = self.tail
        yield self.env.timeout(1)
        self.tail = t + 1

class App:
    def __init__(self, env):
        self.env = env
        self.path = Path(env)

    def start(self):
        self.env.process(self.writer_a())
        self.env.process(self.writer_b())

    def writer_a(self):
        yield from self.path.flush()

    def writer_b(self):
        yield from self.path.flush()
"""


def test_slim010_callers_lock_protects_interprocedurally():
    # the WalPath idiom: the racy body lives in _flush_locked, the lock
    # is held by its only caller — the fixpoint must see through it
    result = analyze_sources({"src/repro/persist/fake_path.py": WALPATH_IDIOM})
    assert codes(result) == []


def test_slim010_fires_when_the_lock_is_renamed_away():
    # same module with the lock renamed to something non-lockish: the
    # protection evaporates and the race must surface
    src = WALPATH_IDIOM.replace("flush_lock", "flush_note")
    result = analyze_sources({"src/repro/persist/fake_path.py": src})
    assert "SLIM010" in codes(result)
    assert any("self.tail" in f.message for f in result.findings)


RECHECK = """
class Gate:
    def __init__(self, env):
        self.env = env
        self.pending = 0
        self.window = 4

    def send(self):
        while self.pending >= self.window:
            yield self.env.timeout(1)
        self.pending = 1

class App:
    def __init__(self, env):
        self.env = env
        self.gate = Gate(env)

    def start(self):
        self.env.process(self.writer_a())
        self.env.process(self.writer_b())

    def writer_a(self):
        yield from self.gate.send()

    def writer_b(self):
        yield from self.gate.send()
"""


def test_slim010_while_recheck_idiom_is_quiet():
    # `while cond: yield` re-reads the attribute after every wakeup —
    # the loop back edge puts a read between the yield and the write
    result = analyze_sources({"src/repro/net/fake_gate.py": RECHECK})
    assert codes(result) == []


NONBLOCKING_DELEGATE = """
class Box:
    def __init__(self, env):
        self.env = env
        self.n = 0

    def _account(self):
        return 1
        yield  # generator by construction, never actually parks

    def poke(self):
        v = self.n
        yield from self._account()
        self.n = v + 1

class App:
    def __init__(self, env):
        self.env = env
        self.box = Box(env)

    def start(self):
        self.env.process(self.writer_a())
        self.env.process(self.writer_b())

    def writer_a(self):
        yield from self.box.poke()

    def writer_b(self):
        yield from self.box.poke()
"""


def test_slim010_nonblocking_yield_from_is_quiet():
    # delegating into a generator that never reaches a bare yield is
    # not a preemption point (the repo's zero-cost accounting idiom)
    result = analyze_sources({"src/repro/kernel/fake_box.py": NONBLOCKING_DELEGATE})
    assert codes(result) == []


def test_slim010_blocking_yield_from_fires():
    src = NONBLOCKING_DELEGATE.replace(
        "        return 1\n        yield  # generator by construction, never actually parks",
        "        yield self.env.timeout(1)",
    )
    result = analyze_sources({"src/repro/kernel/fake_box.py": src})
    assert codes(result) == ["SLIM010"]


def test_slim010_fast_forward_resume_points_are_preemptions():
    # The quiescence fast-forward lane introduced three new shapes of
    # resume point: ``yield env.idle_wait(...)`` (collapsible poll),
    # ``yield wake`` of an event bound earlier (the WAL flusher's
    # absorbed-tick wake), and the guarded ``ev = acct.charge(...);
    # if ev is not None: yield ev`` idiom. All three are plain
    # ``ast.Yield`` nodes, so the extractor must keep treating them as
    # bare (always-blocking) preemptions — fast-forward elides
    # *dispatches*, never the interleaving opportunity the static race
    # model has to assume.
    for bump in (
        # collapsible poll wakeup
        "        v = self.value\n"
        "        yield self.env.idle_wait(1)\n"
        "        self.value = v + 1\n",
        # event bound to a name first (flusher 'yield wake' shape)
        "        v = self.value\n"
        "        wake = self.env.timeout(1)\n"
        "        yield wake\n"
        "        self.value = v + 1\n",
        # guarded charge: yield happens on only one CFG path
        "        v = self.value\n"
        "        ev = self.env.charge(1)\n"
        "        if ev is not None:\n"
        "            yield ev\n"
        "        self.value = v + 1\n",
    ):
        result = analyze_sources(_counter_module(bump))
        assert codes(result) == ["SLIM010"], bump


# --------------------------------------------------------------------------
# SLIM011 — seed provenance
# --------------------------------------------------------------------------

def test_slim011_hash_derived_seed_fires():
    src = """
import random

class Sampler:
    def __init__(self, name):
        self.rng = random.Random(abs(hash(name)) % (2**32))
"""
    result = analyze_sources({"src/repro/obs/fake_sampler.py": src})
    assert codes(result) == ["SLIM011"]
    assert "hash()" in result.findings[0].message


def test_slim011_seed_named_sources_are_the_trust_anchor():
    src = """
import random

class Sampler:
    def __init__(self, seed, cfg):
        self.seed = seed
        self.rng = random.Random(seed ^ 0xBEEF)
        self.rng2 = random.Random(self.seed)
        self.rng3 = random.Random(cfg.base_seed if cfg else 0)
"""
    result = analyze_sources({"src/repro/workloads/fake_sampler.py": src})
    assert codes(result) == []


def test_slim011_seed_named_local_is_judged_by_its_assignment():
    src = """
import random

def build(name, seed):
    salted = hash(name)
    seed0 = salted % 97
    return random.Random(seed0)

def annotated(name):
    seed: int = hash(name)
    return random.Random(seed)

def augmented(name, seed):
    seed += hash(name)
    return random.Random(seed)

def unpacked(name):
    seed, _ = hash(name), 1
    return random.Random(seed)

def looped(names):
    for seed in map(hash, names):
        return random.Random(seed)
"""
    result = analyze_sources({"src/repro/workloads/fake_local.py": src})
    assert codes(result) == ["SLIM011"] * 5


def test_slim011_rebound_seed_parameter_keeps_its_anchor():
    src = """
import random

def build(seed, shard):
    seed = seed ^ 0x5EED
    seed += 7
    derived_seed = seed * 31
    pair_seed, salt = seed + 1, 3
    return (random.Random(seed), random.Random(derived_seed),
            random.Random(pair_seed + salt))
"""
    result = analyze_sources({"src/repro/workloads/fake_rebound.py": src})
    assert codes(result) == []


def test_slim011_param_chain_resolves_through_the_call_graph():
    helper = """
import random

def make_rng(x):
    return random.Random(x * 2 + 1)
"""
    good_caller = """
from repro.workloads.fake_helper import make_rng

def build(seed):
    return make_rng(seed ^ 0x5EED)
"""
    result = analyze_sources({
        "src/repro/workloads/fake_helper.py": helper,
        "src/repro/workloads/fake_caller.py": good_caller,
    })
    assert codes(result) == []

    bad_caller = good_caller.replace("make_rng(seed ^ 0x5EED)",
                                     "make_rng(id(object()))")
    result = analyze_sources({
        "src/repro/workloads/fake_helper.py": helper,
        "src/repro/workloads/fake_caller.py": bad_caller,
    })
    assert codes(result) == ["SLIM011"]
    # the finding lands on the RNG construction site, in the helper
    assert result.findings[0].file == "src/repro/workloads/fake_helper.py"


def test_slim011_untraceable_seed_fires():
    src = """
import random

def build(cfg):
    return random.Random(cfg.shard_index)
"""
    result = analyze_sources({"src/repro/workloads/fake_opaque.py": src})
    assert codes(result) == ["SLIM011"]


def test_slim011_unseeded_ctor_fires():
    src = """
import numpy as np

def build():
    return np.random.default_rng()
"""
    result = analyze_sources({"src/repro/obs/fake_unseeded.py": src})
    assert codes(result) == ["SLIM011"]


# --------------------------------------------------------------------------
# SLIM012 — durability protocol
# --------------------------------------------------------------------------

UNFENCED_SERVER = """
class Server:
    def execute(self, op):
        yield self.cpu.request()
        seq = self.wal.stage(op)
        return seq
"""

GATED_SERVER = """
class Server:
    def execute(self, op):
        yield self.cpu.request()
        seq = self.wal.stage(op)
        yield from self.wal.ensure_durable(seq)
        return seq
"""


def test_slim012_unfenced_execute_return_fires():
    result = analyze_sources({"src/repro/imdb/fake_server.py": UNFENCED_SERVER})
    assert codes(result) == ["SLIM012"]
    assert "Server.execute" in result.findings[0].message


def test_slim012_dominating_gate_is_quiet():
    result = analyze_sources({"src/repro/imdb/fake_server.py": GATED_SERVER})
    assert codes(result) == []


def test_slim012_relaxed_tag_documents_the_contract():
    src = UNFENCED_SERVER.replace(
        "return seq",
        "return seq  # slimflow: relaxed-durability — test everysec window",
    )
    result = analyze_sources({"src/repro/imdb/fake_server.py": src})
    assert codes(result) == []


def test_slim012_conditional_gate_is_not_dominating():
    src = """
class Server:
    def execute(self, op):
        yield self.cpu.request()
        seq = self.wal.stage(op)
        if self.policy == "always":
            yield from self.wal.ensure_durable(seq)
        return seq
"""
    result = analyze_sources({"src/repro/imdb/fake_server.py": src})
    assert codes(result) == ["SLIM012"]


CONN = """
class Connection:
    def _dispatch_loop(self, fe, op):
        result = yield from fe.backend.execute(op)
        reply = encode("OK")
        return reply
"""


def test_slim012_resp_ack_delegates_to_the_backend():
    # the dispatcher acks after `yield from backend.execute(op)`; it is
    # covered iff the backend's own ack discipline is
    result = analyze_sources({
        "src/repro/net/fake_conn.py": CONN,
        "src/repro/imdb/fake_server.py": GATED_SERVER,
    })
    assert codes(result) == []

    result = analyze_sources({
        "src/repro/net/fake_conn.py": CONN,
        "src/repro/imdb/fake_server.py": UNFENCED_SERVER,
    })
    assert sorted(codes(result)) == ["SLIM012", "SLIM012"]


def test_slim012_scope_is_imdb_and_net_only():
    # the same unfenced shape outside imdb/net is not an ack path
    src = UNFENCED_SERVER
    result = analyze_sources({"src/repro/flash/fake_server.py": src})
    assert codes(result) == []


# The WAL idle drain as it stands, with its open bug: the generation
# boundary is crossed before the drain waits for the server CPU, so a
# fork during that wait sends post-fork records into the old generation.
IDLE_DRAIN_WAL = """
class WalManager:
    def __init__(self, env, sink):
        self.env = env
        self.sink = sink
        self._buffer = []
        self._old_buffer = []
        self._boundary_pending = 0
        self._sink_lock = Resource(env, capacity=1)

    def stage(self, record):
        self._buffer.append(record)
        return len(self._buffer)

    def rotate_begin(self):
        self._old_buffer.extend(self._buffer)
        self._buffer.clear()
        self._boundary_pending += 1

    def idle_drain(self, cpu):
        return self.env.process(self._idle_drain_body(cpu))

    def _idle_drain_body(self, cpu):
        req = self._sink_lock.request()
        yield req
        try:
            yield from self._cross_boundary_locked()
            cpu_req = cpu.request()
            yield cpu_req
            try:
                yield from self._drain_locked()
            finally:
                cpu.release(cpu_req)
        finally:
            self._sink_lock.release(req)

    def _cross_boundary_locked(self):
        while self._boundary_pending:
            old = self._old_buffer
            self._old_buffer = []
            self._boundary_pending -= 1
            if old:
                yield from self.sink.append(old)
            yield from self.sink.begin_generation()

    def _drain_locked(self):
        data = list(self._buffer)
        self._buffer.clear()
        yield from self.sink.append(data)
"""

PERIODICAL_SERVER = """
class Server:
    def execute(self, op):
        req = self.cpu.request()
        yield req
        seq = self.wal.stage(op)
        self.cpu.release(req)
        self.wal.idle_drain(self.cpu)
        return seq  # slimflow: relaxed-durability — everysec window
"""


def test_slim012_cannot_see_generation_boundaries():
    """A pinned miss: SLIM012 asks whether an ack is dominated by a
    durability gate, and a Periodical-Log ack is relaxed-tagged by
    contract, so where the drain crosses the generation boundary never
    reaches the rule. Its verdict is the same for the buggy drain and
    the fixed one, with the tag (quiet) and without it (fires)."""
    fixed = IDLE_DRAIN_WAL.replace(
        "            yield from self._cross_boundary_locked()\n"
        "            cpu_req = cpu.request()\n"
        "            yield cpu_req\n",
        "            cpu_req = cpu.request()\n"
        "            yield cpu_req\n"
        "            yield from self._cross_boundary_locked()\n")
    assert fixed != IDLE_DRAIN_WAL
    untagged = PERIODICAL_SERVER.replace(
        "  # slimflow: relaxed-durability — everysec window", "")
    for server, expected in ((PERIODICAL_SERVER, []),
                             (untagged, ["SLIM012"])):
        for wal in (IDLE_DRAIN_WAL, fixed):
            result = analyze_sources({
                "src/repro/persist/fake_wal.py": wal,
                "src/repro/imdb/fake_server.py": server,
            }, select={"SLIM012"})
            assert codes(result) == expected


# --------------------------------------------------------------------------
# the real tree
# --------------------------------------------------------------------------

def test_shipped_tree_is_flow_clean():
    result = lint_paths([str(REPO / "src" / "repro")], root=REPO,
                        select=FLOW_CODES)
    assert result.errors == []
    assert [f.render() for f in result.findings] == []


def _tree_copy(tmp_path):
    """A copy of the real ``src/repro`` under tmp_path."""
    tree = tmp_path / "src" / "repro"
    shutil.copytree(REPO / "src" / "repro", tree,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tree


def _mutant_findings(tmp_path, relpath, old, new, code):
    """Copy the real ``src/repro`` into tmp_path, re-inject one past
    bug into ``relpath`` and return the ``code`` findings in that file."""
    tree = _tree_copy(tmp_path)
    target = tree / relpath
    source = target.read_text(encoding="utf-8")
    assert old in source, f"{relpath} moved; update the mutant"
    target.write_text(source.replace(old, new), encoding="utf-8")
    result = lint_paths([str(tree)], root=tmp_path, select={code})
    return [f for f in result.findings if f.file.endswith(relpath)]


def test_walpath_race_caught_when_its_lock_is_stripped(tmp_path):
    """The acceptance-criteria mutation: strip the WalPath flush lock
    (the PR 3 race, historically caught only at runtime) and SLIM010
    must catch it statically."""
    races = _mutant_findings(tmp_path, "core/paths.py",
                             "_flush_lock", "_flush_note", "SLIM010")
    assert races, "lock-stripped WalPath race was not detected"
    attrs = {f.message.split("`")[1] for f in races}
    assert any(a.startswith("self._tail") or a.startswith("self._staged")
               for a in attrs), attrs


def test_readahead_prefetch_race_caught_when_the_cursor_moves_late(tmp_path):
    """SLIM010's own catch: ReadAheadBuffer._prefetch once advanced its
    cursor only after the submit yield, so two readers driving one
    buffer re-submitted the same batch. Put the write back after the
    yield and the rule must flag it."""
    reserve = "            self._next_prefetch = start + n\n"
    submit = ("            ev = yield from self.ring.submit(\n"
              "                ReadCmd(lba=self.base_lba + start, nlb=n), "
              "account\n"
              "            )\n"
              "            self._inflight[start] = ev\n")
    races = _mutant_findings(tmp_path, "core/readahead.py",
                             reserve + submit, submit + reserve, "SLIM010")
    assert [f.message.split("`")[1] for f in races] == ["self._next_prefetch"]


def test_memo_imported_up_from_net_is_a_layer_inversion(tmp_path):
    """SLIM004 on the real tree: the byte-bounded memo lives in
    ``repro.persist``, the lowest package that uses it. Had it stayed
    in ``repro.net``, the chunk codec would import it upward; the rule
    must flag that import and nothing in the pristine copy."""
    tree = _tree_copy(tmp_path)
    clean = lint_paths([str(tree)], root=tmp_path, select={"SLIM004"})
    assert clean.errors == [] and clean.findings == []
    target = tree / "persist" / "compress.py"
    source = target.read_text(encoding="utf-8")
    memo_import = "from repro.persist.memo import BoundedMemo\n"
    assert memo_import in source, "compress.py moved; update the mutant"
    target.write_text(source.replace(
        memo_import, memo_import + "from repro.net.conn import DecodeMemo\n"),
        encoding="utf-8")
    result = lint_paths([str(tree)], root=tmp_path, select={"SLIM004"})
    [finding] = result.findings
    assert finding.file.endswith("persist/compress.py")
    assert "repro.persist (layer 5) imports repro.net" in finding.message


RESERVOIR_SEED = (
    "seed = zlib.crc32(repr((name,) + _label_key(labels)).encode())\n"
    "        self._rng = np.random.default_rng(seed)"
    "  # slimlint: ignore[SLIM011] crc32 of name + labels\n")


def test_hash_seeded_reservoir_caught(tmp_path):
    """SLIM011's own catch: ObsHistogram once seeded its reservoir RNG
    from builtin hash(), which PYTHONHASHSEED salts per process."""
    seeds = _mutant_findings(
        tmp_path, "obs/registry.py", RESERVOIR_SEED,
        "self._rng = np.random.default_rng(\n"
        "            abs(hash((name,) + _label_key(labels))) % (2**32)\n"
        "        )\n",
        "SLIM011")
    assert len(seeds) == 1 and "hash()" in seeds[0].message


def test_hash_seeded_reservoir_caught_through_a_seed_named_local(tmp_path):
    """The same bug spelled through a local called ``seed``: a local is
    judged by what is assigned to it, not trusted for its name."""
    seeds = _mutant_findings(
        tmp_path, "obs/registry.py", RESERVOIR_SEED,
        "seed = abs(hash((name,) + _label_key(labels))) % (2**32)\n"
        "        self._rng = np.random.default_rng(seed)\n",
        "SLIM011")
    assert len(seeds) == 1 and "hash()" in seeds[0].message
