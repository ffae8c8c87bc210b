"""slimlint rule units: each rule catches its seeded violation and
stays quiet on the sanctioned equivalent."""

from repro.analysis import lint_source


def codes(result):
    return [f.code for f in result.findings]


# ------------------------------------------------------------------ SLIM001
def test_slim001_direct_device_access_outside_kernel():
    src = "def f(device, cmd):\n    yield from device.submit(cmd)\n"
    assert codes(lint_source(src, package="imdb")) == ["SLIM001"]
    # the kernel and nvme layers own the device handle
    assert lint_source(src, package="kernel").ok
    assert lint_source(src, package="nvme").ok


def test_slim001_peek_and_suffixed_receivers():
    src = "x = raw_device.peek(0, 1)\n"
    assert codes(lint_source(src, package="core")) == ["SLIM001"]


def test_slim001_line_pragma_suppresses():
    src = ("def f(device, cmd):\n"
           "    yield from device.submit(cmd)"
           "  # slimlint: ignore[SLIM001]\n")
    result = lint_source(src, package="imdb")
    assert result.ok
    assert result.suppressed == 1


# ------------------------------------------------------------------ SLIM002
def test_slim002_pid_literal_outside_placement():
    src = "w = WriteCmd(lba=0, nlb=1, data=b'', pid=3)\n"
    result = lint_source(src, path="src/repro/core/engine.py",
                         package="core")
    assert "SLIM002" in codes(result)
    # the two sanctioned homes for PID numerology
    assert lint_source(src, path="src/repro/core/placement.py",
                       package="core").ok
    assert lint_source(src, path="src/repro/cluster/pids.py",
                       package="cluster").ok


def test_slim002_symbolic_pid_is_fine():
    src = "w = WriteCmd(lba=0, nlb=1, data=b'', pid=policy.wal_pid)\n"
    assert lint_source(src, package="core").ok


# ------------------------------------------------------------------ SLIM003
def test_slim003_wall_clock_and_unseeded_random():
    assert codes(lint_source("import time\nt = time.time()\n",
                             package="bench")) == ["SLIM003"]
    assert codes(lint_source("import random\nx = random.random()\n",
                             package="workloads")) == ["SLIM003"]
    assert codes(lint_source("import random\nr = random.Random()\n",
                             package="workloads")) == ["SLIM003"]


def test_slim003_perf_counter_scoped_to_measurement_shells():
    src = "import time\nt = time.perf_counter()\n"
    assert lint_source(src, path="src/repro/bench/__main__.py",
                       package="bench").ok
    # everywhere else perf_counter is a wall-clock leak — the event-count
    # gate included, which records no host time
    assert codes(lint_source(src, path="src/repro/bench/perf.py",
                             package="bench")) == ["SLIM003"]
    assert codes(lint_source(src, path="src/repro/imdb/server.py",
                             package="imdb")) == ["SLIM003"]
    assert codes(lint_source(src, package="bench")) == ["SLIM003"]


def test_slim003_seeded_rng_allowed():
    assert lint_source("import random\nr = random.Random(42)\n",
                       package="workloads").ok


# ------------------------------------------------------------------ SLIM004
def test_slim004_layering_inversion():
    src = "from repro.bench import scales\n"
    result = lint_source(src, package="core")
    assert codes(result) == ["SLIM004"]


def test_slim004_downward_import_and_tests_exempt():
    assert lint_source("from repro.kernel import iouring\n",
                       package="core").ok
    # tests may import anything
    assert lint_source("from repro.bench import scales\n",
                       package="core", is_test=True, is_src=False).ok


# ------------------------------------------------------------------ SLIM005
def test_slim005_metric_naming():
    assert codes(lint_source('c = registry.counter("foo")\n',
                             package="obs")) == ["SLIM005"]
    assert codes(lint_source('h = registry.histogram("lat")\n',
                             package="obs")) == ["SLIM005"]
    assert codes(lint_source('g = registry.gauge("x_total")\n',
                             package="obs")) == ["SLIM005"]
    # the exact-sample factory follows the histogram rule
    assert codes(lint_source('s = self.obs.samples("cmd_latency")\n',
                             package="imdb")) == ["SLIM005"]


def test_slim005_conforming_names_pass():
    src = ('c = registry.counter("wal_flushes_total")\n'
           'h = registry.histogram("flush_seconds")\n'
           'g = registry.gauge("inflight_batches")\n'
           's = registry.samples("cmd_latency_seconds", op="SET")\n')
    assert lint_source(src, package="obs").ok


# ------------------------------------------------------------------ SLIM006
def test_slim006_ftl_internals_off_limits():
    src = "n = system.ftl.counters\n"
    assert codes(lint_source(src, package="core")) == ["SLIM006"]
    # the flash layer owns its own internals
    assert lint_source(src, package="flash").ok
    # the published surface is fine anywhere
    assert lint_source("s = system.ftl.stats\n", package="core").ok
    assert lint_source("w = system.ftl.window()\n"
                       "n = system.ftl.lifetime.erased\n",
                       package="core").ok
    # the readers the write window replaced are gone from it
    assert codes(lint_source("w = system.ftl.waf_for_streams([1])\n"
                             "p = system.ftl.stream_stats(1)\n",
                             package="core")) == ["SLIM006", "SLIM006"]


# ------------------------------------------------------------------ SLIM007
def test_slim007_untagged_write():
    src = "w = WriteCmd(lba=0, nlb=1, data=b'')\n"
    assert codes(lint_source(src, package="core")) == ["SLIM007"]
    # tagged (symbolically) is the sanctioned form
    assert lint_source(
        "w = WriteCmd(lba=0, nlb=1, data=b'', pid=policy.wal_pid)\n",
        package="core").ok
    # layers below the placement policy have no PID to carry
    assert lint_source(src, package="flash").ok


# ------------------------------------------------------------------ SLIM008
def test_slim008_lba_bookkeeping_writes():
    src = "slots.roles = []\n"
    assert codes(lint_source(src, package="imdb")) == ["SLIM008"]
    assert lint_source(src, package="core").ok


# ------------------------------------------------------------------ SLIM009
def test_slim009_real_socket_imports_forbidden_in_net():
    for src in ("import socket\n",
                "import asyncio.streams\n",
                "from socket import AF_INET\n",
                "from ssl import SSLContext\n"):
        assert codes(lint_source(src, package="net")) == ["SLIM009"], src
    # the same imports are SLIM009-clean elsewhere (other rules may
    # still have opinions, so select the one under test)
    assert lint_source("import socket\n", package="bench",
                       select={"SLIM009"}).ok


def test_slim009_wall_clock_forbidden_even_in_measurement_shape():
    # SLIM003 exempts perf_counter in bench/obs measurement shells;
    # SLIM009 grants repro.net no such carve-out
    src = "import time\nt = time.perf_counter()\n"
    got = codes(lint_source(src, package="net"))
    assert "SLIM009" in got
    assert lint_source("t = env.now\n", package="net").ok


def test_slim009_nested_import_still_flagged():
    src = ("def connect():\n"
           "    import socket\n"
           "    return socket\n")
    assert codes(lint_source(src, package="net")) == ["SLIM009"]


def test_slim009_pragma_suppresses():
    src = "import socket  # slimlint: ignore[SLIM009]\n"
    result = lint_source(src, package="net")
    assert result.ok and result.suppressed == 1


# ------------------------------------------------------------------ pragmas
def test_file_pragma_suppresses_everywhere():
    src = ("# slimlint: ignore-file[SLIM003]\n"
           "import time\n"
           "a = time.time()\n"
           "b = time.time()\n")
    result = lint_source(src, package="bench")
    assert result.ok
    assert result.suppressed == 2


def test_pragma_is_rule_scoped():
    # an ignore for one rule must not silence another
    src = ("import time\n"
           "t = time.time()  # slimlint: ignore[SLIM001]\n")
    assert codes(lint_source(src, package="bench")) == ["SLIM003"]


def test_syntax_error_is_reported_not_crashed():
    result = lint_source("def broken(:\n", package="core")
    assert not result.ok
    assert result.errors and "syntax error" in result.errors[0]


# ------------------------------------------------- pragma hardening
def test_unknown_rule_id_in_pragma_is_an_error_not_a_silent_noop():
    src = ("import time\n"
           "t = time.time()  # slim" "lint: ignore[SLIM303]\n")
    result = lint_source(src, package="bench")
    # the typo'd pragma suppresses nothing AND is reported
    assert codes(result) == ["SLIM003"]
    assert result.suppressed == 0
    assert any("unknown rule id" in e and "SLIM303" in e
               for e in result.errors)


def test_mixed_known_and_unknown_codes_keeps_the_known_half():
    src = ("import time\n"
           "t = time.time()  # slim" "lint: ignore[SLIM003, SLIM999]\n")
    result = lint_source(src, package="bench")
    assert codes(result) == []
    assert result.suppressed == 1
    assert any("SLIM999" in e for e in result.errors)


def test_malformed_pragma_attempt_is_diagnosed():
    # missing brackets: the strict pattern skips it, the attempt
    # detector must not
    src = ("import time\n"
           "t = time.time()  # slim" "lint: ignore SLIM003\n")
    result = lint_source(src, package="bench")
    assert codes(result) == ["SLIM003"]
    assert any("malformed slimlint pragma" in e for e in result.errors)


def test_lowercase_rule_id_is_rejected_loudly():
    src = ("import time\n"
           "t = time.time()  # slim" "lint: ignore[slim003]\n")
    result = lint_source(src, package="bench")
    assert codes(result) == ["SLIM003"]
    assert any("unknown rule id" in e for e in result.errors)


def test_empty_code_list_is_diagnosed():
    src = "x = 1  # slim" "lint: ignore[ ]\n"
    result = lint_source(src, package="core")
    assert any("names no rule codes" in e for e in result.errors)


def test_flow_codes_are_pragma_known():
    # slimflow findings share the suppression syntax, so SLIM010-012
    # must not be rejected as unknown ids by slimlint's scanner
    src = "x = 1  # slimlint: ignore[SLIM010]\n"
    result = lint_source(src, package="persist")
    assert result.ok


def test_wellformed_pragma_with_trailing_prose_still_works():
    src = ("import time\n"
           "t = time.time()  # slimlint: ignore[SLIM003] boot-time banner\n")
    result = lint_source(src, package="bench")
    assert result.ok and result.suppressed == 1
