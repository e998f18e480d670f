"""Tests for the snapshot-hygiene analyzer (NYX04x + NYX05x).

Covers the static reset-safety lint (mutable-state registry, rule
classification, suppressions, fix-it stubs), the runtime reset
sanitizer (structural digests, cycle/depth handling, diffing), the
wiring into the campaign loop and the CLI, and regression tests for
the two genuine reset leaks the analyzer found in the tree (stale
interceptor surface tables, phantom kernel outbox bytes).
"""

import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.diagnostics import Diagnostic, Report, Severity
from repro.analysis.resetlint import (allowed_reset_attrs,
                                      analyze_reset_source,
                                      analyze_reset_tree, fixit_stubs,
                                      tree_fixit_stubs)
from repro.analysis.sanitizer import (ResetSanitizer, diff_digests,
                                      structural_digest)
from repro.cli import main as cli_main
from repro.fuzz.campaign import boot_target, build_campaign
from repro.fuzz.stats import CampaignStats
from repro.sim.rng import DeterministicRandom
from repro.targets import PROFILES

GOLDEN = pathlib.Path(__file__).parent / "golden"
REPO_SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


def assert_matches_golden(name, text):
    assert text == (GOLDEN / name).read_text()


RESET_LINT_FIXTURE = '''\
"""Fixture exercising every NYX04x rule."""

SEEN_IDS = {}

pending = []  # nyx: allow[NYX041] -- deliberate cross-reset registry

BOUNDS = [8, 16]


def remember(key):
    SEEN_IDS[key] = True


class Device:
    backlog = []

    def __init__(self):
        self.hits = 0
        self.queue = []

    def on_packet(self, data):
        self.hits += 1
        self.queue.append(data)

    def reset_for_test(self):
        self.queue = []


class Orphan:
    def __init__(self):
        self.count = 0

    def poke(self):
        self.count += 1


class Hooked:
    def __init__(self):
        self.seen = []

    def record(self, item):
        self.seen.append(item)

    def on_root_restore(self):
        pass


class Latch:
    def __init__(self):
        self.armed = False  # nyx: allow[reset] -- one-way latch

    def trip(self):
        self.armed = True


class Serialized:  # nyx: state[memory]
    def __init__(self):
        self.inbox = []

    def deliver(self, data):
        self.inbox.append(data)
'''

#: A deliberately leaky device, used to prove BOTH prongs catch the
#: same defect: the static lint flags ``hits`` (NYX040) and the
#: runtime sanitizer names the exact ``devices.evil.hits`` path.
LEAKY_DEVICE_SRC = '''\
class EvilDevice:
    """Test-only device that keeps per-exec state across resets."""

    def __init__(self):
        self.hits = 0

    def on_exec(self):
        self.hits += 1
'''

#: A lint-clean class: every mutated attribute is restored by
#: ``reset_for_test``, so its post-reset digest must be a fixpoint.
CLEAN_SESSION_SRC = '''\
class Session:
    def __init__(self):
        self.count = 0
        self.buf = []
        self.table = {}

    def on_packet(self, data):
        self.count += 1
        self.buf.append(data)
        self.table[len(self.buf)] = data

    def reset_for_test(self):
        self.count = 0
        self.buf = []
        self.table = {}
'''


def _exec_fixture(src, name):
    namespace = {}
    exec(compile(src, "<fixture>", "exec"), namespace)
    return namespace[name]


class TestResetLint:
    def test_fixture_findings(self):
        diags = analyze_reset_source("fixture.py", RESET_LINT_FIXTURE)
        codes = [d.code for d in diags]
        assert codes == ["NYX041", "NYX042", "NYX043", "NYX040", "NYX044"]

    def test_golden(self):
        diags = analyze_reset_source("fixture.py", RESET_LINT_FIXTURE)
        report = Report(diagnostics=diags)
        assert_matches_golden("resetlint.txt", report.format_text() + "\n")

    def test_messages_name_attribute_and_reset_method(self):
        diags = analyze_reset_source("fixture.py", RESET_LINT_FIXTURE)
        by_code = {d.code: d for d in diags}
        assert "Device.hits" in by_code["NYX043"].message
        assert "reset_for_test" in by_code["NYX043"].message
        assert "Orphan.count" in by_code["NYX040"].message
        assert "Hooked.seen" in by_code["NYX044"].message
        assert "on_root_restore" in by_code["NYX044"].message
        assert by_code["NYX044"].severity is Severity.WARNING

    def test_anchor_is_the_defining_line(self):
        diags = analyze_reset_source("fixture.py", RESET_LINT_FIXTURE)
        by_code = {d.code: d for d in diags}
        lines = RESET_LINT_FIXTURE.splitlines()
        assert lines[by_code["NYX043"].line - 1].strip() == "self.hits = 0"
        assert lines[by_code["NYX040"].line - 1].strip() == "self.count = 0"

    def test_allcaps_global_mutated_via_subscript_is_caught(self):
        src = "_SEEN = {}\n\ndef f(key):\n    _SEEN[key] = True\n"
        diags = analyze_reset_source("x.py", src)
        assert [d.code for d in diags] == ["NYX041"]
        assert "mutated at line 4" in diags[0].message

    def test_allcaps_unmutated_global_is_a_constant(self):
        assert analyze_reset_source("x.py", "TABLE = [1, 2]\n") == []

    def test_local_rebinding_shadows_the_global(self):
        src = ("cache = {}  # nyx: allow[reset]\n"
               "def f():\n    cache = {}\n    cache[1] = 2\n")
        assert analyze_reset_source("x.py", src) == []

    def test_attribute_hop_not_attributed_to_holder(self):
        # self.kernel.count += 1 mutates the kernel, not self.kernel.
        src = ("class Api:\n"
               "    def __init__(self, kernel):\n"
               "        self.kernel = kernel\n"
               "    def poke(self):\n"
               "        self.kernel.count += 1\n")
        assert analyze_reset_source("x.py", src) == []

    def test_subscript_chain_is_attributed_to_holder(self):
        src = ("class Grid:\n"
               "    def __init__(self):\n"
               "        self.rows = [[0]]\n"
               "    def poke(self):\n"
               "        self.rows[0][0] = 1\n")
        assert [d.code for d in analyze_reset_source("x.py", src)] \
            == ["NYX040"]

    def test_class_line_allow_suppresses_whole_class(self):
        src = ("class Book:  # nyx: allow[reset]\n"
               "    def __init__(self):\n"
               "        self.n = 0\n"
               "    def poke(self):\n"
               "        self.n += 1\n")
        assert analyze_reset_source("x.py", src) == []

    def test_single_code_allow_leaves_other_rules(self):
        src = ("class Book:\n"
               "    shared = []\n"
               "    def __init__(self):\n"
               "        self.n = 0  # nyx: allow[NYX040]\n"
               "    def poke(self):\n"
               "        self.n += 1\n")
        assert [d.code for d in analyze_reset_source("x.py", src)] \
            == ["NYX042"]

    def test_memory_marker_covers_instances_not_class_containers(self):
        src = ("class Box:  # nyx: state[memory]\n"
               "    shared = []\n"
               "    def __init__(self):\n"
               "        self.n = 0\n"
               "    def poke(self):\n"
               "        self.n += 1\n")
        assert [d.code for d in analyze_reset_source("x.py", src)] \
            == ["NYX042"]

    def test_parse_error_is_nyx045(self):
        diags = analyze_reset_source("broken.py", "def f(:\n")
        assert [d.code for d in diags] == ["NYX045"]
        assert diags[0].severity is Severity.ERROR

    def test_leaky_device_fixture_caught_statically(self):
        diags = analyze_reset_source("evil.py", LEAKY_DEVICE_SRC)
        assert [d.code for d in diags] == ["NYX040"]
        assert "EvilDevice.hits" in diags[0].message

    def test_repo_reset_lint_is_clean(self):
        assert analyze_reset_tree(str(REPO_SRC)) == []

    def test_fixit_stubs(self):
        stubs = fixit_stubs("fixture.py", RESET_LINT_FIXTURE)
        assert sorted(stubs) == ["Device", "Hooked", "Orphan"]
        assert "# add to Device.reset_for_test():" in stubs["Device"]
        assert "self.hits = 0" in stubs["Device"]
        assert "def reset_for_test(self)" in stubs["Orphan"]
        assert "self.count = 0" in stubs["Orphan"]
        assert "self.seen = []" in stubs["Hooked"]

    def test_tree_fixit_stubs_keyed_by_path(self, tmp_path):
        (tmp_path / "mod.py").write_text(LEAKY_DEVICE_SRC)
        stubs = tree_fixit_stubs(str(tmp_path))
        assert list(stubs) == ["%s::EvilDevice" % (tmp_path / "mod.py")]

    def test_allowed_registry_collects_suppressions(self, tmp_path):
        (tmp_path / "mod.py").write_text(RESET_LINT_FIXTURE)
        allowed = allowed_reset_attrs(str(tmp_path))
        assert ("Latch", "armed") in allowed
        # Memory-marked classes are NOT in the registry: the sanitizer
        # must still walk them (the snapshot restores their state).
        assert ("Serialized", "*") not in allowed

    def test_repo_registry_covers_known_cross_reset_state(self):
        allowed = allowed_reset_attrs(str(REPO_SRC))
        assert ("Interceptor", "saw_first_read") in allowed
        assert ("Kernel", "crash_reports") in allowed
        assert ("FaultInjector", "*") in allowed


class TestStructuralDigest:
    def test_deterministic_and_path_named(self):
        dev = _exec_fixture(LEAKY_DEVICE_SRC, "EvilDevice")()
        d1, t1 = structural_digest({"dev": dev})
        d2, t2 = structural_digest({"dev": dev})
        assert d1 == d2 and not t1 and not t2
        assert d1["dev.hits"] == "0"

    def test_diff_reports_exact_path(self):
        dev = _exec_fixture(LEAKY_DEVICE_SRC, "EvilDevice")()
        before, _ = structural_digest({"dev": dev})
        dev.on_exec()
        after, _ = structural_digest({"dev": dev})
        diags = diff_digests(before, after)
        assert [d.code for d in diags] == ["NYX050"]
        assert "dev.hits" in diags[0].message
        assert "0 -> 1" in diags[0].message

    def test_appeared_and_disappeared_paths_are_nyx051(self):
        dev = _exec_fixture(LEAKY_DEVICE_SRC, "EvilDevice")()
        before, _ = structural_digest({"dev": dev})
        del dev.hits
        dev.ghost = 7
        after, _ = structural_digest({"dev": dev})
        codes = {d.code for d in diff_digests(before, after)}
        assert codes == {"NYX051"}
        messages = " ".join(d.message
                            for d in diff_digests(before, after))
        assert "dev.ghost" in messages and "dev.hits" in messages

    def test_self_referential_fd_table_digests_as_cycle(self):
        class FdTable:
            def __init__(self):
                self.entries = {}

        table = FdTable()
        table.entries[0] = table          # fd 0 points back at itself
        digest, truncated = structural_digest({"fds": table})
        assert digest["fds.entries[0]"] == "<cycle>"
        assert not truncated
        # Stable across runs despite the cycle.
        assert structural_digest({"fds": table})[0] == digest

    def test_shared_object_is_not_a_cycle(self):
        # The same object reachable twice (not on its own path) is
        # walked both times — only true back-edges digest as <cycle>.
        shared = {"k": 1}
        digest, _ = structural_digest({"root": {"a": shared, "b": shared}})
        assert digest["root['a']['k']"] == "1"
        assert digest["root['b']['k']"] == "1"

    def test_depth_cap_truncates_and_flags(self):
        deep = current = []
        for _ in range(30):
            nxt = []
            current.append(nxt)
            current = nxt
        digest, truncated = structural_digest({"deep": deep}, max_depth=5)
        assert truncated
        assert "<depth>" in digest.values()

    def test_unordered_leaves_are_stable(self):
        digest, _ = structural_digest({"s": {3, 1, 2},
                                       "f": frozenset({"b", "a"})})
        assert digest["s"] == "[1, 2, 3]"
        assert digest["f"] == "['a', 'b']"

    def test_long_leaves_are_fingerprinted(self):
        digest, _ = structural_digest({"blob": b"x" * 4096})
        assert digest["blob"].startswith("sha1:")

    def test_allowed_attrs_are_skipped(self):
        dev = _exec_fixture(LEAKY_DEVICE_SRC, "EvilDevice")()
        digest, _ = structural_digest({"dev": dev},
                                      allowed=[("EvilDevice", "hits")])
        assert "dev.hits" not in digest

    def test_sanitizer_requires_baseline(self):
        sanitizer = ResetSanitizer({"x": object()}, allowed=())
        with pytest.raises(RuntimeError):
            sanitizer.check()

    def test_depth_cap_reported_once_as_nyx052(self):
        deep = current = []
        for _ in range(30):
            nxt = []
            current.append(nxt)
            current = nxt
        sanitizer = ResetSanitizer({"deep": deep}, allowed=(), max_depth=5)
        sanitizer.capture_baseline()
        first = sanitizer.check()
        assert [d.code for d in first] == ["NYX052"]
        assert sanitizer.check() == []   # flagged once, not per check


class TestDigestStabilityProperty:
    def test_session_fixture_is_lint_clean(self):
        assert analyze_reset_source("session.py", CLEAN_SESSION_SRC) == []

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_lint_clean_class_has_fixpoint_digest(self, seed):
        """50 randomized exec/reset cycles never move the digest."""
        session = _exec_fixture(CLEAN_SESSION_SRC, "Session")()
        rng = DeterministicRandom(seed)
        sanitizer = ResetSanitizer({"session": session}, allowed=())
        session.reset_for_test()
        sanitizer.capture_baseline()
        for _ in range(50):
            for _ in range(rng.randrange(8)):
                session.on_packet(bytes([rng.randrange(256)]))
            session.reset_for_test()
            assert sanitizer.check() == []


class TestLeakRegressions:
    """The two genuine leaks the analyzer found, pinned forever."""

    def test_reset_prunes_stale_surface_sids(self):
        machine, kernel, interceptor = boot_target(PROFILES["lighttpd"])
        boot_listeners = dict(interceptor.listener_sids)
        assert boot_listeners  # lighttpd binds its surface at boot
        interceptor.listener_sids[999999] = ("0.0.0.0", 8080)
        interceptor.dgram_sids[999998] = ("0.0.0.0", 6969)
        interceptor.reset_for_test()
        assert interceptor.listener_sids == boot_listeners
        assert 999998 not in interceptor.dgram_sids

    def test_same_input_same_coverage_despite_stale_listener(self):
        # A surface-matching bind mid-exec leaves a listener sid whose
        # socket the snapshot reset rolls back; before the fix the
        # stale entry skewed open_connection's round-robin so the same
        # input produced different coverage on the next run.
        handles = build_campaign(PROFILES["lighttpd"], policy="none",
                                 seed=0, time_budget=1e9, max_execs=100)
        seed_input = handles.profile.seeds()[0]
        first = handles.executor.run_full(seed_input)
        handles.interceptor.listener_sids[999999] = ("0.0.0.0", 8080)
        second = handles.executor.run_full(seed_input)
        assert first.trace == second.trace
        assert 999999 not in handles.interceptor.listener_sids

    def test_suffix_runs_prune_stale_surface_too(self):
        handles = build_campaign(PROFILES["lighttpd"], policy="none",
                                 seed=0, time_budget=1e9, max_execs=100)
        seed_input = handles.profile.seeds()[0]
        handles.executor.run_full(seed_input, snapshot_after_packets=[0])
        assert handles.executor.chain_resume_index(1) is not None
        baseline = handles.executor.run_suffix(seed_input)
        handles.interceptor.listener_sids[999999] = ("0.0.0.0", 8080)
        again = handles.executor.run_suffix(seed_input)
        assert 999999 not in handles.interceptor.listener_sids
        assert baseline.trace == again.trace

    def test_restore_clears_phantom_outbox_bytes(self):
        # Bytes the guest sent during a rolled-back execution must not
        # survive the restore as phantom responses.
        machine, kernel, interceptor = boot_target(PROFILES["lighttpd"])
        kernel._outbox[12345] = [b"stale response"]
        kernel.flush_to_memory()
        machine.restore_root()
        assert kernel._outbox == {}


class TestCampaignIntegration:
    def test_sanitized_campaign_reports_zero_leaks(self):
        handles = build_campaign(PROFILES["lighttpd"], policy="balanced",
                                 seed=1, time_budget=1e9, max_execs=120,
                                 sanitize_every=40)
        stats = handles.fuzzer.run_campaign()
        assert stats.sanitizer_checks >= 2   # periodic + final
        assert stats.sanitizer_leaks == 0
        assert handles.fuzzer.sanitizer_findings == []

    def test_injected_leak_caught_with_exact_path(self):
        handles = build_campaign(PROFILES["lighttpd"], policy="none",
                                 seed=0, time_budget=1e9, max_execs=4,
                                 sanitize_every=1000)
        evil = _exec_fixture(LEAKY_DEVICE_SRC, "EvilDevice")()
        handles.machine.devices.evil = evil
        handles.fuzzer.begin_campaign()      # captures the baseline
        evil.on_exec()                       # the leak: survives resets
        handles.fuzzer._sanitize_check()
        stats = handles.fuzzer.stats
        assert stats.sanitizer_checks == 1
        assert stats.sanitizer_leaks == 1
        finding = handles.fuzzer.sanitizer_findings[0]
        assert finding.code == "NYX050"
        assert "devices.evil.hits" in finding.message

    def test_sanitizer_disabled_by_default(self):
        handles = build_campaign(PROFILES["lighttpd"], policy="none",
                                 seed=0, time_budget=1e9, max_execs=3)
        stats = handles.fuzzer.run_campaign()
        assert handles.fuzzer.sanitizer is None
        assert stats.sanitizer_checks == 0

    def test_stats_roundtrip_and_merge(self):
        a = CampaignStats(sanitizer_checks=3, sanitizer_leaks=1)
        b = CampaignStats(sanitizer_checks=2, sanitizer_leaks=0)
        merged = CampaignStats.merge([a, b])
        assert merged.sanitizer_checks == 5
        assert merged.sanitizer_leaks == 1
        assert a.as_dict()["sanitizer_checks"] == 3
        assert a.as_dict()["sanitizer_leaks"] == 1


class TestCli:
    def test_analyze_reset_flags_fixture_tree(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(RESET_LINT_FIXTURE)
        code = cli_main(["analyze", "--reset", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "NYX041" in out and "NYX043" in out

    def test_analyze_reset_fix_prints_stubs(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(LEAKY_DEVICE_SRC)
        code = cli_main(["analyze", "--reset", str(tmp_path), "--fix"])
        out = capsys.readouterr().out
        assert code == 1
        assert "fix-it for" in out and "self.hits = 0" in out

    def test_analyze_reset_repo_is_clean(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        code = cli_main(["analyze", "--reset", str(REPO_SRC),
                         "--json", str(report_path)])
        assert code == 0
        assert report_path.exists()

    def test_fuzz_sanitize_resets_flag(self, capsys):
        code = cli_main(["fuzz", "lighttpd", "--time", "1000000",
                         "--execs", "60", "--seed", "1", "--policy",
                         "none", "--sanitize-resets", "30"])
        out = capsys.readouterr().out
        assert code == 0
        assert "reset sanitizer:" in out
        assert "0 leaks" in out
