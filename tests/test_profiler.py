"""Deterministic sim-cost profiler (NYX07x runtime prong) tests.

``repro.perf.profiler`` instruments the engine with sim-clock-reading
wrappers, emits a per-site cost table that is a pure function of the
campaign configuration, gates it against a committed budget baseline
(NYX076) and cross-checks top-decile sites against the static hot call
graph (NYX077).  The acceptance keystone: one injected hot-loop
allocation is caught by BOTH prongs, each naming the exact site.
"""

import importlib
import json
import pathlib
import sys

from repro.analysis.hotlint import analyze_hot_source
from repro.cli import main as cli_main
from repro.fuzz.campaign import build_campaign
from repro.fuzz.stats import stats_checksum
from repro.perf.profiler import (CONFIG_KEYS, ProfileCollector,
                                 compare_profile, format_profile,
                                 instrument, profile_checksum, run_profile,
                                 static_disagreement)
from repro.targets import PROFILES

GOLDEN = pathlib.Path(__file__).parent / "golden"
BASELINE = GOLDEN / "profile_baseline.json"
REPO_SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


class FakeClock:
    def __init__(self):
        self.now = 0.0


def payload_for(sites, **config):
    base = {"kind": "profile", "target": "toy", "seed": 0, "execs": 10,
            "policy": "x", "sites": sites,
            "profile_checksum": profile_checksum(sites)}
    base.update(config)
    return base


class TestCollector:
    def test_nested_inclusive_exclusive_split(self):
        clock = FakeClock()
        collector = ProfileCollector()
        collector.attach_clock(clock)
        collector._push("a")
        clock.now += 1.0
        collector._push("b")
        clock.now += 2.0
        collector._pop()
        clock.now += 3.0
        collector._pop()
        table = collector.as_table()
        assert table["b"] == {"calls": 1, "incl": 2.0, "excl": 2.0}
        # a's inclusive spans all 6s; exclusive excludes b's 2s.
        assert table["a"] == {"calls": 1, "incl": 6.0, "excl": 4.0}

    def test_sibling_child_times_accumulate(self):
        clock = FakeClock()
        collector = ProfileCollector()
        collector.attach_clock(clock)
        collector._push("parent")
        for _ in range(3):
            collector._push("child")
            clock.now += 1.0
            collector._pop()
        collector._pop()
        table = collector.as_table()
        assert table["child"]["calls"] == 3
        assert table["parent"] == {"calls": 1, "incl": 3.0, "excl": 0.0}


TOY = '''\
class Toy:
    def __init__(self, clock):
        self.clock = clock
        self.pad = b"\\x00" * 16

    def outer(self, n):  # nyx: hot
        for _ in range(n):
            self.inner()

    def inner(self):
        self.clock.now += 0.001
'''

#: The injected regression: a per-iteration allocation in the hot loop
#: plus the helper call that spends time in a brand-new site.
TOY_INJECTED = TOY.replace(
    "            self.inner()\n",
    "            scratch = bytes(self.pad)\n"
    "            self._record(scratch)\n"
    "            self.inner()\n") + '''
    def _record(self, scratch):
        self.clock.now += 0.002
'''


def _import_toy(tmp_path, name, source):
    (tmp_path / (name + ".py")).write_text(source)
    sys.path.insert(0, str(tmp_path))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.pop(0)


def _profile_toy(module, modname, n=10):
    collector = ProfileCollector()
    undo = instrument(collector, [modname])
    try:
        clock = FakeClock()
        collector.attach_clock(clock)
        module.Toy(clock).outer(n)
        collector.stop()
    finally:
        undo()
    return collector.as_table()


class TestInstrumentation:
    def test_wrappers_record_per_site_costs(self, tmp_path):
        module = _import_toy(tmp_path, "nyx_toy_plain", TOY)
        table = _profile_toy(module, "nyx_toy_plain")
        inner = table["nyx_toy_plain:Toy.inner"]
        assert inner["calls"] == 10
        assert abs(inner["excl"] - 0.010) < 1e-9

    def test_undo_restores_originals(self, tmp_path):
        module = _import_toy(tmp_path, "nyx_toy_undo", TOY)
        original = module.Toy.outer
        collector = ProfileCollector()
        undo = instrument(collector, ["nyx_toy_undo"])
        assert module.Toy.outer is not original
        undo()
        assert module.Toy.outer is original

    def test_disabled_collector_records_nothing(self, tmp_path):
        module = _import_toy(tmp_path, "nyx_toy_off", TOY)
        collector = ProfileCollector()
        undo = instrument(collector, ["nyx_toy_off"])
        try:
            module.Toy(FakeClock()).outer(5)  # clock never attached
        finally:
            undo()
        assert collector.as_table() == {}


class TestBothProngs:
    """The injected hot-loop allocation, caught twice by name."""

    def test_static_prong_names_the_injected_line(self):
        diags = analyze_hot_source("toy.py", TOY_INJECTED)
        hits = [d for d in diags if d.code == "NYX070"]
        assert len(hits) == 1
        line = TOY_INJECTED.splitlines()[hits[0].line - 1]
        assert "scratch = bytes(self.pad)" in line
        assert "Toy.outer" in hits[0].message
        # The pre-injection toy is clean.
        assert analyze_hot_source("toy.py", TOY) == []

    def test_runtime_prong_names_the_injected_site(self, tmp_path):
        module = _import_toy(tmp_path, "nyx_toy_inj", TOY_INJECTED)
        current = payload_for(_profile_toy(module, "nyx_toy_inj"))
        baseline_sites = {site: rec for site, rec in
                         current["sites"].items()
                         if not site.endswith("Toy._record")}
        baseline = payload_for(baseline_sites)
        diags, _ = compare_profile(current, baseline)
        new = [d for d in diags if "new hot site" in d.message]
        assert len(new) == 1
        assert "nyx_toy_inj:Toy._record" in new[0].message
        assert new[0].code == "NYX076" and new[0].fixable


class TestBudgetGate:
    def test_identical_profile_is_clean(self):
        sites = {"m:A.f": {"calls": 5, "incl": 1.0, "excl": 1.0}}
        diags, notes = compare_profile(payload_for(sites),
                                       payload_for(sites))
        assert diags == []
        assert any("identical" in n for n in notes)

    def test_cost_drift_past_budget_is_nyx076(self):
        base = payload_for({"m:A.f": {"calls": 5, "incl": 1.0,
                                      "excl": 1.0}})
        cur = payload_for({"m:A.f": {"calls": 5, "incl": 1.5,
                                     "excl": 1.5}})
        diags, _ = compare_profile(cur, base, pct=25.0)
        assert len(diags) == 1
        assert "drifted past the 25% budget" in diags[0].message
        # Within budget: quiet.
        diags, _ = compare_profile(cur, base, pct=60.0)
        assert diags == []

    def test_call_count_change_is_reported(self):
        base = payload_for({"m:A.f": {"calls": 5, "incl": 1.0,
                                      "excl": 1.0}})
        cur = payload_for({"m:A.f": {"calls": 7, "incl": 1.0,
                                     "excl": 1.0}})
        diags, _ = compare_profile(cur, base)
        assert len(diags) == 1 and "calls 5 -> 7" in diags[0].message

    def test_vanished_site_is_nyx076(self):
        base = payload_for({"m:A.f": {"calls": 5, "incl": 1.0,
                                      "excl": 1.0},
                            "m:A.g": {"calls": 1, "incl": 0.1,
                                      "excl": 0.1}})
        cur = payload_for({"m:A.f": {"calls": 5, "incl": 1.0,
                                     "excl": 1.0}})
        diags, _ = compare_profile(cur, base)
        assert len(diags) == 1 and "vanished" in diags[0].message

    def test_config_mismatch_skips_the_gate(self):
        sites = {"m:A.f": {"calls": 5, "incl": 1.0, "excl": 1.0}}
        diags, notes = compare_profile(payload_for(sites, seed=1),
                                       payload_for(sites, seed=2))
        assert diags == []
        assert any("config mismatch" in n and "seed" in n for n in notes)


class TestStaticDisagreement:
    def test_uncovered_top_decile_site_is_nyx077(self):
        sites = {"repro.fuzz.executor:Phantom.spin":
                 {"calls": 100, "incl": 9.0, "excl": 9.0}}
        for i in range(9):
            sites["m:A.f%d" % i] = {"calls": 1, "incl": 0.01,
                                    "excl": 0.01}
        diags = static_disagreement(payload_for(sites), str(REPO_SRC))
        assert len(diags) == 1
        assert diags[0].code == "NYX077"
        assert "Phantom.spin" in diags[0].message

    def test_covered_top_site_is_quiet(self):
        sites = {"repro.fuzz.executor:NyxExecutor.run_full":
                 {"calls": 100, "incl": 9.0, "excl": 9.0}}
        for i in range(9):
            sites["m:A.f%d" % i] = {"calls": 1, "incl": 0.01,
                                    "excl": 0.01}
        assert static_disagreement(payload_for(sites),
                                   str(REPO_SRC)) == []


class TestRealCampaign:
    def test_wrappers_do_not_perturb_the_sim(self):
        profiled = run_profile(execs=120)
        bare = build_campaign(PROFILES["lighttpd"], policy="aggressive",
                              seed=1, time_budget=1e9, max_execs=120)
        assert profiled["stats_checksum"] == stats_checksum(
            bare.fuzzer.run_campaign())

    def test_profile_is_deterministic(self):
        a = run_profile(execs=120)
        b = run_profile(execs=120)
        assert a["profile_checksum"] == b["profile_checksum"]
        assert a["sites"] == b["sites"]

    def test_committed_baseline_matches(self):
        baseline = json.loads(BASELINE.read_text())
        current = run_profile(
            **{key: baseline[key] for key in CONFIG_KEYS})
        diags, notes = compare_profile(current, baseline,
                                       baseline_path=str(BASELINE))
        assert diags == []
        assert any("identical" in n for n in notes)

    def test_top_decile_sites_have_static_coverage(self):
        baseline = json.loads(BASELINE.read_text())
        assert static_disagreement(baseline, str(REPO_SRC)) == []

    def test_format_profile_mentions_heaviest_site(self):
        baseline = json.loads(BASELINE.read_text())
        text = format_profile(baseline, top=3)
        heaviest = max(baseline["sites"],
                       key=lambda s: baseline["sites"][s]["excl"])
        assert heaviest in text
        assert baseline["profile_checksum"] in text


class TestCli:
    def test_profile_gates_clean_against_committed_baseline(self, capsys):
        assert cli_main(["profile"]) == 0
        out = capsys.readouterr().out
        assert "identical" in out

    def test_unknown_target_exits_two(self):
        assert cli_main(["profile", "no-such-target"]) == 2

    def test_write_then_gate_roundtrip(self, tmp_path, capsys):
        baseline = tmp_path / "profile_baseline.json"
        assert cli_main(["profile", "--execs", "60",
                         "--baseline", str(baseline),
                         "--write-baseline"]) == 0
        # The gated run adopts the baseline's exec count.
        report = tmp_path / "report.json"
        assert cli_main(["profile", "--baseline", str(baseline),
                         "--json", str(report)]) == 0
        merged = json.loads(report.read_text())
        assert merged["meta"]["profile"]["execs"] == 60
        assert merged["meta"]["profile_checksum"] == \
            json.loads(baseline.read_text())["profile_checksum"]
