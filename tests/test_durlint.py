"""Durability lint (NYX06x) and runtime checkpoint verifier tests.

Static half: ``repro.analysis.durlint`` audits every snapshot/restore
pair for capture completeness, key asymmetry, golden-inventory drift,
non-deterministic serialization and unregistered journal frames.
Runtime half: ``repro.analysis.statediff`` proves restore is a digest
fixpoint and that a fresh process restoring a checkpoint and
re-stepping lands on the parent's exact state.  An injected
uncaptured-attribute regression must be caught by BOTH halves with the
exact attribute path.
"""

import json
import pathlib
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.diagnostics import (FAMILIES, RULES, Report,
                                        validate_registry)
from repro.analysis.durlint import (analyze_durability_source,
                                    analyze_durability_tree,
                                    durability_fixit_stubs,
                                    state_inventory)
from repro.analysis.statediff import (_child_report, fixpoint_check,
                                      state_digest, verify_checkpoint)
from repro.cli import main as cli_main
from repro.fuzz.campaign import (build_campaign_from_manifest,
                                 build_parallel_campaign_from_manifest)
from repro.fuzz.journal import (CheckpointStore, DurableCampaign,
                                DurableParallelCampaign, FRAME_KINDS,
                                Journal, campaign_manifest, scan_journal)
from repro.fuzz.stats import CampaignStats
from repro.fuzz.stats import stats_checksum
from repro.targets import PROFILES

GOLDEN = pathlib.Path(__file__).parent / "golden"
REPO_SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


def assert_matches_golden(name, text):
    assert text == (GOLDEN / name).read_text()


def lint(source, handled=None):
    return analyze_durability_source("mod.py", source,
                                     handled_kinds=handled)


#: One of everything: an uncaptured mutable attribute (NYX060), a
#: captured-but-never-restored key and a restored-but-never-captured
#: key (NYX061), a raw set crossing pickle (NYX063), an unregistered
#: journal frame kind (NYX064), plus an ephemeral-marked cache that
#: must stay quiet.
FIXTURE = '''\
class Tracker:
    def __init__(self):
        self.count = 0
        self.seen = set()
        self.cache = {}  # nyx: state[ephemeral] rebuilt on first use

    def bump(self, x):
        self.count += 1
        self.seen.add(x)
        self.cache[x] = 1
        self.lost = x

    def snapshot_state(self):
        return {
            "count": self.count,
            "seen": self.seen,
            "extra": 1,
        }

    def restore_state(self, state):
        self.count = state["count"]
        self.seen = set(state["seen"])
        self.stray = state["stray"]


def journal_demo(journal):
    journal.append("mystery", {})
'''


class TestRegistry:
    def test_repo_registry_is_valid(self):
        validate_registry()  # must not raise

    def test_nyx06x_family_is_registered(self):
        rng, module = FAMILIES["durability lint"]
        assert rng == (60, 69)
        assert module == "repro.analysis.durlint"
        for code in ("NYX060", "NYX061", "NYX062", "NYX063", "NYX064",
                     "NYX065", "NYX066"):
            assert code in RULES

    def test_duplicate_code_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            validate_registry(rules=["NYX060", "NYX060"])

    def test_overlapping_family_ranges_rejected(self):
        bad = {"a": ((0, 9), "m.a"), "b": ((5, 15), "m.b")}
        with pytest.raises(ValueError, match="overlap"):
            validate_registry(rules=[], families=bad)

    def test_inverted_range_rejected(self):
        with pytest.raises(ValueError):
            validate_registry(rules=[], families={"a": ((9, 0), "m.a")})

    def test_malformed_code_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            validate_registry(rules=["NYX06"])
        with pytest.raises(ValueError, match="malformed"):
            validate_registry(rules=["ABC123"])

    def test_code_outside_every_family_rejected(self):
        with pytest.raises(ValueError, match="no registered family"):
            validate_registry(rules=["NYX099"])


class TestDurLint:
    def test_fixture_findings(self):
        diags = lint(FIXTURE)
        assert [d.code for d in diags] == [
            "NYX060", "NYX063", "NYX061", "NYX061", "NYX064"]

    def test_uncaptured_attribute_names_exact_path(self):
        found = [d for d in lint(FIXTURE) if d.code == "NYX060"]
        assert len(found) == 1
        assert "Tracker.lost" in found[0].message
        assert found[0].fixable

    def test_asymmetry_names_both_directions(self):
        msgs = [d.message for d in lint(FIXTURE) if d.code == "NYX061"]
        assert any("'extra'" in m and "never reads it" in m for m in msgs)
        assert any("'stray'" in m and "never captures it" in m
                   for m in msgs)

    def test_raw_set_capture_is_nyx063(self):
        found = [d for d in lint(FIXTURE) if d.code == "NYX063"]
        assert len(found) == 1 and "'seen'" in found[0].message
        assert found[0].fixable

    def test_nyx063_names_the_breadth_first_set_leaf(self):
        # Two set constructs on two lines: the finding names the one a
        # breadth-first walk of the value meets first (``set()``, one
        # level up), not the first in source order (``{1}``).
        src = ("class Tracker:\n"
               "    def __init__(self):\n"
               "        self.count = 0\n"
               "\n"
               "    def snapshot_state(self):\n"
               "        return {\"count\": self.count,\n"
               "                \"seen\": merge(wrap({1}),\n"
               "                              set())}\n"
               "\n"
               "    def restore_state(self, state):\n"
               "        self.count = state[\"count\"]\n"
               "        self.seen = state[\"seen\"]\n")
        found = lint(src)
        assert [(d.code, d.line) for d in found] == [("NYX063", 8)]
        assert "'seen'" in found[0].message

    def test_sorted_capture_is_clean(self):
        fixed = FIXTURE.replace('"seen": self.seen,',
                                '"seen": sorted(self.seen),')
        assert not [d for d in lint(fixed) if d.code == "NYX063"]

    def test_ephemeral_marker_suppresses_nyx060(self):
        assert not [d for d in lint(FIXTURE) if "cache" in d.message]
        unmarked = FIXTURE.replace(
            "  # nyx: state[ephemeral] rebuilt on first use", "")
        assert [d for d in lint(unmarked)
                if d.code == "NYX060" and "cache" in d.message]

    def test_class_line_allow_suppresses_the_family(self):
        allowed = FIXTURE.replace(
            "class Tracker:",
            "class Tracker:  # nyx: allow[NYX06x] test fixture")
        codes = {d.code for d in lint(allowed)}
        assert codes == {"NYX064"}  # module-level audit is separate

    def test_single_code_allow_leaves_other_rules(self):
        allowed = FIXTURE.replace(
            '"extra": 1,', '"extra": 1,  # nyx: allow[NYX061] handshake')
        diags = lint(allowed)
        msgs = [d.message for d in diags if d.code == "NYX061"]
        assert not any("'extra'" in m for m in msgs)
        assert any("'stray'" in m for m in msgs)
        assert any(d.code == "NYX060" for d in diags)

    def test_registered_frame_kind_is_clean(self):
        assert not [d for d in lint(FIXTURE, handled={"mystery"})
                    if d.code == "NYX064"]

    def test_own_module_registry_is_honoured(self):
        source = 'FRAME_KINDS = {"mystery": "demo"}\n\n' + FIXTURE
        assert not [d for d in lint(source) if d.code == "NYX064"]
        assert [d for d in lint(source + '\n\ndef f(j):\n'
                                '    j.journal.append("other", {})\n')
                if d.code == "NYX064"]

    def test_cross_module_registry_union(self, tmp_path):
        (tmp_path / "reg.py").write_text(
            'FRAME_KINDS = {"mystery": "handled in reg"}\n')
        (tmp_path / "emit.py").write_text(
            'def f(journal):\n    journal.append("mystery", {})\n')
        diags = analyze_durability_tree(str(tmp_path),
                                        golden="/nonexistent.json")
        assert not [d for d in diags if d.code == "NYX064"]

    def test_parse_error_is_nyx045(self):
        diags = lint("def broken(:\n")
        assert [d.code for d in diags] == ["NYX045"]
        assert "durability" in diags[0].message

    def test_golden(self):
        report = Report()
        report.extend(lint(FIXTURE))
        assert_matches_golden("durlint.txt", report.format_text() + "\n")

    def test_fixit_stubs(self, tmp_path):
        (tmp_path / "mod.py").write_text(FIXTURE)
        stubs = durability_fixit_stubs(str(tmp_path))
        assert len(stubs) == 1
        (where, stub), = stubs.items()
        assert where.endswith("mod.py::Tracker")
        assert '"lost": self.lost,' in stub
        assert 'self.lost = state["lost"]' in stub

    def test_repo_tree_lints_clean(self):
        assert analyze_durability_tree(str(REPO_SRC)) == []


class TestStateInventory:
    def test_discovers_every_stateful_class(self):
        inventory = state_inventory(str(REPO_SRC))
        assert {"NyxNetFuzzer", "ParallelCampaign", "Corpus",
                "CrashDatabase", "CoverageMap", "NyxExecutor",
                "FaultInjector"} <= set(inventory)
        fuzzer = inventory["NyxNetFuzzer"]
        assert fuzzer["module"] == "fuzz/fuzzer.py"
        assert fuzzer["state_format"] == 3
        assert "sanitizer_findings" in fuzzer["keys"]

    def test_golden_matches_the_tree(self):
        committed = json.loads(
            (GOLDEN / "state_inventory.json").read_text())
        assert committed == state_inventory(str(REPO_SRC))

    @staticmethod
    def _tree(tmp_path, keys, state_format=1):
        body = "\n".join('            "%s": self.%s,' % (k, k)
                         for k in keys)
        restore = "\n".join('        self.%s = state["%s"]' % (k, k)
                            for k in keys)
        (tmp_path / "mod.py").write_text(
            "class Box:\n"
            "    STATE_FORMAT = %d\n"
            "    def snapshot_state(self):\n"
            "        return {\n%s\n        }\n"
            "    def restore_state(self, state):\n%s\n"
            % (state_format, body, restore))
        return str(tmp_path)

    @staticmethod
    def _golden_file(tmp_path, inventory):
        path = tmp_path / "golden.json"
        path.write_text(json.dumps(inventory))
        return str(path)

    def test_unchanged_inventory_is_clean(self, tmp_path):
        root = self._tree(tmp_path, ["a", "b"])
        golden = self._golden_file(tmp_path, state_inventory(root))
        assert analyze_durability_tree(root, golden=golden) == []

    def test_changed_keys_without_bump_is_a_hard_error(self, tmp_path):
        root = self._tree(tmp_path, ["a", "b"])
        golden = self._golden_file(tmp_path, state_inventory(root))
        self._tree(tmp_path, ["a", "b", "c"])
        diags = analyze_durability_tree(root, golden=golden)
        assert [d.code for d in diags] == ["NYX062"]
        assert "without a STATE_FORMAT bump" in diags[0].message
        assert "'c'" in diags[0].message
        assert not diags[0].fixable

    def test_bumped_format_asks_for_regeneration(self, tmp_path):
        root = self._tree(tmp_path, ["a", "b"])
        golden = self._golden_file(tmp_path, state_inventory(root))
        self._tree(tmp_path, ["a", "b", "c"], state_format=2)
        diags = analyze_durability_tree(root, golden=golden)
        assert [d.code for d in diags] == ["NYX062"]
        assert "regenerate the stale golden" in diags[0].message
        assert diags[0].fixable

    def test_new_class_is_fixable(self, tmp_path):
        root = self._tree(tmp_path, ["a"])
        golden = self._golden_file(tmp_path, {})
        diags = analyze_durability_tree(root, golden=golden)
        assert [d.code for d in diags] == ["NYX062"]
        assert "missing from the state inventory golden" in diags[0].message
        assert diags[0].fixable

    def test_removed_class_is_fixable(self, tmp_path):
        root = self._tree(tmp_path, ["a"])
        golden = self._golden_file(
            tmp_path, dict(state_inventory(root),
                           Gone={"module": "gone.py", "keys": ["x"],
                                 "state_format": 1}))
        diags = analyze_durability_tree(root, golden=golden)
        assert [d.code for d in diags] == ["NYX062"]
        assert "no longer in the tree" in diags[0].message

    def test_missing_golden_skips_the_check(self, tmp_path):
        root = self._tree(tmp_path, ["a"])
        assert analyze_durability_tree(
            root, golden=str(tmp_path / "nope.json")) == []

    def test_golden_lookup_ignores_the_working_directory(
            self, tmp_path, monkeypatch):
        """A tree is diffed only against its own golden, never against
        the inventory of the checkout the lint happens to run from."""
        monkeypatch.chdir(REPO_SRC.parents[1])
        root = self._tree(tmp_path, ["a"])
        assert not [d for d in analyze_durability_tree(root)
                    if d.code == "NYX062"]


def _manifest(seed, **overrides):
    base = dict(policy="aggressive", seed=seed, time_budget=60.0,
                max_execs=300, checkpoint_every=100, fault_rate=0.05,
                exec_timeout=0.02)
    base.update(overrides)
    return campaign_manifest("single", "lighttpd", **base)


def _durable_run(kind, tmp_path, seed, checkpoint_every, max_execs,
                 verify_every=None):
    """Run a durable single campaign or two-worker fleet to the end;
    returns the durable campaign and its canonical stats."""
    if kind == "single":
        manifest = _manifest(seed, max_execs=max_execs,
                             checkpoint_every=checkpoint_every,
                             verify_checkpoints=verify_every)
        durable = DurableCampaign(
            build_campaign_from_manifest(PROFILES["lighttpd"], manifest),
            tmp_path, checkpoint_every=checkpoint_every, manifest=manifest,
            journal_sync=False, verify_every=verify_every)
        return durable, durable.run()
    manifest = campaign_manifest(
        "parallel", "lighttpd", policy="balanced", seed=seed,
        time_budget=10.0, max_execs=max_execs,
        checkpoint_every=checkpoint_every, workers=2,
        verify_checkpoints=verify_every)
    durable = DurableParallelCampaign(
        build_parallel_campaign_from_manifest(PROFILES["lighttpd"], manifest),
        tmp_path, checkpoint_every=checkpoint_every, manifest=manifest,
        journal_sync=False, verify_every=verify_every)
    return durable, durable.run().merged


def _frame_kinds(directory):
    records, _end, _bad = scan_journal(directory / "journal.wal")
    return [kind for kind, _body in records]


def _walk_stateful(root, objects):
    """Breadth-first walk of one live object graph collecting every
    instance that exposes a snapshot/restore pair."""
    seen = set()
    queue = [root]
    while queue:
        obj = queue.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        if (hasattr(obj, "snapshot_state")
                or hasattr(obj, "durable_state")):
            objects.setdefault(type(obj).__name__, obj)
        try:
            children = list(vars(obj).values())
        except TypeError:
            continue
        for child in children:
            if isinstance(child, (list, tuple)):
                queue.extend(c for c in child if hasattr(c, "__dict__"))
            elif hasattr(child, "__dict__"):
                queue.append(child)


def _stateful_objects(seed):
    """Auto-discover every live object exposing a snapshot/restore
    pair, so new stateful classes are covered without editing this
    test (asserted against the lint's inventory below)."""
    handles = build_campaign_from_manifest(PROFILES["lighttpd"],
                                           _manifest(seed))
    fuzzer = handles.fuzzer
    fuzzer.begin_campaign()
    for _ in range(40):
        fuzzer.step()
    parallel_manifest = campaign_manifest(
        "parallel", "lighttpd", policy="balanced", seed=seed,
        time_budget=60.0, max_execs=120, checkpoint_every=100, workers=2)
    campaign = build_parallel_campaign_from_manifest(
        PROFILES["lighttpd"], parallel_manifest)
    campaign.run()
    objects = {}
    _walk_stateful(fuzzer, objects)
    _walk_stateful(campaign, objects)
    return objects


class TestFixpointProperty:
    def test_discovery_covers_the_lint_inventory(self):
        discovered = set(_stateful_objects(0))
        registered = set(state_inventory(str(REPO_SRC)))
        assert registered <= discovered, (
            "stateful classes the lint registers but this property "
            "never exercises: %s" % sorted(registered - discovered))

    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=50))
    def test_snapshot_restore_snapshot_is_byte_identical(self, seed):
        for name, obj in sorted(_stateful_objects(seed).items()):
            if hasattr(obj, "snapshot_state"):
                snapshot, restore = obj.snapshot_state, obj.restore_state
            else:
                snapshot = obj.durable_state
                restore = obj.restore_durable_state
            before = pickle.dumps(snapshot(), protocol=4)
            restore(pickle.loads(before))
            after = pickle.dumps(snapshot(), protocol=4)
            assert before == after, "%s restore is not a fixpoint" % name
            assert fixpoint_check(obj) == [], name


class TestStatediff:
    def test_digest_skips_host_counters(self):
        stats = CampaignStats()
        base, _ = state_digest(stats)
        stats.checkpoints_written = 7
        stats.checkpoint_verifications = 3
        again, _ = state_digest(stats)
        assert base == again

    def test_stats_checksum_ignores_host_counters(self):
        stats = CampaignStats()
        base = stats_checksum(stats)
        stats.checkpoints_written = 9
        stats.checkpoint_epochs_pruned = 4
        stats.checkpoint_verifications = 2
        stats.checkpoint_divergences = 1
        assert stats_checksum(stats) == base

    def test_fixpoint_violation_names_the_path(self):
        class Lossy:
            def __init__(self):
                self.items = [1, 2]

            def snapshot_state(self):
                return {"items": list(self.items)}

            def restore_state(self, state):
                self.items = list(state["items"])[:-1]  # drops one

        diags = fixpoint_check(Lossy())
        assert diags and all(d.code == "NYX065" for d in diags)
        assert any("items" in d.message for d in diags)

    @pytest.fixture(scope="class")
    def finished_campaign(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("vcamp")
        manifest = _manifest(3)
        durable = DurableCampaign(
            build_campaign_from_manifest(PROFILES["lighttpd"], manifest),
            directory, checkpoint_every=100, manifest=manifest,
            journal_sync=False)
        stats = durable.run()
        return directory, stats

    def test_clean_checkpoint_verifies_divergence_free(
            self, finished_campaign):
        directory, stats = finished_campaign
        truth = _child_report(str(directory), None, stats.execs)
        assert truth["fixpoint"] == []
        diags = verify_checkpoint(directory, truth["epoch"], stats.execs,
                                  truth["stats_checksum"], truth["digest"])
        assert diags == []

    def test_injected_regression_caught_with_exact_path(
            self, finished_campaign):
        directory, stats = finished_campaign
        truth = _child_report(str(directory), None, stats.execs)
        diags = verify_checkpoint(directory, truth["epoch"], stats.execs,
                                  truth["stats_checksum"], truth["digest"],
                                  inject="corpus._cursor")
        assert any(d.code == "NYX066"
                   and "state['corpus']['cursor']" in d.message
                   for d in diags)

    def test_injected_regression_caught_statically(self):
        # The same regression class, seen by the other prong: an
        # attribute mutated after __init__ that never travels.
        diags = lint(FIXTURE)
        assert any(d.code == "NYX060" and "Tracker.lost" in d.message
                   for d in diags)

    @pytest.mark.parametrize("kind", ["single", "fleet"])
    def test_verification_runs_inside_a_durable_campaign(self, tmp_path,
                                                         kind):
        durable, stats = _durable_run(kind, tmp_path, 4,
                                      checkpoint_every=100, max_execs=300,
                                      verify_every=100)
        assert stats.checkpoint_verifications >= 1
        assert stats.checkpoint_divergences == 0
        assert durable.verify_findings == []
        assert "verify" in _frame_kinds(tmp_path)

    def test_manifest_records_the_cadence(self):
        manifest = _manifest(0, verify_checkpoints=250)
        assert manifest["verify_checkpoints"] == 250
        assert _manifest(0)["verify_checkpoints"] is None


class TestCheckpointStoreDurability:
    def test_prune_counts_and_fsyncs_the_directory(self, tmp_path,
                                                   monkeypatch):
        import repro.fuzz.journal as journal_mod
        synced = []
        monkeypatch.setattr(journal_mod, "_fsync_dir",
                            lambda d: synced.append(pathlib.Path(d)))
        store = CheckpointStore(tmp_path / "ckpt", keep=2)
        for n in range(4):
            store.save({"n": n})
        assert store.epochs() == [3, 4]
        assert store.pruned_total == 2
        assert synced and all(p == tmp_path / "ckpt" for p in synced)

    @pytest.mark.parametrize("kind", ["single", "fleet"])
    def test_pruned_epochs_surface_in_stats(self, tmp_path, kind):
        # The returned totals count every checkpoint the campaign wrote,
        # the final one included (one checkpoint frame each).
        durable, stats = _durable_run(kind, tmp_path, 5,
                                      checkpoint_every=50, max_execs=400)
        assert stats.checkpoints_written >= 4
        assert stats.checkpoint_epochs_pruned > 0
        assert stats.checkpoints_written == (
            stats.checkpoint_epochs_pruned
            + len(durable.checkpoints.epochs()))
        assert stats.checkpoints_written == (
            _frame_kinds(tmp_path).count("checkpoint"))

    def test_unregistered_frame_kind_rejected(self, tmp_path):
        journal = Journal(tmp_path / "journal.wal", sync=False)
        with pytest.raises(ValueError, match="NYX064"):
            journal.append("bogus", {})
        for kind in FRAME_KINDS:
            journal.append(kind, {})
        journal.close()


class TestAnalyzeCLI:
    def test_multi_prong_merged_report(self, tmp_path):
        out = tmp_path / "report.json"
        rc = cli_main(["analyze", "--spec", "--self", "src/repro",
                       "--reset", "src/repro", "--durability", "src/repro",
                       "--json", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        meta = data["meta"]
        assert meta["self_root"] == "src/repro"
        assert meta["reset_root"] == "src/repro"
        assert meta["durability_root"] == "src/repro"
        assert "spec" in meta

    def test_exit_one_on_findings(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(FIXTURE)
        rc = cli_main(["analyze", "--durability", str(tmp_path)])
        assert rc == 1
        assert "NYX060" in capsys.readouterr().out

    def test_exit_two_on_usage_error(self, tmp_path, capsys):
        rc = cli_main(["analyze", "--durability",
                       str(tmp_path / "missing")])
        assert rc == 2
        assert "not a directory" in capsys.readouterr().err

    def test_fix_prints_stubs(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(FIXTURE)
        rc = cli_main(["analyze", "--durability", str(tmp_path), "--fix"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "fix-it for" in out and '"lost": self.lost,' in out

    def test_fuzz_verify_needs_checkpointing(self, capsys):
        rc = cli_main(["fuzz", "lighttpd", "--verify-checkpoints"])
        assert rc == 2
        assert "--checkpoint-every" in capsys.readouterr().err
