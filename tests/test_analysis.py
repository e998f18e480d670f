"""Tests for the static analysis engine (``repro analyze``).

Covers the diagnostics core, the three analyzer families (spec lint,
op-sequence dataflow lint, determinism self-lint), the fix-it pipeline,
the corpus audit, the CLI, and the wiring into trim/persist/queue.
Golden files under ``tests/golden/`` pin the exact rendered output per
rule family so message or severity drift is a reviewed change.
"""

import json
import pathlib
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (analyze_ops, analyze_spec, apply_fixes,
                            eliminate_dead_ops, repair_blob)
from repro.analysis.corpus import audit_corpus
from repro.analysis.diagnostics import Diagnostic, RULES, Report, Severity
from repro.analysis.selflint import analyze_source, analyze_source_tree
from repro.cli import main as cli_main
from repro.fuzz.input import FuzzInput
from repro.fuzz.mutators import MutationEngine
from repro.fuzz.stats import CampaignStats
from repro.sim.rng import DeterministicRandom
from repro.spec.bytecode import (MAGIC, Op, deserialize, serialize, validate)
from repro.spec.nodes import EdgeType, NodeType, Spec, default_network_spec

GOLDEN = pathlib.Path(__file__).parent / "golden"
REPO_SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


def raw_encode(spec, ops):
    """Encode ops to flat bytecode WITHOUT validating (test damage)."""
    out = bytearray(MAGIC)
    out += struct.pack("<II", spec.checksum(), len(ops))
    for op in ops:
        if op.is_snapshot_marker():
            out += struct.pack("<H", Spec.SNAPSHOT_NODE_ID)
            continue
        node = spec.node_by_name(op.node)
        out += struct.pack("<H", node.node_id)
        for ref in op.refs:
            out += struct.pack("<H", ref)
        for dtype, value in zip(node.data, op.args):
            out += dtype.pack(value)
    return bytes(out)


def damaged_ops():
    """One sequence hitting NYX010, NYX011, NYX012 and NYX013."""
    return [
        Op("snapshot"),                        # 0: leading marker
        Op("connection"),                      # 1: ok (used by 2, 7)
        Op("packet", (0,), (b"GET /",)),       # 2: ok, surface
        Op("snapshot"),                        # 3: superseded interior
        Op("connection"),                      # 4: dead output
        Op("packet", (9,), (b"bad",)),         # 5: ref out of range
        Op("snapshot"),                        # 6: last interior marker
        Op("packet", (0,), (b"POST /",)),      # 7: ok, last surface
        Op("connection"),                      # 8: unobservable tail
        Op("snapshot"),                        # 9: trailing marker
    ]


def broken_spec():
    """A spec hitting every NYX00x rule."""
    s = Spec("broken")
    phantom = s.edge_type("phantom")
    orphan = s.edge_type("orphan")
    s.node_type("maker", outputs=[orphan])           # NYX002
    s.node_type("ghost", borrows=[phantom])          # NYX001 + NYX003
    s.node_type("snapshot")                          # NYX004 (name)
    s.node_types.append(NodeType(Spec.SNAPSHOT_NODE_ID, "evil"))  # NYX004
    s.node_types.append(NodeType(0, "copycat"))      # NYX004 (dup id)
    s.edge_types.append(EdgeType(0, "clone"))        # NYX004 (dup edge)
    s.node_type("scalars", data=[s.data_u8("count")])  # NYX005
    return s


SELF_LINT_FIXTURE = """\
import random
from os import urandom

import time


def stamp():
    return time.time()


def hosts():
    return [h for h in {"a", "b"}]


def drain(items):
    for item in set(items):
        yield item
"""


def assert_matches_golden(name, text):
    assert text == (GOLDEN / name).read_text()


class TestDiagnostics:
    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError):
            Diagnostic("NYX999", "nope")

    def test_default_severity_from_rules(self):
        assert Diagnostic("NYX013", "x").severity is Severity.ERROR
        assert Diagnostic("NYX010", "x").severity is Severity.WARNING
        assert Diagnostic("NYX005", "x").severity is Severity.INFO

    def test_format_shows_location_and_fixable(self):
        d = Diagnostic("NYX012", "trailing snapshot marker",
                       file="q/id_0.nyx", op_index=3, fixable=True)
        line = d.format()
        assert "NYX012" in line and "q/id_0.nyx" in line
        assert "op 3" in line and "[fixable]" in line
        d.fixed = True
        assert "[fixed]" in d.format()

    def test_exit_code_gates_on_unfixed_errors(self):
        report = Report()
        report.add(Diagnostic("NYX010", "warn"))
        assert report.exit_code() == 0
        err = Diagnostic("NYX013", "bad")
        report.add(err)
        assert report.exit_code() == 1
        err.fixed = True
        assert report.exit_code() == 0

    def test_json_report_shape(self, tmp_path):
        report = Report()
        report.add(Diagnostic("NYX030", "corrupt", file="x.nyx"))
        report.meta["entries_scanned"] = 1
        path = tmp_path / "report.json"
        report.write_json(str(path))
        data = json.loads(path.read_text())
        assert data["version"] == 1
        assert data["summary"]["errors"] == 1
        assert data["summary"]["exit_code"] == 1
        assert data["findings"][0]["code"] == "NYX030"
        assert data["findings"][0]["title"] == RULES["NYX030"][0]
        assert data["meta"]["entries_scanned"] == 1


class TestSpecLint:
    def test_default_spec_is_clean(self):
        assert analyze_spec(default_network_spec()) == []

    def test_broken_spec_hits_every_rule(self):
        codes = {d.code for d in analyze_spec(broken_spec())}
        assert codes == {"NYX001", "NYX002", "NYX003", "NYX004", "NYX005"}

    def test_golden(self):
        report = Report(diagnostics=analyze_spec(broken_spec()))
        assert_matches_golden("speclint.txt", report.format_text() + "\n")


class TestOpLint:
    def setup_method(self):
        self.spec = default_network_spec()

    def test_clean_sequence(self):
        ops = [Op("connection"), Op("packet", (0,), (b"hi",)),
               Op("snapshot"), Op("packet", (0,), (b"more",)),
               Op("shutdown", (0,))]
        assert analyze_ops(self.spec, ops) == []

    def test_damaged_sequence_codes(self):
        codes = {d.code for d in analyze_ops(self.spec, damaged_ops())}
        assert codes == {"NYX010", "NYX011", "NYX012", "NYX013"}

    def test_no_surface_write_flagged(self):
        # With no surface write at all, the dead connection is also an
        # unobservable tail op (everything is after the "last" write).
        diags = analyze_ops(self.spec, [Op("connection")])
        codes = sorted(d.code for d in diags)
        assert codes == ["NYX011", "NYX014"]

    def test_double_consume_flagged(self):
        ops = [Op("connection"), Op("packet", (0,), (b"x",)),
               Op("shutdown", (0,)), Op("shutdown", (0,))]
        codes = [d.code for d in analyze_ops(self.spec, ops)]
        assert codes == ["NYX013"]

    def test_golden(self):
        diags = analyze_ops(self.spec, damaged_ops(), file="entry.nyx")
        report = Report(diagnostics=diags)
        assert_matches_golden("oplint.txt", report.format_text() + "\n")


class TestFixes:
    def setup_method(self):
        self.spec = default_network_spec()

    def test_apply_fixes_repairs_damaged_sequence(self):
        result = apply_fixes(self.spec, damaged_ops())
        validate(self.spec, result.ops)
        assert result.changed
        assert result.dropped_invalid == 1    # the bad-ref packet
        assert result.eliminated_dead == 2    # dead + tail connection
        assert result.markers_removed == 3    # leading, superseded, trailing
        payloads = [op.args for op in result.ops if op.node == "packet"]
        assert payloads == [(b"GET /",), (b"POST /",)]
        assert len(result.ops) < len(damaged_ops())

    def test_apply_fixes_is_identity_on_clean_input(self):
        ops = [Op("connection"), Op("packet", (0,), (b"hi",)),
               Op("snapshot"), Op("shutdown", (0,))]
        result = apply_fixes(self.spec, ops)
        assert not result.changed
        assert [(o.node, o.refs, o.args) for o in result.ops] == \
            [(o.node, o.refs, o.args) for o in ops]

    def test_cascade_drop_of_dependent_ops(self):
        # The shutdown refs the bad packet's (nonexistent) output chain:
        # dropping the ill-typed op must cascade to ops referencing
        # values only it would have produced.
        ops = [Op("connection"), Op("packet", (5,), (b"bad",)),
               Op("packet", (0,), (b"good",))]
        result = apply_fixes(self.spec, ops)
        validate(self.spec, result.ops)
        assert [op.args for op in result.ops if op.node == "packet"] == \
            [(b"good",)]

    def test_eliminate_dead_ops_requires_valid_input(self):
        from repro.spec.nodes import SpecError
        with pytest.raises(SpecError):
            eliminate_dead_ops(self.spec, [Op("packet", (0,), (b"x",))])

    def test_repair_blob_handles_structural_damage(self):
        good = raw_encode(self.spec, [Op("connection"),
                                      Op("packet", (0,), (b"payload",))])
        assert repair_blob(self.spec, good[:-3]) is None
        assert repair_blob(self.spec, b"") is None
        other = Spec("other")
        other.node_type("solo")
        assert repair_blob(self.spec, raw_encode(other, [Op("solo")])) is None

    def test_repair_blob_fixes_logical_damage(self):
        blob = raw_encode(self.spec, damaged_ops())
        ops = repair_blob(self.spec, blob)
        validate(self.spec, ops)
        assert [op.args for op in ops if op.node == "packet"] == \
            [(b"GET /",), (b"POST /",)]

    @given(st.lists(st.one_of(
        st.just(Op("connection")),
        st.builds(lambda r, p: Op("packet", (r,), (p,)),
                  st.integers(0, 6), st.binary(max_size=16)),
        st.builds(lambda r: Op("shutdown", (r,)), st.integers(0, 6)),
        st.just(Op("snapshot")),
    ), max_size=12))
    @settings(max_examples=120)
    def test_fixed_output_always_validates(self, ops):
        spec = default_network_spec()
        result = apply_fixes(spec, ops)
        validate(spec, result.ops)          # never raises
        assert len(result.ops) <= len(ops)
        # Surviving payloads are a subsequence of the authored ones.
        before = [op.args[0] for op in ops
                  if op.node == "packet" and len(op.args) == 1]
        after = [op.args[0] for op in result.ops if op.node == "packet"]
        it = iter(before)
        assert all(any(p == q for q in it) for p in after)

    @given(st.lists(st.tuples(st.binary(min_size=1, max_size=16),
                              st.booleans()),
                    min_size=1, max_size=8))
    @settings(max_examples=120)
    def test_fix_preserves_payloads_of_valid_inputs(self, packets):
        # Valid sequence: connection, then packets each optionally
        # preceded by a snapshot marker (never leading/trailing/dup).
        spec = default_network_spec()
        ops = [Op("connection")]
        for payload, marked in packets:
            if marked:
                ops.append(Op("snapshot"))
            ops.append(Op("packet", (0,), (payload,)))
        validate(spec, ops)
        result = apply_fixes(spec, ops)
        validate(spec, result.ops)
        assert result.dropped_invalid == 0
        assert result.eliminated_dead == 0
        assert [op.args[0] for op in result.ops if op.node == "packet"] == \
            [payload for payload, _ in packets]


class TestSelfLint:
    def test_fixture_findings(self):
        diags = analyze_source("fixture.py", SELF_LINT_FIXTURE)
        codes = [d.code for d in diags]
        assert codes == ["NYX021", "NYX022", "NYX020", "NYX023", "NYX023"]

    def test_golden(self):
        diags = analyze_source("fixture.py", SELF_LINT_FIXTURE)
        report = Report(diagnostics=diags)
        assert_matches_golden("selflint.txt", report.format_text() + "\n")

    def test_inline_suppression(self):
        src = "import random  # nyx: allow[NYX021]\n"
        assert analyze_source("x.py", src) == []
        src = "import random  # nyx: allow[NYX020]\n"
        assert [d.code for d in analyze_source("x.py", src)] == ["NYX021"]

    def test_unparseable_module(self):
        diags = analyze_source("x.py", "def broken(:\n")
        assert [d.code for d in diags] == ["NYX024"]

    def test_sim_directory_exempt(self, tmp_path):
        (tmp_path / "sim").mkdir()
        (tmp_path / "sim" / "rng.py").write_text("import random\n")
        (tmp_path / "app.py").write_text("import random\n")
        diags = analyze_source_tree(str(tmp_path))
        assert len(diags) == 1
        assert diags[0].file.endswith("app.py")

    def test_repo_self_lint_is_clean(self):
        # The CI gate: src/repro must stay free of wall-clock/entropy
        # leaks (grandfathered findings carry inline allows).
        diags = analyze_source_tree(str(REPO_SRC))
        assert diags == []


class TestCorpusAudit:
    def _plant(self, tmp_path):
        spec = default_network_spec()
        qdir = tmp_path / "queue"
        qdir.mkdir()
        good = [Op("connection"), Op("packet", (0,), (b"GET /",))]
        (qdir / "id_000000.nyx").write_bytes(serialize(spec, good))
        (qdir / "id_000001.nyx").write_bytes(
            raw_encode(spec, damaged_ops()))
        truncated = raw_encode(spec, good)[:-4]
        (qdir / "id_000002.nyx").write_bytes(truncated)
        other = Spec("other")
        other.node_type("solo")
        (qdir / "id_000003.nyx").write_bytes(raw_encode(other, [Op("solo")]))
        return spec, qdir

    def test_audit_reports_all_families(self, tmp_path):
        spec, _qdir = self._plant(tmp_path)
        report = audit_corpus(str(tmp_path), spec=spec)
        codes = {d.code for d in report.diagnostics}
        assert {"NYX010", "NYX012", "NYX013",
                "NYX030", "NYX031"} <= codes
        assert report.meta["entries_scanned"] == 4
        assert report.exit_code() == 1

    def test_fix_rewrites_repairable_entries(self, tmp_path):
        spec, qdir = self._plant(tmp_path)
        report = audit_corpus(str(tmp_path), spec=spec, fix=True)
        assert report.meta["entries_repaired"] == 1
        # The repaired entry re-validates with fewer ops and its
        # payload bytes intact (the acceptance criterion).
        ops = deserialize(spec, (qdir / "id_000001.nyx").read_bytes())
        assert len(ops) < len(damaged_ops())
        assert [op.args for op in ops if op.node == "packet"] == \
            [(b"GET /",), (b"POST /",)]
        # Structural corruption cannot be fixed; still an error.
        assert report.exit_code() == 1
        # A second audit finds the repaired entry clean.
        again = audit_corpus(str(tmp_path), spec=spec)
        assert not [d for d in again.diagnostics
                    if d.file.endswith("id_000001.nyx")]

    def test_flat_directory_layout(self, tmp_path):
        spec = default_network_spec()
        (tmp_path / "a.nyx").write_bytes(
            serialize(spec, [Op("connection"),
                             Op("packet", (0,), (b"x",))]))
        report = audit_corpus(str(tmp_path), spec=spec)
        assert report.meta["entries_scanned"] == 1
        assert report.exit_code() == 0


class TestCli:
    def test_bare_analyze_is_clean(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_SRC.parents[1])
        assert cli_main(["analyze"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_corpus_audit_exit_codes(self, tmp_path, capsys):
        spec = default_network_spec()
        qdir = tmp_path / "queue"
        qdir.mkdir()
        (qdir / "id_0.nyx").write_bytes(raw_encode(spec, damaged_ops()))
        assert cli_main(["analyze", "--corpus", str(tmp_path)]) == 1
        assert cli_main(["analyze", "--corpus", str(tmp_path),
                         "--fix"]) == 0
        assert cli_main(["analyze", "--corpus", str(tmp_path)]) == 0
        capsys.readouterr()

    def test_json_report_written(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        qdir = tmp_path / "queue"
        qdir.mkdir()
        spec = default_network_spec()
        (qdir / "id_0.nyx").write_bytes(
            serialize(spec, [Op("connection"),
                             Op("packet", (0,), (b"ok",))]))
        assert cli_main(["analyze", "--corpus", str(tmp_path),
                         "--json", str(report_path)]) == 0
        data = json.loads(report_path.read_text())
        assert data["summary"]["exit_code"] == 0
        assert data["meta"]["entries_scanned"] == 1
        capsys.readouterr()


class TestWiring:
    """The analyzer's hooks in persist, queue and the mutator."""

    def test_load_corpus_repairs_damaged_entries(self, tmp_path):
        import warnings as warnings_mod
        from repro.fuzz.persist import load_corpus
        spec = default_network_spec()
        qdir = tmp_path / "queue"
        qdir.mkdir()
        (qdir / "id_000000.nyx").write_bytes(
            raw_encode(spec, damaged_ops()))
        (qdir / "id_000001.nyx").write_bytes(b"garbage")
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("ignore")
            seeds = load_corpus(str(tmp_path), spec=spec)
            assert len(seeds) == 1
            assert seeds[0].origin == "repaired"
            validate(spec, seeds[0].ops)
            # repair=False restores the old skip behaviour.
            assert load_corpus(str(tmp_path), spec=spec, repair=False) == []

    def test_import_foreign_repairs_damaged_entries(self):
        from repro.fuzz.queue import Corpus, QueueEntry
        spec = default_network_spec()
        corpus = Corpus(DeterministicRandom(1))
        damaged = QueueEntry(0, FuzzInput(damaged_ops()), checksum=11)
        hopeless = QueueEntry(1, FuzzInput([Op("packet", (7,), (b"x",))]),
                              checksum=22)
        adopted = corpus.import_foreign([damaged, hopeless], spec=spec)
        assert len(adopted) == 1
        assert adopted[0].input.origin == "import+repaired"
        validate(spec, adopted[0].input.ops)

    def test_import_foreign_keeps_valid_entries_untouched(self):
        from repro.fuzz.queue import Corpus, QueueEntry
        spec = default_network_spec()
        corpus = Corpus(DeterministicRandom(1))
        ops = [Op("connection"), Op("packet", (0,), (b"fine",))]
        entry = QueueEntry(0, FuzzInput(ops), checksum=5)
        adopted = corpus.import_foreign([entry], spec=spec)
        assert adopted[0].input.origin == "import"
        assert len(adopted[0].input.ops) == 2

    def test_mutated_children_always_validate(self):
        spec = default_network_spec()
        base = FuzzInput([Op("connection"),
                          Op("packet", (0,), (b"USER anonymous\r\n",)),
                          Op("snapshot"),
                          Op("packet", (0,), (b"PASS x\r\n",)),
                          Op("packet", (0,), (b"NOOP\r\n",))])
        donor = FuzzInput([Op("connection"),
                           Op("packet", (0,), (b"SYST\r\n",))])
        engine = MutationEngine(DeterministicRandom(7),
                                dictionary=[b"QUIT\r\n"])
        for _ in range(400):
            child = engine.mutate(base, from_index=0, splice_donor=donor)
            validate(spec, child.ops)

    def test_mutation_preserves_prefix_before_snapshot(self):
        spec = default_network_spec()
        base = FuzzInput([Op("connection"),
                          Op("packet", (0,), (b"one",)),
                          Op("snapshot"),
                          Op("packet", (0,), (b"two",)),
                          Op("packet", (0,), (b"three",))])
        engine = MutationEngine(DeterministicRandom(3))
        for _ in range(200):
            child = engine.mutate(base, from_index=3)
            assert [(o.node, o.args) for o in child.ops[:3]] == \
                [(o.node, o.args) for o in base.ops[:3]]
            validate(spec, child.ops)

    def test_trim_counters_roll_up(self):
        a, b = CampaignStats(), CampaignStats()
        a.trim_ops_static, a.trim_ops_exec = 2, 1
        b.trim_ops_static, b.trim_ops_exec = 3, 4
        merged = CampaignStats.merge([a, b])
        assert merged.trim_ops_static == 5
        assert merged.trim_ops_exec == 5
        assert merged.as_dict()["trim_ops_static"] == 5


class TestTrimStaticPrePass:
    @pytest.fixture()
    def executor(self):
        from repro.coverage.tracer import TracerCore
        from repro.emu.interceptor import Interceptor
        from repro.emu.surface import AttackSurface
        from repro.fuzz.executor import NyxExecutor
        from repro.guestos.kernel import Kernel
        from repro.targets.lightftp import LightFtpServer, PORT
        from repro.vm.machine import Machine
        machine = Machine(memory_bytes=32 * 1024 * 1024)
        kernel = Kernel(machine)
        interceptor = Interceptor(kernel, AttackSurface.tcp_server(PORT))
        kernel.spawn(LightFtpServer())
        kernel.run(max_rounds=256)
        kernel.flush_to_memory(full=True)
        machine.capture_root()
        return NyxExecutor(machine, kernel, interceptor, TracerCore())

    def test_static_reduce_counts_into_stats(self, executor):
        from repro.fuzz.trim import _signature, trim_input
        # Two interior markers: the superseded one is statically
        # removable without touching the target at all.
        bloated = FuzzInput([Op("connection"),
                             Op("packet", (0,), (b"USER anonymous\r\n",)),
                             Op("snapshot"),
                             Op("packet", (0,), (b"PASS x\r\n",)),
                             Op("snapshot"),
                             Op("packet", (0,), (b"NOOP\r\n",))])
        stats = CampaignStats()
        trimmed, _execs = trim_input(executor, bloated,
                                     shrink_payloads=False, stats=stats)
        assert stats.trim_ops_static >= 1
        validate(default_network_spec(), trimmed.ops)
        sig_before = _signature(executor.run_full(bloated).trace)
        sig_after = _signature(executor.run_full(trimmed).trace)
        assert sig_before == sig_after

    def test_static_reduce_leaves_foreign_inputs_alone(self):
        from repro.fuzz.trim import static_reduce
        foreign = FuzzInput([Op("alien", (), ())])
        reduced, removed = static_reduce(default_network_spec(), foreign)
        assert removed == 0
        assert reduced is foreign
