"""Hot-path lint (NYX07x static prong) tests.

``repro.analysis.hotlint`` computes hot-path reachability from
``# nyx: hot`` roots and flags per-iteration allocation, unbatched RNG
draws, repeated attribute loads, redundant copies and indirection —
*only* on hot-reachable code.  The golden file pins the rendered
report; the registry tests extend ``validate_registry``'s self-test to
the new 70-79 range.
"""

import pathlib

import pytest

from repro.analysis.diagnostics import (FAMILIES, RULES, Report,
                                        validate_registry)
from repro.analysis.hotlint import (analyze_hot_source, analyze_hot_tree,
                                    hot_fixit_stubs, hot_sites)
from repro.cli import main as cli_main

GOLDEN = pathlib.Path(__file__).parent / "golden"
REPO_SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


def assert_matches_golden(name, text):
    assert text == (GOLDEN / name).read_text()


def lint(source):
    return analyze_hot_source("mod.py", source)


#: One of everything on hot-reachable code: loop-invariant bytes()
#: rebuild and constant container literal (NYX070), a per-iteration RNG
#: append and a per-byte RNG comprehension (NYX071), a thrice-loaded
#: attribute chain (NYX072), a whole-slice copy (NYX073) and a
#: try/except in the innermost loop (NYX074) — plus a cold method whose
#: identical loop body must stay quiet.
FIXTURE = '''\
class Engine:
    def __init__(self, rng, kernel):
        self.rng = rng
        self.kernel = kernel
        self.header = b"\\x00" * 8

    def step(self, items):  # nyx: hot
        out = []
        for item in items:
            frame = bytes(self.header)
            tag = {"kind": "packet"}
            out.append(self.rng.randrange(256))
            self.kernel.costs.charge(item)
            self.kernel.costs.charge(frame)
            self.kernel.costs.charge(tag)
        return out

    def pad(self, n):  # nyx: hot
        return bytes(self.rng.randrange(256) for _ in range(n))

    def copy_all(self, buf):  # nyx: hot
        return buf[:]

    def risky(self, items):  # nyx: hot
        for item in items:
            try:
                item()
            except ValueError:
                pass

    def cold(self, items):
        for item in items:
            tag = {"kind": "packet"}
        return tag
'''


class TestRegistry:
    def test_repo_registry_is_valid(self):
        validate_registry()  # must not raise

    def test_nyx07x_family_is_registered(self):
        rng, module = FAMILIES["hot-path lint"]
        assert rng == (70, 79)
        assert module == "repro.analysis.hotlint"
        for code in ("NYX070", "NYX071", "NYX072", "NYX073", "NYX074",
                     "NYX075", "NYX076", "NYX077"):
            assert code in RULES

    def test_duplicate_code_in_range_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            validate_registry(rules=["NYX070", "NYX070"])

    def test_family_overlapping_the_70s_rejected(self):
        bad = dict(FAMILIES)
        bad["intruder"] = ((75, 85), "m.intruder")
        with pytest.raises(ValueError, match="overlap"):
            validate_registry(rules=[], families=bad)

    def test_code_outside_the_family_table_rejected(self):
        only_hot = {"hot-path lint": ((70, 79), "repro.analysis.hotlint")}
        with pytest.raises(ValueError, match="no registered family"):
            validate_registry(rules=["NYX069"], families=only_hot)
        validate_registry(rules=["NYX078"], families=only_hot)  # in-range


class TestHotLint:
    def test_fixture_findings(self):
        assert [d.code for d in lint(FIXTURE)] == [
            "NYX070", "NYX070", "NYX071", "NYX072",
            "NYX071", "NYX073", "NYX074"]

    def test_invariant_bytes_rebuild_names_exact_line(self):
        found = [d for d in lint(FIXTURE) if d.code == "NYX070"]
        assert found[0].line == 10
        assert "bytes(self.header)" in found[0].message
        assert found[1].line == 11
        assert "constant container literal" in found[1].message

    def test_per_draw_rng_flags_both_shapes(self):
        found = [d for d in lint(FIXTURE) if d.code == "NYX071"]
        assert len(found) == 2
        assert all("some_bytes" in d.message for d in found)

    def test_rng_comprehension_names_the_breadth_first_draw(self):
        # Two draws on two lines of one generated byte: the finding
        # names the draw a breadth-first walk meets first (``randint``,
        # one level up), not the first in source order.
        src = ("class Engine:\n"
               "    def __init__(self, rng):\n"
               "        self.rng = rng\n"
               "\n"
               "    def pad(self, n):  # nyx: hot\n"
               "        return bytes(mix(wrap(self.rng.randrange(256)),\n"
               "                         self.rng.randint(0, 255))\n"
               "                     for _ in range(n))\n")
        assert [(d.code, d.line) for d in lint(src)] == [("NYX071", 7)]

    def test_repeated_attribute_load_is_fixable(self):
        found = [d for d in lint(FIXTURE) if d.code == "NYX072"]
        assert len(found) == 1
        assert "'self.kernel.costs.charge'" in found[0].message
        assert found[0].fixable

    def test_whole_slice_copy(self):
        found = [d for d in lint(FIXTURE) if d.code == "NYX073"]
        assert len(found) == 1 and "whole-slice" in found[0].message

    def test_pickle_round_trip_is_nyx073(self):
        src = ("import pickle\n"
               "class A:\n"
               "    def go(self, obj):  # nyx: hot\n"
               "        return pickle.loads(pickle.dumps(obj))\n")
        found = [d for d in lint(src) if d.code == "NYX073"]
        assert len(found) == 1 and "pickle round-trip" in found[0].message

    def test_try_in_innermost_loop(self):
        found = [d for d in lint(FIXTURE) if d.code == "NYX074"]
        assert len(found) == 1 and "try/except" in found[0].message

    def test_cold_code_is_never_flagged(self):
        assert not [d for d in lint(FIXTURE)
                    if "Engine.cold" in d.message or (d.line or 0) >= 31]

    def test_unannotated_source_is_silent(self):
        assert lint(FIXTURE.replace("  # nyx: hot", "")) == []

    def test_hot_reaches_through_self_calls(self):
        src = ("class A:\n"
               "    def root(self, items):  # nyx: hot\n"
               "        self.leaf(items)\n"
               "    def leaf(self, items):\n"
               "        for i in items:\n"
               "            tag = {'k': 1}\n")
        found = lint(src)
        assert [d.code for d in found] == ["NYX070"]
        assert "A.leaf" in found[0].message

    def test_class_line_marker_roots_every_method(self):
        src = ("class A:  # nyx: hot\n"
               "    def any_method(self, items):\n"
               "        for i in items:\n"
               "            tag = {'k': 1}\n")
        assert [d.code for d in lint(src)] == ["NYX070"]

    def test_misplaced_marker_is_nyx075(self):
        diags = lint("x = 1  # nyx: hot\n")
        assert [d.code for d in diags] == ["NYX075"]
        assert diags[0].line == 1

    def test_unresolvable_self_call_is_nyx075(self):
        src = ("class A:\n"
               "    def go(self):  # nyx: hot\n"
               "        self.missing()\n")
        diags = lint(src)
        assert [d.code for d in diags] == ["NYX075"]
        assert "self.missing()" in diags[0].message

    def test_parse_error_is_nyx075(self):
        assert [d.code for d in lint("def broken(:\n")] == ["NYX075"]

    def test_family_allow_on_class_line_suppresses_all(self):
        allowed = FIXTURE.replace(
            "class Engine:", "class Engine:  # nyx: allow[NYX07x] fixture")
        assert lint(allowed) == []

    def test_hot_token_on_def_line_suppresses_the_function(self):
        allowed = FIXTURE.replace(
            "def risky(self, items):  # nyx: hot",
            "def risky(self, items):  # nyx: hot  # nyx: allow[hot]")
        assert not [d for d in lint(allowed) if d.code == "NYX074"]

    def test_single_code_allow_leaves_other_rules(self):
        allowed = FIXTURE.replace(
            'tag = {"kind": "packet"}\n            out',
            'tag = {"kind": "packet"}  # nyx: allow[NYX070] marker\n'
            '            out')
        codes = [d.code for d in lint(allowed)]
        assert codes.count("NYX070") == 1  # the bytes() one survives
        assert "NYX072" in codes

    def test_fixit_stub_names_the_alias(self, tmp_path):
        (tmp_path / "mod.py").write_text(
            "class A:\n"
            "    def go(self, items):  # nyx: hot\n"
            "        for i in items:\n"
            "            self.kernel.costs.charge(i)\n"
            "            self.kernel.costs.charge(i)\n"
            "            self.kernel.costs.charge(i)\n")
        stubs = hot_fixit_stubs(str(tmp_path))
        (where, stub), = stubs.items()
        assert where.endswith("mod.py::A.go")
        assert "kernel_costs_charge = self.kernel.costs.charge" in stub

    def test_golden(self):
        report = Report()
        report.extend(lint(FIXTURE))
        assert_matches_golden("hotlint.txt", report.format_text() + "\n")


class TestRepoTree:
    def test_repo_tree_lints_clean(self):
        assert analyze_hot_tree(str(REPO_SRC)) == []

    def test_annotated_roots_are_hot(self):
        hot = hot_sites(str(REPO_SRC))
        assert "NyxExecutor.run_full" in hot["repro.fuzz.executor"]
        assert "Kernel.run" in hot["repro.guestos.kernel"]
        assert "KernelApi.recv" in hot["repro.guestos.kernel"]
        assert "GuestMemory.write" in hot["repro.vm.memory"]
        assert "MutationEngine.mutate" in hot["repro.fuzz.mutators"]
        assert "TracerCore.take_trace" in hot["repro.coverage.tracer"]

    def test_injected_hot_loop_allocation_is_caught(self):
        """The static half of the BOTH-prongs acceptance check (the
        runtime half lives in test_profiler.py): injecting a
        per-iteration allocation into the executor's annotated op loop
        is flagged with the exact file and line."""
        path = REPO_SRC / "fuzz" / "executor.py"
        lines = path.read_text().splitlines(True)
        needle = "            op = ops[index]\n"
        at = lines.index(needle)
        lines.insert(at, "            scratch = {'op': 'state'}\n")
        diags = analyze_hot_source(str(path), "".join(lines))
        hits = [d for d in diags if d.code == "NYX070"
                and d.line == at + 1]
        assert len(hits) == 1
        assert "NyxExecutor._run" in hits[0].message


class TestCli:
    def test_analyze_perf_clean_tree_exits_zero(self):
        assert cli_main(["analyze", "--perf", str(REPO_SRC)]) == 0

    def test_analyze_perf_bad_path_exits_two(self):
        assert cli_main(["analyze", "--perf", "/nonexistent-xyz"]) == 2

    def test_analyze_perf_findings_exit_one(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(
            "class A:\n"
            "    def go(self, items):  # nyx: hot\n"
            "        for i in items:\n"
            "            tag = {'k': 1}\n")
        assert cli_main(["analyze", "--perf", str(tmp_path)]) == 1
        assert "NYX070" in capsys.readouterr().out
