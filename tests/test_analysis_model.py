"""One analysis pass over a shared source model.

``repro analyze`` hands one :class:`~repro.analysis.model.SourceTree`
per root to the self, reset, durability and hot-path lints.  These
tests pin what sharing buys (each module is parsed once per pass, with
or without ``--fix``) and what it must not change (every family's
findings, parse-error codes and fix-it stubs).
"""

import ast
import collections
import json
import pathlib
import re

import pytest

from repro.analysis.model import SourceTree
from repro.cli import main as cli_main

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
ALL_FAMILIES = ["--spec", "--self", "--reset", "--durability", "--perf"]

#: A class every tree family has something to say about: a reset
#: method that skips ``seen`` (NYX043), a state pair that never
#: captures it (NYX060) and a hot method with a constant literal and a
#: thrice-loaded chain in its loop (NYX070, NYX072); plus a wall-clock
#: read for the self-lint (NYX020).
ENGINE = '''\
import time


def stamp():
    return time.time()


class Engine:
    def __init__(self):
        self.hits = 0
        self.seen = []
        self.table = {}

    def reset_for_test(self):
        self.hits = 0

    def snapshot_state(self):
        return {"hits": self.hits}

    def restore_state(self, state):
        self.hits = state["hits"]

    def step(self, items):  # nyx: hot
        for item in items:
            tag = {"kind": "packet"}
            self.seen.append((item, tag))
            self.table.get(item)
            self.table.get(item)
            self.table.get(item)
'''

#: The marker in a docstring is text, not an annotation: the module is
#: tokenized (its text matches) but yields no hot root and no NYX075.
DOCSTRING = '''\
"""Helpers.  A docstring saying nyx: hot marks nothing."""


def helper():
    return 1
'''


class _ParseCounter:
    def __init__(self, monkeypatch):
        self.calls = collections.Counter()
        parse = ast.parse

        def counting(source, filename="<unknown>", *args, **kwargs):
            self.calls[filename] += 1
            return parse(source, filename, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting)


class TestParseOnce:
    @pytest.mark.parametrize("fix", [False, True])
    def test_full_pass_parses_each_file_once(self, monkeypatch, capsys,
                                             fix):
        monkeypatch.chdir(REPO_ROOT)
        counter = _ParseCounter(monkeypatch)
        assert cli_main(["analyze"] + ALL_FAMILIES
                        + (["--fix"] if fix else [])) == 0
        capsys.readouterr()
        files = {str(p) for p in pathlib.Path("src/repro").rglob("*.py")
                 if "__pycache__" not in p.parts}
        assert set(counter.calls) == files
        assert set(counter.calls.values()) == {1}

    def test_model_parses_lazily_and_frees_after_its_last_reader(
            self, tmp_path, monkeypatch):
        (tmp_path / "a.py").write_text("x = 1\n")
        (tmp_path / "b.py").write_text("y = 2\n")
        counter = _ParseCounter(monkeypatch)
        tree = SourceTree(str(tmp_path), readers=2)
        assert not counter.calls
        path = tree.paths()[0]
        first = tree.module(path)
        assert tree.module(path) is first
        assert list(counter.calls) == [str(tmp_path / "a.py")]
        tree.done()
        assert tree.module(path) is first
        tree.done()
        assert tree.module(path) is not first


def _fixture_tree(tmp_path):
    root = tmp_path / "tree"
    root.mkdir()
    (root / "broken.py").write_text("def broken(:\n")
    (root / "doc.py").write_text(DOCSTRING)
    (root / "engine.py").write_text(ENGINE)
    return str(root)


def _stub_lines(out):
    lines = out.splitlines()
    end = next(i for i, line in enumerate(lines)
               if re.match(r"NYX\d{3} |\d+ error", line))
    return lines[:end]


def _run(root, families, tmp_path, capsys, name):
    out = tmp_path / ("%s.json" % name)
    argv = ["analyze"]
    for flag in families:
        argv += [flag, root]
    assert cli_main(argv + ["--fix", "--json", str(out)]) == 1
    stubs = _stub_lines(capsys.readouterr().out)
    return json.loads(out.read_text())["findings"], stubs


class TestSharingChangesNothing:
    FAMILIES = ["--self", "--reset", "--durability", "--perf"]

    def test_one_pass_equals_the_single_family_runs(self, tmp_path,
                                                    capsys):
        root = _fixture_tree(tmp_path)
        together, together_stubs = _run(root, self.FAMILIES, tmp_path,
                                        capsys, "all")
        findings, stubs = [], []
        for flag in self.FAMILIES:
            one, one_stubs = _run(root, [flag], tmp_path, capsys,
                                  flag.strip("-"))
            findings += one
            stubs += one_stubs
        assert together == findings
        assert together_stubs == stubs
        codes = {d["code"] for d in findings}
        assert {"NYX020", "NYX043", "NYX060", "NYX070",
                "NYX072"} <= codes
        assert stubs  # reset, durability and hot-path stubs printed

    def test_each_family_keeps_its_parse_error(self, tmp_path, capsys):
        root = _fixture_tree(tmp_path)
        findings, _stubs = _run(root, self.FAMILIES, tmp_path, capsys,
                                "all")
        broken = [(d["code"], d["message"]) for d in findings
                  if d["file"].endswith("broken.py")]
        assert [code for code, _message in broken] == [
            "NYX024", "NYX045", "NYX045", "NYX075"]
        assert all(message.startswith("unparseable module: ")
                   for _code, message in broken)
        assert broken[2][1].endswith("durability cannot be audited")
        assert broken[3][1].endswith(
            "hot-path reachability cannot be computed")

    def test_docstring_marker_is_not_a_hot_root(self, tmp_path, capsys):
        root = _fixture_tree(tmp_path)
        findings, _stubs = _run(root, ["--perf"], tmp_path, capsys, "hot")
        assert not [d for d in findings if d["file"].endswith("doc.py")]
