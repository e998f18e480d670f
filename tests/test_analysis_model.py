"""One analysis pass over a shared source model.

``repro analyze`` hands one :class:`~repro.analysis.model.SourceTree`
per root to the self, reset, durability and hot-path lints.  These
tests pin what sharing buys (each module is parsed once and walked
once per pass, with or without ``--fix``, and never tokenized) and
what it must not change (every family's findings, their order,
parse-error codes and fix-it stubs, and the hot-marker lines).
"""

import ast
import collections
import importlib.util
import io
import json
import pathlib
import re
import tokenize

import pytest

from repro.analysis.diagnostics import MARKER_RES
from repro.analysis.durlint import analyze_durability_source
from repro.analysis.hotlint import analyze_hot_source
from repro.analysis.model import Module, SourceTree
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


def _src_files():
    return [p for p in sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))
            if "__pycache__" not in p.parts]


class TestOneWalk:
    @pytest.mark.parametrize("fix", [False, True])
    def test_full_pass_walks_each_module_once(self, monkeypatch, capsys,
                                              fix):
        monkeypatch.chdir(REPO_ROOT)
        nodes = sum(sum(1 for _node in ast.walk(ast.parse(p.read_bytes())))
                    for p in _src_files())
        calls = collections.Counter()

        def counting(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counting(ast.NodeVisitor, "generic_visit")
        counting(ast, "walk")
        counting(ast, "iter_child_nodes")
        counting(tokenize, "generate_tokens")
        assert cli_main(["analyze"] + ALL_FAMILIES
                        + (["--fix"] if fix else [])) == 0
        capsys.readouterr()
        assert calls["generic_visit"] == 0
        assert calls["walk"] == 0
        assert calls["iter_child_nodes"] <= nodes
        assert calls["generate_tokens"] == 0


def _marker_comment_lines(text):
    """The reference: lines whose comment token carries the hot
    marker, as the tokenizer splits the source."""
    lines = set()
    hot_re = MARKER_RES["hot"]
    try:
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if (tok.type == tokenize.COMMENT
                    and hot_re.search(tok.string)):
                lines.add(tok.start[0])
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass  # the AST parse reports the breakage
    return lines


#: Sources where the marker text appears outside comments too.
MARKER_CASES = {
    "docstring": (
        '"""Mark a root with  # nyx: hot  on its def line."""\n'
        "\n\n"
        "def root():  # nyx: hot\n"
        "    return 1\n"),
    "string_and_comment_on_one_line": (
        'X = "# nyx: hot"  # nyx: hot\n'
        'Y = "a#b", "# nyx: hot"\n'),
    "f_string": (
        "x = 1\n"
        'Y = f"# nyx: hot {x}"\n'
        'Z = f"{x:>4} # x"  # nyx: hot\n'),
    "non_ascii_before_the_marker": (
        'NAME = "café ünï"  # nyx: hot\n'
        'OTHER = "naïve # nyx: hot"\n'),
    "multi_line_string": (
        'TEXT = """\n'
        "# nyx: hot\n"
        "text # nyx: hot\n"
        '"""  # nyx: hot\n'
        "B = b'# nyx: hot'\n"),
}


class TestHotMarkers:
    @pytest.mark.parametrize("name", sorted(MARKER_CASES))
    def test_fixture_markers_match_the_tokenizer(self, name):
        text = MARKER_CASES[name]
        reference = _marker_comment_lines(text)
        assert reference  # every case has one real marker comment
        assert Module(name + ".py", text).walk.hot_lines == reference

    def test_every_repo_module_matches_the_tokenizer(self):
        for path in _src_files():
            source = path.read_bytes()
            text = importlib.util.decode_source(source)
            assert (Module(str(path), source).walk.hot_lines
                    == _marker_comment_lines(text)), path


class TestSourceEncodings:
    def test_modules_decode_like_the_import_system(self, tmp_path, capsys):
        root = tmp_path / "tree"
        root.mkdir()
        (root / "cookie.py").write_bytes(
            b"# -*- coding: latin-1 -*-\nNAME = \"caf\xe9\"\n")
        (root / "bom.py").write_bytes(
            b"\xef\xbb\xbfNAME = \"caf\xc3\xa9\"\n")
        (root / "garbled.py").write_bytes(b"NAME = 1\nOTHER = \"\xff\"\n")
        findings, _stubs = _run(str(root), TestSharingChangesNothing.FAMILIES,
                                tmp_path, capsys, "enc")
        assert not [d for d in findings
                    if not d["file"].endswith("garbled.py")]
        garbled = [(d["code"], d["line"], d["message"]) for d in findings]
        assert [code for code, _line, _message in garbled] == [
            "NYX024", "NYX045", "NYX045", "NYX075"]
        assert all(line == 2 and message.startswith("unparseable module: ")
                   for _code, line, message in garbled)
        cookie = Module("cookie.py", (root / "cookie.py").read_bytes())
        assert cookie.lines[1] == 'NAME = "café"'


class TestFindingOrder:
    """Where a family took the first match of a breadth-first walk, or
    iterated a body last child first, the shared walk keeps that
    order (expectations from the former per-family walkers)."""

    def test_durability_reads_breadth_first(self):
        src = ("class Store:\n"
               "    def snapshot_state(self):\n"
               "        if self.ready:\n"
               "            return {\"a\": 1}\n"
               "        return {\"a\": 2,\n"
               "                \"b\": 3}\n"
               "\n"
               "    def restore_state(self, state):\n"
               "        if state:\n"
               "            self.x = state.get(\"extra\")\n"
               "        self.b = state[\"b\"]\n"
               "        self.y = state[\"extra\"]\n"
               "\n"
               "\n"
               "def record(journal):\n"
               "    journal.append(\"a\", f(journal.append(\"c\", 0)))"
               " + journal.append(\"b\", 0)\n")
        found = [(d.code, d.line, re.search(r"'(\w+)'", d.message).group(1))
                 for d in analyze_durability_source("mod.py", src)]
        assert found == [("NYX061", 5, "a"), ("NYX061", 12, "extra"),
                         ("NYX064", 16, "a"), ("NYX064", 16, "b"),
                         ("NYX064", 16, "c")]

    def test_hot_rules_read_bodies_last_child_first(self):
        src = ("import pickle\n"
               "\n"
               "\n"
               "class Engine:\n"
               "    def __init__(self):\n"
               "        self.header = b\"h\"\n"
               "        self.trailer = b\"t\"\n"
               "\n"
               "    def step(self, items, buf):  # nyx: hot\n"
               "        for item in items:\n"
               "            frame = bytes(self.header) + bytes(self.trailer)\n"
               "        return pickle.loads(pickle.dumps(buf[:]))\n")
        found = [(d.code, d.line, d.message.split()[1])
                 for d in analyze_hot_source("mod.py", src)]
        assert found == [("NYX070", 11, "bytes(self.trailer)"),
                         ("NYX070", 11, "bytes(self.header)"),
                         ("NYX073", 12, "pickle"),
                         ("NYX073", 12, "whole-slice")]
