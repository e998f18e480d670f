"""One parse and one walk per module per ``repro analyze`` pass.

The four AST lints (selflint, resetlint, durlint, hotlint) read the
same source tree.  A :class:`SourceTree` lists a root's ``.py`` files
once and parses each module on first use, keeping any ``SyntaxError``
so every family still reports it under its own code.  The first family
that reads a module's nodes walks its AST once into a :class:`Walk`,
the registry every family reads instead of walking.  The model lives
for one pass, and a module's text is dropped once parsed.
"""

from __future__ import annotations

import ast
import importlib.util
import pathlib
from array import array
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.diagnostics import MARKER_RES, Diagnostic

#: Nested scopes a body walk does not enter.
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
#: Loops, whose bodies the hot-path rules read as slices.
LOOPS = (ast.For, ast.While)
#: Defs whose calls belong to their own record, not the enclosing one.
_OWN_CALLS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
#: Fields holding expression contexts and operators, leaves no lint
#: reads as nodes of their own.
_LEAF_FIELDS = frozenset(("ctx", "op", "ops"))
#: Container method calls that mutate the receiver in place.
MUTATING_METHODS = {
    "append", "appendleft", "add", "clear", "discard", "extend",
    "extendleft", "insert", "pop", "popleft", "popitem", "remove",
    "setdefault", "sort", "update",
}


def self_attr(expr: ast.AST, self_name: str) -> Optional[str]:
    """``X`` of a ``<self_name>.X`` attribute, else ``None``."""
    if (isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == self_name):
        return expr.attr
    return None


def _self_attr_base(expr: ast.AST, self_name: str) -> Optional[str]:
    """Container attribute of a subscript-only ``self.X[...]...``
    chain, else ``None``.

    ``self.conns[k]`` and ``self.grid[i][j]`` root at ``conns`` /
    ``grid`` — mutating the subscript mutates the container bound to
    ``self``.  ``self.kernel.field`` does **not** root at ``kernel``:
    that mutates the *other* object, which carries its own class audit
    (attribute hops cross an ownership boundary, subscripts don't).
    """
    node = expr
    while isinstance(node, ast.Subscript):
        node = node.value
    direct = self_attr(node, self_name)
    return direct if node is not expr else None


@dataclass
class FunctionFacts:
    """What the lints read of one function body."""

    #: Name of the instance parameter (``''`` outside methods).
    receiver: str
    #: ``(line, kind, name)`` call sites outside nested defs and
    #: lambdas: ``bare`` ``f()``, ``self`` ``self.m()``, ``attr`` ``x.m()``.
    calls: List[Tuple[int, str, str]] = field(default_factory=list)
    #: ``(line, attr, value)`` of each ``self.attr = value``.
    writes: List[Tuple[int, str, ast.AST]] = field(default_factory=list)
    #: ``(line, attr)`` of each in-place change: ``self.attr[k] = v``,
    #: ``self.attr.append(...)``, ``self.attr += v``, ``del``.
    mutations: List[Tuple[int, str]] = field(default_factory=list)


class Walk:
    """One module's AST walked once: the registry the lints read.

    ``nodes`` lists the nodes depth-first, each before its children in
    field order, so ``nodes[i:ends[i]]`` is the subtree of ``nodes[i]``
    and ``depths[i]`` its level.  Expression contexts and operators are
    left out.  Only scope and loop nodes map to their positions; any
    other node is found by a scan of a slice it lies in.

    ``hot_lines`` are those of the ``(line, text)`` ``markers`` (the
    hot marker after a ``#``) whose comment carries the marker: a
    comment starts at the first ``#`` outside every string literal.
    """

    def __init__(self, tree: ast.AST,
                 markers: Sequence[Tuple[int, str]] = ()) -> None:
        nodes: List[ast.AST] = []
        ends = array("i")
        depths = array("i")
        marks: Dict[ast.AST, int] = {}
        marked = SCOPES + LOOPS

        def visit(node: ast.AST, depth: int) -> None:
            pos = len(nodes)
            nodes.append(node)
            ends.append(0)
            depths.append(depth)
            if isinstance(node, marked):
                marks[node] = pos
            for name in node._fields:
                if name in _LEAF_FIELDS:
                    continue
                value = getattr(node, name, None)
                if isinstance(value, list):
                    for item in value:
                        if isinstance(item, ast.AST):
                            visit(item, depth + 1)
                elif isinstance(value, ast.AST):
                    visit(value, depth + 1)
            ends[pos] = len(nodes)

        visit(tree, 0)
        self.nodes = nodes
        self.ends = ends
        self.depths = depths
        self._marks = marks
        self._functions: Dict[ast.AST, FunctionFacts] = {}
        strings = [node for node in (nodes if markers else ())
                   if isinstance(node, ast.JoinedStr)
                   or (isinstance(node, ast.Constant)
                       and isinstance(node.value, (str, bytes)))]
        self.hot_lines: Set[int] = {
            line for line, text in markers
            if _marker_comment(line, text, strings)}

    def position(self, node: ast.AST, start: int = 0) -> int:
        """Index of ``node`` in :attr:`nodes`; ``start`` is a known
        position at or before it (an enclosing node's)."""
        pos = self._marks.get(node)
        return self.nodes.index(node, start) if pos is None else pos

    def positions(self, types: Union[type, Tuple[type, ...]], pos: int = 0,
                  nested: bool = True) -> List[int]:
        """Positions of the ``types`` nodes in ``nodes[pos]``'s subtree
        (the root included), depth-first.  Without ``nested`` the
        subtrees of nested defs, classes and lambdas are skipped."""
        nodes, ends = self.nodes, self.ends
        end = ends[pos]
        if nested:
            return [i for i in range(pos, end) if isinstance(nodes[i], types)]
        found: List[int] = []
        i = pos
        while i < end:
            if i > pos and isinstance(nodes[i], SCOPES):
                i = ends[i]
                continue
            if isinstance(nodes[i], types):
                found.append(i)
            i += 1
        return found

    def breadth_first(self, positions: List[int]) -> List[int]:
        """``positions`` in ``ast.walk`` order from any node above them
        all: level by level, left to right within a level."""
        depths = self.depths
        return sorted(positions, key=lambda pos: (depths[pos], pos))

    def first(self, root: int, predicate: Callable[[ast.AST], bool]
              ) -> Optional[ast.AST]:
        """The first node ``ast.walk(nodes[root])`` would yield that
        satisfies ``predicate``, or ``None``."""
        nodes = self.nodes
        found = [i for i in range(root, self.ends[root])
                 if predicate(nodes[i])]
        return nodes[self.breadth_first(found)[0]] if found else None

    def function(self, node: ast.AST, receiver: str = "") -> FunctionFacts:
        """Call sites and ``receiver`` attribute writes and mutations
        of a def's body, built on first use."""
        facts = self._functions.get(node)
        if facts is None or facts.receiver != receiver:
            facts = self._functions[node] = self._scan_function(
                node, receiver)
        return facts

    def _scan_function(self, node, receiver: str) -> FunctionFacts:
        facts = FunctionFacts(receiver)
        nodes, ends = self.nodes, self.ends
        start = stop = self.position(node.body[0], self.position(node))
        for _stmt in node.body:
            stop = ends[stop]
        nested_end = 0  # end of a nested def whose calls are its own
        for pos in range(start, stop):
            inner = nodes[pos]
            if isinstance(inner, ast.Call):
                func = inner.func
                if pos >= nested_end and isinstance(func, ast.Name):
                    facts.calls.append((inner.lineno, "bare", func.id))
                elif pos >= nested_end and isinstance(func, ast.Attribute):
                    kind = ("self" if receiver
                            and isinstance(func.value, ast.Name)
                            and func.value.id == receiver else "attr")
                    facts.calls.append((inner.lineno, kind, func.attr))
                if (receiver and isinstance(func, ast.Attribute)
                        and func.attr in MUTATING_METHODS):
                    _mutation(facts, func.value, inner.lineno)
            elif pos >= nested_end and isinstance(inner, _OWN_CALLS):
                nested_end = ends[pos]
            elif not receiver:
                continue
            elif isinstance(inner, ast.Assign):
                for target in inner.targets:
                    _target(facts, target, inner.value)
            elif isinstance(inner, ast.AnnAssign) and inner.value is not None:
                _target(facts, inner.target, inner.value)
            elif isinstance(inner, ast.AugAssign):
                _mutation(facts, inner.target, inner.target.lineno)
            elif isinstance(inner, ast.Delete):
                for target in inner.targets:
                    _mutation(facts, target, target.lineno)
        return facts


def _mutation(facts: FunctionFacts, expr: ast.AST, line: int) -> None:
    base = self_attr(expr, facts.receiver)
    if base is None:
        base = _self_attr_base(expr, facts.receiver)
    if base is not None:
        facts.mutations.append((line, base))


def _target(facts: FunctionFacts, target: ast.AST, value: ast.AST) -> None:
    direct = self_attr(target, facts.receiver)
    if direct is not None:
        facts.writes.append((target.lineno, direct, value))
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            _target(facts, elt, value)
    else:
        _mutation(facts, target, target.lineno)


def _marker_comment(line: int, text: str, strings: List[ast.AST]) -> bool:
    hash_at = text.find("#")
    while hash_at >= 0:
        # AST columns count UTF-8 bytes, not characters.
        here = (line, len(text[:hash_at].encode("utf-8")))
        if not any((s.lineno, s.col_offset) <= here
                   < (s.end_lineno, s.end_col_offset) for s in strings):
            return MARKER_RES["hot"].search(text, hash_at) is not None
        hash_at = text.find("#", hash_at + 1)
    return False


class Module:
    """One source file as every lint family reads it."""

    def __init__(self, filename: str, source: Union[str, bytes]) -> None:
        self.filename = filename
        self.lines: List[str] = []
        #: ``ClassDef`` -> resetlint's ``ClassRecord``, built on first use.
        self.classes: Dict[ast.ClassDef, object] = {}
        self.tree: Optional[ast.Module] = None
        self.error: Optional[SyntaxError] = None
        self._markers: List[Tuple[int, str]] = []
        self._walk: Optional[Walk] = None
        try:
            if isinstance(source, bytes):
                # As the import system reads it: a PEP 263 coding cookie
                # or a UTF-8 BOM picks the codec.
                try:
                    source = importlib.util.decode_source(source)
                except UnicodeDecodeError as err:
                    raise SyntaxError("(unicode error) %s" % err, (
                        filename, source.count(b"\n", 0, err.start) + 1,
                        None, None)) from None
            # Numbered as the parser numbers lines: ``splitlines`` would
            # also break at form feeds and other separators.
            self.lines = source.split("\n")
            hot_re = MARKER_RES["hot"]
            if hot_re.search(source):
                # A comment is a substring of its line, so every marker
                # comment is on a line where the marker follows a ``#``.
                self._markers = [
                    (lineno, line) for lineno, line in enumerate(self.lines, 1)
                    if "#" in line and hot_re.search(line, line.index("#"))]
            # A call through the module attribute, which the benchmark
            # wraps to count and time parses.
            self.tree = ast.parse(source, filename=filename)
        except SyntaxError as err:
            self.error = err

    @property
    def walk(self) -> Walk:
        """The module's registry, walked on first use (parsed modules
        only)."""
        if self._walk is None:
            self._walk = Walk(self.tree, self._markers)
        return self._walk

    def parse_error(self, code: str, consequence: str = ""
                    ) -> Optional[Diagnostic]:
        """A family's ``code`` finding if the module does not parse."""
        if self.error is None:
            return None
        return Diagnostic(code, "unparseable module: %s%s"
                          % (self.error, consequence), file=self.filename,
                          line=self.error.lineno or 0)


class SourceTree:
    """The ``.py`` files under one root, each parsed at most once.

    ``readers`` is the number of tree entry points that will read the
    model.  Each calls :meth:`done` once it has what it needs, and the
    last one drops every parse and walk, so they are freed inside a
    lint.
    """

    def __init__(self, root: str, readers: int = 1) -> None:
        self.root = pathlib.Path(root)
        self.readers = readers
        self._paths: Optional[List[pathlib.Path]] = None
        self._modules: Dict[pathlib.Path, Module] = {}

    def paths(self) -> List[pathlib.Path]:
        """Sorted ``.py`` files under the root, outside ``__pycache__``."""
        if self._paths is None:
            self._paths = [
                p for p in sorted(self.root.rglob("*.py"))
                if "__pycache__" not in p.relative_to(self.root).parts]
        return self._paths

    def module(self, path: pathlib.Path) -> Module:
        module = self._modules.get(path)
        if module is None:
            module = self._modules[path] = Module(str(path),
                                                  path.read_bytes())
        return module

    def done(self) -> None:
        self.readers -= 1
        if not self.readers:
            self._modules.clear()


#: What a tree entry point accepts: a directory or the pass's model.
Root = Union[str, SourceTree]


def source_tree(root: Root) -> SourceTree:
    """``root`` itself when it is a model, else a fresh one."""
    return root if isinstance(root, SourceTree) else SourceTree(root)
