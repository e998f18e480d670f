"""Hot-path lint (NYX07x, static prong): allocation/indirection audit
of the execute-reset hot path.

Every throughput win so far (PR 5/6: 1112 -> ~1844 execs/s on
lighttpd) came from hand-auditing the per-execution loop for exactly
four smells: per-iteration allocation, per-draw RNG byte building,
repeated attribute loads and redundant buffer copies.  Nyx-net's own
numbers (PAPER §7) depend on keeping that loop lean, so this pass
makes the audit permanent.

The lint is *reachability-scoped*: ``# nyx: hot`` on a ``def`` line
(or on a ``class`` line, marking every method) declares a hot root —
the executor's step/reset path, the kernel's syscall dispatch,
``GuestMemory`` read/write, the coverage tracer's window and fold,
``MutationEngine.mutate``.
A call-graph BFS from those roots computes the hot set; rules fire
only inside hot-reachable functions, so cold setup/reporting code
stays unflagged no matter how it allocates.

Call edges are resolved conservatively: ``self.m()`` within the
class, bare names within the module (then by unique name across the
tree), and ``obj.m()`` by *unique* method name across the tree.
Ambiguous receivers are skipped rather than guessed — the runtime
prong (:mod:`repro.perf.profiler`, NYX077) is the backstop that
catches hot code the static graph cannot reach.

Rules (only on hot-reachable code):

* **NYX070** — per-iteration allocation in a hot loop: str/bytes
  ``+=`` concatenation, ``bytes()``/``bytearray()`` of loop-invariant
  data, an all-constant container literal rebuilt every pass;
* **NYX071** — per-draw RNG byte building where the batched
  ``DeterministicRandom.some_bytes`` API exists (a draw call per
  element of a bytes-bound comprehension, or ``.append(rng.draw())``
  in a loop);
* **NYX072** — the same attribute chain loaded repeatedly in one loop
  body (fix-it: the local-alias binding to hoist);
* **NYX073** — redundant full-buffer copy: a bare whole-slice read
  ``x[:]`` or a ``pickle.loads(pickle.dumps(...))`` round-trip;
* **NYX074** — ``try``/``except`` or a generator expression inside
  the innermost hot loop (both defeat CPython's cheap loop bytecode);
* **NYX075** — a ``# nyx: hot`` marker on a line that defines
  nothing, or a ``self.X()`` call edge the graph cannot resolve.

Suppressions use the shared grammar: ``# nyx: allow[NYX072]`` (one
rule), ``# nyx: allow[NYX07x]`` / ``# nyx: allow[hot]`` (the family)
on the finding line, the ``def`` line or the ``class`` line.  Every
suppression should carry a justification comment.
"""

from __future__ import annotations

import ast
import pathlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import Diagnostic, allow_tokens
from repro.analysis.model import (LOOPS, Module, Root, SourceTree, Walk,
                                  source_tree)
from repro.analysis.resetlint import _is_staticmethod, _scan_class

#: Family tokens accepted by ``# nyx: allow[...]``.
FAMILY_TOKEN = "hot"
FAMILY_ALIAS = "NYX07x"
#: RNG draw methods with a batched equivalent (``some_bytes``).
RNG_DRAW_METHODS = {"randrange", "randint", "getrandbits"}
#: Repeated-load threshold: the same attribute chain loaded this many
#: times in one loop body is worth a local alias.
ATTR_LOAD_THRESHOLD = 3


# ---------------------------------------------------------------------------
# module indexing
# ---------------------------------------------------------------------------

@dataclass
class FuncRecord:
    """One function or method, as a call-graph node."""

    filename: str
    module: str
    qualname: str
    name: str
    node: ast.AST
    class_name: Optional[str] = None
    class_line: int = 0
    class_has_bases: bool = False
    hot_root: bool = False
    #: Call sites: ``(lineno, kind, name)`` with kind one of
    #: ``bare`` / ``self`` / ``attr``.
    calls: List[Tuple[int, str, str]] = field(default_factory=list)

    @property
    def key(self) -> Tuple[str, str]:
        return (self.filename, self.qualname)


class ModuleIndex:
    """Hot-lint view of one module: functions, roots, annotations."""

    def __init__(self, source: Module, module: str) -> None:
        self.filename = source.filename
        self.module = module
        self.lines = source.lines
        self.functions: List[FuncRecord] = []
        #: class name -> known instance-attribute names (callable
        #: attributes make a self-call resolvable-but-external).
        self.class_attrs: Dict[str, Set[str]] = {}
        self.parse_error = source.parse_error(
            "NYX075", "; hot-path reachability cannot be computed")
        #: lines whose def/class statement may carry a hot marker.
        self.def_lines: Set[int] = set()
        #: lines carrying a genuine hot-marker *comment* (docstrings
        #: discussing the marker do not count).
        self.hot_marker_lines: Set[int] = set()
        tree = source.tree
        if tree is None:
            return
        self.walk: Walk = source.walk
        self.hot_marker_lines = self.walk.hot_lines
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(node, None)
            elif isinstance(node, ast.ClassDef):
                self._add_class(source, node)

    def _add_class(self, source: Module, node: ast.ClassDef) -> None:
        self.def_lines.add(node.lineno)
        record = _scan_class(source, node)
        self.class_attrs[node.name] = set(record.attrs)
        class_hot = node.lineno in self.hot_marker_lines
        has_bases = any(not (isinstance(b, ast.Name) and b.id == "object")
                        for b in node.bases)
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(stmt, node, class_hot=class_hot,
                                   class_has_bases=has_bases)

    def _add_function(self, node, class_node: Optional[ast.ClassDef],
                      class_hot: bool = False,
                      class_has_bases: bool = False) -> None:
        self.def_lines.add(node.lineno)
        args = node.args.posonlyargs + node.args.args
        self_name = ""
        if class_node is not None and args and not _is_staticmethod(node):
            self_name = args[0].arg
        qualname = (node.name if class_node is None
                    else "%s.%s" % (class_node.name, node.name))
        self.functions.append(FuncRecord(
            filename=self.filename, module=self.module, qualname=qualname,
            name=node.name, node=node,
            class_name=class_node.name if class_node else None,
            class_line=class_node.lineno if class_node else 0,
            class_has_bases=class_has_bases,
            hot_root=class_hot or node.lineno in self.hot_marker_lines,
            calls=self.walk.function(node, self_name).calls))


def _module_name(path: pathlib.Path, root: pathlib.Path) -> str:
    """Dotted module name of ``path``, rooted at ``root``'s basename
    (``src/repro/vm/memory.py`` -> ``repro.vm.memory``)."""
    try:
        rel = path.relative_to(root)
    except ValueError:
        rel = pathlib.Path(path.name)
    parts = [root.name] + list(rel.parts)
    parts[-1] = parts[-1][:-3] if parts[-1].endswith(".py") else parts[-1]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


# ---------------------------------------------------------------------------
# call-graph reachability
# ---------------------------------------------------------------------------

class HotGraph:
    """Cross-module call graph + hot-reachability over module indexes."""

    def __init__(self, indexes: Sequence[ModuleIndex]) -> None:
        #: Every module, unparseable ones (no functions) included.
        self.indexes = list(indexes)
        self.functions: List[FuncRecord] = []
        for index in self.indexes:
            self.functions.extend(index.functions)
        #: (filename, class, method) -> record
        self._methods: Dict[Tuple[str, str, str], FuncRecord] = {}
        #: (filename, name) -> module-level function record
        self._mod_funcs: Dict[Tuple[str, str], FuncRecord] = {}
        #: method name -> records across the whole tree
        self._by_method: Dict[str, List[FuncRecord]] = {}
        self._by_bare: Dict[str, List[FuncRecord]] = {}
        for f in self.functions:
            if f.class_name:
                self._methods[(f.filename, f.class_name, f.name)] = f
                self._by_method.setdefault(f.name, []).append(f)
            else:
                self._mod_funcs[(f.filename, f.name)] = f
                self._by_bare.setdefault(f.name, []).append(f)
        self.hot: Set[Tuple[str, str]] = set()
        self._reach()

    def _edges(self, f: FuncRecord) -> Iterable[FuncRecord]:
        for _line, kind, name in f.calls:
            if kind == "self" and f.class_name:
                target = self._methods.get((f.filename, f.class_name, name))
                if target is not None:
                    yield target
            elif kind == "bare":
                target = self._mod_funcs.get((f.filename, name))
                if target is None:
                    candidates = self._by_bare.get(name, [])
                    target = candidates[0] if len(candidates) == 1 else None
                if target is not None:
                    yield target
            elif kind == "attr":
                candidates = self._by_method.get(name, [])
                if len(candidates) == 1:
                    yield candidates[0]

    def _reach(self) -> None:
        queue = [f for f in self.functions if f.hot_root]
        self.hot = {f.key for f in queue}
        while queue:
            current = queue.pop()
            for target in self._edges(current):
                if target.key not in self.hot:
                    self.hot.add(target.key)
                    queue.append(target)

    def is_hot(self, f: FuncRecord) -> bool:
        return f.key in self.hot

    def hot_sites(self) -> Dict[str, Set[str]]:
        """module -> hot-reachable qualnames (the profiler's NYX077
        coverage map)."""
        sites: Dict[str, Set[str]] = {}
        for f in self.functions:
            if f.key in self.hot:
                sites.setdefault(f.module, set()).add(f.qualname)
        return sites


# ---------------------------------------------------------------------------
# rule detectors
# ---------------------------------------------------------------------------

def _body_walk(walk: Walk, node: ast.AST, types) -> List[ast.AST]:
    """The ``types`` nodes under ``node`` (itself included) outside
    nested function/class defs and lambdas, each node before its
    children and later siblings before earlier ones: the order that
    findings on one line and of one rule keep."""
    ends = walk.ends
    found = walk.positions(types, walk.position(node), nested=False)
    found.sort(key=lambda pos: (-ends[pos], pos))
    return [walk.nodes[pos] for pos in found]


def _loop_bound_names(walk: Walk, loop: ast.AST) -> Set[str]:
    """Names (re)bound anywhere inside the loop — loop-variant."""
    return {node.id for node in _body_walk(walk, loop, ast.Name)
            if isinstance(node.ctx, (ast.Store, ast.Del))}


def _is_innermost(walk: Walk, loop: ast.AST) -> bool:
    return _body_walk(walk, loop, LOOPS) == [loop]


def _attr_chain(node: ast.AST) -> Optional[List[str]]:
    """``self.a.b`` -> ``["self", "a", "b"]`` for pure Name/Attribute
    chains, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return None


def _all_constant(expr: ast.AST) -> bool:
    """Is this container literal built from constants only (and
    non-empty, so it is the *same* value every iteration)?"""
    if isinstance(expr, (ast.List, ast.Set, ast.Tuple)):
        return bool(expr.elts) and all(isinstance(e, ast.Constant)
                                       for e in expr.elts)
    if isinstance(expr, ast.Dict):
        return bool(expr.keys) and all(
            isinstance(k, ast.Constant) and isinstance(v, ast.Constant)
            for k, v in zip(expr.keys, expr.values))
    return False


def _is_rng_draw(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in RNG_DRAW_METHODS)


def _contains_rng_draw(walk: Walk, node: ast.AST, start: int
                       ) -> Optional[int]:
    """Line of the first RNG draw under ``node`` (breadth-first), which
    lies after position ``start``."""
    draw = walk.first(walk.position(node, start), _is_rng_draw)
    return None if draw is None else draw.lineno


def _allowed(lines: Sequence[str], func: FuncRecord, lineno: int,
             code: str) -> bool:
    """Is ``code`` suppressed on ``lineno``, the ``def`` line or the
    ``class`` line?"""
    tokens = allow_tokens(lines, lineno)
    tokens |= allow_tokens(lines, func.node.lineno)
    if func.class_line:
        tokens |= allow_tokens(lines, func.class_line)
    return bool(tokens & {code, FAMILY_TOKEN, FAMILY_ALIAS})


class _HotRules:
    """NYX070-074 detectors over one hot function."""

    def __init__(self, func: FuncRecord, index: ModuleIndex) -> None:
        self.func = func
        self.lines = index.lines
        self.walk = index.walk
        self.diags: List[Diagnostic] = []
        #: NYX072 alias candidates: chain -> (line, count) for fix-its.
        self.alias_candidates: Dict[str, Tuple[int, int]] = {}

    def _flag(self, code: str, lineno: int, message: str,
              fixable: bool = False) -> None:
        if _allowed(self.lines, self.func, lineno, code):
            return
        self.diags.append(Diagnostic(
            code, "%s: %s" % (self.func.qualname, message),
            file=self.func.filename, line=lineno, fixable=fixable))

    def run(self) -> List[Diagnostic]:
        node = self.func.node
        walk = self.walk
        for loop in _body_walk(walk, node, LOOPS):
            bound = _loop_bound_names(walk, loop)
            self._alloc_rules(loop, bound)
            self._rng_append_rule(loop)
            self._attr_load_rule(loop, bound)
            if _is_innermost(walk, loop):
                self._indirection_rule(loop)
        self._rng_comprehension_rule(node)
        self._copy_rules(node)
        self.diags.sort(key=lambda d: (d.line or 0, d.code))
        return self.diags

    # -- NYX070 --------------------------------------------------------------

    def _alloc_rules(self, loop: ast.AST, bound: Set[str]) -> None:
        for node in _body_walk(self.walk, loop,
                               (ast.AugAssign, ast.Call, ast.Assign)):
            if (isinstance(node, ast.AugAssign)
                    and isinstance(node.op, ast.Add)
                    and self._str_like(node.value)):
                self._flag("NYX070", node.lineno,
                           "str/bytes concatenation in a hot loop "
                           "rebuilds the buffer every pass; collect "
                           "parts and join once")
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id in ("bytes", "bytearray")
                  and len(node.args) == 1):
                chain = _attr_chain(node.args[0])
                if chain is not None and chain[0] not in bound:
                    self._flag("NYX070", node.lineno,
                               "%s(%s) of loop-invariant data is "
                               "reallocated every iteration; hoist it "
                               "before the loop"
                               % (node.func.id, ".".join(chain)))
            elif (isinstance(node, ast.Assign)
                  and _all_constant(node.value)):
                self._flag("NYX070", node.lineno,
                           "constant container literal rebuilt every "
                           "iteration; hoist it to module/function "
                           "scope")

    @staticmethod
    def _str_like(expr: ast.AST) -> bool:
        if isinstance(expr, ast.Constant):
            return isinstance(expr.value, (str, bytes))
        if isinstance(expr, ast.JoinedStr):
            return True
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Mod):
            return _HotRules._str_like(expr.left)
        return False

    # -- NYX071 --------------------------------------------------------------

    def _rng_append_rule(self, loop: ast.AST) -> None:
        for node in _body_walk(self.walk, loop, ast.Call):
            if (isinstance(node.func, ast.Attribute)
                    and node.func.attr == "append"
                    and node.args and _is_rng_draw(node.args[0])):
                self._flag("NYX071", node.lineno,
                           "one RNG draw appended per iteration; "
                           "rng.some_bytes(n) batches the draws")

    def _rng_comprehension_rule(self, func_node: ast.AST) -> None:
        start = self.walk.position(func_node)
        for node in _body_walk(self.walk, func_node, ast.Call):
            func = node.func
            byte_bound = (isinstance(func, ast.Name)
                          and func.id in ("bytes", "bytearray"))
            join_bound = (isinstance(func, ast.Attribute)
                          and func.attr == "join")
            if not (byte_bound or join_bound):
                continue
            for arg in node.args:
                if isinstance(arg, (ast.ListComp, ast.GeneratorExp)):
                    line = _contains_rng_draw(self.walk, arg.elt, start)
                    if line is not None:
                        self._flag("NYX071", line,
                                   "one RNG draw per generated byte; "
                                   "rng.some_bytes(n) consumes the "
                                   "stream in one batch")

    # -- NYX072 --------------------------------------------------------------

    def _attr_load_rule(self, loop: ast.AST, bound: Set[str]) -> None:
        loads: Dict[str, List[int]] = {}
        stored: Set[str] = set()
        for node in _body_walk(self.walk, loop, ast.Attribute):
            chain = _attr_chain(node)
            if chain is None:
                continue
            dotted = ".".join(chain)
            if isinstance(node.ctx, (ast.Store, ast.Del)):
                stored.add(dotted)
                continue
            # Only maximal chains: skip if the parent Attribute already
            # counted us (detected by a longer chain sharing the line).
            loads.setdefault(dotted, []).append(node.lineno)
        for dotted in sorted(loads):
            chain = dotted.split(".")
            if chain[0] in bound or len(chain) < 2:
                continue
            # A chain written in the loop (or any written prefix) is
            # loop-variant; a local alias would go stale.
            if any(".".join(chain[:i]) in stored
                   for i in range(2, len(chain) + 1)):
                continue
            # Drop sub-chains whose counts are explained by a longer
            # counted chain (loading a.b.c also loads a.b).
            longer = [d for d in loads
                      if d != dotted and d.startswith(dotted + ".")]
            own = len(loads[dotted]) - sum(len(loads[d]) for d in longer)
            total = len(loads[dotted])
            if total < ATTR_LOAD_THRESHOLD or own <= 0:
                continue
            line = min(loads[dotted])
            self._flag("NYX072", line,
                       "'%s' is loaded %d times in one hot loop body; "
                       "bind a local alias before the loop"
                       % (dotted, total), fixable=True)
            if not _allowed(self.lines, self.func, line, "NYX072"):
                self.alias_candidates.setdefault(dotted, (line, total))

    # -- NYX073 --------------------------------------------------------------

    def _copy_rules(self, func_node: ast.AST) -> None:
        for node in _body_walk(self.walk, func_node,
                               (ast.Subscript, ast.Call)):
            if (isinstance(node, ast.Subscript)
                    and isinstance(node.ctx, ast.Load)
                    and isinstance(node.slice, ast.Slice)
                    and node.slice.lower is None
                    and node.slice.upper is None
                    and node.slice.step is None):
                self._flag("NYX073", node.lineno,
                           "whole-slice copy duplicates the full "
                           "buffer; pass the object (or a memoryview) "
                           "instead")
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "loads"
                  and node.args and isinstance(node.args[0], ast.Call)
                  and isinstance(node.args[0].func, ast.Attribute)
                  and node.args[0].func.attr == "dumps"):
                self._flag("NYX073", node.lineno,
                           "pickle round-trip copies the whole object "
                           "graph; use copy.deepcopy or share the "
                           "object")

    # -- NYX074 --------------------------------------------------------------

    def _indirection_rule(self, loop: ast.AST) -> None:
        for node in _body_walk(self.walk, loop,
                               (ast.Try, ast.GeneratorExp)):
            if isinstance(node, ast.Try):
                self._flag("NYX074", node.lineno,
                           "try/except inside the innermost hot loop "
                           "adds a block setup per iteration; hoist "
                           "the handler around the loop")
            elif isinstance(node, ast.GeneratorExp):
                self._flag("NYX074", node.lineno,
                           "generator expression inside the innermost "
                           "hot loop allocates a frame per pass; use "
                           "a list comprehension or an explicit loop")


# ---------------------------------------------------------------------------
# NYX075: annotation / resolution sanity
# ---------------------------------------------------------------------------

def _annotation_diags(index: ModuleIndex) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    for lineno in sorted(index.hot_marker_lines):
        if lineno in index.def_lines:
            continue
        if allow_tokens(index.lines, lineno) & {"NYX075", FAMILY_TOKEN,
                                                FAMILY_ALIAS}:
            continue
        diags.append(Diagnostic(
            "NYX075",
            "'# nyx: hot' marker on a line that defines no function or "
            "class; it annotates nothing",
            file=index.filename, line=lineno))
    return diags


def _resolution_diags(index: ModuleIndex, graph: HotGraph
                      ) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    for func in index.functions:
        if not graph.is_hot(func) or not func.class_name:
            continue
        if func.class_has_bases:
            continue  # inherited methods are invisible; stay silent
        methods = {f.name for f in index.functions
                   if f.class_name == func.class_name}
        attrs = index.class_attrs.get(func.class_name, set())
        for lineno, kind, name in func.calls:
            if kind != "self" or name in methods or name in attrs:
                continue
            if _allowed(index.lines, func, lineno, "NYX075"):
                continue
            diags.append(Diagnostic(
                "NYX075",
                "%s calls self.%s() but %s defines no such method or "
                "attribute; the hot graph cannot follow this edge"
                % (func.qualname, name, func.class_name),
                file=index.filename, line=lineno))
    return diags


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def _analyze(graph: HotGraph) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    for index in graph.indexes:
        if index.parse_error is not None:
            diags.append(index.parse_error)
            continue
        diags.extend(_annotation_diags(index))
        diags.extend(_resolution_diags(index, graph))
        for func in index.functions:
            if graph.is_hot(func):
                diags.extend(_HotRules(func, index).run())
    diags.sort(key=lambda d: (d.file or "", d.line or 0, d.code))
    return diags


def analyze_hot_source(filename: str, text: str,
                       module: str = "module") -> List[Diagnostic]:
    """Hot-path lint of one module in isolation."""
    return _analyze(HotGraph([ModuleIndex(Module(filename, text), module)]))


def _tree_graph(tree: SourceTree) -> HotGraph:
    return HotGraph([ModuleIndex(tree.module(path),
                                 _module_name(path, tree.root))
                     for path in tree.paths()])


def analyze_hot_tree(root: Root) -> List[Diagnostic]:
    """Hot-path lint of every module under ``root`` with cross-module
    call-edge resolution."""
    tree = source_tree(root)
    diags = _analyze(_tree_graph(tree))
    tree.done()
    return diags


def hot_sites(root: Root) -> Dict[str, Set[str]]:
    """``{module: {qualnames}}`` of hot-reachable functions under
    ``root`` — the static coverage map the profiler's NYX077 check
    compares runtime cost ranks against."""
    tree = source_tree(root)
    sites = _tree_graph(tree).hot_sites()
    tree.done()
    return sites


def hot_fixit_stubs(root: Root) -> Dict[str, str]:
    """NYX072 local-alias stubs, keyed ``<path>::<qualname>``."""
    stubs: Dict[str, str] = {}
    tree = source_tree(root)
    graph = _tree_graph(tree)
    for index in graph.indexes:
        for func in index.functions:
            if not graph.is_hot(func):
                continue
            rules = _HotRules(func, index)
            rules.run()
            if not rules.alias_candidates:
                continue
            lines = ["    # hoist before the loop in %s (%s):"
                     % (func.qualname, index.filename)]
            for dotted in sorted(rules.alias_candidates):
                line, count = rules.alias_candidates[dotted]
                alias = "_".join(p for p in dotted.split(".")
                                 if p not in ("self", "cls")) or "alias"
                lines.append("        %s = %s  # line %d, %d loads/pass"
                             % (alias, dotted, line, count))
            stubs["%s::%s" % (index.filename, func.qualname)] = (
                "\n".join(lines) + "\n")
    tree.done()
    return stubs
