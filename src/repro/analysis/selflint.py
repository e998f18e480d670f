"""Determinism self-lint (NYX02x): AST audit of ``src/repro`` itself.

The whole reproduction leans on two invariants that no test can prove
and one stray import can break:

* **deterministic interleaving** — parallel campaigns replay
  bit-identically for a seed because every stochastic choice flows
  through ``repro.sim.rng.DeterministicRandom`` and every timestamp
  through the simulated clock;
* **replayable fault plans** — ``fp1:<seed>:<rate-ppm>`` ids regenerate
  the exact fault stream, which dies the moment wall-clock time or OS
  entropy leaks into a decision.

This pass walks the AST of every module outside ``sim/`` (the one
place allowed to wrap host randomness) and flags wall-clock access
(NYX020), ``random``/``secrets`` (NYX021), OS entropy (NYX022) and
iteration over unordered sets (NYX023).

Grandfathered or deliberately-exempt uses are suppressed inline with
``# nyx: allow[NYX021]`` on the offending line.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Sequence

from repro.analysis.diagnostics import Diagnostic, allow_tokens
from repro.analysis.model import Module, Root, source_tree

#: (object, attribute) call patterns that read the wall clock.
WALL_CLOCK_ATTRS = {
    ("time", "time"), ("time", "time_ns"),
    ("time", "monotonic"), ("time", "monotonic_ns"),
    ("time", "perf_counter"), ("time", "perf_counter_ns"),
    ("time", "process_time"), ("time", "sleep"),
    ("datetime", "now"), ("datetime", "utcnow"), ("datetime", "today"),
    ("date", "today"),
}
#: Names importable from ``time`` that are wall-clock reads.
WALL_CLOCK_NAMES = {"time", "time_ns", "monotonic", "monotonic_ns",
                    "perf_counter", "perf_counter_ns", "process_time",
                    "sleep"}
#: (object, attribute) call patterns that draw OS entropy.
ENTROPY_ATTRS = {("os", "urandom"), ("uuid", "uuid1"), ("uuid", "uuid4")}
#: Modules whose import is forbidden outright, with their rule code.
FORBIDDEN_MODULES = {"random": "NYX021", "secrets": "NYX022"}
#: Directories (relative to the scanned root) exempt from the lint.
EXEMPT_DIRS = {"sim", "__pycache__"}

def _suppressed(lines: Sequence[str], lineno: int, code: str) -> bool:
    return code in allow_tokens(lines, lineno)


def _is_unordered(expr: ast.AST) -> bool:
    """Does this expression evaluate to a bare (unordered) set?"""
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name)
            and expr.func.id in ("set", "frozenset")):
        return True
    if isinstance(expr, ast.BinOp) and isinstance(
            expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return _is_unordered(expr.left) or _is_unordered(expr.right)
    return False


class _Visitor(ast.NodeVisitor):
    def __init__(self, filename: str, lines: Sequence[str]) -> None:
        self.filename = filename
        self.lines = lines
        self.diags: List[Diagnostic] = []

    def _flag(self, code: str, node: ast.AST, message: str) -> None:
        lineno = getattr(node, "lineno", 0)
        if _suppressed(self.lines, lineno, code):
            return
        self.diags.append(Diagnostic(code, message, file=self.filename,
                                     line=lineno))

    # -- imports -----------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            top = alias.name.split(".")[0]
            if top in FORBIDDEN_MODULES:
                self._flag(FORBIDDEN_MODULES[top], node,
                           "import of %r" % alias.name)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        top = (node.module or "").split(".")[0]
        if top in FORBIDDEN_MODULES:
            self._flag(FORBIDDEN_MODULES[top], node,
                       "import from %r" % node.module)
        elif top == "time":
            for alias in node.names:
                if alias.name in WALL_CLOCK_NAMES or alias.name == "*":
                    self._flag("NYX020", node,
                               "from time import %s" % alias.name)
        elif top == "os":
            for alias in node.names:
                if alias.name == "urandom":
                    self._flag("NYX022", node, "from os import urandom")
        elif top == "uuid":
            for alias in node.names:
                if alias.name in ("uuid1", "uuid4"):
                    self._flag("NYX022", node,
                               "from uuid import %s" % alias.name)
        self.generic_visit(node)

    # -- calls -------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            base: Optional[str] = None
            if isinstance(func.value, ast.Name):
                base = func.value.id
            elif isinstance(func.value, ast.Attribute):
                base = func.value.attr
            if base is not None:
                key = (base, func.attr)
                if key in WALL_CLOCK_ATTRS:
                    self._flag("NYX020", node,
                               "call to %s.%s()" % key)
                elif key in ENTROPY_ATTRS:
                    self._flag("NYX022", node,
                               "call to %s.%s()" % key)
        self.generic_visit(node)

    # -- unordered iteration -----------------------------------------------

    def visit_For(self, node: ast.For) -> None:
        if _is_unordered(node.iter):
            self._flag("NYX023", node, "for-loop over an unordered set")
        self.generic_visit(node)

    def _check_comprehension(self, node) -> None:
        for gen in node.generators:
            if _is_unordered(gen.iter):
                self._flag("NYX023", node,
                           "comprehension over an unordered set")
        self.generic_visit(node)

    visit_ListComp = _check_comprehension
    visit_SetComp = _check_comprehension
    visit_DictComp = _check_comprehension
    visit_GeneratorExp = _check_comprehension


def _module_diags(module: Module) -> List[Diagnostic]:
    if module.tree is None:
        return [module.parse_error("NYX024")]
    visitor = _Visitor(module.filename, module.lines)
    visitor.visit(module.tree)
    visitor.diags.sort(key=lambda d: (d.line or 0, d.code))
    return visitor.diags


def analyze_source(filename: str, text: str) -> List[Diagnostic]:
    """Lint one module's source; returns diagnostics."""
    return _module_diags(Module(filename, text))


def analyze_source_tree(root: Root) -> List[Diagnostic]:
    """Lint every ``.py`` file under ``root`` except ``sim/``."""
    tree = source_tree(root)
    diags: List[Diagnostic] = []
    for path in tree.paths():
        if EXEMPT_DIRS.intersection(path.relative_to(tree.root).parts[:-1]):
            continue
        diags.extend(_module_diags(tree.module(path)))
    tree.done()
    return diags
