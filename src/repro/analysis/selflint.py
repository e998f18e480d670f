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

This pass reads the shared walk (:mod:`.model`) of every module
outside ``sim/`` (the one place allowed to wrap host randomness) and
flags wall-clock access (NYX020), ``random``/``secrets`` (NYX021), OS
entropy (NYX022) and iteration over unordered sets (NYX023).

Grandfathered or deliberately-exempt uses are suppressed inline with
``# nyx: allow[NYX021]`` on the offending line.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Tuple

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


#: Node types the lint audits.
_AUDITED = (ast.Import, ast.ImportFrom, ast.Call, ast.For, ast.ListComp,
            ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _findings(node: ast.AST) -> Iterator[Tuple[str, str]]:
    """``(code, message)`` of each finding on one audited node."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            top = alias.name.split(".")[0]
            if top in FORBIDDEN_MODULES:
                yield FORBIDDEN_MODULES[top], "import of %r" % alias.name
    elif isinstance(node, ast.ImportFrom):
        top = (node.module or "").split(".")[0]
        names = [alias.name for alias in node.names]
        if top in FORBIDDEN_MODULES:
            yield FORBIDDEN_MODULES[top], "import from %r" % node.module
        elif top == "time":
            for name in names:
                if name in WALL_CLOCK_NAMES or name == "*":
                    yield "NYX020", "from time import %s" % name
        elif top == "os":
            for name in names:
                if name == "urandom":
                    yield "NYX022", "from os import urandom"
        elif top == "uuid":
            for name in names:
                if name in ("uuid1", "uuid4"):
                    yield "NYX022", "from uuid import %s" % name
    elif isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute):
            base = (func.value.id if isinstance(func.value, ast.Name)
                    else func.value.attr
                    if isinstance(func.value, ast.Attribute) else None)
            if (base, func.attr) in WALL_CLOCK_ATTRS:
                yield "NYX020", "call to %s.%s()" % (base, func.attr)
            elif (base, func.attr) in ENTROPY_ATTRS:
                yield "NYX022", "call to %s.%s()" % (base, func.attr)
    elif isinstance(node, ast.For):
        if _is_unordered(node.iter):
            yield "NYX023", "for-loop over an unordered set"
    else:
        for gen in node.generators:
            if _is_unordered(gen.iter):
                yield "NYX023", "comprehension over an unordered set"


def _module_diags(module: Module) -> List[Diagnostic]:
    if module.tree is None:
        return [module.parse_error("NYX024")]
    diags: List[Diagnostic] = []
    walk = module.walk
    for pos in walk.positions(_AUDITED):
        node = walk.nodes[pos]
        lineno = getattr(node, "lineno", 0)
        for code, message in _findings(node):
            if code not in allow_tokens(module.lines, lineno):
                diags.append(Diagnostic(code, message,
                                        file=module.filename, line=lineno))
    diags.sort(key=lambda d: (d.line or 0, d.code))
    return diags


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
