"""Reset-safety lint (NYX04x): static audit of the snapshot machinery.

Nyx's execution model rests on one invariant (PAPER §3): *every* piece
of guest-visible and emulator-side mutable state is rolled back by the
root/incremental snapshot reset, so consecutive executions are
independent.  Guest state is covered by construction — it lives in
:class:`~repro.vm.memory.GuestMemory` pages or device ``fields()`` and
is restored wholesale.  Host-side Python objects (the kernel wrapper,
the interceptor, the fault injector) are *not*: any attribute they
mutate per-exec must be re-initialised by a reset method on the
executor's reset path, or coverage feedback silently corrupts the way
SnapFuzz/StateAFL describe.

This pass walks the AST of ``vm/``, ``guestos/``, ``emu/`` and
``faults/`` and builds a registry of mutable state, classifying each
record as *covered* or *leaking*:

* **covered** — the attribute is (re)assigned in a reset-family method
  (name starts with ``reset``/``restore``/``reload``, or is the device
  protocol's ``load_fields``), or the class is marked
  ``# nyx: state[memory]`` (instances are serialized into guest memory
  by ``Kernel.flush_to_memory`` and rebuilt by ``reload_from_memory``,
  so the snapshot itself restores them);
* **leaking** — mutated after ``__init__`` with no reset path: NYX040
  (class has no reset method at all), NYX043 (the reset method exists
  but skips the attribute), NYX044 (class hooks snapshot restores via
  ``on_root_restore``/``on_incremental_restore`` yet keeps state).
  Module-global mutable containers (NYX041) and class-level mutable
  containers (NYX042) leak by construction.

Deliberate cross-reset state — cumulative fuzzer-facing counters,
one-way latches, the snapshot bookkeeping itself — is suppressed
inline with ``# nyx: allow[reset]`` (whole family) or
``# nyx: allow[NYX043]`` (one rule), on the attribute's defining line
or on the ``class`` line for a whole class.  Every suppression should
carry a justification comment.

The lint sees only ``self.attr`` accesses inside the owning class;
state mutated exclusively through another object's reference is
invisible here — the runtime sanitizer (:mod:`.sanitizer`, NYX05x) is
the backstop for that.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import Diagnostic, allow_tokens, has_marker
from repro.analysis.model import Module, Root, source_tree

#: Packages (relative to the scanned root) that hold snapshot-covered
#: machinery and its host-side drivers.
SCAN_DIRS = ("vm", "guestos", "emu", "faults")
#: Method-name prefixes that put an assignment on the reset path.
RESET_PREFIXES = ("reset", "restore", "reload")
#: Exact method names that are also reset-family (device protocol).
RESET_NAMES = {"load_fields"}
#: Snapshot-restore hook names (NYX044).
RESTORE_HOOKS = {"on_root_restore", "on_incremental_restore"}
#: Container method calls that mutate the receiver in place.
MUTATING_METHODS = {
    "append", "appendleft", "add", "clear", "discard", "extend",
    "extendleft", "insert", "pop", "popleft", "popitem", "remove",
    "setdefault", "sort", "update",
}
#: Constructor names whose result is a mutable container.
MUTABLE_CONSTRUCTORS = {"dict", "list", "set", "bytearray", "deque",
                        "defaultdict", "OrderedDict", "Counter"}

#: Family token accepted by ``# nyx: allow[...]`` alongside rule codes.
FAMILY_TOKEN = "reset"

# Annotation parsing lives in diagnostics (shared by every source
# lint); these aliases keep this module's historical import surface —
# durlint and the fix-it machinery import them from here.
_allow_tokens = allow_tokens


def _memory_marked(lines: Sequence[str], lineno: int) -> bool:
    return has_marker(lines, lineno, "state[memory]")


def _is_reset_family(name: str) -> bool:
    return name in RESET_NAMES or name.lstrip("_").startswith(RESET_PREFIXES)


def _is_staticmethod(node) -> bool:
    """A ``@staticmethod``'s first parameter is not ``self``; scanning
    it would misattribute parameter mutations to the class."""
    return any(isinstance(dec, ast.Name) and dec.id == "staticmethod"
               for dec in node.decorator_list)


def _is_dunder(name: str) -> bool:
    """Module-protocol names (``__all__`` & co) are not caches."""
    return name.startswith("__") and name.endswith("__")


def _is_mutable_value(expr: ast.AST) -> bool:
    """Does this expression build a mutable container?"""
    if isinstance(expr, (ast.Dict, ast.List, ast.Set, ast.ListComp,
                         ast.SetComp, ast.DictComp)):
        return True
    if isinstance(expr, ast.Call):
        func = expr.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None)
        return name in MUTABLE_CONSTRUCTORS
    return False


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
    direct = _is_direct_self_attr(node, self_name)
    return direct if node is not expr else None


def _is_direct_self_attr(expr: ast.AST, self_name: str) -> Optional[str]:
    if (isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == self_name):
        return expr.attr
    return None


@dataclass
class AttrRecord:
    """One instance attribute of one class."""

    name: str
    #: Line of the ``__init__`` / class-body definition (0 = dynamic).
    defined_line: int = 0
    #: The ``__init__`` default, for fix-it stub generation.
    init_value: Optional[ast.AST] = None
    #: ``(line, method)`` of every write/mutation outside init+reset.
    mutations: List[Tuple[int, str]] = field(default_factory=list)
    #: Assigned or mutated inside a reset-family method.
    reset: bool = False

    @property
    def anchor_line(self) -> int:
        if self.defined_line:
            return self.defined_line
        return self.mutations[0][0] if self.mutations else 0


@dataclass
class ClassRecord:
    """Mutable-state registry for one class."""

    name: str
    line: int
    memory_marked: bool = False
    allow_tokens: Set[str] = field(default_factory=set)
    reset_methods: List[str] = field(default_factory=list)
    restore_hooks: List[str] = field(default_factory=list)
    attrs: Dict[str, AttrRecord] = field(default_factory=dict)
    #: ``(line, name)`` of class-level mutable container assignments.
    class_containers: List[Tuple[int, str]] = field(default_factory=list)

    def attr(self, name: str) -> AttrRecord:
        if name not in self.attrs:
            self.attrs[name] = AttrRecord(name)
        return self.attrs[name]

    def leaking_attrs(self) -> List[AttrRecord]:
        return [self.attrs[n] for n in sorted(self.attrs)
                if self.attrs[n].mutations and not self.attrs[n].reset]


class _MethodScan(ast.NodeVisitor):
    """Collect self-attribute writes and in-place mutations."""

    def __init__(self, self_name: str) -> None:
        self.self_name = self_name
        #: ``(line, attr)`` direct rebinding: ``self.x = ...``
        self.writes: List[Tuple[int, str, ast.AST]] = []
        #: ``(line, attr)`` in-place change: ``self.x[k] = / .append()``
        self.mutations: List[Tuple[int, str]] = []

    def _target(self, target: ast.AST, value: ast.AST) -> None:
        direct = _is_direct_self_attr(target, self.self_name)
        if direct is not None:
            self.writes.append((target.lineno, direct, value))
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._target(elt, value)
            return
        base = _self_attr_base(target, self.self_name)
        if base is not None:
            self.mutations.append((target.lineno, base))

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._target(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._target(node.target, node.value)
        self.generic_visit(node)

    def _mutated(self, expr: ast.AST) -> Optional[str]:
        direct = _is_direct_self_attr(expr, self.self_name)
        if direct is not None:
            return direct
        return _self_attr_base(expr, self.self_name)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        base = self._mutated(node.target)
        if base is not None:
            self.mutations.append((node.target.lineno, base))
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            base = self._mutated(target)
            if base is not None:
                self.mutations.append((target.lineno, base))
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in MUTATING_METHODS:
            base = self._mutated(func.value)
            if base is not None:
                self.mutations.append((node.lineno, base))
        self.generic_visit(node)


def _scan_class(module: Module, node: ast.ClassDef) -> ClassRecord:
    """The class's registry, built once and kept on its module."""
    if node in module.classes:
        return module.classes[node]
    lines = module.lines
    record = ClassRecord(node.name, node.lineno,
                         memory_marked=_memory_marked(lines, node.lineno),
                         allow_tokens=_allow_tokens(lines, node.lineno))
    for stmt in node.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if (isinstance(target, ast.Name)
                        and _is_mutable_value(stmt.value)):
                    record.class_containers.append(
                        (stmt.lineno, target.id))
        elif isinstance(stmt, ast.AnnAssign):
            # Annotated class-body fields are dataclass field specs:
            # per-instance defaults, not shared containers.  They still
            # define the attribute for coverage accounting.
            if isinstance(stmt.target, ast.Name):
                attr = record.attr(stmt.target.id)
                if not attr.defined_line:
                    attr.defined_line = stmt.lineno
                    attr.init_value = stmt.value
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = stmt.args.posonlyargs + stmt.args.args
            if not args or _is_staticmethod(stmt):
                continue  # staticmethod: no instance state access
            scan = _MethodScan(args[0].arg)
            for inner in stmt.body:
                scan.visit(inner)
            if stmt.name in RESTORE_HOOKS:
                record.restore_hooks.append(stmt.name)
            if stmt.name == "__init__":
                for line, name, value in scan.writes:
                    attr = record.attr(name)
                    if not attr.defined_line:
                        attr.defined_line = line
                        attr.init_value = value
            elif _is_reset_family(stmt.name):
                record.reset_methods.append(stmt.name)
                for line, name, value in scan.writes:
                    attr = record.attr(name)
                    attr.reset = True
                    if not attr.defined_line:
                        attr.defined_line = line
                for line, name in scan.mutations:
                    record.attr(name).reset = True
            else:
                for line, name, _value in scan.writes:
                    record.attr(name).mutations.append((line, stmt.name))
                for line, name in scan.mutations:
                    record.attr(name).mutations.append((line, stmt.name))
    for attr in record.attrs.values():
        attr.mutations.sort()
    module.classes[node] = record
    return record


class _ModuleScan:
    """Everything the lint learned about one module."""

    def __init__(self, module: Module) -> None:
        self.filename = module.filename
        self.lines = module.lines
        self.classes: List[ClassRecord] = []
        #: name -> definition line of module-level mutable containers.
        self.globals: Dict[str, int] = {}
        #: ``(line, name)`` mutation events on module-level names.
        self.global_mutations: List[Tuple[int, str]] = []
        self.parse_error = module.parse_error("NYX045")
        tree = module.tree
        if tree is None:
            return
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                self.classes.append(_scan_class(module, node))
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if (isinstance(target, ast.Name)
                            and not _is_dunder(target.id)
                            and _is_mutable_value(node.value)):
                        self.globals[target.id] = node.lineno
            elif isinstance(node, ast.AnnAssign):
                if (isinstance(node.target, ast.Name)
                        and not _is_dunder(node.target.id)
                        and node.value is not None
                        and _is_mutable_value(node.value)):
                    self.globals[node.target.id] = node.lineno
        if self.globals:
            self._find_global_mutations(tree)

    def _find_global_mutations(self, tree: ast.Module) -> None:
        tracked = set(self.globals)

        def visit(node: ast.AST, shadowed: Set[str]) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                shadowed = shadowed | _locally_bound(node)
            for line, name in _name_mutations(node, tracked - shadowed):
                self.global_mutations.append((line, name))
            for child in ast.iter_child_nodes(node):
                visit(child, shadowed)

        for stmt in tree.body:
            visit(stmt, set())
        self.global_mutations.sort()


def _locally_bound(node) -> Set[str]:
    """Names a function scope binds (params, assignments, loop
    targets) and therefore hides from the module scope — unless
    declared ``global``."""
    bound: Set[str] = set()
    arg_nodes = (node.args.posonlyargs + node.args.args
                 + node.args.kwonlyargs)
    bound.update(a.arg for a in arg_nodes)
    if node.args.vararg:
        bound.add(node.args.vararg.arg)
    if node.args.kwarg:
        bound.add(node.args.kwarg.arg)
    declared_global: Set[str] = set()

    def binding_names(target: ast.AST):
        # Only genuine *bindings* shadow the module scope.  A
        # ``cache[k] = v`` / ``cache.field = v`` target mutates the
        # module-level container, it does not rebind the name.
        if isinstance(target, ast.Name):
            yield target.id
        elif isinstance(target, ast.Starred):
            yield from binding_names(target.value)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                yield from binding_names(elt)

    for inner in ast.walk(node):
        if isinstance(inner, ast.Global):
            declared_global.update(inner.names)
        elif isinstance(inner, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (inner.targets if isinstance(inner, ast.Assign)
                       else [inner.target])
            for target in targets:
                bound.update(binding_names(target))
        elif isinstance(inner, ast.For):
            bound.update(binding_names(inner.target))
    return bound - declared_global


def _name_mutations(node: ast.AST, names: Set[str]):
    """Mutation events (``x[k]=``, ``x.append()``, ``x += ...``) on
    bare names in ``names``, for this one node (no recursion)."""
    def base_name(expr: ast.AST) -> Optional[str]:
        while isinstance(expr, (ast.Attribute, ast.Subscript)):
            expr = expr.value
        return expr.id if isinstance(expr, ast.Name) else None

    if not names:
        return
    if isinstance(node, ast.Assign):
        for target in node.targets:
            if isinstance(target, (ast.Subscript, ast.Attribute)):
                name = base_name(target)
                if name in names:
                    yield target.lineno, name
    elif isinstance(node, ast.AugAssign):
        if isinstance(node.target, (ast.Subscript, ast.Attribute)):
            name = base_name(node.target)
            if name in names:
                yield node.target.lineno, name
    elif isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in MUTATING_METHODS:
            name = base_name(func.value)
            if name in names:
                yield node.lineno, name


def _suppressed(record: ClassRecord, lines: Sequence[str], lineno: int,
                code: str) -> bool:
    tokens = _allow_tokens(lines, lineno) | record.allow_tokens
    return FAMILY_TOKEN in tokens or code in tokens


def _class_diags(record: ClassRecord, filename: str,
                 lines: Sequence[str]) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    for line, name in record.class_containers:
        if _suppressed(record, lines, line, "NYX042"):
            continue
        diags.append(Diagnostic(
            "NYX042",
            "%s.%s is a class-level mutable container: shared across "
            "instances and untouched by any snapshot reset"
            % (record.name, name), file=filename, line=line))
    if FAMILY_TOKEN in record.allow_tokens or record.memory_marked:
        return diags
    for attr in record.leaking_attrs():
        mut_line, mut_method = attr.mutations[0]
        where = "%s() line %d" % (mut_method, mut_line)
        if record.reset_methods:
            code = "NYX043"
            message = ("%s.%s is mutated per-exec (%s) but %s() never "
                       "resets it; state leaks across snapshot resets"
                       % (record.name, attr.name, where,
                          "/".join(sorted(set(record.reset_methods)))))
            fixable = True
        elif record.restore_hooks:
            code = "NYX044"
            message = ("%s.%s is mutated (%s) and survives %s; hook "
                       "classes must restore or justify their state"
                       % (record.name, attr.name, where,
                          "/".join(sorted(set(record.restore_hooks)))))
            fixable = False
        else:
            code = "NYX040"
            message = ("%s.%s is mutated (%s) but the class has no "
                       "reset/restore method and no snapshot coverage"
                       % (record.name, attr.name, where))
            fixable = True
        anchor = attr.anchor_line or record.line
        if _suppressed(record, lines, anchor, code):
            continue
        diags.append(Diagnostic(code, message, file=filename, line=anchor,
                                fixable=fixable))
    return diags


def analyze_reset_source(filename: str, text: str) -> List[Diagnostic]:
    """Reset-safety lint of one module's source."""
    return _module_diags(_ModuleScan(Module(filename, text)))


def _module_diags(scan: _ModuleScan) -> List[Diagnostic]:
    filename = scan.filename
    if scan.parse_error is not None:
        return [scan.parse_error]
    diags: List[Diagnostic] = []
    mutated_globals = {name for _line, name in scan.global_mutations}
    for name in sorted(scan.globals):
        line = scan.globals[name]
        if name.isupper() and name not in mutated_globals:
            continue  # unmutated ALL_CAPS container: a constant
        if FAMILY_TOKEN in _allow_tokens(scan.lines, line) \
                or "NYX041" in _allow_tokens(scan.lines, line):
            continue
        detail = ("mutated at line %d"
                  % min(l for l, n in scan.global_mutations if n == name)
                  if name in mutated_globals else "a module-global cache")
        diags.append(Diagnostic(
            "NYX041",
            "module-global mutable container %r (%s) survives every "
            "snapshot reset" % (name, detail), file=filename, line=line))
    for record in scan.classes:
        diags.extend(_class_diags(record, filename, scan.lines))
    diags.sort(key=lambda d: (d.line or 0, d.code))
    return diags


def _tree_scans(root: Root) -> List[_ModuleScan]:
    tree = source_tree(root)
    paths = tree.paths()
    dirs = [d for d in SCAN_DIRS if (tree.root / d).is_dir()]
    if dirs:
        paths = [p for d in dirs for p in paths
                 if p.relative_to(tree.root).parts[0] == d]
    scans = [_ModuleScan(tree.module(path)) for path in paths]
    tree.done()
    return scans


def analyze_reset_tree(root: Root) -> List[Diagnostic]:
    """Lint ``vm/``, ``guestos/``, ``emu/`` and ``faults/`` under
    ``root`` (or, for fixture trees without those packages, every
    ``.py`` file under ``root``)."""
    diags: List[Diagnostic] = []
    for scan in _tree_scans(root):
        diags.extend(_module_diags(scan))
    return diags


# ---------------------------------------------------------------------------
# fix-it stubs
# ---------------------------------------------------------------------------

def _default_expr(attr: AttrRecord) -> str:
    if attr.init_value is None:
        return "...  # TODO: no __init__ default recorded"
    try:
        return ast.unparse(attr.init_value)
    except Exception:  # pragma: no cover - exotic nodes
        return "...  # TODO: unprintable default"


def fixit_stubs(filename: str, text: str) -> Dict[str, str]:
    """Reset-assignment stubs for every leaking class, keyed by class.

    For a class that already has a reset method the stub lists the
    assignments to add to it; otherwise it is a complete
    ``reset_for_test`` method re-applying the ``__init__`` defaults.
    Defaults referencing ``__init__`` arguments need hand-editing.
    """
    return _scan_stubs(_ModuleScan(Module(filename, text)))


def _scan_stubs(scan: _ModuleScan) -> Dict[str, str]:
    stubs: Dict[str, str] = {}
    for record in scan.classes:
        diags = _class_diags(record, scan.filename, scan.lines)
        leaking = {d.line for d in diags
                   if d.code in ("NYX040", "NYX043", "NYX044")}
        attrs = [a for a in record.leaking_attrs()
                 if (a.anchor_line or record.line) in leaking]
        if not attrs:
            continue
        body = ["        self.%s = %s" % (a.name, _default_expr(a))
                for a in attrs]
        if record.reset_methods:
            header = ["    # add to %s.%s():"
                      % (record.name, record.reset_methods[0])]
        else:
            header = ["    def reset_for_test(self) -> None:",
                      '        """Re-initialise per-exec state '
                      '(generated stub)."""']
        stubs[record.name] = "\n".join(header + body) + "\n"
    return stubs


def tree_fixit_stubs(root: Root) -> Dict[str, str]:
    """Fix-it stubs for every leaking class under ``root``, keyed
    ``<path>::<Class>``."""
    stubs: Dict[str, str] = {}
    for scan in _tree_scans(root):
        for cls, stub in sorted(_scan_stubs(scan).items()):
            stubs["%s::%s" % (scan.filename, cls)] = stub
    return stubs


# ---------------------------------------------------------------------------
# shared registry for the runtime sanitizer
# ---------------------------------------------------------------------------

def allowed_reset_attrs(root: Root) -> Set[Tuple[str, str]]:
    """``(class, attr)`` pairs suppressed with ``# nyx: allow[...]``.

    The runtime sanitizer skips exactly these when digesting the
    object graph, so static suppressions and runtime expectations stay
    one registry.  A class-line allow yields ``(Class, "*")``.
    """
    allowed: Set[Tuple[str, str]] = set()
    for scan in _tree_scans(root):
        for record in scan.classes:
            if record.allow_tokens:
                allowed.add((record.name, "*"))
            for attr in record.attrs.values():
                anchor = attr.anchor_line
                if anchor and _allow_tokens(scan.lines, anchor):
                    allowed.add((record.name, attr.name))
    return allowed
