"""Durability lint (NYX06x): state-capture completeness analysis.

PR 7 made campaigns durable: every class on the checkpoint path
exposes a ``snapshot_state``/``restore_state`` pair (the executor's
``durable_state``/``restore_durable_state``) whose pickled output is
what crosses process death.  Nothing checked those pairs for
completeness — one new mutable attribute that never travels silently
breaks bit-identical resume, the drift StateAFL-style state inference
(PAPERS.md) shows is fatal and SnapFuzz avoids by making capture a
*checked* invariant.  This pass is the static half of that check (the
runtime half is :mod:`repro.analysis.statediff`):

* **NYX060** — a mutable attribute (reusing :mod:`.resetlint`'s
  per-class mutable-state registry) is mutated after ``__init__`` but
  is neither read by the snapshot method nor re-initialised by the
  restore method;
* **NYX061** — snapshot/restore asymmetry: a key is captured but the
  restore method never reads it, or restored but never captured;
* **NYX062** — the capture set changed against the committed
  state-inventory golden (``tests/golden/state_inventory.json``)
  without a ``STATE_FORMAT`` bump;
* **NYX063** — a non-deterministically-serializable leaf: a ``set``
  (or ``id()``) reaches the pickled state, so two snapshots of equal
  state can differ byte-wise;
* **NYX064** — a journal frame kind is appended without a matching
  entry in the ``FRAME_KINDS`` resume/salvage registry.

Deliberate exclusions are annotated inline: ``# nyx: state[ephemeral]``
on the attribute's defining line marks host-side state that is
*rebuilt, re-armed or recounted* on resume by design (caches, perf
counters, the sanitizer hook), and ``# nyx: allow[NYX06x]`` /
``# nyx: allow[NYX060]`` / ``# nyx: allow[state]`` suppress the whole
family or one rule, on the finding line or the ``class`` line.  Every
suppression should carry a justification comment.
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import Diagnostic, has_marker
from repro.analysis.model import Module, Root, SourceTree, source_tree
from repro.analysis.resetlint import (ClassRecord, _allow_tokens,
                                      _default_expr, _is_direct_self_attr,
                                      _MethodScan, _scan_class)

#: snapshot-method name -> its restore counterpart.
STATE_PAIRS: Dict[str, str] = {
    "snapshot_state": "restore_state",
    "durable_state": "restore_durable_state",
}
#: Family token accepted by ``# nyx: allow[...]``; ``NYX06x`` is the
#: spelled-out family alias.
FAMILY_TOKEN = "state"
FAMILY_ALIAS = "NYX06x"
#: Golden inventory location, relative to the analyzed tree's
#: grandparent (the checkout holding ``src/<package>``).
GOLDEN_INVENTORY = pathlib.Path("tests") / "golden" / "state_inventory.json"

def _ephemeral_marked(lines: Sequence[str], lineno: int) -> bool:
    return has_marker(lines, lineno, "state[ephemeral]")


def _suppressed(record: _DurClass, lines: Sequence[str], lineno: int,
                code: str) -> bool:
    tokens = _allow_tokens(lines, lineno) | record.allow_tokens
    return bool(tokens & {FAMILY_TOKEN, FAMILY_ALIAS, code})


# ---------------------------------------------------------------------------
# per-class capture scan (layered on resetlint's registry)
# ---------------------------------------------------------------------------

def _self_reads(node: ast.AST, self_name: str) -> Set[str]:
    """Every ``self.X`` attribute mentioned anywhere under ``node``."""
    reads: Set[str] = set()
    for inner in ast.walk(node):
        direct = _is_direct_self_attr(inner, self_name)
        if direct is not None:
            reads.add(direct)
    return reads


def _str_keys(expr: ast.AST, names: Optional[Set[str]]):
    """``(line, key)`` for ``name["key"]`` subscripts and
    ``name.get("key")`` calls under ``expr``; ``names=None`` accepts
    any receiver name."""
    for node in ast.walk(expr):
        if (isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name)
                and (names is None or node.value.id in names)):
            sl = node.slice
            if isinstance(sl, ast.Constant) and isinstance(sl.value, str):
                yield node.lineno, sl.value
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "get"
              and isinstance(node.func.value, ast.Name)
              and (names is None or node.func.value.id in names)
              and node.args
              and isinstance(node.args[0], ast.Constant)
              and isinstance(node.args[0].value, str)):
            yield node.lineno, node.args[0].value


def _nondet_line(expr: ast.AST) -> Optional[int]:
    """Line of the first non-deterministically-serializable construct
    under ``expr`` (set literals/comps, ``set()``/``frozenset()``,
    ``id()``), or ``None``.  A top-level ``sorted(...)`` normalizes its
    argument, so the whole expression is clean."""
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Name) and func.id == "sorted":
            return None
    for node in ast.walk(expr):
        if isinstance(node, (ast.Set, ast.SetComp)):
            return node.lineno
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None)
            if name in ("set", "frozenset", "id"):
                return node.lineno
    return None


@dataclass
class _DurClass:
    """Capture-completeness view of one class with a state pair."""

    record: ClassRecord
    #: snapshot-method name -> method node (only pairs present).
    snapshots: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    restores: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    #: ``self.X`` attrs any snapshot method reads.
    snapshot_reads: Set[str] = field(default_factory=set)
    #: attrs any restore method writes or mutates in place.
    restore_handled: Set[str] = field(default_factory=set)
    #: key -> (line, value expr) from the snapshot dict literal(s);
    #: ``None`` when no snapshot method returns a direct dict literal.
    captured: Optional[Dict[str, Tuple[int, ast.AST]]] = None
    #: keys read off the restore method's state parameter.
    restored_keys: Dict[str, int] = field(default_factory=dict)
    #: keys read off *any* name inside restore (nested sub-dicts).
    consumed_keys: Set[str] = field(default_factory=set)
    #: class-body ``STATE_FORMAT = <int>`` value.
    state_format: Optional[int] = None

    @property
    def allow_tokens(self) -> Set[str]:
        return self.record.allow_tokens

    def pair_names(self) -> str:
        names = sorted(set(self.snapshots) | {STATE_PAIRS[s] for s in
                                              self.snapshots})
        return "/".join(names) if names else "restore"


def _scan_dur_class(module: Module, node: ast.ClassDef
                    ) -> Optional[_DurClass]:
    dur = _DurClass(record=_scan_class(module, node))
    restore_names = {v: k for k, v in STATE_PAIRS.items()}
    for stmt in node.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if (isinstance(target, ast.Name)
                        and target.id == "STATE_FORMAT"
                        and isinstance(stmt.value, ast.Constant)
                        and isinstance(stmt.value.value, int)):
                    dur.state_format = stmt.value.value
        if not isinstance(stmt, ast.FunctionDef):
            continue
        args = stmt.args.posonlyargs + stmt.args.args
        if not args:
            continue
        self_name = args[0].arg
        if stmt.name in STATE_PAIRS:
            dur.snapshots[stmt.name] = stmt
            dur.snapshot_reads |= _self_reads(stmt, self_name)
            for inner in ast.walk(stmt):
                if (isinstance(inner, ast.Return)
                        and isinstance(inner.value, ast.Dict)):
                    if dur.captured is None:
                        dur.captured = {}
                    for key, value in zip(inner.value.keys,
                                          inner.value.values):
                        if (isinstance(key, ast.Constant)
                                and isinstance(key.value, str)):
                            dur.captured.setdefault(
                                key.value, (key.lineno, value))
        elif stmt.name in restore_names:
            dur.restores[stmt.name] = stmt
            scan = _MethodScan(self_name)
            for inner in stmt.body:
                scan.visit(inner)
            dur.restore_handled |= {name for _l, name, _v in scan.writes}
            dur.restore_handled |= {name for _l, name in scan.mutations}
            state_param = {args[1].arg} if len(args) > 1 else set()
            for line, key in _str_keys(stmt, state_param):
                dur.restored_keys.setdefault(key, line)
            dur.consumed_keys |= {k for _l, k in _str_keys(stmt, None)}
    if not dur.snapshots and not dur.restores:
        return None
    return dur


# ---------------------------------------------------------------------------
# per-class diagnostics
# ---------------------------------------------------------------------------

def _class_diags(dur: _DurClass, filename: str,
                 lines: Sequence[str]) -> List[Diagnostic]:
    record = dur.record
    diags: List[Diagnostic] = []
    if _suppressed(dur, lines, record.line, "NYX060"):
        pass
    elif dur.snapshots:
        # NYX060: mutated attribute that neither travels through the
        # snapshot nor is re-initialised by the restore.
        for name in sorted(record.attrs):
            attr = record.attrs[name]
            if not attr.mutations:
                continue
            if name in dur.snapshot_reads or name in dur.restore_handled:
                continue
            anchor = attr.anchor_line or record.line
            if _ephemeral_marked(lines, anchor):
                continue
            if _suppressed(dur, lines, anchor, "NYX060"):
                continue
            mut_line, mut_method = attr.mutations[0]
            diags.append(Diagnostic(
                "NYX060",
                "%s.%s is mutated (%s() line %d) but %s never captures "
                "or restores it; resumed campaigns silently diverge"
                % (record.name, name, mut_method, mut_line,
                   dur.pair_names()),
                file=filename, line=anchor, fixable=True))
    # NYX061: capture/restore key asymmetry.
    if dur.captured is not None:
        if not dur.restores:
            for key in sorted(dur.captured):
                line = dur.captured[key][0]
                if _suppressed(dur, lines, line, "NYX061"):
                    continue
                diags.append(Diagnostic(
                    "NYX061",
                    "%s captures key %r but the class has no restore "
                    "method" % (record.name, key),
                    file=filename, line=line))
        else:
            for key in sorted(dur.captured):
                if key in dur.consumed_keys:
                    continue
                line = dur.captured[key][0]
                if _suppressed(dur, lines, line, "NYX061"):
                    continue
                diags.append(Diagnostic(
                    "NYX061",
                    "%s.%s captures key %r but %s never reads it"
                    % (record.name, "/".join(sorted(dur.snapshots)), key,
                       "/".join(sorted(dur.restores)) + "()"),
                    file=filename, line=line))
    for key in sorted(dur.restored_keys):
        if dur.captured is not None and key in dur.captured:
            continue
        if dur.captured is None and dur.snapshots:
            continue  # opaque snapshot body: nothing to compare against
        line = dur.restored_keys[key]
        if _suppressed(dur, lines, line, "NYX061"):
            continue
        what = ("%s() never captures it"
                % "/".join(sorted(dur.snapshots)) if dur.snapshots
                else "the class has no snapshot method")
        diags.append(Diagnostic(
            "NYX061",
            "%s.%s reads key %r but %s"
            % (record.name, "/".join(sorted(dur.restores)), key, what),
            file=filename, line=line))
    # NYX063: non-deterministic serialization leaves.
    if dur.captured is not None:
        for key in sorted(dur.captured):
            line, value = dur.captured[key]
            bad_line = _nondet_line(value)
            if bad_line is None:
                direct = None
                for stmt in dur.snapshots.values():
                    args = stmt.args.posonlyargs + stmt.args.args
                    direct = _is_direct_self_attr(value, args[0].arg)
                    if direct is not None:
                        break
                if direct is not None:
                    attr = record.attrs.get(direct)
                    if (attr is not None and attr.init_value is not None
                            and _nondet_line(attr.init_value) is not None):
                        bad_line = value.lineno
            if bad_line is None:
                continue
            if _suppressed(dur, lines, bad_line, "NYX063"):
                continue
            diags.append(Diagnostic(
                "NYX063",
                "%s snapshot key %r serializes a set (iteration order "
                "varies across processes); capture sorted(...) instead"
                % (record.name, key),
                file=filename, line=bad_line, fixable=True))
    return diags


# ---------------------------------------------------------------------------
# journal frame-kind registry audit (NYX064)
# ---------------------------------------------------------------------------

def _journal_appends(tree: ast.Module) -> List[Tuple[int, str]]:
    """``(line, kind)`` of every ``<journal>.append("kind", body, ...)``
    call: an append with >= 2 args, a string-constant first arg and a
    receiver chain naming a journal."""
    appends: List[Tuple[int, str]] = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "append"
                and len(node.args) >= 2
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)):
            continue
        chain: List[str] = []
        receiver = node.func.value
        while isinstance(receiver, ast.Attribute):
            chain.append(receiver.attr)
            receiver = receiver.value
        if isinstance(receiver, ast.Name):
            chain.append(receiver.id)
        if any("journal" in part.lower() for part in chain):
            appends.append((node.lineno, node.args[0].value))
    return appends


def _frame_kind_registry(tree: ast.Module) -> Optional[Set[str]]:
    """Keys of a module-level ``FRAME_KINDS = {...}`` dict literal
    (plain or annotated assignment)."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if (isinstance(target, ast.Name)
                    and target.id == "FRAME_KINDS"
                    and isinstance(node.value, ast.Dict)):
                return {k.value for k in node.value.keys
                        if isinstance(k, ast.Constant)
                        and isinstance(k.value, str)}
    return None


# ---------------------------------------------------------------------------
# module / tree entry points
# ---------------------------------------------------------------------------

class _ModuleScan:
    """Everything durlint learned about one module."""

    def __init__(self, module: Module) -> None:
        self.filename = module.filename
        self.lines = module.lines
        self.classes: List[_DurClass] = []
        self.appends: List[Tuple[int, str]] = []
        self.frame_kinds: Optional[Set[str]] = None
        self.module_state_format: Optional[int] = None
        self.parse_error = module.parse_error(
            "NYX045", "; durability cannot be audited")
        tree = module.tree
        if tree is None:
            return
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                dur = _scan_dur_class(module, node)
                if dur is not None:
                    self.classes.append(dur)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if (isinstance(target, ast.Name)
                            and target.id == "STATE_FORMAT"
                            and isinstance(node.value, ast.Constant)
                            and isinstance(node.value.value, int)):
                        self.module_state_format = node.value.value
        self.appends = _journal_appends(tree)
        self.frame_kinds = _frame_kind_registry(tree)


def _append_diags(scan: _ModuleScan,
                  handled: Optional[Set[str]]) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    for line, kind in scan.appends:
        if handled is not None and kind in handled:
            continue
        tokens = _allow_tokens(scan.lines, line)
        if tokens & {FAMILY_TOKEN, FAMILY_ALIAS, "NYX064"}:
            continue
        detail = ("is not registered in FRAME_KINDS" if handled is not None
                  else "has no FRAME_KINDS registry to declare its "
                       "resume/salvage handling")
        diags.append(Diagnostic(
            "NYX064",
            "journal frame kind %r %s; resume would drop or choke on it"
            % (kind, detail), file=scan.filename, line=line))
    return diags


def analyze_durability_source(filename: str, text: str,
                              handled_kinds: Optional[Set[str]] = None
                              ) -> List[Diagnostic]:
    """Durability lint of one module's source.

    ``handled_kinds`` is the cross-module union of ``FRAME_KINDS``
    registries; without one, the module's own registry (if any) is
    used, and appends with no registry in sight are all flagged.
    """
    scan = _ModuleScan(Module(filename, text))
    if scan.parse_error is not None:
        return [scan.parse_error]
    diags: List[Diagnostic] = []
    for dur in scan.classes:
        diags.extend(_class_diags(dur, filename, scan.lines))
    handled = handled_kinds if handled_kinds is not None else scan.frame_kinds
    diags.extend(_append_diags(scan, handled))
    diags.sort(key=lambda d: (d.line or 0, d.code))
    return diags


def _tree_scans(tree: SourceTree) -> List[_ModuleScan]:
    scans = [_ModuleScan(tree.module(path)) for path in tree.paths()]
    tree.done()
    return scans


def _inventory(tree: SourceTree, scans: Sequence[_ModuleScan]
               ) -> Dict[str, Dict[str, object]]:
    inventory: Dict[str, Dict[str, object]] = {}
    for scan in scans:
        module = pathlib.Path(scan.filename).relative_to(tree.root)
        for dur in scan.classes:
            if dur.captured is None:
                continue
            fmt = dur.state_format
            if fmt is None:
                fmt = scan.module_state_format
            inventory[dur.record.name] = {
                "module": module.as_posix(),
                "keys": sorted(dur.captured),
                "state_format": fmt,
            }
    return inventory


def state_inventory(root: Root) -> Dict[str, Dict[str, object]]:
    """Capture-set inventory of every stateful class under ``root``.

    ``{Class: {"module": relpath, "keys": sorted snapshot keys,
    "state_format": int | None}}`` — the structure committed to
    ``tests/golden/state_inventory.json`` and diffed by NYX062.
    """
    tree = source_tree(root)
    return _inventory(tree, _tree_scans(tree))


def _load_golden(root: pathlib.Path,
                 golden: Optional[str]) -> Tuple[Optional[dict],
                                                 Optional[str]]:
    """``golden``, else the tree's own (never one under the cwd)."""
    if golden is not None:
        path = pathlib.Path(golden)
    else:
        path = pathlib.Path(os.path.normpath(
            os.path.join(root, os.pardir, os.pardir))) / GOLDEN_INVENTORY
    if path.is_file():
        return json.loads(path.read_text(encoding="utf-8")), str(path)
    return None, None


def _golden_diags(current: Dict[str, Dict[str, object]],
                  golden_path: Optional[str],
                  golden: dict) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    for name in sorted(set(current) | set(golden)):
        if name not in golden:
            diags.append(Diagnostic(
                "NYX062",
                "new stateful class %s (%s) is missing from the state "
                "inventory golden; regenerate %s"
                % (name, current[name]["module"], golden_path),
                file=str(current[name]["module"]), fixable=True))
            continue
        if name not in current:
            diags.append(Diagnostic(
                "NYX062",
                "class %s is in the state inventory golden but no longer "
                "in the tree; regenerate %s" % (name, golden_path),
                file=golden_path, fixable=True))
            continue
        want = golden[name]
        have = current[name]
        if list(want.get("keys", [])) == list(have["keys"]):
            continue
        added = sorted(set(have["keys"]) - set(want.get("keys", [])))
        removed = sorted(set(want.get("keys", [])) - set(have["keys"]))
        delta = "; ".join(
            part for part in
            ("adds %s" % ", ".join(map(repr, added)) if added else "",
             "drops %s" % ", ".join(map(repr, removed)) if removed else "")
            if part)
        if have["state_format"] == want.get("state_format"):
            diags.append(Diagnostic(
                "NYX062",
                "%s capture set changed (%s) without a STATE_FORMAT bump "
                "(still %r): old checkpoints would restore into the new "
                "layout" % (name, delta, have["state_format"]),
                file=str(have["module"])))
        else:
            diags.append(Diagnostic(
                "NYX062",
                "%s capture set changed (%s) and STATE_FORMAT was bumped "
                "(%r -> %r); regenerate the stale golden %s"
                % (name, delta, want.get("state_format"),
                   have["state_format"], golden_path),
                file=str(have["module"]), fixable=True))
    return diags


def analyze_durability_tree(root: Root,
                            golden: Optional[str] = None
                            ) -> List[Diagnostic]:
    """Durability lint of every module under ``root`` plus the NYX062
    golden-inventory diff (skipped when no golden exists yet)."""
    tree = source_tree(root)
    scans = _tree_scans(tree)
    handled: Optional[Set[str]] = None
    for scan in scans:
        if scan.frame_kinds is not None:
            handled = (handled or set()) | scan.frame_kinds
    diags: List[Diagnostic] = []
    for scan in scans:
        if scan.parse_error is not None:
            diags.append(scan.parse_error)
            continue
        for dur in scan.classes:
            diags.extend(_class_diags(dur, scan.filename, scan.lines))
        diags.extend(_append_diags(scan, handled))
    golden_data, golden_path = _load_golden(tree.root, golden)
    if golden_data is not None:
        diags.extend(_golden_diags(_inventory(tree, scans), golden_path,
                                   golden_data))
    diags.sort(key=lambda d: (d.file or "", d.line or 0, d.code))
    return diags


# ---------------------------------------------------------------------------
# fix-it stubs
# ---------------------------------------------------------------------------

def durability_fixit_stubs(root: Root) -> Dict[str, str]:
    """Capture/restore stubs for every NYX060 finding, keyed
    ``<path>::<Class>``.  Defaults referencing ``__init__`` arguments
    need hand-editing; attributes that are resume-ephemeral by design
    should get ``# nyx: state[ephemeral]`` instead."""
    stubs: Dict[str, str] = {}
    for scan in _tree_scans(source_tree(root)):
        for dur in scan.classes:
            missing = [d for d in _class_diags(dur, scan.filename,
                                               scan.lines)
                       if d.code == "NYX060"]
            if not missing or not dur.snapshots:
                continue
            record = dur.record
            anchors = {d.line for d in missing}
            attrs = [record.attrs[n] for n in sorted(record.attrs)
                     if (record.attrs[n].anchor_line or record.line)
                     in anchors and record.attrs[n].mutations]
            if not attrs:
                continue
            snap = sorted(dur.snapshots)[0]
            restore = STATE_PAIRS[snap]
            lines = ["    # add to %s.%s() dict:" % (record.name, snap)]
            lines += ['        "%s": self.%s,' % (a.name, a.name)
                      for a in attrs]
            lines += ["    # add to %s.%s():" % (record.name, restore)]
            lines += ['        self.%s = state["%s"]  # default: %s'
                      % (a.name, a.name, _default_expr(a)) for a in attrs]
            stubs["%s::%s" % (scan.filename, record.name)] = (
                "\n".join(lines) + "\n")
    return stubs
