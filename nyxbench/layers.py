"""Which public methods each layer is traced through, and the
per-layer metrics reduced from the recorded spans.

A layer is a module of ``repro``.  Its methods are wrapped on the live
objects one workload builds (see :class:`spans.SpanRecorder`); nothing
inside the program changes.  Self time is a span's duration minus the
part its child spans cover, so the layers' self times plus the residual
add up to the measured wall time.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Tuple

from spans import SpanRecorder, self_times

#: (layer, object getter, public methods).  The getter receives the
#: campaign handles and the durable wrapper (None off ``http-root``).
FUZZ_LAYERS: Tuple[Tuple[str, Callable, Tuple[str, ...]], ...] = (
    ("fuzz.fuzzer", lambda h, d: h.fuzzer, ("step",)),
    ("fuzz.mutators", lambda h, d: h.fuzzer.mutator, ("mutate",)),
    ("fuzz.queue", lambda h, d: h.fuzzer.corpus,
     ("next_entry", "add", "splice_donor")),
    ("fuzz.policies", lambda h, d: h.fuzzer.policy,
     ("choose", "choose_chain", "pick_arm", "feedback", "arm_feedback")),
    ("fuzz.executor", lambda h, d: h.executor,
     ("run_full", "run_suffix", "finish_snapshot_cycle")),
    ("guestos.kernel", lambda h, d: h.kernel, ("run", "flush_to_memory")),
    ("emu.interceptor", lambda h, d: h.interceptor,
     ("open_connection", "queue_packet", "close_connection",
      "reset_for_test", "reset_stale_surface")),
    ("vm.snapshot", lambda h, d: h.machine,
     ("reset_for_next_test", "restore_root", "restore_incremental",
      "restore_to_depth", "create_incremental", "push_overlay")),
    ("vm.snapshot", lambda h, d: h.machine.snapshots, ("commit_overlay",)),
    ("coverage.tracer", lambda h, d: h.executor.tracer, ("take_trace",)),
    ("coverage.bitmap", lambda h, d: h.fuzzer.coverage, ("has_new_bits",)),
    ("fuzz.journal", lambda h, d: d, ("save_checkpoint",)),
    ("fuzz.journal", lambda h, d: d and d.journal, ("append",)),
)

EXEC_SPANS = ("fuzz.executor.run_full", "fuzz.executor.run_suffix")
RESTORE_SPANS = ("vm.snapshot.reset_for_next_test", "vm.snapshot.restore_root",
                 "vm.snapshot.restore_incremental",
                 "vm.snapshot.restore_to_depth")
CAPTURE_SPANS = ("vm.snapshot.create_incremental", "vm.snapshot.push_overlay",
                 "vm.snapshot.commit_overlay")

#: Analysis families: module, public entry point, metric family name.
ANALYSIS_FAMILIES = (
    ("repro.analysis.speclint", "analyze_spec", "spec"),
    ("repro.analysis.selflint", "analyze_source_tree", "self"),
    ("repro.analysis.resetlint", "analyze_reset_tree", "reset"),
    ("repro.analysis.durlint", "analyze_durability_tree", "durability"),
    ("repro.analysis.hotlint", "analyze_hot_tree", "hot"),
)

FUZZ_LAYER_NAMES = tuple(dict.fromkeys(layer for layer, _, _ in FUZZ_LAYERS))

#: Every per-layer metric and its unit, in the order they are printed.
#: Metrics of layers a workload does not exercise read 0.
PER_LAYER_UNITS: Dict[str, str] = {}
for _layer in FUZZ_LAYER_NAMES:
    PER_LAYER_UNITS[_layer + ".self_us_per_exec"] = "us"
    PER_LAYER_UNITS[_layer + ".self_share"] = "ratio"
PER_LAYER_UNITS.update({
    "vm.snapshot.restore_us_per_exec": "us",
    "vm.snapshot.pages_reset_per_restore": "pages",
    "vm.snapshot.capture_us_per_cycle": "us",
    "vm.snapshot.pages_captured_per_capture": "pages",
    "vm.snapshot.remirrors": "count",
    "guestos.kernel.run_us_per_exec": "us",
    "guestos.kernel.flush_us_per_exec": "us",
    "guestos.kernel.runs_per_exec": "count",
    "coverage.tracer.fold_us_per_exec": "us",
    "fuzz.executor.elided_op_share": "ratio",
    "fuzz.executor.ops_per_exec": "count",
    "fuzz.executor.suffix_share": "ratio",
    "coverage.bitmap.novelty_ratio": "ratio",
    "emu.interceptor.packets_per_exec": "count",
    "fuzz.policies.arm_pulls": "count",
    "fuzz.journal.self_us_per_step": "us",
    "fuzz.journal.checkpoint_ms": "ms",
    "fuzz.journal.bytes_written": "bytes",
    "fuzz.journal.appends": "count",
})
for _module, _func, _family in ANALYSIS_FAMILIES:
    PER_LAYER_UNITS["analysis.%s.self_s" % _family] = "s"
PER_LAYER_UNITS.update({
    "analysis.ast_parse.self_s": "s",
    "analysis.ast_parse.calls": "count",
    "analysis.files_parsed": "count",
    "analysis.parse_redundancy": "ratio",
    "residual_share": "ratio",
    "trace_overhead": "ratio",
})


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _snapshot_counters(handles) -> Dict[str, int]:
    counters = dict(handles.machine.stats())
    counters["prefix_elided_ops"] = handles.executor.prefix_elided_ops
    return counters


class _Reduced:
    """Per-name and per-layer sums over one recorder's spans."""

    def __init__(self, rec: SpanRecorder) -> None:
        selfs = self_times(rec.start, rec.end, rec.parent)
        names = rec.names
        layers = rec.layers
        self.count: Dict[str, int] = {}
        self.total: Dict[str, float] = {}
        self.outer: Dict[str, float] = {}
        self.layer_self: Dict[str, float] = {}
        self.top = 0.0
        for i, nid in enumerate(rec.name_id):
            name = names[nid]
            dur = rec.end[i] - rec.start[i]
            parent = rec.parent[i]
            self.count[name] = self.count.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + dur
            layer = layers[nid]
            self.layer_self[layer] = self.layer_self.get(layer, 0.0) + selfs[i]
            if parent < 0:
                self.top += dur
            if parent < 0 or layers[rec.name_id[parent]] != layer:
                # Outermost span of its layer: its time is counted once
                # even when the layer calls itself (reset -> restore).
                self.outer[name] = self.outer.get(name, 0.0) + dur

    def summed(self, table: Dict[str, float], names) -> float:
        return sum(table.get(name, 0.0) for name in names)


class FuzzTrace:
    """Wraps every fuzz layer of one campaign and reduces its spans."""

    def __init__(self, handles, durable=None) -> None:
        self.handles = handles
        self.durable = durable
        self.rec = SpanRecorder(exec_names=EXEC_SPANS)
        self.ops = 0
        self.novel = 0
        self.bitmap_calls = 0
        self.checkpoint_bytes = 0
        self._before = _snapshot_counters(handles)
        self._journal_start = self._journal_size()
        counters = {"run_full": self._count_ops,
                    "run_suffix": self._count_ops,
                    "has_new_bits": self._count_novelty,
                    "save_checkpoint": self._count_checkpoint}
        for layer, getter, methods in FUZZ_LAYERS:
            obj = getter(handles, durable)
            if obj is None:
                continue
            for method in methods:
                self.rec.wrap(obj, method, layer,
                              on_result=counters.get(method))

    def _count_ops(self, result) -> None:
        self.ops += result.ops_executed

    def _count_novelty(self, verdict) -> None:
        self.bitmap_calls += 1
        if verdict:
            self.novel += 1

    def _journal_size(self) -> int:
        if self.durable is None:
            return 0
        return os.path.getsize(self.durable.journal.path)

    def _count_checkpoint(self, epoch) -> None:
        path = self.durable.checkpoints._path(epoch)
        self.checkpoint_bytes += os.path.getsize(path)

    def metrics(self, wall: float, execs: int) -> Dict[str, float]:
        """Per-layer metrics over a window of ``wall`` s and ``execs``."""
        red = _Reduced(self.rec)
        after = _snapshot_counters(self.handles)
        delta = {key: after[key] - self._before[key] for key in after}
        us = 1e6
        out: Dict[str, float] = {}
        for layer in FUZZ_LAYER_NAMES:
            spent = red.layer_self.get(layer, 0.0)
            out[layer + ".self_us_per_exec"] = _ratio(spent * us, execs)
            out[layer + ".self_share"] = _ratio(spent, wall)
        restores = (delta["root_restores"] + delta["incremental_restores"]
                    + delta["chain_restores"])
        captures = delta["incremental_creates"] + delta["overlay_pushes"]
        count = red.count.get
        full = count("fuzz.executor.run_full", 0)
        suffix = count("fuzz.executor.run_suffix", 0)
        steps = count("fuzz.fuzzer.step", 0)
        checkpoints = count("fuzz.journal.save_checkpoint", 0)
        journal_bytes = self._journal_size() - self._journal_start
        out.update({
            "vm.snapshot.restore_us_per_exec":
                _ratio(red.summed(red.outer, RESTORE_SPANS) * us, execs),
            "vm.snapshot.pages_reset_per_restore":
                _ratio(delta["pages_reset"], restores),
            "vm.snapshot.capture_us_per_cycle":
                _ratio(red.summed(red.outer, CAPTURE_SPANS) * us,
                       count("vm.snapshot.create_incremental", 0)),
            "vm.snapshot.pages_captured_per_capture":
                _ratio(delta["pages_captured"], captures),
            "vm.snapshot.remirrors": delta["remirrors"],
            "guestos.kernel.run_us_per_exec":
                _ratio(red.total.get("guestos.kernel.run", 0.0) * us, execs),
            "guestos.kernel.flush_us_per_exec":
                _ratio(red.total.get("guestos.kernel.flush_to_memory", 0.0)
                       * us, execs),
            "guestos.kernel.runs_per_exec":
                _ratio(count("guestos.kernel.run", 0), execs),
            "coverage.tracer.fold_us_per_exec":
                _ratio(red.total.get("coverage.tracer.take_trace", 0.0) * us,
                       execs),
            "fuzz.executor.elided_op_share":
                _ratio(delta["prefix_elided_ops"], self.ops),
            "fuzz.executor.ops_per_exec": _ratio(self.ops, full + suffix),
            "fuzz.executor.suffix_share": _ratio(suffix, full + suffix),
            "coverage.bitmap.novelty_ratio":
                _ratio(self.novel, self.bitmap_calls),
            "emu.interceptor.packets_per_exec":
                _ratio(count("emu.interceptor.queue_packet", 0), execs),
            "fuzz.policies.arm_pulls": count("fuzz.policies.pick_arm", 0),
            "fuzz.journal.self_us_per_step":
                _ratio(red.layer_self.get("fuzz.journal", 0.0) * us, steps),
            "fuzz.journal.checkpoint_ms":
                _ratio(red.total.get("fuzz.journal.save_checkpoint", 0.0)
                       * 1e3, checkpoints),
            "fuzz.journal.bytes_written": journal_bytes + self.checkpoint_bytes,
            "fuzz.journal.appends": count("fuzz.journal.append", 0),
            "residual_share": 1.0 - _ratio(red.top, wall),
        })
        return out


class AnalysisTrace:
    """Wraps the analysis families and ``ast.parse`` for one pass."""

    def __init__(self) -> None:
        import ast
        import importlib
        self.rec = SpanRecorder()
        self.files = set()
        for module_name, func, family in ANALYSIS_FAMILIES:
            self.rec.wrap(importlib.import_module(module_name), func,
                          "analysis.%s" % family)
        self.rec.wrap(ast, "parse", "analysis.ast_parse",
                      before=self._note_file)

    def _note_file(self, source, filename="<unknown>", *args, **kwargs):
        self.files.add(filename if filename != "<unknown>" else hash(source))

    def metrics(self, wall: float) -> Dict[str, float]:
        red = _Reduced(self.rec)
        calls = red.count.get("analysis.ast_parse.parse", 0)
        out: Dict[str, float] = {}
        for _module, _func, family in ANALYSIS_FAMILIES:
            out["analysis.%s.self_s" % family] = red.layer_self.get(
                "analysis." + family, 0.0)
        out.update({
            "analysis.ast_parse.self_s": red.layer_self.get(
                "analysis.ast_parse", 0.0),
            "analysis.ast_parse.calls": calls,
            "analysis.files_parsed": len(self.files),
            "analysis.parse_redundancy": _ratio(calls, len(self.files)),
            "residual_share": 1.0 - _ratio(red.top, wall),
        })
        return out
