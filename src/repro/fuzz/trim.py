"""Input trimming and corpus distillation.

Two classic corpus-hygiene tools adapted to packet-structured inputs:

* :func:`trim_input` — afl-tmin style: drop packets (and shrink
  payloads) while the input's coverage signature is preserved.
  Shorter inputs replay faster and give snapshot placement fewer,
  more meaningful positions.
* :func:`distill_corpus` — afl-cmin style: greedy set cover selecting
  a minimal subset of inputs that together retain every edge the
  corpus reaches.  Useful before persisting a corpus as seeds.

Both drive real executions through a :class:`NyxExecutor`, so they
charge simulated time like any other fuzzing work.  Before spending
any executions, :func:`trim_input` runs the static analyzer's dead-op
elimination and marker normalization as a pre-pass (one verification
execution for the whole reduction, instead of one per op) and reports
statically- vs execution-eliminated ops separately in
:class:`~repro.fuzz.stats.CampaignStats`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.coverage.bitmap import BUCKET_LOOKUP
from repro.fuzz.executor import NyxExecutor
from repro.fuzz.input import FuzzInput
from repro.fuzz.stats import CampaignStats
from repro.spec.bytecode import normalize_markers, validate
from repro.spec.nodes import Spec, SpecError, default_network_spec


def _signature(trace: Dict[int, int], counts: bool = False) -> int:
    """Order-independent hash of a trace.

    By default the *edge set* is hashed: the edge tracer's hit counts
    shift with every replayed packet, so count-sensitive
    trimming (afl-tmin's exact rule) would refuse nearly all removals.
    Pass ``counts=True`` for the strict classified-count signature.
    """
    if not counts:
        return hash(frozenset(trace))
    lookup = BUCKET_LOOKUP
    total = 0
    for idx, count in trace.items():
        total ^= hash((idx, lookup[count if count < 256 else 255]))
    return total


def static_reduce(spec: Spec, input_: FuzzInput) -> Tuple[FuzzInput, int]:
    """Dead-op elimination + marker normalization, no executions.

    Returns ``(reduced copy, ops removed)``.  Inputs that do not
    validate against ``spec`` (foreign vocabulary, mid-mutation damage)
    are returned unchanged — the static pass only ever operates on
    sequences whose types it fully understands.
    """
    try:
        validate(spec, input_.ops)
    except SpecError:
        return input_, 0
    from repro.analysis.fixes import eliminate_dead_ops
    reduced, removed = eliminate_dead_ops(spec, input_.ops)
    normalized = normalize_markers(reduced)
    removed += len(reduced) - len(normalized)
    if not removed:
        return input_, 0
    candidate = FuzzInput(normalized, origin=input_.origin,
                          parent_id=input_.parent_id)
    return candidate, removed


def _run_from_root(executor: NyxExecutor, input_: FuzzInput):
    """``executor.run_full`` from the root snapshot.

    An input with snapshot markers leaves the machine parked on its
    incremental snapshot, and the next ``run_full`` would start from
    there; comparing signatures is only sound between runs that start
    from the same state.
    """
    executor.finish_snapshot_cycle()
    return executor.run_full(input_)


def trim_input(executor: NyxExecutor, input_: FuzzInput,
               shrink_payloads: bool = True,
               max_execs: int = 64,
               spec: Optional[Spec] = None,
               stats: Optional[CampaignStats] = None) -> Tuple[FuzzInput, int]:
    """Shrink an input while preserving its coverage signature.

    Returns (trimmed input, executions spent).  The result is always
    signature-equivalent to the original.
    """
    baseline = _run_from_root(executor, input_)
    target_sig = _signature(baseline.trace)
    execs = 1
    current = input_.copy()

    # Pass 0: static dead-op elimination and marker normalization.
    # One execution verifies the whole reduction; if even a "dead"
    # op turns out to matter to the signature (opening a connection
    # can touch target accept paths), the reduction is discarded.
    candidate, removed = static_reduce(spec or default_network_spec(),
                                       current)
    if removed and execs < max_execs:
        result = _run_from_root(executor, candidate)
        execs += 1
        if _signature(result.trace) == target_sig:
            current = candidate
            if stats is not None:
                stats.trim_ops_static += removed
    ops_before_exec_passes = len(current.ops)

    # Pass 1: drop packets back to front (later packets depend on
    # earlier state, not vice versa).
    changed = True
    while changed and execs < max_execs:
        changed = False
        for index in reversed(current.packet_indices()):
            if len(current.packet_indices()) <= 1 or execs >= max_execs:
                break
            candidate = current.copy()
            del candidate.ops[index]
            result = _run_from_root(executor, candidate)
            execs += 1
            if _signature(result.trace) == target_sig:
                current = candidate
                changed = True

    # Pass 2: halve payloads while the signature holds.
    if shrink_payloads:
        for index in current.packet_indices():
            payload = current.payload_of(index)
            while len(payload) > 1 and execs < max_execs:
                candidate = current.copy()
                candidate.with_payload(index, payload[:len(payload) // 2])
                result = _run_from_root(executor, candidate)
                execs += 1
                if _signature(result.trace) != target_sig:
                    break
                current = candidate
                payload = current.payload_of(index)

    if stats is not None:
        stats.trim_ops_exec += ops_before_exec_passes - len(current.ops)
    current.origin = "trimmed"
    return current, execs


def distill_corpus(executor: NyxExecutor,
                   inputs: Sequence[FuzzInput]) -> List[FuzzInput]:
    """Greedy set cover: the smallest subset retaining all edges.

    Inputs are ranked by (edges contributed, then smaller first), the
    classic afl-cmin strategy.
    """
    traced: List[Tuple[FuzzInput, frozenset]] = []
    for input_ in inputs:
        result = _run_from_root(executor, input_)
        traced.append((input_, frozenset(result.trace)))

    universe = set()
    for _input, edges in traced:
        universe |= edges
    chosen: List[FuzzInput] = []
    covered: set = set()
    remaining = list(traced)
    while covered != universe and remaining:
        remaining.sort(key=lambda pair: (-len(pair[1] - covered),
                                         pair[0].total_payload_bytes()))
        best_input, best_edges = remaining.pop(0)
        gain = best_edges - covered
        if not gain:
            break
        chosen.append(best_input)
        covered |= best_edges
    return chosen
