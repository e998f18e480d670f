"""Test-case execution inside the VM.

The executor interprets input bytecode op by op, driving the
interceptor (connections, packets, EOF), the guest scheduler and the
snapshot machinery:

* ``run_full`` executes an input from the top, optionally capturing a
  snapshot chain node after each chosen packet (the policy's picks, or
  explicit ``snapshot`` marker ops in the input): the first node is the
  paper's incremental snapshot, chain layer 1, and each later one
  stacks a layer on it;
* ``run_suffix`` re-executes only the ops after a node's snapshot point
  against that node — the §3.4 fast path;
* after every execution the VM is reset to the chain node it descends
  from (or the root), with the reset cost charged to the simulated
  clock.

**Prefix-trace elision.**  Execution here is deterministic: replaying
the same op prefix from the same snapshot produces the same site
stream, byte for byte.  The executor exploits that to stop paying the
tracer for work a previous execution already recorded:

* every traced from-root run records per-op *boundary marks* into its
  packed site stream (a :class:`TraceRecording`); the fuzzer registers
  recordings for corpus entries via :meth:`NyxExecutor.remember_trace`;
* when a mutated child shares an op prefix with its parent's
  recording, that prefix replays with the tracer suspended and
  :meth:`~repro.coverage.tracer.TracerCore.take_trace` is seeded with
  the recorded prefix fold instead — the combined trace is
  byte-identical to a fully-traced run (pinned by the differential
  and property suites);
* suffix runs from a node placed by a ``snapshot`` marker op elide the
  unmutated sub-prefix after the snapshot point the same way, against
  the snapshot-capture run's recording held in :class:`_SuffixState`
  — so the fold is cached once per snapshot generation and replaced
  with the snapshot (placement moves and ``finish_snapshot_cycle``
  drop it with the state).  Suffix runs from a *policy-placed* node
  never elide: the capture charged the sim clock at the chain's first
  point, so the recording's ``charge_index`` is at or before the
  node's resume index and :meth:`NyxExecutor._plan_elision` finds
  nothing to replay;
* recordings are invalidated wholesale whenever snapshot state is in
  doubt — a corrupted restore (heal/rebuild) or degradation to
  root-only — and elision disarms entirely while a fault injector is
  active (injected faults make replays non-deterministic).

Targets with non-network vocabularies (e.g. Super Mario's button
frames) register extra op handlers.
"""

from __future__ import annotations

import copy
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.coverage.tracer import SITE_BYTES, TracerCore
from repro.emu.interceptor import Interceptor
from repro.fuzz.input import FuzzInput
from repro.guestos.errors import CrashReport, GuestError
from repro.guestos.kernel import Kernel
from repro.vm.machine import Machine
from repro.vm.snapshot import SnapshotCorruption

#: Handler signature: (executor, op, resolved connection id) -> None.
OpHandler = Callable[["NyxExecutor", object, Optional[int]], None]

#: Parent recordings kept per executor (LRU) for from-root elision.
RECORDING_CACHE_LIMIT = 128


@dataclass
class TraceRecording:
    """Replayable trace of one from-root execution.

    ``marks[i]`` is the site-stream position just before op ``i``
    executed; one final mark is appended where the op loop exited, so
    ``len(marks) - 1`` ops have known boundaries.  ``packed`` is the
    full packed stream (including the post-loop drain), ``ijon_marks``
    the cumulative IJON counts at each boundary (None where empty).
    All fields are treated as immutable once ``packed`` is set.
    """

    ops: Tuple
    marks: List[int] = field(default_factory=list)
    ijon_marks: List[Optional[Dict[int, int]]] = field(default_factory=list)
    packed: Optional[bytes] = None
    final_ijon: Optional[Dict[int, int]] = None
    #: True when the recorded run executed every op without crash,
    #: timeout or max-ops clamping — required for whole-run reuse.
    complete: bool = False
    #: Boundary index where a *policy-chosen* snapshot charged the sim
    #: clock mid-run (None: no such charge).  A replay without that
    #: charge may lawfully diverge afterwards, so elision against this
    #: recording stops here.  Marker-op snapshots need no clamp — they
    #: fire identically in every run of the same ops.
    charge_index: Optional[int] = None


@dataclass
class ExecResult:
    """Outcome of one test-case execution."""

    trace: Dict[int, int] = field(default_factory=dict)
    crash: Optional[CrashReport] = None
    exec_time: float = 0.0
    ops_executed: int = 0
    packets_sent: int = 0
    #: Packets the target actually read (recv'd) during the run —
    #: inputs that kill or stall the target stop consuming early.
    packets_consumed: int = 0
    #: True when the run only replayed a suffix from a chain node.
    suffix_run: bool = False
    #: True when the watchdog stopped the run: the target exceeded its
    #: per-exec simulated-time budget (the paper's timeout class).
    timed_out: bool = False
    #: Boundary-marked trace of this run (from-root traced runs only);
    #: the fuzzer hands it to :meth:`NyxExecutor.remember_trace` when
    #: the input joins the corpus.
    recording: Optional[TraceRecording] = None


@dataclass
class _SuffixState:
    """Captured host-side interceptor state at a chain node's snapshot
    point (the op before ``resume_index``)."""

    resume_index: int
    conns: Dict
    sid_to_conn: Dict
    values_produced: int
    #: The input whose prefix produced the snapshot — enough to rebuild
    #: the chain from the root if a restore finds it corrupted.
    base_input: Optional[FuzzInput] = None
    #: The capture run's trace recording: the per-snapshot-generation
    #: fold cache that suffix runs from a marker-op node elide their
    #: unmutated sub-prefix against.  For a policy-placed node its
    #: ``charge_index`` is at or before ``resume_index``, so suffix runs
    #: from it elide nothing and are traced in full.  Lives and dies
    #: with this state, so placement moves and rebuilds can never serve
    #: a stale fold (None after an untraced rebuild replay: elision
    #: simply stays off until the next capture).
    capture_rec: Optional[TraceRecording] = None


class NyxExecutor:
    """Executes inputs against one target VM."""

    def __init__(self, machine: Machine, kernel: Kernel,
                 interceptor: Interceptor, tracer: Optional[TracerCore] = None,
                 max_ops: int = 512,
                 exec_timeout: Optional[float] = None,
                 max_snapshot_rebuilds: int = 3,
                 trace_elision: bool = True,
                 max_chain_depth: int = 1) -> None:
        self.machine = machine
        self.kernel = kernel
        self.interceptor = interceptor
        self.tracer = tracer
        self.max_ops = max_ops
        #: Deepest snapshot chain this executor will stack (1 = the
        #: paper's single incremental snapshot; markers and multi-point
        #: placements only stack layers when this allows it).
        self.max_chain_depth = max_chain_depth
        #: Watchdog budget: simulated seconds one execution may burn
        #: before it is stopped and classified as a timeout.  ``None``
        #: disables the watchdog (trusted targets).
        self.exec_timeout = exec_timeout
        #: Consecutive corrupted-restore rebuilds tolerated before the
        #: executor degrades to root-only execution.
        self.max_snapshot_rebuilds = max_snapshot_rebuilds
        #: Master switch for prefix-trace elision (tests compare
        #: elided vs fully-traced executions through this).
        self.trace_elision = trace_elision
        self.execs = 0
        #: Snapshot chains rebuilt from the root after a restore found
        #: them corrupted (self-healing).
        self.snapshot_rebuilds = 0
        #: Bottom of the degradation ladder: snapshot chains kept
        #: failing validation, so every run now starts from the root.
        self.degraded_root_only = False
        #: Host-side elision counters (stamped into CampaignStats).
        #: Outside stats_checksum by design; resume recounts from 0.
        self.prefix_elisions = 0  # nyx: state[ephemeral]
        self.prefix_elided_ops = 0  # nyx: state[ephemeral]
        self.elision_invalidations = 0  # nyx: state[ephemeral]
        self._rebuild_failures = 0
        #: Chain nodes, shallow to deep; node ``i`` is chain depth
        #: ``i + 1``.
        self._chain_nodes: List[_SuffixState] = []
        self._recordings: "OrderedDict[int, TraceRecording]" = OrderedDict()
        self.recording_cache_limit = RECORDING_CACHE_LIMIT
        self._rec_in_progress: Optional[TraceRecording] = None
        self.op_handlers: Dict[str, OpHandler] = {
            "connection": _handle_connection,
            "packet": _handle_packet,
            "shutdown": _handle_shutdown,
        }
        if tracer is not None:
            kernel.coverage = tracer

    # ------------------------------------------------------------------
    # public entry points
    # ------------------------------------------------------------------

    def run_full(self, input_: FuzzInput,  # nyx: hot
                 snapshot_after_packet: Optional[int] = None,
                 parent_key: Optional[int] = None,
                 snapshot_after_packets: Optional[List[int]] = None
                 ) -> ExecResult:
        """Execute the whole input from the active snapshot (root).

        ``snapshot_after_packet`` is a 0-based position into the
        input's packet list; chain layer 1 (the paper's incremental
        snapshot) is captured right after that packet is consumed, and
        subsequent ``run_suffix`` calls replay only the remainder.
        ``snapshot_after_packets`` generalizes it to an ascending list
        of positions, one chain node each (a one-element list is the
        scalar form).

        ``parent_key`` names a recording registered through
        :meth:`remember_trace`; any op prefix the input shares with it
        replays with the tracer elided.
        """
        self.discard_chain()
        if not snapshot_after_packets and snapshot_after_packet is not None:
            snapshot_after_packets = [snapshot_after_packet]
        snapshot_op_index = None
        later_ops: List[int] = []
        if snapshot_after_packets:
            packets = input_.packet_indices()
            points = sorted({packets[pos] for pos in snapshot_after_packets
                             if 0 <= pos < len(packets)})
            points = points[:self.max_chain_depth]
            if points:
                snapshot_op_index = points[0]
                later_ops = points[1:]
        parent_rec = None
        if parent_key is not None:
            parent_rec = self._recordings.get(parent_key)
            if parent_rec is not None:
                self._recordings.move_to_end(parent_key)
        return self._run(input_, start=0, snapshot_op_index=snapshot_op_index,
                         later_snapshot_ops=later_ops,
                         parent_rec=parent_rec, record=True)

    def run_suffix(self, input_: FuzzInput,  # nyx: hot
                   depth: Optional[int] = None) -> ExecResult:
        """Execute only the ops after a chain node's snapshot point.

        ``depth`` picks the chain node to resume from (1 = the paper's
        incremental snapshot; default: the deepest node).  The executor
        then upgrades to the *deepest* node at or above ``depth`` whose
        op prefix the input still matches — resuming closer to the
        mutation site executes strictly fewer ops for the same result.
        Switching nodes between runs costs one chain restore; staying
        on the previous node costs nothing extra.

        Self-healing: if the last reset found a snapshot layer
        corrupted (each validates its CoW pages by checksum), the
        prefix is replayed from the root to rebuild the whole chain.
        After ``max_snapshot_rebuilds`` consecutive failures the
        executor degrades to root-only execution instead of thrashing.
        """
        nodes = self._chain_nodes
        if not nodes:
            raise RuntimeError("no incremental snapshot to fuzz from")
        if not self.degraded_root_only:
            self._heal_chain()
            nodes = self._chain_nodes
        if self.degraded_root_only or not nodes:
            # Bottom of the ladder: run the whole input from the root.
            return self._run(input_, start=0, snapshot_op_index=None)
        if depth is None or depth > len(nodes):
            depth = len(nodes)
        elif depth < 1:
            depth = 1
        depth = self._deepest_matching(input_, depth)
        state = nodes[depth - 1]
        if self.machine.snapshots.base_depth != depth:
            # Hop to the requested node; the next end-of-run reset then
            # returns here for free (it restores the current base).
            try:
                self.machine.restore_to_depth(depth)
            except SnapshotCorruption:
                # A layer failed validation mid-hop: the manager tore
                # the whole chain down.  Fall back to the trustworthy
                # root and re-enter the heal/rebuild/degrade ladder,
                # exactly like a corrupted end-of-run reset.
                self.machine.snapshot_corruptions += 1
                self.machine.restore_root()
                return self.run_suffix(input_, depth=depth)
        # Rebind the interceptor's host-side view of the guest sockets
        # exactly as it was at the snapshot point.  Suffix runs skip
        # reset_for_test (the snapshot point is mid-test), so stale
        # surface sockets from the previous suffix run are pruned here.
        self.interceptor._conns = copy.deepcopy(state.conns)
        self.interceptor._sid_to_conn = dict(state.sid_to_conn)
        self.interceptor.reset_stale_surface()
        result = self._run(input_, start=state.resume_index,
                           snapshot_op_index=None,
                           values_preassigned=state.values_produced,
                           parent_rec=state.capture_rec)
        result.suffix_run = True
        return result

    def _deepest_matching(self, input_: FuzzInput, depth: int) -> int:
        """Deepest chain depth >= ``depth`` whose captured op prefix the
        input still matches (mutations past a node's snapshot point
        leave its prefix valid)."""
        nodes = self._chain_nodes
        ops = input_.ops
        n_ops = len(ops)
        for i in range(len(nodes) - 1, depth - 1, -1):
            node = nodes[i]
            base = node.base_input
            resume = node.resume_index
            if base is None or n_ops < resume:
                continue
            base_ops = base.ops
            match = True
            for k in range(resume):
                a = ops[k]
                b = base_ops[k]
                if a is not b and a != b:
                    match = False
                    break
            if match:
                return i + 1
        return depth

    # ------------------------------------------------------------------
    # trace recordings (prefix elision)
    # ------------------------------------------------------------------

    def remember_trace(self, key: int, result: ExecResult,
                       replace: bool = True) -> bool:
        """Register a run's recording for future prefix elision.

        The fuzzer calls this when an input joins the corpus, keyed by
        its entry id; children mutated from that entry then pass the
        key to :meth:`run_full`.  LRU-bounded.  ``replace=False`` keeps
        an existing recording (e.g. an unclamped discovery-run
        recording beats a charge-clamped capture-run one).
        """
        rec = result.recording
        if rec is None or rec.packed is None:
            return False
        recordings = self._recordings
        if not replace and key in recordings:
            recordings.move_to_end(key)
            return False
        recordings[key] = rec
        recordings.move_to_end(key)
        while len(recordings) > self.recording_cache_limit:
            recordings.popitem(last=False)
        return True

    def invalidate_trace_recordings(self) -> None:
        """Drop every cached fold: snapshot state is in doubt.

        Called on the heal/rebuild/degrade paths — a corrupted restore
        means *something* misbehaved, and a cheap full invalidation
        beats reasoning about which recordings could have been
        affected.
        """
        self._recordings.clear()
        for node in self._chain_nodes:
            node.capture_rec = None
        self.elision_invalidations += 1

    # ------------------------------------------------------------------
    # durability (checkpoint/resume)
    # ------------------------------------------------------------------

    def durable_state(self) -> dict:
        """Resumable executor state (see :mod:`repro.fuzz.journal`).

        Only the counters that shape future behaviour travel: the exec
        count, the degradation ladder (rebuild failures decide when the
        executor falls back to root-only execution) and the snapshot
        manager's sim-charge cursors.  The trace-recording cache and
        suffix state are host-side caches, empty at every step boundary
        or rebuilt on demand, and never cross a checkpoint.
        """
        return {"execs": self.execs,
                "snapshot_rebuilds": self.snapshot_rebuilds,
                "degraded_root_only": self.degraded_root_only,
                "rebuild_failures": self._rebuild_failures,
                "snapshots": self.machine.snapshots.snapshot_state()}

    def restore_durable_state(self, state: dict) -> None:
        """Adopt a checkpointed executor state (inverse of
        :meth:`durable_state`)."""
        self.execs = int(state["execs"])
        self.snapshot_rebuilds = int(state["snapshot_rebuilds"])
        self.degraded_root_only = bool(state["degraded_root_only"])
        self._rebuild_failures = int(state["rebuild_failures"])
        self.machine.snapshots.restore_state(state["snapshots"])
        self._chain_nodes = []
        self._recordings.clear()
        self._rec_in_progress = None

    def _elision_blocked(self) -> bool:
        """Elision disarms while fault injection is active: injected
        faults fire on deterministic schedules of their *own*, so a
        replayed prefix may diverge from its recording."""
        if not self.trace_elision or self.tracer is None:
            return True
        if getattr(self.interceptor, "injector", None) is not None:
            return True
        if getattr(self.machine.snapshots, "injector", None) is not None:
            return True
        return False

    def _plan_elision(self, ops, start: int, end: int,
                      rec: TraceRecording) -> Optional[Tuple[int, bool]]:
        """How far the input's ops match the recording.

        Returns ``(resume_index, whole_run)``: the prefix
        ``ops[start:resume_index]`` is byte-covered by the recording.
        ``whole_run`` means the entire execution (including the
        post-loop drain) is covered, so the tracer never resumes.
        """
        if rec.packed is None:
            return None
        rec_ops = rec.ops
        limit = min(end, len(rec_ops), len(rec.marks) - 1)
        if rec.charge_index is not None:
            limit = min(limit, rec.charge_index)
        k = start
        while k < limit:
            a = ops[k]
            b = rec_ops[k]
            if a is not b and a != b:
                break
            k += 1
        if k <= start:
            return None
        whole = (k == end == len(ops) and len(ops) == len(rec_ops)
                 and rec.complete and rec.charge_index is None)
        return k, whole

    def _elide_resume(self, rec: TraceRecording, start: int,
                      until: Optional[int]) -> None:
        """Seed the tracer with the recorded fold for ``[start, until)``
        (``until=None``: through the end of the recorded stream)."""
        marks = rec.marks
        lo = marks[start]
        if until is None:
            prefix = rec.packed[lo * SITE_BYTES:]
            ijon_at = rec.final_ijon
            elided = len(rec.ops) - start
        else:
            prefix = rec.packed[lo * SITE_BYTES:marks[until] * SITE_BYTES]
            ijon_at = rec.ijon_marks[until]
            elided = until - start
        ijon_seed = ijon_at
        if ijon_at and start > 0:
            base = rec.ijon_marks[start]
            if base:
                ijon_seed = {edge: count - base.get(edge, 0)
                             for edge, count in ijon_at.items()
                             if count - base.get(edge, 0) > 0}
        self.tracer.elide_resume(prefix, ijon_seed)
        self.prefix_elisions += 1
        self.prefix_elided_ops += elided

    def _heal_chain(self) -> None:
        """Ensure a valid snapshot chain exists, rebuilding from the
        root as often as the rebuild budget allows.

        The replay re-creates every node's snapshot point (a corrupt
        layer tears down the whole chain, so rebuilds always start from
        nothing).  A replay that stops early hands the next attempt the
        points it did capture, or only the deepest point when it
        captured none.
        """
        snapshots = self.machine.snapshots
        state = self._chain_nodes[-1]
        invalidated = False
        while not snapshots.chain_depth:
            if not invalidated:
                invalidated = True
                self.invalidate_trace_recordings()
            self._rebuild_failures += 1
            if (self._rebuild_failures > self.max_snapshot_rebuilds
                    or state.base_input is None):
                self.degraded_root_only = True
                return
            self.snapshot_rebuilds += 1
            points = ([node.resume_index - 1 for node in self._chain_nodes]
                      or [state.resume_index - 1])
            self._chain_nodes = []
            # Replay exactly the prefix that produced the chain; the
            # trailing reset restores the fresh deepest node (or
            # corrupts it again, in which case we loop).  The replay's
            # trace is discarded, so it runs untraced.
            self._run(state.base_input, start=0,
                      snapshot_op_index=points[0],
                      later_snapshot_ops=points[1:],
                      stop_index=state.resume_index, traced=False)
        self._rebuild_failures = 0

    # ------------------------------------------------------------------
    # core interpreter
    # ------------------------------------------------------------------

    def _run(self, input_: FuzzInput, start: int,  # nyx: hot
             snapshot_op_index: Optional[int],
             values_preassigned: int = 0,
             stop_index: Optional[int] = None,
             parent_rec: Optional[TraceRecording] = None,
             record: bool = False,
             traced: bool = True,
             later_snapshot_ops: Optional[List[int]] = None) -> ExecResult:
        machine = self.machine
        kernel = self.kernel
        result = ExecResult()
        t0 = machine.clock.now
        deadline = None
        if self.exec_timeout is not None:
            # Watchdog: the budget binds the guest scheduler too, so a
            # stalled target stops mid-kernel.run instead of spinning
            # its rounds out.
            deadline = t0 + self.exec_timeout
            kernel.watchdog = lambda: machine.clock.now >= deadline
        packets_before = self.interceptor.stats_packets
        tracer = self.tracer if traced else None
        if tracer is not None:
            tracer.begin()
        elif self.tracer is not None:
            # Untraced replay (snapshot rebuild): the trace is
            # discarded, so never pay collection.  begin() un-suspends.
            self.tracer.begin()
            self.tracer.elide_suspend()
        ops = input_.ops
        end = min(len(ops), start + self.max_ops)
        if stop_index is not None:
            end = min(end, stop_index)
        # Prefix-trace elision: execute the recorded prefix with the
        # tracer suspended, then seed its fold back in at the resume
        # boundary.  Execution itself (state, sim clock, crashes) is
        # unaffected — only collection is skipped.
        elide_until: Optional[int] = None
        elide_whole = False
        suspended = False
        if (tracer is not None and parent_rec is not None
                and stop_index is None and not self._elision_blocked()):
            # A policy-chosen snapshot charges the sim clock mid-run
            # (the recording's run had no such charge), so behavior
            # past the snapshot point may lawfully diverge: elide at
            # most up to and including the snapshot op, never the
            # whole run.
            plan_end = end
            if snapshot_op_index is not None:
                plan_end = min(plan_end, snapshot_op_index + 1)
            plan = self._plan_elision(ops, start, plan_end, parent_rec)
            if plan is not None:
                elide_until, elide_whole = plan
                if snapshot_op_index is not None:
                    elide_whole = False
                tracer.elide_suspend()
                suspended = True
        rec: Optional[TraceRecording] = None
        if record and tracer is not None and start == 0 and stop_index is None:
            rec = TraceRecording(ops=tuple(ops))
        self._rec_in_progress = rec
        if start == 0:
            self.interceptor.reset_for_test()
        later_points = list(later_snapshot_ops) if later_snapshot_ops else []
        took_first_point = False
        values = values_preassigned
        spec_nodes = self.op_handlers
        reached = start
        for index in range(start, end):
            if rec is not None:
                if suspended:
                    rec.marks.append(parent_rec.marks[index])
                    rec.ijon_marks.append(parent_rec.ijon_marks[index])
                else:
                    rec.marks.append(tracer.stream_pos()
                                     + tracer.prefix_site_count)
                    rec.ijon_marks.append(tracer.ijon_snapshot())
            if suspended and not elide_whole and index == elide_until:
                self._elide_resume(parent_rec, start, index)
                suspended = False
            op = ops[index]
            if op.is_snapshot_marker():
                snapshots = machine.snapshots
                stack = (self.max_chain_depth > 1
                         and len(self._chain_nodes) > 0
                         and 0 < snapshots.base_depth == snapshots.chain_depth)
                if stack and snapshots.chain_depth >= self.max_chain_depth:
                    # Chain-enabled marker past the depth cap: fold the
                    # deepest layer first so the chain stays bounded.
                    snapshots.commit_overlay()
                    self._chain_nodes.pop(-2)
                self._capture_node(input_, index + 1, values, stack)
                reached = index + 1
                continue
            handler = spec_nodes.get(op.node)
            if handler is not None:
                conn = op.refs[0] if op.refs else None
                # Per-op fault isolation is the contract: one bad op
                # must not abort the rest of the test case, so the
                # handler genuinely needs its own except scope.
                try:  # nyx: allow[NYX074]
                    handler(self, op, conn)
                except (GuestError, KeyError, ValueError):
                    # Ill-formed mutation (bad conn ref, closed conn):
                    # the op is a no-op, like a packet to a dead socket.
                    pass
            values += _outputs_of(op)
            result.ops_executed += 1
            if op.node == "packet":
                result.packets_sent += 1
            kernel.run()
            reached = index + 1
            if kernel.crash_reports:
                break
            if deadline is not None and machine.clock.now >= deadline:
                result.timed_out = True
                break
            if snapshot_op_index is not None and index == snapshot_op_index:
                # The first placement point starts a fresh chain; each
                # later one stacks a layer on it.
                self._capture_node(input_, index + 1, values,
                                   took_first_point)
                if not took_first_point:
                    took_first_point = True
                    if rec is not None:
                        rec.charge_index = index + 1
                snapshot_op_index = (later_points.pop(0) if later_points
                                     else None)
        if rec is not None:
            # Final boundary: where the op loop exited.
            if suspended:
                rec.marks.append(parent_rec.marks[reached])
                rec.ijon_marks.append(parent_rec.ijon_marks[reached])
            else:
                rec.marks.append(tracer.stream_pos()
                                 + tracer.prefix_site_count)
                rec.ijon_marks.append(tracer.ijon_snapshot())
        if suspended and not elide_whole:
            # The loop broke (crash/timeout — deterministically mirrored
            # from the recording) before the planned resume boundary:
            # seed what was covered and trace the drain live.
            self._elide_resume(parent_rec, start, reached)
            suspended = False
        if not result.timed_out:
            # Let the target finish pending work (responses, cleanup).
            kernel.run()
        kernel.watchdog = None
        if kernel.crash_reports:
            result.crash = kernel.crash_reports[0]
            kernel.crash_reports.clear()
        if suspended:
            # Whole-run elision: the recording covers the drain too.
            self._elide_resume(parent_rec, start, None)
            suspended = False
        if tracer is not None:
            result.trace = tracer.take_trace()
            if rec is not None:
                rec.packed = tracer.last_packed
                rec.final_ijon = tracer.ijon_snapshot()
                rec.complete = (reached == end == len(ops)
                                and result.crash is None
                                and not result.timed_out)
                result.recording = rec
        self._rec_in_progress = None
        result.exec_time = machine.clock.now - t0
        result.packets_consumed = (self.interceptor.stats_packets
                                   - packets_before)
        self.execs += 1
        # Reset for the next test: the state churn of this execution is
        # what the reset pays for.  (A timed-out or fault-ridden run is
        # wiped away exactly like any other — that is the whole point
        # of snapshot fuzzing.)
        kernel.flush_to_memory()
        machine.reset_for_next_test()
        return result

    def _capture_node(self, input_: FuzzInput, resume_index: int,
                      values: int, stack: bool) -> None:
        """Snapshot the current position as a chain node: a layer
        stacked on the chain when ``stack`` is true, else a fresh
        layer 1 replacing the whole chain."""
        self.kernel.flush_to_memory()
        if stack:
            self.machine.push_overlay()
        else:
            self.machine.create_incremental()
            self._chain_nodes = []
        self._chain_nodes.append(_SuffixState(
            resume_index=resume_index,
            conns=copy.deepcopy(self.interceptor._conns),
            sid_to_conn=dict(self.interceptor._sid_to_conn),
            values_produced=values,
            base_input=input_.copy(),
            capture_rec=self._rec_in_progress,
        ))

    @property
    def chain_node_count(self) -> int:
        """Live chain nodes available to resume from."""
        return len(self._chain_nodes)

    def chain_resume_index(self, depth: int) -> Optional[int]:
        """Op index suffix runs from node ``depth`` resume at."""
        if 1 <= depth <= len(self._chain_nodes):
            return self._chain_nodes[depth - 1].resume_index
        return None

    def discard_chain(self) -> None:
        """Drop every chain node, executor and snapshot-manager side."""
        self._chain_nodes = []
        self.machine.snapshots.discard_chain()

    def finish_snapshot_cycle(self) -> None:  # nyx: hot
        """Discard the snapshot chain and return to the root
        ("as soon as Nyx-Net wants to schedule another input, the
        incremental snapshot is discarded", §3.4)."""
        self.discard_chain()
        self.kernel.flush_to_memory()
        self.machine.restore_root()


def _outputs_of(op) -> int:
    """Connections produced by an op (default spec: connection=1)."""
    return 1 if op.node == "connection" else 0


# ----------------------------------------------------------------------
# default op handlers (the generic network spec)
# ----------------------------------------------------------------------


def _handle_connection(executor: NyxExecutor, op, conn: Optional[int]) -> None:
    # The new connection's id is the index of the value it produces,
    # which equals the number of connections opened so far this test.
    conn_id = len(executor.interceptor._conns)
    executor.interceptor.open_connection(conn_id)


def _handle_packet(executor: NyxExecutor, op, conn: Optional[int]) -> None:
    payload = op.args[0] if op.args else b""
    executor.interceptor.queue_packet(conn or 0, bytes(payload))


def _handle_shutdown(executor: NyxExecutor, op, conn: Optional[int]) -> None:
    executor.interceptor.close_connection(conn or 0)
