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

Every execution, a snapshot rebuild's replay included, is traced the
same way: the tracer's site stream is cleared when the run starts and
folded into the run's trace when it ends.

Targets with non-network vocabularies (e.g. Super Mario's button
frames) register extra op handlers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.coverage.tracer import TracerCore
from repro.emu.interceptor import Interceptor, clone_conns
from repro.fuzz.input import FuzzInput
from repro.guestos.errors import CrashReport, GuestError
from repro.guestos.kernel import Kernel
from repro.vm.machine import Machine
from repro.vm.snapshot import SnapshotCorruption

#: Handler signature: (executor, op, resolved connection id) -> None.
OpHandler = Callable[["NyxExecutor", object, Optional[int]], None]


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


class NyxExecutor:
    """Executes inputs against one target VM."""

    #: Always 0; nyxbench's traced rounds read it (``layers.py``).
    prefix_elided_ops = 0

    def __init__(self, machine: Machine, kernel: Kernel,
                 interceptor: Interceptor, tracer: Optional[TracerCore] = None,
                 max_ops: int = 512,
                 exec_timeout: Optional[float] = None,
                 max_snapshot_rebuilds: int = 3,
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
        self.execs = 0
        #: Snapshot chains rebuilt from the root after a restore found
        #: them corrupted (self-healing).
        self.snapshot_rebuilds = 0
        #: Bottom of the degradation ladder: snapshot chains kept
        #: failing validation, so every run now starts from the root.
        self.degraded_root_only = False
        self._rebuild_failures = 0
        #: Chain nodes, shallow to deep; node ``i`` is chain depth
        #: ``i + 1``.
        self._chain_nodes: List[_SuffixState] = []
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
        return self._run(input_, start=0, snapshot_op_index=snapshot_op_index,
                         later_snapshot_ops=later_ops)

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
        self.interceptor._conns = clone_conns(state.conns)
        self.interceptor._sid_to_conn = dict(state.sid_to_conn)
        self.interceptor.reset_stale_surface()
        result = self._run(input_, start=state.resume_index,
                           snapshot_op_index=None,
                           values_preassigned=state.values_produced)
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
    # durability (checkpoint/resume)
    # ------------------------------------------------------------------

    def durable_state(self) -> dict:
        """Resumable executor state (see :mod:`repro.fuzz.journal`).

        Only the counters that shape future behaviour travel: the exec
        count, the degradation ladder (rebuild failures decide when the
        executor falls back to root-only execution) and the snapshot
        manager's sim-charge cursors.  The chain nodes' suffix state is
        host-side, empty at every step boundary, and never crosses a
        checkpoint.
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
        while not snapshots.chain_depth:
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
            # corrupts it again, in which case we loop).  It is an
            # ordinary run whose result is dropped.
            self._run(state.base_input, start=0,
                      snapshot_op_index=points[0],
                      later_snapshot_ops=points[1:],
                      stop_index=state.resume_index)
        self._rebuild_failures = 0

    # ------------------------------------------------------------------
    # core interpreter
    # ------------------------------------------------------------------

    def _run(self, input_: FuzzInput, start: int,  # nyx: hot
             snapshot_op_index: Optional[int],
             values_preassigned: int = 0,
             stop_index: Optional[int] = None,
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
        tracer = self.tracer
        if tracer is not None:
            tracer.begin()
        ops = input_.ops
        end = min(len(ops), start + self.max_ops)
        if stop_index is not None:
            end = min(end, stop_index)
        if start == 0:
            self.interceptor.reset_for_test()
        later_points = list(later_snapshot_ops) if later_snapshot_ops else []
        took_first_point = False
        values = values_preassigned
        spec_nodes = self.op_handlers
        for index in range(start, end):
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
                took_first_point = True
                snapshot_op_index = (later_points.pop(0) if later_points
                                     else None)
        if not result.timed_out:
            # Let the target finish pending work (responses, cleanup).
            kernel.run()
        kernel.watchdog = None
        if kernel.crash_reports:
            result.crash = kernel.crash_reports[0]
            kernel.crash_reports.clear()
        if tracer is not None:
            result.trace = tracer.take_trace()
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
            conns=clone_conns(self.interceptor._conns),
            sid_to_conn=dict(self.interceptor._sid_to_conn),
            values_produced=values,
            base_input=input_.copy(),
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
