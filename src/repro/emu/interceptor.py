"""The network-emulation interceptor (agent component).

Host-side implementation of the paper's in-guest LD_PRELOAD library:
it observes every socket-related syscall via the hooks the kernel
calls, identifies attack-surface sockets, and — once fuzzing starts —
serves fuzzer packets directly to ``recv()`` on those sockets while
faking readiness in ``select``/``poll``/``epoll``.  Data the target
sends on surface connections is swallowed (and retained for
inspection) instead of traversing the network stack.

Connection identity: the fuzzer addresses connections by small integer
ids in bytecode order; ``open_connection`` binds the next id to a
freshly fabricated in-guest connection (server mode) or to the
target's own outgoing connection (client mode).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.emu.surface import AttackSurface, SurfaceMode
from repro.guestos.errors import Errno, GuestError, NoFuzzPacket
from repro.guestos.sockets import EXTERNAL_PEER, SockState, SockType, Socket


@dataclass
class _ConnState:
    """Host-side state for one hooked connection."""

    conn_id: int
    sid: Optional[int] = None          # guest socket id once known
    queue: List[bytes] = field(default_factory=list)
    closed_by_fuzzer: bool = False
    packets_delivered: int = 0
    responses: List[bytes] = field(default_factory=list)


def clone_conns(conns: Dict[int, _ConnState]) -> Dict[int, _ConnState]:
    """An independent copy of per-connection state, as deep as
    ``copy.deepcopy``'s: packets and responses are immutable ``bytes``,
    so fresh lists suffice."""
    return {conn_id: _ConnState(state.conn_id, state.sid, list(state.queue),
                                state.closed_by_fuzzer,
                                state.packets_delivered,
                                list(state.responses))
            for conn_id, state in conns.items()}


class Interceptor:
    """Hooks the kernel's syscall surface for one machine."""

    def __init__(self, kernel, surface: AttackSurface) -> None:
        self.kernel = kernel
        self.surface = surface
        kernel.interceptor = self
        #: Surface listener socket ids (server mode).
        self.listener_sids: Dict[int, object] = {}
        #: Hooked datagram socket ids mapped to their address.
        self.dgram_sids: Dict[int, object] = {}
        # One-way latch: auto-mode surface placement ("first bind
        # wins") must survive resets by design.
        self._seen_any_bind = False  # nyx: allow[reset]
        self._conns: Dict[int, _ConnState] = {}
        self._sid_to_conn: Dict[int, int] = {}
        #: Connections fabricated but not yet accepted by the target.
        self._pending_accept: List[int] = []
        #: Client-mode: target sockets that connected to the surface
        #: before the fuzzer opened a connection id for them.
        self._unbound_client_sids: List[int] = []
        #: Set when the target first attempts to read fuzz input —
        #: the automatic root-snapshot placement signal (§3.3).  A
        #: one-way latch: deliberately never reset.
        self.saw_first_read = False  # nyx: allow[reset]
        # Cumulative campaign counters, read via deltas; resetting
        # them would zero the fuzzer's throughput accounting.
        self.stats_packets = 0  # nyx: allow[reset]
        self.stats_bytes = 0  # nyx: allow[reset]
        #: Optional :class:`~repro.faults.injector.FaultInjector`: when
        #: set, the emulated network paths inject guest-visible faults
        #: (short reads, EAGAIN bursts, resets, partial sends, stalls).
        self.injector: Optional[Any] = None

    # ------------------------------------------------------------------
    # fuzzer-facing API
    # ------------------------------------------------------------------

    def adopt_surface_state(self, source: "Interceptor") -> None:
        """Copy boot-time surface bookkeeping from a golden instance.

        Workers that :meth:`~repro.vm.machine.Machine.adopt_root` a
        shared root snapshot never observe the target's boot-time
        ``bind``/``listen``/``connect`` calls — those happened on the
        golden VM.  Guest socket ids are part of the adopted memory
        image and therefore identical across instances, so the golden
        interceptor's listener/datagram tables carry over verbatim.
        """
        self.listener_sids = dict(source.listener_sids)
        self.dgram_sids = dict(source.dgram_sids)
        self._seen_any_bind = source._seen_any_bind
        self._unbound_client_sids = list(source._unbound_client_sids)
        self.saw_first_read = source.saw_first_read

    def reset_for_test(self) -> None:
        """Drop all per-test connection state (before each execution)."""
        self._conns = {}
        self._sid_to_conn = {}
        self._pending_accept = []
        # Forget client sockets that did not survive the snapshot
        # reset; boot-time connections keep their slots.
        self._unbound_client_sids = [
            sid for sid in self._unbound_client_sids
            if sid in self.kernel.sockets]
        self._client_cursor = 0
        self.reset_stale_surface()

    def reset_stale_surface(self) -> None:
        """Drop surface sockets that did not survive the last restore.

        A surface-matching ``bind`` *during* an execution lands in
        :attr:`listener_sids`/:attr:`dgram_sids`, but the guest socket
        behind it is rolled back by the snapshot reset.  Keeping the
        stale sid skews the round-robin listener choice in
        :meth:`open_connection` (and EBADFs on lookup), so the same
        input diverges between executions — exactly the residual-state
        corruption the reset invariant forbids.  Boot-time surface
        sockets are part of the root image and always survive.
        """
        self.listener_sids = {
            sid: addr for sid, addr in self.listener_sids.items()
            if sid in self.kernel.sockets}
        self.dgram_sids = {
            sid: addr for sid, addr in self.dgram_sids.items()
            if sid in self.kernel.sockets}

    def open_connection(self, conn_id: int) -> None:  # nyx: hot
        """Bind connection id to a new hooked connection.

        Server mode: fabricate an established connection and park it in
        the surface listener's accept queue — without any real network
        traffic (one emulated-packet charge).  Datagram surfaces bind
        the id straight to the bound socket.  Client mode: the id waits
        for the target's own connect().
        """
        if conn_id in self._conns:
            raise ValueError("connection id %d already open" % conn_id)
        if len(self._conns) >= self.surface.max_connections:
            raise GuestError(Errno.ECONNREFUSED, "surface connection limit")
        state = _ConnState(conn_id)
        self._conns[conn_id] = state
        machine = self.kernel.machine
        machine.clock.charge(machine.costs.connect_cost(emulated=True))
        if self.surface.mode is SurfaceMode.CLIENT:
            # Bind to the next target socket that already connected
            # out, or wait for the next connect() (on_connect fills
            # the sid in).  The cursor resets every test, so the same
            # boot-time connection serves every execution.
            cursor = getattr(self, "_client_cursor", 0)
            while cursor < len(self._unbound_client_sids):
                sid = self._unbound_client_sids[cursor]
                cursor += 1
                if sid in self.kernel.sockets:
                    self._client_cursor = cursor
                    state.sid = sid
                    self._sid_to_conn[sid] = conn_id
                    return
            self._client_cursor = cursor
            self._pending_accept.append(conn_id)
            return
        if self.surface.datagram:
            if not self.dgram_sids:
                raise GuestError(Errno.ECONNREFUSED, "no bound datagram surface")
            sid = next(iter(self.dgram_sids))
            state.sid = sid
            self._sid_to_conn.setdefault(sid, conn_id)
            return
        if not self.listener_sids:
            raise GuestError(Errno.ECONNREFUSED, "no surface listener")
        # Multi-channel targets (Firefox IPC, §5.6): successive
        # connection ids round-robin across the hooked listeners, so
        # one input can speak on several channels at once.
        listeners = list(self.listener_sids)
        listener_sid = listeners[conn_id % len(listeners)]
        listener = self.kernel.sock(listener_sid)
        conn = self.kernel.new_socket(listener.domain, SockType.STREAM)
        conn.state = SockState.CONNECTED
        conn.peer = EXTERNAL_PEER
        conn.refcount = 1  # accept-queue reference
        listener.accept_queue.append(conn.sid)
        self.kernel.touch("sock:%d" % listener.sid)
        self.kernel._activity += 1
        state.sid = conn.sid
        self._sid_to_conn[conn.sid] = conn_id

    def queue_packet(self, conn_id: int, data: bytes) -> None:
        """Make ``data`` the next packet the target reads on conn_id."""
        state = self._require(conn_id)
        state.queue.append(data)
        self.kernel._activity += 1

    def close_connection(self, conn_id: int) -> None:
        """Signal EOF on the connection (the shutdown opcode)."""
        self._require(conn_id).closed_by_fuzzer = True
        self.kernel._activity += 1

    def pending_packets(self, conn_id: int) -> int:
        return len(self._require(conn_id).queue)

    def responses(self, conn_id: int) -> List[bytes]:
        """Data the target wrote to this connection."""
        return list(self._require(conn_id).responses)

    def _require(self, conn_id: int) -> _ConnState:
        state = self._conns.get(conn_id)
        if state is None:
            raise KeyError("connection id %d is not open" % conn_id)
        return state

    def _conn_for_sid(self, sid: int) -> Optional[_ConnState]:
        conn_id = self._sid_to_conn.get(sid)
        if conn_id is None:
            return None
        return self._conns.get(conn_id)

    # ------------------------------------------------------------------
    # kernel hooks (the ~30 intercepted libc calls)
    # ------------------------------------------------------------------

    def on_socket(self, pid: int, fd: int, sock: Socket) -> None:
        pass  # tracked lazily at bind/connect time

    def on_bind(self, pid: int, fd: int, sock: Socket, addr) -> None:
        if self.surface.mode is not SurfaceMode.SERVER:
            return
        if not self.surface.matches(addr, self._seen_any_bind):
            return
        self._seen_any_bind = True
        if sock.type is SockType.DGRAM or self.surface.datagram:
            self.dgram_sids[sock.sid] = addr
        else:
            self.listener_sids[sock.sid] = addr

    def on_listen(self, pid: int, fd: int, sock: Socket) -> None:
        pass  # bind already classified the socket

    def on_accept(self, pid: int, fd: int, conn: Socket, listener: Socket) -> None:
        pass  # fabricated conns are mapped at open_connection time

    def claims_connect(self, addr) -> bool:
        """Whether client-mode emulation will serve a connect to addr."""
        return (self.surface.mode is SurfaceMode.CLIENT
                and self.surface.matches(addr, self._seen_any_bind))

    def on_connect(self, pid: int, fd: int, sock: Socket, addr) -> None:
        if not self.claims_connect(addr):
            return
        self._seen_any_bind = True
        if not self._pending_accept:
            # Target connected before the fuzzer opened a connection
            # id (typical: outgoing connect during startup).
            self._unbound_client_sids.append(sock.sid)
            return
        conn_id = self._pending_accept.pop(0)
        state = self._conns[conn_id]
        state.sid = sock.sid
        self._sid_to_conn[sock.sid] = conn_id

    def on_recv(self, pid: int, fd: int, sock: Socket,
                max_bytes: int) -> Optional[Tuple[bytes, Optional[object]]]:
        """Serve fuzz input on surface connections.

        Returns None for non-surface sockets (normal kernel path).
        Preserves packet boundaries: one queued packet per recv call,
        truncated (remainder requeued) if the buffer is smaller.
        """
        # _conn_for_sid inlined: this hook runs on every recv attempt.
        conn_id = self._sid_to_conn.get(sock.sid)
        state = None if conn_id is None else self._conns.get(conn_id)
        if state is None:
            return None
        self.saw_first_read = True
        machine = self.kernel.machine
        if not state.queue:
            if state.closed_by_fuzzer:
                return (b"", None)
            raise NoFuzzPacket
        # Faults disrupt *deliveries*: a speculative recv on an idle
        # connection already sees EAGAIN naturally and must not burn a
        # fault decision (targets poll far more often than data lands).
        if self.injector is not None:
            max_bytes = self._inject_recv_fault(state, machine, max_bytes)
        packet = state.queue[0]
        if len(packet) <= max_bytes or sock.type is SockType.DGRAM:
            state.queue.pop(0)
            data = packet[:max_bytes]
        else:
            data = packet[:max_bytes]
            state.queue[0] = packet[max_bytes:]
        state.packets_delivered += 1
        self.stats_packets += 1
        self.stats_bytes += len(data)
        machine.clock.charge(machine.costs.packet_cost(len(data), emulated=True))
        # Datagram reads get a synthetic source address for the reply
        # path; replies to it are swallowed by on_send anyway.
        source = "fuzzer" if sock.sid in self.dgram_sids else None
        return (data, source)

    def _inject_recv_fault(self, state: _ConnState, machine,
                           max_bytes: int) -> int:
        """Apply one recv-path fault decision; returns the (possibly
        reduced) buffer size.  Raised errors model transient (`EAGAIN`)
        and hard (`ECONNRESET`) failures the target must absorb."""
        from repro.faults.plan import FaultKind
        fault = self.injector.recv_fault()
        if fault is None:
            return max_bytes
        if fault is FaultKind.STALL:
            # The "peer" goes silent mid-read: the target blocks and
            # the stall burns simulated time the watchdog accounts for.
            machine.clock.charge(self.injector.stall_seconds())
            return max_bytes
        if fault is FaultKind.EAGAIN_BURST:
            raise GuestError(Errno.EAGAIN, "injected fault: EAGAIN burst")
        if fault is FaultKind.CONN_RESET:
            # The connection dies mid-stream: pending input is lost and
            # further reads see EOF, like a real RST.
            state.queue.clear()
            state.closed_by_fuzzer = True
            raise GuestError(Errno.ECONNRESET, "injected fault: peer reset")
        if fault is FaultKind.SHORT_READ:
            return self.injector.short_read_bytes(max_bytes)
        return max_bytes

    def on_send(self, pid: int, fd: int, sock: Socket, data: bytes) -> bool:
        """Swallow responses on surface connections (returns True if
        handled, so the kernel skips the real path)."""
        state = self._conn_for_sid(sock.sid)
        if state is None:
            return False
        machine = self.kernel.machine
        if self.injector is not None and len(data) > 1:
            from repro.faults.plan import FaultKind
            if self.injector.send_fault() is FaultKind.PARTIAL_SEND:
                # Only a prefix makes it onto the wire before the
                # (emulated) buffer fills; the tail is lost.
                data = data[:self.injector.partial_send_bytes(len(data))]
        machine.clock.charge(machine.costs.packet_cost(len(data), emulated=True))
        state.responses.append(data)
        return True

    def accept_delay_override(self, sid: int) -> bool:
        """Whether a pending connection's readiness should lag.

        Consulted by the kernel's accept() while a fabricated
        connection is parked in the queue: a DELAYED_READINESS fault
        makes that accept spuriously fail with EAGAIN (the connection
        is delivered on the target's next poll round instead).
        """
        if self.injector is None or sid not in self.listener_sids:
            return False
        return self.injector.delay_readiness()

    def readable_override(self, sid: int) -> Optional[bool]:
        """Readiness for surface fds follows the input bytecode."""
        state = self._conn_for_sid(sid)
        if state is None:
            if sid in self.listener_sids or sid in self.dgram_sids:
                # Listening surface socket: readable iff a fabricated
                # connection is parked in its queue (server mode), or a
                # packet waits on a hooked datagram socket.
                return None  # the default queue/buffer check is right
            return None
        ready = bool(state.queue) or state.closed_by_fuzzer
        if ready and self.injector is not None \
                and self.injector.delay_readiness():
            # Readiness lags the data: select/poll/epoll miss a round,
            # exercising the target's re-poll path.
            return False
        return ready

    def on_close(self, pid: int, fd: int) -> None:
        pass  # refcounting happens in the kernel; see on_socket_closed

    def on_socket_closed(self, sid: int) -> None:
        """Last reference to a socket dropped."""
        conn_id = self._sid_to_conn.pop(sid, None)
        if conn_id is not None:
            state = self._conns.get(conn_id)
            if state is not None:
                state.sid = None

    def on_dup(self, pid: int, old_fd: int, new_fd: int) -> None:
        pass  # fd aliases resolve to the same sid; nothing to track

    def on_fork(self, parent_pid: int, child_pid: int) -> None:
        pass  # sids are shared across fork; conn mapping is by sid
