"""The guest kernel: processes, syscalls, sockets, scheduling.

All mutable kernel state is split into *components* (processes,
sockets, epoll instances, pipes, the filesystem, global tables), each
serialized into its own guest-memory region by :meth:`Kernel.flush_to_memory`.
Restoring a VM snapshot rewinds those pages; :meth:`Kernel.reload_from_memory`
then rebuilds the host-side object graph from memory, making snapshot
restores *semantically real*: a test case's socket state, forked
children, uploaded files and program variables all genuinely roll back.

The syscall surface (:class:`KernelApi`) covers the ~30 libc calls the
paper's LD_PRELOAD agent hooks (§4.1): socket/bind/listen/accept/
connect/recv/recvfrom/send/sendto/read/write/close/dup/dup2/shutdown,
select/poll/epoll, pipe, fork (as ``fork_child``), open/unlink and
friends.  An installed :class:`~repro.emu.interceptor.Interceptor` can
observe or override the network-facing subset.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.guestos.epoll import EPOLLIN, EpollEvent, EpollInstance
from repro.guestos.errors import (CrashReport, Errno, GuestCrash, GuestError,
                                  NoPendingConnection)
from repro.guestos.fds import FdEntry, FdKind
from repro.guestos.fs import FileSystem
from repro.guestos.process import Process, Program
from repro.guestos.sockets import (EXTERNAL_PEER, Address, Socket, SockDomain,
                                   SockState, SockType)
from repro.vm.hypercall import Hypercall
from repro.vm.machine import Machine
from repro.vm.memory import Region

#: Pages reserved for the component directory blob.
DIRECTORY_PAGES = 64

#: Extra headroom factor when (re)allocating a component region, so
#: growing state does not reallocate on every flush.
REGION_SLACK = 2.0


@dataclass
class KernelGlobals:  # nyx: state[memory]
    """Global kernel tables (one serializable component)."""

    next_pid: int = 1
    next_sid: int = 1
    next_eid: int = 1
    next_pipe: int = 1
    tcp_bindings: Dict[int, int] = field(default_factory=dict)
    udp_bindings: Dict[int, int] = field(default_factory=dict)
    unix_bindings: Dict[str, int] = field(default_factory=dict)


@dataclass
class Pipe:  # nyx: state[memory]
    """An anonymous pipe: byte chunks from write end to read end."""

    pipe_id: int
    chunks: List[bytes] = field(default_factory=list)
    readers: int = 1
    writers: int = 1


class ExternalConn:
    """Host-side handle to a connection whose other end is the fuzzer.

    Used by the AFLNet-style baselines that talk to the target through
    the (simulated) real network stack.  After a snapshot restore the
    guest-side socket may be gone; operations then raise ECONNRESET and
    the harness reconnects, exactly like a real fuzzer would.
    """

    def __init__(self, kernel: "Kernel", sid: int, addr: Address,
                 dgram: bool = False) -> None:
        self._kernel = kernel
        self.sid = sid
        self.addr = addr
        self.dgram = dgram

    def send(self, data: bytes) -> None:
        self._kernel.external_deliver(self.sid, data, source=self.addr,
                                      dgram=self.dgram)

    def recv(self) -> List[bytes]:
        """Drain everything the guest has sent on this connection."""
        return self._kernel.external_drain(self.sid)

    def close(self) -> None:
        self._kernel.external_close(self.sid)


class Kernel:
    """The guest kernel, attached to one :class:`Machine`."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self.g = KernelGlobals()
        self.processes: Dict[int, Process] = {}
        self.sockets: Dict[int, Socket] = {}
        self.epolls: Dict[int, EpollInstance] = {}
        self.pipes: Dict[int, Pipe] = {}
        self.fs = FileSystem()
        # Drained by the executor after every run; crash reports must
        # outlive the snapshot reset that follows the crashing exec.
        self.crash_reports: List[CrashReport] = []  # nyx: allow[reset]
        # Host-side debug log (append-only diagnostics, never read by
        # guest code or coverage).
        self.log: List[str] = []  # nyx: allow[reset]
        #: Installed network interceptor (Nyx-Net emulation layer).
        self.interceptor: Optional[Any] = None
        #: Executor watchdog: when set, :meth:`run` stops scheduling new
        #: rounds once it returns True (per-exec budget exceeded).
        self.watchdog: Optional[Callable[[], bool]] = None
        #: The executor's :class:`~repro.coverage.tracer.TracerCore`,
        #: whose trace window wraps program execution (None: untraced).
        self.coverage: Optional[Any] = None
        #: Host-side outboxes for data sent to external peers.
        self._outbox: Dict[int, List[bytes]] = {}
        #: Ports where the *fuzzer* acts as a server (client fuzzing).
        #: Boot-time harness configuration, registered before the root
        #: snapshot and constant for the campaign.
        self.external_servers: Dict[Address, bool] = {}  # nyx: allow[reset]
        #: Whether externally delivered stream data coalesces (real TCP).
        self.coalesce_external: bool = True
        # Monotonic progress counter consumed via deltas (idle
        # detection); absolute value is meaningless by design.
        self._activity = 0  # nyx: allow[reset]
        self._touched: set = set()

        # Memory-backed state directory.
        self._directory_region: Region = machine.allocator.alloc(
            DIRECTORY_PAGES * 4096)
        self._regions: Dict[str, Tuple[int, int]] = {}
        self._blob_cache: Dict[str, bytes] = {}
        # Host-side per-pid (syscall interface, component key) pairs:
        # both are pure functions of the pid, so one pair serves every
        # round.
        self._bindings: Dict[int, Tuple["KernelApi", str]] = {}  # nyx: allow[reset]
        machine.on_restore(self.reload_from_memory)

    # ------------------------------------------------------------------
    # component serialization
    # ------------------------------------------------------------------

    def _components(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"globals": self.g, "fs": self.fs}
        for pid, proc in self.processes.items():
            out["proc:%d" % pid] = proc
        for sid, sock in self.sockets.items():
            out["sock:%d" % sid] = sock
        for eid, ep in self.epolls.items():
            out["epoll:%d" % eid] = ep
        for pipe_id, pipe in self.pipes.items():
            out["pipe:%d" % pipe_id] = pipe
        return out

    def touch(self, key: str) -> None:
        """Mark a component as possibly modified since the last flush."""
        self._touched.add(key)

    def flush_to_memory(self, full: bool = False) -> None:  # nyx: hot
        """Serialize (changed) components into their memory regions.

        Called at test-case boundaries and before snapshots so that the
        dirty-page log reflects the guest state churn of the test.  The
        directory (region table plus bump pointer) is rewritten only
        when the region layout changed or on ``full``: only this method
        allocates, so otherwise memory already holds it.
        """
        components = self._components()
        keys = set(components) if full else set(self._touched) & set(components)
        # Components that disappeared since the last flush.
        removed = [k for k in self._regions if k not in components]
        allocator = self.machine.allocator
        layout_changed = bool(removed)
        for key in sorted(keys):
            blob = pickle.dumps(components[key], protocol=pickle.HIGHEST_PROTOCOL)
            if self._blob_cache.get(key) == blob:
                continue
            region_info = self._regions.get(key)
            need = len(blob) + 8
            if region_info is None or region_info[1] * 4096 < need:
                region = allocator.alloc(int(need * REGION_SLACK))
                self._regions[key] = (region.start_page, region.num_pages)
                layout_changed = True
            else:
                region = Region(*region_info)
            allocator.write_blob(region, blob)
            self._blob_cache[key] = blob
        for key in removed:
            del self._regions[key]
            self._blob_cache.pop(key, None)
        self._touched.clear()
        if layout_changed or full:
            directory = {"regions": self._regions, "bump": allocator.state()}
            allocator.write_blob(
                self._directory_region,
                pickle.dumps(directory, protocol=pickle.HIGHEST_PROTOCOL))

    def reload_from_memory(self) -> None:  # nyx: hot
        """Rebuild host-side kernel objects from guest memory.

        A component is reused as-is when it was not touched since the
        last flush and its restored blob is byte-identical to the blob
        that flush cached: by the flush contract the host object already
        equals the serialized state, so unpickling would only rebuild an
        identical graph.  Every other component is unpickled.
        """
        allocator = self.machine.allocator
        directory = pickle.loads(allocator.read_blob(self._directory_region))
        allocator.set_state(directory["bump"])
        self._regions = directory["regions"]
        old_cache = self._blob_cache
        touched = self._touched
        old = self._components()
        self.processes = {}
        self.sockets = {}
        self.epolls = {}
        self.pipes = {}
        self._blob_cache = {}
        for key, (start, npages) in self._regions.items():
            blob = allocator.read_blob(Region(start, npages))
            obj = None
            if key not in touched and old_cache.get(key) == blob:
                obj = old.get(key)
            if obj is None:
                obj = pickle.loads(blob)
            self._blob_cache[key] = blob
            if key == "globals":
                self.g = obj
            elif key == "fs":
                self.fs = obj
            elif key.startswith("proc:"):
                self.processes[int(key[5:])] = obj
            elif key.startswith("sock:"):
                self.sockets[int(key[5:])] = obj
            elif key.startswith("epoll:"):
                self.epolls[int(key[6:])] = obj
            elif key.startswith("pipe:"):
                self.pipes[int(key[5:])] = obj
        self._touched.clear()
        # Data queued for external peers belongs to the execution that
        # produced it; a restore rolls that execution back, so keeping
        # *any* of it (even for sockets that survive the restore, e.g.
        # a boot-time client connection that sent before the fuzzer
        # bound it) would leak phantom bytes across resets.  Harnesses
        # that read the outbox (baselines) drain it before resetting.
        self._outbox = {}

    # ------------------------------------------------------------------
    # process management
    # ------------------------------------------------------------------

    def spawn(self, program: Program, ppid: int = 0) -> Process:
        """Create a process; its on_start runs on the next scheduling round."""
        pid = self.g.next_pid
        self.g.next_pid += 1
        proc = Process(pid=pid, ppid=ppid, program=program)
        if program.timer_period is not None:
            proc.timer_deadline = self.machine.clock.now + program.timer_period
        self.processes[pid] = proc
        self.touch("globals")
        self.touch("proc:%d" % pid)
        return proc

    def fork_child(self, parent: Process, program: Program) -> Process:
        """fork()-per-connection: child inherits a clone of the fd table."""
        child = self.spawn(program, ppid=parent.pid)
        child.fdtable = parent.fdtable.clone()
        for entry in child.fdtable.entries.values():
            self._ref_object(entry)
        self.machine.clock.charge(
            self.machine.costs.fork_fixed
            + self.machine.costs.fork_per_page * len(child.fdtable))
        self._activity += 1
        return child

    def exit_process(self, proc: Process, code: int) -> None:
        """Terminate a process, closing all of its descriptors."""
        if not proc.alive:
            return
        proc.alive = False
        proc.exit_code = code
        api = KernelApi(self, proc.pid)
        for fd in list(proc.fdtable.entries):
            # Best-effort close: one stuck descriptor must not leak
            # the rest of the table, so each close isolates its fault.
            try:  # nyx: allow[NYX074]
                api._close_fd(proc, fd)
            except GuestError:
                pass
        self.touch("proc:%d" % proc.pid)

    def api_for(self, pid: int) -> "KernelApi":
        """The syscall interface bound to process ``pid``."""
        return self._binding(pid)[0]

    def _binding(self, pid: int) -> Tuple["KernelApi", str]:
        """Process ``pid``'s syscall interface and component key."""
        binding = self._bindings.get(pid)
        if binding is None:
            binding = self._bindings[pid] = (KernelApi(self, pid),
                                             "proc:%d" % pid)
        return binding

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def run(self, max_rounds: int = 64) -> int:  # nyx: hot
        """Poll processes until the guest is quiescent.

        Returns the number of productive syscalls performed.  A round
        with no productive syscalls ends the loop, which models "the
        target blocked waiting for more input".

        The whole run is one coverage window: only program callbacks
        execute instrumented code, so the window records the same sites
        as one window per callback would.
        """
        if self.coverage is None:
            return self._rounds(max_rounds)
        return self.coverage.run(self._rounds, max_rounds)

    def _rounds(self, max_rounds: int) -> int:  # nyx: hot
        """The scheduling rounds of :meth:`run`.

        Each round first fires the due timers, in process-table order,
        then steps every live process once, in pid order.  A process
        forked by a poll is first stepped in the next round; one forked
        by a timer handler is stepped in this round's step loop.
        """
        processes = self.processes
        clock = self.machine.clock
        total = 0
        for _ in range(max_rounds):
            if self.watchdog is not None and self.watchdog():
                break
            before = self._activity
            now = clock.now
            # A copy of the table: a timer handler may fork.
            for proc in list(processes.values()):
                deadline = proc.timer_deadline
                if deadline is not None and now >= deadline and proc.alive:
                    proc.timer_deadline = now + (proc.program.timer_period
                                                 or 1.0)
                    self._activity += 1
                    self._step(proc, timer=True)
            for pid in sorted(processes):
                proc = processes[pid]
                if proc.alive:
                    self._step(proc)
            made = self._activity - before
            total += made
            if made == 0:
                break
        return total

    def _step(self, proc: Process, timer: bool = False) -> None:
        """Run ``proc``'s timer handler, or its start (first step only)
        and poll, isolating their faults: a crash is recorded, and an
        unhandled syscall error terminates the process, the way an
        uncaught exception kills a real server worker."""
        pid = proc.pid
        api, key = self._binding(pid)
        self._touched.add(key)
        program = proc.program
        try:
            if timer:
                program.on_timer(api)
            else:
                if not proc.started:
                    proc.started = True
                    self._activity += 1
                    program.on_start(api)
                program.poll(api)
        except GuestCrash as crash:
            self._record_crash(proc, crash)
        except GuestError as err:
            self.log.append("pid %d %sdied on %s"
                            % (pid, "timer " if timer else "", err))
            self.exit_process(proc, int(err.errno))

    def _record_crash(self, proc: Process, crash: GuestCrash) -> None:
        report = CrashReport(kind=crash.kind, bug_id=crash.bug_id,
                             pid=proc.pid, detail=crash.detail)
        self.crash_reports.append(report)
        proc.crashed = True
        proc.alive = False
        proc.exit_code = -11
        self.touch("proc:%d" % proc.pid)
        self.machine.hypercall(Hypercall.PANIC, report=report)

    # ------------------------------------------------------------------
    # socket internals
    # ------------------------------------------------------------------

    def new_socket(self, domain: SockDomain, type_: SockType) -> Socket:
        sid = self.g.next_sid
        self.g.next_sid += 1
        sock = Socket(sid=sid, domain=domain, type=type_, refcount=0)
        self.sockets[sid] = sock
        self.touch("globals")
        self.touch("sock:%d" % sid)
        return sock

    def sock(self, sid: int) -> Socket:
        sock = self.sockets.get(sid)
        if sock is None:
            raise GuestError(Errno.EBADF, "socket %d gone" % sid)
        return sock

    def _ref_object(self, entry: FdEntry) -> None:
        if entry.kind is FdKind.SOCKET:
            self.sock(entry.obj_id).refcount += 1
            self.touch("sock:%d" % entry.obj_id)
        elif entry.kind is FdKind.PIPE_R:
            self.pipes[entry.obj_id].readers += 1
            self.touch("pipe:%d" % entry.obj_id)
        elif entry.kind is FdKind.PIPE_W:
            self.pipes[entry.obj_id].writers += 1
            self.touch("pipe:%d" % entry.obj_id)

    def _unref_socket(self, sid: int) -> None:
        sock = self.sock(sid)
        sock.refcount -= 1
        self.touch("sock:%d" % sid)
        if sock.refcount > 0:
            return
        # Last reference gone: tear the socket down.
        if sock.state is SockState.LISTENING:
            self._unbind(sock)
            for pending_sid in list(sock.accept_queue):
                pending = self.sockets.get(pending_sid)
                if pending is not None:
                    pending.peer_closed = True
                    self._unref_socket(pending_sid)  # drop the queue ref
            sock.accept_queue.clear()
        if sock.peer not in (None, EXTERNAL_PEER):
            peer = self.sockets.get(sock.peer)
            if peer is not None:
                peer.peer_closed = True
                self.touch("sock:%d" % peer.sid)
        if sock.bound_addr is not None:
            self._unbind(sock)
        sock.state = SockState.CLOSED
        del self.sockets[sock.sid]
        self._outbox.pop(sock.sid, None)
        if self.interceptor is not None:
            self.interceptor.on_socket_closed(sock.sid)

    def _unbind(self, sock: Socket) -> None:
        for table in (self.g.tcp_bindings, self.g.udp_bindings):
            for addr, sid in list(table.items()):
                if sid == sock.sid:
                    del table[addr]
                    self.touch("globals")
        for path, sid in list(self.g.unix_bindings.items()):
            if sid == sock.sid:
                del self.g.unix_bindings[path]
                self.touch("globals")

    def _binding_table(self, domain: SockDomain, type_: SockType) -> Dict:
        if domain is SockDomain.UNIX:
            return self.g.unix_bindings
        if type_ is SockType.DGRAM:
            return self.g.udp_bindings
        return self.g.tcp_bindings

    def socket_readable(self, sid: int) -> bool:
        """Base readiness; the interceptor may override for surface fds."""
        sock = self.sockets.get(sid)
        if sock is None:
            return False
        if self.interceptor is not None:
            verdict = self.interceptor.readable_override(sid)
            if verdict is not None:
                return verdict
        return sock.readable()

    # ------------------------------------------------------------------
    # external (host <-> guest) networking
    # ------------------------------------------------------------------

    def external_connect(self, addr: Address,
                         dgram: bool = False) -> ExternalConn:
        """The fuzzer connects to a listening guest socket.

        Charges the real-network connection cost and enqueues a new
        connected socket in the listener's accept queue.
        """
        table = self.g.udp_bindings if dgram else (
            self.g.unix_bindings if isinstance(addr, str) else self.g.tcp_bindings)
        listener_sid = table.get(addr)
        if listener_sid is None:
            raise GuestError(Errno.ECONNREFUSED, "no listener on %r" % (addr,))
        listener = self.sock(listener_sid)
        self.machine.clock.charge(self.machine.costs.net_connect)
        self.machine.devices.nic.on_rx(0)
        if dgram or listener.type is SockType.DGRAM:
            # Datagram "connections" are just the bound socket itself.
            return ExternalConn(self, listener_sid, addr, dgram=True)
        if listener.state is not SockState.LISTENING:
            raise GuestError(Errno.ECONNREFUSED, "socket not listening")
        if len(listener.accept_queue) >= max(listener.backlog, 1):
            raise GuestError(Errno.ECONNREFUSED, "backlog full")
        conn = self.new_socket(listener.domain, SockType.STREAM)
        conn.state = SockState.CONNECTED
        conn.peer = EXTERNAL_PEER
        conn.refcount = 1  # held alive until accepted and installed
        listener.accept_queue.append(conn.sid)
        self.touch("sock:%d" % listener.sid)
        self._activity += 1
        return ExternalConn(self, conn.sid, addr)

    def external_deliver(self, sid: int, data: bytes,
                         source: Optional[Address] = None,
                         dgram: bool = False) -> None:
        """Deliver fuzzer data to a guest socket via the real path."""
        sock = self.sockets.get(sid)
        if sock is None or sock.state is SockState.CLOSED:
            raise GuestError(Errno.ECONNRESET, "guest socket %d gone" % sid)
        self.machine.clock.charge(
            self.machine.costs.packet_cost(len(data), emulated=False))
        self.machine.devices.nic.on_rx(len(data))
        sock.deliver(data, source=source,
                     coalesce=self.coalesce_external and not dgram)
        self.touch("sock:%d" % sid)
        self._activity += 1

    def external_drain(self, sid: int) -> List[bytes]:
        """Collect everything the guest sent to the external peer."""
        return self._outbox.pop(sid, [])

    def external_close(self, sid: int) -> None:
        sock = self.sockets.get(sid)
        if sock is None:
            return
        sock.peer_closed = True
        self.touch("sock:%d" % sid)
        self._activity += 1

    def register_external_server(self, addr: Address) -> None:
        """Declare that the fuzzer will accept guest connect()s to addr
        (client-fuzzing mode, §5.4)."""
        self.external_servers[addr] = True

    def outbox_for(self, sid: int) -> List[bytes]:
        return self._outbox.setdefault(sid, [])


# ----------------------------------------------------------------------
# The syscall interface
# ----------------------------------------------------------------------


class KernelApi:  # nyx: hot
    """Syscalls bound to one process.  This is the surface the paper's
    LD_PRELOAD agent intercepts."""

    def __init__(self, kernel: Kernel, pid: int) -> None:
        self.k = kernel
        self.pid = pid
        # Hot-path bindings: the machine's clock and cost model are
        # fixed for the kernel's lifetime, so every syscall entry can
        # charge its context switch through two attribute loads and one
        # call instead of walking kernel -> machine -> clock/costs.
        # Syscall entries bump the clock directly: the context switch
        # cost is a fixed non-negative float, so charge()'s validation
        # is statically satisfied and the call fan-out can go.
        self._clock = kernel.machine.clock
        self._ctx_cost = kernel.machine.costs.context_switch

    # -- plumbing -----------------------------------------------------------

    @property
    def proc(self) -> Process:
        proc = self.k.processes.get(self.pid)
        if proc is None:
            raise GuestError(Errno.EPERM, "process %d gone" % self.pid)
        return proc

    def _enter(self) -> None:
        self._clock._now += self._ctx_cost

    def _sock_for_fd(self, fd: int) -> Socket:
        entry = self.proc.fdtable.get(fd)
        if entry.kind is not FdKind.SOCKET:
            raise GuestError(Errno.ENOTSOCK, "fd %d is not a socket" % fd)
        return self.k.sock(entry.obj_id)

    def cpu(self, seconds: float) -> None:
        """Charge target CPU work (parsing, crypto, rendering)."""
        self.k.machine.clock.charge(seconds)

    def log(self, message: str) -> None:
        """Write a line to the serial console."""
        self.k.machine.devices.serial.write(message.encode() + b"\n")

    def getpid(self) -> int:
        return self.pid

    def ijon_set(self, slot: int) -> None:
        """IJON state annotation: expose a program state value to the
        coverage bitmap (compiled in by IJON's pass; a no-op when no
        coverage collector is attached)."""
        coverage = self.k.coverage
        if coverage is not None:
            coverage.ijon_set(int(slot))

    def time(self) -> float:
        """Guest-visible wall time (from the RTC device)."""
        self._enter()
        return self.k.machine.devices.rtc.epoch_us / 1e6

    def sleep(self, seconds: float) -> None:
        """Blocking sleep — advances simulated time."""
        self._enter()
        self.k.machine.clock.charge(seconds)
        self.k.machine.devices.rtc.advance(int(seconds * 1e6))

    # -- sockets --------------------------------------------------------------

    def socket(self, domain: SockDomain = SockDomain.INET,
               type_: SockType = SockType.STREAM) -> int:
        self._enter()
        sock = self.k.new_socket(domain, type_)
        fd = self.proc.fdtable.install(FdEntry(FdKind.SOCKET, sock.sid))
        sock.refcount += 1
        self.k._activity += 1
        if self.k.interceptor is not None:
            self.k.interceptor.on_socket(self.pid, fd, sock)
        return fd

    def bind(self, fd: int, addr: Address) -> None:
        self._enter()
        sock = self._sock_for_fd(fd)
        table = self.k._binding_table(sock.domain, sock.type)
        if addr in table:
            raise GuestError(Errno.EADDRINUSE, repr(addr))
        table[addr] = sock.sid
        sock.bound_addr = addr
        sock.state = SockState.BOUND
        self.k.touch("globals")
        self.k.touch("sock:%d" % sock.sid)
        self.k._activity += 1
        if self.k.interceptor is not None:
            self.k.interceptor.on_bind(self.pid, fd, sock, addr)

    def listen(self, fd: int, backlog: int = 16) -> None:
        self._enter()
        sock = self._sock_for_fd(fd)
        if sock.bound_addr is None:
            raise GuestError(Errno.EINVAL, "listen on unbound socket")
        sock.state = SockState.LISTENING
        sock.backlog = backlog
        self.k.touch("sock:%d" % sock.sid)
        self.k._activity += 1
        if self.k.interceptor is not None:
            self.k.interceptor.on_listen(self.pid, fd, sock)

    def accept(self, fd: int) -> int:
        # Hottest syscall of the accept-loop idiom: fd resolution is
        # inlined (``_sock_for_fd`` spelled out) because most attempts
        # end in EAGAIN and the call fan-out dominates.
        self._clock._now += self._ctx_cost
        k = self.k
        proc = k.processes.get(self.pid)
        if proc is None:
            raise GuestError(Errno.EPERM, "process %d gone" % self.pid)
        entry = proc.fdtable.entries.get(fd)
        if entry is None:
            raise GuestError(Errno.EBADF, "fd %d is not open" % fd)
        if entry.kind is not FdKind.SOCKET:
            raise GuestError(Errno.ENOTSOCK, "fd %d is not a socket" % fd)
        listener = k.sockets.get(entry.obj_id)
        if listener is None:
            raise GuestError(Errno.EBADF, "socket %d gone" % entry.obj_id)
        if listener.state is not SockState.LISTENING:
            raise GuestError(Errno.EINVAL, "accept on non-listening socket")
        if not listener.accept_queue:
            raise NoPendingConnection
        if (k.interceptor is not None
                and k.interceptor.accept_delay_override(listener.sid)):
            # Injected fault: the connection is parked but its
            # readiness lags one poll round (see repro.faults).
            raise GuestError(Errno.EAGAIN, "injected fault: delayed readiness")
        conn_sid = listener.accept_queue.pop(0)
        conn = k.sock(conn_sid)
        new_fd = proc.fdtable.install(FdEntry(FdKind.SOCKET, conn_sid))
        # The accept-queue reference is handed over to the new fd, so
        # the refcount is unchanged by design.
        k._touched.add("sock:%d" % listener.sid)
        k._touched.add("sock:%d" % conn_sid)
        k._activity += 1
        if k.interceptor is not None:
            k.interceptor.on_accept(self.pid, new_fd, conn, listener)
        return new_fd

    def connect(self, fd: int, addr: Address) -> None:
        self._enter()
        sock = self._sock_for_fd(fd)
        if sock.state is SockState.CONNECTED:
            raise GuestError(Errno.EISCONN)
        if sock.type is SockType.DGRAM:
            # Datagram connect() just records a default destination.
            sock.dgram_dest = addr
            sock.state = SockState.CONNECTED
            self.k.touch("sock:%d" % sock.sid)
            self.k._activity += 1
            if self.k.interceptor is not None:
                self.k.interceptor.on_connect(self.pid, fd, sock, addr)
            return
        table = self.k._binding_table(sock.domain, sock.type)
        listener_sid = table.get(addr)
        if listener_sid is not None:
            listener = self.k.sock(listener_sid)
            if listener.state is not SockState.LISTENING:
                raise GuestError(Errno.ECONNREFUSED, repr(addr))
            peer = self.k.new_socket(sock.domain, SockType.STREAM)
            peer.state = SockState.CONNECTED
            peer.peer = sock.sid
            peer.refcount = 1  # held by the accept queue until accepted
            sock.peer = peer.sid
            sock.state = SockState.CONNECTED
            listener.accept_queue.append(peer.sid)
            self.k.touch("sock:%d" % listener.sid)
        elif addr in self.k.external_servers:
            sock.peer = EXTERNAL_PEER
            sock.state = SockState.CONNECTED
            self.k.machine.clock.charge(self.k.machine.costs.net_connect)
        elif self.k.interceptor is not None and \
                self.k.interceptor.claims_connect(addr):
            # The emulation layer plays the server (client fuzzing,
            # §5.4): the connect succeeds without any real peer.
            sock.peer = EXTERNAL_PEER
            sock.state = SockState.CONNECTED
        else:
            raise GuestError(Errno.ECONNREFUSED, repr(addr))
        self.k.touch("sock:%d" % sock.sid)
        self.k._activity += 1
        if self.k.interceptor is not None:
            self.k.interceptor.on_connect(self.pid, fd, sock, addr)

    def recv(self, fd: int, max_bytes: int = 65536) -> bytes:
        # Duplicates :meth:`recvfrom` rather than delegating: recv is
        # the single hottest syscall, so it skips the extra call.
        self._clock._now += self._ctx_cost
        k = self.k
        proc = k.processes.get(self.pid)
        if proc is None:
            raise GuestError(Errno.EPERM, "process %d gone" % self.pid)
        entry = proc.fdtable.entries.get(fd)
        if entry is None:
            raise GuestError(Errno.EBADF, "fd %d is not open" % fd)
        if entry.kind is not FdKind.SOCKET:
            raise GuestError(Errno.ENOTSOCK, "fd %d is not a socket" % fd)
        sock = k.sockets.get(entry.obj_id)
        if sock is None:
            raise GuestError(Errno.EBADF, "socket %d gone" % entry.obj_id)
        if sock.state is SockState.LISTENING:
            raise GuestError(Errno.EINVAL, "recv on listening socket")
        if k.interceptor is not None:
            supplied = k.interceptor.on_recv(self.pid, fd, sock, max_bytes)
            if supplied is not None:
                k._activity += 1
                sock.bytes_in += len(supplied[0])
                k._touched.add("sock:%d" % sock.sid)
                return supplied[0]
        data, _source = sock.take_chunk(max_bytes)
        k._touched.add("sock:%d" % sock.sid)
        if data:
            k._activity += 1
        return data

    def recvfrom(self, fd: int, max_bytes: int = 65536
                 ) -> Tuple[bytes, Optional[Address]]:
        # Hot read loop: targets recv until EAGAIN, so fd resolution is
        # inlined like in :meth:`accept`.
        self._clock._now += self._ctx_cost
        k = self.k
        proc = k.processes.get(self.pid)
        if proc is None:
            raise GuestError(Errno.EPERM, "process %d gone" % self.pid)
        entry = proc.fdtable.entries.get(fd)
        if entry is None:
            raise GuestError(Errno.EBADF, "fd %d is not open" % fd)
        if entry.kind is not FdKind.SOCKET:
            raise GuestError(Errno.ENOTSOCK, "fd %d is not a socket" % fd)
        sock = k.sockets.get(entry.obj_id)
        if sock is None:
            raise GuestError(Errno.EBADF, "socket %d gone" % entry.obj_id)
        if sock.state is SockState.LISTENING:
            raise GuestError(Errno.EINVAL, "recv on listening socket")
        if k.interceptor is not None:
            supplied = k.interceptor.on_recv(self.pid, fd, sock, max_bytes)
            if supplied is not None:
                k._activity += 1
                sock.bytes_in += len(supplied[0])
                k._touched.add("sock:%d" % sock.sid)
                return supplied
        data, source = sock.take_chunk(max_bytes)
        k._touched.add("sock:%d" % sock.sid)
        if data:
            k._activity += 1
        return data, source

    def send(self, fd: int, data: bytes) -> int:
        # Reply path of every serviced request; inlined like accept.
        self._clock._now += self._ctx_cost
        k = self.k
        proc = k.processes.get(self.pid)
        if proc is None:
            raise GuestError(Errno.EPERM, "process %d gone" % self.pid)
        entry = proc.fdtable.entries.get(fd)
        if entry is None:
            raise GuestError(Errno.EBADF, "fd %d is not open" % fd)
        if entry.kind is not FdKind.SOCKET:
            raise GuestError(Errno.ENOTSOCK, "fd %d is not a socket" % fd)
        sock = k.sockets.get(entry.obj_id)
        if sock is None:
            raise GuestError(Errno.EBADF, "socket %d gone" % entry.obj_id)
        if sock.type is SockType.DGRAM:
            # The agent hooks send() before the kernel can object: on
            # hooked datagram sockets replies are swallowed like any
            # other surface traffic.
            if self.k.interceptor is not None and \
                    self.k.interceptor.on_send(self.pid, fd, sock, data):
                sock.bytes_out += len(data)
                self.k._activity += 1
                return len(data)
            if sock.dgram_dest is None:
                raise GuestError(Errno.ENOTCONN, "datagram socket has no default dest")
            return self.sendto(fd, data, sock.dgram_dest)
        if sock.state is not SockState.CONNECTED:
            raise GuestError(Errno.ENOTCONN)
        if sock.peer_closed:
            raise GuestError(Errno.EPIPE)
        sock.bytes_out += len(data)
        self.k.touch("sock:%d" % sock.sid)
        if self.k.interceptor is not None and \
                self.k.interceptor.on_send(self.pid, fd, sock, data):
            self.k._activity += 1
            return len(data)
        if sock.peer is EXTERNAL_PEER:
            self.k.machine.clock.charge(
                self.k.machine.costs.packet_cost(len(data), emulated=False))
            self.k.machine.devices.nic.on_tx(len(data))
            self.k.outbox_for(sock.sid).append(data)
        elif sock.peer is not None:
            peer = self.k.sock(sock.peer)
            peer.deliver(data)
            self.k.touch("sock:%d" % peer.sid)
        else:
            raise GuestError(Errno.ENOTCONN)
        self.k._activity += 1
        return len(data)

    def sendto(self, fd: int, data: bytes, addr: Address) -> int:
        self._enter()
        sock = self._sock_for_fd(fd)
        if sock.type is not SockType.DGRAM:
            raise GuestError(Errno.EINVAL, "sendto on stream socket")
        sock.bytes_out += len(data)
        self.k.touch("sock:%d" % sock.sid)
        if self.k.interceptor is not None and \
                self.k.interceptor.on_send(self.pid, fd, sock, data):
            self.k._activity += 1
            return len(data)
        table = self.k.g.udp_bindings
        dest_sid = table.get(addr)
        if dest_sid is not None:
            dest = self.k.sock(dest_sid)
            dest.deliver(data, source=sock.bound_addr)
            self.k.touch("sock:%d" % dest.sid)
        else:
            self.k.machine.clock.charge(
                self.k.machine.costs.packet_cost(len(data), emulated=False))
            self.k.machine.devices.nic.on_tx(len(data))
            self.k.outbox_for(sock.sid).append(data)
        self.k._activity += 1
        return len(data)

    def shutdown(self, fd: int) -> None:
        self._enter()
        sock = self._sock_for_fd(fd)
        sock.state = SockState.SHUTDOWN
        if sock.peer not in (None, EXTERNAL_PEER):
            peer = self.k.sockets.get(sock.peer)
            if peer is not None:
                peer.peer_closed = True
                self.k.touch("sock:%d" % peer.sid)
        self.k.touch("sock:%d" % sock.sid)
        self.k._activity += 1

    # -- generic fd ops ----------------------------------------------------------

    def read(self, fd: int, max_bytes: int = 65536) -> bytes:
        """read() is recv() for sockets, buffered read for files/pipes."""
        entry = self.proc.fdtable.get(fd)
        if entry.kind is FdKind.SOCKET:
            return self.recv(fd, max_bytes)
        self._enter()
        if entry.kind is FdKind.PIPE_R:
            pipe = self.k.pipes[entry.obj_id]
            if not pipe.chunks:
                if pipe.writers <= 0:
                    return b""
                raise GuestError(Errno.EAGAIN, "pipe empty")
            data = pipe.chunks.pop(0)[:max_bytes]
            self.k.touch("pipe:%d" % pipe.pipe_id)
            self.k._activity += 1
            return data
        if entry.kind is FdKind.FILE:
            # obj_id indexes into a per-process open-file name table via env.
            path = self.proc.env.get("file:%d" % fd)
            if path is None:
                raise GuestError(Errno.EBADF)
            content = self.k.fs.read_file(self.k.machine.disk, path)
            data = content[entry.offset:entry.offset + max_bytes]
            entry.offset += len(data)
            self.k._activity += 1
            return data
        raise GuestError(Errno.EBADF, "unreadable fd kind %s" % entry.kind)

    def write(self, fd: int, data: bytes) -> int:
        entry = self.proc.fdtable.get(fd)
        if entry.kind is FdKind.SOCKET:
            return self.send(fd, data)
        self._enter()
        if entry.kind is FdKind.PIPE_W:
            pipe = self.k.pipes[entry.obj_id]
            if pipe.readers <= 0:
                raise GuestError(Errno.EPIPE)
            pipe.chunks.append(data)
            self.k.touch("pipe:%d" % pipe.pipe_id)
            self.k._activity += 1
            return len(data)
        if entry.kind is FdKind.FILE:
            path = self.proc.env.get("file:%d" % fd)
            if path is None:
                raise GuestError(Errno.EBADF)
            self.k.fs.write_file(self.k.machine.disk, path, data, append=True)
            self.k.touch("fs")
            self.k._activity += 1
            return len(data)
        raise GuestError(Errno.EBADF, "unwritable fd kind %s" % entry.kind)

    def close(self, fd: int) -> None:
        self._enter()
        self._close_fd(self.proc, fd)
        self.k._activity += 1
        if self.k.interceptor is not None:
            self.k.interceptor.on_close(self.pid, fd)

    def _close_fd(self, proc: Process, fd: int) -> None:
        entry = proc.fdtable.remove(fd)
        self.k.touch("proc:%d" % proc.pid)
        if entry.kind is FdKind.SOCKET:
            self.k._unref_socket(entry.obj_id)
        elif entry.kind is FdKind.PIPE_R:
            pipe = self.k.pipes.get(entry.obj_id)
            if pipe is not None:
                pipe.readers -= 1
                self.k.touch("pipe:%d" % pipe.pipe_id)
                if pipe.readers <= 0 and pipe.writers <= 0:
                    del self.k.pipes[pipe.pipe_id]
        elif entry.kind is FdKind.PIPE_W:
            pipe = self.k.pipes.get(entry.obj_id)
            if pipe is not None:
                pipe.writers -= 1
                self.k.touch("pipe:%d" % pipe.pipe_id)
                if pipe.readers <= 0 and pipe.writers <= 0:
                    del self.k.pipes[pipe.pipe_id]
        elif entry.kind is FdKind.EPOLL:
            self.k.epolls.pop(entry.obj_id, None)
        proc.env.pop("file:%d" % fd, None)

    def dup(self, fd: int) -> int:
        self._enter()
        entry = self.proc.fdtable.get(fd)
        clone = FdEntry(entry.kind, entry.obj_id, entry.offset, entry.flags)
        new_fd = self.proc.fdtable.install(clone)
        self.k._ref_object(clone)
        self.k.touch("proc:%d" % self.pid)
        self.k._activity += 1
        if self.k.interceptor is not None:
            self.k.interceptor.on_dup(self.pid, fd, new_fd)
        return new_fd

    def dup2(self, fd: int, new_fd: int) -> int:
        self._enter()
        entry = self.proc.fdtable.get(fd)
        if new_fd in self.proc.fdtable.entries:
            self._close_fd(self.proc, new_fd)
        clone = FdEntry(entry.kind, entry.obj_id, entry.offset, entry.flags)
        self.proc.fdtable.install_at(new_fd, clone)
        self.k._ref_object(clone)
        self.k.touch("proc:%d" % self.pid)
        self.k._activity += 1
        if self.k.interceptor is not None:
            self.k.interceptor.on_dup(self.pid, fd, new_fd)
        return new_fd

    # -- readiness ---------------------------------------------------------------

    def _fd_readable(self, fd: int) -> bool:
        entry = self.proc.fdtable.entries.get(fd)
        if entry is None:
            return False
        if entry.kind is FdKind.SOCKET:
            return self.k.socket_readable(entry.obj_id)
        if entry.kind is FdKind.PIPE_R:
            pipe = self.k.pipes.get(entry.obj_id)
            return bool(pipe and (pipe.chunks or pipe.writers <= 0))
        if entry.kind is FdKind.FILE:
            return True
        return False

    def select(self, read_fds: List[int]) -> List[int]:
        self._enter()
        return [fd for fd in read_fds if self._fd_readable(fd)]

    def poll_fds(self, fds: List[int]) -> List[int]:
        """poll(2): same readiness semantics as select here."""
        return self.select(fds)

    def epoll_create(self) -> int:
        self._enter()
        eid = self.k.g.next_eid
        self.k.g.next_eid += 1
        self.k.epolls[eid] = EpollInstance(eid)
        self.k.touch("globals")
        self.k.touch("epoll:%d" % eid)
        fd = self.proc.fdtable.install(FdEntry(FdKind.EPOLL, eid))
        self.k._activity += 1
        return fd

    def _epoll_for_fd(self, epfd: int) -> EpollInstance:
        entry = self.proc.fdtable.get(epfd)
        if entry.kind is not FdKind.EPOLL:
            raise GuestError(Errno.EINVAL, "fd %d is not an epoll fd" % epfd)
        return self.k.epolls[entry.obj_id]

    def epoll_ctl_add(self, epfd: int, fd: int, events: int = EPOLLIN,
                      data: int = 0) -> None:
        self._enter()
        self._epoll_for_fd(epfd).ctl_add(fd, events, data)
        self.k.touch("epoll:%d" % self._epoll_for_fd(epfd).eid)

    def epoll_ctl_del(self, epfd: int, fd: int) -> None:
        self._enter()
        ep = self._epoll_for_fd(epfd)
        ep.ctl_del(fd)
        self.k.touch("epoll:%d" % ep.eid)

    def epoll_wait(self, epfd: int, max_events: int = 64) -> List[EpollEvent]:
        self._enter()
        ep = self._epoll_for_fd(epfd)
        events = []
        for fd in ep.watched_fds():
            if (ep.interest.get(fd, 0) & EPOLLIN) and self._fd_readable(fd):
                events.append(EpollEvent(fd, EPOLLIN, ep.userdata.get(fd, 0)))
                if len(events) >= max_events:
                    break
        return events

    # -- pipes & processes ----------------------------------------------------

    def pipe(self) -> Tuple[int, int]:
        self._enter()
        pipe_id = self.k.g.next_pipe
        self.k.g.next_pipe += 1
        self.k.pipes[pipe_id] = Pipe(pipe_id, readers=0, writers=0)
        self.k.touch("globals")
        r = self.proc.fdtable.install(FdEntry(FdKind.PIPE_R, pipe_id))
        w = self.proc.fdtable.install(FdEntry(FdKind.PIPE_W, pipe_id))
        self.k.pipes[pipe_id].readers = 1
        self.k.pipes[pipe_id].writers = 1
        self.k.touch("pipe:%d" % pipe_id)
        self.k._activity += 1
        return r, w

    def fork_child(self, program: Program) -> int:
        """Spawn a connection-handler child inheriting this fd table."""
        self._enter()
        child = self.k.fork_child(self.proc, program)
        if self.k.interceptor is not None:
            self.k.interceptor.on_fork(self.pid, child.pid)
        return child.pid

    def exit(self, code: int = 0) -> None:
        self._enter()
        self.k.exit_process(self.proc, code)

    # -- filesystem -------------------------------------------------------------

    def open(self, path: str, create: bool = False) -> int:
        self._enter()
        if not self.k.fs.exists(path):
            if not create:
                raise GuestError(Errno.ENOENT, path)
            self.k.fs.create(path)
            self.k.touch("fs")
        fd = self.proc.fdtable.install(FdEntry(FdKind.FILE, 0))
        self.proc.env["file:%d" % fd] = path
        self.k.touch("proc:%d" % self.pid)
        self.k._activity += 1
        return fd

    def unlink(self, path: str) -> None:
        self._enter()
        self.k.fs.unlink(path)
        self.k.touch("fs")
        self.k._activity += 1

    def file_exists(self, path: str) -> bool:
        self._enter()
        return self.k.fs.exists(path)

    def read_whole_file(self, path: str) -> bytes:
        self._enter()
        return self.k.fs.read_file(self.k.machine.disk, path)

    def write_whole_file(self, path: str, data: bytes) -> None:
        self._enter()
        self.k.fs.write_file(self.k.machine.disk, path, data, append=False)
        self.k.touch("fs")
        self.k._activity += 1
