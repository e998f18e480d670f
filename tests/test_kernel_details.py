"""Deeper guest-kernel tests: fd semantics, fs, timers, serialization
corner cases."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.guestos.errors import Errno, GuestError
from repro.guestos.fds import FdEntry, FdKind, FdTable, MAX_FDS
from repro.guestos.fs import FileSystem
from repro.guestos.kernel import Kernel
from repro.guestos.process import Program
from repro.guestos.sockets import Socket, SockDomain, SockType
from repro.vm.machine import Machine

from tests.helpers import EchoServer, boot_echo, make_machine


class TestFdTable:
    def test_lowest_free_fd(self):
        table = FdTable()
        a = table.install(FdEntry(FdKind.SOCKET, 1))
        b = table.install(FdEntry(FdKind.SOCKET, 2))
        table.remove(a)
        c = table.install(FdEntry(FdKind.SOCKET, 3))
        assert c == a  # reused

    def test_table_full(self):
        table = FdTable()
        for _ in range(MAX_FDS):
            table.install(FdEntry(FdKind.FILE, 0))
        with pytest.raises(GuestError):
            table.install(FdEntry(FdKind.FILE, 0))

    def test_clone_independent(self):
        table = FdTable()
        fd = table.install(FdEntry(FdKind.SOCKET, 7))
        clone = table.clone()
        clone.remove(fd)
        assert fd in table.entries

    def test_fds_for(self):
        table = FdTable()
        a = table.install(FdEntry(FdKind.SOCKET, 7))
        b = table.install(FdEntry(FdKind.SOCKET, 7))
        table.install(FdEntry(FdKind.SOCKET, 8))
        assert sorted(table.fds_for(FdKind.SOCKET, 7)) == [a, b]


class TestSocketChunks:
    def socket(self, type_=SockType.STREAM):
        return Socket(sid=1, domain=SockDomain.INET, type=type_)

    def test_stream_short_read_keeps_remainder(self):
        sock = self.socket()
        sock.deliver(b"abcdef")
        data, _ = sock.take_chunk(4)
        assert data == b"abcd"
        data, _ = sock.take_chunk(4)
        assert data == b"ef"

    def test_datagram_short_read_truncates(self):
        sock = self.socket(SockType.DGRAM)
        sock.deliver(b"abcdef")
        data, _ = sock.take_chunk(4)
        assert data == b"abcd"
        with pytest.raises(GuestError):
            sock.take_chunk(4)  # datagram remainder discarded

    def test_eof_after_peer_close(self):
        sock = self.socket()
        sock.peer_closed = True
        data, _ = sock.take_chunk(10)
        assert data == b""

    def test_coalesce_merges_same_source_only(self):
        sock = self.socket()
        sock.deliver(b"a", source=1, coalesce=True)
        sock.deliver(b"b", source=1, coalesce=True)
        sock.deliver(b"c", source=2, coalesce=True)
        assert [c.data for c in sock.recv_buf] == [b"ab", b"c"]

    def test_readable_states(self):
        sock = self.socket()
        assert not sock.readable()
        sock.deliver(b"x")
        assert sock.readable()


class TestFileSystem:
    def test_append_across_sectors(self):
        machine = make_machine()
        fs = FileSystem()
        fs.write_file(machine.disk, "/f", b"a" * 600)
        fs.write_file(machine.disk, "/f", b"b" * 600, append=True)
        content = fs.read_file(machine.disk, "/f")
        assert content == b"a" * 600 + b"b" * 600

    def test_overwrite_frees_sectors(self):
        machine = make_machine()
        fs = FileSystem()
        fs.write_file(machine.disk, "/f", b"x" * 2048)
        fs.write_file(machine.disk, "/f", b"y")
        assert fs.file_size("/f") == 1
        assert len(fs.free_sectors) >= 3

    def test_unlink_recycles(self):
        machine = make_machine()
        fs = FileSystem()
        fs.write_file(machine.disk, "/f", b"data")
        fs.unlink("/f")
        assert not fs.exists("/f")
        with pytest.raises(GuestError):
            fs.read_file(machine.disk, "/f")

    def test_listdir_prefix(self):
        machine = make_machine()
        fs = FileSystem()
        for path in ("/srv/a", "/srv/b", "/etc/c"):
            fs.write_file(machine.disk, path, b"")
        assert fs.listdir("/srv") == ["/srv/a", "/srv/b"]

    def test_disk_full(self):
        machine = Machine(memory_bytes=1 << 20, disk_sectors=20)
        fs = FileSystem()
        with pytest.raises(GuestError) as exc:
            fs.write_file(machine.disk, "/big", b"z" * (40 * 512))
        assert exc.value.errno is Errno.ENOSPC

    @given(st.lists(st.binary(min_size=1, max_size=300), min_size=1,
                    max_size=10))
    @settings(max_examples=30)
    def test_append_property(self, chunks):
        machine = make_machine()
        fs = FileSystem()
        for chunk in chunks:
            fs.write_file(machine.disk, "/log", chunk, append=True)
        assert fs.read_file(machine.disk, "/log") == b"".join(chunks)


class TickerProgram(Program):
    """Background-noise program: counts timer fires."""

    name = "ticker"
    timer_period = 0.5

    def __init__(self):
        self.ticks = 0

    def on_timer(self, api):
        self.ticks += 1


class StampingTimer(Program):
    """Charges 1 ms per callback and stamps it, with its pid and the
    sim clock, into the kernel's host-side log; its second timer tick
    fails with EPIPE."""

    name = "stamping-timer"

    def __init__(self, period):
        self.timer_period = period
        self.ticks = 0

    def _stamp(self, api, what):
        api.cpu(1e-3)
        api.k.log.append("%s %d %r" % (what, api.getpid(),
                                       api.k.machine.clock.now))

    def on_start(self, api):
        self._stamp(api, "start")

    def poll(self, api):
        self._stamp(api, "poll")

    def on_timer(self, api):
        self.ticks += 1
        self._stamp(api, "timer")
        if self.ticks == 2:
            raise GuestError(Errno.EPIPE, "tick")


class TestTimers:
    def test_timers_fire_with_advancing_clock(self):
        machine = make_machine()
        kernel = Kernel(machine)
        proc = kernel.spawn(TickerProgram())
        kernel.run()
        assert proc.program.ticks == 0
        machine.clock.charge(2.0)  # e.g. AFLNet-style sleeps
        kernel.run()
        assert proc.program.ticks >= 1

    def test_snapshot_mode_keeps_timers_quiet(self):
        """Nyx's short executions barely advance time, so background
        timers (the paper's 'noise') rarely fire."""
        machine = make_machine()
        kernel = Kernel(machine)
        proc = kernel.spawn(TickerProgram())
        kernel.run()
        machine.clock.charge(0.001)  # one fast emulated exec
        kernel.run()
        assert proc.program.ticks == 0

    def test_two_processes_pin_timer_order_and_the_sim_clock(self):
        """Each round fires the due timers in process-table order, then
        steps every live process in pid order; a timer's unhandled
        syscall error kills its process."""
        machine = make_machine()
        kernel = Kernel(machine)
        kernel.g.next_pid = 9
        kernel.spawn(StampingTimer(0.5))
        kernel.spawn(StampingTimer(0.3))
        # A reload rebuilds the table in component-key order, and
        # "proc:10" sorts before "proc:9".
        kernel.flush_to_memory(full=True)
        kernel.reload_from_memory()
        assert list(kernel.processes) == [10, 9]
        productive = [kernel.run()]
        for _ in range(2):
            machine.clock.charge(1.0)
            productive.append(kernel.run())
        assert productive == [2, 2, 2]
        assert kernel.log == [
            "start 9 0.001", "poll 9 0.002",
            "start 10 0.003", "poll 10 0.004",
            "poll 9 0.005", "poll 10 0.006",
            "timer 10 1.007", "timer 9 1.0079999999999998",
            "poll 9 1.0089999999999997", "poll 10 1.0099999999999996",
            "poll 9 1.0109999999999995", "poll 10 1.0119999999999993",
            "timer 10 2.0129999999999995", "pid 10 timer died on EPIPE: tick",
            "timer 9 2.0139999999999993", "pid 9 timer died on EPIPE: tick",
        ]
        assert machine.clock.now == 2.0139999999999993
        assert [kernel.processes[pid].exit_code for pid in (9, 10)] == [
            int(Errno.EPIPE)] * 2


class TestSerializationEdgeCases:
    def test_many_components_roundtrip(self):
        machine = make_machine()
        kernel = Kernel(machine)
        for port in range(20, 30):
            kernel.spawn(EchoServer(port))
        kernel.run()
        kernel.flush_to_memory(full=True)
        kernel.reload_from_memory()
        assert len(kernel.processes) == 10
        assert len(kernel.g.tcp_bindings) == 10

    def test_component_growth_reallocates_region(self):
        machine = make_machine()
        kernel = Kernel(machine)
        proc = kernel.spawn(EchoServer(31))
        kernel.run()
        kernel.flush_to_memory(full=True)
        # Grow the program's state well past its original region.
        proc.program.seen = [b"x" * 1000] * 50
        kernel.touch("proc:%d" % proc.pid)
        kernel.flush_to_memory()
        kernel.reload_from_memory()
        reloaded = kernel.processes[proc.pid]
        assert len(reloaded.program.seen) == 50

    def test_removed_component_disappears_after_reload(self):
        machine = make_machine()
        kernel = Kernel(machine)
        proc = kernel.spawn(EchoServer(32))
        kernel.run()
        kernel.flush_to_memory(full=True)
        api = kernel.api_for(proc.pid)
        sid = proc.fdtable.get(proc.program.listen_fd).obj_id
        assert "sock:%d" % sid in kernel._regions
        api.close(proc.program.listen_fd)
        kernel.flush_to_memory()
        kernel.reload_from_memory()
        assert "sock:%d" % sid not in kernel._regions
        assert sid not in kernel.sockets


class TestReloadReuse:
    """The one reload rule: a component's host object is reused when it
    was not touched since the last flush and its restored bytes equal
    the blob that flush cached; every other component is unpickled."""

    def test_unchanged_component_is_reused_changed_one_rebuilt(self):
        machine, kernel = boot_echo(41)
        fs = kernel.fs
        conn = kernel.external_connect(41)
        conn.send(b"hello")
        kernel.run()
        proc = kernel.processes[1]
        assert proc.program.seen == [b"hello"]
        kernel.flush_to_memory()
        machine.restore_root()
        assert kernel.fs is fs
        assert kernel.processes[1] is not proc
        assert kernel.processes[1].program.seen == []

    def test_touched_component_is_rebuilt_without_a_flush(self):
        # A fleet worker's recovery restores without flushing first:
        # the fs blob in memory still equals the cache, but the host
        # object drifted and was marked touched.
        machine, kernel = boot_echo(42)
        kernel.fs.create("/drift")
        kernel.touch("fs")
        machine.restore_root()
        assert not kernel.fs.exists("/drift")

    def test_restore_rewinds_the_bump_pointer_and_process_table(self):
        machine, kernel = boot_echo(43)
        bump = machine.allocator.state()
        kernel.spawn(EchoServer(44))
        kernel.run()
        kernel.flush_to_memory()
        assert machine.allocator.state() > bump
        machine.restore_root()
        assert machine.allocator.state() == bump
        assert sorted(kernel.processes) == [1]
