"""Tests for the Machine facade and misc KernelApi calls."""

import pytest

from repro.guestos.errors import Errno, GuestError
from repro.guestos.kernel import Kernel
from repro.vm.hypercall import Hypercall
from repro.vm.machine import Machine
from repro.vm.memory import PAGE_SIZE

from tests.helpers import EchoServer, make_machine


class TestMachine:
    def test_hypercall_log_and_handler(self):
        machine = Machine(memory_bytes=64 * PAGE_SIZE)
        seen = []
        machine.set_hypercall_handler(lambda e: seen.append(e.call))
        machine.hypercall(Hypercall.RELEASE, status="done")
        assert seen == [Hypercall.RELEASE]
        log = machine.drain_hypercalls()
        assert log[0].payload == {"status": "done"}
        assert machine.drain_hypercalls() == []

    def test_restore_empties_the_hypercall_log(self):
        machine = Machine(memory_bytes=64 * PAGE_SIZE)
        machine.capture_root()
        machine.hypercall(Hypercall.PANIC, report="first")
        machine.restore_root()
        machine.hypercall(Hypercall.PANIC, report="second")
        assert [e.payload for e in machine.drain_hypercalls()] == [
            {"report": "second"}]
        machine.hypercall(Hypercall.PANIC, report="third")
        machine.create_incremental()
        machine.restore_incremental()
        assert machine.drain_hypercalls() == []

    def test_hypercall_charges_vm_exit(self):
        machine = Machine(memory_bytes=64 * PAGE_SIZE)
        t0 = machine.clock.now
        machine.hypercall(Hypercall.RELEASE)
        assert machine.clock.now > t0

    def test_on_restore_callbacks_fire(self):
        machine = Machine(memory_bytes=64 * PAGE_SIZE)
        fired = []
        machine.on_restore(lambda: fired.append(1))
        machine.capture_root()
        machine.restore_root()
        machine.create_incremental()
        machine.restore_incremental()
        assert len(fired) == 2

    def test_stats_merge(self):
        machine = Machine(memory_bytes=64 * PAGE_SIZE)
        machine.capture_root()
        machine.memory.write(0, b"x")
        machine.restore_root()
        stats = machine.stats()
        assert stats["root_restores"] == 1
        assert stats["total_pages"] == 64
        assert stats["pages_ever_dirtied"] >= 1


class TestMiscApi:
    def setup_method(self):
        self.machine = make_machine()
        self.kernel = Kernel(self.machine)
        self.proc = self.kernel.spawn(EchoServer(50))
        self.kernel.run()
        self.api = self.kernel.api_for(self.proc.pid)

    def test_sleep_advances_clock_and_rtc(self):
        rtc_before = self.machine.devices.rtc.epoch_us
        t0 = self.machine.clock.now
        self.api.sleep(1.5)
        assert self.machine.clock.now - t0 >= 1.5
        assert self.machine.devices.rtc.epoch_us - rtc_before == 1_500_000

    def test_time_reads_rtc(self):
        before = self.api.time()
        self.api.sleep(2.0)
        assert self.api.time() - before == pytest.approx(2.0, abs=0.01)

    def test_log_writes_serial(self):
        self.api.log("booted")
        assert b"booted\n" in b"".join(self.machine.devices.serial.tx_buffer)

    def test_getpid(self):
        assert self.api.getpid() == self.proc.pid

    def test_select_and_poll_agree(self):
        fd = self.proc.program.listen_fd
        assert self.api.select([fd, 123]) == self.api.poll_fds([fd, 123])

    def test_dup2_replaces_target(self):
        fd = self.proc.program.listen_fd
        new_fd = self.api.dup(fd)
        other = self.api.dup2(fd, new_fd)
        assert other == new_fd
        self.api.close(new_fd)
        # Original still functional.
        assert self.kernel.external_connect(50)

    def test_exit_closes_everything(self):
        self.api.exit(0)
        assert not self.proc.alive
        assert len(self.proc.fdtable) == 0
        with pytest.raises(GuestError) as exc:
            self.kernel.external_connect(50)
        assert exc.value.errno is Errno.ECONNREFUSED
