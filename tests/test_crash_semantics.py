"""Tests for crash handling: hypercalls, process death, dedup."""

import pytest

from repro.baselines.aflnet import AflNetConfig, AflNetFuzzer
from repro.fuzz.campaign import build_campaign
from repro.fuzz.crash import CrashDatabase
from repro.fuzz.input import packets_input
from repro.guestos.errors import (CrashKind, CrashReport, Errno, GuestCrash,
                                  GuestError)
from repro.guestos.kernel import Kernel
from repro.guestos.process import Program
from repro.guestos.sockets import SockDomain, SockType
from repro.targets.tinydtls import PROFILE as TINYDTLS
from repro.vm.hypercall import Hypercall

from tests.helpers import make_machine


class CrashyServer(Program):
    """Crashes on the first recv containing 'BOOM'."""

    name = "crashy"

    def __init__(self, port=700):
        self.port = port
        self.fd = None
        self.conns = []

    def on_start(self, api):
        self.fd = api.socket(SockDomain.INET, SockType.STREAM)
        api.bind(self.fd, self.port)
        api.listen(self.fd)

    def poll(self, api):
        try:
            conn = api.accept(self.fd)
            self.conns.append(conn)
        except GuestError as err:
            if err.errno is not Errno.EAGAIN:
                raise
        for conn in self.conns:
            try:
                data = api.recv(conn)
            except GuestError as err:
                if err.errno is Errno.EAGAIN:
                    continue
                raise
            if b"BOOM" in data:
                raise GuestCrash(CrashKind.SEGV, "crashy-boom")


class DyingServer(Program):
    """Raises an unhandled syscall error (not a crash)."""

    name = "dying"

    def poll(self, api):
        api.recv(99)  # EBADF escapes: process dies like on SIGPIPE


def boot(program):
    machine = make_machine()
    kernel = Kernel(machine)
    proc = kernel.spawn(program)
    kernel.run()
    return machine, kernel, proc


class TestCrashFlow:
    def test_crash_emits_panic_hypercall(self):
        machine, kernel, proc = boot(CrashyServer())
        conn = kernel.external_connect(700)
        conn.send(b"BOOM")
        kernel.run()
        calls = [e.call for e in machine.drain_hypercalls()]
        assert Hypercall.PANIC in calls
        assert kernel.crash_reports[0].bug_id == "crashy-boom"

    def test_crashed_process_is_dead(self):
        machine, kernel, proc = boot(CrashyServer())
        conn = kernel.external_connect(700)
        conn.send(b"BOOM")
        kernel.run()
        assert not proc.alive
        assert proc.crashed
        assert proc.exit_code == -11

    def test_benign_input_no_crash(self):
        machine, kernel, proc = boot(CrashyServer())
        conn = kernel.external_connect(700)
        conn.send(b"hello")
        kernel.run()
        assert kernel.crash_reports == []
        assert proc.alive

    def test_unhandled_errno_kills_without_crash_report(self):
        machine, kernel, proc = boot(DyingServer())
        assert not proc.alive
        assert not proc.crashed
        assert proc.exit_code == int(Errno.EBADF)
        assert kernel.crash_reports == []
        assert any("died" in line for line in kernel.log)

    def test_campaign_keeps_no_panic_events(self):
        """Each exec's closing restore empties the hypercall log: the
        crash travels in ``kernel.crash_reports``, so the PANIC events
        would only pile up (seven of them after these 100 execs, when
        nothing emptied the log)."""
        handles = build_campaign(TINYDTLS, policy="balanced", seed=1,
                                 time_budget=1e9, max_execs=100)
        stats = handles.fuzzer.run_campaign()
        assert stats.crashes_found == 1
        assert handles.machine.drain_hypercalls() == []

    def test_baseline_campaign_keeps_no_panic_events(self):
        """The baselines restore after each exec too (19 events after
        these 150 AFLNet execs, when nothing emptied the log)."""
        fuzzer = AflNetFuzzer(TINYDTLS, AflNetConfig(
            seed=1, time_budget=1e9, max_execs=150))
        stats = fuzzer.run_campaign()
        assert stats.crashes_found == 1
        assert fuzzer.harness.machine.drain_hypercalls() == []

    def test_crash_kind_asan_only_classification(self):
        assert CrashKind.ASAN_HEAP_OVERFLOW.asan_only
        assert CrashKind.ASAN_OOB_READ.asan_only
        assert not CrashKind.SEGV.asan_only
        assert not CrashKind.NULL_DEREF.asan_only


class TestCrashDatabase:
    def report(self, bug="b1", kind=CrashKind.SEGV):
        return CrashReport(kind=kind, bug_id=bug, pid=1)

    def test_dedup_by_kind_and_bug(self):
        db = CrashDatabase()
        assert db.add(self.report(), packets_input([b"x"]), 1.0)
        assert not db.add(self.report(), packets_input([b"y"]), 2.0)
        assert db.records["segv:b1"].count == 2
        assert db.records["segv:b1"].found_at == 1.0

    def test_distinct_kinds_are_distinct_bugs(self):
        db = CrashDatabase()
        db.add(self.report(kind=CrashKind.SEGV), None, 1.0)
        db.add(self.report(kind=CrashKind.OOM), None, 2.0)
        assert len(db) == 2

    def test_contains_and_listing(self):
        db = CrashDatabase()
        db.add(self.report(), None, 0.5)
        assert "segv:b1" in db
        assert db.unique_bugs == ["segv:b1"]
