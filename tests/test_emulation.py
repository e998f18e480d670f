"""Integration tests: emulation layer + executor + snapshot fuzzing."""

import pytest

from repro.emu.interceptor import Interceptor
from repro.emu.surface import AttackSurface
from repro.fuzz.campaign import build_campaign
from repro.fuzz.executor import NyxExecutor
from repro.fuzz.input import FuzzInput, packets_input
from repro.guestos.kernel import Kernel
from repro.spec.bytecode import Op
from repro.targets.lightftp import PROFILE as LIGHTFTP
from repro.targets.dnsmasq import PROFILE as DNSMASQ
from repro.targets.mysql_client import PROFILE as MYSQL
from repro.vm.machine import Machine

from tests.helpers import EchoServer


def echo_campaign():
    """A machine with an echo server hooked by the emulation layer."""
    machine = Machine(memory_bytes=16 * 1024 * 1024)
    kernel = Kernel(machine)
    interceptor = Interceptor(kernel, AttackSurface.tcp_server(7))
    kernel.spawn(EchoServer(7))
    kernel.run()
    kernel.flush_to_memory(full=True)
    machine.capture_root()
    executor = NyxExecutor(machine, kernel, interceptor, tracer=None)
    return machine, kernel, interceptor, executor


class TestInterceptor:
    def test_surface_listener_detected(self):
        _machine, kernel, interceptor, _executor = echo_campaign()
        assert len(interceptor.listener_sids) == 1

    def test_emulated_connection_and_packet(self):
        machine, kernel, interceptor, _executor = echo_campaign()
        interceptor.reset_for_test()
        interceptor.open_connection(0)
        interceptor.queue_packet(0, b"hello")
        kernel.run()
        assert interceptor.responses(0) == [b"1:hello"]

    def test_packet_boundaries_preserved(self):
        machine, kernel, interceptor, _executor = echo_campaign()
        interceptor.reset_for_test()
        interceptor.open_connection(0)
        interceptor.queue_packet(0, b"first")
        interceptor.queue_packet(0, b"second")
        kernel.run()
        # Two recv() calls, two packets: the §3.3 guarantee.
        assert interceptor.responses(0) == [b"1:first", b"2:second"]

    def test_no_nic_traffic_on_emulated_path(self):
        machine, kernel, interceptor, _executor = echo_campaign()
        interceptor.reset_for_test()
        interceptor.open_connection(0)
        interceptor.queue_packet(0, b"data")
        kernel.run()
        assert machine.devices.nic.rx_packets == 0

    def test_close_connection_delivers_eof(self):
        machine, kernel, interceptor, _executor = echo_campaign()
        interceptor.reset_for_test()
        interceptor.open_connection(0)
        interceptor.queue_packet(0, b"bye")
        interceptor.close_connection(0)
        kernel.run()
        server = next(p for p in kernel.processes.values())
        assert server.program.conns == []  # EOF seen, conn closed

    def test_first_read_flag_for_snapshot_placement(self):
        machine, kernel, interceptor, _executor = echo_campaign()
        assert not interceptor.saw_first_read
        interceptor.reset_for_test()
        interceptor.open_connection(0)
        interceptor.queue_packet(0, b"x")
        kernel.run()
        assert interceptor.saw_first_read

    def test_connection_limit(self):
        machine, kernel, interceptor, _executor = echo_campaign()
        interceptor.surface.max_connections = 2
        interceptor.reset_for_test()
        interceptor.open_connection(0)
        interceptor.open_connection(1)
        with pytest.raises(Exception):
            interceptor.open_connection(2)


class TestExecutor:
    def test_full_run_resets_state(self):
        machine, kernel, interceptor, executor = echo_campaign()
        inp = packets_input([b"a", b"b", b"c"])
        r1 = executor.run_full(inp)
        r2 = executor.run_full(inp)
        # Deterministic: the second run sees identical guest state.
        assert r1.packets_consumed == r2.packets_consumed == 3

    def test_snapshot_marker_op_creates_incremental(self):
        machine, kernel, interceptor, executor = echo_campaign()
        ops = [Op("connection"), Op("packet", (0,), (b"one",)),
               Op("snapshot"), Op("packet", (0,), (b"two",))]
        executor.run_full(FuzzInput(ops))
        assert machine.snapshots.chain_depth == 1
        assert executor.chain_resume_index(1) == 3

    def test_suffix_run_skips_prefix(self):
        machine, kernel, interceptor, executor = echo_campaign()
        inp = packets_input([b"p1", b"p2", b"p3", b"p4"])
        executor.run_full(inp, snapshot_after_packets=[1])
        child = inp.copy()
        child.with_payload(3, b"XX")
        result = executor.run_suffix(child)
        assert result.suffix_run
        # Only packets 3 and 4 were replayed.
        assert result.packets_consumed == 2
        # The echo counter continued from the snapshot point (2).
        assert interceptor.responses(0)[-1].startswith(b"4:")

    def test_suffix_runs_are_repeatable(self):
        machine, kernel, interceptor, executor = echo_campaign()
        inp = packets_input([b"p1", b"p2", b"p3"])
        executor.run_full(inp, snapshot_after_packets=[0])
        for _ in range(5):
            result = executor.run_suffix(inp)
            assert result.packets_consumed == 2
            assert interceptor.responses(0)[-1].startswith(b"3:")

    def test_finish_cycle_returns_to_root(self):
        machine, kernel, interceptor, executor = echo_campaign()
        inp = packets_input([b"p1", b"p2"])
        executor.run_full(inp, snapshot_after_packets=[0])
        executor.finish_snapshot_cycle()
        assert machine.snapshots.chain_depth == 0
        result = executor.run_full(inp)
        assert result.packets_consumed == 2

    def test_run_suffix_without_snapshot_raises(self):
        machine, kernel, interceptor, executor = echo_campaign()
        with pytest.raises(RuntimeError):
            executor.run_suffix(packets_input([b"x"]))

    def test_bad_connection_refs_are_noops(self):
        machine, kernel, interceptor, executor = echo_campaign()
        ops = [Op("connection"), Op("packet", (0,), (b"ok",))]
        inp = FuzzInput(ops)
        inp.ops.append(Op("packet", (9,), (b"bad ref",)))
        result = executor.run_full(inp)
        assert result.crash is None


class TestCampaignIntegration:
    def test_lightftp_campaign_reaches_coverage(self):
        handles = build_campaign(LIGHTFTP, policy="balanced", seed=5,
                                 time_budget=5.0, max_execs=150)
        stats = handles.fuzzer.run_campaign()
        assert stats.execs == 150
        assert stats.final_edges > 50
        assert len(handles.fuzzer.corpus) >= 3

    def test_udp_target_campaign(self):
        handles = build_campaign(DNSMASQ, policy="none", seed=5,
                                 time_budget=5.0, max_execs=100)
        stats = handles.fuzzer.run_campaign()
        assert stats.final_edges > 30

    def test_client_mode_campaign(self):
        handles = build_campaign(MYSQL, policy="none", seed=5,
                                 time_budget=5.0, max_execs=100)
        stats = handles.fuzzer.run_campaign()
        assert stats.final_edges > 20

    def test_policies_are_deterministic(self):
        runs = []
        for _ in range(2):
            handles = build_campaign(LIGHTFTP, policy="aggressive", seed=11,
                                     time_budget=5.0, max_execs=120)
            stats = handles.fuzzer.run_campaign()
            runs.append((stats.execs, stats.final_edges,
                         len(handles.fuzzer.corpus)))
        assert runs[0] == runs[1]

    def test_incremental_snapshots_improve_throughput(self):
        results = {}
        for policy in ("none", "aggressive"):
            handles = build_campaign(LIGHTFTP, policy=policy, seed=2,
                                     time_budget=60.0, max_execs=400)
            stats = handles.fuzzer.run_campaign()
            results[policy] = stats.execs_per_second()
        assert results["aggressive"] > results["none"]
