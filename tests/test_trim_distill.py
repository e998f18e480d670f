"""Tests for input trimming and corpus distillation."""

import pytest

from repro.emu.interceptor import Interceptor
from repro.emu.surface import AttackSurface
from repro.fuzz.executor import NyxExecutor
from repro.fuzz.input import packets_input
from repro.fuzz.trim import distill_corpus, trim_input
from repro.guestos.kernel import Kernel
from repro.coverage.tracer import TracerCore
from repro.targets.lightftp import LightFtpServer, PORT
from repro.vm.machine import Machine


@pytest.fixture()
def executor():
    machine = Machine(memory_bytes=32 * 1024 * 1024)
    kernel = Kernel(machine)
    interceptor = Interceptor(kernel, AttackSurface.tcp_server(PORT))
    kernel.spawn(LightFtpServer())
    kernel.run(max_rounds=256)
    kernel.flush_to_memory(full=True)
    machine.capture_root()
    return NyxExecutor(machine, kernel, interceptor, TracerCore())


class TestTrim:
    def test_redundant_packets_removed(self, executor):
        # Five identical NOOPs exercise nothing new after the first.
        bloated = packets_input([b"USER anonymous\r\n", b"PASS x\r\n"]
                                + [b"NOOP\r\n"] * 5)
        trimmed, execs = trim_input(executor, bloated,
                                    shrink_payloads=False)
        assert trimmed.num_packets < bloated.num_packets
        assert execs > 1

    def test_essential_packets_kept(self, executor):
        # Removing USER or PASS changes coverage (auth paths), so the
        # trimmed input must still log in.
        session = packets_input([b"USER anonymous\r\n", b"PASS x\r\n",
                                 b"PWD\r\n"])
        trimmed, _execs = trim_input(executor, session,
                                     shrink_payloads=False)
        payloads = [trimmed.payload_of(i) for i in trimmed.packet_indices()]
        assert any(p.startswith(b"USER") for p in payloads)
        assert any(p.startswith(b"PASS") for p in payloads)

    def test_trim_is_signature_preserving(self, executor):
        from repro.fuzz.trim import _signature
        original = packets_input([b"USER anonymous\r\n", b"PASS x\r\n",
                                  b"NOOP\r\n", b"NOOP\r\n"])
        trimmed, _ = trim_input(executor, original)
        sig_before = _signature(executor.run_full(original).trace)
        sig_after = _signature(executor.run_full(trimmed).trace)
        assert sig_before == sig_after

    def test_exec_budget_respected(self, executor):
        bloated = packets_input([b"NOOP\r\n"] * 10)
        _trimmed, execs = trim_input(executor, bloated, max_execs=5)
        assert execs <= 6  # baseline + budget


class TestDistill:
    def test_subset_covers_everything(self, executor):
        from repro.fuzz.trim import _signature  # noqa: F401 (import check)
        corpus = [
            packets_input([b"USER anonymous\r\n", b"PASS x\r\n", b"PWD\r\n"]),
            packets_input([b"USER anonymous\r\n", b"PASS x\r\n", b"PWD\r\n"]),
            packets_input([b"SYST\r\n"]),
            packets_input([b"USER anonymous\r\n", b"PASS x\r\n",
                           b"PASV\r\n", b"LIST\r\n"]),
        ]
        chosen = distill_corpus(executor, corpus)
        # The duplicate session must not survive distillation.
        assert len(chosen) < len(corpus)
        # Distilled set still reaches every edge of the original set.
        union_before = set()
        for input_ in corpus:
            union_before |= set(executor.run_full(input_).trace)
        union_after = set()
        for input_ in chosen:
            union_after |= set(executor.run_full(input_).trace)
        assert union_before <= union_after

    def test_empty_corpus(self, executor):
        assert distill_corpus(executor, []) == []


class TestMultiChannel:
    def test_two_connections_round_robin_channels(self):
        from repro.targets.firefox_ipc import PROFILE
        from tests.target_harness import TargetHarness
        harness = TargetHarness(PROFILE)
        harness.interceptor.reset_for_test()
        harness.interceptor.open_connection(0)
        harness.interceptor.open_connection(1)
        harness.kernel.run()
        sids = {harness.interceptor._conns[i].sid for i in (0, 1)}
        assert len(sids) == 2

    def test_firefox_two_channel_seed_executes(self):
        from repro.fuzz.campaign import build_campaign
        from repro.targets import PROFILES
        handles = build_campaign(PROFILES["firefox-ipc"], policy="none",
                                 seed=4, time_budget=1e9, max_execs=20)
        stats = handles.fuzzer.run_campaign()
        assert stats.execs == 20
