"""Fault injection, watchdog, self-healing snapshots and supervision.

Covers the robustness layer end to end: deterministic fault plans, the
injector's decision stream, guest-visible network faults absorbed by
target retry paths, checksum-validated incremental snapshots healing
from injected corruption, the per-exec watchdog, worker supervision in
parallel campaigns, and the atomic-persistence / tolerant-pcap /
fastest-reproducer satellites.
"""

import json
import pathlib

import pytest

from repro.emu.interceptor import Interceptor
from repro.emu.surface import AttackSurface
from repro.faults import FaultInjector, FaultKind, FaultPlan
from repro.faults.plan import PlanError
from repro.fuzz import parallel
from repro.fuzz.campaign import build_campaign, build_parallel_campaign
from repro.fuzz.crash import CrashDatabase
from repro.fuzz.executor import NyxExecutor
from repro.fuzz.input import packets_input
from repro.fuzz.queue import Corpus
from repro.guestos.errors import CrashKind, CrashReport
from repro.guestos.kernel import Kernel
from repro.sim.rng import DeterministicRandom
from repro.targets import PROFILES
from repro.vm.machine import Machine
from repro.vm.snapshot import SnapshotCorruption

from tests.helpers import EchoServer


def echo_rig(exec_timeout=None, fault_rate=0.0, fault_seed=0):
    """Echo server + interceptor + executor with an armed injector."""
    machine = Machine(memory_bytes=16 * 1024 * 1024)
    kernel = Kernel(machine)
    interceptor = Interceptor(kernel, AttackSurface.tcp_server(7))
    kernel.spawn(EchoServer(7))
    kernel.run()
    kernel.flush_to_memory(full=True)
    machine.capture_root()
    executor = NyxExecutor(machine, kernel, interceptor, tracer=None,
                           exec_timeout=exec_timeout)
    injector = FaultInjector(FaultPlan(seed=fault_seed, rate=fault_rate))
    interceptor.injector = injector
    machine.snapshots.injector = injector
    return machine, kernel, interceptor, executor, injector


# ----------------------------------------------------------------------
# fault plans
# ----------------------------------------------------------------------


class TestFaultPlan:
    def test_plan_id_round_trip(self):
        plan = FaultPlan.for_campaign(seed=123, rate=0.1)
        assert plan.plan_id == "fp1:123:100000"
        assert FaultPlan.from_id(plan.plan_id) == FaultPlan(seed=123, rate=0.1)

    def test_bad_plan_ids_raise(self):
        for bad in ("fp2:1:2", "fp1:1", "fp1:x:y", "garbage", ""):
            with pytest.raises(PlanError):
                FaultPlan.from_id(bad)

    def test_validation(self):
        with pytest.raises(PlanError):
            FaultPlan(rate=1.5)
        with pytest.raises(PlanError):
            FaultPlan(seed=-1)

    def test_worker_plans_decouple(self):
        base = FaultPlan.for_campaign(seed=5, rate=0.2)
        w0, w1 = base.for_worker(0), base.for_worker(1)
        assert w0.seed != w1.seed != base.seed
        assert w0.rate == w1.rate == 0.2
        # Derivation is deterministic.
        assert base.for_worker(0) == w0

    def test_derived_rates(self):
        plan = FaultPlan(rate=0.2)
        assert plan.recv_rate == 0.2
        assert plan.send_rate == plan.readiness_rate == plan.snapshot_rate == 0.1


class TestInjectorDeterminism:
    def test_same_plan_same_stream(self):
        plan = FaultPlan(seed=42, rate=0.5)
        a, b = FaultInjector(plan), FaultInjector(plan)
        stream_a = [a.recv_fault() for _ in range(200)]
        stream_b = [b.recv_fault() for _ in range(200)]
        assert stream_a == stream_b
        assert a.faults_injected == b.faults_injected > 0
        assert a.by_kind == b.by_kind

    def test_forced_faults_precede_dice(self):
        injector = FaultInjector(FaultPlan(seed=0, rate=0.0))
        injector.force_next(FaultKind.CONN_RESET)
        assert injector.recv_fault() is FaultKind.CONN_RESET
        # Rate 0 and no forced fault left: the stream is silent.
        assert all(injector.recv_fault() is None for _ in range(50))

    def test_zero_rate_injects_nothing(self):
        injector = FaultInjector(FaultPlan(seed=9, rate=0.0))
        for _ in range(100):
            assert injector.recv_fault() is None
            assert injector.send_fault() is None
            assert not injector.delay_readiness()
        assert injector.faults_injected == 0


# ----------------------------------------------------------------------
# guest-visible network faults and the targets' retry paths
# ----------------------------------------------------------------------


class TestNetworkFaultRetryPaths:
    def test_eagain_burst_is_absorbed(self):
        """Spurious EAGAINs make the guest re-poll, not lose data
        (guestos sockets + EchoServer retry path)."""
        _m, _k, _i, executor, injector = echo_rig()
        injector.force_next(FaultKind.EAGAIN_BURST)
        result = executor.run_full(packets_input([b"hello", b"world"]))
        assert result.crash is None
        assert result.packets_consumed == 2
        assert injector.by_kind.get("eagain-burst", 0) >= 1

    def test_conn_reset_drops_connection_not_target(self):
        _m, _k, _i, executor, injector = echo_rig()
        injector.force_next(FaultKind.CONN_RESET)
        result = executor.run_full(packets_input([b"hello", b"world"]))
        # The reset clears the pending queue; the target survives.
        assert result.crash is None
        assert result.packets_consumed < 2
        assert injector.by_kind.get("conn-reset") == 1

    def test_short_read_splits_packets(self):
        _m, _k, _i, executor, injector = echo_rig()
        injector.force_next(FaultKind.SHORT_READ)
        result = executor.run_full(packets_input([b"0123456789abcdef"]))
        assert result.crash is None
        # The packet arrives in more than one recv; the remainder is
        # requeued and eventually consumed.
        assert result.packets_consumed >= 2

    def test_partial_send_truncates_response(self):
        _m, _k, interceptor, executor, injector = echo_rig()
        # Let the echo run once un-faulted to learn the response size.
        clean = executor.run_full(packets_input([b"payload-abcdef"]))
        assert clean.crash is None
        injector.force_next(FaultKind.PARTIAL_SEND)
        result = executor.run_full(packets_input([b"payload-abcdef"]))
        assert result.crash is None
        assert injector.by_kind.get("partial-send") == 1

    def test_message_server_survives_fault_soup(self):
        """A real MessageServer target (targets/base.py retry paths)
        absorbs a mixed forced-fault sequence without crashing."""
        handles = build_campaign(PROFILES["lightftp"], policy="none",
                                 seed=0, time_budget=1e9, max_execs=10)
        injector = FaultInjector(FaultPlan(seed=0, rate=0.0))
        handles.interceptor.injector = injector
        handles.machine.snapshots.injector = injector
        injector.force_next(FaultKind.EAGAIN_BURST, FaultKind.SHORT_READ,
                            FaultKind.CONN_RESET, FaultKind.EAGAIN_BURST)
        seed_input = PROFILES["lightftp"].seeds()[1]
        result = handles.executor.run_full(seed_input)
        assert result.crash is None
        assert injector.faults_injected >= 4

    def test_delayed_readiness_defers_but_delivers(self):
        # Needs a select()-driven target (the echo helper recvs
        # speculatively and never consults readiness).
        handles = build_campaign(PROFILES["lightftp"], policy="none",
                                 seed=0, time_budget=1e9, max_execs=10)
        injector = FaultInjector(FaultPlan(seed=0, rate=0.0))
        handles.interceptor.injector = injector
        handles.machine.snapshots.injector = injector
        injector.force_next(FaultKind.DELAYED_READINESS)
        result = handles.executor.run_full(PROFILES["lightftp"].seeds()[0])
        assert result.crash is None
        assert injector.by_kind.get("delayed-ready", 0) >= 1
        assert result.packets_consumed > 0


# ----------------------------------------------------------------------
# watchdog
# ----------------------------------------------------------------------


class TestWatchdog:
    def test_stall_trips_the_watchdog(self):
        # stall_seconds (0.05) > exec_timeout (0.01): one stall is
        # enough to blow the budget.
        _m, _k, _i, executor, injector = echo_rig(exec_timeout=0.01)
        injector.force_next(FaultKind.STALL)
        result = executor.run_full(packets_input([b"a", b"b", b"c"]))
        assert result.timed_out
        assert result.exec_time >= 0.01

    def test_no_timeout_without_budget(self):
        _m, _k, _i, executor, injector = echo_rig(exec_timeout=None)
        injector.force_next(FaultKind.STALL, FaultKind.STALL)
        result = executor.run_full(packets_input([b"a", b"b"]))
        assert not result.timed_out

    def test_watchdog_cleared_between_runs(self):
        """A timed-out run must not poison the next one: the kernel
        watchdog is uninstalled at the end of every execution."""
        _m, kernel, _i, executor, injector = echo_rig(exec_timeout=0.01)
        injector.force_next(FaultKind.STALL)
        assert executor.run_full(packets_input([b"x"])).timed_out
        assert kernel.watchdog is None
        clean = executor.run_full(packets_input([b"hello"]))
        assert not clean.timed_out
        assert clean.packets_consumed == 1

    def test_timeouts_counted_not_fuzzed_from(self):
        handles = build_campaign(PROFILES["lightftp"], policy="none", seed=3,
                                 time_budget=20.0, max_execs=150,
                                 fault_rate=0.2, exec_timeout=0.02)
        stats = handles.fuzzer.run_campaign()
        assert stats.timeouts > 0
        assert stats.execs >= stats.timeouts


# ----------------------------------------------------------------------
# self-healing snapshots
# ----------------------------------------------------------------------


class TestSelfHealingSnapshots:
    def corrupted_restore_rig(self):
        machine, kernel, _i, executor, injector = echo_rig()[0:5]
        return machine, kernel, executor, injector

    def test_bitflip_detected_and_healed_to_root(self):
        machine, kernel, _e, injector = self.corrupted_restore_rig()
        # Dirty guest state past the root, then snapshot it.
        kernel.fs.write_file(machine.disk, "/state", b"A" * 5000)
        kernel.touch("fs")
        kernel.flush_to_memory()
        machine.create_incremental()
        assert machine.snapshots.mirror_private_pages()
        injector.force_next(FaultKind.SNAPSHOT_BITFLIP)
        with pytest.raises(SnapshotCorruption):
            machine.restore_incremental()
        assert machine.snapshots.chain_depth == 0
        assert machine.snapshots.stats.corruption_detected == 1
        # The root is untouched and restores cleanly.
        machine.restore_root()

    def test_reset_for_next_test_falls_back_to_root(self):
        machine, kernel, _e, injector = self.corrupted_restore_rig()
        kernel.fs.write_file(machine.disk, "/state", b"B" * 5000)
        kernel.touch("fs")
        kernel.flush_to_memory()
        machine.create_incremental()
        injector.force_next(FaultKind.SNAPSHOT_BITFLIP)
        machine.reset_for_next_test()  # must not raise
        assert machine.snapshot_corruptions == 1
        assert machine.snapshots.chain_depth == 0

    def test_bitflip_never_touches_shared_root_pages(self):
        machine, kernel, _e, injector = self.corrupted_restore_rig()
        kernel.fs.write_file(machine.disk, "/state", b"C" * 5000)
        kernel.touch("fs")
        kernel.flush_to_memory()
        machine.create_incremental()
        root_page_ids = {id(p) for p in machine.snapshots.root.pages}
        for idx in machine.snapshots.mirror_private_pages():
            assert (id(machine.snapshots._layer1.mirror[idx])
                    not in root_page_ids)
        injector.force_next(FaultKind.SNAPSHOT_BITFLIP)
        injector.on_incremental_restore(machine.snapshots)
        # Root page contents unchanged by the flip.
        assert {id(p) for p in machine.snapshots.root.pages} == root_page_ids

    def test_executor_rebuilds_incremental_after_corruption(self):
        handles = build_campaign(PROFILES["lightftp"], policy="none",
                                 seed=0, time_budget=1e9, max_execs=1000)
        injector = FaultInjector(FaultPlan(seed=0, rate=0.0))
        handles.interceptor.injector = injector
        handles.machine.snapshots.injector = injector
        seed_input = PROFILES["lightftp"].seeds()[1]  # 7 packets
        handles.executor.run_full(seed_input, snapshot_after_packets=[4])
        resume = handles.executor.chain_resume_index(1)
        assert resume is not None
        # Corrupt the *next* incremental restore; the suffix run after
        # it must transparently rebuild from the root.
        injector.force_next(FaultKind.SNAPSHOT_BITFLIP)
        handles.executor.run_suffix(seed_input)  # restore poisoned at reset
        result = handles.executor.run_suffix(seed_input)
        assert result.suffix_run
        assert handles.executor.snapshot_rebuilds >= 1
        assert not handles.executor.degraded_root_only
        assert handles.machine.snapshot_corruptions >= 1

    def test_degrades_to_root_only_after_repeated_failures(self):
        handles = build_campaign(PROFILES["lightftp"], policy="none",
                                 seed=0, time_budget=1e9, max_execs=1000)
        seed_input = PROFILES["lightftp"].seeds()[1]
        handles.executor.run_full(seed_input, snapshot_after_packets=[4])
        # Amputate the rebuild recipe and kill the snapshot: healing
        # cannot succeed, so the executor must degrade, not loop.
        handles.executor._chain_nodes[-1].base_input = None
        handles.machine.snapshots.discard_chain()
        result = handles.executor.run_suffix(seed_input)
        assert handles.executor.degraded_root_only
        assert not result.suffix_run  # ran from the root instead


# ----------------------------------------------------------------------
# worker supervision (parallel campaigns)
# ----------------------------------------------------------------------


def tiny_parallel_campaign(monkeypatch, backoff=0.0):
    # Zero backoff keeps a failing worker schedulable within the tiny
    # exec budget (the real default would starve it of slices, which is
    # the intended production behaviour but not what these tests pin).
    monkeypatch.setattr(parallel, "FAILURE_BACKOFF", backoff)
    return build_parallel_campaign(PROFILES["lighttpd"], workers=2,
                                   policy="none", seed=1, time_budget=3.0,
                                   max_total_execs=300)


class TestWorkerSupervision:
    def test_flaky_worker_is_retried_and_survives(self, monkeypatch):
        campaign = tiny_parallel_campaign(monkeypatch)
        victim = campaign.workers[0]
        real_step = victim.fuzzer.step
        blows = {"left": 2}

        def flaky_step():
            if blows["left"] > 0:
                blows["left"] -= 1
                raise RuntimeError("injected worker failure")
            return real_step()

        victim.fuzzer.step = flaky_step
        aggregate = campaign.run()
        assert aggregate.merged.worker_failures == 2
        assert not victim.retired
        # Both workers still executed work.
        assert all(w.fuzzer.stats.execs > 0 for w in campaign.workers)

    def test_hopeless_worker_is_retired_campaign_continues(self,
                                                          monkeypatch):
        campaign = tiny_parallel_campaign(monkeypatch)
        victim = campaign.workers[0]

        def always_raises():
            raise RuntimeError("injected permanent failure")

        victim.fuzzer.step = always_raises
        aggregate = campaign.run()
        assert victim.retired and victim.done
        assert campaign.retired_workers() == [victim.worker_id]
        # Retries are bounded.
        assert (victim.fuzzer.stats.worker_failures
                == parallel.MAX_WORKER_RETRIES + 1)
        # The surviving worker carried the campaign.
        assert campaign.workers[1].fuzzer.stats.execs > 0

    def test_backoff_charges_failing_worker_clock(self, monkeypatch):
        campaign = tiny_parallel_campaign(monkeypatch, backoff=0.5)
        victim = campaign.workers[0]
        before = victim.fuzzer.clock.now
        campaign._handle_worker_failure(victim)
        assert victim.fuzzer.clock.now > before

    def test_recovery_drops_the_whole_chain(self, monkeypatch):
        campaign = tiny_parallel_campaign(monkeypatch)
        victim = campaign.workers[0]
        seed_input = PROFILES["lighttpd"].seeds()[0]
        victim.executor.run_full(seed_input, snapshot_after_packets=[0])
        assert victim.executor.chain_node_count == 1
        campaign._handle_worker_failure(victim)
        # Executor and snapshot manager agree: no chain node survives.
        assert victim.executor.chain_node_count == 0
        assert victim.machine.snapshots.chain_depth == 0

    def test_killer_entry_is_quarantined_fleet_wide(self, monkeypatch):
        campaign = tiny_parallel_campaign(monkeypatch)
        for worker in campaign.workers:
            worker.fuzzer.begin_campaign()
        victim = campaign.workers[0]
        entry = victim.fuzzer.corpus.entries[0]
        assert entry.checksum is not None
        sizes_before = [len(w.fuzzer.corpus) for w in campaign.workers]
        victim.fuzzer.last_entry = entry
        for _ in range(parallel.QUARANTINE_THRESHOLD):
            campaign._handle_worker_failure(victim)
        for worker, before in zip(campaign.workers, sizes_before):
            assert len(worker.fuzzer.corpus) < before
        assert victim.fuzzer.stats.quarantined_inputs == 1
        # Quarantined behaviour cannot sneak back in via corpus sync.
        assert entry.checksum in victim.fuzzer.corpus._seen_checksums

    def test_corpus_remove_keeps_cursor_consistent(self):
        corpus = Corpus(DeterministicRandom(0))
        entries = [corpus.add(packets_input([b"p%d" % i]), checksum=i)
                   for i in range(4)]
        corpus._cursor = 3
        assert corpus.remove(entries[0].entry_id)
        assert corpus._cursor == 2
        assert not corpus.remove(999)
        assert corpus.remove_by_checksum(2) == 1
        assert len(corpus) == 2
        # Scheduling still works after removals.
        assert corpus.next_entry() is not None


# ----------------------------------------------------------------------
# end-to-end acceptance: faulty campaign completes, deterministically
# ----------------------------------------------------------------------


class TestFaultCampaignAcceptance:
    def faulty_stats(self):
        handles = build_campaign(PROFILES["lightftp"], policy="aggressive",
                                 seed=0, time_budget=50.0, max_execs=400,
                                 fault_rate=0.1, exec_timeout=0.05)
        return handles.fuzzer.run_campaign()

    def test_campaign_reports_nonzero_robustness_counters(self):
        stats = self.faulty_stats()
        assert stats.timeouts > 0
        assert stats.faults_injected > 0
        assert stats.snapshot_rebuilds > 0
        d = stats.as_dict()
        for key in ("timeouts", "faults_injected", "snapshot_rebuilds",
                    "degraded_root_only", "worker_failures",
                    "quarantined_inputs"):
            assert key in d

    def test_same_seed_same_plan_is_bit_identical(self):
        a = json.dumps(self.faulty_stats().as_dict(), sort_keys=True,
                       separators=(",", ":"))
        b = json.dumps(self.faulty_stats().as_dict(), sort_keys=True,
                       separators=(",", ":"))
        assert a == b

    def test_replay_from_plan_id_matches(self):
        plan = FaultPlan.for_campaign(seed=0, rate=0.1)
        handles = build_campaign(PROFILES["lightftp"], policy="aggressive",
                                 seed=0, time_budget=30.0, max_execs=200,
                                 fault_plan=plan.plan_id, exec_timeout=0.05)
        by_plan = handles.fuzzer.run_campaign()
        handles2 = build_campaign(PROFILES["lightftp"], policy="aggressive",
                                  seed=0, time_budget=30.0, max_execs=200,
                                  fault_rate=0.1, exec_timeout=0.05)
        by_rate = handles2.fuzzer.run_campaign()
        assert json.dumps(by_plan.as_dict(), sort_keys=True) \
            == json.dumps(by_rate.as_dict(), sort_keys=True)

    def test_parallel_faulty_campaign_is_deterministic(self):
        def run():
            campaign = build_parallel_campaign(
                PROFILES["lightftp"], workers=2, policy="aggressive",
                seed=7, time_budget=10.0, max_total_execs=200,
                fault_rate=0.1, exec_timeout=0.05)
            return campaign.run().to_json()
        assert run() == run()


# ----------------------------------------------------------------------
# satellites: fastest reproducer, atomic persistence, tolerant pcap
# ----------------------------------------------------------------------


class TestFastestReproducer:
    def report(self):
        return CrashReport(CrashKind.SEGV, "bug-1", pid=1)

    def test_fastest_input_tracked_across_repeats(self):
        db = CrashDatabase()
        slow, fast = packets_input([b"slow"]), packets_input([b"fast"])
        assert db.add(self.report(), slow, now=1.0, exec_time=0.5)
        assert not db.add(self.report(), fast, now=2.0, exec_time=0.1)
        record = db.records["segv:bug-1"]
        assert record.count == 2
        assert record.input is slow  # first reproducer kept
        assert record.fastest_exec_time == 0.1
        assert record.fastest_input.payload_of(1) == b"fast"

    def test_slower_repeat_does_not_replace(self):
        db = CrashDatabase()
        db.add(self.report(), packets_input([b"a"]), now=1.0, exec_time=0.1)
        db.add(self.report(), packets_input([b"b"]), now=2.0, exec_time=0.9)
        assert db.records["segv:bug-1"].fastest_exec_time == 0.1

    def test_add_without_exec_time_still_works(self):
        db = CrashDatabase()
        assert db.add(self.report(), packets_input([b"x"]), 1.0)
        assert db.records["segv:bug-1"].fastest_input is None


class TestAtomicPersistence:
    def test_no_temp_files_left_behind(self, tmp_path):
        handles = build_campaign(PROFILES["lighttpd"], policy="none", seed=0,
                                 time_budget=5.0, max_execs=40)
        handles.fuzzer.run_campaign()
        from repro.fuzz.persist import save_campaign
        save_campaign(handles.fuzzer, str(tmp_path))
        leftovers = list(tmp_path.rglob("*.tmp"))
        assert leftovers == []
        assert (tmp_path / "stats.json").exists()
        payload = json.loads((tmp_path / "stats.json").read_text())
        assert "timeouts" in payload and "faults_injected" in payload

    def test_load_corpus_skips_unreadable_with_warning(self, tmp_path):
        handles = build_campaign(PROFILES["lighttpd"], policy="none", seed=0,
                                 time_budget=5.0, max_execs=40)
        handles.fuzzer.run_campaign()
        from repro.fuzz.persist import load_corpus, save_campaign
        save_campaign(handles.fuzzer, str(tmp_path))
        good = len(load_corpus(str(tmp_path)))
        assert good > 0
        # Plant a corrupt entry; loading must warn and skip it.
        (tmp_path / "queue" / "id_999999.nyx").write_bytes(b"\xff" * 16)
        with pytest.warns(UserWarning, match="skipping unreadable"):
            seeds = load_corpus(str(tmp_path))
        assert len(seeds) == good

    def test_fastest_reproducer_persisted_when_distinct(self, tmp_path):
        from repro.fuzz.fuzzer import NyxNetFuzzer
        from repro.fuzz.persist import save_campaign
        handles = build_campaign(PROFILES["lighttpd"], policy="none", seed=0,
                                 time_budget=5.0, max_execs=5)
        fuzzer = handles.fuzzer
        report = CrashReport(CrashKind.SEGV, "bug-x", pid=1)
        fuzzer.crashes.add(report, packets_input([b"first"]), 1.0,
                           exec_time=0.9)
        fuzzer.crashes.add(report, packets_input([b"faster"]), 2.0,
                           exec_time=0.1)
        save_campaign(fuzzer, str(tmp_path))
        crash_dir = tmp_path / "crashes"
        assert (crash_dir / "segv_bug-x.nyx").exists()
        assert (crash_dir / "segv_bug-x.fastest.nyx").exists()
        assert "fastest:" in (crash_dir / "segv_bug-x.txt").read_text()


class TestTolerantPcap:
    def make_capture(self):
        from repro.spec.pcap import PcapWriter
        writer = PcapWriter()
        client, server = ("10.0.0.1", 40000), ("10.0.0.2", 21)
        writer.add_tcp(client, server, b"", syn=True)
        writer.add_tcp(client, server, b"USER alice\r\n")
        writer.add_tcp(server, client, b"331 ok\r\n")
        writer.add_tcp(client, server, b"PASS hunter2\r\n")
        return writer.getvalue()

    def test_truncated_record_yields_partial_flows(self):
        from repro.spec.pcap import PcapReader, extract_flows
        blob = self.make_capture()
        truncated = blob[:len(blob) - 10]  # cut mid-record
        reader = PcapReader(truncated)
        packets = list(reader)  # must not raise
        assert reader.skipped_records == 1
        flows = extract_flows(truncated)
        assert flows and flows[0].client_payloads()  # partial seeds

    def test_garbage_length_field_stops_cleanly(self):
        import struct
        from repro.spec.pcap import PcapReader
        blob = self.make_capture()
        # A bogus record header claiming a gigantic incl_len.
        bad = blob + struct.pack("<IIII", 0, 0, 0xFFFFFF, 0xFFFFFF) + b"xx"
        packets = list(PcapReader(bad))
        assert len(packets) == 4  # everything before the damage

    def test_intact_capture_unchanged(self):
        from repro.spec.pcap import PcapReader
        reader = PcapReader(self.make_capture())
        assert len(list(reader)) == 4
        assert reader.skipped_records == 0

    def test_header_errors_still_raise(self):
        from repro.spec.pcap import PcapError, PcapReader
        with pytest.raises(PcapError):
            PcapReader(b"\x00" * 10)
        with pytest.raises(PcapError):
            PcapReader(b"\x00" * 24)
