"""Tests for the tracer's host-side accelerators: the fold memo and
prefix-trace elision.

The contract under test: elision and the fold memo are pure host-side
performance knobs — edge maps, hit-count buckets, IJON slots and the
campaign ``stats_checksum`` must come out byte-identical however the
trace was collected.  The guest code traced here is ``tests.helpers``,
compiled with block sites by the same loader as the targets.
"""

from repro.coverage.instrument import load
from repro.coverage.tracer import TracerCore
from repro.emu.interceptor import Interceptor
from repro.emu.surface import AttackSurface
from repro.fuzz.campaign import build_campaign
from repro.fuzz.executor import NyxExecutor
from repro.fuzz.input import FuzzInput, packets_input
from repro.fuzz.stats import CampaignStats
from repro.guestos.kernel import Kernel
from repro.fuzz.stats import stats_checksum
from repro.spec.bytecode import Op
from repro.targets.lightftp import PROFILE as LIGHTFTP
from repro.vm.machine import Machine

#: tests.helpers compiled with block sites.
traced = load("tests.helpers")


def traced_echo(trace_elision=True):
    """Echo rig whose guest code is actually traced (the plain
    tests.helpers has no coverage sites)."""
    machine = Machine(memory_bytes=16 * 1024 * 1024)
    kernel = Kernel(machine)
    interceptor = Interceptor(kernel, AttackSurface.tcp_server(7))
    kernel.spawn(traced.EchoServer(7))
    kernel.run()
    kernel.flush_to_memory(full=True)
    machine.capture_root()
    executor = NyxExecutor(machine, kernel, interceptor, TracerCore(),
                           trace_elision=trace_elision)
    return machine, kernel, interceptor, executor


# ----------------------------------------------------------------------
# fold-memo LRU bound
# ----------------------------------------------------------------------


class TestFoldMemoBound:
    def test_cache_stays_bounded_and_counts_evictions(self):
        tracer = TracerCore(fold_memo_limit=4)
        for n in range(10):
            tracer.begin()
            tracer.run(traced.alternating, n)
            tracer.take_trace()
        assert len(tracer._fold_cache) <= 4
        assert tracer.fold_evictions > 0

    def test_refold_after_eviction_is_identical(self):
        # An evicted stream re-folds to the same trace a fresh,
        # unbounded tracer computes: the memo is a cache, not state.
        small = TracerCore(fold_memo_limit=2)
        first = {}
        for n in (3, 4, 5, 6):
            small.begin()
            small.run(traced.alternating, n)
            trace = dict(small.take_trace())
            if n == 3:
                first = trace
        small.begin()
        small.run(traced.alternating, 3)  # 3 was evicted by now
        refolded = dict(small.take_trace())
        assert refolded == first

        fresh = TracerCore()
        fresh.begin()
        fresh.run(traced.alternating, 3)
        assert dict(fresh.take_trace()) == first

    def test_campaign_stamps_eviction_counter(self):
        handles = build_campaign(LIGHTFTP, policy="balanced", seed=2,
                                 time_budget=1e9, max_execs=80)
        handles.executor.tracer.fold_memo_limit = 2
        stats = handles.fuzzer.run_campaign()
        assert stats.fold_memo_evictions > 0


# ----------------------------------------------------------------------
# host counters stay out of the sim-pure stats dict
# ----------------------------------------------------------------------


class TestHostCounterPurity:
    HOST_KEYS = ("prefix_elisions", "prefix_elided_ops",
                 "elision_invalidations", "fold_memo_evictions",
                 "checkpoints_written", "checkpoint_epochs_pruned",
                 "checkpoint_verifications", "checkpoint_divergences",
                 "chain_pushes", "chain_commits", "chain_restores",
                 "chain_deepest")

    def test_as_dict_excludes_host_counters(self):
        stats = CampaignStats()
        stats.prefix_elisions = 9
        as_dict = stats.as_dict()
        for key in self.HOST_KEYS:
            assert key not in as_dict
        counters = stats.host_counters()
        assert set(counters) == set(self.HOST_KEYS)
        assert counters["prefix_elisions"] == 9

    def test_merge_sums_host_counters(self):
        a, b = CampaignStats(), CampaignStats()
        a.prefix_elisions, b.prefix_elisions = 2, 3
        a.fold_memo_evictions, b.fold_memo_evictions = 1, 4
        a.chain_deepest, b.chain_deepest = 3, 2
        merged = CampaignStats.merge([a, b])
        assert merged.prefix_elisions == 5
        assert merged.fold_memo_evictions == 5
        assert merged.chain_deepest == 3

    def test_checksum_blind_to_host_counters(self):
        stats = CampaignStats()
        before = stats_checksum(stats)
        stats.prefix_elisions = 1000
        stats.fold_memo_evictions = 50
        assert stats_checksum(stats) == before


# ----------------------------------------------------------------------
# prefix-trace elision: elided == fully traced
# ----------------------------------------------------------------------


class TestPrefixElision:
    def test_from_root_elision_matches_full_trace(self):
        machine, kernel, interceptor, executor = traced_echo()
        base = packets_input([b"alpha", b"beta", b"gamma", b"delta"])
        parent = executor.run_full(base)
        assert parent.recording is not None
        assert parent.recording.packed  # the echo server IS traced
        assert executor.remember_trace(1, parent)

        child = base.copy()
        child.with_payload(3, b"MUTATED")  # ops 0..2 still shared
        elided = executor.run_full(child, parent_key=1)
        assert executor.prefix_elisions == 1
        assert executor.prefix_elided_ops > 0

        executor.trace_elision = False
        reference = executor.run_full(child)
        assert elided.trace == reference.trace
        assert elided.trace  # and it is not trivially empty

    def test_whole_run_elision_reproduces_parent_trace(self):
        machine, kernel, interceptor, executor = traced_echo()
        base = packets_input([b"one", b"two", b"three"])
        parent = executor.run_full(base)
        executor.remember_trace(1, parent)
        rerun = executor.run_full(base, parent_key=1)
        assert executor.prefix_elisions == 1
        assert rerun.trace == parent.trace

    def test_suffix_elision_matches_full_trace(self):
        # Marker-op snapshots leave the recording unclamped (the marker
        # charges every run of these ops identically), so suffix runs
        # elide their unmutated sub-prefix against the capture run.
        machine, kernel, interceptor, executor = traced_echo()
        ops = [Op("connection"), Op("packet", (0,), (b"aa",)),
               Op("packet", (0,), (b"bb",)), Op("snapshot"),
               Op("packet", (0,), (b"cc",)), Op("packet", (0,), (b"dd",))]
        base = FuzzInput(ops)
        executor.run_full(base)
        child = base.copy()
        child.with_payload(5, b"XX")  # op 4 (cc) still shared
        elided = executor.run_suffix(child)
        assert executor.prefix_elisions >= 1
        executor.trace_elision = False
        reference = executor.run_suffix(child)
        assert elided.trace == reference.trace
        assert elided.trace

    def test_policy_snapshot_clamps_elision(self):
        # A policy-chosen snapshot charges the sim clock mid-run; a
        # child eliding against the capture recording must stop at the
        # snapshot op, never elide the whole run.
        machine, kernel, interceptor, executor = traced_echo()
        base = packets_input([b"p1", b"p2", b"p3"])
        parent = executor.run_full(base, snapshot_after_packet=1)
        assert parent.recording.charge_index is not None
        executor.remember_trace(1, parent)
        executor.finish_snapshot_cycle()
        rerun = executor.run_full(base, parent_key=1)
        # Elided ops never exceed the charge clamp.
        assert executor.prefix_elided_ops <= parent.recording.charge_index
        executor.trace_elision = False
        executor.finish_snapshot_cycle()
        reference = executor.run_full(base)
        assert rerun.trace == reference.trace

    def test_elision_disarmed_while_injector_armed(self):
        from repro.faults import FaultInjector, FaultPlan
        machine, kernel, interceptor, executor = traced_echo()
        base = packets_input([b"x", b"y", b"z"])
        parent = executor.run_full(base)
        executor.remember_trace(1, parent)
        injector = FaultInjector(FaultPlan(seed=0, rate=0.0))
        interceptor.injector = injector
        machine.snapshots.injector = injector
        rerun = executor.run_full(base, parent_key=1)
        assert executor.prefix_elisions == 0
        assert rerun.trace == parent.trace  # rate 0: nothing injected

    def test_recording_cache_is_lru_bounded(self):
        machine, kernel, interceptor, executor = traced_echo()
        executor.recording_cache_limit = 2
        for key, payload in enumerate([b"a", b"b", b"c"]):
            result = executor.run_full(packets_input([payload, b"t"]))
            executor.remember_trace(key, result)
        assert len(executor._recordings) == 2
        assert 0 not in executor._recordings  # oldest evicted
        # A child keyed to the evicted parent just runs fully traced.
        before = executor.prefix_elisions
        executor.run_full(packets_input([b"a", b"t"]), parent_key=0)
        assert executor.prefix_elisions == before

    def test_remember_trace_replace_false_keeps_existing(self):
        machine, kernel, interceptor, executor = traced_echo()
        first = executor.run_full(packets_input([b"a", b"b"]))
        second = executor.run_full(packets_input([b"a", b"b"]))
        assert executor.remember_trace(1, first)
        assert not executor.remember_trace(1, second, replace=False)
        assert executor._recordings[1] is first.recording


# ----------------------------------------------------------------------
# stale-fold invalidation (regression: heal must drop recordings)
# ----------------------------------------------------------------------


class TestElisionInvalidation:
    @staticmethod
    def _rig_with_recording():
        machine, kernel, interceptor, executor = traced_echo()
        ops = [Op("connection"), Op("packet", (0,), (b"pre",)),
               Op("snapshot"), Op("packet", (0,), (b"post",))]
        base = FuzzInput(ops)
        parent = executor.run_full(base)
        executor.remember_trace(1, parent)
        child = base.copy()
        child.with_payload(3, b"CHILD")
        return machine, executor, base, child

    @staticmethod
    def _tamper(rec):
        # Stand-in for any event that makes a cached fold stale: the
        # recorded site stream no longer describes what the prefix
        # would cover.
        assert rec.packed
        rec.packed = bytes(len(rec.packed))

    @staticmethod
    def _ground_truth(executor, base, child):
        # From-root reference trace of the child with elision off.
        # Marker runs park the machine on the incremental snapshot, so
        # return to the root first — and again after — to keep every
        # from-root run in this test starting from identical state.
        executor.finish_snapshot_cycle()
        executor.trace_elision = False
        trace = executor.run_full(child).trace
        executor.trace_elision = True
        executor.finish_snapshot_cycle()
        # Re-establish the incremental snapshot the heal path needs.
        executor.run_full(base)
        return trace

    def test_heal_invalidates_recordings(self):
        machine, executor, base, child = self._rig_with_recording()
        ground_truth = self._ground_truth(executor, base, child)

        self._tamper(executor._recordings[1])
        machine.snapshots.discard_chain()  # force the heal path
        executor.run_suffix(base)
        assert executor.elision_invalidations >= 1
        assert not executor._recordings
        assert executor._chain_nodes[-1].capture_rec is None

        # With the recordings dropped, the child runs fully traced and
        # the tampered fold can do no harm.
        executor.finish_snapshot_cycle()
        healed = executor.run_full(child, parent_key=1)
        assert healed.trace == ground_truth

    def test_missing_invalidation_would_corrupt_traces(self):
        # Inject the bug: neuter the invalidation hook and show the
        # differential assertion above really would catch its absence —
        # the stale fold is served and the trace comes out wrong.
        machine, executor, base, child = self._rig_with_recording()
        ground_truth = self._ground_truth(executor, base, child)

        executor.invalidate_trace_recordings = lambda: None  # the bug
        self._tamper(executor._recordings[1])
        machine.snapshots.discard_chain()
        executor.run_suffix(base)
        assert 1 in executor._recordings  # stale recording survived

        executor.finish_snapshot_cycle()
        bugged = executor.run_full(child, parent_key=1)
        assert executor.prefix_elisions >= 1
        assert bugged.trace != ground_truth
