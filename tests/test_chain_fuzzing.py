"""Chain-aware fuzzing tests: bandit placement, executor integration,
the depth-1 identity, and the chain bench scenario/gate.

The load-bearing property here is the last one in ISSUE terms: with
``max_chain_depth`` left at 1 a campaign must be byte-identical to a
build that never heard of chains — every chain feature hides behind
the depth knob.
"""

import pytest

from repro.fuzz.input import packets_input
from repro.fuzz.policies import (BanditPolicy, MIN_PACKETS_FOR_SNAPSHOT,
                                 make_policy)
from repro.fuzz.queue import QueueEntry
from repro.sim.rng import DeterministicRandom


def _entry(num_packets):
    entry = QueueEntry(0, packets_input([b"x"] * num_packets))
    entry.effective_packets = num_packets
    return entry


class TestBanditPlacement:
    def test_factory_knows_bandit(self):
        assert make_policy("bandit").name == "bandit"

    def test_choose_chain_spacing(self):
        policy = BanditPolicy()
        points = policy.choose_chain(_entry(22), DeterministicRandom(0), 4)
        assert points == sorted(set(points))
        assert len(points) == 4
        assert points[-1] == 20  # n - 2: the aggressive policy's anchor

    def test_choose_chain_clamps_to_packets(self):
        policy = BanditPolicy()
        points = policy.choose_chain(_entry(5), DeterministicRandom(0), 8)
        assert points[-1] == 3
        assert len(points) == len(set(points))
        assert len(points) <= 4

    def test_choose_chain_short_input_uses_root(self):
        policy = BanditPolicy()
        entry = _entry(MIN_PACKETS_FOR_SNAPSHOT - 1)
        assert policy.choose_chain(entry, DeterministicRandom(0), 4) == []

    def test_depth_one_gives_single_deepest_point(self):
        policy = BanditPolicy()
        points = policy.choose_chain(_entry(22), DeterministicRandom(0), 1)
        assert points == [20]


class TestBanditScheduling:
    def test_unexplored_arms_first_deepest_preferred(self):
        policy = BanditPolicy()
        entry = _entry(22)
        rng = DeterministicRandom(0)
        assert policy.pick_arm(entry, rng, 3) == 3
        policy.arm_feedback(entry, 3, False, sim_cost=0.001)
        assert policy.pick_arm(entry, rng, 3) == 2
        policy.arm_feedback(entry, 2, False, sim_cost=0.002)
        assert policy.pick_arm(entry, rng, 3) == 1

    def test_throughput_prior_prefers_cheap_arm(self):
        # No rewards anywhere: the bandit must concentrate on the arm
        # whose suffix runs are sim-cheapest (the deep resume).
        policy = BanditPolicy()
        entry = _entry(22)
        rng = DeterministicRandom(0)
        for arm, cost in ((1, 0.01), (2, 0.003), (3, 0.0005)):
            for _ in range(3):
                policy.arm_feedback(entry, arm, False, sim_cost=cost)
        assert policy.pick_arm(entry, rng, 3) == 3

    def test_reward_can_outweigh_prior(self):
        # A shallow arm that keeps finding coverage beats a cheap but
        # fruitless deep arm once its reward rate dominates.
        policy = BanditPolicy()
        entry = _entry(22)
        rng = DeterministicRandom(0)
        for _ in range(20):
            policy.arm_feedback(entry, 3, False, sim_cost=0.0005)
            policy.arm_feedback(entry, 2, False, sim_cost=0.003)
            policy.arm_feedback(entry, 1, True, sim_cost=0.01)
        assert policy.pick_arm(entry, rng, 3) == 1

    def test_arm_feedback_accumulates(self):
        policy = BanditPolicy()
        entry = _entry(22)
        policy.arm_feedback(entry, 2, True, sim_cost=0.5)
        policy.arm_feedback(entry, 2, False, sim_cost=0.25)
        assert entry.arm_pulls == {2: 2}
        assert entry.arm_cost == {2: 0.75}
        assert entry.arm_reward == {2: pytest.approx(1.0 / 1.5)}

    def test_pre_cost_checkpoint_entries_heal(self):
        # Entries restored from a checkpoint written before cost
        # tracking existed have pulls/rewards but no cost dict.
        policy = BanditPolicy()
        entry = _entry(22)
        entry.arm_pulls = {1: 4}
        entry.arm_reward = {1: 0.5}
        entry.arm_cost = None
        policy.arm_feedback(entry, 1, False, sim_cost=0.1)
        assert entry.arm_cost == {1: 0.1}
        rng = DeterministicRandom(0)
        assert policy.pick_arm(entry, rng, 1) == 1


def _campaign_stats(policy="aggressive", seed=3, execs=150,
                    target="lighttpd", seeds=None, **kwargs):
    from repro.fuzz.campaign import build_campaign
    from repro.targets import PROFILES
    handles = build_campaign(PROFILES[target], policy=policy, seed=seed,
                             time_budget=1e9, max_execs=execs,
                             seeds=seeds, **kwargs)
    stats = handles.fuzzer.run_campaign()
    return stats, handles


class TestChainCampaigns:
    def test_depth_one_is_byte_identical_to_default(self):
        """--max-chain-depth 1 must not perturb the sim trajectory."""
        from repro.perf.macro import stats_checksum
        plain, _h = _campaign_stats()
        clamped, _h = _campaign_stats(max_chain_depth=1)
        assert stats_checksum(plain) == stats_checksum(clamped)

    def test_bandit_campaign_exercises_chains(self):
        from repro.perf.macro import deep_session_input
        stats, handles = _campaign_stats(
            policy="bandit", seed=1, execs=120, target="lightftp",
            seeds=[deep_session_input()], max_chain_depth=3)
        assert stats.chain_pushes > 0
        assert stats.chain_restores > 0
        assert 2 <= stats.chain_deepest <= 3
        snap = handles.machine.snapshots.stats
        assert snap.corruption_detected == 0

    def test_commit_at_cap_bounds_chain_length(self):
        from repro.perf.macro import deep_session_input
        stats, handles = _campaign_stats(
            policy="bandit", seed=1, execs=120, target="lightftp",
            seeds=[deep_session_input()], max_chain_depth=2)
        assert stats.chain_deepest <= 2
        assert handles.fuzzer.executor.chain_node_count <= 2

    def test_fault_injected_chain_campaign_survives(self):
        # Regressions: injected snapshot corruption during a mid-run
        # chain hop (run_suffix's restore_to_depth) used to escape the
        # heal/rebuild/degrade ladder and abort the campaign; and a
        # one-layer chain emptied by a failed rebuild used to abort it
        # with "no incremental snapshot to fuzz from".
        from repro.perf.macro import deep_session_input
        for policy, depth in (("bandit", 3), ("balanced", 1)):
            stats, handles = _campaign_stats(
                policy=policy, seed=0, execs=200, target="lightftp",
                seeds=[deep_session_input()], max_chain_depth=depth,
                fault_rate=0.1, exec_timeout=0.05)
            assert stats.execs == 200, policy
            snap = handles.machine.snapshots.stats
            assert snap.corruption_detected > 0, policy
            assert handles.fuzzer.executor.snapshot_rebuilds > 0, policy

    def test_chain_counters_stay_out_of_sim_view(self):
        stats, _h = _campaign_stats(max_chain_depth=1)
        assert "chain_pushes" not in stats.as_dict()
        assert "chain_pushes" in stats.host_counters()


class TestResumeEquivalence:
    """The paper's §3 claim end to end: resuming from a snapshot is
    equivalent to re-executing the prefix from the root.

    On the 22-packet FTP session, each chain node resumes a child whose
    packet right after the node's point is mutated; the suffix run must
    leave the same responses and crash identity as a cold from-root run
    of the same child.  Unlike the manager-level chain model, this goes
    through the guest kernel and the interceptor, so it also checks
    which layer's memory, device and disk state a restore reads.
    """

    #: Placement points: one-layer snapshots along the session, and two
    #: depth-4 chains.  The nodes of the second chain differ observably
    #: (before login, logged in, after each CWD), so a restore that
    #: reads the wrong layer shows up in the PWD/CDUP responses.
    SETUPS = ([0], [7], [15], [20], [4, 9, 14, 19], [0, 1, 6, 11])
    MUTATIONS = (b"PWD\r\n", b"CDUP\r\n")

    def test_suffix_runs_match_cold_runs(self):
        from repro.fuzz.campaign import build_campaign
        from repro.perf.macro import deep_session_input
        from repro.targets import PROFILES
        handles = build_campaign(PROFILES["lightftp"], policy="none",
                                 seed=0, time_budget=1e9, max_chain_depth=4)
        executor = handles.executor
        executor.trace_elision = False
        interceptor = handles.interceptor
        base = deep_session_input()
        packets = base.packet_indices()

        def outcome(result):
            crash = result.crash.dedup_key if result.crash else None
            return interceptor.responses(0), crash

        cases = []
        for points in self.SETUPS:
            for depth, point in enumerate(points, start=1):
                for payload in self.MUTATIONS:
                    child = base.copy()
                    child.with_payload(packets[point + 1], payload)
                    executor.run_full(base, snapshot_after_packets=points)
                    assert executor.chain_node_count == len(points)
                    resume = executor.chain_resume_index(depth)
                    resumed = executor.run_suffix(child, depth=depth)
                    # Resumed from node ``depth`` itself: the mutation
                    # sits right at its resume point.
                    assert resumed.suffix_run
                    assert resumed.ops_executed == len(child.ops) - resume
                    warm = outcome(resumed)
                    executor.finish_snapshot_cycle()
                    cold = outcome(executor.run_full(child))
                    cases.append((points, depth, payload, warm == cold))
        assert len(cases) == 24
        assert [case for case in cases if not case[-1]] == []


class TestChainBench:
    def test_chain_macro_payload_shape(self):
        from repro.perf.macro import run_chain_macro
        payload = run_chain_macro(execs=40)
        assert payload["kind"] == "chain_macro"
        assert payload["session_packets"] == 22
        assert payload["ref"]["policy"] == "balanced"
        assert payload["chain"]["policy"] == "bandit"
        assert payload["chain"]["max_chain_depth"] == payload["depth"]
        assert payload["chain_speedup"] > 0
        assert payload["chain"]["host_counters"]["chain_restores"] > 0

    def test_chain_macro_is_deterministic_on_sim_clock(self):
        from repro.perf.macro import run_chain_macro
        a = run_chain_macro(execs=40)
        b = run_chain_macro(execs=40)
        for leg in ("ref", "chain"):
            assert a[leg]["stats_checksum"] == b[leg]["stats_checksum"]
            assert a[leg]["sim_execs_per_sec"] == b[leg]["sim_execs_per_sec"]

    def _payload(self, **overrides):
        base = {
            "kind": "chain_macro", "target": "lightftp", "seed": 1,
            "execs": 600, "depth": 4, "chain_speedup": 1.7,
            "host": {"python": "3.12", "platform": "test"},
            "ref": {"sim_execs_per_sec": 800.0, "final_edges": 216,
                    "stats_checksum": "aaaa"},
            "chain": {"sim_execs_per_sec": 1400.0, "final_edges": 213,
                      "stats_checksum": "bbbb"},
        }
        base.update(overrides)
        return base

    def test_compare_chain_clean_pass(self):
        from repro.perf.report import Comparison, compare_chain
        out = Comparison()
        compare_chain(self._payload(), self._payload(), 20.0, out)
        assert out.ok

    def test_compare_chain_checksum_mismatch_is_hard(self):
        from repro.perf.report import Comparison, compare_chain
        out = Comparison()
        current = self._payload()
        current["chain"] = dict(current["chain"], stats_checksum="cccc")
        compare_chain(current, self._payload(), 20.0, out)
        assert not out.ok
        assert any("checksum" in line for line in out.regressions)

    def test_compare_chain_config_mismatch_skips_sim(self):
        from repro.perf.report import Comparison, compare_chain
        out = Comparison()
        current = self._payload(execs=300)
        current["chain"] = dict(current["chain"], stats_checksum="cccc")
        compare_chain(current, self._payload(), 20.0, out)
        assert out.ok  # sim gates skipped, nothing regresses

    def test_compare_chain_speedup_gated_on_same_host_only(self):
        from repro.perf.report import Comparison, compare_chain
        out = Comparison()
        compare_chain(self._payload(chain_speedup=1.0),
                      self._payload(), 20.0, out)
        assert not out.ok
        out = Comparison()
        other = self._payload(chain_speedup=1.0,
                              host={"python": "3.12", "platform": "other"})
        compare_chain(other, self._payload(), 20.0, out)
        assert out.ok
        assert not out.wall_gated

    def test_baseline_bundles_chain_section(self):
        from repro.perf.report import compare_reports, make_baseline
        baseline = make_baseline(None, None, self._payload())
        assert "chain" in baseline
        out = compare_reports(None, None, baseline, 20.0,
                              chain=self._payload())
        assert out.ok
