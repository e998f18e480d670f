"""Unit tests for campaign statistics: derived-metric edge cases and
the multi-worker rollup.

The regression pinned here: ``execs_per_second()`` used to divide by
``end_time`` directly, so a campaign whose end time was never stamped
(or whose cost model charged nothing) reported 0.0 execs/s even after
thousands of executions.
"""

import json

from repro.fuzz.stats import AggregateStats, CampaignStats, stats_checksum


class TestExecsPerSecond:
    def test_unstamped_end_time_falls_back_to_series(self):
        stats = CampaignStats(execs=500)
        stats.exec_series = [(1.0, 100), (10.0, 500)]
        assert stats.end_time == 0.0
        assert stats.duration() == 10.0
        assert stats.execs_per_second() == 50.0

    def test_crash_times_extend_duration(self):
        stats = CampaignStats(execs=90)
        stats.coverage_series = [(2.0, 40)]
        stats.crash_times = {"heap-overflow:0x10": 9.0}
        assert stats.duration() == 9.0
        assert stats.execs_per_second() == 10.0

    def test_zero_elapsed_floors_at_one_second(self):
        # Execs ran but no sim time was ever charged: report the count
        # itself (a 1-second floor), never a misleading 0.0.
        stats = CampaignStats(execs=42)
        assert stats.execs_per_second() == 42.0

    def test_fresh_stats_report_zero(self):
        assert CampaignStats().execs_per_second() == 0.0

    def test_stamped_end_time_wins_when_latest(self):
        stats = CampaignStats(execs=100, end_time=20.0)
        stats.exec_series = [(5.0, 100)]
        assert stats.execs_per_second() == 5.0


class TestSeriesEdgeCases:
    def test_edges_at_empty_series(self):
        stats = CampaignStats()
        assert stats.edges_at(0.0) == 0
        assert stats.edges_at(1e9) == 0
        assert stats.final_edges == 0

    def test_edges_at_single_point(self):
        stats = CampaignStats(coverage_series=[(3.0, 17)])
        assert stats.edges_at(2.999) == 0
        assert stats.edges_at(3.0) == 17
        assert stats.edges_at(1e9) == 17

    def test_time_to_edges_empty_series(self):
        assert CampaignStats().time_to_edges(1) is None

    def test_time_to_edges_single_point(self):
        stats = CampaignStats(coverage_series=[(3.0, 17)])
        assert stats.time_to_edges(0) == 3.0
        assert stats.time_to_edges(17) == 3.0
        assert stats.time_to_edges(18) is None

    def test_execs_at_step_function(self):
        stats = CampaignStats(exec_series=[(1.0, 10), (4.0, 50)])
        assert stats.execs_at(0.5) == 0
        assert stats.execs_at(1.0) == 10
        assert stats.execs_at(3.9) == 10
        assert stats.execs_at(4.0) == 50

    def test_record_coverage_dedups_flat_samples(self):
        stats = CampaignStats()
        stats.record_coverage(1.0, 5)
        stats.record_coverage(2.0, 5)
        stats.record_coverage(3.0, 6)
        assert stats.coverage_series == [(1.0, 5), (3.0, 6)]


class TestMerge:
    def make_workers(self):
        a = CampaignStats(fuzzer_name="nyx-net.w00", target_name="t",
                          execs=100, suffix_execs=60, queue_size=4,
                          end_time=10.0)
        a.exec_series = [(5.0, 40), (10.0, 100)]
        a.coverage_series = [(5.0, 30)]
        a.crash_times = {"bug-a": 6.0, "bug-b": 8.0}
        a.crashes_found = 2
        b = CampaignStats(fuzzer_name="nyx-net.w01", target_name="t",
                          execs=50, suffix_execs=10, queue_size=3,
                          end_time=12.0)
        b.exec_series = [(6.0, 20), (12.0, 50)]
        b.coverage_series = [(6.0, 45)]
        b.crash_times = {"bug-a": 4.0}
        b.crashes_found = 1
        return a, b

    def test_counters_sum_and_crashes_take_earliest(self):
        merged = CampaignStats.merge(self.make_workers())
        assert merged.execs == 150
        assert merged.suffix_execs == 70
        assert merged.queue_size == 7
        assert merged.end_time == 12.0
        assert merged.crash_times == {"bug-a": 4.0, "bug-b": 8.0}
        assert merged.crashes_found == 2

    def test_exec_series_sums_step_functions_on_union_times(self):
        merged = CampaignStats.merge(self.make_workers())
        assert merged.exec_series == [(5.0, 40), (6.0, 60), (10.0, 120),
                                      (12.0, 150)]

    def test_explicit_coverage_series_is_adopted_verbatim(self):
        series = [(5.0, 30), (6.0, 52)]
        merged = CampaignStats.merge(self.make_workers(),
                                     coverage_series=series)
        assert merged.coverage_series == series
        assert merged.final_edges == 52

    def test_default_coverage_series_is_max_envelope(self):
        merged = CampaignStats.merge(self.make_workers())
        # Workers overlap, so without a merged bitmap the envelope is a
        # lower bound: max over workers at each union timestamp.
        assert merged.coverage_series == [(5.0, 30), (6.0, 45)]

    def test_merge_of_nothing(self):
        merged = CampaignStats.merge([])
        assert merged.execs == 0
        assert merged.exec_series == []
        assert merged.execs_per_second() == 0.0


class TestAggregateStats:
    def test_throughput_uses_wall_time_not_summed_time(self):
        a = CampaignStats(execs=100, end_time=10.0)
        b = CampaignStats(execs=100, end_time=10.0)
        agg = AggregateStats(merged=CampaignStats.merge([a, b]),
                             workers=[a, b])
        # Concurrent clocks overlap: 200 execs in 10s, not in 20s.
        assert agg.total_execs == 200
        assert agg.execs_per_second() == 20.0
        assert agg.num_workers == 2

    def test_to_json_is_canonical(self):
        a, b = TestMerge().make_workers()
        agg = AggregateStats(merged=CampaignStats.merge([a, b]),
                             workers=[a, b])
        first, second = agg.to_json(), agg.to_json()
        assert first == second
        payload = json.loads(first)
        assert payload["num_workers"] == 2
        assert payload["merged"]["execs"] == 150
        assert len(payload["workers"]) == 2
        # Canonical form: no whitespace, sorted keys.
        assert ": " not in first
        keys = list(payload["merged"])
        assert keys == sorted(keys)


class TestHostCounterPurity:
    """Host counters describe how cheaply a campaign was computed, never
    what it computed, so they stay out of ``as_dict`` and the
    checksum."""

    HOST_KEYS = ("checkpoints_written", "checkpoint_epochs_pruned",
                 "checkpoint_verifications", "checkpoint_divergences",
                 "chain_pushes", "chain_commits", "chain_restores",
                 "chain_deepest")

    def test_as_dict_excludes_host_counters(self):
        stats = CampaignStats()
        stats.checkpoints_written = 9
        as_dict = stats.as_dict()
        for key in self.HOST_KEYS:
            assert key not in as_dict
        counters = stats.host_counters()
        assert set(counters) == set(self.HOST_KEYS)
        assert counters["checkpoints_written"] == 9

    def test_merge_sums_host_counters(self):
        a, b = CampaignStats(), CampaignStats()
        for n, key in enumerate(self.HOST_KEYS, start=1):
            setattr(a, key, n)
            setattr(b, key, 10 * n)
        merged = CampaignStats.merge([a, b])
        for n, key in enumerate(self.HOST_KEYS, start=1):
            # The deepest chain is a maximum; every other count sums.
            expected = 10 * n if key == "chain_deepest" else 11 * n
            assert getattr(merged, key) == expected, key

    def test_checksum_blind_to_host_counters(self):
        stats = CampaignStats()
        before = stats_checksum(stats)
        for n, key in enumerate(self.HOST_KEYS, start=1):
            setattr(stats, key, 1000 * n)
        assert stats_checksum(stats) == before
