"""Unit tests for the parallel campaign orchestrator.

The heavy scalability claims (§6: footprint ≤ 2x, execs/s scaling)
live in ``benchmarks/test_parallel_campaign.py``; these tests pin the
mechanics — root adoption without boot, corpus sync through the merged
bitmap, persistence — at small budgets.
"""

import json

import pytest

from repro.cli import main
from repro.faults import FaultPlan
from repro.fuzz.campaign import build_parallel_campaign
from repro.fuzz.input import packets_input
from repro.fuzz.parallel import ParallelCampaign
from repro.fuzz.persist import load_corpus, save_parallel_campaign
from repro.targets import PROFILES


@pytest.fixture(scope="module")
def small_campaign():
    campaign = build_parallel_campaign(
        PROFILES["lightftp"], workers=3, seed=11, time_budget=1e9,
        max_total_execs=300, sync_interval=1.0)
    campaign.run()
    return campaign


class TestFleetConstruction:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            ParallelCampaign(PROFILES["lightftp"], workers=0)

    def test_workers_share_the_root_pages(self):
        campaign = build_parallel_campaign(PROFILES["lightftp"], workers=3,
                                           seed=0)
        root_ids = {id(p) for p in campaign.root.pages}
        for worker in campaign.workers:
            page_ids = set(worker.machine.memory.page_identities())
            # Freshly adopted, no execution yet: every worker page that
            # exists in the root image is the *same object*, not a copy.
            assert root_ids & page_ids

    def test_adopted_workers_execute_without_booting(self):
        """A worker built from the root image (never booted) serves the
        protocol exactly like the golden VM would."""
        campaign = build_parallel_campaign(PROFILES["lightftp"], workers=2,
                                           seed=0)
        session = packets_input([b"USER anonymous\r\n", b"PASS x\r\n",
                                 b"QUIT\r\n"])
        results = [w.executor.run_full(session.copy())
                   for w in campaign.workers]
        assert all(r.packets_consumed == 3 for r in results)
        assert sorted(results[0].trace.items()) == \
            sorted(results[1].trace.items())

    def test_worker_seeds_differ(self):
        campaign = build_parallel_campaign(PROFILES["lightftp"], workers=3,
                                           seed=0)
        seeds = {w.fuzzer.config.seed for w in campaign.workers}
        assert len(seeds) == 3


class TestWorkersBuiltLikeCampaigns:
    """A worker is built like a single campaign: only its seed, its
    adopted root and the absent per-worker exec cap differ."""

    def test_workers_fuzz_with_the_target_dictionary(self):
        profile = PROFILES["exim"]
        campaign = build_parallel_campaign(profile, workers=2, seed=0)
        assert profile.dictionary
        for worker in campaign.workers:
            assert worker.fuzzer.mutator.dictionary == \
                list(profile.dictionary)

    def test_explicit_fault_plan_derives_one_plan_per_worker(self):
        plan = FaultPlan.for_campaign(seed=5, rate=0.05)
        campaign = build_parallel_campaign(PROFILES["lightftp"], workers=3,
                                           seed=0, fault_plan=plan.plan_id)
        injectors = [w.interceptor.injector for w in campaign.workers]
        assert [i.plan.plan_id for i in injectors] == \
            [plan.for_worker(w).plan_id for w in range(3)]
        assert len({i.plan.plan_id for i in injectors}) == 3
        for worker, injector in zip(campaign.workers, injectors):
            assert worker.machine.snapshots.injector is injector

    def test_chain_depth_reaches_every_worker(self):
        campaign = build_parallel_campaign(
            PROFILES["lightftp"], workers=2, seed=3, policy="bandit",
            max_chain_depth=4, time_budget=1e9, max_total_execs=400,
            sync_interval=1.0)
        aggregate = campaign.run()
        assert all(w.executor.max_chain_depth == 4 for w in campaign.workers)
        assert 1 < aggregate.merged.chain_deepest <= 4


class TestCorpusSync:
    def test_globally_new_entries_reach_all_peers(self, small_campaign):
        for worker in small_campaign.workers:
            imported = [e for e in worker.fuzzer.corpus.entries
                        if e.input.origin == "import"]
            assert imported, "worker %d never imported" % worker.worker_id

    def test_merged_bitmap_bounds_worker_coverage(self, small_campaign):
        global_edges = small_campaign.global_coverage.edge_count()
        for worker in small_campaign.workers:
            assert worker.fuzzer.coverage.edge_count() <= global_edges

    def test_coverage_series_is_monotonic(self, small_campaign):
        series = small_campaign.coverage_series
        assert series
        assert all(a[1] < b[1] for a, b in zip(series, series[1:]))

    def test_campaign_runs_only_once(self, small_campaign):
        with pytest.raises(RuntimeError):
            small_campaign.run()


class TestAggregation:
    def test_aggregate_sums_worker_execs(self, small_campaign):
        aggregate = small_campaign.aggregate()
        assert aggregate.total_execs == \
            sum(w.fuzzer.stats.execs for w in small_campaign.workers)
        assert aggregate.total_execs >= 300
        assert aggregate.num_workers == 3

    def test_footprint_shape(self, small_campaign):
        footprint = small_campaign.unique_page_footprint()
        assert set(footprint) == {"single", "total", "ratio"}
        assert footprint["single"] > 0
        assert footprint["total"] >= footprint["single"]
        assert footprint["ratio"] == \
            footprint["total"] / footprint["single"]

    def test_footprint_with_image_ballast_stays_shared(self):
        # The lean simulated guest boots into a handful of pages, so
        # worker churn dominates the bare ratio.  Against a realistic
        # image (here 256 pages of ballast) the fleet shares almost
        # everything — the full §6 claim is benchmarked in
        # benchmarks/test_parallel_campaign.py.
        campaign = build_parallel_campaign(
            PROFILES["lightftp"], workers=3, seed=1, time_budget=1e9,
            max_total_execs=90, sync_interval=1.0, image_pages=256)
        campaign.run()
        footprint = campaign.unique_page_footprint()
        assert footprint["single"] >= 256
        assert footprint["ratio"] <= 1.25


class TestParallelPersistence:
    def test_save_dedups_and_roundtrips(self, small_campaign, tmp_path):
        written = save_parallel_campaign(small_campaign, str(tmp_path))
        assert written > 0
        queue_files = list((tmp_path / "queue").glob("*.nyx"))
        blobs = {p.read_bytes() for p in queue_files}
        # Sync shares entries between workers; the merged queue must
        # not write those duplicates twice.
        assert len(blobs) == len(queue_files)
        seeds = load_corpus(str(tmp_path))
        assert len(seeds) == len(queue_files)

    def test_stats_json_holds_aggregate_and_footprint(self, small_campaign,
                                                      tmp_path):
        save_parallel_campaign(small_campaign, str(tmp_path))
        payload = json.loads((tmp_path / "stats.json").read_text())
        assert payload["num_workers"] == 3
        assert len(payload["workers"]) == 3
        assert payload["merged"]["execs"] >= 300
        assert payload["footprint"]["ratio"] >= 1.0


class TestCliWorkers:
    def test_fuzz_with_workers_flag(self, capsys, tmp_path):
        code = main(["fuzz", "lightftp", "--workers", "2", "--execs", "80",
                     "--time", "1e9", "--seed", "3",
                     "--out", str(tmp_path / "c")])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 nyx-net-aggressive workers" in out
        assert "shared-root footprint" in out
        assert (tmp_path / "c" / "stats.json").exists()

    def test_fleet_prints_the_reset_sanitizer_line(self, capsys):
        code = main(["fuzz", "lighttpd", "--workers", "2", "--execs", "600",
                     "--time", "1e9", "--seed", "1",
                     "--sanitize-resets=100"])
        assert code == 0
        out = capsys.readouterr().out
        assert "reset sanitizer: " in out and " 0 leaks" in out

    def test_fleet_lists_every_workers_leak_and_exits_one(self, capsys,
                                                          monkeypatch):
        from repro.analysis.diagnostics import Diagnostic
        from repro.analysis.sanitizer import ResetSanitizer
        monkeypatch.setattr(ResetSanitizer, "check", lambda self: [
            Diagnostic("NYX050", "injected leak", file="fleet")])
        code = main(["fuzz", "lighttpd", "--workers", "2", "--execs", "60",
                     "--time", "1e9", "--seed", "1",
                     "--sanitize-resets=1000"])
        assert code == 1
        out = capsys.readouterr().out
        assert "reset sanitizer: 2 checks, 2 leaks" in out
        assert out.count("injected leak") == 2
