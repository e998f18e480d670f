"""Tests for corpus persistence and the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.fuzz.campaign import build_campaign
from repro.fuzz.persist import load_corpus, save_campaign
from repro.targets import PROFILES


@pytest.fixture(scope="module")
def finished_campaign():
    handles = build_campaign(PROFILES["dnsmasq"], policy="balanced", seed=2,
                             time_budget=1e9, max_execs=400)
    handles.fuzzer.run_campaign()
    return handles


class TestPersistence:
    def test_save_writes_queue_and_stats(self, finished_campaign, tmp_path):
        written = save_campaign(finished_campaign.fuzzer, str(tmp_path))
        assert written > 0
        assert (tmp_path / "stats.json").exists()
        stats = json.loads((tmp_path / "stats.json").read_text())
        assert stats["target"] == "dnsmasq"
        assert stats["execs"] == 400
        assert len(list((tmp_path / "queue").glob("*.nyx"))) == \
            len(finished_campaign.fuzzer.corpus)

    def test_crash_reproducers_saved(self, finished_campaign, tmp_path):
        save_campaign(finished_campaign.fuzzer, str(tmp_path))
        crashes = finished_campaign.fuzzer.crashes
        for key in crashes.records:
            safe = key.replace(":", "_").replace("/", "_")
            assert (tmp_path / "crashes" / (safe + ".txt")).exists()

    def test_load_roundtrip(self, finished_campaign, tmp_path):
        save_campaign(finished_campaign.fuzzer, str(tmp_path))
        seeds = load_corpus(str(tmp_path))
        assert len(seeds) == len(finished_campaign.fuzzer.corpus)
        assert all(s.origin == "persisted" for s in seeds)

    def test_load_limit(self, finished_campaign, tmp_path):
        save_campaign(finished_campaign.fuzzer, str(tmp_path))
        assert len(load_corpus(str(tmp_path), limit=2)) == 2

    def test_load_skips_corrupt_files(self, finished_campaign, tmp_path):
        save_campaign(finished_campaign.fuzzer, str(tmp_path))
        (tmp_path / "queue" / "id_zzz.nyx").write_bytes(b"garbage")
        before = len(finished_campaign.fuzzer.corpus)
        assert len(load_corpus(str(tmp_path))) == before

    def test_load_missing_dir_is_empty(self, tmp_path):
        assert load_corpus(str(tmp_path / "nope")) == []

    def test_resume_campaign_from_saved_corpus(self, finished_campaign,
                                               tmp_path):
        save_campaign(finished_campaign.fuzzer, str(tmp_path))
        seeds = load_corpus(str(tmp_path), limit=5)
        handles = build_campaign(PROFILES["dnsmasq"], policy="none", seed=9,
                                 time_budget=1e9, max_execs=30, seeds=seeds)
        stats = handles.fuzzer.run_campaign()
        assert stats.execs == 30


class TestCli:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["fuzz", "lightftp", "--policy", "none"])
        assert args.command == "fuzz" and args.policy == "none"
        args = parser.parse_args(["mario", "2-1", "--modes", "ijon"])
        assert args.level == "2-1"

    def test_targets_command(self, capsys):
        assert main(["targets"]) == 0
        out = capsys.readouterr().out
        assert "lightftp" in out and "firefox-ipc" in out

    def test_fuzz_command_unknown_target(self, capsys):
        assert main(["fuzz", "doom"]) == 2

    def test_bench_command_unknown_target(self, capsys):
        assert main(["bench", "--targets", "lightftp,nosuch"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("unknown target 'nosuch' "
                                "(see `repro targets`)\n")
        assert captured.out == ""  # rejected before the matrix starts

    def test_fuzz_command_runs(self, capsys, tmp_path):
        code = main(["fuzz", "lightftp", "--execs", "40", "--time", "5",
                     "--seed", "3", "--out", str(tmp_path / "c")])
        assert code == 0
        out = capsys.readouterr().out
        assert "40 execs" in out
        assert (tmp_path / "c" / "stats.json").exists()

    def test_replay_command_no_crash(self, capsys, tmp_path):
        main(["fuzz", "lightftp", "--execs", "20", "--time", "5",
              "--out", str(tmp_path / "c")])
        capsys.readouterr()
        queue = sorted((tmp_path / "c" / "queue").glob("*.nyx"))
        assert queue
        code = main(["replay", "lightftp", str(queue[0])])
        assert code == 0
        assert "no crash" in capsys.readouterr().out

    def test_replay_command_crash_reproducer(self, capsys, tmp_path):
        # Fuzz a target with a shallow bug until it crashes, then
        # replay the saved reproducer.
        code = main(["fuzz", "dnsmasq", "--execs", "3000", "--time", "600",
                     "--seed", "7", "--out", str(tmp_path / "c")])
        assert code == 0
        crashes = sorted((tmp_path / "c" / "crashes").glob("*.nyx"))
        capsys.readouterr()
        if not crashes:
            pytest.skip("no crash found at this budget/seed")
        code = main(["replay", "dnsmasq", str(crashes[0])])
        out = capsys.readouterr().out
        assert code == 1
        assert "CRASH" in out

    def test_mario_command(self, capsys):
        assert main(["mario", "1-1", "--modes", "nyx-aggressive",
                     "--execs", "3000", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "nyx-aggressive" in out
