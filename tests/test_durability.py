"""Durable campaigns: journal, checkpoints, kill/resume determinism.

The correctness bar (docs/robustness.md "Durability and resume"): a
campaign killed at an arbitrary point and resumed must finish with the
same ``stats_checksum``, corpus and crash DB as an uninterrupted run —
including with fault injection armed, with the watchdog armed, in a
parallel campaign, and with the newest checkpoint or the journal tail
corrupted (those degrade to the previous consistent state with a
warning, never a refused or wrong resume).
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import main
from repro.fuzz.campaign import build_campaign_from_manifest
from repro.fuzz.journal import (CheckpointStore, DurabilityError,
                                DurableCampaign, DurableParallelCampaign,
                                GracefulShutdown, Journal, campaign_manifest,
                                read_manifest, resume_campaign,
                                salvage_corpus_blobs, scan_journal,
                                write_manifest)
from repro.fuzz.stats import stats_checksum
from repro.spec.bytecode import SpecError, serialize
from repro.spec.nodes import default_network_spec
from repro.targets import PROFILES


class SimulatedKill(BaseException):
    """Raised from a stop() poll to model an abrupt process death."""


def _corpus_blobs(corpus):
    spec = default_network_spec()
    blobs = []
    for entry in corpus.entries:
        try:
            blobs.append(serialize(spec, entry.input.ops))
        except SpecError:
            blobs.append(b"<foreign>")
    return blobs


def _crash_digest(crashes):
    return {key: record.count for key, record in crashes.records.items()}


def _manifest(seed, **overrides):
    base = dict(policy="aggressive", seed=seed, time_budget=60.0,
                max_execs=400, checkpoint_every=100, fault_rate=0.05,
                exec_timeout=0.02)
    base.update(overrides)
    return campaign_manifest("single", "lighttpd", **base)


def _golden(manifest):
    """The uninterrupted reference run (no durability layer at all)."""
    handles = build_campaign_from_manifest(PROFILES["lighttpd"], manifest)
    stats = handles.fuzzer.run_campaign()
    return (stats_checksum(stats), _corpus_blobs(handles.fuzzer.corpus),
            _crash_digest(handles.fuzzer.crashes))


def _fleet_manifest(seed):
    return campaign_manifest(
        "parallel", "lighttpd", policy="balanced", seed=seed,
        time_budget=10.0, max_execs=700, checkpoint_every=200,
        workers=2, fault_rate=0.02)


def _fleet_outcome(campaign, aggregate):
    return (stats_checksum(aggregate.merged),
            [_corpus_blobs(w.fuzzer.corpus) for w in campaign.workers],
            [_crash_digest(w.fuzzer.crashes) for w in campaign.workers])


def _fleet_golden(manifest):
    """The uninterrupted reference fleet (no durability layer)."""
    campaign = build_campaign_from_manifest(PROFILES["lighttpd"], manifest)
    return _fleet_outcome(campaign, campaign.run())


def _fresh_durable(manifest, directory):
    """A durable single campaign or fleet, as ``manifest`` records."""
    if manifest["kind"] == "parallel":
        return DurableParallelCampaign(
            build_campaign_from_manifest(PROFILES["lighttpd"], manifest),
            directory, checkpoint_every=manifest["checkpoint_every"],
            manifest=manifest, journal_sync=False)
    return DurableCampaign(
        build_campaign_from_manifest(PROFILES["lighttpd"], manifest),
        directory, checkpoint_every=manifest["checkpoint_every"],
        manifest=manifest, journal_sync=False)


def _run_killed(manifest, directory, kill_after_polls):
    """Run a durable campaign and 'kill' it at the Nth step boundary."""
    durable = _fresh_durable(manifest, directory)
    calls = [0]

    def bomb():
        calls[0] += 1
        if calls[0] > kill_after_polls:
            raise SimulatedKill
        return False

    with pytest.raises(SimulatedKill):
        durable.run(stop=bomb)
    durable.close()
    return durable


def _resume_and_finish(directory):
    durable = resume_campaign(directory, journal_sync=False)
    result = durable.run()
    if durable.kind == "parallel":
        return durable, _fleet_outcome(durable.campaign, result)
    return durable, (stats_checksum(result),
                     _corpus_blobs(durable.fuzzer.corpus),
                     _crash_digest(durable.fuzzer.crashes))


def _assert_recovered_watermark(durable, restored_execs):
    """The resume summary's ``journal_execs`` is the last watermark in
    ``journal.wal``, never behind the restored checkpoint."""
    records, _end, _bad = scan_journal(durable.directory / "journal.wal")
    watermarks = [body["execs"] for kind, body in records
                  if kind == "watermark"]
    assert durable.recovered["journal_execs"] == watermarks[-1]
    assert watermarks[-1] >= restored_execs


# ----------------------------------------------------------------------
# journal framing
# ----------------------------------------------------------------------

class TestJournal:
    def test_append_scan_roundtrip(self, tmp_path):
        path = tmp_path / "j.wal"
        journal = Journal(path, sync=False)
        journal.append("corpus_add", {"entry_id": 0, "blob": b"\x01\x02"})
        journal.append("watermark", {"execs": 7})
        journal.close()
        reopened = Journal(path, sync=False)
        assert reopened.records == [
            ("corpus_add", {"entry_id": 0, "blob": b"\x01\x02"}),
            ("watermark", {"execs": 7})]
        reopened.close()

    def test_torn_tail_truncated_with_warning(self, tmp_path):
        path = tmp_path / "j.wal"
        journal = Journal(path, sync=False)
        journal.append("watermark", {"execs": 1})
        journal.append("watermark", {"execs": 2})
        journal.close()
        whole = path.read_bytes()
        path.write_bytes(whole[:-3])  # tear the last frame
        with pytest.warns(UserWarning, match="torn tail"):
            reopened = Journal(path, sync=False)
        assert reopened.records == [("watermark", {"execs": 1})]
        # the tail was physically truncated: appends go after frame 1
        reopened.append("watermark", {"execs": 9})
        reopened.close()
        final = Journal(path, sync=False)
        assert [b["execs"] for _, b in final.records] == [1, 9]
        final.close()

    def test_bitflipped_tail_stops_scan(self, tmp_path):
        path = tmp_path / "j.wal"
        journal = Journal(path, sync=False)
        journal.append("watermark", {"execs": 1})
        journal.append("watermark", {"execs": 2})
        journal.close()
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # corrupt the last frame's payload
        path.write_bytes(bytes(data))
        with pytest.warns(UserWarning, match="torn tail"):
            reopened = Journal(path, sync=False)
        assert reopened.records == [("watermark", {"execs": 1})]
        reopened.close()

    def test_corrupt_header_discards_file(self, tmp_path):
        path = tmp_path / "j.wal"
        path.write_bytes(b"NOTAWAL!garbage")
        with pytest.warns(UserWarning, match="corrupt header"):
            journal = Journal(path, sync=False)
        assert journal.records == []
        journal.append("watermark", {"execs": 1})
        journal.close()
        reopened = Journal(path, sync=False)
        assert len(reopened.records) == 1
        reopened.close()

    def test_empty_and_magic_only_files(self, tmp_path):
        path = tmp_path / "j.wal"
        journal = Journal(path, sync=False)
        journal.close()
        reopened = Journal(path, sync=False)  # magic-only file
        assert reopened.records == []
        reopened.close()


class TestCheckpointStore:
    def test_save_load_roundtrip_and_prune(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=3)
        for n in range(5):
            assert store.save({"n": n}) == n + 1
        assert store.epochs() == [3, 4, 5]
        assert store.load(5) == {"n": 4}
        epoch, state, warns = store.load_latest()
        assert (epoch, state, warns) == (5, {"n": 4}, [])

    def test_corrupt_newest_falls_back(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save({"n": 0})
        store.save({"n": 1})
        newest = tmp_path / "epoch_000002.ckpt"
        data = bytearray(newest.read_bytes())
        data[len(data) // 2] ^= 0xFF
        newest.write_bytes(bytes(data))
        epoch, state, warns = store.load_latest()
        assert epoch == 1 and state == {"n": 0}
        assert warns and "corrupt checkpoint" in warns[0]

    def test_all_corrupt_is_none(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save({"n": 0})
        (tmp_path / "epoch_000001.ckpt").write_bytes(b"junk")
        epoch, state, warns = store.load_latest()
        assert epoch is None and state is None and len(warns) == 1


class TestManifest:
    def test_roundtrip(self, tmp_path):
        manifest = _manifest(seed=1)
        write_manifest(tmp_path, manifest)
        assert read_manifest(tmp_path) == manifest

    def test_missing_manifest_refused(self, tmp_path):
        with pytest.raises(DurabilityError, match="no campaign manifest"):
            read_manifest(tmp_path)

    def test_wrong_format_version_refused(self, tmp_path):
        # 99: a future layout.  1: a campaign whose virgin map and queue
        # were built on line-coverage sites; resuming it would mix two
        # coverage metrics in one map.
        for version in (99, 1):
            manifest = _manifest(seed=1)
            manifest["format_version"] = version
            write_manifest(tmp_path, manifest)
            with pytest.raises(DurabilityError, match="format_version"):
                read_manifest(tmp_path)

    def test_spec_digest_mismatch_refused(self, tmp_path):
        manifest = _manifest(seed=1)
        manifest["spec_digest"] = "not-the-real-digest"
        write_manifest(tmp_path, manifest)
        with pytest.raises(DurabilityError, match="spec mismatch"):
            resume_campaign(tmp_path)

    def test_unknown_target_refused(self, tmp_path):
        manifest = _manifest(seed=1)
        manifest["target"] = "doom"
        write_manifest(tmp_path, manifest)
        with pytest.raises(DurabilityError, match="unknown target"):
            resume_campaign(tmp_path)


# ----------------------------------------------------------------------
# kill/resume determinism (the tentpole's correctness bar)
# ----------------------------------------------------------------------

class TestKillResumeDeterminism:
    """3 seeds x 2 kill points, faults + watchdog armed throughout."""

    @pytest.mark.parametrize("seed", [3, 11, 29])
    @pytest.mark.parametrize("kill_after", [2, 8])
    def test_resume_matches_uninterrupted(self, tmp_path, seed, kill_after):
        manifest = _manifest(seed)
        golden = _golden(manifest)
        _run_killed(manifest, tmp_path, kill_after)
        durable = resume_campaign(tmp_path, journal_sync=False)
        _assert_recovered_watermark(durable, durable.fuzzer.stats.execs)
        stats = durable.run()
        assert (stats_checksum(stats), _corpus_blobs(durable.fuzzer.corpus),
                _crash_digest(durable.fuzzer.crashes)) == golden
        final = json.loads((tmp_path / "final.json").read_text())
        assert final["stats_checksum"] == golden[0]

    @pytest.mark.parametrize("kill_after", [2, 8])
    def test_chain_campaign_resume_matches(self, tmp_path, kill_after):
        # Overlay chains + bandit placement: the checkpoint must carry
        # the chain cursors and per-entry arm statistics, or the
        # resumed bandit diverges from the uninterrupted run.
        manifest = _manifest(7, policy="bandit", max_chain_depth=3)
        golden = _golden(manifest)
        _run_killed(manifest, tmp_path, kill_after)
        durable, result = _resume_and_finish(tmp_path)
        assert result == golden
        final = json.loads((tmp_path / "final.json").read_text())
        assert final["stats_checksum"] == golden[0]

    def test_resume_before_first_checkpoint(self, tmp_path):
        # Killed during the very first steps: no checkpoint exists yet,
        # so resume restarts from the manifest and still matches.
        manifest = _manifest(seed=3, checkpoint_every=100000)
        golden = _golden(manifest)
        _run_killed(manifest, tmp_path, kill_after_polls=2)
        durable, result = _resume_and_finish(tmp_path)
        assert durable.resumed_from is None
        assert result == golden

    def test_resume_survives_corrupt_newest_checkpoint(self, tmp_path):
        # A kill mid-checkpoint-write leaves a damaged newest epoch;
        # resume must degrade to the previous epoch, warn, and still
        # converge on the uninterrupted result.
        manifest = _manifest(seed=11)
        golden = _golden(manifest)
        victim = _run_killed(manifest, tmp_path, kill_after_polls=8)
        epochs = victim.checkpoints.epochs()
        assert len(epochs) >= 2, "need two epochs to test the fallback"
        newest = tmp_path / "checkpoints" / ("epoch_%06d.ckpt" % epochs[-1])
        data = bytearray(newest.read_bytes())
        data[len(data) // 2] ^= 0xFF
        newest.write_bytes(bytes(data))
        with pytest.warns(UserWarning, match="corrupt checkpoint"):
            durable, result = _resume_and_finish(tmp_path)
        assert durable.resumed_from == epochs[-2]
        assert result == golden

    def test_resume_survives_torn_journal_append(self, tmp_path):
        # A kill mid-journal-append leaves a half-written frame; resume
        # truncates it, warns, and the re-derived run still matches.
        manifest = _manifest(seed=29)
        golden = _golden(manifest)
        _run_killed(manifest, tmp_path, kill_after_polls=8)
        wal = tmp_path / "journal.wal"
        wal.write_bytes(wal.read_bytes()[:-5])
        with pytest.warns(UserWarning, match="torn tail"):
            durable, result = _resume_and_finish(tmp_path)
        assert result == golden

    def test_resume_survives_bitflipped_journal_tail(self, tmp_path):
        manifest = _manifest(seed=29)
        golden = _golden(manifest)
        _run_killed(manifest, tmp_path, kill_after_polls=8)
        wal = tmp_path / "journal.wal"
        data = bytearray(wal.read_bytes())
        data[-2] ^= 0x40
        wal.write_bytes(bytes(data))
        with pytest.warns(UserWarning, match="torn tail"):
            durable, result = _resume_and_finish(tmp_path)
        assert result == golden

    def test_double_kill_then_resume(self, tmp_path):
        # Kill, resume, kill the resumed run, resume again.
        manifest = _manifest(seed=3)
        golden = _golden(manifest)
        _run_killed(manifest, tmp_path, kill_after_polls=3)
        second = resume_campaign(tmp_path, journal_sync=False)
        calls = [0]

        def bomb():
            calls[0] += 1
            if calls[0] > 4:
                raise SimulatedKill
            return False

        with pytest.raises(SimulatedKill):
            second.run(stop=bomb)
        second.close()
        durable, result = _resume_and_finish(tmp_path)
        assert result == golden

    def test_resume_of_completed_campaign_is_idempotent(self, tmp_path):
        manifest = _manifest(seed=3)
        durable = DurableCampaign(
            build_campaign_from_manifest(PROFILES["lighttpd"], manifest),
            tmp_path, checkpoint_every=100, manifest=manifest,
            journal_sync=False)
        stats = durable.run()
        checksum = stats_checksum(stats)
        resumed = resume_campaign(tmp_path, journal_sync=False)
        assert resumed.completed
        again = resumed.run()
        assert stats_checksum(again) == checksum

    def test_journal_salvages_corpus_blobs(self, tmp_path):
        manifest = _manifest(seed=3)
        _run_killed(manifest, tmp_path, kill_after_polls=5)
        blobs = salvage_corpus_blobs(tmp_path)
        assert blobs, "the killed window's finds survive in the WAL"
        spec = default_network_spec()
        from repro.spec.bytecode import deserialize
        for _entry_id, blob in blobs:
            assert deserialize(spec, blob)

    @pytest.mark.parametrize("kind", ["single", "fleet"])
    def test_graceful_stop_then_resume(self, tmp_path, kind):
        if kind == "single":
            manifest = _manifest(seed=11)
            golden = _golden(manifest)
        else:
            manifest = _fleet_manifest(seed=5)
            golden = _fleet_golden(manifest)
        durable = _fresh_durable(manifest, tmp_path)
        calls = [0]

        def drain():
            calls[0] += 1
            return calls[0] > 4

        assert durable.run(stop=drain) is None
        kinds = [k for k, _ in Journal(tmp_path / "journal.wal",
                                       sync=False).records]
        assert "graceful_stop" in kinds
        _durable, result = _resume_and_finish(tmp_path)
        assert result == golden


class TestParallelKillResume:
    @pytest.mark.parametrize("seed,kill_after", [(5, 3), (5, 9), (17, 6)])
    def test_parallel_resume_matches(self, tmp_path, seed, kill_after):
        manifest = _fleet_manifest(seed)
        golden = _fleet_golden(manifest)
        victim = _fresh_durable(manifest, tmp_path)
        calls = [0]

        def bomb():
            calls[0] += 1
            if calls[0] > kill_after:
                raise SimulatedKill
            return False

        with pytest.raises(SimulatedKill):
            victim.run(stop=bomb)
        victim.close()
        durable = resume_campaign(tmp_path, journal_sync=False)
        _assert_recovered_watermark(durable, durable.campaign.total_execs())
        aggregate = durable.run()
        assert _fleet_outcome(durable.campaign, aggregate) == golden
        final = json.loads((tmp_path / "final.json").read_text())
        assert final["stats_checksum"] == golden[0]
        assert final["workers"] == 2

    def test_parallel_worker_journals_exist(self, tmp_path):
        _fresh_durable(_fleet_manifest(5), tmp_path).run()
        assert (tmp_path / "workers" / "w00" / "journal.wal").exists()
        assert (tmp_path / "workers" / "w01" / "journal.wal").exists()


# ----------------------------------------------------------------------
# robustness state survives kill/resume
# ----------------------------------------------------------------------

class TestRobustnessStateResume:
    def test_supervision_state_roundtrips(self, tmp_path):
        """Quarantine tallies, backoff counters, degraded-root flags and
        watchdog timeout counts all come back from a checkpoint."""
        manifest = campaign_manifest(
            "parallel", "lighttpd", policy="balanced", seed=7,
            time_budget=5.0, max_execs=300, checkpoint_every=100, workers=2)
        durable = DurableParallelCampaign(
            build_campaign_from_manifest(PROFILES["lighttpd"], manifest),
            tmp_path, checkpoint_every=100, manifest=manifest,
            journal_sync=False)
        campaign = durable.campaign
        campaign.start()
        # Plant distinctive robustness state, as a flaky fleet would.
        campaign._entry_failures = {12345: 1, 67890: 2}
        campaign.workers[0].consecutive_failures = 2
        campaign.workers[0].fuzzer.stats.worker_failures = 3
        campaign.workers[0].fuzzer.stats.timeouts = 4
        campaign.workers[0].fuzzer.stats.quarantined_inputs = 1
        campaign.workers[1].retired = True
        campaign.workers[1].done = True
        campaign.workers[1].executor.degraded_root_only = True
        campaign.workers[1].executor.snapshot_rebuilds = 6
        durable.save_checkpoint("test")
        durable.close()

        resumed = resume_campaign(tmp_path, journal_sync=False)
        fleet = resumed.campaign
        assert fleet._entry_failures == {12345: 1, 67890: 2}
        assert fleet.workers[0].consecutive_failures == 2
        assert fleet.workers[0].fuzzer.stats.worker_failures == 3
        assert fleet.workers[0].fuzzer.stats.timeouts == 4
        assert fleet.workers[0].fuzzer.stats.quarantined_inputs == 1
        assert fleet.workers[1].retired and fleet.workers[1].done
        assert fleet.workers[1].executor.degraded_root_only
        assert fleet.workers[1].executor.snapshot_rebuilds == 6

    def test_quarantined_entry_stays_out_after_resume(self, tmp_path):
        """A checksum quarantined before the kill cannot re-enter the
        corpus after resume: the seen-checksum set travels too."""
        manifest = _manifest(seed=7, fault_rate=0.0, exec_timeout=None,
                             max_execs=200)
        durable = DurableCampaign(
            build_campaign_from_manifest(PROFILES["lighttpd"], manifest),
            tmp_path, checkpoint_every=100, manifest=manifest,
            journal_sync=False)
        fuzzer = durable.fuzzer
        fuzzer.begin_campaign()
        fuzzer.step()
        victim_checksums = [e.checksum for e in fuzzer.corpus.entries
                            if e.checksum is not None]
        assert victim_checksums
        removed = fuzzer.corpus.remove_by_checksum(victim_checksums[0])
        assert removed
        durable.save_checkpoint("test")
        durable.close()
        resumed = resume_campaign(tmp_path, journal_sync=False)
        corpus = resumed.fuzzer.corpus
        assert victim_checksums[0] not in {e.checksum
                                           for e in corpus.entries}
        assert victim_checksums[0] in corpus._seen_checksums


# ----------------------------------------------------------------------
# signals
# ----------------------------------------------------------------------

class TestGracefulShutdown:
    def test_first_signal_sets_flag(self):
        with GracefulShutdown() as drain:
            assert not drain()
            os.kill(os.getpid(), signal.SIGTERM)
            for _ in range(100):
                if drain():
                    break
            assert drain.requested

    def test_second_signal_raises(self):
        with GracefulShutdown() as drain:
            os.kill(os.getpid(), signal.SIGTERM)
            while not drain():
                pass
            with pytest.raises(KeyboardInterrupt):
                os.kill(os.getpid(), signal.SIGTERM)
                # Let the handler run.
                for _ in range(1000):
                    pass

    def test_handlers_restored(self):
        before = signal.getsignal(signal.SIGTERM)
        with GracefulShutdown():
            assert signal.getsignal(signal.SIGTERM) != before
        assert signal.getsignal(signal.SIGTERM) == before


# ----------------------------------------------------------------------
# the CLI surface
# ----------------------------------------------------------------------

class TestDurableCli:
    def test_checkpoint_every_needs_out(self, capsys):
        assert main(["fuzz", "lighttpd", "--checkpoint-every", "100"]) == 2
        assert "--out" in capsys.readouterr().err

    def test_resume_needs_manifest(self, capsys, tmp_path):
        assert main(["fuzz", "--resume", str(tmp_path)]) == 2
        assert "manifest" in capsys.readouterr().err

    def test_target_required_without_resume(self, capsys):
        assert main(["fuzz"]) == 2
        assert "target is required" in capsys.readouterr().err

    def test_durable_run_and_completed_resume(self, capsys, tmp_path):
        out = str(tmp_path / "c")
        code = main(["fuzz", "lighttpd", "--execs", "120", "--time", "30",
                     "--seed", "3", "--checkpoint-every", "60",
                     "--out", out])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "durable campaign" in stdout
        final = json.loads((tmp_path / "c" / "final.json").read_text())
        assert final["execs"] == 120
        assert (tmp_path / "c" / "manifest.json").exists()
        assert (tmp_path / "c" / "stats.json").exists()
        # Resuming a finished campaign is a no-op with the same result.
        assert main(["fuzz", "--resume", out]) == 0
        assert json.loads(
            (tmp_path / "c" / "final.json").read_text()) == final

    def test_resume_conflicting_flags_refused(self, capsys, tmp_path):
        out = str(tmp_path / "c")
        main(["fuzz", "lighttpd", "--execs", "60", "--time", "30",
              "--seed", "3", "--checkpoint-every", "50", "--out", out])
        capsys.readouterr()
        code = main(["fuzz", "--resume", out, "--seed", "4"])
        assert code == 2
        err = capsys.readouterr().err
        assert "conflict" in err and "--seed" in err
        # The recorded target also counts as a conflicting flag.
        assert main(["fuzz", "dnsmasq", "--resume", out]) == 2

    def test_durable_fleet_honours_chain_depth_and_sanitizer(self, capsys,
                                                             tmp_path):
        # A durable fleet builds every worker with the campaign flags it
        # records, like a single campaign: the sanitizer reports, and
        # the manifest rebuilds each worker at the recorded chain depth.
        out = str(tmp_path / "c")
        code = main(["fuzz", "lightftp", "--workers", "2", "--execs", "200",
                     "--time", "30", "--seed", "3", "--checkpoint-every",
                     "100", "--policy", "bandit", "--max-chain-depth", "3",
                     "--sanitize-resets", "50", "--out", out])
        assert code == 0
        printed = capsys.readouterr().out
        assert "reset sanitizer: " in printed and " 0 leaks" in printed
        durable = resume_campaign(out, journal_sync=False)
        for worker in durable.campaign.workers:
            assert worker.executor.max_chain_depth == 3
            assert worker.fuzzer.config.sanitize_every == 50
        assert durable.campaign.aggregate().merged.sanitizer_checks > 0
        durable.close()

    def test_resume_adopts_manifest_defaults(self, capsys, tmp_path):
        # Flags left at their defaults adopt the manifest's values, so
        # a bare `--resume DIR` resumes a non-default campaign fine.
        out = str(tmp_path / "c")
        main(["fuzz", "lighttpd", "--execs", "60", "--time", "30",
              "--seed", "9", "--policy", "balanced",
              "--checkpoint-every", "50", "--out", out])
        capsys.readouterr()
        assert main(["fuzz", "--resume", out]) == 0


# ----------------------------------------------------------------------
# persistence satellites
# ----------------------------------------------------------------------

class TestPersistSatellites:
    def test_atomic_write_leaves_no_temp(self, tmp_path):
        from repro.fuzz.persist import _atomic_write_bytes
        target = tmp_path / "x.bin"
        _atomic_write_bytes(target, b"payload")
        assert target.read_bytes() == b"payload"
        assert list(tmp_path.iterdir()) == [target]

    def test_atomic_write_temp_name_is_per_process(self, tmp_path):
        # Two processes persisting the same path must not clobber each
        # other's in-flight temp file: the name carries the pid.
        from repro.fuzz import persist
        captured = []
        original = os.replace

        def spy(src, dst):
            captured.append(str(src))
            return original(src, dst)

        os.replace = spy
        try:
            persist._atomic_write_bytes(tmp_path / "x.bin", b"d")
        finally:
            os.replace = original
        assert captured[0].endswith(".tmp.%d" % os.getpid())

    def test_parallel_queue_numbering_starts_at_zero(self, tmp_path):
        from repro.fuzz.persist import save_parallel_campaign
        manifest = campaign_manifest(
            "parallel", "lighttpd", policy="balanced", seed=5,
            time_budget=5.0, max_execs=200, checkpoint_every=100, workers=2)
        campaign = build_campaign_from_manifest(PROFILES["lighttpd"],
                                                manifest)
        campaign.run()
        save_parallel_campaign(campaign, str(tmp_path))
        names = sorted(p.name for p in (tmp_path / "queue").glob("*.nyx"))
        assert names[0] == "id_000000.nyx"
        assert names == ["id_%06d.nyx" % i for i in range(len(names))]

    def test_load_corpus_warning_names_directory(self, tmp_path):
        from repro.fuzz.persist import load_corpus
        queue = tmp_path / "queue"
        queue.mkdir()
        (queue / "id_000000.nyx").write_bytes(b"\xff" * 16)
        with pytest.warns(UserWarning, match=str(tmp_path)):
            load_corpus(str(tmp_path))


def test_durable_campaign_loads_no_analyzers(tmp_path):
    """Hashing the final stats must not import the analysis or perf
    packages.  Runs in a fresh interpreter so other tests' imports do
    not mask a regression."""
    script = "\n".join([
        "import sys",
        "from repro.fuzz.campaign import build_campaign_from_manifest",
        "from repro.fuzz.journal import DurableCampaign, campaign_manifest",
        "from repro.targets import PROFILES",
        "manifest = campaign_manifest('single', 'lighttpd', policy='none',",
        "    seed=1, time_budget=60.0, max_execs=20, checkpoint_every=10)",
        "DurableCampaign(",
        "    build_campaign_from_manifest(PROFILES['lighttpd'], manifest),",
        "    sys.argv[1], checkpoint_every=10, manifest=manifest,",
        "    journal_sync=False).run()",
        "print(sorted(m for m in sys.modules",
        "             if m.startswith(('repro.analysis', 'repro.perf'))))",
    ])
    result = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "campaign")],
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True, text=True, timeout=240)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "campaign" / "final.json").exists()
    assert result.stdout.splitlines()[-1] == "[]"


# ----------------------------------------------------------------------
# real-process chaos: kill -9, SIGTERM
# ----------------------------------------------------------------------

def _spawn_campaign(out_dir, extra=()):
    env = dict(os.environ, PYTHONPATH="src")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "fuzz", "lighttpd",
         "--seed", "6", "--time", "60", "--execs", "500",
         "--checkpoint-every", "100", "--out", str(out_dir)] + list(extra),
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def _wait_for_journal(out_dir, min_bytes, timeout=60.0):
    wal = out_dir / "journal.wal"
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if wal.exists() and wal.stat().st_size >= min_bytes:
            return True
        time.sleep(0.05)
    return False


@pytest.mark.slow
class TestProcessChaos:
    """Seeded chaos harness: kill -9 a real campaign subprocess at a
    randomized point, resume it, and gate on checksum identity."""

    def _golden_checksum(self, tmp_path):
        golden_dir = tmp_path / "golden"
        proc = _spawn_campaign(golden_dir)
        assert proc.wait(timeout=240) == 0
        return json.loads(
            (golden_dir / "final.json").read_text())["stats_checksum"]

    def test_sigkill_then_resume_matches(self, tmp_path):
        import random
        golden = self._golden_checksum(tmp_path)
        chaos = random.Random(0xC0FFEE)  # seeded: reproducible kill point
        out_dir = tmp_path / "victim"
        proc = _spawn_campaign(out_dir)
        threshold = chaos.randrange(200, 2000)
        grew = _wait_for_journal(out_dir, threshold)
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
            assert proc.wait(timeout=30) == -signal.SIGKILL
        assert grew, "campaign died before journaling anything"
        # Resume (possibly more than once if killed again).
        for attempt in range(2):
            resumed = subprocess.run(
                [sys.executable, "-m", "repro", "fuzz",
                 "--resume", str(out_dir)],
                cwd=os.path.dirname(os.path.dirname(
                    os.path.abspath(__file__))),
                env=dict(os.environ, PYTHONPATH="src"),
                capture_output=True, text=True, timeout=240)
            assert resumed.returncode == 0, resumed.stderr
            break
        final = json.loads((out_dir / "final.json").read_text())
        assert final["stats_checksum"] == golden

    def test_sigterm_drains_and_resumes(self, tmp_path):
        golden = self._golden_checksum(tmp_path)
        out_dir = tmp_path / "victim"
        proc = _spawn_campaign(out_dir)
        _wait_for_journal(out_dir, 400)
        code = None
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=60)
        if code == 0:
            pytest.skip("campaign finished before the signal landed")
        assert code == 3, "graceful drain exits 3 (resumable)"
        resumed = subprocess.run(
            [sys.executable, "-m", "repro", "fuzz",
             "--resume", str(out_dir)],
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            env=dict(os.environ, PYTHONPATH="src"),
            capture_output=True, text=True, timeout=240)
        assert resumed.returncode == 0, resumed.stderr
        final = json.loads((out_dir / "final.json").read_text())
        assert final["stats_checksum"] == golden
