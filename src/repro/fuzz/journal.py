"""Campaign durability: journal, checkpoints, manifest, resume.

Long campaigns must survive more than a clean exit.  This module keeps
a campaign's progress on disk in three layers (the shape hypofuzz uses
for its resumable example database: append-only progress log, periodic
checkpoint, exact-state resume):

* **Journal** — a CRC32-framed append-only WAL under the campaign
  directory (``journal.wal``; parallel campaigns add one per worker
  under ``workers/wNN/``).  Every step appends what just happened:
  corpus adds (with the serialized input, so finds survive even
  without a resume), unique crashes, quarantine/sync events and
  exec-count watermarks.  A torn tail — the frame a ``kill -9`` or
  power loss cut in half — is detected by the CRC and truncated at the
  last valid frame; the journal is never a reason to refuse a resume.

* **Checkpoints** — epoch-numbered atomic snapshots of the full
  resumable state (corpus, crash DB, stats, MT19937 RNG position, sim
  clock, queue cursor, snapshot-policy cursors, fault-injector stream)
  written every ``checkpoint_every`` executions via temp+rename+fsync.
  The newest few are kept; a corrupt newest checkpoint degrades to the
  previous one with a warning.

* **Manifest** — ``manifest.json`` records everything needed to
  rebuild the campaign deterministically (target, seed, policy, fault
  plan, spec digest, coverage backend, worker count, format version).
  Resume validates it and refuses mismatched configs with a clear
  diagnostic instead of silently producing incomparable results.

Resume restores the newest valid checkpoint and *continues stepping*:
because every component is deterministic on the sim clock, re-running
the window between the checkpoint and the kill regenerates it
identically, so a killed-and-resumed campaign finishes with the same
``stats_checksum``, corpus and crash DB as an uninterrupted run.  The
journal tail past the checkpoint is used for recovery reporting and
artifact salvage — folding it into live state instead would desync the
RNG/clock from the corpus and break that identity.

Signals: the CLI installs :class:`GracefulShutdown`, turning the first
SIGTERM/SIGINT into a drain request — finish the current step,
checkpoint, journal a ``graceful_stop`` record, exit resumable.  A
second signal (or SIGKILL) aborts hard; the next resume then recovers
from the last periodic checkpoint plus the journal tail.
"""

from __future__ import annotations

import json
import os
import pathlib
import pickle
import signal
import struct
import warnings
import zlib
from typing import Callable, Dict, List, Optional, Tuple

from repro.fuzz.persist import (_atomic_write_bytes, _atomic_write_text,
                                _fsync_dir)
from repro.fuzz.stats import stats_checksum

#: Bumped on any incompatible change to the on-disk layout, or to what
#: the recorded coverage means: version 1 campaigns were built on line
#: sites, and resuming one would mix two coverage metrics in one map.
MANIFEST_VERSION = 2

#: Oldest pickle protocol both supported interpreters (3.9/3.12) share
#: efficiently; pinned so checkpoints do not depend on the writer.
_PICKLE_PROTOCOL = 4

_JOURNAL_MAGIC = b"NYXWAL1\n"
_CKPT_MAGIC = b"NYXCKPT1"
_FRAME_HEADER = struct.Struct("<II")  # payload length, crc32(payload)
#: Upper bound on a single frame/checkpoint payload — anything larger
#: is treated as a corrupt length field, not an allocation request.
_MAX_PAYLOAD = 1 << 28

#: Every journal frame kind, mapped to where its records are consumed
#: on resume/salvage.  A kind appended without an entry here would be
#: written durably but silently dropped by every reader — the
#: durability lint (NYX064, :mod:`repro.analysis.durlint`) checks each
#: ``journal.append`` call against this registry, and
#: :meth:`Journal.append` enforces it at runtime.
FRAME_KINDS: Dict[str, str] = {
    "corpus_add": "salvage_corpus_blobs / _tail_summary corpus adds",
    "crash": "_tail_summary crash recovery count",
    "watermark": "_tail_summary journal_execs recovery watermark",
    "checkpoint": "recovery reporting (epoch audit trail)",
    "graceful_stop": "recovery reporting (clean-drain marker)",
    "complete": "recovery reporting (finalization marker)",
    "quarantine": "recovery reporting (fleet supervision audit)",
    "retire": "recovery reporting (fleet supervision audit)",
    "sync": "recovery reporting (corpus-sync audit)",
    "verify": "recovery reporting (checkpoint-verification audit)",
}


class DurabilityError(Exception):
    """A durable-campaign directory cannot be used as requested."""


def scan_journal(path) -> Tuple[List[Tuple[str, dict]], Optional[int], bool]:
    """Tolerant front-to-back scan of one journal file.

    Returns ``(records, valid_end_offset, bad_header)``: every frame up
    to the first length/CRC/decode failure, the byte offset where the
    valid prefix ends (``None`` when the file does not exist), and
    whether even the magic header was damaged.
    """
    path = pathlib.Path(path)
    if not path.exists():
        return [], None, False
    data = path.read_bytes()
    if not data:
        return [], 0, False
    if data[:len(_JOURNAL_MAGIC)] != _JOURNAL_MAGIC:
        return [], 0, True
    records: List[Tuple[str, dict]] = []
    offset = len(_JOURNAL_MAGIC)
    while offset + _FRAME_HEADER.size <= len(data):
        length, crc = _FRAME_HEADER.unpack_from(data, offset)
        start = offset + _FRAME_HEADER.size
        if length > _MAX_PAYLOAD or start + length > len(data):
            break
        payload = data[start:start + length]
        if zlib.crc32(payload) != crc:
            break
        try:
            kind, body = pickle.loads(payload)
        except Exception:
            break
        records.append((kind, body))
        offset = start + length
    return records, offset, False


# ----------------------------------------------------------------------
# the write-ahead journal
# ----------------------------------------------------------------------

class Journal:
    """Append-only CRC32-framed record log, tolerant of torn tails.

    Frame layout after the 8-byte magic header::

        u32 payload_length | u32 crc32(payload) | payload

    where payload is a pickled ``(kind, body)`` tuple.  Opening an
    existing journal scans it front to back, stops at the first frame
    that fails its length or CRC check, physically truncates the torn
    tail and re-opens for append — so a journal cut mid-write by a
    ``kill -9`` degrades to its last consistent prefix with a warning,
    never a refused resume.
    """

    def __init__(self, path, sync: bool = True) -> None:
        self.path = pathlib.Path(path)
        self.sync = sync
        self.warnings: List[str] = []
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.records, valid_end = self._scan()
        if valid_end is not None:
            size = self.path.stat().st_size
            if valid_end < size:
                message = ("journal %s: truncating %d bytes of torn tail "
                           "at offset %d" % (self.path, size - valid_end,
                                             valid_end))
                self.warnings.append(message)
                warnings.warn(message)
                with open(self.path, "r+b") as handle:
                    handle.truncate(valid_end)
        self._fh = open(self.path, "ab")
        if self._fh.tell() == 0:
            self._fh.write(_JOURNAL_MAGIC)
            self._flush()

    def _scan(self) -> Tuple[List[Tuple[str, dict]], Optional[int]]:
        """Read every valid frame; returns (records, valid_end_offset).

        ``valid_end_offset`` is None for a journal that does not exist
        yet (nothing to truncate).
        """
        records, offset, bad_header = scan_journal(self.path)
        if bad_header:
            message = ("journal %s: corrupt header, discarding the file"
                       % self.path)
            self.warnings.append(message)
            warnings.warn(message)
        return records, offset

    def append(self, kind: str, body: dict) -> None:
        """Durably append one record (``kind`` must be registered)."""
        if kind not in FRAME_KINDS:
            raise ValueError(
                "journal frame kind %r has no registered resume/salvage "
                "handler; add it to FRAME_KINDS (NYX064)" % (kind,))
        payload = pickle.dumps((kind, body), protocol=_PICKLE_PROTOCOL)
        self._fh.write(_FRAME_HEADER.pack(len(payload), zlib.crc32(payload)))
        self._fh.write(payload)
        self._flush()

    def _flush(self) -> None:
        self._fh.flush()
        if self.sync:
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


# ----------------------------------------------------------------------
# atomic epoch-numbered checkpoints
# ----------------------------------------------------------------------

class CheckpointStore:
    """Epoch-numbered atomic checkpoints with corrupt-newest fallback.

    Each checkpoint is one file ``epoch_NNNNNN.ckpt`` written through
    the fsync'ing atomic-rename path, framed like a journal record
    (magic, length, CRC32, pickled state).  The newest ``keep`` epochs
    are retained so a checkpoint corrupted on disk degrades to the one
    before it instead of losing the campaign.
    """

    def __init__(self, directory, keep: int = 3) -> None:
        self.directory = pathlib.Path(directory)
        self.keep = max(2, int(keep))
        #: Stale epochs unlinked over this store's lifetime (surfaced
        #: as the ``checkpoint_epochs_pruned`` host counter).
        self.pruned_total = 0

    def epochs(self) -> List[int]:
        if not self.directory.is_dir():
            return []
        found = []
        for path in self.directory.glob("epoch_*.ckpt"):
            try:
                found.append(int(path.stem.split("_", 1)[1]))
            except (IndexError, ValueError):
                continue
        return sorted(found)

    def _path(self, epoch: int) -> pathlib.Path:
        return self.directory / ("epoch_%06d.ckpt" % epoch)

    def save(self, state: dict) -> int:
        """Atomically persist one checkpoint; returns its epoch."""
        self.directory.mkdir(parents=True, exist_ok=True)
        epochs = self.epochs()
        epoch = epochs[-1] + 1 if epochs else 1
        payload = pickle.dumps(state, protocol=_PICKLE_PROTOCOL)
        blob = (_CKPT_MAGIC
                + _FRAME_HEADER.pack(len(payload), zlib.crc32(payload))
                + payload)
        _atomic_write_bytes(self._path(epoch), blob)
        pruned = 0
        for stale in self.epochs()[:-self.keep]:
            try:
                self._path(stale).unlink()
            except OSError:
                continue
            pruned += 1
        if pruned:
            # An unlink is only durable once the directory entry's
            # removal reaches disk — same bar _atomic_write_bytes meets
            # for the rename that created the entry.
            _fsync_dir(self.directory)
            self.pruned_total += pruned
        return epoch

    def load(self, epoch: int) -> dict:
        """Load one checkpoint; raises DurabilityError on corruption."""
        try:
            data = self._path(epoch).read_bytes()
        except OSError as err:
            raise DurabilityError("checkpoint epoch %d unreadable: %s"
                                  % (epoch, err))
        header_end = len(_CKPT_MAGIC) + _FRAME_HEADER.size
        if len(data) < header_end or data[:len(_CKPT_MAGIC)] != _CKPT_MAGIC:
            raise DurabilityError("checkpoint epoch %d: bad magic" % epoch)
        length, crc = _FRAME_HEADER.unpack_from(data, len(_CKPT_MAGIC))
        payload = data[header_end:]
        if length != len(payload) or length > _MAX_PAYLOAD:
            raise DurabilityError("checkpoint epoch %d: truncated" % epoch)
        if zlib.crc32(payload) != crc:
            raise DurabilityError("checkpoint epoch %d: CRC mismatch" % epoch)
        try:
            return pickle.loads(payload)
        except Exception as err:
            raise DurabilityError("checkpoint epoch %d: undecodable: %s"
                                  % (epoch, err))

    def load_latest(self) -> Tuple[Optional[int], Optional[dict], List[str]]:
        """Newest valid checkpoint, degrading past corrupt ones.

        Returns ``(epoch, state, warnings)``; ``(None, None, warns)``
        when no valid checkpoint exists (resume then restarts from the
        manifest).
        """
        warns: List[str] = []
        for epoch in reversed(self.epochs()):
            try:
                return epoch, self.load(epoch), warns
            except DurabilityError as err:
                warns.append("discarding corrupt checkpoint: %s — falling "
                             "back to the previous epoch" % err)
        return None, None, warns


# ----------------------------------------------------------------------
# the campaign manifest
# ----------------------------------------------------------------------

def campaign_manifest(kind: str, target: str, *, policy: str, seed: int,
                      time_budget: float, max_execs: Optional[int],
                      checkpoint_every: int,
                      iterations_per_snapshot: int = 50,
                      asan: bool = True, fault_rate: float = 0.0,
                      fault_plan: Optional[str] = None,
                      exec_timeout: Optional[float] = None,
                      sanitize_every: Optional[int] = None,
                      workers: int = 1,
                      sync_interval: float = 5.0,
                      verify_checkpoints: Optional[int] = None,
                      max_chain_depth: int = 1) -> dict:
    """Everything needed to rebuild this campaign deterministically."""
    from repro.spec.nodes import default_network_spec
    spec = default_network_spec()
    return {
        "format_version": MANIFEST_VERSION,
        "kind": kind,
        "target": target,
        "policy": policy,
        "seed": seed,
        "time_budget": time_budget,
        "max_execs": max_execs,
        "checkpoint_every": checkpoint_every,
        "iterations_per_snapshot": iterations_per_snapshot,
        "asan": asan,
        "fault_rate": fault_rate,
        "fault_plan": fault_plan,
        "exec_timeout": exec_timeout,
        "sanitize_every": sanitize_every,
        "workers": workers,
        "sync_interval": sync_interval,
        "verify_checkpoints": verify_checkpoints,
        "max_chain_depth": max_chain_depth,
        "spec_name": spec.name,
        "spec_digest": spec.checksum(),
    }


def write_manifest(directory, manifest: dict) -> None:
    _atomic_write_text(pathlib.Path(directory) / "manifest.json",
                       json.dumps(manifest, indent=2, sort_keys=True))


def read_manifest(directory) -> dict:
    """Load and version-check a campaign manifest.

    Raises :class:`DurabilityError` with an actionable diagnostic when
    the directory is not a durable campaign or speaks a different
    format version.
    """
    path = pathlib.Path(directory) / "manifest.json"
    if not path.exists():
        raise DurabilityError(
            "no campaign manifest at %s — not a durable campaign directory "
            "(start one with `repro fuzz <target> --out DIR "
            "--checkpoint-every N`)" % path)
    try:
        manifest = json.loads(path.read_text())
    except (OSError, ValueError) as err:
        raise DurabilityError("unreadable campaign manifest %s: %s"
                              % (path, err))
    version = manifest.get("format_version")
    if version != MANIFEST_VERSION:
        raise DurabilityError(
            "campaign manifest %s has format_version %r; this build speaks "
            "%d — refusing to resume across incompatible formats"
            % (path, version, MANIFEST_VERSION))
    return manifest


def _check_spec(manifest: dict) -> None:
    from repro.spec.nodes import default_network_spec
    spec = default_network_spec()
    digest = spec.checksum()
    if manifest.get("spec_digest") != digest:
        raise DurabilityError(
            "spec mismatch: the campaign was recorded against spec %r "
            "(digest %s) but this build's spec %r has digest %s — a resumed "
            "run would not be comparable, refusing"
            % (manifest.get("spec_name"), manifest.get("spec_digest"),
               spec.name, digest))


# ----------------------------------------------------------------------
# graceful shutdown
# ----------------------------------------------------------------------

class GracefulShutdown:
    """Context manager turning SIGTERM/SIGINT into a drain request.

    The instance is callable (the ``stop`` predicate the durable
    runners poll between steps): the first signal sets the flag — the
    campaign drains its current step, checkpoints and exits resumable.
    A second signal raises ``KeyboardInterrupt`` for an immediate,
    non-graceful abort (the journal + last periodic checkpoint still
    recover it).
    """

    def __init__(self) -> None:
        self.requested = False
        self._previous: Dict[int, object] = {}

    def __call__(self) -> bool:
        return self.requested

    def _handle(self, signum, frame) -> None:
        if self.requested:
            raise KeyboardInterrupt
        self.requested = True

    def __enter__(self) -> "GracefulShutdown":
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._previous[signum] = signal.signal(signum, self._handle)
            except (ValueError, OSError):  # non-main thread / platform
                pass
        return self

    def __exit__(self, *exc) -> None:
        for signum, previous in self._previous.items():
            signal.signal(signum, previous)
        self._previous = {}


# ----------------------------------------------------------------------
# durable campaigns: one instance or a fleet
# ----------------------------------------------------------------------

def _entry_record(entry, spec) -> dict:
    from repro.spec.bytecode import SpecError, serialize
    try:
        blob = serialize(spec, entry.input.ops)
    except SpecError:
        blob = None
    return {"entry_id": entry.entry_id, "found_at": entry.found_at,
            "blob": blob}


def _watermark(fuzzer) -> dict:
    return {"execs": fuzzer.stats.execs, "clock": fuzzer.clock.now}


class DurableCampaign:
    """Journal + checkpoint wrapper around one :class:`NyxNetFuzzer`.

    Construction wires a *fresh* campaign for durability (writing the
    manifest); :func:`resume_campaign` builds one from an existing
    directory and restores its newest valid checkpoint.

    It journals each of its fuzzers' corpus adds, crashes and
    watermarks to that fuzzer's own journal — for a single campaign,
    ``journal.wal`` itself — and checkpoints, verifications and the
    stop/complete markers to ``journal.wal``.
    :class:`DurableParallelCampaign` runs the same code over a fleet.
    """

    kind = "single"
    #: Checkpoint key of the wrapped campaign's resumable state, and the
    #: name of the attribute holding that campaign.
    state_key = "fuzzer"

    def __init__(self, handles, directory, checkpoint_every: int = 500,
                 manifest: Optional[dict] = None,
                 journal_sync: bool = True,
                 verify_every: Optional[int] = None) -> None:
        self.handles = handles
        self.fuzzer = handles.fuzzer
        self._open(directory, checkpoint_every, manifest, journal_sync,
                   verify_every, [self.fuzzer])

    def _open(self, directory, checkpoint_every: int,
              manifest: Optional[dict], journal_sync: bool,
              verify_every: Optional[int], fuzzers: list) -> None:
        """Open the checkpoint store, manifest and ``journal.wal`` (also
        the fuzzer journal of a single campaign)."""
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.checkpoint_every = max(1, int(checkpoint_every))
        #: Cross-process checkpoint verification cadence: after each
        #: periodic checkpoint, once this many further executions have
        #: replayed past it, a fresh subprocess restores the epoch,
        #: re-steps to the parent's boundary and the states are diffed
        #: (NYX065/NYX066, :mod:`repro.analysis.statediff`).
        self.verify_every = (max(1, int(verify_every))
                             if verify_every else None)
        #: Diagnostics from checkpoint verification (empty = healthy).
        self.verify_findings: List = []
        self._verify_pending: Optional[Tuple[int, int]] = None
        self.checkpoints = CheckpointStore(self.directory / "checkpoints")
        if manifest is not None and not (
                self.directory / "manifest.json").exists():
            write_manifest(self.directory, manifest)
        self.journal = Journal(self.directory / "journal.wal",
                               sync=journal_sync)
        from repro.spec.nodes import default_network_spec
        self.spec = default_network_spec()
        #: Epoch the campaign resumed from (None: started fresh).
        self.resumed_from: Optional[int] = None
        #: Journal-tail summary of the kill window (resume only).
        self.recovered: dict = {}
        self.completed = False
        self._ckpt_execs = 0
        #: The fuzzers whose progress is journaled, each to the journal
        #: at the same index of ``fuzzer_journals``.
        self._fuzzers = fuzzers
        self.fuzzer_journals = [self.journal]
        self._take_marks()

    # -- resume ---------------------------------------------------------

    def _restore(self) -> None:
        """Adopt the newest valid checkpoint (if any) and summarize
        the journal tail beyond it."""
        epoch, state, warns = self.checkpoints.load_latest()
        for message in warns:
            warnings.warn(message)
        if epoch is not None:
            for fuzzer in self._fuzzers:
                if fuzzer.config.sanitize_every:
                    # Re-arm before the clock restore: the baseline
                    # digest is content-based (deterministic), and
                    # restore_state erases the arming charges along
                    # with the boot charges.
                    fuzzer._arm_sanitizer()
            self._campaign().restore_state(state[self.state_key])
            self.resumed_from = epoch
            self.completed = state.get("phase") == "final"
            self._ckpt_execs = self._execs()
            self._take_marks()
        # Without a checkpoint (killed before the first one landed) the
        # campaign restarts from the manifest; the (truncated) journals
        # still report what the lost window had found.
        self.recovered = self._tail_summary()

    def _take_marks(self) -> None:
        """Journal only what the campaign adds from here on."""
        self._corpus_marks = [f.corpus.next_id for f in self._fuzzers]
        self._crash_marks = [set(f.crashes.records) for f in self._fuzzers]

    def _tail_summary(self) -> dict:
        """What the journals recorded beyond the restored checkpoint.

        Those finds are not folded into live state — deterministic
        re-execution regenerates them identically — but the summary
        tells the user what the kill window contained (and the
        ``corpus_add`` blobs keep the raw inputs salvageable either
        way).  Corpus adds and crashes are counted over every fuzzer's
        journal; ``journal_execs`` is the last campaign watermark in
        ``journal.wal``.
        """
        adds = 0
        crashes = 0
        for journal, corpus_mark, crash_mark in zip(
                self.fuzzer_journals, self._corpus_marks, self._crash_marks):
            for kind, body in journal.records:
                if (kind == "corpus_add"
                        and body.get("entry_id", -1) >= corpus_mark):
                    adds += 1
                elif kind == "crash" and body.get("key") not in crash_mark:
                    crashes += 1
        last_execs = None
        for kind, body in self.journal.records:
            if kind == "watermark":
                last_execs = body.get("execs", last_execs)
        return {"corpus_adds": adds, "crashes": crashes,
                "journal_execs": last_execs}

    # -- the durable loop -----------------------------------------------

    def run(self, stop: Optional[Callable[[], bool]] = None):
        """Run (or continue) the campaign; ``None`` on graceful stop.

        ``stop`` is polled at every step boundary; returning True
        drains into a checkpoint and a resumable exit.  On normal
        completion the corpus/crashes are persisted alongside a
        ``final.json`` carrying the campaign's ``stats_checksum``; the
        result is read after that, so its host counters include the
        final checkpoint.
        """
        if not self.completed:
            if not self._steps(stop):
                self._graceful_stop()
                return None
            self._finalize()
        elif not (self.directory / "final.json").exists():
            # Killed in the window between the final checkpoint and
            # final.json: re-finalize idempotently instead of stepping.
            self._finalize()
        return self._result()

    def _steps(self, stop: Optional[Callable[[], bool]]) -> bool:
        """Step to the end; False when ``stop`` asked for a drain."""
        fuzzer = self.fuzzer
        fuzzer.begin_campaign()
        self._journal_progress()
        while True:
            if stop is not None and stop():
                return False
            if not fuzzer.step():
                break
            self._after_step()
        fuzzer.finish_campaign()
        return True

    def _after_step(self) -> None:
        """Journal one step, then verify and checkpoint when due."""
        self._journal_progress()
        execs = self._execs()
        if self._verify_due(execs):
            self._verify_now()
        if execs - self._ckpt_execs >= self.checkpoint_every:
            self.save_checkpoint("periodic")

    def _execs(self) -> int:
        return sum(fuzzer.stats.execs for fuzzer in self._fuzzers)

    def _journal_progress(self) -> None:
        """Delta-scan every fuzzer after a step and journal what
        changed, each to the fuzzer's own journal."""
        for i, fuzzer in enumerate(self._fuzzers):
            journal = self.fuzzer_journals[i]
            corpus = fuzzer.corpus
            if corpus.next_id > self._corpus_marks[i]:
                for entry in corpus.export_entries(self._corpus_marks[i]):
                    journal.append("corpus_add",
                                   _entry_record(entry, self.spec))
                self._corpus_marks[i] = corpus.next_id
            crash_mark = self._crash_marks[i]
            for key, record in fuzzer.crashes.records.items():
                if key not in crash_mark:
                    crash_mark.add(key)
                    journal.append("crash", {"key": key,
                                             "found_at": record.found_at})
            journal.append("watermark", _watermark(fuzzer))

    def save_checkpoint(self, reason: str = "periodic") -> int:
        """Checkpoint the full resumable state; returns the epoch."""
        phase = "final" if reason == "final" else "running"
        state = {"phase": phase,
                 self.state_key: self._campaign().snapshot_state()}
        pruned_before = self.checkpoints.pruned_total
        epoch = self.checkpoints.save(state)
        # Campaign-level host counters live on the first fuzzer's stats
        # (worker 0 of a fleet); merge() sums them into the aggregate.
        stats = self._fuzzers[0].stats
        stats.checkpoints_written += 1
        stats.checkpoint_epochs_pruned += (
            self.checkpoints.pruned_total - pruned_before)
        self._ckpt_execs = self._execs()
        if (self.verify_every is not None and self._verify_pending is None
                and reason == "periodic"):
            self._verify_pending = (epoch, self._ckpt_execs)
        self.journal.append("checkpoint", dict(
            {"epoch": epoch, "reason": reason}, **self._position()))
        return epoch

    # -- cross-process checkpoint verification ---------------------------

    def _verify_due(self, execs: int) -> bool:
        """Has the replay window past the pending epoch elapsed?"""
        return (self._verify_pending is not None
                and self.verify_every is not None
                and execs >= self._verify_pending[1] + self.verify_every)

    def _verify_now(self) -> None:
        """Differential-check the pending epoch against live state.

        Reads the parent's state without mutating it (snapshot +
        checksum are pure), spawns the verifier subprocess and folds
        its findings into ``verify_findings`` plus the host counters.
        """
        from repro.analysis.statediff import state_digest, verify_checkpoint
        epoch, _ckpt_execs = self._verify_pending
        self._verify_pending = None
        if epoch not in self.checkpoints.epochs():
            return  # pruned before the replay window elapsed
        execs = self._execs()
        expected_digest, _trunc = state_digest(
            self._campaign().snapshot_state())
        findings = verify_checkpoint(
            self.directory, epoch, execs, stats_checksum(self._stats()),
            expected_digest, kind=self.kind)
        stats = self._fuzzers[0].stats
        stats.checkpoint_verifications += 1
        stats.checkpoint_divergences += len(findings)
        self.verify_findings.extend(findings)
        self.journal.append("verify", {
            "epoch": epoch, "execs": execs, "findings": len(findings)})

    def _graceful_stop(self) -> None:
        self.save_checkpoint("graceful-stop")
        self.journal.append("graceful_stop", self._position())
        self.close()

    def _finalize(self) -> None:
        self.save_checkpoint("final")
        final = self._persist()
        stats = self._stats()
        checksum = stats_checksum(stats)
        final.update({
            "kind": self.kind,
            "stats_checksum": checksum,
            "execs": stats.execs,
            "edges": stats.final_edges,
            "sim_seconds": stats.end_time,
            "crashes": sorted({key for fuzzer in self._fuzzers
                               for key in fuzzer.crashes.records}),
        })
        _atomic_write_text(self.directory / "final.json",
                           json.dumps(final, indent=2, sort_keys=True))
        self.journal.append("complete", {"execs": stats.execs,
                                         "stats_checksum": checksum})
        self.close()
        self.completed = True

    def close(self) -> None:
        """Release every journal handle without checkpointing (abandon)."""
        for journal in [self.journal] + self.fuzzer_journals:
            journal.close()

    # -- what a fleet replaces ------------------------------------------

    def _campaign(self):
        """The wrapped campaign, whose state the checkpoints carry."""
        return getattr(self, self.state_key)

    def _position(self) -> dict:
        """Exec count (and sim clock) on checkpoint and stop frames."""
        return _watermark(self.fuzzer)

    def _stats(self):
        """The stats ``stats_checksum`` is taken over."""
        return self.fuzzer.stats

    def _result(self):
        return self.fuzzer.stats

    def _persist(self) -> dict:
        """Save corpus and crashes; returns extra ``final.json`` keys."""
        from repro.fuzz.persist import save_campaign
        save_campaign(self.fuzzer, str(self.directory))
        return {}


class DurableParallelCampaign(DurableCampaign):
    """Durability wrapper around a :class:`ParallelCampaign` fleet.

    Each worker journals its corpus adds, crashes and watermarks to
    ``workers/wNN/journal.wal``; ``journal.wal`` adds the fleet events
    (quarantines, retirements, sync rounds, total-exec watermarks).
    Quarantine tallies and per-worker backoff counters come back from
    the checkpoint, so supervision state persists fleet-wide.
    """

    kind = "parallel"
    state_key = "campaign"

    def __init__(self, campaign, directory, checkpoint_every: int = 1000,
                 manifest: Optional[dict] = None,
                 journal_sync: bool = True,
                 verify_every: Optional[int] = None) -> None:
        self.campaign = campaign
        self._open(directory, checkpoint_every, manifest, journal_sync,
                   verify_every, [w.fuzzer for w in campaign.workers])
        self.fuzzer_journals = [
            Journal(self.directory / "workers" / ("w%02d" % w.worker_id)
                    / "journal.wal", sync=journal_sync)
            for w in campaign.workers]
        self._stop: Optional[Callable[[], bool]] = None

    def _take_marks(self) -> None:
        super()._take_marks()
        campaign = self.campaign
        self._quarantine_mark = dict(campaign._entry_failures)
        self._retired_mark = {w.worker_id for w in campaign.workers
                              if w.retired}
        self._sync_mark = len(campaign.coverage_series)

    def _journal_progress(self) -> None:
        super()._journal_progress()
        campaign = self.campaign
        for checksum, failures in campaign._entry_failures.items():
            if self._quarantine_mark.get(checksum) != failures:
                self._quarantine_mark[checksum] = failures
                self.journal.append("quarantine", {"checksum": checksum,
                                                   "failures": failures})
        for worker in campaign.workers:
            if worker.retired and worker.worker_id not in self._retired_mark:
                self._retired_mark.add(worker.worker_id)
                self.journal.append("retire", {"worker": worker.worker_id})
        if len(campaign.coverage_series) > self._sync_mark:
            self._sync_mark = len(campaign.coverage_series)
            self.journal.append("sync", {
                "rounds": self._sync_mark,
                "edges": campaign.global_coverage.edge_count()})
        self.journal.append("watermark", self._position())

    def _steps(self, stop: Optional[Callable[[], bool]]) -> bool:
        self._stop = stop
        self.campaign.start()
        self._journal_progress()
        return self.campaign.run(controller=self) is not None

    # controller protocol consumed by ParallelCampaign.run
    def should_stop(self) -> bool:
        return bool(self._stop()) if self._stop is not None else False

    def after_slice(self, campaign, worker) -> None:
        self._after_step()

    def _position(self) -> dict:
        return {"execs": self._execs()}  # workers keep their own clocks

    def _stats(self):
        return self._result().merged

    def _result(self):
        return self.campaign.aggregate()

    def _persist(self) -> dict:
        from repro.fuzz.persist import save_parallel_campaign
        save_parallel_campaign(self.campaign, str(self.directory))
        return {"workers": len(self.campaign.workers)}


# ----------------------------------------------------------------------
# construction and resume
# ----------------------------------------------------------------------

def durable_campaign(profile, manifest: dict, directory,
                     journal_sync: bool = True) -> DurableCampaign:
    """Build the campaign ``manifest`` records and wrap it durably: the
    one construction path of a fresh (``fuzz --checkpoint-every``) and a
    resumed durable campaign.  The manifest is written only when the
    directory has none yet."""
    from repro.fuzz.campaign import (build_campaign_from_manifest,
                                     build_parallel_campaign_from_manifest)
    if manifest.get("kind") == "parallel":
        wrap, build = (DurableParallelCampaign,
                       build_parallel_campaign_from_manifest)
    else:
        wrap, build = DurableCampaign, build_campaign_from_manifest
    return wrap(build(profile, manifest), directory,
                checkpoint_every=int(manifest.get("checkpoint_every", 500)),
                manifest=manifest, journal_sync=journal_sync,
                verify_every=manifest.get("verify_checkpoints"))


def resume_campaign(directory, journal_sync: bool = True):
    """Rebuild a durable campaign from its directory and restore it.

    Validates the manifest (format version, known target, spec digest),
    reconstructs the campaign deterministically through
    :func:`durable_campaign`, loads the newest valid checkpoint and
    truncates any torn journal tail.  Returns a :class:`DurableCampaign`
    or :class:`DurableParallelCampaign` ready to ``run()``.
    """
    from repro.targets import PROFILES
    manifest = read_manifest(directory)
    target = manifest.get("target")
    profile = PROFILES.get(target)
    if profile is None:
        raise DurabilityError(
            "campaign manifest names unknown target %r (see `repro "
            "targets`)" % target)
    _check_spec(manifest)
    durable = durable_campaign(profile, manifest, directory,
                               journal_sync=journal_sync)
    durable._restore()
    return durable


def salvage_corpus_blobs(directory) -> List[Tuple[int, bytes]]:
    """Raw serialized inputs recorded in a campaign's journals.

    Works without (and independently of) a resume: the WAL keeps every
    corpus add's serialized bytecode, so finds survive even when no
    checkpoint ever landed.  Parallel worker journals are included.
    """
    root = pathlib.Path(directory)
    paths = [root / "journal.wal"]
    paths.extend(sorted(root.glob("workers/w*/journal.wal")))
    blobs: List[Tuple[int, bytes]] = []
    for path in paths:
        records, _end, _bad = scan_journal(path)
        for kind, body in records:
            if kind == "corpus_add" and body.get("blob") is not None:
                blobs.append((body["entry_id"], body["blob"]))
    return blobs
