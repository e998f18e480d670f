"""Parallel multi-instance campaigns over one shared root snapshot.

The paper's §6 scalability result — "80 instances of Nyx-Net only
require about 2x the memory of a single instance" — rests on sharing
the root snapshot between instances (§5.3).  This module builds that
orchestration layer:

* **One golden boot.**  The target boots exactly once; every worker VM
  :meth:`~repro.vm.machine.Machine.adopt_root`\\ s the golden root
  image as CoW page references instead of re-booting, and copies the
  golden interceptor's boot-time surface tables (guest socket ids are
  part of the adopted memory image, so they match verbatim).  Each
  worker is then wired by the single campaign's own
  :func:`~repro.fuzz.campaign.build_campaign`.

* **Deterministic interleaving.**  Workers run round-robin time slices
  on the sim clock: the scheduler always steps the worker whose clock
  is furthest behind, for a slice length drawn from a campaign-level
  :class:`DeterministicRandom`.  Same seed and worker count → the
  exact same interleaving, which the determinism tests pin down to
  byte-identical aggregate stats and corpus contents.

* **AFL-style corpus sync.**  Every ``sync_interval`` sim seconds each
  worker exports its new-coverage entries (with traces); a merged
  campaign-level bitmap decides which are *globally* new, and only
  those are broadcast to the peers via
  :meth:`~repro.fuzz.queue.Corpus.import_foreign`.  Importers fold the
  entry's trace into their own map so known behaviour is not
  rediscovered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.coverage.bitmap import CoverageMap
from repro.faults import FaultPlan
from repro.fuzz.campaign import CampaignHandles, boot_target, build_campaign
from repro.fuzz.stats import AggregateStats, CampaignStats
from repro.sim.rng import DeterministicRandom
from repro.targets.base import TargetProfile
from repro.vm.machine import Machine, unique_page_footprint

#: Per-worker RNG seeds derive from the campaign seed through this
#: multiplier (golden-ratio hash constant) so workers explore
#: different trajectories without any shared-stream coupling.
_WORKER_SEED_STRIDE = 0x9E3779B1
#: The campaign options that shape the boot, and so the golden image
#: every worker adopts.
_BOOT_OPTIONS = ("asan", "memory_bytes", "heap_slack")
#: Max scheduling iterations per time slice (each slice's length is
#: drawn uniformly from [1, SLICE_MAX_STEPS]).
SLICE_MAX_STEPS = 3
#: Consecutive step() failures a worker survives before it is retired
#: and the campaign continues at reduced worker count.
MAX_WORKER_RETRIES = 3
#: Sim seconds charged to a failed worker before its next slice
#: (doubles per consecutive failure — exponential backoff).
FAILURE_BACKOFF = 0.5
#: Step failures attributable to the same corpus entry before that
#: entry is quarantined fleet-wide.
QUARANTINE_THRESHOLD = 2


@dataclass
class WorkerHandle(CampaignHandles):
    """One fuzzing instance inside a parallel campaign: its campaign
    handles plus the fleet's supervision state."""

    worker_id: int = 0
    #: Corpus-id watermark: entries below this id were already
    #: considered by a previous sync round.
    synced_id: int = 0
    done: bool = False
    #: Supervision state: consecutive step() failures, and whether the
    #: worker was permanently retired after exhausting its retries.
    consecutive_failures: int = 0
    retired: bool = False


class ParallelCampaign:
    """N fuzzer instances sharing one root snapshot and a corpus.

    The fleet's own values are the worker count, the campaign-wide
    ``max_total_execs`` cap, the ``sync_interval`` between corpus sync
    rounds (sim seconds), ``image_pages`` and the seeds.  Every other
    keyword is :func:`~repro.fuzz.campaign.build_campaign`'s and builds
    each worker unchanged, except for what a fleet decides per worker:
    its derived seed, the adopted root and no per-worker exec cap.  An
    explicit ``fault_plan`` becomes each worker's
    :meth:`~repro.faults.FaultPlan.for_worker` plan; a ``fault_rate``
    already derives that same plan from the worker's seed.

    ``image_pages`` writes that many pages of simulated OS/page-cache
    image into the golden VM before the root capture.  The lean
    simulated guest boots into only a handful of pages; a real VM image
    is megabytes, and the §6 footprint claim compares worker churn
    against *that*.  0 measures the bare boot image.
    """

    def __init__(self, profile: TargetProfile, workers: int = 2,
                 seed: int = 0, max_total_execs: Optional[int] = None,
                 sync_interval: float = 5.0, image_pages: int = 0,
                 seeds=None, **options) -> None:
        if workers < 1:
            raise ValueError("a campaign needs at least one worker")
        self.profile = profile
        self.seed = seed
        self.max_total_execs = max_total_execs
        self.sync_interval = sync_interval
        self.options = options
        self.rng = DeterministicRandom(seed)
        #: Campaign-level merged bitmap: the arbiter of what is
        #: *globally* new during corpus sync.
        self.global_coverage = CoverageMap()
        #: (sim time, merged edges) sampled at every sync round.
        self.coverage_series: List[Tuple[float, int]] = []
        self._seeds = seeds if seeds is not None else profile.seeds()
        #: Spec used to validate/repair entries crossing workers during
        #: corpus sync (network targets all speak the default spec).
        from repro.spec.nodes import default_network_spec
        self.spec = default_network_spec()

        # One golden boot; workers adopt its root snapshot.
        self.golden = boot_target(profile, **{
            key: options[key] for key in _BOOT_OPTIONS if key in options})
        if image_pages:
            self._bake_image(self.golden[0], image_pages)
        self.root = self.golden[0].snapshots.root

        self.workers: List[WorkerHandle] = [
            self._spawn_worker(i) for i in range(workers)]
        self._finished = False
        self._started = False
        #: Sim time of the next corpus sync round (advances by
        #: ``sync_interval``; part of the resumable state).
        self._next_sync = sync_interval
        #: Step failures attributed to a corpus entry, keyed by its
        #: coverage checksum (the cross-worker identity).
        self._entry_failures: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # fleet construction
    # ------------------------------------------------------------------

    @staticmethod
    def _bake_image(machine: Machine, image_pages: int) -> None:
        """Write a deterministic OS-image pattern into the top pages of
        guest memory and re-capture the root so it is part of the
        shared image.  The top of memory is never reached by the
        guest's bump allocator, so the pattern is inert ballast."""
        from repro.vm.memory import PAGE_SIZE
        top = machine.memory.num_pages
        first = max(0, top - image_pages)
        for idx in range(first, top):
            machine.memory.write(idx * PAGE_SIZE, b"%016d" % idx)
        machine.capture_root()

    def _spawn_worker(self, worker_id: int) -> WorkerHandle:
        """Build one instance on the shared root, without booting."""
        options = dict(self.options, golden=self.golden, seeds=self._seeds,
                       max_execs=None,
                       seed=(self.seed + (worker_id + 1)
                             * _WORKER_SEED_STRIDE) % (1 << 31))
        if options.get("fault_plan") is not None:
            options["fault_plan"] = FaultPlan.from_id(
                options["fault_plan"]).for_worker(worker_id).plan_id
        handles = build_campaign(self.profile, **options)
        handles.fuzzer.stats.fuzzer_name = "nyx-net-%s.w%02d" % (
            handles.fuzzer.config.policy, worker_id)
        return WorkerHandle(worker_id=worker_id, **vars(handles))

    # ------------------------------------------------------------------
    # the campaign loop
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Begin every worker and run the seed sync round (idempotent).

        Seed imports already produced coverage: one sync up front means
        no worker wastes its budget rediscovering the seed corpus.  On
        resume this is skipped via the restored ``_started`` flag.
        """
        if self._started:
            return
        self._started = True
        for worker in self.workers:
            try:
                worker.fuzzer.begin_campaign()
            except Exception:
                self._handle_worker_failure(worker)
        self._sync_corpora()

    def run(self, controller=None) -> Optional[AggregateStats]:
        """Run every worker to its budget, syncing corpora as we go.

        ``controller`` (the campaign durability layer) may observe
        slice boundaries via ``after_slice(campaign, worker)`` and
        request a graceful stop via ``should_stop()`` — in which case
        the campaign returns ``None`` *without* finishing, every worker
        parked at a step boundary, ready to be checkpointed and later
        resumed.
        """
        if self._finished:
            raise RuntimeError("campaign already ran")
        self.start()
        while True:
            if controller is not None and controller.should_stop():
                return None
            live = [w for w in self.workers if not w.done]
            if not live or self._total_execs_capped():
                break
            now = min(w.fuzzer.clock.now for w in live)
            if now >= self._next_sync:
                self._sync_corpora()
                self._next_sync += self.sync_interval
            # Step the worker furthest behind on the sim clock: a
            # discrete-event round-robin that keeps instances tightly
            # interleaved without any host-side concurrency.
            worker = min(live, key=lambda w: (w.fuzzer.clock.now,
                                              w.worker_id))
            slice_steps = 1 + self.rng.randrange(SLICE_MAX_STEPS)
            for _ in range(slice_steps):
                if self._total_execs_capped():
                    break
                try:
                    alive = worker.fuzzer.step()
                except Exception:
                    # Supervision: one bad step never kills the
                    # campaign.  The worker is reset, backed off, and
                    # retried; the entry it was fuzzing is a suspect.
                    self._handle_worker_failure(worker)
                    break
                worker.consecutive_failures = 0
                if not alive:
                    worker.done = True
                    break
            if controller is not None:
                controller.after_slice(self, worker)
        return self.finish()

    def finish(self) -> AggregateStats:
        """Final sync, stamp every worker's stats, roll up."""
        self._sync_corpora()
        for worker in self.workers:
            worker.fuzzer.finish_campaign()
        self._finished = True
        return self.aggregate()

    # ------------------------------------------------------------------
    # durability (checkpoint/resume)
    # ------------------------------------------------------------------

    #: Version stamp of the checkpointed fleet state.
    #: 2: the _finished latch joined the capture set (NYX060 fix).
    #: 3: workers are built like single campaigns (dictionary et al.).
    STATE_FORMAT = 3

    def snapshot_state(self) -> dict:
        """Full resumable fleet state, valid at a slice boundary.

        Covers the campaign RNG (slice lengths), the merged coverage
        arbiter, the sync schedule, fleet-wide quarantine tallies and
        every worker's fuzzer state plus supervision counters.  The
        caller pickles the dict immediately.
        """
        return {
            "format": self.STATE_FORMAT,
            "started": self._started,
            "finished": self._finished,
            "rng": self.rng.getstate(),
            "global_coverage": self.global_coverage.snapshot_state(),
            "coverage_series": list(self.coverage_series),
            "entry_failures": dict(self._entry_failures),
            "next_sync": self._next_sync,
            "workers": [{
                "fuzzer": w.fuzzer.snapshot_state(),
                "synced_id": w.synced_id,
                "done": w.done,
                "consecutive_failures": w.consecutive_failures,
                "retired": w.retired,
            } for w in self.workers],
        }

    def restore_state(self, state: dict) -> None:
        """Adopt a checkpointed fleet state on a freshly built fleet."""
        if state.get("format") != self.STATE_FORMAT:
            raise ValueError("incompatible parallel checkpoint format %r "
                             "(this build speaks %d)"
                             % (state.get("format"), self.STATE_FORMAT))
        if len(state["workers"]) != len(self.workers):
            raise ValueError(
                "checkpoint has %d workers, campaign has %d"
                % (len(state["workers"]), len(self.workers)))
        self._started = bool(state["started"])
        self._finished = bool(state["finished"])
        self.rng.setstate(state["rng"])
        self.global_coverage.restore_state(state["global_coverage"])
        self.coverage_series = [tuple(p) for p in state["coverage_series"]]
        self._entry_failures = dict(state["entry_failures"])
        self._next_sync = float(state["next_sync"])
        for worker, saved in zip(self.workers, state["workers"]):
            worker.fuzzer.restore_state(saved["fuzzer"])
            worker.synced_id = int(saved["synced_id"])
            worker.done = bool(saved["done"])
            worker.consecutive_failures = int(saved["consecutive_failures"])
            worker.retired = bool(saved["retired"])

    # ------------------------------------------------------------------
    # worker supervision
    # ------------------------------------------------------------------

    def _handle_worker_failure(self, worker: WorkerHandle) -> None:
        """Contain one worker exception: count it, suspect the entry
        being fuzzed, reset the VM to the root, charge backoff, and
        retire the worker once its retry budget is spent."""
        worker.fuzzer.stats.worker_failures += 1
        worker.consecutive_failures += 1
        self._suspect_entry(worker)
        # Backoff doubles per consecutive failure, charged to the
        # worker's own sim clock so the round-robin naturally deprives
        # a flapping worker of slices.
        worker.fuzzer.clock.charge(
            FAILURE_BACKOFF * (2 ** (worker.consecutive_failures - 1)))
        if worker.consecutive_failures > MAX_WORKER_RETRIES:
            worker.done = True
            worker.retired = True
            return
        # Self-heal the VM: drop the snapshot chain and rewind to the
        # (immutable) root, rebuilding guest state from memory.
        try:
            worker.executor.discard_chain()
            worker.machine.restore_root()
        except Exception:
            # Even the root restore failed: this instance is beyond
            # saving.  Retire it; the campaign continues without it.
            worker.done = True
            worker.retired = True

    def _suspect_entry(self, worker: WorkerHandle) -> None:
        """Blame the entry the failing worker was fuzzing; quarantine
        it fleet-wide once it crosses the threshold."""
        entry = worker.fuzzer.last_entry
        if entry is None or entry.checksum is None:
            return
        key = entry.checksum
        self._entry_failures[key] = self._entry_failures.get(key, 0) + 1
        if self._entry_failures[key] < QUARANTINE_THRESHOLD:
            return
        removed = 0
        for peer in self.workers:
            removed += peer.fuzzer.corpus.remove_by_checksum(key)
            if peer.fuzzer.last_entry is not None and \
                    peer.fuzzer.last_entry.checksum == key:
                peer.fuzzer.last_entry = None
        if removed:
            worker.fuzzer.stats.quarantined_inputs += 1

    def retired_workers(self) -> List[int]:
        """Worker ids retired by the supervisor (diagnostics)."""
        return [w.worker_id for w in self.workers if w.retired]

    def _total_execs_capped(self) -> bool:
        cap = self.max_total_execs
        return cap is not None and self.total_execs() >= cap

    def total_execs(self) -> int:
        return sum(w.fuzzer.stats.execs for w in self.workers)

    # ------------------------------------------------------------------
    # corpus sync
    # ------------------------------------------------------------------

    def _sync_corpora(self) -> int:
        """One AFL-style sync round; returns entries broadcast.

        Each worker's entries since its watermark are checked against
        the campaign's merged bitmap; only entries whose trace still
        contains a globally-new edge are broadcast to the peers.
        """
        broadcast: List[Tuple[int, object]] = []
        for worker in self.workers:
            fresh = worker.fuzzer.export_new_entries(worker.synced_id)
            worker.synced_id = worker.fuzzer.corpus.next_id
            for entry in fresh:
                if not entry.trace:
                    continue
                verdict = self.global_coverage.has_new_bits(entry.trace)
                if verdict == CoverageMap.NEW_EDGE:
                    broadcast.append((worker.worker_id, entry))
        for origin, entry in broadcast:
            for worker in self.workers:
                if worker.worker_id != origin:
                    worker.fuzzer.absorb_foreign([entry], spec=self.spec)
        now = max(w.fuzzer.clock.now for w in self.workers)
        edges = self.global_coverage.edge_count()
        if not self.coverage_series or self.coverage_series[-1][1] != edges:
            self.coverage_series.append((now, edges))
        return len(broadcast)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def aggregate(self) -> AggregateStats:
        """Roll per-worker stats up into the campaign-level view."""
        parts = [w.fuzzer.stats for w in self.workers]
        policy = self.workers[0].fuzzer.config.policy
        merged = CampaignStats.merge(
            parts,
            fuzzer_name="nyx-net-%s-x%d" % (policy, len(self.workers)),
            target_name=self.profile.name,
            coverage_series=self.coverage_series)
        return AggregateStats(merged=merged, workers=parts)

    def unique_page_footprint(self) -> Dict[str, float]:
        """Fleet memory accounting for the §6 scalability claim.

        ``single`` is the unique-page footprint of one instance (the
        root image); ``total`` counts distinct page objects across the
        whole fleet plus the shared root.  The paper's claim is
        ``ratio`` ≈ 2 even for 80 instances.
        """
        single = len({id(p) for p in self.root.pages})
        total = unique_page_footprint(
            (w.machine for w in self.workers), roots=(self.root,))
        return {"single": single, "total": total,
                "ratio": total / single if single else 0.0}

    def corpus_digest(self) -> List[List[bytes]]:
        """Serialized corpus contents per worker, for bit-identity
        checks across same-seed runs."""
        from repro.spec.bytecode import SpecError, serialize
        from repro.spec.nodes import default_network_spec
        spec = default_network_spec()
        digest: List[List[bytes]] = []
        for worker in self.workers:
            blobs: List[bytes] = []
            for entry in worker.fuzzer.corpus.entries:
                try:
                    blobs.append(serialize(spec, entry.input.ops))
                except SpecError:
                    blobs.append(b"<foreign-spec>")
            digest.append(blobs)
        return digest
