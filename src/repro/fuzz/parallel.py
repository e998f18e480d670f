"""Parallel multi-instance campaigns over one shared root snapshot.

The paper's §6 scalability result — "80 instances of Nyx-Net only
require about 2x the memory of a single instance" — rests on sharing
the root snapshot between instances (§5.3).  This module builds that
orchestration layer:

* **One golden boot.**  The target boots exactly once; every worker VM
  :meth:`~repro.vm.machine.Machine.adopt_root`\\ s the golden root
  image as CoW page references instead of re-booting, and copies the
  golden interceptor's boot-time surface tables (guest socket ids are
  part of the adopted memory image, so they match verbatim).

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

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.coverage.bitmap import CoverageMap
from repro.coverage.tracer import TracerCore
from repro.emu.interceptor import Interceptor
from repro.faults import FaultInjector, FaultPlan
from repro.fuzz.executor import NyxExecutor
from repro.fuzz.fuzzer import FuzzerConfig, NyxNetFuzzer
from repro.fuzz.stats import AggregateStats, CampaignStats
from repro.guestos.kernel import Kernel
from repro.sim.rng import DeterministicRandom
from repro.targets.base import TargetProfile
from repro.vm.machine import Machine, unique_page_footprint

#: Per-worker RNG seeds derive from the campaign seed through this
#: multiplier (golden-ratio hash constant) so workers explore
#: different trajectories without any shared-stream coupling.
_WORKER_SEED_STRIDE = 0x9E3779B1


@dataclass
class ParallelConfig:
    """Tunables for a parallel campaign."""

    workers: int = 2
    policy: str = "balanced"
    seed: int = 0
    #: Per-worker sim-time budget (workers run concurrently, so this
    #: is also the campaign's wall sim time).
    time_budget: float = 60.0
    #: Campaign-wide cap on total executions across all workers.
    max_total_execs: Optional[int] = None
    iterations_per_snapshot: int = 50
    #: Sim seconds between corpus sync rounds.
    sync_interval: float = 5.0
    #: Max scheduling iterations per time slice (actual length is
    #: drawn uniformly from [1, slice_max_steps] per slice).
    slice_max_steps: int = 3
    memory_bytes: int = 64 * 1024 * 1024
    asan: bool = True
    #: Fault-injection rate (0 disables).  Each worker derives its own
    #: :class:`FaultPlan` from the campaign seed, so the whole fleet's
    #: faults replay bit-identically for the same seed.
    fault_rate: float = 0.0
    #: Per-exec watchdog budget in simulated seconds (None disables).
    exec_timeout: Optional[float] = None
    #: Consecutive step() failures a worker survives before it is
    #: retired and the campaign continues at reduced worker count.
    max_worker_retries: int = 3
    #: Sim seconds charged to a failed worker before its next slice
    #: (doubles per consecutive failure — exponential backoff).
    failure_backoff: float = 0.5
    #: Step failures attributable to the same corpus entry before that
    #: entry is quarantined fleet-wide.
    quarantine_threshold: int = 2
    #: Pages of simulated OS/page-cache image written into the golden
    #: VM before the root capture.  The lean simulated guest boots into
    #: only a handful of pages; a real VM image is megabytes, and the
    #: §6 footprint claim compares worker churn against *that*.  0 =
    #: measure the bare boot image.
    image_pages: int = 0


@dataclass
class WorkerHandle:
    """One fuzzing instance inside a parallel campaign."""

    worker_id: int
    machine: Machine
    kernel: Kernel
    interceptor: Interceptor
    executor: NyxExecutor
    fuzzer: NyxNetFuzzer
    #: Corpus-id watermark: entries below this id were already
    #: considered by a previous sync round.
    synced_id: int = 0
    done: bool = False
    #: Supervision state: consecutive step() failures, and whether the
    #: worker was permanently retired after exhausting its retries.
    consecutive_failures: int = 0
    retired: bool = False


class ParallelCampaign:
    """N fuzzer instances sharing one root snapshot and a corpus."""

    def __init__(self, profile: TargetProfile, config: ParallelConfig,
                 seeds=None) -> None:
        if config.workers < 1:
            raise ValueError("a campaign needs at least one worker")
        self.profile = profile
        self.config = config
        self.rng = DeterministicRandom(config.seed)
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
        from repro.fuzz.campaign import boot_target
        golden_machine, golden_kernel, golden_interceptor = boot_target(
            profile, asan=config.asan, memory_bytes=config.memory_bytes)
        if config.image_pages:
            self._bake_image(golden_machine, config.image_pages)
        self.golden = (golden_machine, golden_kernel, golden_interceptor)
        self.root = golden_machine.snapshots.root

        self.workers: List[WorkerHandle] = [
            self._spawn_worker(i) for i in range(config.workers)]
        self._finished = False
        self._started = False
        #: Sim time of the next corpus sync round (advances by
        #: ``sync_interval``; part of the resumable state).
        self._next_sync = config.sync_interval
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
        """Bring up one instance from the shared root, without booting.

        The kernel must exist before ``adopt_root``: adoption fires the
        restore callbacks, which rebuild the kernel's host-side object
        graph from the adopted memory image.  The kernel's directory
        region is the first allocation on a fresh machine, so its
        location matches the golden image by construction.
        """
        config = self.config
        machine = Machine(memory_bytes=config.memory_bytes)
        kernel = Kernel(machine)
        interceptor = Interceptor(kernel, self.profile.surface())
        machine.adopt_root(self.root)
        interceptor.adopt_surface_state(self.golden[2])

        executor = NyxExecutor(machine, kernel, interceptor, TracerCore(),
                               exec_timeout=config.exec_timeout)
        if config.fault_rate != 0.0:  # negatives rejected by FaultPlan
            plan = FaultPlan.for_campaign(
                config.seed, config.fault_rate).for_worker(worker_id)
            injector = FaultInjector(plan)
            interceptor.injector = injector
            machine.snapshots.injector = injector
        worker_seed = (config.seed
                       + (worker_id + 1) * _WORKER_SEED_STRIDE) % (1 << 31)
        fuzzer_config = FuzzerConfig(
            policy=config.policy, seed=worker_seed,
            time_budget=config.time_budget,
            iterations_per_snapshot=config.iterations_per_snapshot)
        fuzzer = NyxNetFuzzer(executor, [s.copy() for s in self._seeds],
                              fuzzer_config)
        fuzzer.stats.target_name = self.profile.name
        fuzzer.stats.fuzzer_name = "nyx-net-%s.w%02d" % (config.policy,
                                                         worker_id)
        return WorkerHandle(worker_id, machine, kernel, interceptor,
                            executor, fuzzer)

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
                self._next_sync += self.config.sync_interval
            # Step the worker furthest behind on the sim clock: a
            # discrete-event round-robin that keeps instances tightly
            # interleaved without any host-side concurrency.
            worker = min(live, key=lambda w: (w.fuzzer.clock.now,
                                              w.worker_id))
            slice_steps = 1 + self.rng.randrange(self.config.slice_max_steps)
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
    STATE_FORMAT = 2

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
        config = self.config
        worker.fuzzer.stats.worker_failures += 1
        worker.consecutive_failures += 1
        self._suspect_entry(worker)
        # Backoff doubles per consecutive failure, charged to the
        # worker's own sim clock so the round-robin naturally deprives
        # a flapping worker of slices.
        worker.fuzzer.clock.charge(
            config.failure_backoff * (2 ** (worker.consecutive_failures - 1)))
        if worker.consecutive_failures > config.max_worker_retries:
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
        if self._entry_failures[key] < self.config.quarantine_threshold:
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
        cap = self.config.max_total_execs
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
        merged = CampaignStats.merge(
            parts,
            fuzzer_name="nyx-net-%s-x%d" % (self.config.policy,
                                            len(self.workers)),
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
