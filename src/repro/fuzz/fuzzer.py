"""The Nyx-Net campaign loop.

Ties together corpus scheduling, snapshot placement policies, the
mutation engine, the executor and statistics:

1. pick a queue entry;
2. ask the policy for a snapshot index ("Each time a new input is
   scheduled for fuzzing, we randomly decide whether to use
   incremental snapshots for this input", §3.4);
3. run the entry once from the root, creating the incremental snapshot
   (snapshot chain layer 1) at the chosen packet — and, with chains
   enabled, a deeper layer after each further chosen packet;
4. run a batch of suffix mutations against the chain (tens to hundreds
   — reuse ≥50 pays off per §3.4), the policy picking the node each
   one resumes from;
5. feed coverage novelty back into the queue and the policy, then
   discard the chain and return to the root.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.coverage.bitmap import CoverageMap
from repro.fuzz.crash import CrashDatabase
from repro.fuzz.executor import ExecResult, NyxExecutor
from repro.fuzz.input import FuzzInput, packets_input
from repro.fuzz.mutators import MutationEngine
from repro.fuzz.policies import SnapshotPolicy, make_policy
from repro.fuzz.queue import Corpus, QueueEntry
from repro.fuzz.stats import CampaignStats
from repro.sim.rng import DeterministicRandom


@dataclass
class FuzzerConfig:
    """Tunables for one campaign."""

    policy: str = "balanced"
    seed: int = 0
    #: Suffix mutations per incremental snapshot cycle (§3.4: "even for
    #: short state sequences reusing the snapshot as little as 50 times
    #: yields significant performance increases").
    iterations_per_snapshot: int = 50
    #: Mutations per scheduled entry when running from the root.
    iterations_root: int = 25
    dictionary: Sequence[bytes] = ()
    #: Stop conditions: simulated seconds and/or host-side exec count.
    time_budget: float = 60.0
    max_execs: Optional[int] = None
    #: End the campaign at the first unique crash (time-to-solve /
    #: time-to-crash experiments).
    stop_on_first_crash: bool = False
    #: Extra simulated cost charged per execution.  Used to model
    #: harnesses with more expensive resets on the same executor
    #: (e.g. IJON restarting the game process every run).
    per_exec_surcharge: float = 0.0
    #: Run the reset sanitizer (digest-diff of the host object graph
    #: against the post-root-snapshot baseline) every N executions.
    #: ``None`` disables it.  See docs/robustness.md.
    sanitize_every: Optional[int] = None
    #: Maximum snapshot chain depth.  1 keeps the paper's single
    #: incremental snapshot; >1 lets policies stack deeper layers along
    #: an input and steer suffix runs between them (see
    #: docs/snapshots.md).
    max_chain_depth: int = 1


class NyxNetFuzzer:
    """A coverage-guided snapshot fuzzer for one target VM."""

    def __init__(self, executor: NyxExecutor, seeds: Sequence[FuzzInput],
                 config: Optional[FuzzerConfig] = None) -> None:
        self.executor = executor
        self.config = config or FuzzerConfig()
        # The config is authoritative for chain depth: the executor
        # truncates placement lists against its own copy, so the two
        # must agree or points would be dropped silently.
        self.executor.max_chain_depth = max(1, self.config.max_chain_depth)
        self.rng = DeterministicRandom(self.config.seed)
        self.policy: SnapshotPolicy = make_policy(self.config.policy)
        self.coverage = CoverageMap()
        self.corpus = Corpus(self.rng)
        self.mutator = MutationEngine(self.rng, self.config.dictionary)
        self.crashes = CrashDatabase()
        self.stats = CampaignStats(
            fuzzer_name="nyx-net-%s" % self.policy.name)
        self._seeds = [s.copy() for s in seeds]
        self._seeded = False
        #: The entry most recently scheduled by :meth:`step` — the
        #: parallel supervisor's suspect when a step raises.
        self.last_entry: Optional[QueueEntry] = None
        #: Armed by :meth:`begin_campaign` when
        #: :attr:`FuzzerConfig.sanitize_every` is set.  Resume re-arms
        #: it from config before restore_state, so it never travels.
        self.sanitizer = None  # nyx: state[ephemeral]
        #: NYX05x diagnostics the sanitizer reported (capped).
        self.sanitizer_findings: list = []
        self._next_sanitize: Optional[int] = None

    @property
    def clock(self):
        return self.executor.machine.clock

    # ------------------------------------------------------------------
    # campaign
    # ------------------------------------------------------------------

    def run_campaign(self) -> CampaignStats:
        """Run until the time budget or exec cap is exhausted."""
        self.begin_campaign()
        while self.step():
            pass
        return self.finish_campaign()

    def begin_campaign(self) -> None:
        """Import the seed corpus (idempotent; called before stepping)."""
        if self._seeded:
            return
        self._seeded = True
        if self.config.sanitize_every:
            self._arm_sanitizer()
        self._import_seeds()

    def step(self) -> bool:
        """Run one scheduling iteration; False once the budget is spent.

        Parallel campaigns drive workers through this entry point so
        the orchestrator can interleave instances deterministically on
        the sim clock and sync corpora between slices.
        """
        if self.clock.now >= self.config.time_budget or self._exec_capped():
            return False
        if not self.corpus.entries:
            # No seeds were provided: fall back to Nyx's purely
            # generative mode — random well-typed op sequences from
            # the spec (§2.2).
            self._import_input(self._generate_input())
            return True
        entry = self.corpus.next_entry()
        self.last_entry = entry
        self._fuzz_entry(entry)
        self.stats.record_execs(self.clock.now)
        if (self._next_sanitize is not None
                and self.stats.execs >= self._next_sanitize):
            self._sanitize_check()
        return True

    def finish_campaign(self) -> CampaignStats:
        """Stamp the final counters and return the stats."""
        if self.sanitizer is not None:
            # One last check so even short campaigns audit their resets.
            self._sanitize_check()
        self.stats.end_time = self.clock.now
        self.stats.queue_size = len(self.corpus)
        self.stats.snapshot_rebuilds = self.executor.snapshot_rebuilds
        self.stats.degraded_root_only = self.executor.degraded_root_only
        self.stats.prefix_elisions = self.executor.prefix_elisions
        self.stats.prefix_elided_ops = self.executor.prefix_elided_ops
        self.stats.elision_invalidations = self.executor.elision_invalidations
        snap_stats = self.executor.machine.snapshots.stats
        self.stats.chain_pushes = snap_stats.overlay_pushes
        self.stats.chain_commits = snap_stats.overlay_commits
        self.stats.chain_restores = snap_stats.chain_restores
        self.stats.chain_deepest = snap_stats.deepest_chain
        tracer = self.executor.tracer
        if tracer is not None:
            self.stats.fold_memo_evictions = tracer.fold_evictions
            self.stats.coverage_backend = tracer.backend_name
        injector = getattr(self.executor.interceptor, "injector", None)
        if injector is not None:
            self.stats.faults_injected = injector.faults_injected
        return self.stats

    # ------------------------------------------------------------------
    # corpus sync (parallel campaigns)
    # ------------------------------------------------------------------

    def export_new_entries(self, since_id: int = 0):
        """Corpus entries found since the given watermark id."""
        return self.corpus.export_entries(since_id)

    def absorb_foreign(self, entries, spec=None) -> list:
        """Adopt peer corpus entries: enqueue them and fold their
        traces into this worker's coverage map, so already-discovered
        behaviour is not rediscovered from scratch.  With a ``spec``,
        damaged entries are repaired (or skipped) on the way in."""
        adopted = self.corpus.import_foreign(entries,
                                             found_at=self.clock.now,
                                             spec=spec)
        for entry in adopted:
            if entry.trace:
                self.coverage.has_new_bits(entry.trace)
        if adopted:
            self.stats.record_coverage(self.clock.now,
                                       self.coverage.edge_count())
            self.stats.queue_size = len(self.corpus)
        return adopted

    def _exec_capped(self) -> bool:
        cap = self.config.max_execs
        if cap is not None and self.stats.execs >= cap:
            return True
        return (self.config.stop_on_first_crash
                and len(self.crashes) > 0)

    # ------------------------------------------------------------------
    # durability (checkpoint/resume)
    # ------------------------------------------------------------------

    #: Version stamp inside every checkpointed fuzzer state; bumped on
    #: any incompatible change so resume fails loudly, never subtly.
    #: 2: sanitizer_findings joined the capture set (NYX060 fix).
    #: 3: overlay chains — queue entries carry bandit arm statistics
    #: and the executor's durable state gained chain-cursor keys.
    STATE_FORMAT = 3

    def snapshot_state(self) -> dict:
        """Full resumable state, valid at a step boundary only.

        Every :meth:`step` ends with the VM back at the root snapshot
        (suffix cycles finish with ``restore_root``; from-root runs end
        with ``reset_for_next_test``), so no guest memory needs to
        travel: the checkpoint is the RNG position, the sim clock, the
        corpus/coverage/crash state and the handful of host-side
        cursors that shape future sim charges.  The caller pickles the
        returned dict immediately — it holds live references.
        """
        injector = getattr(self.executor.interceptor, "injector", None)
        return {
            "format": self.STATE_FORMAT,
            "clock": self.clock.now,
            "rng": self.rng.getstate(),
            "seeded": self._seeded,
            "next_sanitize": self._next_sanitize,
            "sanitizer_findings": list(self.sanitizer_findings),
            "stats": self.stats,
            "corpus": self.corpus.snapshot_state(),
            "coverage": self.coverage.snapshot_state(),
            "crashes": self.crashes.snapshot_state(),
            "executor": self.executor.durable_state(),
            "injector": (injector.snapshot_state()
                         if injector is not None else None),
        }

    def restore_state(self, state: dict) -> None:
        """Adopt a checkpointed state on a freshly built campaign.

        The campaign must have been rebuilt with the *same* config
        (the durability layer validates the manifest first).  When the
        sanitizer is configured it must be re-armed *before* this call:
        its baseline digest is content-based and deterministic, and the
        absolute clock restore below erases the arming charges.
        """
        if state.get("format") != self.STATE_FORMAT:
            raise ValueError("incompatible checkpoint state format %r "
                             "(this build speaks %d)"
                             % (state.get("format"), self.STATE_FORMAT))
        self.rng.setstate(state["rng"])
        self._seeded = bool(state["seeded"])
        self._next_sanitize = state["next_sanitize"]
        self.sanitizer_findings = list(state["sanitizer_findings"])
        self.stats = state["stats"]
        self.corpus.restore_state(state["corpus"])
        self.coverage.restore_state(state["coverage"])
        self.crashes.restore_state(state["crashes"])
        self.executor.restore_durable_state(state["executor"])
        injector = getattr(self.executor.interceptor, "injector", None)
        if injector is not None and state.get("injector") is not None:
            injector.restore_state(state["injector"])
        self.last_entry = None
        # Last: snap the clock to the checkpointed instant, erasing the
        # rebuild/re-arm charges accrued while reconstructing the VM.
        self.clock.restore(state["clock"])

    # ------------------------------------------------------------------
    # reset sanitizer (NYX05x)
    # ------------------------------------------------------------------

    def _arm_sanitizer(self) -> None:
        """Capture the post-root-snapshot digest baseline.

        The baseline is taken from the canonical reset state — root
        restored, interceptor per-test state dropped — which is exactly
        the state every later check re-establishes before digesting.
        """
        from repro.analysis.sanitizer import ResetSanitizer
        self.executor.finish_snapshot_cycle()
        self.executor.interceptor.reset_for_test()
        self.sanitizer = ResetSanitizer.for_executor(self.executor)
        self.sanitizer.capture_baseline()
        self._next_sanitize = self.stats.execs + self.config.sanitize_every

    def _sanitize_check(self) -> None:
        """Reset to the root and diff the object graph digest."""
        self.executor.finish_snapshot_cycle()
        self.executor.interceptor.reset_for_test()
        findings = self.sanitizer.check()
        self.stats.sanitizer_checks += 1
        leaks = [d for d in findings if d.code in ("NYX050", "NYX051")]
        self.stats.sanitizer_leaks += len(leaks)
        room = 100 - len(self.sanitizer_findings)
        if room > 0:
            self.sanitizer_findings.extend(findings[:room])
        if self.config.sanitize_every:
            self._next_sanitize = (self.stats.execs
                                   + self.config.sanitize_every)

    # ------------------------------------------------------------------
    # per-entry fuzzing
    # ------------------------------------------------------------------

    def _fuzz_entry(self, entry: QueueEntry) -> None:
        points = self.policy.choose_chain(entry, self.rng,
                                          self.executor.max_chain_depth)
        if points:
            self._fuzz_with_chain(entry, points)
        else:
            self._fuzz_from_root(entry)

    def _fuzz_from_root(self, entry: QueueEntry) -> None:
        found_new = False
        for _ in range(self.config.iterations_root):
            if self._budget_exhausted():
                break
            child = self.mutator.mutate(
                entry.input, from_index=0,
                splice_donor=self.corpus.splice_donor(entry))
            # Any op prefix the child still shares with its parent
            # replays with the tracer elided against the parent's
            # recording.
            result = self.executor.run_full(child,
                                            parent_key=entry.entry_id)
            if self._process_result(child, result):
                found_new = True
        self.policy.feedback(entry, found_new, self.config.iterations_root)

    def _fuzz_with_chain(self, entry: QueueEntry,
                         points: Sequence[int]) -> None:
        """One capture run (itself a normal execution) stacks a chain
        node after each chosen packet — a single point is the paper's
        incremental snapshot — then each suffix iteration asks the
        policy which node (arm) to resume from and reports the arm's
        coverage yield back."""
        base = entry.input
        result = self.executor.run_full(base,
                                        snapshot_after_packets=list(points),
                                        parent_key=entry.entry_id)
        self._process_result(base, result, count_as_new_input=False)
        # Entries discovered by suffix runs carry no recording of their
        # own; this capture run's (charge-clamped) recording fills in.
        self.executor.remember_trace(entry.entry_id, result, replace=False)
        if self.executor.chain_node_count == 0:
            # Snapshot creation failed (e.g. crash before the first
            # point); fall back to root fuzzing for this schedule.
            self.policy.feedback(entry, False, 0)
            self.executor.finish_snapshot_cycle()
            return
        found_new = False
        iterations = self.config.iterations_per_snapshot
        for _ in range(iterations):
            if self._budget_exhausted():
                break
            # The chain can shrink mid-cycle (self-healing after a
            # corrupted layer, or emptying when a rebuild fails), so
            # re-read the arm count every pull.
            depth_count = self.executor.chain_node_count
            if depth_count == 0:
                break
            arm = self.policy.pick_arm(entry, self.rng, depth_count)
            resume = self.executor.chain_resume_index(arm)
            if resume is None:
                break
            child = self.mutator.mutate(
                base, from_index=resume,
                splice_donor=self.corpus.splice_donor(entry))
            result = self.executor.run_suffix(child, depth=arm)
            self.stats.suffix_execs += 1
            hit = self._process_result(child, result)
            if hit:
                found_new = True
            self.policy.arm_feedback(entry, arm, hit,
                                     sim_cost=result.exec_time)
        self.policy.feedback(entry, found_new, iterations)
        # Scheduling moves on: drop the chain.
        self.executor.finish_snapshot_cycle()

    def _budget_exhausted(self) -> bool:
        return self.clock.now >= self.config.time_budget or self._exec_capped()

    # ------------------------------------------------------------------
    # result processing
    # ------------------------------------------------------------------

    def _process_result(self, input_: FuzzInput, result: ExecResult,
                        count_as_new_input: bool = True) -> bool:
        """Coverage/crash bookkeeping; returns True on novelty."""
        self.stats.execs += 1
        if self.config.per_exec_surcharge:
            self.clock.charge(self.config.per_exec_surcharge)
        if result.timed_out:
            # The watchdog cut the run short: its trace is partial, so
            # it feeds neither coverage nor the corpus (the paper's
            # timeout class is reported, not fuzzed from).
            self.stats.timeouts += 1
            return False
        now = self.clock.now
        found_new = False
        if result.crash is not None:
            if self.crashes.add(result.crash, input_, now,
                                exec_time=result.exec_time):
                self.stats.record_crash(result.crash.dedup_key, now)
                found_new = True
        verdict = self.coverage.has_new_bits(result.trace)
        if verdict != CoverageMap.NEW_NOTHING:
            self.stats.record_coverage(now, self.coverage.edge_count())
            if count_as_new_input and verdict == CoverageMap.NEW_EDGE:
                entry = self.corpus.add(
                    input_.copy(), exec_time=result.exec_time,
                    new_edges=self.coverage.edge_count(),
                    found_at=now,
                    checksum=self.coverage.checksum(result.trace),
                    packets_consumed=result.packets_consumed,
                    trace=dict(result.trace))
                # Future children of this entry elide their shared
                # prefix against this run's recording.
                self.executor.remember_trace(entry.entry_id, result)
                found_new = True
        return found_new

    # ------------------------------------------------------------------
    # seeding
    # ------------------------------------------------------------------

    def _import_seeds(self) -> None:
        for seed in self._seeds:
            if self._budget_exhausted():
                break
            self._import_input(seed)
            # Also import a variant that closes the connection (the
            # spec's shutdown opcode): servers have whole EOF-handling
            # paths that never run if the fuzzer leaves sessions open.
            variant = self._shutdown_variant(seed)
            if variant is not None and not self._budget_exhausted():
                self._import_input(variant)

    def _generate_input(self) -> FuzzInput:
        from repro.spec.generate import generate_input
        from repro.spec.nodes import default_network_spec
        ops = generate_input(default_network_spec(), self.rng,
                             dictionary=list(self.config.dictionary) or None)
        if not ops:
            return packets_input([b"\x00" * 8])
        generated = FuzzInput(ops, origin="generated")
        return generated

    @staticmethod
    def _shutdown_variant(seed: FuzzInput) -> Optional[FuzzInput]:
        from repro.spec.bytecode import Op
        if any(op.node == "shutdown" for op in seed.ops):
            return None
        if not any(op.node == "connection" for op in seed.ops):
            return None
        variant = seed.copy()
        variant.origin = "seed+shutdown"
        variant.ops.append(Op("shutdown", (0,)))
        return variant

    def _import_input(self, seed: FuzzInput) -> None:
        result = self.executor.run_full(seed)
        self.stats.execs += 1
        if result.timed_out:
            # Seeds are still imported on timeout — an empty corpus is
            # worse than one with partial-trace seeds.
            self.stats.timeouts += 1
        now = self.clock.now
        if result.crash is not None and self.crashes.add(
                result.crash, seed, now, exec_time=result.exec_time):
            self.stats.record_crash(result.crash.dedup_key, now)
        self.coverage.has_new_bits(result.trace)
        self.stats.record_coverage(now, self.coverage.edge_count())
        entry = self.corpus.add(seed, exec_time=result.exec_time,
                                new_edges=self.coverage.edge_count(),
                                found_at=now,
                                checksum=self.coverage.checksum(result.trace),
                                packets_consumed=result.packets_consumed,
                                trace=dict(result.trace))
        self.executor.remember_trace(entry.entry_id, result)
