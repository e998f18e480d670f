"""Campaign statistics: throughput, coverage-over-time, crash times.

Times are *simulated* seconds (the cost model clock), which is what
every reproduced table and figure reports.

Parallel campaigns roll per-worker :class:`CampaignStats` up into one
:class:`AggregateStats` view: counters sum, crash times take the
earliest discovery, and the time series merge on the union of their
timestamps (the campaign supplies the merged-bitmap coverage series,
since per-worker edge counts overlap and cannot simply be added).
"""

from __future__ import annotations

import hashlib
import json
import operator
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: The host-side counters of :class:`CampaignStats`, each with how
#: :meth:`CampaignStats.merge` combines two workers' values: the
#: deepest chain, the sum of every other count.
HOST_COUNTERS = (
    ("checkpoints_written", operator.add),
    ("checkpoint_epochs_pruned", operator.add),
    ("checkpoint_verifications", operator.add),
    ("checkpoint_divergences", operator.add),
    ("chain_pushes", operator.add),
    ("chain_commits", operator.add),
    ("chain_restores", operator.add),
    ("chain_deepest", max),
)


@dataclass
class CampaignStats:
    """Time series and counters for one fuzzing campaign."""

    fuzzer_name: str = "nyx-net"
    target_name: str = ""
    execs: int = 0
    suffix_execs: int = 0
    crashes_found: int = 0
    queue_size: int = 0
    #: (sim time, distinct edges) — sampled when coverage grows.
    coverage_series: List[Tuple[float, int]] = field(default_factory=list)
    #: (sim time, total execs) — sampled periodically.
    exec_series: List[Tuple[float, int]] = field(default_factory=list)
    #: dedup key -> sim time first seen.
    crash_times: Dict[str, float] = field(default_factory=dict)
    end_time: float = 0.0
    #: Executions stopped by the watchdog (per-exec budget exceeded).
    timeouts: int = 0
    #: Faults the injector fired (0 when no fault plan is active).
    faults_injected: int = 0
    #: Incremental snapshots rebuilt from the root after failing
    #: checksum validation on restore.
    snapshot_rebuilds: int = 0
    #: Whether the executor ended the campaign degraded to root-only
    #: execution (repeated snapshot corruption).
    degraded_root_only: bool = False
    #: Worker step() exceptions survived by the parallel supervisor.
    worker_failures: int = 0
    #: Corpus entries quarantined for repeatedly killing workers.
    quarantined_inputs: int = 0
    #: Ops removed from trimmed inputs by the static dead-op/marker
    #: pre-pass (one verification exec per input, not one per op).
    trim_ops_static: int = 0
    #: Ops removed from trimmed inputs by execution-driven packet
    #: dropping (one exec per candidate removal).
    trim_ops_exec: int = 0
    #: Reset-sanitizer digest checks performed (``--sanitize-resets``).
    sanitizer_checks: int = 0
    #: Reset leaks (NYX050/NYX051 findings) those checks reported.
    sanitizer_leaks: int = 0
    #: --- host-side performance counters -----------------------------
    #: These describe how cheaply the host computed the campaign, never
    #: what the campaign computed, so they are excluded from
    #: :meth:`as_dict` (and hence from ``stats_checksum``): a campaign
    #: must hash the same however many checkpoints it wrote.
    #: Checkpoints the durable layer persisted.
    checkpoints_written: int = 0
    #: Stale checkpoint epochs unlinked (and directory-fsync'd) away.
    checkpoint_epochs_pruned: int = 0
    #: Cross-process checkpoint verifications run
    #: (``--verify-checkpoints``, :mod:`repro.analysis.statediff`).
    checkpoint_verifications: int = 0
    #: NYX065/NYX066 findings those verifications reported (0 = every
    #: checkpoint restored to a divergence-free replica).
    checkpoint_divergences: int = 0
    #: --- overlay-chain telemetry (``--max-chain-depth`` > 1) ---------
    #: Reported next to, never inside, :meth:`as_dict`: a depth-1
    #: campaign must hash identically to a pre-chain build.  The chain
    #: *operations* do charge the sim clock (they are real snapshot
    #: work); only these counters stay out of the canonical view.
    #: Overlay snapshots stacked on the incremental base.
    chain_pushes: int = 0
    #: Overlays folded into their parent (depth-cap commits).
    chain_commits: int = 0
    #: Restores that targeted a chain node below the deepest.
    chain_restores: int = 0
    #: Deepest chain (base + overlays) the campaign ever held.
    chain_deepest: int = 0

    def record_coverage(self, now: float, edges: int) -> None:
        if not self.coverage_series or self.coverage_series[-1][1] != edges:
            self.coverage_series.append((now, edges))

    def record_execs(self, now: float) -> None:
        self.exec_series.append((now, self.execs))

    def record_crash(self, key: str, now: float) -> None:
        if key not in self.crash_times:
            self.crash_times[key] = now
            self.crashes_found += 1

    # -- derived metrics ----------------------------------------------------

    @property
    def final_edges(self) -> int:
        return self.coverage_series[-1][1] if self.coverage_series else 0

    def duration(self) -> float:
        """Elapsed sim time: ``end_time``, or — while the campaign is
        still running and ``end_time`` has not been stamped yet — the
        latest recorded sample time."""
        elapsed = self.end_time
        for series in (self.exec_series, self.coverage_series):
            if series:
                elapsed = max(elapsed, series[-1][0])
        if self.crash_times:
            elapsed = max(elapsed, max(self.crash_times.values()))
        return elapsed

    def execs_per_second(self) -> float:
        elapsed = self.duration()
        if elapsed <= 0:
            # Executions ran but no sim time elapsed anywhere (free
            # cost model): floor the window at one second instead of
            # dividing by zero or reporting a misleading 0.0.
            return float(self.execs)
        return self.execs / elapsed

    def edges_at(self, time: float) -> int:
        """Coverage at a given sim time (step function)."""
        edges = 0
        for t, e in self.coverage_series:
            if t > time:
                break
            edges = e
        return edges

    def execs_at(self, time: float) -> int:
        """Total executions at a given sim time (step function)."""
        execs = 0
        for t, e in self.exec_series:
            if t > time:
                break
            execs = e
        return execs

    def time_to_edges(self, edges: int) -> Optional[float]:
        """First sim time at which coverage reached ``edges``."""
        for t, e in self.coverage_series:
            if e >= edges:
                return t
        return None

    def summary(self) -> str:
        return ("%s on %s: %d execs (%.1f/s), %d edges, %d crashes, "
                "t=%.1fs" % (self.fuzzer_name, self.target_name, self.execs,
                             self.execs_per_second(), self.final_edges,
                             self.crashes_found, self.end_time))

    def as_dict(self) -> Dict[str, Any]:
        """Full JSON-serializable view (canonical under sort_keys)."""
        return {
            "fuzzer": self.fuzzer_name,
            "target": self.target_name,
            "execs": self.execs,
            "suffix_execs": self.suffix_execs,
            "crashes_found": self.crashes_found,
            "queue_size": self.queue_size,
            "end_time": self.end_time,
            "final_edges": self.final_edges,
            "coverage_series": [[t, e] for t, e in self.coverage_series],
            "exec_series": [[t, e] for t, e in self.exec_series],
            "crash_times": dict(sorted(self.crash_times.items())),
            "timeouts": self.timeouts,
            "faults_injected": self.faults_injected,
            "snapshot_rebuilds": self.snapshot_rebuilds,
            "degraded_root_only": self.degraded_root_only,
            "worker_failures": self.worker_failures,
            "quarantined_inputs": self.quarantined_inputs,
            "trim_ops_static": self.trim_ops_static,
            "trim_ops_exec": self.trim_ops_exec,
            "sanitizer_checks": self.sanitizer_checks,
            "sanitizer_leaks": self.sanitizer_leaks,
        }

    def host_counters(self) -> Dict[str, Any]:
        """Host-side performance counters, reported next to (never
        inside) the canonical :meth:`as_dict` view."""
        return {name: getattr(self, name) for name, _merge in HOST_COUNTERS}

    # -- multi-worker rollup ------------------------------------------------

    @classmethod
    def merge(cls, parts: Sequence["CampaignStats"],
              fuzzer_name: Optional[str] = None,
              target_name: Optional[str] = None,
              coverage_series: Optional[List[Tuple[float, int]]] = None,
              ) -> "CampaignStats":
        """Roll several workers' stats into one campaign-level view.

        Counters sum; crash times keep the earliest discovery of each
        dedup key; the exec series sums the workers' step functions on
        the union of their timestamps.  ``coverage_series`` should be
        the campaign's merged-bitmap series; without one, the max
        envelope of the per-worker series is used (a lower bound on
        union coverage, since workers overlap).
        """
        merged = cls(
            fuzzer_name=fuzzer_name or (parts[0].fuzzer_name if parts else
                                        "nyx-net"),
            target_name=target_name or (parts[0].target_name if parts else ""))
        for part in parts:
            merged.execs += part.execs
            merged.suffix_execs += part.suffix_execs
            merged.queue_size += part.queue_size
            merged.end_time = max(merged.end_time, part.end_time)
            merged.timeouts += part.timeouts
            merged.faults_injected += part.faults_injected
            merged.snapshot_rebuilds += part.snapshot_rebuilds
            merged.degraded_root_only |= part.degraded_root_only
            merged.worker_failures += part.worker_failures
            merged.quarantined_inputs += part.quarantined_inputs
            merged.trim_ops_static += part.trim_ops_static
            merged.trim_ops_exec += part.trim_ops_exec
            merged.sanitizer_checks += part.sanitizer_checks
            merged.sanitizer_leaks += part.sanitizer_leaks
            for name, combine in HOST_COUNTERS:
                setattr(merged, name, combine(getattr(merged, name),
                                              getattr(part, name)))
            for key, when in part.crash_times.items():
                if key not in merged.crash_times or when < merged.crash_times[key]:
                    merged.crash_times[key] = when
        merged.crashes_found = len(merged.crash_times)

        exec_times = sorted({t for part in parts for t, _ in part.exec_series})
        for t in exec_times:
            merged.exec_series.append(
                (t, sum(part.execs_at(t) for part in parts)))

        if coverage_series is not None:
            merged.coverage_series = list(coverage_series)
        else:
            cov_times = sorted({t for part in parts
                                for t, _ in part.coverage_series})
            for t in cov_times:
                edges = max((part.edges_at(t) for part in parts), default=0)
                if (not merged.coverage_series
                        or merged.coverage_series[-1][1] != edges):
                    merged.coverage_series.append((t, edges))
        return merged


def stats_checksum(stats: CampaignStats) -> str:
    """sha1 over the canonical JSON of a campaign's full stats dict.

    Identical sim behaviour => identical checksum; any change to exec
    counts, coverage timestamps or crash times shows up here even when
    the headline rates round to the same value.
    """
    payload = json.dumps(stats.as_dict(), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()


@dataclass
class AggregateStats:
    """Campaign-level rollup of a parallel fuzzing run.

    Holds the merged view plus the per-worker breakdown, so both the
    §6 scalability claims (aggregate execs/s vs. one worker) and the
    per-worker series remain inspectable.
    """

    merged: CampaignStats
    workers: List[CampaignStats] = field(default_factory=list)

    @property
    def num_workers(self) -> int:
        return len(self.workers)

    @property
    def total_execs(self) -> int:
        return self.merged.execs

    @property
    def final_edges(self) -> int:
        return self.merged.final_edges

    @property
    def crashes_found(self) -> int:
        return self.merged.crashes_found

    def execs_per_second(self) -> float:
        """Aggregate throughput: total execs over the *wall* (max
        worker) sim time — workers run concurrently, so their clocks
        overlap rather than add."""
        elapsed = max((w.duration() for w in self.workers), default=0.0)
        elapsed = max(elapsed, self.merged.duration())
        if elapsed <= 0:
            return float(self.merged.execs)
        return self.merged.execs / elapsed

    def as_dict(self) -> Dict[str, Any]:
        return {
            "num_workers": self.num_workers,
            "merged": self.merged.as_dict(),
            "workers": [w.as_dict() for w in self.workers],
        }

    def to_json(self) -> str:
        """Canonical serialization — byte-identical for identical
        campaigns, which the determinism tests rely on."""
        return json.dumps(self.as_dict(), sort_keys=True,
                          separators=(",", ":"))

    def summary(self) -> str:
        return ("%s on %s: %d workers, %d execs (%.1f/s aggregate), "
                "%d edges, %d crashes, t=%.1fs"
                % (self.merged.fuzzer_name, self.merged.target_name,
                   self.num_workers, self.merged.execs,
                   self.execs_per_second(), self.final_edges,
                   self.crashes_found, self.merged.end_time))
