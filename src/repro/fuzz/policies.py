"""Snapshot placement policies (§3.4 of the paper).

A policy, given the queue entry about to be fuzzed, picks the *packet
index* after which the incremental snapshot is taken — or ``None`` for
the root snapshot.  The three shipped policies match the paper:

* **none** — "a policy that always selects the root snapshot".
* **balanced** — "On inputs with more than four packets, the balanced
  policy chooses the root snapshot in 4% of the cases.  Otherwise it
  selects a random index in the whole (50%), or only in the second
  half (50%)."  Inputs of four or fewer packets use the root.
* **aggressive** — "cycles all available indices [...]  The first time
  an input is scheduled, it creates the snapshot at the end of the
  input.  Each time no new inputs have been found by fuzzing this
  snapshot for 50 iterations, we place the snapshot one packet
  earlier.  When [it] reaches the smallest index, it starts again from
  the end."

**Chain placement (beyond the paper).**  With overlay chains enabled
(``--max-chain-depth`` > 1) a policy may place *several* snapshot
points per capture run (:meth:`SnapshotPolicy.choose_chain`) and then
steer which chain node each suffix iteration resumes from
(:meth:`SnapshotPolicy.pick_arm` / :meth:`arm_feedback`).  The shipped
**bandit** policy spaces its points evenly through the packet list and
runs a UCB1 bandit over the resulting nodes: arm = chain depth, reward
= coverage yield per simulated second spent, so arms that find new
edges cheaply (deep nodes re-execute almost nothing) win pulls.  All
decisions draw only on :class:`DeterministicRandom` and per-entry
state, keeping campaigns replayable.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.fuzz.queue import QueueEntry
from repro.sim.rng import DeterministicRandom

#: Minimum packet count before non-root snapshots are considered.
MIN_PACKETS_FOR_SNAPSHOT = 5
#: Aggressive policy: fruitless iterations before moving the cursor.
AGGRESSIVE_PATIENCE = 50
#: UCB1 exploration weight for the bandit policy.  Deliberately small:
#: the throughput gap between a deep and a shallow resume is the
#: signal the bandit exists to exploit, and a large exploration bonus
#: would spread pulls uniformly and burn the chain's advantage.
BANDIT_UCB_C = 0.15
#: Weight of the throughput prior in an arm's value: how strongly the
#: bandit prefers arms whose suffix runs are sim-cheap (deep resumes)
#: before any coverage reward arrives.  The cheapest arm earns the
#: full prior, the most expensive earns none.
BANDIT_THROUGHPUT_PRIOR = 1.0


class SnapshotPolicy:
    """Interface: choose a snapshot packet index for an entry."""

    name = "abstract"

    def choose(self, entry: QueueEntry, rng: DeterministicRandom) -> Optional[int]:
        """Return a packet *position* (0-based, into the entry's packet
        list) after which to snapshot, or None for the root."""
        raise NotImplementedError

    def feedback(self, entry: QueueEntry, found_new: bool,
                 iterations: int) -> None:
        """Called after a snapshot cycle with its outcome."""

    # -- overlay-chain extensions (default: single-point behaviour) -----

    def choose_chain(self, entry: QueueEntry, rng: DeterministicRandom,
                     max_depth: int) -> List[int]:
        """Ascending packet positions to snapshot after (at most
        ``max_depth``); ``[]`` for the root.  Default: the single
        :meth:`choose` point, so chain-unaware policies behave exactly
        as before."""
        point = self.choose(entry, rng)
        return [] if point is None else [point]

    def pick_arm(self, entry: QueueEntry, rng: DeterministicRandom,
                 depth_count: int) -> int:
        """Chain depth (1-based, <= ``depth_count``) the next suffix
        iteration resumes from.  Default: the deepest node — the
        closest state to the mutation site."""
        return depth_count

    def arm_feedback(self, entry: QueueEntry, arm: int, found_new: bool,
                     sim_cost: float) -> None:
        """Outcome of one suffix iteration run from ``arm``:
        ``found_new`` says whether it yielded new coverage,
        ``sim_cost`` the simulated seconds it burned."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<policy %s>" % self.name


class NonePolicy(SnapshotPolicy):
    """Nyx-Net-none: always the root snapshot."""

    name = "none"

    def choose(self, entry: QueueEntry, rng: DeterministicRandom) -> Optional[int]:
        return None


class BalancedPolicy(SnapshotPolicy):
    """Nyx-Net-balanced."""

    name = "balanced"

    def choose(self, entry: QueueEntry, rng: DeterministicRandom) -> Optional[int]:
        n = entry.fuzzable_packets()
        if n < MIN_PACKETS_FOR_SNAPSHOT:
            return None
        if rng.chance(0.04):
            return None
        if rng.chance(0.5):
            return rng.randrange(n - 1)          # anywhere (not the very end,
        return (n // 2) + rng.randrange(n - n // 2 - 1 or 1)  # second half

    def feedback(self, entry: QueueEntry, found_new: bool,
                 iterations: int) -> None:
        pass  # stateless


class AggressivePolicy(SnapshotPolicy):
    """Nyx-Net-aggressive: cycle the cursor from the end towards 0."""

    name = "aggressive"

    def choose(self, entry: QueueEntry, rng: DeterministicRandom) -> Optional[int]:
        n = entry.fuzzable_packets()
        if n < MIN_PACKETS_FOR_SNAPSHOT:
            return None
        last = n - 2  # snapshot after the second-to-last packet at most:
        # snapshotting after the final packet would leave nothing to fuzz.
        if last < 0:
            return None
        if entry.aggr_cursor is None or entry.aggr_cursor > last:
            entry.aggr_cursor = last
        return entry.aggr_cursor

    def feedback(self, entry: QueueEntry, found_new: bool,
                 iterations: int) -> None:
        if found_new:
            entry.aggr_fruitless = 0
            return
        entry.aggr_fruitless += iterations
        if entry.aggr_fruitless >= AGGRESSIVE_PATIENCE:
            entry.aggr_fruitless = 0
            if entry.aggr_cursor is None:
                return
            entry.aggr_cursor -= 1
            if entry.aggr_cursor < 0:
                entry.aggr_cursor = None  # wrap: back to the end next time


class BanditPolicy(SnapshotPolicy):
    """UCB1 bandit over chain nodes (arm = prefix depth).

    Placement: up to ``max_depth`` points spaced evenly through the
    fuzzable packets, the deepest at the aggressive policy's classic
    ``n - 2`` (snapshotting after the final packet would leave nothing
    to fuzz).  Scheduling: unexplored arms first (deepest preferred),
    then UCB1 over an arm *value* that combines the coverage reward
    rate with a throughput prior scaled by the arm's measured mean sim
    cost — a new edge found from a cheap deep node outscores the same
    edge found by re-running half the input, and with no rewards at
    all the bandit concentrates on the cheapest (deepest) arms while
    still exploring shallow ones at the UCB rate.  Arm statistics live
    on the queue entry (``arm_pulls``/``arm_reward``/``arm_cost``), so
    they persist across schedules and travel through corpus
    checkpoints.

    With ``max_depth`` clamped to 1 the placement degenerates to the
    single deepest point: a one-layer chain, the paper's incremental
    snapshot.
    """

    name = "bandit"

    def choose(self, entry: QueueEntry, rng: DeterministicRandom) -> Optional[int]:
        n = entry.fuzzable_packets()
        if n < MIN_PACKETS_FOR_SNAPSHOT:
            return None
        last = n - 2
        return last if last >= 0 else None

    def choose_chain(self, entry: QueueEntry, rng: DeterministicRandom,
                     max_depth: int) -> List[int]:
        last = self.choose(entry, rng)
        if last is None:
            return []
        depth = min(max_depth, last + 1)
        if depth <= 1:
            return [last]
        # Evenly spaced through [0, last], always ending at ``last``.
        points = []
        for i in range(1, depth + 1):
            point = (i * (last + 1)) // depth - 1
            if point >= 0 and (not points or point > points[-1]):
                points.append(point)
        return points

    def pick_arm(self, entry: QueueEntry, rng: DeterministicRandom,
                 depth_count: int) -> int:
        if depth_count <= 1:
            return depth_count
        pulls = entry.arm_pulls
        if pulls is None:
            return depth_count
        # Unexplored arms first, deepest preferred (cheapest resumes).
        total = 0
        for arm in range(depth_count, 0, -1):
            n = pulls.get(arm, 0)
            if n == 0:
                return arm
            total += n
        rewards = entry.arm_reward or {}
        costs = entry.arm_cost or {}
        # Throughput prior: normalize each arm's mean sim cost against
        # the most expensive arm, so the cheapest arm earns the full
        # prior and the dearest earns none.  This is what lets the
        # bandit concentrate on deep (cheap) resumes before any
        # coverage reward distinguishes the arms.
        max_mean_cost = 0.0
        for arm in range(depth_count, 0, -1):
            mean_cost = costs.get(arm, 0.0) / pulls[arm]
            if mean_cost > max_mean_cost:
                max_mean_cost = mean_cost
        log_total = math.log(total)
        best = depth_count
        best_score = -1.0
        for arm in range(depth_count, 0, -1):
            n = pulls[arm]
            value = rewards.get(arm, 0.0) / n
            if max_mean_cost > 0.0:
                mean_cost = costs.get(arm, 0.0) / n
                value += (BANDIT_THROUGHPUT_PRIOR
                          * (1.0 - mean_cost / max_mean_cost))
            score = value + BANDIT_UCB_C * math.sqrt(log_total / n)
            # Strict > while walking deep-to-shallow: ties go deep.
            if score > best_score:
                best = arm
                best_score = score
        return best

    def arm_feedback(self, entry: QueueEntry, arm: int, found_new: bool,
                     sim_cost: float) -> None:
        if entry.arm_pulls is None:
            entry.arm_pulls = {}
            entry.arm_reward = {}
            entry.arm_cost = {}
        if entry.arm_cost is None:  # entries from pre-cost checkpoints
            entry.arm_cost = {}
        entry.arm_pulls[arm] = entry.arm_pulls.get(arm, 0) + 1
        entry.arm_cost[arm] = entry.arm_cost.get(arm, 0.0) + max(sim_cost, 0.0)
        if found_new:
            # Yield per sim-second, squashed into (0, 1]: cheap
            # discoveries (deep resumes) approach 1.
            reward = 1.0 / (1.0 + max(sim_cost, 0.0))
            entry.arm_reward[arm] = entry.arm_reward.get(arm, 0.0) + reward

    def feedback(self, entry: QueueEntry, found_new: bool,
                 iterations: int) -> None:
        pass  # arm_feedback carries the learning signal


def make_policy(name: str) -> SnapshotPolicy:
    """Factory by name: none / balanced / aggressive / bandit."""
    policies = {
        "none": NonePolicy,
        "balanced": BalancedPolicy,
        "aggressive": AggressivePolicy,
        "bandit": BanditPolicy,
    }
    try:
        return policies[name.lower()]()
    except KeyError:
        raise ValueError("unknown policy %r (want none/balanced/"
                         "aggressive/bandit)" % name)
