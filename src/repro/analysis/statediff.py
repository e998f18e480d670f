"""Runtime checkpoint verifier (NYX065/NYX066): state-diff prong.

The static lint (:mod:`.durlint`) proves the snapshot/restore pairs
*look* complete; this module checks that they *are*, the way the reset
sanitizer (NYX05x) backstops the reset lint:

* **Fixpoint check** (NYX065) — ``snapshot_state`` → pickle round-trip
  → ``restore_state`` → re-``snapshot_state`` must reproduce the same
  structural digest.  Any path that changed names an attribute the
  restore half mangles (or drops) on the way through.

* **Cross-process differential** (NYX066) — restore a durable
  campaign's checkpoint in a *fresh subprocess*, re-step it to the
  parent's exact execution boundary, and compare ``stats_checksum``
  plus the structural digest of the re-snapshotted state against the
  parent's.  Every component is deterministic on the sim clock, so any
  divergence is a real capture gap — named by its exact attribute path
  the way NYX050 does.

The digest deliberately skips :class:`~repro.fuzz.stats.CampaignStats`
host counters: they describe how cheaply the *host* computed the
campaign (and the parent keeps counting while the child replays), so
they are outside ``stats_checksum`` and outside this comparison too.

Wired as ``repro fuzz --verify-checkpoints[=N]`` (the durable runners
call :func:`verify_checkpoint` every N executions after a periodic
checkpoint) and usable standalone::

    python -m repro.analysis.statediff --resume-dir DIR \\
        --until-execs 1200 [--epoch 3] [--inject corpus._cursor]

``--inject`` perturbs one dotted attribute path after re-stepping —
a fault-injection hook that simulates an uncaptured-attribute
regression and proves the differential names that exact path.
"""

from __future__ import annotations

import json
import os
import pathlib
import pickle
import subprocess
import sys
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.sanitizer import structural_digest
from repro.fuzz.stats import CampaignStats

#: Pickle protocol matching the checkpoint store's.
_PICKLE_PROTOCOL = 4
#: Depth budget for the state-graph walk (checkpoint states nest
#: corpus -> entry -> input -> ops -> op -> args: ~10 levels).
STATE_MAX_DEPTH = 32
#: Digest-divergence findings reported per comparison before eliding.
_MAX_PATHS = 20


def _host_counter_skips() -> set:
    """``(class, attr)`` pairs excluded from state digests: the
    CampaignStats host-side counters, which stats_checksum excludes
    for the same reason."""
    return {("CampaignStats", name)
            for name in CampaignStats().host_counters()}


def state_digest(state: Any) -> Tuple[Dict[str, str], bool]:
    """Structural digest of one snapshot-state value.

    Unlike the reset sanitizer's graph walk this skips *nothing* but
    the host counters — capture completeness is exactly what is under
    audit here.
    """
    return structural_digest({"state": state},
                             allowed=_host_counter_skips(),
                             skip_attrs=(), max_depth=STATE_MAX_DEPTH)


def _digest_delta(baseline: Dict[str, str], current: Dict[str, str]
                  ) -> List[Tuple[str, Optional[str], Optional[str]]]:
    """``(path, before, after)`` for every diverged path, sorted."""
    delta = []
    for path in sorted(set(baseline) | set(current)):
        before = baseline.get(path)
        after = current.get(path)
        if before != after:
            delta.append((path, before, after))
    return delta


def _pair_methods(obj: Any):
    """The snapshot/restore bound-method pair an object exposes."""
    if hasattr(obj, "snapshot_state"):
        return obj.snapshot_state, obj.restore_state
    if hasattr(obj, "durable_state"):
        return obj.durable_state, obj.restore_durable_state
    raise TypeError("%s exposes no snapshot/restore pair"
                    % type(obj).__name__)


def fixpoint_check(obj: Any) -> List[Diagnostic]:
    """NYX065 findings for snapshot -> restore -> re-snapshot drift.

    The first snapshot is frozen through a pickle round-trip (exactly
    what the checkpoint store does), restored onto the live object,
    and re-snapshotted; the two digests must match path for path.
    """
    snapshot, restore = _pair_methods(obj)
    frozen = pickle.loads(pickle.dumps(snapshot(),
                                       protocol=_PICKLE_PROTOCOL))
    baseline, _trunc = state_digest(frozen)
    restore(pickle.loads(pickle.dumps(frozen, protocol=_PICKLE_PROTOCOL)))
    current, _trunc = state_digest(snapshot())
    name = type(obj).__name__
    diags: List[Diagnostic] = []
    for path, before, after in _digest_delta(baseline, current)[:_MAX_PATHS]:
        diags.append(Diagnostic(
            "NYX065",
            "%s restore is not a fixpoint at %s: %s -> %s"
            % (name, path, before, after), file=name))
    return diags


# ---------------------------------------------------------------------------
# child side: restore, re-step, report
# ---------------------------------------------------------------------------

class _StopAtExecs:
    """Parallel-campaign controller parking the fleet at the first
    slice boundary at or past the target exec count."""

    def __init__(self, campaign, target: int) -> None:
        self.campaign = campaign
        self.target = target

    def should_stop(self) -> bool:
        return self.campaign.total_execs() >= self.target

    def after_slice(self, campaign, worker) -> None:
        pass


def _inject_regression(root: Any, dotted: str) -> None:
    """Perturb one attribute path — the uncaptured-state simulator."""
    obj = root
    parts = dotted.split(".")
    for part in parts[:-1]:
        obj = getattr(obj, part)
    leaf = parts[-1]
    value = getattr(obj, leaf)
    if isinstance(value, bool):
        setattr(obj, leaf, not value)
    elif isinstance(value, int):
        setattr(obj, leaf, value + 1)
    elif isinstance(value, float):
        setattr(obj, leaf, value + 1.0)
    elif isinstance(value, list):
        value.append("<injected>")
    elif isinstance(value, dict):
        value["<injected>"] = 1
    elif isinstance(value, set):
        value.add("<injected>")
    else:
        setattr(obj, leaf, "<injected>")


def _child_report(resume_dir: str, epoch: Optional[int], until_execs: int,
                  inject: Optional[str] = None) -> dict:
    """Restore ``epoch`` from ``resume_dir``, re-step to
    ``until_execs``, and report checksum + digest.

    Opens only the checkpoint store and manifest — never the journal,
    whose open path truncates torn tails and belongs to the parent.
    """
    from repro.fuzz.campaign import build_campaign_from_manifest
    from repro.fuzz.journal import CheckpointStore, read_manifest
    from repro.fuzz.stats import stats_checksum
    from repro.targets import PROFILES
    manifest = read_manifest(resume_dir)
    profile = PROFILES.get(manifest.get("target"))
    if profile is None:
        raise SystemExit("unknown target %r" % manifest.get("target"))
    store = CheckpointStore(pathlib.Path(resume_dir) / "checkpoints")
    if epoch is None:
        epochs = store.epochs()
        if not epochs:
            raise SystemExit("no checkpoint epochs under %s" % resume_dir)
        epoch = epochs[-1]
    state = store.load(epoch)

    built = build_campaign_from_manifest(profile, manifest)
    fleet = manifest.get("kind") == "parallel"
    if fleet:
        campaign, key = built, "campaign"
        fuzzers = [w.fuzzer for w in built.workers]
    else:
        campaign, key = built.fuzzer, "fuzzer"
        fuzzers = [built.fuzzer]
    for fuzzer in fuzzers:
        if fuzzer.config.sanitize_every:
            # Mirror DurableCampaign._restore: re-arm every sanitizer
            # before the clock restore.
            fuzzer._arm_sanitizer()
    baseline, _trunc = state_digest(state[key])
    campaign.restore_state(state[key])
    relanded, _trunc = state_digest(campaign.snapshot_state())
    fixpoint = [{"path": path, "before": before, "after": after}
                for path, before, after in _digest_delta(baseline, relanded)]
    if fleet:
        campaign.run(controller=_StopAtExecs(campaign, until_execs))
    else:
        while campaign.stats.execs < until_execs and campaign.step():
            pass
    if inject:
        _inject_regression(campaign, inject)
    final = campaign.snapshot_state()
    stats = campaign.aggregate().merged if fleet else campaign.stats
    checksum = stats_checksum(stats)
    execs = stats.execs

    digest, truncated = state_digest(final)
    return {
        "epoch": epoch,
        "execs": execs,
        "stats_checksum": checksum,
        "digest": digest,
        "fixpoint": fixpoint,
        "truncated": truncated,
    }


def main(argv: Optional[List[str]] = None) -> int:
    import argparse
    parser = argparse.ArgumentParser(
        prog="repro.analysis.statediff",
        description="restore a durable campaign's checkpoint and report "
                    "its re-stepped state digest (NYX066 child side)")
    parser.add_argument("--resume-dir", required=True)
    parser.add_argument("--epoch", type=int, default=None)
    parser.add_argument("--until-execs", type=int, required=True)
    parser.add_argument("--inject", default=None, metavar="DOTTED.PATH")
    args = parser.parse_args(argv)
    report = _child_report(args.resume_dir, args.epoch, args.until_execs,
                           inject=args.inject)
    print(json.dumps(report, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# parent side: spawn the child, diff its report
# ---------------------------------------------------------------------------

def verify_checkpoint(directory, epoch: int, until_execs: int,
                      expected_checksum: str,
                      expected_digest: Dict[str, str],
                      kind: str = "single",
                      timeout: float = 600.0,
                      inject: Optional[str] = None) -> List[Diagnostic]:
    """Cross-process checkpoint differential; NYX065/NYX066 findings.

    Spawns a fresh interpreter that restores ``epoch`` under
    ``directory``, re-steps to ``until_execs`` (the parent's current
    step boundary) and reports back.  Deterministic stepping means the
    child must land on the parent's exact state; any path or checksum
    divergence is a capture gap.
    """
    import repro
    where = str(directory)
    cmd = [sys.executable, "-m", "repro.analysis.statediff",
           "--resume-dir", where, "--epoch", str(epoch),
           "--until-execs", str(until_execs)]
    if inject:
        cmd += ["--inject", inject]
    env = dict(os.environ)
    src_root = str(pathlib.Path(repro.__file__).parents[1])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (src_root if not existing
                         else src_root + os.pathsep + existing)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout, env=env)
    except subprocess.TimeoutExpired:
        return [Diagnostic(
            "NYX066", "checkpoint verifier timed out after %.0fs "
            "(epoch %d, until-execs %d)" % (timeout, epoch, until_execs),
            file=where)]
    if proc.returncode != 0:
        tail = (proc.stderr or proc.stdout or "").strip().splitlines()
        return [Diagnostic(
            "NYX066", "checkpoint verifier exited %d (epoch %d): %s"
            % (proc.returncode, epoch, tail[-1] if tail else "no output"),
            file=where)]
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return [Diagnostic(
            "NYX066", "checkpoint verifier produced undecodable output "
            "(epoch %d)" % epoch, file=where)]
    diags: List[Diagnostic] = []
    for entry in report.get("fixpoint", [])[:_MAX_PATHS]:
        diags.append(Diagnostic(
            "NYX065",
            "%s restore is not a fixpoint at %s: %s -> %s"
            % (kind, entry["path"], entry["before"], entry["after"]),
            file=where))
    if report.get("stats_checksum") != expected_checksum:
        diags.append(Diagnostic(
            "NYX066",
            "checkpoint divergence (epoch %d): child stats_checksum %s "
            "!= parent %s at %d execs"
            % (epoch, report.get("stats_checksum"), expected_checksum,
               until_execs), file=where))
    delta = _digest_delta(expected_digest, report.get("digest", {}))
    for path, before, after in delta[:_MAX_PATHS]:
        diags.append(Diagnostic(
            "NYX066",
            "checkpoint divergence (epoch %d) at %s: parent %s, "
            "re-stepped child %s" % (epoch, path, before, after),
            file=where))
    if len(delta) > _MAX_PATHS:
        diags.append(Diagnostic(
            "NYX066",
            "checkpoint divergence (epoch %d): %d further diverged "
            "paths elided" % (epoch, len(delta) - _MAX_PATHS), file=where))
    return diags


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
