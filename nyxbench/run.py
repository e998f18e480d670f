"""The benchmark of record: four workloads, end-to-end and per layer.

Usage (from the root of a checkout)::

    python3 nyxbench/run.py --seed 1            # 5 rounds of every workload
    python3 nyxbench/run.py --seed 1 --trace    # plus one traced round each
    python3 nyxbench/run.py --workload http-root --seed 1 --seconds 20 \\
        --trace 0                               # one workload, timed
    python3 nyxbench/run.py --compare A.json B.json

Every round runs in a fresh child process, one at a time.  Round ``r``
of a fuzz workload runs the campaign seeded ``1000 * seed + r``, so a
run measures several campaigns and its numbers do not hang on one
campaign's luck.  The first campaign runs once more (traced, with
``--trace``), and the deterministic outputs of its two rounds must
match.

Wall-time metrics are in reference seconds (see ``refclock.py``): host
time scaled by a fixed burst of Python work run next to it, so that the
shared host's changes of speed cancel out.

The last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is non-zero
when any check fails.
"""

from __future__ import annotations

import argparse
import fcntl
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from typing import Dict, List, Optional

from layers import PER_LAYER_UNITS
from spans import percentile, quartiles, tail_percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS_FILE = os.path.join(HERE, "workloads.json")
STATE_DIR = os.path.join(HERE, ".state")

#: Measured rounds per workload without ``--workload``.
DEFAULT_ROUNDS = 5
#: Fewest campaigns a timed untraced run measures, so that set-up time
#: is a median of several set-ups.
MIN_ROUNDS = 3
#: A child that has not finished by then is killed and its round failed
#: (a round normally takes a few seconds; a timed run must stay well
#: under three minutes even when one round hangs).
CHILD_TIMEOUT_S = 60.0
#: Deterministic per-campaign outputs reported next to the timings.
DETERMINISTIC_FUZZ = ("edges", "crashes", "sim_execs_per_s")


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def campaign_seed(seed: int, index: int) -> int:
    return 1000 * seed + index


# ----------------------------------------------------------------------
# rounds
# ----------------------------------------------------------------------

def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    # A fixed string-hash seed removes one source of process-to-process
    # speed variation; the program's output does not depend on it.
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_round(workload: str, seed: int, index: int, traced: bool = False,
              execs: Optional[int] = None,
              spans: Optional[str] = None) -> dict:
    """Round ``index`` of one workload in a fresh child process."""
    tag = "%s-%d%s" % (workload, index, "t" if traced else "")
    workdir = os.path.join(STATE_DIR, "tmp", tag)
    cfg = {"workload": workload, "seed": campaign_seed(seed, index),
           "traced": traced, "execs": execs, "root": ROOT,
           "workdir": workdir, "workloads_file": WORKLOADS_FILE,
           "spans": spans}
    argv = [sys.executable, os.path.join(HERE, "child.py"), json.dumps(cfg)]
    head = {"index": index, "traced": traced}
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return dict(head, crashed="timed out after %.0f s" % CHILD_TIMEOUT_S)
    finally:
        # The child's campaign directory and report go with the round.
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return dict(head, crashed="exit %d: %s"
                    % (proc.returncode, proc.stderr.strip()[-2000:]))
    result = json.loads(lines[-1])
    result.update(head)
    return result


def _round_checks(kind: str, rounds: List[dict]) -> List[str]:
    checks = []
    for r in rounds:
        if "crashed" in r:
            checks.append("round %d crashed: %s" % (r["index"], r["crashed"]))
        elif r.get("error"):
            checks.append("round %d: exception escaped: %s"
                          % (r["index"],
                             r["error"].strip().splitlines()[-1]))
        elif kind == "analyze" and r.get("exit_code") != 0:
            checks.append("round %d: analyze exited %r"
                          % (r["index"], r.get("exit_code")))
        elif r["failed"]:
            checks.append("round %d: %d failed (corruptions %s, rebuilds %s)"
                          % (r["index"], r["failed"], r.get("corruptions"),
                             r.get("rebuilds")))
    # Rounds of one campaign must agree; every analyze pass reads the
    # same tree, so all of them must.
    by_campaign: Dict[int, List[dict]] = {}
    for r in rounds:
        if "crashed" not in r:
            key = r["index"] if kind == "fuzz" else 0
            by_campaign.setdefault(key, []).append(r)
    for index, group in sorted(by_campaign.items()):
        outputs = {json.dumps(r["deterministic"], sort_keys=True)
                   for r in group}
        if len(outputs) > 1:
            checks.append("campaign %d: deterministic outputs differ "
                          "between its rounds: %s" % (index, sorted(outputs)))
    return checks


def summarize(workload: str, kind: str, rounds: List[dict], budget: int,
              bench: dict) -> dict:
    """Metrics, checks and per-layer numbers of one workload's rounds.

    ``budget`` is what one round attempts; a round whose child crashed
    counts all of it as failed.
    """
    good = [r for r in rounds if "crashed" not in r]
    measured = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    metrics: Dict[str, dict] = {}

    def add(name: str, values: List[float], unit: str,
            value: Optional[float] = None) -> None:
        """The median over rounds (or ``value``), with the rounds'
        quartiles."""
        if values:
            q1, med, q3 = quartiles(values)
            metrics[name] = {"value": med if value is None else value,
                             "unit": unit, "q1": q1, "q3": q3,
                             "n": len(values), "values": values}

    # Throughput is the run's: all execs over all measured time.  On
    # ftp-chain one campaign's rate ranges over 2.4x with its seed, and
    # resampled from 100 campaigns this spread about a fifth less
    # between runs than the median round's rate.
    add("execs_per_s", [r["execs_per_s"] for r in measured],
        units.get("execs_per_s", "1/s"),
        value=(sum(r["execs"] for r in measured)
               / sum(r["ref_s"] for r in measured)) if measured else None)
    # A round whose exception escaped before its first exec completed
    # has no intervals; _round_checks reports it.
    timed = [r for r in measured if r["intervals_us"]]
    for q in (50, 90):
        name = "exec_p%d_us" % q
        add(name, [percentile(r["intervals_us"], q) for r in timed],
            units.get(name, "us"))
    # A round holds too few execs for its own p99: p99 and the tail (the
    # highest percentile that still has ten samples beyond it) are taken
    # over every exec of the run.
    gaps = [g for r in measured for g in r["intervals_us"]]
    if gaps:
        metrics["exec_p99_us"] = {"value": percentile(gaps, 99), "unit": "us"}
    extra: Dict[str, object] = {
        "exec_samples": len(gaps),
        "campaigns": [r["index"] for r in measured],
        # Host speed against the reference (above 1: faster), and what
        # the rounds measured in host seconds.
        "host_speed": quartiles([r["ref_s"] / r["wall_s"]
                                 for r in measured] or [0.0])[1],
        "host_execs_per_s": quartiles([r["execs"] / r["wall_s"]
                                       for r in measured] or [0.0])[1]}
    tail = tail_percentile(len(gaps))
    if tail is not None:
        extra["exec_tail"] = {"percentile": tail,
                              "value": percentile(gaps, tail), "unit": "us"}
    add("setup_s", [r["setup_s"] for r in measured],
        units.get("setup_s", "s"))
    add("rss_mb", [r["rss_mb"] for r in measured],
        units.get("rss_mb", "MiB"))
    if kind == "analyze":
        add("pass_s", [r["ref_s"] for r in measured], "s")
    if kind == "fuzz":
        for name in DETERMINISTIC_FUZZ:
            add(name, [r["deterministic"][name] for r in measured],
                "execs/sim-s" if name == "sim_execs_per_s" else "count")
    attempted = sum(r.get("attempted", budget) for r in rounds)
    failed = sum(budget if "crashed" in r else r["failed"] for r in rounds)
    if kind == "analyze":
        # A pass whose report differs from the others' failed too.
        digests = [r["deterministic"]["report_digest"] for r in good]
        if digests:
            common = max(set(digests), key=digests.count)
            failed += sum(1 for d in digests if d != common)
    metrics["fail_rate"] = {"value": failed / attempted, "unit": "ratio"}
    digest = hashlib.sha1(json.dumps(
        [r["deterministic"] for r in measured],
        sort_keys=True).encode("utf-8")).hexdigest()

    layers: Dict[str, float] = {}
    if traced:
        for name in PER_LAYER_UNITS:
            if name != "trace_overhead":
                layers[name] = quartiles([r["layers"].get(name, 0.0)
                                          for r in traced])[1]
        # A traced round runs the same campaign as an untraced one, so
        # the ratio of their window times is the wrappers' cost.  A traced
        # round has bursts only at its ends, so its reference time
        # follows host speed more coarsely.
        plain = {r["index"]: r["ref_s"] for r in good if not r["traced"]}
        ratios = [r["ref_s"] / plain[r["index"]] - 1.0 for r in traced
                  if r["index"] in plain]
        layers["trace_overhead"] = quartiles(ratios)[1] if ratios else 0.0
    return {"workload": workload, "kind": kind, "metrics": metrics,
            "digest": digest, "layers": layers,
            "checks": _round_checks(kind, rounds), "attempted": attempted,
            "failed": failed, "extra": extra,
            "rounds": [{k: v for k, v in r.items() if k != "intervals_us"}
                       for r in rounds]}


# ----------------------------------------------------------------------
# printing
# ----------------------------------------------------------------------

def _fmt(value) -> str:
    return "%.6g" % value if isinstance(value, float) else str(value)


def print_summary(summary: dict) -> None:
    name = summary["workload"]
    for metric, m in summary["metrics"].items():
        spread = ""
        if "q1" in m:
            spread = "  [q1 %s, q3 %s over %d rounds]" % (
                _fmt(m["q1"]), _fmt(m["q3"]), m["n"])
        print("%-16s %-20s %14s %-12s%s" % (name, metric, _fmt(m["value"]),
                                           m["unit"], spread))
    extra = summary["extra"]
    if "exec_tail" in extra:
        tail = extra["exec_tail"]
        print("%-16s %-20s %14s %-12s  [p%s: the highest percentile with "
              ">= 10 of %d samples beyond]"
              % (name, "exec_tail_us", _fmt(tail["value"]), "us",
                 _fmt(tail["percentile"]), extra["exec_samples"]))
    print("%-16s %-20s %14s %-12s  [reference s per host s; execs/s "
          "in host seconds %s]" % (name, "host_speed",
                                   _fmt(extra["host_speed"]), "ratio",
                                   _fmt(extra["host_execs_per_s"])))
    print("%-16s %-20s %s  [campaigns %s]" % (name, "outputs_digest",
                                              summary["digest"],
                                              extra["campaigns"]))
    for metric, value in summary["layers"].items():
        print("%-16s %-44s %14s %s" % (name, metric, _fmt(value),
                                       PER_LAYER_UNITS[metric]))
    for check in summary["checks"]:
        print("%-16s CHECK FAILED: %s" % (name, check))


# ----------------------------------------------------------------------
# modes
# ----------------------------------------------------------------------

def _spans_path(out: Optional[str], workload: str, index: int
                ) -> Optional[str]:
    if not out:
        return None
    stem = out[:-5] if out.endswith(".json") else out
    return "%s.%s.%d.spans.tsv" % (stem, workload, index)


def _repeat_round(args, workload: str, index: int) -> dict:
    """Campaign ``index`` once more: traced with ``--trace``."""
    return run_round(workload, args.seed, index, traced=bool(args.trace),
                     execs=args.execs,
                     spans=(_spans_path(args.out, workload, index)
                            if args.trace else None))


def run_all(args, table: dict) -> Dict[str, List[dict]]:
    """Every workload for :data:`DEFAULT_ROUNDS` rounds, the starting
    workload rotating each round.  Each workload's campaign 0 runs once
    more: traced right after its untraced round (so that host speed
    drifts little between the two), or untraced at the end."""
    names = list(table["workloads"])
    rounds: Dict[str, List[dict]] = {name: [] for name in names}
    for r in range(DEFAULT_ROUNDS):
        for name in names[r % len(names):] + names[:r % len(names)]:
            rounds[name].append(run_round(name, args.seed, r,
                                          execs=args.execs))
            if r == 0 and args.trace:
                rounds[name].append(_repeat_round(args, name, 0))
    if not args.trace:
        for name in names:
            rounds[name].append(_repeat_round(args, name, 0))
    return rounds


def run_one(args) -> Dict[str, List[dict]]:
    """One workload for about ``--seconds``.

    Untraced, campaigns 0, 1, ... run once each and campaign 0 once
    more at the end.  Traced, every campaign's untraced round is
    followed by its traced round.  A round starts only while it can be
    expected to end within half a round of the deadline.
    """
    rounds: List[dict] = []
    begin = time.monotonic()
    index = 0
    while True:
        start = time.monotonic()
        rounds.append(run_round(args.workload, args.seed, index,
                                execs=args.execs))
        if args.trace:
            rounds.append(_repeat_round(args, args.workload, index))
        index += 1
        cycle = time.monotonic() - start
        left = args.seconds - (time.monotonic() - begin)
        closing = 0.0 if args.trace else cycle
        if (index >= (1 if args.trace else MIN_ROUNDS)
                and left < cycle / 2 + closing):
            break
    if not args.trace:
        rounds.append(_repeat_round(args, args.workload, 0))
    return {args.workload: rounds}


def final_line(summaries: List[dict], bench: dict, traced: bool,
               prefix: bool) -> dict:
    """The result object: every end-to-end metric, or (traced) every
    per-layer metric, with its unit."""
    wanted = bench["per_layer"] if traced else bench["end_to_end"]
    metrics = {}
    for summary in summaries:
        for metric in wanted:
            name = metric["name"]
            if traced:
                value = summary["layers"].get(name)
            else:
                value = summary["metrics"].get(name, {}).get("value")
            if value is None:
                summary["checks"].append("metric %s not measured" % name)
                continue
            key = "%s:%s" % (summary["workload"], name) if prefix else name
            metrics[key] = {"value": value, "unit": metric["unit"]}
    return {"correct": not any(s["checks"] for s in summaries),
            "attempted": sum(s["attempted"] for s in summaries),
            "failed": sum(s["failed"] for s in summaries),
            "metrics": metrics}


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------

def _worse(better: str, base: float, new: float) -> float:
    """Relative change of ``new`` against ``base``, positive = worse."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def _outputs_by_campaign(seed: int, summary: dict) -> Dict[int, dict]:
    """Deterministic outputs of each campaign a run measured, keyed by
    campaign seed.  Every analyze pass reads the same tree, so all of
    them share one key."""
    out: Dict[int, dict] = {}
    for r in summary["rounds"]:
        if "crashed" not in r:
            key = (campaign_seed(seed, r["index"])
                   if summary["kind"] == "fuzz" else 0)
            out.setdefault(key, r["deterministic"])
    return out


def _compare_outputs(name: str, a: dict, b: dict) -> int:
    """One row per deterministic output over the campaigns both runs
    measured; returns the number of failed rows.  Any mismatch on a
    shared campaign fails, and so does having no campaign in common."""
    da = _outputs_by_campaign(a["seed"], a["workloads"][name])
    db = _outputs_by_campaign(b["seed"], b["workloads"][name])
    shared = sorted(set(da) & set(db))
    if not shared:
        print("%-16s %-18s no campaign in common  FAILED" % (name, "outputs"))
        return 1
    failed = 0
    for key in sorted(set(da[shared[0]]) | set(db[shared[0]])):
        changed = [c for c in shared if da[c].get(key) != db[c].get(key)]
        if changed:
            failed += 1
            first = changed[0]
            verdict = ("CHANGED in %d of %d campaigns (campaign %d: %s -> %s)"
                       % (len(changed), len(shared), first,
                          da[first].get(key), db[first].get(key)))
        else:
            verdict = "identical in %d campaigns" % len(shared)
        print("%-16s %-18s %s" % (name, key, verdict))
    return failed


def compare(path_a: str, path_b: str, bench: dict) -> int:
    """Print one row per workload and metric; 1 on any regression.

    A = the parent, B = the change.  Deterministic outputs (edges,
    crashes, sim_execs_per_s, suffix_execs, stats_checksum, the analyze
    report digest)
    are compared campaign by campaign over the campaigns both runs
    measured: their bound is 0.
    """
    a, b = load_json(path_a), load_json(path_b)
    regressions = 0
    print("%-16s %-18s %12s %12s %8s %7s %7s  %s"
          % ("workload", "metric", "A", "B", "worse", "bound", "spread",
             "verdict"))
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            print("%-16s missing from %s" % (name, path_b))
            regressions += 1
            continue
        rows = [(m["name"], m["better"], m["bound"])
                for m in bench["end_to_end"]]
        rows.append(("fail_rate", "lower", 0.0))
        for metric, better, bound in rows:
            ma = wa["metrics"].get(metric)
            mb = wb["metrics"].get(metric)
            if ma is None or mb is None:
                continue
            worse = _worse(better, ma["value"], mb["value"])
            spread = 0.0
            for m in (ma, mb):
                if "q1" in m and m["value"]:
                    spread = max(spread, (m["q3"] - m["q1"]) / abs(m["value"]))
            if spread > bound:
                all_better = all(_worse(better, va, vb) < 0
                                 for va in ma["values"] for vb in mb["values"])
                verdict = "better" if all_better else "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            elif -worse > bound:
                verdict = "better"
            else:
                verdict = "ok"
            print("%-16s %-18s %12s %12s %+7.1f%% %6.1f%% %6.1f%%  %s"
                  % (name, metric, _fmt(ma["value"]), _fmt(mb["value"]),
                     100 * worse, 100 * bound, 100 * spread, verdict))
        regressions += _compare_outputs(name, a, b)
    return 1 if regressions else 0


# ----------------------------------------------------------------------
# main
# ----------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Nyx-Net reproduction benchmark of record")
    parser.add_argument("--workload",
                        help="run only this workload, for --seconds")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed the campaigns' inputs derive from")
    parser.add_argument("--seconds", type=float, default=None,
                        help="with --workload: keep starting rounds until "
                             "this long has passed (default: BENCHMARK.json "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="trace the closing round and print per-layer "
                             "metrics")
    parser.add_argument("--execs", type=int, default=None,
                        help="override every fuzz workload's exec budget "
                             "(smoke tests)")
    parser.add_argument("--out", help="write the full results JSON here "
                                      "(traced spans go next to it)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --out files against the bounds "
                             "in BENCHMARK.json")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    if args.compare:
        return compare(args.compare[0], args.compare[1], bench)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("no program to measure: %s has no src/repro" % ROOT,
              file=sys.stderr)
        return 2
    table = load_json(WORKLOADS_FILE)
    if args.workload is not None and args.workload not in table["workloads"]:
        print("unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(table["workloads"])),
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    os.makedirs(STATE_DIR, exist_ok=True)
    with open(os.path.join(STATE_DIR, "lock"), "w") as lock:
        # One benchmark at a time per checkout: concurrent runs would
        # measure each other.
        fcntl.flock(lock, fcntl.LOCK_EX)
        shutil.rmtree(os.path.join(STATE_DIR, "tmp"), ignore_errors=True)
        rounds = (run_all(args, table) if args.workload is None
                  else run_one(args))
    summaries = []
    for name, rs in rounds.items():
        spec = table["workloads"][name]
        budget = (args.execs or spec["execs"]) if spec["kind"] == "fuzz" else 1
        summaries.append(summarize(name, spec["kind"], rs, budget, bench))
    result = final_line(summaries, bench,
                        traced=bool(args.trace) and args.workload is not None,
                        prefix=args.workload is None)
    for summary in summaries:
        print_summary(summary)
    if args.out:
        uname = os.uname()
        host = {"python": platform.python_version(), "system": uname.sysname,
                "release": uname.release, "machine": uname.machine,
                "cpus": os.cpu_count()}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "host": host,
                       "workloads": {s["workload"]: s for s in summaries}},
                      fh, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
