"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``targets`` — list the available fuzz targets.
* ``fuzz <target>`` — run a Nyx-Net campaign against one target.
* ``mario <level>`` — run the Table 4 time-to-solve comparison on one
  Super Mario level.
* ``bench`` — run the ProFuzzBench campaign matrix and print Tables
  1-3 (wall-clock throughput is measured by ``nyxbench/``).
* ``replay <target> <file.nyx>`` — replay a persisted input (e.g. a
  crash reproducer) against a fresh target VM.
* ``analyze`` — static diagnostics: spec lint, corpus dataflow audit
  (with ``--fix`` fix-its), the determinism self-lint, the
  reset-safety lint (``--reset``), the runtime reset sanitizer
  (``--sanitize``), the durability lint (``--durability``) and the
  hot-path lint (``--perf``).
  Prongs compose: one invocation may run several and emits a single
  merged report.  Exit codes: 0 clean, 1 findings, 2 usage error.
* ``profile`` — deterministic sim-cost profiler: per-site cost table,
  committed-budget drift gate (NYX076) and static hot-graph
  cross-check (NYX077).  Same exit contract as ``analyze``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _cmd_targets(args: argparse.Namespace) -> int:
    from repro.targets import PROFILES, PROFUZZBENCH
    print("%-14s %-8s %-5s %s" % ("target", "proto", "bugs", "notes"))
    for name in sorted(PROFILES):
        profile = PROFILES[name]
        tag = "pfb" if name in PROFUZZBENCH else "case"
        print("%-14s %-8s %-5d [%s] %s"
              % (name, profile.protocol, len(profile.planted_bugs), tag,
                 profile.notes[:70]))
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz.campaign import build_campaign
    from repro.fuzz.persist import save_campaign
    from repro.targets import PROFILES
    if getattr(args, "placement", None) == "bandit":
        args.policy = "bandit"
    if args.max_chain_depth < 1:
        print("--max-chain-depth must be >= 1", file=sys.stderr)
        return 2
    if args.resume:
        return _fuzz_resume(args)
    if args.target is None:
        print("a target is required unless --resume is given "
              "(see `repro targets`)", file=sys.stderr)
        return 2
    profile = PROFILES.get(args.target)
    if profile is None:
        print("unknown target %r (see `repro targets`)" % args.target,
              file=sys.stderr)
        return 2
    if (args.verify_checkpoints is not None
            and args.checkpoint_every is None):
        print("--verify-checkpoints needs --checkpoint-every N (there is "
              "nothing to verify without periodic checkpoints)",
              file=sys.stderr)
        return 2
    if args.checkpoint_every is not None:
        return _fuzz_durable(args, profile)
    if args.workers > 1:
        return _fuzz_parallel(args, profile)
    from repro.faults import PlanError
    try:
        handles = build_campaign(profile, policy=args.policy, seed=args.seed,
                                 time_budget=args.time, max_execs=args.execs,
                                 asan=not args.no_asan,
                                 fault_rate=args.fault_rate,
                                 fault_plan=args.fault_plan,
                                 exec_timeout=args.exec_timeout,
                                 sanitize_every=args.sanitize_resets,
                                 max_chain_depth=args.max_chain_depth)
    except PlanError as err:
        print("invalid fault plan: %s" % err, file=sys.stderr)
        return 2
    print("fuzzing %s with nyx-net-%s (sim budget %.0fs, cap %s execs)"
          % (args.target, args.policy, args.time, args.execs))
    injector = handles.interceptor.injector
    if injector is not None:
        print("fault injection armed: plan %s" % injector.plan.plan_id)
    stats = handles.fuzzer.run_campaign()
    _print_single(stats, handles.fuzzer)
    if args.distill:
        from repro.fuzz.trim import distill_corpus
        inputs = [e.input for e in handles.fuzzer.corpus.entries]
        chosen = distill_corpus(handles.executor, inputs)
        handles.fuzzer.corpus.entries = [
            e for e in handles.fuzzer.corpus.entries if e.input in chosen]
        print("distilled corpus: %d -> %d entries"
              % (len(inputs), len(chosen)))
    if args.out:
        written = save_campaign(handles.fuzzer, args.out)
        print("saved %d files to %s" % (written, args.out))
    return _print_sanitizer(stats, handles.fuzzer)


def _fuzz_parallel(args: argparse.Namespace, profile) -> int:
    """``fuzz --workers N``: one golden boot, N instances, shared root."""
    from repro.faults import PlanError
    from repro.fuzz.campaign import build_parallel_campaign
    from repro.fuzz.persist import save_parallel_campaign
    try:
        campaign = build_parallel_campaign(
            profile, workers=args.workers, policy=args.policy, seed=args.seed,
            time_budget=args.time, max_total_execs=args.execs,
            sync_interval=args.sync_interval,
            fault_rate=args.fault_rate, exec_timeout=args.exec_timeout)
    except PlanError as err:
        print("invalid fault plan: %s" % err, file=sys.stderr)
        return 2
    print("fuzzing %s with %d nyx-net-%s workers over one shared root "
          "(sim budget %.0fs, cap %s execs)"
          % (args.target, args.workers, args.policy, args.time, args.execs))
    aggregate = campaign.run()
    _print_fleet(aggregate, campaign, footprint=True)
    if args.distill:
        print("(--distill is ignored with --workers > 1)")
    _print_fleet_ignored(args)
    if args.out:
        written = save_parallel_campaign(campaign, args.out)
        print("saved %d files to %s" % (written, args.out))
    return 0


def _print_fleet_ignored(args: argparse.Namespace) -> None:
    """Name the single-instance flags a fleet ignores."""
    if args.sanitize_resets is not None:
        print("(--sanitize-resets is ignored with --workers > 1)")
    if args.max_chain_depth > 1:
        print("(--max-chain-depth is ignored with --workers > 1; workers "
              "run the classic single incremental snapshot)")
    if args.fault_plan:
        print("(--fault-plan is ignored with --workers > 1; each worker "
              "derives its plan from --seed and --fault-rate)")


#: Manifest key -> (fuzz flag, parser default) for the flags a durable
#: campaign's manifest records; a fresh campaign's manifest is built
#: from them.  On ``--resume``, a flag still at its default adopts the
#: manifest's value; a flag the user explicitly changed must match the
#: manifest or the resume is refused (resuming under a different config
#: would silently produce incomparable results).
_FUZZ_DEFAULTS = {
    "target": ("target", None),
    "policy": ("policy", "aggressive"),
    "seed": ("seed", 0),
    "time_budget": ("time", 600.0),
    "max_execs": ("execs", 5000),
    "fault_rate": ("fault_rate", 0.0),
    "fault_plan": ("fault_plan", None),
    "exec_timeout": ("exec_timeout", None),
    "sanitize_every": ("sanitize_resets", None),
    "max_chain_depth": ("max_chain_depth", 1),
    "workers": ("workers", 1),
    "sync_interval": ("sync_interval", 5.0),
    "verify_checkpoints": ("verify_checkpoints", None),
}


def _resume_conflicts(manifest: dict, args: argparse.Namespace) -> List[str]:
    """Explicitly-passed fuzz flags that contradict the manifest."""
    conflicts = []
    for key, (attr, default) in _FUZZ_DEFAULTS.items():
        given = getattr(args, attr)
        if given == default:
            continue  # left at the default: the manifest's value wins
        recorded = manifest.get(key)
        if given != recorded:
            flag = attr.replace("_", "-")
            conflicts.append("--%s %r conflicts with the campaign's "
                             "recorded %r" % (flag, given, recorded))
    if args.no_asan and manifest.get("asan", True):
        conflicts.append("--no-asan conflicts with the campaign's "
                         "recorded asan=True")
    return conflicts


def _fuzz_durable(args: argparse.Namespace, profile) -> int:
    """``fuzz --checkpoint-every N``: a journaled, resumable campaign."""
    from repro.faults import PlanError
    from repro.fuzz.journal import campaign_manifest, durable_campaign
    if not args.out:
        print("--checkpoint-every needs --out DIR (the durable campaign "
              "directory the journal, checkpoints and manifest live in)",
              file=sys.stderr)
        return 2
    if args.distill:
        print("(--distill is ignored with --checkpoint-every)")
    kind = "parallel" if args.workers > 1 else "single"
    if kind == "parallel":
        _print_fleet_ignored(args)
    manifest = campaign_manifest(
        kind, checkpoint_every=args.checkpoint_every, asan=not args.no_asan,
        **{key: getattr(args, attr)
           for key, (attr, _default) in _FUZZ_DEFAULTS.items()})
    try:
        durable = durable_campaign(profile, manifest, args.out)
    except PlanError as err:
        print("invalid fault plan: %s" % err, file=sys.stderr)
        return 2
    print("durable campaign on %s in %s (checkpoint every %d execs)"
          % (args.target, args.out, args.checkpoint_every))
    return _run_durable(durable)


def _fuzz_resume(args: argparse.Namespace) -> int:
    """``fuzz --resume DIR``: continue a durable campaign."""
    from repro.faults import PlanError
    from repro.fuzz.journal import (DurabilityError, read_manifest,
                                    resume_campaign)
    try:
        manifest = read_manifest(args.resume)
    except DurabilityError as err:
        print("cannot resume: %s" % err, file=sys.stderr)
        return 2
    conflicts = _resume_conflicts(manifest, args)
    if conflicts:
        print("cannot resume %s with conflicting flags:" % args.resume,
              file=sys.stderr)
        for conflict in conflicts:
            print("  %s" % conflict, file=sys.stderr)
        print("drop the flags (the manifest's recorded values are used) "
              "or start a fresh campaign in a new directory",
              file=sys.stderr)
        return 2
    try:
        durable = resume_campaign(args.resume)
    except DurabilityError as err:
        print("cannot resume: %s" % err, file=sys.stderr)
        return 2
    except PlanError as err:
        print("invalid fault plan: %s" % err, file=sys.stderr)
        return 2
    if durable.resumed_from is not None:
        print("resuming %s campaign on %s from checkpoint epoch %d"
              % (manifest["kind"], manifest["target"], durable.resumed_from))
    else:
        print("no usable checkpoint in %s yet; restarting from the manifest"
              % args.resume)
    recovered = durable.recovered
    if recovered.get("corpus_adds") or recovered.get("crashes"):
        print("journal tail past the checkpoint recorded %d corpus adds "
              "and %d crashes — the resumed run re-derives them "
              "deterministically" % (recovered.get("corpus_adds", 0),
                                     recovered.get("crashes", 0)))
    return _run_durable(durable)


def _run_durable(durable) -> int:
    """Drive a durable campaign under graceful signal handling."""
    from repro.fuzz.journal import GracefulShutdown
    with GracefulShutdown() as drain:
        try:
            result = durable.run(stop=drain)
        except KeyboardInterrupt:
            print("aborted; the last periodic checkpoint is retained in %s"
                  % durable.directory, file=sys.stderr)
            print("resume with: repro fuzz --resume %s" % durable.directory,
                  file=sys.stderr)
            return 3
    if result is None:
        print("graceful stop: campaign checkpointed to %s"
              % durable.directory)
        print("resume with: repro fuzz --resume %s" % durable.directory)
        return 3
    if durable.kind == "parallel":
        _print_fleet(result, durable.campaign)
        totals = result.merged
    else:
        _print_single(result, durable.fuzzer)
        if _print_sanitizer(result, durable.fuzzer):
            return 1
        totals = result
    print("durability: %d checkpoints written, %d stale epochs pruned, "
          "%d verifications, %d divergences"
          % (totals.checkpoints_written, totals.checkpoint_epochs_pruned,
             totals.checkpoint_verifications,
             totals.checkpoint_divergences))
    if durable.verify_findings:
        for diag in durable.verify_findings:
            print("  %s" % diag.format())
        return 1
    print("campaign complete; corpus+crashes persisted in %s"
          % durable.directory)
    return 0


def _print_single(stats, fuzzer) -> None:
    """A single-instance campaign's summary, robustness and crashes."""
    print(stats.summary())
    _print_robustness(stats)
    for bug in fuzzer.crashes.unique_bugs:
        record = fuzzer.crashes.records[bug]
        print("  CRASH %-40s t=%.2fs x%d" % (bug, record.found_at,
                                             record.count))


def _print_sanitizer(stats, fuzzer) -> int:
    """The reset-sanitizer line and its leaks; 1 when any leaked."""
    if not stats.sanitizer_checks:
        return 0
    print("reset sanitizer: %d checks, %d leaks"
          % (stats.sanitizer_checks, stats.sanitizer_leaks))
    for diag in fuzzer.sanitizer_findings:
        print("  %s" % diag.format())
    return 1 if stats.sanitizer_leaks else 0


def _print_fleet(aggregate, campaign, footprint: bool = False) -> None:
    """A fleet's summary, robustness, retirements and crashes, with the
    shared-root page footprint when asked."""
    print(aggregate.summary())
    _print_robustness(aggregate.merged)
    retired = campaign.retired_workers()
    if retired:
        print("retired workers: %s" % ", ".join(map(str, retired)))
    if footprint:
        pages = campaign.unique_page_footprint()
        print("shared-root footprint: %d unique pages (%.2fx one instance)"
              % (pages["total"], pages["ratio"]))
    for bug in sorted({key for w in campaign.workers
                       for key in w.fuzzer.crashes.records}):
        print("  CRASH %s" % bug)


def _print_robustness(stats) -> None:
    """One line of fault/watchdog counters when anything fired."""
    if not (stats.timeouts or stats.faults_injected or stats.snapshot_rebuilds
            or stats.worker_failures or stats.quarantined_inputs
            or stats.degraded_root_only):
        return
    line = ("robustness: %d timeouts, %d faults injected, "
            "%d snapshot rebuilds, %d worker failures, %d quarantined"
            % (stats.timeouts, stats.faults_injected,
               stats.snapshot_rebuilds, stats.worker_failures,
               stats.quarantined_inputs))
    if stats.degraded_root_only:
        line += " [degraded to root-only]"
    print(line)


def _cmd_mario(args: argparse.Namespace) -> int:
    from repro.mario.solver import MODES, solve_level
    modes = args.modes.split(",") if args.modes else list(MODES)
    for mode in modes:
        result = solve_level(args.level, mode, seed=args.seed,
                             max_execs=args.execs)
        if result.solved:
            print("%-16s solved in %8.1fs (sim), %6d execs"
                  % (mode, result.time_to_solve, result.execs))
        else:
            print("%-16s unsolved after %d execs" % (mode, result.execs))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """``bench``: the ProFuzzBench campaign matrix (Tables 1-3)."""
    from repro.bench.profuzzbench import BenchConfig, run_matrix
    from repro.bench.reporting import (coverage_table, crash_table,
                                       throughput_table)
    from repro.targets import PROFILES
    config = BenchConfig()
    targets = args.targets.split(",") if args.targets else None
    for name in targets or ():
        if name not in PROFILES:
            print("unknown target %r (see `repro targets`)" % name,
                  file=sys.stderr)
            return 2
    matrix = run_matrix(targets=targets, config=config, progress=True)
    for table in (crash_table(matrix), coverage_table(matrix),
                  throughput_table(matrix)):
        print()
        print(table)
    return 0


def _cmd_pack(args: argparse.Namespace) -> int:
    from repro.spec.nodes import default_network_spec
    from repro.spec.share import pack_share
    from repro.targets import PROFILES
    profile = PROFILES.get(args.target)
    if profile is None:
        print("unknown target %r" % args.target, file=sys.stderr)
        return 2
    written = pack_share(profile, default_network_spec(), args.out)
    print("packed %d files into share folder %s" % (written, args.out))
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.fuzz.campaign import build_campaign
    from repro.fuzz.input import FuzzInput
    from repro.spec.bytecode import deserialize
    from repro.spec.nodes import default_network_spec
    from repro.targets import PROFILES
    profile = PROFILES.get(args.target)
    if profile is None:
        print("unknown target %r" % args.target, file=sys.stderr)
        return 2
    with open(args.input, "rb") as handle:
        ops = deserialize(default_network_spec(), handle.read())
    handles = build_campaign(profile, policy="none", seed=0,
                             time_budget=1e9, max_execs=1)
    result = handles.executor.run_full(FuzzInput(ops))
    print("replayed %d ops (%d packets consumed)"
          % (result.ops_executed, result.packets_consumed))
    if result.crash is not None:
        print("CRASH: %s (%s)" % (result.crash.dedup_key,
                                  result.crash.detail))
        return 1
    print("no crash")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    import os

    from repro.analysis.diagnostics import Report
    from repro.analysis.model import SourceTree
    from repro.spec.nodes import default_network_spec
    run_spec = args.spec
    self_root = args.self_root
    reset_root = args.reset_root
    durability_root = args.durability_root
    perf_root = args.perf_root
    run_corpus = args.corpus is not None
    run_sanitize = args.sanitize is not None
    if not (run_spec or self_root or run_corpus or reset_root
            or run_sanitize or durability_root or perf_root):
        # Bare `repro analyze`: the checks that need no inputs.
        run_spec = True
        self_root = "src/repro"
        reset_root = "src/repro"
        durability_root = "src/repro"
        perf_root = "src/repro"
    for root in (self_root, reset_root, durability_root, perf_root):
        if root and not os.path.isdir(root):
            print("not a directory: %s" % root, file=sys.stderr)
            return 2
    if args.fix and not (run_corpus or reset_root or durability_root
                         or perf_root):
        print("note: --fix only applies to --corpus, --reset, "
              "--durability and --perf", file=sys.stderr)
    # One model per distinct root, shared by every family (and, with
    # --fix, every stub generator) that reads it.
    readers = [root for root in (self_root, reset_root, durability_root,
                                 perf_root) if root]
    if args.fix:
        readers += [root for root in (reset_root, durability_root,
                                      perf_root) if root]
    trees = {root: SourceTree(root, readers.count(root))
             for root in dict.fromkeys(readers)}
    spec = default_network_spec()
    report = Report()
    if run_spec:
        from repro.analysis.speclint import analyze_spec
        report.extend(analyze_spec(spec))
        report.meta["spec"] = spec.name
    if self_root:
        from repro.analysis.selflint import analyze_source_tree
        report.extend(analyze_source_tree(trees[self_root]))
        report.meta["self_root"] = self_root
    if reset_root:
        from repro.analysis.resetlint import (analyze_reset_tree,
                                              tree_fixit_stubs)
        report.extend(analyze_reset_tree(trees[reset_root]))
        report.meta["reset_root"] = reset_root
        if args.fix:
            for where, stub in sorted(
                    tree_fixit_stubs(trees[reset_root]).items()):
                print("--- fix-it for %s ---" % where)
                print(stub)
    if durability_root:
        from repro.analysis.durlint import (analyze_durability_tree,
                                            durability_fixit_stubs)
        report.extend(analyze_durability_tree(trees[durability_root]))
        report.meta["durability_root"] = durability_root
        if args.fix:
            for where, stub in sorted(
                    durability_fixit_stubs(trees[durability_root]).items()):
                print("--- fix-it for %s ---" % where)
                print(stub)
    if perf_root:
        from repro.analysis.hotlint import analyze_hot_tree, hot_fixit_stubs
        report.extend(analyze_hot_tree(trees[perf_root]))
        report.meta["perf_root"] = perf_root
        if args.fix:
            for where, stub in sorted(
                    hot_fixit_stubs(trees[perf_root]).items()):
                print("--- fix-it for %s ---" % where)
                print(stub)
    if run_corpus:
        from repro.analysis.corpus import audit_corpus
        audit = audit_corpus(args.corpus, spec=spec, fix=args.fix)
        report.extend(audit.diagnostics)
        report.meta.update(audit.meta)
        report.meta["corpus"] = args.corpus
    if run_sanitize:
        code = _analyze_sanitize(args.sanitize, report)
        if code:
            return code
    print(report.format_text())
    if args.json:
        report.write_json(args.json)
        print("wrote %s" % args.json)
    return report.exit_code()


def _cmd_profile(args: argparse.Namespace) -> int:
    """``profile``: the NYX07x runtime prong (docs/performance.md).

    Runs one seeded campaign under sim-cost instrumentation, prints the
    per-site cost table, gates it against the committed budget baseline
    (NYX076) and cross-checks top-decile sites against the static hot
    call graph (NYX077).
    """
    import os

    from repro.analysis.diagnostics import Report
    from repro.perf.profiler import (compare_profile, format_profile,
                                     load_report, run_profile,
                                     static_disagreement, write_report)
    from repro.targets import PROFILES
    if args.target not in PROFILES:
        print("unknown target %r (see `repro targets`)" % args.target,
              file=sys.stderr)
        return 2
    baseline = None
    if not args.write_baseline and os.path.exists(args.baseline):
        baseline = load_report(args.baseline)
    if args.execs is not None:
        execs = args.execs
    elif baseline is not None:
        # A gated run must match the baseline's campaign config: the
        # cost table is a pure function of it.
        execs = int(baseline.get("execs", 400))
    else:
        execs = 400
    print("profiling %s, seed %d, %d execs..."
          % (args.target, args.seed, execs))
    payload = run_profile(target=args.target, seed=args.seed,
                          execs=execs, policy=args.policy)
    print(format_profile(payload))
    if args.write_baseline:
        write_report(args.baseline, payload)
        print("wrote baseline %s" % args.baseline)
        return 0
    report = Report()
    report.meta.update({key: payload[key] for key in
                        ("target", "seed", "execs", "policy",
                         "profile_checksum", "stats_checksum")})
    if baseline is not None:
        diags, notes = compare_profile(payload, baseline, args.pct,
                                       args.baseline)
        for note in notes:
            print(note)
        report.extend(diags)
        report.meta["baseline"] = args.baseline
    else:
        print("no profile baseline at %s (use --write-baseline first)"
              % args.baseline)
    if os.path.isdir(args.root):
        report.extend(static_disagreement(payload, args.root))
        report.meta["perf_root"] = args.root
    print(report.format_text())
    if args.json:
        report.meta["profile"] = payload
        report.write_json(args.json)
        print("wrote %s" % args.json)
    return report.exit_code()


def _analyze_sanitize(target: str, report) -> int:
    """``analyze --sanitize``: short seeded campaign with the reset
    sanitizer armed; its NYX05x findings land in the report."""
    from repro.fuzz.campaign import build_campaign
    from repro.targets import PROFILES
    profile = PROFILES.get(target)
    if profile is None:
        print("unknown target %r (see `repro targets`)" % target,
              file=sys.stderr)
        return 2
    handles = build_campaign(profile, policy="balanced", seed=1,
                             time_budget=30.0, max_execs=300,
                             sanitize_every=50)
    stats = handles.fuzzer.run_campaign()
    report.extend(handles.fuzzer.sanitizer_findings)
    report.meta["sanitize_target"] = target
    report.meta["sanitizer_checks"] = stats.sanitizer_checks
    report.meta["sanitizer_leaks"] = stats.sanitizer_leaks
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Nyx-Net reproduction: snapshot fuzzing on a "
                    "simulated VM")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("targets", help="list fuzz targets")

    fuzz = sub.add_parser("fuzz", help="fuzz one target")
    fuzz.add_argument("target", nargs="?",
                      help="target name (optional with --resume: the "
                           "campaign's manifest records it)")
    fuzz.add_argument("--resume", metavar="DIR",
                      help="resume a durable campaign directory from its "
                           "newest checkpoint (+journal); other flags must "
                           "match the recorded manifest")
    fuzz.add_argument("--checkpoint-every", type=int, default=None,
                      metavar="N",
                      help="make the campaign durable: journal progress and "
                           "checkpoint the full resumable state to --out "
                           "every N execs (SIGTERM/SIGINT drain into a "
                           "resumable exit; kill -9 recovers from the last "
                           "checkpoint via --resume)")
    fuzz.add_argument("--policy", default="aggressive",
                      choices=["none", "balanced", "aggressive", "bandit"])
    fuzz.add_argument("--max-chain-depth", type=int, default=1, metavar="K",
                      help="snapshot chain depth cap: 1 keeps the paper's "
                           "single incremental snapshot; K>1 lets the "
                           "policy stack up to K overlay snapshots along "
                           "each input (docs/snapshots.md)")
    fuzz.add_argument("--placement", choices=["bandit"], default=None,
                      help="chain placement strategy; 'bandit' is shorthand "
                           "for --policy bandit (pair with "
                           "--max-chain-depth > 1)")
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--time", type=float, default=600.0,
                      help="simulated seconds")
    fuzz.add_argument("--execs", type=int, default=5000,
                      help="host-side execution cap")
    fuzz.add_argument("--no-asan", action="store_true")
    fuzz.add_argument("--distill", action="store_true",
                      help="afl-cmin the corpus before saving")
    fuzz.add_argument("--out", help="directory to persist corpus+crashes")
    fuzz.add_argument("--workers", type=int, default=1,
                      help="parallel instances over one shared root "
                           "snapshot (default: 1)")
    fuzz.add_argument("--sync-interval", type=float, default=5.0,
                      help="sim seconds between corpus sync rounds "
                           "(with --workers > 1)")
    fuzz.add_argument("--fault-rate", type=float, default=0.0,
                      help="inject network/snapshot faults at this rate "
                           "(0 disables; see docs/robustness.md)")
    fuzz.add_argument("--fault-plan",
                      help="replay a specific fault plan id "
                           "(fp1:<seed>:<rate-ppm>); overrides --fault-rate")
    fuzz.add_argument("--exec-timeout", type=float, default=None,
                      help="per-exec watchdog budget in simulated seconds")
    fuzz.add_argument("--sanitize-resets", nargs="?", const=250, type=int,
                      default=None, metavar="N",
                      help="digest-diff the host object graph against the "
                           "post-root-snapshot baseline every N execs "
                           "(default N: 250); exits 1 on any reset leak")
    fuzz.add_argument("--verify-checkpoints", nargs="?", const=200, type=int,
                      default=None, metavar="N",
                      help="with --checkpoint-every: after each periodic "
                           "checkpoint, once N further execs have run, "
                           "restore it in a fresh subprocess, re-step to "
                           "the same exec boundary and diff the states "
                           "(NYX065/NYX066; default N: 200); exits 1 on "
                           "any divergence")

    mario = sub.add_parser("mario", help="Table 4 on one level")
    mario.add_argument("level", nargs="?", default="1-1")
    mario.add_argument("--modes", help="comma list (default: all four)")
    mario.add_argument("--seed", type=int, default=0)
    mario.add_argument("--execs", type=int, default=10000)

    bench = sub.add_parser(
        "bench", help="ProFuzzBench campaign matrix (Tables 1-3)")
    bench.add_argument("--targets", help="comma list (default: all 13)")

    replay = sub.add_parser("replay", help="replay a .nyx input")
    replay.add_argument("target")
    replay.add_argument("input")

    pack = sub.add_parser("pack", help="bundle a share folder (§5.4)")
    pack.add_argument("target")
    pack.add_argument("out")

    prof = sub.add_parser(
        "profile", help="deterministic sim-cost profiler (NYX076/NYX077)")
    prof.add_argument("target", nargs="?", default="lighttpd",
                      help="campaign target (default: lighttpd)")
    prof.add_argument("--seed", type=int, default=1,
                      help="campaign seed (default: 1)")
    prof.add_argument("--execs", type=int, default=None,
                      help="campaign execs (default: the baseline's, "
                           "or 400 without one)")
    prof.add_argument("--policy", default="aggressive",
                      help="snapshot policy (default: aggressive)")
    prof.add_argument("--baseline",
                      default="tests/golden/profile_baseline.json",
                      help="committed per-site budget baseline")
    prof.add_argument("--write-baseline", action="store_true",
                      help="save this run's cost table as the baseline")
    prof.add_argument("--pct", type=float, default=25.0, metavar="PCT",
                      help="NYX076 per-site budget drift tolerance "
                           "(default: 25)")
    prof.add_argument("--root", default="src/repro",
                      help="source tree for the NYX077 static "
                           "cross-check (default: src/repro)")
    prof.add_argument("--json", metavar="PATH",
                      help="write the merged JSON report here")

    analyze = sub.add_parser(
        "analyze", help="static diagnostics (docs/analysis.md)")
    analyze.add_argument("--spec", action="store_true",
                         help="lint the default network spec (NYX00x)")
    analyze.add_argument("--corpus", metavar="DIR",
                         help="audit a persisted corpus directory "
                              "(NYX01x/NYX03x)")
    analyze.add_argument("--self", dest="self_root", nargs="?",
                         const="src/repro", default=None, metavar="PATH",
                         help="determinism self-lint over a source tree "
                              "(NYX02x; default PATH: src/repro)")
    analyze.add_argument("--reset", dest="reset_root", nargs="?",
                         const="src/repro", default=None, metavar="PATH",
                         help="reset-safety lint over a source tree "
                              "(NYX04x; default PATH: src/repro)")
    analyze.add_argument("--sanitize", nargs="?", const="lighttpd",
                         default=None, metavar="TARGET",
                         help="run a short seeded campaign with the "
                              "runtime reset sanitizer armed (NYX05x; "
                              "default TARGET: lighttpd)")
    analyze.add_argument("--durability", dest="durability_root", nargs="?",
                         const="src/repro", default=None, metavar="PATH",
                         help="durability lint over a source tree: "
                              "snapshot/restore completeness, capture-set "
                              "drift vs the state-inventory golden, journal "
                              "frame registration (NYX06x; default PATH: "
                              "src/repro)")
    analyze.add_argument("--perf", dest="perf_root", nargs="?",
                         const="src/repro", default=None, metavar="PATH",
                         help="hot-path lint over a source tree: per-"
                              "iteration allocation, unbatched RNG draws, "
                              "repeated attribute loads, redundant copies "
                              "and indirection on '# nyx: hot'-reachable "
                              "code (NYX07x; default PATH: src/repro)")
    analyze.add_argument("--fix", action="store_true",
                         help="rewrite repairable --corpus entries in "
                              "place; with --reset, --durability or "
                              "--perf, print fix-it stubs")
    analyze.add_argument("--json", metavar="PATH",
                         help="write the machine-readable report here")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "targets": _cmd_targets,
        "fuzz": _cmd_fuzz,
        "mario": _cmd_mario,
        "bench": _cmd_bench,
        "replay": _cmd_replay,
        "pack": _cmd_pack,
        "analyze": _cmd_analyze,
        "profile": _cmd_profile,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
