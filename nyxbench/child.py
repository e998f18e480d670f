"""One round of one workload, in a fresh process.

Run by ``run.py`` as ``python3 nyxbench/child.py CONFIG_JSON``; prints
one JSON result object as its last line of output.

Times are in reference seconds (:mod:`refclock`): set-up from the start
of :func:`main` to the first measured exec, then the measured work.
Untraced rounds mark the reference clock when each exec (or, on
``analyze-tree``, each ``ast.parse``) returns; traced rounds only time
the whole window, so that the spans are not split by bursts.

Path independence: the coverage tracer hashes each code object's
``co_filename`` into its coverage sites, so the same commit checked out
at two paths would run two different campaigns.  This process imports
``repro`` only from the checkout's ``src/`` and gives every ``repro``
code object a file name under the fixed prefix :data:`CANONICAL_SRC`,
so every checkout runs the same campaign.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import sys
import traceback
import types
from contextlib import redirect_stdout
from importlib.machinery import PathFinder, SourceFileLoader
from typing import Callable

from refclock import ReferenceClock

#: File-name prefix every ``repro`` code object gets, whatever the
#: checkout's real location.
CANONICAL_SRC = "/nyxbench/src"


def _rename(code: types.CodeType, filename: str) -> types.CodeType:
    consts = tuple(_rename(c, filename) if isinstance(c, types.CodeType)
                   else c for c in code.co_consts)
    return code.replace(co_filename=filename, co_consts=consts)


class _CanonicalLoader(SourceFileLoader):
    def __init__(self, fullname: str, path: str, canonical: str,
                 on_load: Callable[[], None]) -> None:
        super().__init__(fullname, path)
        self.canonical = canonical
        self.on_load = on_load

    def get_code(self, fullname):
        return _rename(super().get_code(fullname), self.canonical)

    def exec_module(self, module) -> None:
        super().exec_module(module)
        self.on_load()


class _CheckoutFinder:
    """Finds ``repro`` modules under one ``src/`` directory only."""

    def __init__(self, src: str, on_load: Callable[[], None]) -> None:
        self.src = src
        self.on_load = on_load

    def find_spec(self, fullname, path=None, target=None):
        if fullname.partition(".")[0] != "repro":
            return None
        spec = PathFinder.find_spec(fullname,
                                    [self.src] if path is None else path)
        if spec is not None and isinstance(spec.loader, SourceFileLoader):
            rel = os.path.relpath(spec.origin, self.src).replace(os.sep, "/")
            spec.loader = _CanonicalLoader(fullname, spec.origin,
                                           CANONICAL_SRC + "/" + rel,
                                           self.on_load)
        return spec


def import_repro(src: str, on_load: Callable[[], None]):
    """Import ``repro`` from ``src`` and check where it came from;
    ``on_load`` runs as each ``repro`` module finishes loading."""
    sys.meta_path.insert(0, _CheckoutFinder(src, on_load))
    import repro
    origin = os.path.realpath(repro.__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise ImportError("repro imported from %s, not from %s"
                          % (origin, src))
    return repro


def stats_digest(stats) -> str:
    """sha1 over the canonical JSON of a campaign's stats."""
    payload = json.dumps(stats.as_dict(), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _mark_after(obj, names, ref: ReferenceClock) -> None:
    """Untraced timing: a mark on ``ref`` when each call returns."""
    mark = ref.mark
    for name in names:
        fn = getattr(obj, name)

        def wrapper(*args, _fn=fn, **kwargs):
            result = _fn(*args, **kwargs)
            mark()
            return result

        setattr(obj, name, wrapper)


def _timings(setup: ReferenceClock, ref: ReferenceClock) -> dict:
    """What every round reports from its two reference clocks."""
    return {"setup_s": setup.elapsed(),
            "setup_host_s": setup.host_elapsed(),
            "wall_s": ref.host_elapsed(),
            "ref_s": ref.elapsed(),
            "intervals_us": [round(gap * 1e6, 2) for gap in ref.intervals()]}


def run_fuzz(cfg: dict, spec: dict, inputs: list,
             setup: ReferenceClock) -> dict:
    from repro.fuzz.campaign import build_campaign
    from repro.fuzz.input import packets_input
    from repro.targets import PROFILES

    budget = cfg["execs"] or spec["execs"]
    seeds = [packets_input([p.encode("latin-1") for p in seed])
             for seed in inputs]
    handles = build_campaign(PROFILES[spec["target"]], policy=spec["policy"],
                             seed=cfg["seed"], time_budget=1e9,
                             max_execs=budget,
                             max_chain_depth=spec["max_chain_depth"],
                             seeds=seeds)
    fuzzer = handles.fuzzer
    durable = None
    if "durable" in spec:
        from repro.fuzz.journal import DurableCampaign, campaign_manifest
        every = spec["durable"]["checkpoint_every"]
        manifest = campaign_manifest(
            "single", spec["target"], policy=spec["policy"],
            seed=cfg["seed"], time_budget=1e9, max_execs=budget,
            checkpoint_every=every,
            max_chain_depth=spec["max_chain_depth"])
        # Journal writes land in the page cache, not on the disk: the
        # workload measures serialisation, and fsync latency on a
        # shared disk would only add noise.
        durable = DurableCampaign(handles, cfg["workdir"],
                                  checkpoint_every=every,
                                  manifest=manifest, journal_sync=False)
    fuzzer.begin_campaign()
    setup.finish()
    seed_execs = fuzzer.stats.execs

    trace = None
    if cfg["traced"]:
        from layers import FuzzTrace
        trace = FuzzTrace(handles, durable)
    error = None
    ref = ReferenceClock()
    if trace is None:
        _mark_after(handles.executor, ("run_full", "run_suffix"), ref)
    try:
        if durable is not None:
            stats = durable.run()
        else:
            while fuzzer.step():
                pass
            stats = fuzzer.finish_campaign()
    except Exception:  # one failed round is reported, not fatal
        error = traceback.format_exc()
        stats = fuzzer.stats
    ref.finish()
    execs = stats.execs - seed_execs

    machine = handles.machine
    corruptions = (machine.snapshots.stats.corruption_detected
                   + machine.snapshot_corruptions)
    rebuilds = handles.executor.snapshot_rebuilds
    lost = budget - stats.execs if error else 0
    out = _timings(setup, ref)
    out.update({
        "execs": execs,
        "execs_per_s": execs / out["ref_s"],
        "rss_mb": _peak_rss_mb(),
        "attempted": budget,
        "failed": corruptions + rebuilds + lost,
        "corruptions": corruptions,
        "rebuilds": rebuilds,
        "error": error,
        "deterministic": {
            "edges": stats.final_edges,
            "crashes": stats.crashes_found,
            "sim_execs_per_s": round(stats.execs_per_second(), 6),
            "suffix_execs": stats.suffix_execs,
            "stats_checksum": stats_digest(stats),
        },
    })
    if trace is not None:
        out["layers"] = trace.metrics(out["wall_s"], execs)
        if cfg.get("spans"):
            trace.rec.write_tsv(cfg["spans"])
    return out


def run_analyze(cfg: dict, spec: dict, setup: ReferenceClock) -> dict:
    import ast
    import importlib

    from layers import ANALYSIS_FAMILIES
    from repro.cli import main

    # The CLI imports each family lazily; importing them here puts that
    # cost in set-up for traced and untraced rounds alike.
    for module, _func, _family in ANALYSIS_FAMILIES:
        importlib.import_module(module)
    setup.finish()
    report = os.path.join(cfg["workdir"], "report.json")
    os.makedirs(cfg["workdir"], exist_ok=True)
    trace = None
    if cfg["traced"]:
        from layers import AnalysisTrace
        trace = AnalysisTrace()
    error = None
    code = None
    sink = io.StringIO()
    ref = ReferenceClock()
    if trace is None:
        # Every lint family parses source files, a few hundred times a
        # pass: the reference bursts run between parses.
        _mark_after(ast, ("parse",), ref)
    try:
        with redirect_stdout(sink):
            code = main(list(spec["argv"]) + ["--json", report])
    except Exception:  # one failed pass is reported, not fatal
        error = traceback.format_exc()
    ref.finish()
    digest = None
    if os.path.exists(report):
        with open(report, "rb") as handle:
            digest = hashlib.sha1(handle.read()).hexdigest()
    failed = 0 if (code == 0 and error is None) else 1
    out = _timings(setup, ref)
    out.update({
        "execs": 1,
        "execs_per_s": 1.0 / out["ref_s"],
        # One exec is the whole pass.
        "intervals_us": [out["ref_s"] * 1e6],
        "rss_mb": _peak_rss_mb(),
        "attempted": 1,
        "failed": failed,
        "exit_code": code,
        "error": error,
        "deterministic": {"report_digest": digest},
    })
    if trace is not None:
        out["layers"] = trace.metrics(out["wall_s"])
        if cfg.get("spans"):
            trace.rec.write_tsv(cfg["spans"])
    return out


def main(argv) -> int:
    # Set-up runs from here to the first measured exec, with a reference
    # burst between module imports.
    setup = ReferenceClock()
    cfg = json.loads(argv[1])
    with open(cfg["workloads_file"], encoding="utf-8") as handle:
        table = json.load(handle)
    spec = table["workloads"][cfg["workload"]]
    os.chdir(cfg["root"])
    import_repro(os.path.join(cfg["root"], "src"), setup.mark)
    if spec["kind"] == "fuzz":
        out = run_fuzz(cfg, spec, table["inputs"][spec["inputs"]], setup)
    else:
        out = run_analyze(cfg, spec, setup)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
