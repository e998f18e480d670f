"""End-to-end campaign benchmark: wall-clock *and* sim-clock execs/s.

One seeded single-instance campaign against a real target profile
(lighttpd by default), measured on both clocks:

* ``wall_execs_per_sec`` — host throughput, the number the hot-path
  optimizations move;
* ``sim_execs_per_sec`` — cost-model throughput, the number the
  reproduced tables report.  It must NOT move when host-side
  optimizations land; the report carries a canonical checksum of the
  full campaign stats so any sim-visible drift is caught exactly.

Results land in ``BENCH_fuzz.json`` (see docs/performance.md).
"""

from __future__ import annotations

import platform
import sys
from typing import Dict, Optional

from repro.fuzz.stats import stats_checksum
from repro.perf.timers import wall_now


def run_macro(target: str = "lighttpd", seed: int = 1,
              execs: int = 2000, policy: str = "aggressive",
              sanitize_every: Optional[int] = None,
              max_chain_depth: int = 1) -> Dict[str, object]:
    """Run one seeded campaign and report both clocks.

    The campaign is capped by host-side execution count (not sim time)
    so the measured wall window covers a fixed amount of work.  With
    ``sanitize_every`` the NYX05x reset sanitizer runs during the
    campaign and its leak count is reported (and should be zero).
    ``max_chain_depth`` 1 (the default) is the paper's single
    incremental snapshot; its ``stats_checksum`` must match a build
    without chain support at all — that identity is what the committed
    baseline pins.
    """
    from repro.fuzz.campaign import build_campaign
    from repro.targets import PROFILES
    profile = PROFILES[target]

    boot_start = wall_now()
    handles = build_campaign(profile, policy=policy, seed=seed,
                             time_budget=1e9, max_execs=execs,
                             sanitize_every=sanitize_every,
                             max_chain_depth=max_chain_depth)
    boot_seconds = wall_now() - boot_start

    run_start = wall_now()
    stats = handles.fuzzer.run_campaign()
    wall_seconds = wall_now() - run_start

    sim_seconds = stats.duration()
    payload: Dict[str, object] = {
        "kind": "macro",
        "target": target,
        "policy": policy,
        "max_chain_depth": max_chain_depth,
        "seed": seed,
        "execs": stats.execs,
        "suffix_execs": stats.suffix_execs,
        "boot_seconds": round(boot_seconds, 4),
        "wall_seconds": round(wall_seconds, 4),
        "wall_execs_per_sec": round(stats.execs / wall_seconds, 2)
        if wall_seconds > 0 else 0.0,
        "sim_seconds": round(sim_seconds, 6),
        "sim_execs_per_sec": round(stats.execs_per_second(), 4),
        "final_edges": stats.final_edges,
        "crashes_found": stats.crashes_found,
        "stats_checksum": stats_checksum(stats),
        "host": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
        },
        # Host-side counters: how cheaply the campaign was computed.
        # Deliberately outside stats_checksum (which hashes the sim
        # view only) so elided and fully traced runs stay comparable.
        "host_counters": stats.host_counters(),
    }
    if sanitize_every is not None:
        payload["sanitizer_checks"] = stats.sanitizer_checks
        payload["sanitizer_leaks"] = stats.sanitizer_leaks
    return payload


#: Deep-state chain scenario: one full anonymous FTP session against
#: the lightftp profile.  Long enough (22 packets) that re-executing
#: the prefix dominates a suffix iteration's cost — the regime overlay
#: chains exist for.  Short seeds make fixed per-exec costs dominate
#: and chains cannot win there, which is exactly what the depth-1 rows
#: of the micro suite already cover.
DEEP_SESSION = tuple(
    cmd + b"\r\n" for cmd in (
        b"USER anonymous", b"PASS guest", b"SYST", b"FEAT", b"PWD",
        b"TYPE I", b"CWD /srv/ftp", b"LIST", b"SIZE readme.txt",
        b"RETR readme.txt", b"MKD upload", b"CWD upload", b"PWD",
        b"CDUP", b"STAT", b"NOOP", b"HELP", b"SIZE motd",
        b"RETR motd", b"DELE upload", b"LIST", b"QUIT",
    ))


def deep_session_input():
    """The scenario seed as a :class:`FuzzInput` (fresh copy)."""
    from repro.fuzz.input import packets_input
    return packets_input(list(DEEP_SESSION))


def _run_chain_leg(target: str, policy: str, seed: int, execs: int,
                   max_chain_depth: int) -> Dict[str, object]:
    """One scenario campaign (ref or chain leg) over the deep seed."""
    from repro.fuzz.campaign import build_campaign
    from repro.targets import PROFILES
    profile = PROFILES[target]
    handles = build_campaign(profile, policy=policy, seed=seed,
                             time_budget=1e9, max_execs=execs,
                             max_chain_depth=max_chain_depth,
                             seeds=[deep_session_input()])
    run_start = wall_now()
    stats = handles.fuzzer.run_campaign()
    wall_seconds = wall_now() - run_start
    return {
        "policy": policy,
        "max_chain_depth": max_chain_depth,
        "execs": stats.execs,
        "suffix_execs": stats.suffix_execs,
        "wall_seconds": round(wall_seconds, 4),
        "wall_execs_per_sec": round(stats.execs / wall_seconds, 2)
        if wall_seconds > 0 else 0.0,
        "sim_execs_per_sec": round(stats.execs_per_second(), 4),
        "final_edges": stats.final_edges,
        "stats_checksum": stats_checksum(stats),
        "host_counters": stats.host_counters(),
    }


def run_chain_macro(target: str = "lightftp", seed: int = 1,
                    execs: int = 600, depth: int = 4) -> Dict[str, object]:
    """Deep-state macro scenario: overlay chains vs single-incremental.

    Runs the same 22-packet FTP session seed through two campaigns —
    the reference (``balanced`` policy, the paper's single incremental
    snapshot) and the chain leg (``bandit`` placement at ``depth``) —
    and reports both wall rates plus their ratio ``chain_speedup``.
    Both legs are deterministic campaigns, so their ``stats_checksum``
    values pin sim-clock behaviour exactly like the plain macro's.
    """
    ref = _run_chain_leg(target, "balanced", seed, execs, 1)
    chain = _run_chain_leg(target, "bandit", seed, execs, depth)
    ref_wall = float(ref["wall_execs_per_sec"])
    chain_wall = float(chain["wall_execs_per_sec"])
    return {
        "kind": "chain_macro",
        "target": target,
        "seed": seed,
        "execs": execs,
        "depth": depth,
        "session_packets": len(DEEP_SESSION),
        "ref": ref,
        "chain": chain,
        "chain_speedup": round(chain_wall / ref_wall, 3)
        if ref_wall > 0 else 0.0,
        "host": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
        },
    }
