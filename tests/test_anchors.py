"""One campaign per seed: the committed anchors hold on every
interpreter and from every checkout path.

Coverage sites name a module, a line and a column, never a file path
(:mod:`repro.coverage.instrument`), so a seeded campaign's
``stats_checksum`` is the same wherever and on whichever supported
Python it runs.

``BENCH_baseline.json`` holds each anchored campaign's config, its
``stats_checksum`` and its ``final_edges``.  A change that should not
alter fuzzing behaviour leaves them alone; a deliberate move is an
edit to that file, with its reason in CHANGES.md.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from repro.fuzz.campaign import build_campaign
from repro.fuzz.stats import stats_checksum
from repro.targets import PROFILES
from tests.helpers import deep_session_input

ROOT = pathlib.Path(__file__).resolve().parent.parent

with open(ROOT / "BENCH_baseline.json", encoding="utf-8") as _handle:
    ANCHORS = json.load(_handle)


def _run(target, seed, execs, policy, max_chain_depth=1, seeds=None,
         **options):
    """``(stats_checksum, final_edges)`` of one seeded campaign."""
    handles = build_campaign(PROFILES[target], policy=policy, seed=seed,
                             time_budget=1e9, max_execs=execs,
                             max_chain_depth=max_chain_depth, seeds=seeds,
                             **options)
    stats = handles.fuzzer.run_campaign()
    return stats_checksum(stats), stats.final_edges


def test_macro_anchor_matches_the_committed_baseline():
    anchor = ANCHORS["macro"]
    observed = _run(anchor["target"], anchor["seed"], anchor["execs"],
                    anchor["policy"], anchor["max_chain_depth"])
    assert observed == (anchor["stats_checksum"], anchor["final_edges"]), (
        "macro campaign gave checksum %s with %d edges" % observed)


@pytest.mark.parametrize("leg", ["ref", "chain"])
def test_chain_leg_anchor_matches_the_committed_baseline(leg):
    """The 22-packet lightftp session through the single incremental
    snapshot (``ref``) and through bandit-placed chains (``chain``)."""
    scenario = ANCHORS["chain"]
    anchor = scenario[leg]
    observed = _run(scenario["target"], scenario["seed"], scenario["execs"],
                    anchor["policy"], anchor["max_chain_depth"],
                    seeds=[deep_session_input()])
    assert observed == (anchor["stats_checksum"], anchor["final_edges"]), (
        "%s leg gave checksum %s with %d edges" % ((leg,) + observed))


@pytest.mark.parametrize("path", sorted(ANCHORS["scheduler"]))
def test_scheduler_anchor_matches_the_committed_baseline(path):
    """Guest scheduler paths the other anchors never take: bftpd forks
    a child per connection (``fork``), firefox-ipc runs several
    processes on several channels (``multi-channel``), and lightftp
    under injected faults and a 50 ms budget stops 43 execs mid-run
    and rebuilds its snapshot 17 times (``watchdog``)."""
    anchor = dict(ANCHORS["scheduler"][path])
    expected = (anchor.pop("stats_checksum"), anchor.pop("final_edges"))
    observed = _run(**anchor)
    assert observed == expected, (
        "%s anchor gave checksum %s with %d edges" % ((path,) + observed))


CAMPAIGN = """\
from repro.fuzz.campaign import build_campaign
from repro.fuzz.stats import stats_checksum
from repro.targets import PROFILES
handles = build_campaign(PROFILES["lightftp"], policy="balanced", seed=5,
                         time_budget=1e9, max_execs=400)
print(stats_checksum(handles.fuzzer.run_campaign()))
"""


def test_two_checkout_paths_run_the_same_campaign(tmp_path):
    checksums = []
    for where in ("a", "b/longer/path/to/checkout"):
        src = tmp_path / where / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src)
        proc = subprocess.run([sys.executable, "-c", CAMPAIGN],
                              cwd=str(tmp_path), env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-3000:]
        checksums.append(proc.stdout.split()[-1])
    assert checksums[0] == checksums[1]
