"""One campaign per seed: the committed anchors hold on every
interpreter and from every checkout path.

Coverage sites name a module, a line and a column, never a file path
(:mod:`repro.coverage.instrument`), so a seeded campaign's
``stats_checksum`` is the same wherever and on whichever supported
Python it runs.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys

from repro.perf.macro import run_macro

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_macro_anchor_matches_the_committed_baseline():
    with open(ROOT / "BENCH_baseline.json", encoding="utf-8") as handle:
        anchor = json.load(handle)["macro"]
    macro = run_macro(target=anchor["target"], seed=anchor["seed"],
                      execs=anchor["execs"], policy=anchor["policy"],
                      max_chain_depth=anchor["max_chain_depth"])
    assert (macro["stats_checksum"], macro["final_edges"]) == (
        anchor["stats_checksum"], anchor["final_edges"])


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
