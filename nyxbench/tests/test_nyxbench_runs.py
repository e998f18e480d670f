"""End-to-end runs of the benchmark at tiny budgets.

Each test starts ``nyxbench/run.py`` the way the benchmark is used:
as a program, from the root of a checkout.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "nyxbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_metric_is_printed_for_every_workload():
    proc = bench("--seed", "3", "--execs", "150", "--trace")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    rows = [line.split() for line in proc.stdout.splitlines()]
    for workload in WORKLOADS:
        for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
            assert any(r[:2] == [workload, metric["name"]]
                       and r[3] == metric["unit"] for r in rows), (
                workload, metric["name"])
    result = last_json(proc)
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {
        "%s:%s" % (w, m["name"]) for w in WORKLOADS
        for m in BENCH["end_to_end"]}


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"),
                                            ("1", "per_layer")])
def test_single_workload_result_line(trace, section):
    proc = bench("--workload", "ftp-chain", "--seed", "2", "--seconds", "0",
                 "--execs", "150", "--trace", trace)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())


def _checkout(dest):
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    os.makedirs(dest)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    shutil.copytree(os.path.join(ROOT, "nyxbench"),
                    os.path.join(dest, "nyxbench"), ignore=ignore)
    return dest


def test_two_checkouts_run_the_same_campaign(tmp_path):
    outputs = []
    for where in ("a/repo", "b/longer/path/to/repo"):
        dest = _checkout(str(tmp_path / where))
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dest, "src"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = os.path.join(dest, "result.json")
        proc = bench("--workload", "http-root", "--seed", "1", "--seconds",
                     "0", "--execs", "400", "--out", out, cwd=dest)
        assert proc.returncode == 0, proc.stderr[-3000:]
        with open(out, encoding="utf-8") as fh:
            summary = json.load(fh)["workloads"]["http-root"]
        outputs.append([r["deterministic"]["stats_checksum"]
                        for r in summary["rounds"]])
    assert len(outputs[0]) >= 3
    assert outputs[0] == outputs[1]


def test_fails_without_the_program(tmp_path):
    dest = _checkout(str(tmp_path / "bare"))
    proc = bench("--workload", "http-root", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=dest)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""




def _round(index, edges=100, checksum="c"):
    return {"index": index, "traced": False,
            "deterministic": {"edges": edges, "stats_checksum": checksum}}


def _result(values, campaigns=(0, 1), edges=100, checksum="c"):
    q1, med, q3 = run.quartiles(values)
    metric = {"value": med, "unit": "1/s", "q1": q1, "q3": q3,
              "n": len(values), "values": values}
    return {"kind": "fuzz", "metrics": {"execs_per_s": metric},
            "rounds": [_round(i, edges, checksum) for i in campaigns]}


BOUNDS = {"end_to_end": [{"name": "execs_per_s", "unit": "1/s",
                          "better": "higher", "bound": 0.1}]}
A_VALUES = [100, 101, 99, 100, 100]


def _compare(tmp_path, b_result):
    paths = []
    for tag, result in (("a", _result(A_VALUES)), ("b", b_result)):
        path = tmp_path / ("%s.json" % tag)
        path.write_text(json.dumps({"seed": 1, "workloads": {"w": result}}))
        paths.append(str(path))
    return run.compare(paths[0], paths[1], BOUNDS)


@pytest.mark.parametrize("b_values, code", [
    ([100, 101, 99, 100, 100], 0),    # same
    ([85, 86, 84, 85, 85], 1),        # 15% slower: regression
    ([120, 121, 119, 120, 120], 0),   # faster
    ([60, 140, 100, 70, 130], 0),     # spread wider than bound
])
def test_compare_applies_bounds(tmp_path, capsys, b_values, code):
    assert _compare(tmp_path, _result(b_values)) == code
    if b_values[0] == 60:
        assert "unresolved" in capsys.readouterr().out


@pytest.mark.parametrize("campaigns, edges, checksum, code", [
    ((0, 1, 2), 100, "c", 0),   # a faster host ran one campaign more
    ((1,), 100, "c", 0),        # a slower one ran fewer
    ((0, 1), 99, "d", 1),       # lost an edge: bound 0
    ((0, 1), 101, "d", 1),      # any change on a shared campaign fails
    ((1, 2), 100, "d", 1),      # shared campaign 1 differs
    ((5, 6), 100, "c", 1),      # no campaign in common
])
def test_compare_checks_outputs_of_shared_campaigns(tmp_path, capsys,
                                                     campaigns, edges,
                                                     checksum, code):
    b = _result(A_VALUES, campaigns, edges, checksum)
    assert _compare(tmp_path, b) == code
    printed = capsys.readouterr().out
    if code == 0:
        assert "identical in %d campaigns" % len(set(campaigns) & {0, 1}) \
            in printed


def test_round_without_execs_is_reported_not_fatal():
    good = {"index": 0, "traced": False, "execs_per_s": 100.0,
            "execs": 2, "wall_s": 0.02, "ref_s": 0.02,
            "intervals_us": [10.0, 12.0], "setup_s": 1.0, "rss_mb": 50.0,
            "attempted": 100, "failed": 0, "error": None,
            "deterministic": {"edges": 5, "crashes": 0,
                              "sim_execs_per_s": 1.0}}
    # An exception escaped before the round's first exec completed.
    broken = dict(good, index=1, execs_per_s=0.0, intervals_us=[],
                  failed=100, error="Traceback\nRuntimeError: boom\n")
    summary = run.summarize("w", "fuzz", [good, broken], 100, BOUNDS)
    assert summary["metrics"]["exec_p50_us"]["n"] == 1
    assert "round 1: exception escaped: RuntimeError: boom" \
        in summary["checks"]
    result = run.final_line([summary], BOUNDS, traced=False, prefix=False)
    assert result["correct"] is False and result["failed"] == 100
