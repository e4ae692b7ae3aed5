"""Self-test of the benchmark.

    python3 -m pytest -q bench

Runs every workload at minimal length, untraced and traced, and checks that
every metric of BENCHMARK.json is printed with its unit, that the call counts
confirm the routing, and that the correctness gate is not vacuous: a
recovered sinogram with one corrupted sample counts as a failed job.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def _bench(workload, trace):
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert p.returncode == 0, p.stderr
    lines = p.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def test_workloads_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])
    assert run.END_TO_END == [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    assert run.PER_LAYER == [(m["name"], m["unit"]) for m in SPEC["per_layer"]]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_metrics(workload):
    _, res = _bench(workload, 0)
    assert sorted(res) == ["attempted", "correct", "failed", "metrics"]
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert res["metrics"] == {
        m["name"]: {"value": res["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_per_layer_metrics(workload):
    info, res = _bench(workload, 1)
    assert res["correct"]
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    if workload == "sweep-mc":
        assert metrics["fbp.back_project.calls"] == 0
        assert metrics["forward.sampler.points"] > 0
        assert 0 < metrics["forward.sampler.useful_ratio"] <= 1
    else:
        assert metrics["fbp.back_project.calls"] > 0
        assert metrics["forward.sampler.points"] == 0
    assert metrics["bench.self_s"] < 0.1 * statistics.median(info["traced_job_s"])


def test_corrupted_sample_fails_the_job(tmp_path):
    wl = WORKLOADS["pipeline-sl"](run.import_program(ROOT), str(tmp_path), 0)
    wl.setup()
    out = wl.job()
    assert wl.check(out) == []
    res = out[0.00025]
    res.unfolded.rows[res.params.M // 2, res.params.K] += 2 * res.params.lam
    problems = wl.check(out)
    assert problems == ["lam=0.00025: recovered sinogram differs from the clean one"]

    r = run.Run(wl)
    r.job(lambda job: out)
    assert (r.attempted, r.failed) == (1, 1)
