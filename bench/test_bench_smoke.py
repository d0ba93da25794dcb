"""Smoke test of the benchmark: every workload, end to end, at 5% scale.

Runs ``python -m bench run --scale 0.05`` once (15-20 s on a 2-vCPU
host) and checks what a user of the benchmark relies on: every workload
passes its output checks, every metric of ``BENCHMARK.json`` is printed
with its unit and written to the result file, ``compare`` flags a
regression beyond a metric's bound, and a wrong output counts as a
failure.
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from bench.harness import Tally
from bench.workloads import A2AShuffle, SimilarityJoin

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "run.json"
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--scale", "0.05",
         "--seconds", "0.1", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return proc.stdout, json.loads(out.read_text())


def test_every_workload_passes_its_checks(smoke):
    _, result = smoke
    assert set(result["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for report in result["workloads"].values():
        assert report["correct"] and report["failed"] == 0
        assert report["attempted"] >= 1


def test_every_metric_is_printed_with_its_unit(smoke):
    stdout, _ = smoke
    for metric in SPEC["end_to_end"]:
        pattern = rf"{metric['name']}\s+\S+\s+{re.escape(metric['unit'])}"
        assert re.search(pattern, stdout), metric["name"]


def test_results_match_benchmark_json(smoke):
    stdout, result = smoke
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for report in result["workloads"].values():
        assert {n: m["unit"] for n, m in report["metrics"].items()} == units
        assert all(m["value"] > 0 for m in report["metrics"].values())
    # Each run.py process ends its output with the one-line JSON result.
    lines = [
        line for line in stdout.splitlines() if line.startswith('{"correct"')
    ]
    assert len(lines) == len(SPEC["workloads"])
    for line in lines:
        payload = json.loads(line)
        assert set(payload) == {"correct", "attempted", "failed", "metrics"}
        assert set(payload["metrics"]) == set(units)


def test_compare_flags_a_wall_time_regression_beyond_its_bound(
    smoke, tmp_path
):
    _, result = smoke
    bound = next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "wall_s"
    )
    base = copy.deepcopy(result)
    for report in base["workloads"].values():
        for metric in report["metrics"].values():
            metric["iqr"] = 0.0  # a smoke run is too short to resolve it

    def slowed(factor):
        payload = copy.deepcopy(base)
        for report in payload["workloads"].values():
            report["metrics"]["wall_s"]["value"] *= factor
        return payload

    def compare(new):
        paths = []
        for name, payload in (("old", base), ("new", new)):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps(payload))
        return subprocess.run(
            [sys.executable, "-m", "bench", "compare", *map(str, paths)],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
        )

    within = compare(slowed(1 + bound / 2))
    assert within.returncode == 0 and "regression" not in within.stdout
    beyond = compare(slowed(1 + bound + 0.05))
    assert beyond.returncode == 1
    assert beyond.stdout.count("regression") == len(SPEC["workloads"])


@pytest.mark.parametrize(
    "workload, corrupt",
    [
        (SimilarityJoin, lambda run: replace(
            run, pairs=run.pairs + ((10**6, 10**6 + 1, 1.0),))),
        (A2AShuffle, lambda result: replace(
            result, outputs=result.outputs[:-1])),
    ],
    ids=["simjoin_zipf", "a2a_shuffle"],
)
def test_a_corrupted_output_counts_as_failed(workload, corrupt, tmp_path):
    bench = workload(seed=1, scale=0.05, workdir=str(tmp_path))
    bench.setup()
    bench.reference()
    good = bench.warm_results[0]
    tally = Tally()
    tally.record(bench.check(good))
    tally.record(bench.check(corrupt(good)))
    assert (tally.attempted, tally.failed) == (2, 1)
    bench.close()
