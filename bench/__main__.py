"""Run, trace and compare the whole benchmark.

    PYTHONPATH=src python -m bench run --seed 1 --out bench/results/run.json
    python -m bench trace --seed 1
    python -m bench compare bench/results/baseline-1.json bench/results/baseline-2.json

``run`` and ``trace`` start ``bench/run.py`` once per workload, each in a
fresh process, one after another, and collect what each writes.
``compare`` applies the regression bounds of ``BENCHMARK.json`` to two
``run`` results and exits 1 on any regression.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any

from bench.harness import ROOT, load_spec

RESULTS = ROOT / "bench" / "results"


def run_all(args: argparse.Namespace, trace: bool) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    reports: dict[str, Any] = {}
    failed = []
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            out = Path(tmp) / f"{name}.json"
            command = [
                sys.executable, str(ROOT / "bench" / "run.py"),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(seconds), "--trace", str(int(trace)),
                "--scale", str(args.scale), "--out", str(out),
            ]
            if trace:
                command += ["--trace-out", str(RESULTS / f"trace-{name}.json")]
            if subprocess.run(command, timeout=900).returncode != 0:
                failed.append(name)
            if out.exists():
                reports[name] = json.loads(out.read_text())
    result = {
        "seed": args.seed,
        "seconds": seconds,
        "scale": args.scale,
        "trace": int(trace),
        "workloads": reports,
    }
    print_summary(result, spec)
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    if failed:
        print(f"failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def print_summary(result: dict[str, Any], spec: dict[str, Any]) -> None:
    """Per workload: the check tally, then each metric with its unit."""
    declared = spec["per_layer"] if result["trace"] else spec["end_to_end"]
    for name, report in result["workloads"].items():
        print(f"\n== {name}: attempted {report['attempted']}, failed "
              f"{report['failed']}, failed_ratio "
              f"{report['failed'] / report['attempted']:.4g} (ratio)")
        for m in declared:
            got = report["metrics"][m["name"]]
            spread = (
                f"  iqr {got['iqr']:.4g}  n={got['n']}" if "iqr" in got else ""
            )
            print(f"  {m['name']:<26} {got['value']:>14.6g} "
                  f"{m['unit']}{spread}")


def judge(
    old: dict[str, Any], new: dict[str, Any], metric: dict[str, Any]
) -> tuple[str, float]:
    """Verdict on one metric of one workload, and its relative change.

    A pair whose relative IQR on either side is wider than the bound is
    ``unresolved``: the runs cannot tell a change that small from noise.
    """
    change = (new["value"] - old["value"]) / old["value"]
    worse = change if metric["better"] == "lower" else -change
    spread = max(old["iqr"] / old["value"], new["iqr"] / new["value"])
    bound = metric["bound"]
    if spread > bound:
        return "unresolved", change
    if worse > bound:
        return "regression", change
    if worse < -bound:
        return "improved", change
    return "same", change


def compare(args: argparse.Namespace) -> int:
    spec = load_spec()
    old = json.loads(Path(args.old).read_text())["workloads"]
    new = json.loads(Path(args.new).read_text())["workloads"]
    regressions = 0
    print(f"{'workload':<14} {'metric':<18} {'old':>12} {'new':>12} "
          f"{'change':>8}  bound  verdict")
    for workload in old:
        if workload not in new:
            print(f"{workload:<14} missing from {args.new}")
            regressions += 1
            continue
        for metric in spec["end_to_end"]:
            a = old[workload]["metrics"][metric["name"]]
            b = new[workload]["metrics"][metric["name"]]
            verdict, change = judge(a, b, metric)
            regressions += verdict == "regression"
            print(f"{workload:<14} {metric['name']:<18} {a['value']:>12.5g} "
                  f"{b['value']:>12.5g} {100 * change:>7.2f}%  "
                  f"{metric['bound']:<5g}  {verdict}")
    return 1 if regressions else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench")
    commands = parser.add_subparsers(dest="command", required=True)
    for command, default_out in (
        ("run", None),
        ("trace", str(RESULTS / "trace-summary.json")),
    ):
        sub = commands.add_parser(command)
        sub.add_argument("--seed", type=int, default=1)
        sub.add_argument("--seconds", type=float)
        sub.add_argument("--scale", type=float, default=1.0)
        sub.add_argument("--out", default=default_out)
    sub = commands.add_parser("compare")
    sub.add_argument("old")
    sub.add_argument("new")
    args = parser.parse_args(argv)
    if args.command == "compare":
        return compare(args)
    return run_all(args, trace=args.command == "trace")


if __name__ == "__main__":
    sys.exit(main())
