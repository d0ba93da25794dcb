"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload simjoin_zipf --seed 1 --seconds 10 --trace 0

Run it from a checkout of the repository; the library is imported from
``src/`` and nothing is installed or built.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``.  The exit code is 1 when any output check failed and 2
when the checkout holds no library.

With ``--trace 0`` the run is split across the workload's ``PROCESSES``
fresh processes, one after another: this one and copies started with
``--worker``.  Each sets up the workload (one ``setup_s`` sample), then
repeats it for its share of ``--seconds``; the metrics pool every
process's repeats.  ``python -m bench`` runs every workload through this
script; ``--out`` and ``--trace-out`` are the files it collects.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
# Run as a script, so the checkout's library and this package are put on
# the path here; nothing is installed.
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench import harness  # noqa: E402  (needs the path above)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="input size relative to the benchmark's (smoke runs use 0.05)",
    )
    parser.add_argument("--out", help="write the full result JSON here")
    parser.add_argument(
        "--trace-out", help="with --trace 1, write a Chrome trace here"
    )
    parser.add_argument(
        "--worker", action="store_true",
        help="measure for --seconds and print raw samples (one of the "
        "processes of a run)",
    )
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    harness.adopt_orphans()
    try:
        return run(args)
    finally:
        harness.stop_children()


def run(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no library under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    # Set-up is timed from here: importing the library, generating the
    # inputs and the warmup operation.  The reference results the checks
    # compare against are computed afterwards, outside it.
    calib_before = harness.calibrate()
    started = time.perf_counter()
    from bench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    processes = WORKLOADS[args.workload].PROCESSES
    share = args.seconds
    if not (args.worker or args.trace):
        share /= processes
    # Spill files stay inside the checkout and vanish with the run.
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as workdir:
        workload = WORKLOADS[args.workload](args.seed, args.scale, workdir)
        try:
            workload.setup(trace=bool(args.trace))
            setup = (
                time.perf_counter() - started,
                (calib_before + harness.calibrate()) / 2,
            )
            if args.trace:
                return report_layers(args, workload)
            tally = harness.Tally()
            samples = measure(workload, share, tally)
        finally:
            workload.close()
    part = {
        "setup": setup,
        "samples": [asdict(s) for s in samples],
        "tally": asdict(tally),
    }
    if args.worker:
        print(json.dumps(part))
        return 0
    parts = [part] + [measure_in_fresh_process(args, share)
                      for _ in range(processes - 1)]
    return report_end_to_end(args, parts)


def measure(
    workload: Any,
    seconds: float,
    tally: Any,
    **repeat_options: Any,
) -> list[Any]:
    """Check the warmup against the reference, then run timed repeats."""
    workload.reference()
    for problems in map(workload.check, workload.warm_results):
        tally.record(problems)
    workload.warm_results = []
    return harness.run_repeats(workload, seconds, tally, **repeat_options)


def measure_in_fresh_process(
    args: argparse.Namespace, seconds: float
) -> dict[str, Any]:
    """One ``--worker`` process's set-up, samples and check tally.

    The worker leads a process group of its own, so whatever it started
    (a pool, a resource tracker) is killed with it if it fails or hangs.
    """
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--scale", str(args.scale), "--seconds", str(seconds), "--worker",
    ]
    with subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, start_new_session=True
    ) as proc:
        try:
            out, _ = proc.communicate(timeout=150)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, command, out)
    return json.loads(out.strip().splitlines()[-1])


def report_end_to_end(args: argparse.Namespace, parts: list[dict]) -> int:
    tally = harness.Tally()
    for part in parts:
        tally.merge(harness.Tally(**part["tally"]))
    # The paper's costs are deterministic: every process must agree.
    firsts = {tuple(part["samples"][0]["costs"]) for part in parts}
    tally.record(
        [] if len(firsts) == 1
        else [f"communication and reducers differ across processes: {firsts}"]
    )
    samples = [harness.Sample(**s) for part in parts for s in part["samples"]]
    setups = [tuple(part["setup"]) for part in parts]
    values = harness.end_to_end(samples, setups)
    return emit(args, tally, samples, values, rows=[])


def report_layers(args: argparse.Namespace, workload: Any) -> int:
    """Per-layer metrics: untraced and traced repeats, alternating."""
    from bench.layers import layer_metrics

    last_spans: list[Any] = []

    def on_traced(repeat: harness.Repeat, wall: float, factor: float) -> dict:
        last_spans[:] = repeat.spans
        return layer_metrics(workload, repeat, wall, factor)

    tally = harness.Tally()
    samples = measure(
        workload, args.seconds, tally, trace=True, on_traced=on_traced
    )
    if args.trace_out:
        write_trace(args.trace_out, last_spans)
    values, rows = per_layer(samples)
    return emit(args, tally, samples, values, rows)


def emit(
    args: argparse.Namespace,
    tally: Any,
    samples: list[Any],
    values: dict[str, dict],
    rows: list[dict],
) -> int:
    """Print the report and the one-line result; write ``--out``.

    The metrics reported, and their units, are those ``BENCHMARK.json``
    declares for the run's mode.
    """
    spec = harness.load_spec()
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {
        m["name"]: {**values[m["name"]], "unit": m["unit"]} for m in declared
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "trace": args.trace,
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "repeats": len(samples),
        "calib_s": statistics.median(s.calib for s in samples),
        "calib_ref_s": harness.CALIB_REF_S,
        "metrics": metrics,
        "layers": rows,
    }
    print_report(report)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({
        "correct": report["correct"],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in metrics.items()
        },
    }))
    return 0 if report["correct"] else 1


def per_layer(samples: list[Any]) -> tuple[dict[str, dict], list[dict]]:
    """Medians over traced repeats, plus the tracing overhead.

    ``obs.trace_overhead`` is the traced repeats' normalized time per
    operation over the untraced ones', measured in the same run.
    """
    traced = [s for s in samples if s.traced]
    plain = [s for s in samples if not s.traced]

    def median_of(get: Any) -> float:
        return statistics.median(get(s) for s in traced)

    values = {
        name: {"value": median_of(lambda s: s.layers["metrics"][name])}
        for name in traced[0].layers["metrics"]
    }

    def per_op(s: Any) -> float:
        return s.wall * s.factor / s.ops

    overhead = median_of(per_op) / statistics.median(map(per_op, plain))
    values["obs.trace_overhead"] = {"value": overhead}
    keys = sorted({k for s in traced for k in s.layers["self_s"]} - {"total"})
    total = median_of(lambda s: s.layers["self_s"]["total"])
    rows = []
    for key in keys:
        own = median_of(lambda s: s.layers["self_s"].get(key, 0.0))
        layer, name = key.split("/", 1)
        rows.append({"layer": layer, "span": name, "self_s": own,
                     "share": own / total})
    rows.append({"layer": "all", "span": "operation", "self_s": total,
                 "share": 1.0})
    return values, rows


def write_trace(path: str, spans: list[Any]) -> None:
    """Export *spans* as Chrome trace-event JSON and validate the file."""
    from repro.obs.trace import validate_chrome_trace, write_chrome_trace

    write_chrome_trace(path, spans)
    validate_chrome_trace(json.loads(Path(path).read_text()))


def print_report(report: dict[str, Any]) -> None:
    print(
        f"{report['workload']}  seed={report['seed']}  "
        f"repeats={report['repeats']}  calib_s={report['calib_s']:.4f} "
        f"(ref {report['calib_ref_s']})  attempted={report['attempted']}  "
        f"failed={report['failed']}"
    )
    for problem in report["problems"]:
        print(f"  FAILED: {problem}")
    for name, m in report["metrics"].items():
        spread = f"  iqr {m['iqr']:.4g}  n={m['n']}" if "iqr" in m else ""
        print(f"  {name:<26} {m['value']:>14.6g} {m['unit']:<8}{spread}")
    if report["layers"]:
        print("  self time per operation (normalized s), by layer and span:")
        for row in report["layers"]:
            label = f"{row['layer']}/{row['span']}"
            if row["layer"] == "apps":
                label += "  (unattributed residual)"
            print(f"    {label:<42} {row['self_s']:>10.5f}  "
                  f"{100 * row['share']:6.1f}%")


if __name__ == "__main__":
    sys.exit(main())
