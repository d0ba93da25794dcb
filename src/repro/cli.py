"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``solve-a2a --sizes 3,5,2,7 --q 12 [--method auto]`` — build, verify and
  print a mapping schema (add ``--json`` for the wire format).
* ``solve-x2y --x-sizes 4,5 --y-sizes 3,3 --q 10`` — the X2Y counterpart.
* ``sweep --sizes ... --q-values 10,20,40`` — the reducer-count tradeoff
  table for an A2A input set.
* ``verify --file schema.json`` — re-verify a persisted schema.
* ``plan --sizes 3,5,2,7 --q 12 [--objective min-communication]`` — run
  the cost-based planner: print the candidate table and the chosen
  method, then the execution configuration a run on this machine would
  resolve.  ``--explain`` shows the per-candidate cost rows,
  ``--json-out plan.json`` serializes the plan
  (``repro.planner.Plan.from_json`` loads it back), ``--x-sizes`` /
  ``--y-sizes`` plan an X2Y instance, ``--r`` a multiway one.
* ``run --app skew-join --q 80 --backend processes`` — execute a
  schema-driven application on an engine backend and print job plus
  phase-timing metrics.  ``--memory-budget N`` bounds the routed pairs
  the engine buffers to ``N`` and spills the rest to disk (out-of-core
  mode); the spill counters are printed after the metrics tables.  ``--plan
  auto`` lets the planner choose the schema method (``--objective`` sets
  what it optimizes).  Without engine knobs every run resolves its
  execution configuration for the machine.
* ``serve [--slots 2] [--input jobs.ndjson]`` — the job-service loop:
  read newline-delimited JSON job requests (``{"id": ..., "spec":
  {"kind": "a2a", "q": 12, "sizes": [...]}, "priority": 0, "execute":
  true}``), stream NDJSON status events and result lines to stdout.
* ``submit --sizes 3,5,2,7 --q 12 [--execute/--plan-only]`` — one-shot
  convenience wrapper over the same service stack: build the spec from
  flags, run it through an in-process service, print the result (NDJSON
  with ``--json``).
* ``metrics --log obs.ndjson`` — summarize a service observation log
  (written by ``serve --obs-log``) as a per-backend table: job counts,
  cache hit rate, wall-clock percentiles, phase means.

``run`` accepts ``--inject-faults SPEC`` (e.g.
``crash=0.2,kill=0.05,delay=0.1:0.02,transient=0.1,seed=7``) for
deterministic chaos testing, plus ``--max-attempts``,
``--task-timeout``, ``--deadline``, and ``--fallback`` to shape the
recovery policy.  ``serve`` shuts down gracefully on SIGINT/SIGTERM —
draining jobs, closing pools, and flushing ``--obs-log``/``--trace``
before exiting 0.

``run`` and ``submit`` accept ``--trace out.json`` to export
the run's spans as Chrome trace-event JSON (openable in Perfetto or
``chrome://tracing``) and ``--profile out.json`` to profile the run
(the tracer's profiling mode plus a background RSS/CPU sampler; the
export is computed from the spans and includes flamegraph-ready
collapsed stacks);
``serve --trace`` additionally streams every finished span as an NDJSON
``{"event": "span", ...}`` line, a ``{"metrics": true}`` request line
answers with a metrics snapshot, and a ``{"health": true}`` request
line answers with the live-service SLO snapshot (queue-latency
percentiles, slot utilization, rolling failure rate, pool rebuilds,
peak RSS).

``repro --version`` prints the package version.  Exit status is 0 on
success, 1 on infeasible/invalid input, mirroring what a scheduler
wrapping this tool would need.  Every ``--json-out`` write is atomic
(temp file + rename), so interrupted runs never leave truncated JSON.
"""

from __future__ import annotations

import argparse
import sys

from repro import __version__
from repro import io as repro_io
from repro.analysis.tradeoffs import sweep_a2a_reducers
from repro.core.costs import summarize
from repro.core.instance import A2AInstance, X2YInstance
from repro.core.selector import A2A_METHODS, X2Y_METHODS, solve_a2a, solve_x2y
from repro.engine.backends import BACKENDS
from repro.exceptions import InvalidInstanceError, ReproError
from repro.planner import OBJECTIVES
from repro.utils.tables import format_table


def _positive_int(text: str) -> int:
    """Parse a strictly positive integer argument."""
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _positive_float(text: str) -> float:
    """Parse a strictly positive float argument (timeouts, deadlines)."""
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _fault_spec(text: str):
    """Parse an ``--inject-faults`` spec into a validated FaultSpec."""
    from repro.faults import FaultSpec

    try:
        return FaultSpec.parse(text)
    except ReproError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_sizes(text: str) -> list[int]:
    """Parse and validate a comma-separated size list, e.g. ``3,5,2``.

    Sizes (and ``--q-values`` entries) must be strictly positive integers
    and the list must be non-empty, so bad input fails here with a clear
    message instead of surfacing as a confusing error deeper in the
    solver.
    """
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad size list {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError(
            f"size list must contain at least one integer, got {text!r}"
        )
    for value in values:
        if value <= 0:
            raise argparse.ArgumentTypeError(
                f"sizes must be positive, got {value}"
            )
    return values


#: Options whose value is a comma-separated integer list and may therefore
#: legitimately start with ``-`` (a negative entry the validator should
#: report).  ``main`` glues such values onto their flag with ``=`` so
#: argparse does not mistake them for options and die with the opaque
#: "expected one argument".
_SIZE_LIST_FLAGS = frozenset({"--sizes", "--x-sizes", "--y-sizes", "--q-values"})


def _absorb_size_values(argv: list[str]) -> list[str]:
    """Rewrite ``--sizes -3,5`` into ``--sizes=-3,5`` so validation runs.

    Only values that look like an integer list (a ``-`` followed by a
    digit) are absorbed; anything else is left for argparse to treat as
    the option-missing-its-argument error it is.
    """
    rewritten: list[str] = []
    index = 0
    while index < len(argv):
        token = argv[index]
        if (
            token in _SIZE_LIST_FLAGS
            and index + 1 < len(argv)
            and len(argv[index + 1]) >= 2
            and argv[index + 1][0] == "-"
            and argv[index + 1][1].isdigit()
        ):
            rewritten.append(f"{token}={argv[index + 1]}")
            index += 2
            continue
        rewritten.append(token)
        index += 1
    return rewritten


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Mapping schemas for different-sized MapReduce inputs "
        "(Afrati et al., EDBT 2015)",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    a2a = commands.add_parser("solve-a2a", help="solve an all-to-all instance")
    a2a.add_argument("--sizes", type=_parse_sizes, required=True)
    a2a.add_argument("--q", type=int, required=True)
    a2a.add_argument(
        "--method", default="auto", choices=["auto", *sorted(A2A_METHODS)]
    )
    a2a.add_argument("--json", action="store_true", help="print the JSON schema")

    x2y = commands.add_parser("solve-x2y", help="solve an X-to-Y instance")
    x2y.add_argument("--x-sizes", type=_parse_sizes, required=True)
    x2y.add_argument("--y-sizes", type=_parse_sizes, required=True)
    x2y.add_argument("--q", type=int, required=True)
    x2y.add_argument(
        "--method", default="auto", choices=["auto", *sorted(X2Y_METHODS)]
    )
    x2y.add_argument("--json", action="store_true", help="print the JSON schema")

    sweep = commands.add_parser("sweep", help="A2A reducer-count sweep over q")
    sweep.add_argument("--sizes", type=_parse_sizes, required=True)
    sweep.add_argument("--q-values", type=_parse_sizes, required=True)

    verify = commands.add_parser("verify", help="verify a persisted schema")
    verify.add_argument("--file", required=True)

    plan_cmd = commands.add_parser(
        "plan", help="cost-based plan: candidate table + chosen method/config"
    )
    plan_cmd.add_argument(
        "--sizes", type=_parse_sizes, help="input sizes (A2A, or multiway with --r)"
    )
    plan_cmd.add_argument("--x-sizes", type=_parse_sizes, help="X-side sizes (X2Y)")
    plan_cmd.add_argument("--y-sizes", type=_parse_sizes, help="Y-side sizes (X2Y)")
    plan_cmd.add_argument("--q", type=int, required=True)
    plan_cmd.add_argument(
        "--r",
        type=_positive_int,
        default=None,
        help="multiway meeting arity (with --sizes)",
    )
    plan_cmd.add_argument(
        "--objective", default="min-reducers", choices=list(OBJECTIVES)
    )
    plan_cmd.add_argument(
        "--method",
        default=None,
        help="pin a method, or 'auto' for the structural fast path "
        "(default: full cost-based planning)",
    )
    plan_cmd.add_argument(
        "--explain",
        action="store_true",
        help="show every cost column per candidate",
    )
    plan_cmd.add_argument(
        "--json-out", default=None, help="write the serialized plan to this file"
    )

    run = commands.add_parser(
        "run", help="execute a schema-driven app on an engine backend"
    )
    run.add_argument(
        "--app", required=True, choices=["similarity", "skew-join"]
    )
    run.add_argument("--q", type=int, required=True)
    run.add_argument(
        "--backend",
        default=None,
        choices=sorted(BACKENDS),
        help="engine backend (default: serial, or planner-chosen with "
        "--plan auto)",
    )
    run.add_argument(
        "--plan",
        default=None,
        choices=["auto"],
        help="let the planner choose the schema method (explicit engine "
        "knobs like --backend or --memory-budget take precedence over the "
        "execution configuration resolved for the machine)",
    )
    run.add_argument(
        "--objective",
        default="min-reducers",
        choices=list(OBJECTIVES),
        help="what --plan auto optimizes",
    )
    run.add_argument("--num-workers", type=_positive_int, default=None)
    run.add_argument(
        "--memory-budget",
        type=_positive_int,
        default=None,
        help="max routed pairs buffered before spilling to disk "
        "(default: unbounded, fully in-memory shuffle)",
    )
    run.add_argument(
        "--spill-dir",
        default=None,
        help="base directory for spill files (default: system temp dir)",
    )
    run.add_argument("--method", default="auto")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--m", type=int, default=40, help="similarity: number of documents"
    )
    run.add_argument(
        "--threshold", type=float, default=0.3, help="similarity: threshold"
    )
    run.add_argument(
        "--dist", default="zipf", help="similarity: size distribution"
    )
    run.add_argument(
        "--tuples", type=int, default=400, help="skew-join: tuples per relation"
    )
    run.add_argument(
        "--keys", type=int, default=12, help="skew-join: join-key count"
    )
    run.add_argument(
        "--skew", type=float, default=1.2, help="skew-join: Zipf exponent"
    )
    run.add_argument(
        "--trace",
        default=None,
        help="write the run's spans to this file as Chrome trace-event JSON",
    )
    run.add_argument(
        "--profile",
        default=None,
        metavar="PATH",
        help="profile the run (resource sampler + per-phase function "
        "tables on the trace spans) and write the profile JSON here",
    )
    run.add_argument(
        "--inject-faults",
        type=_fault_spec,
        default=None,
        metavar="SPEC",
        help="deterministic fault injection, e.g. "
        "'crash=0.2,kill=0.05,delay=0.1:0.02,transient=0.1,seed=7' "
        "(rates in [0,1]; kill only takes effect on processes)",
    )
    run.add_argument(
        "--max-attempts",
        type=_positive_int,
        default=None,
        help="per-task retry budget (enables the retry policy; implied "
        "default 4 whenever --inject-faults/--task-timeout/--deadline "
        "is given)",
    )
    run.add_argument(
        "--task-timeout",
        type=_positive_float,
        default=None,
        help="seconds one task attempt may run before it is retried",
    )
    run.add_argument(
        "--deadline",
        type=_positive_float,
        default=None,
        help="seconds the whole run may take (DeadlineExceededError after)",
    )
    run.add_argument(
        "--fallback",
        action="store_true",
        help="graceful degradation: retry the run down the chain "
        "processes -> serial when a backend cannot run",
    )

    serve = commands.add_parser(
        "serve",
        help="job service: NDJSON job specs in, status/result lines out",
    )
    serve.add_argument(
        "--input",
        default="-",
        help="NDJSON request file ('-' = stdin, the default)",
    )
    serve.add_argument(
        "--slots", type=_positive_int, default=2, help="concurrent job slots"
    )
    serve.add_argument(
        "--plan-cache-size", type=_positive_int, default=128,
        help="retained plans (LRU)",
    )
    serve.add_argument(
        "--result-capacity", type=_positive_int, default=256,
        help="retained job results (LRU)",
    )
    serve.add_argument(
        "--quiet",
        action="store_true",
        help="suppress status and span event lines (result lines still "
        "stream)",
    )
    serve.add_argument(
        "--trace",
        default=None,
        help="collect job spans: stream them as NDJSON span lines and "
        "write the full Chrome trace-event JSON here on exit",
    )
    serve.add_argument(
        "--obs-log",
        default=None,
        help="append one observation record (plan fingerprint + phase "
        "timings) per completed job to this NDJSON file",
    )

    submit = commands.add_parser(
        "submit",
        help="one-shot convenience wrapper over the job service",
    )
    submit.add_argument(
        "--sizes", type=_parse_sizes,
        help="input sizes (A2A, or multiway with --r)",
    )
    submit.add_argument("--x-sizes", type=_parse_sizes, help="X-side sizes (X2Y)")
    submit.add_argument("--y-sizes", type=_parse_sizes, help="Y-side sizes (X2Y)")
    submit.add_argument("--q", type=int, required=True)
    submit.add_argument(
        "--r", type=_positive_int, default=None,
        help="multiway meeting arity (with --sizes)",
    )
    submit.add_argument(
        "--objective", default="min-reducers", choices=list(OBJECTIVES)
    )
    submit.add_argument(
        "--method",
        default=None,
        help="pin a method, or 'auto' for the structural fast path "
        "(default: full cost-based planning)",
    )
    submit.add_argument(
        "--plan-only",
        action="store_true",
        help="plan without executing",
    )
    submit.add_argument(
        "--priority", type=int, default=0,
        help="job priority (lower runs earlier)",
    )
    submit.add_argument(
        "--json", action="store_true", help="print the NDJSON result line"
    )
    submit.add_argument(
        "--trace",
        default=None,
        help="write the job's spans to this file as Chrome trace-event JSON",
    )
    submit.add_argument(
        "--profile",
        default=None,
        metavar="PATH",
        help="profile the job and write the profile JSON here",
    )

    metrics = commands.add_parser(
        "metrics",
        help="summarize a service observation log (serve --obs-log)",
    )
    metrics.add_argument(
        "--log", required=True, help="observation NDJSON file to summarize"
    )
    metrics.add_argument(
        "--json", action="store_true", help="print the summary as JSON"
    )

    lint = commands.add_parser(
        "lint",
        help="static analysis: determinism, pickle-safety, exception"
        " taxonomy, and lock discipline",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the installed repro"
        " package)",
    )
    lint.add_argument(
        "--baseline",
        default="lint-baseline.json",
        help="baseline file of grandfathered findings (missing file ="
        " empty baseline)",
    )
    lint.add_argument(
        "--write-baseline",
        action="store_true",
        help="rewrite the baseline from the current findings and exit 0",
    )
    lint.add_argument(
        "--json-out", default=None, help="write the findings report as JSON"
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )

    return parser


def _print_schema(schema, as_json: bool) -> None:
    if as_json:
        print(repro_io.dumps(schema, indent=2))
        return
    print(f"algorithm : {schema.algorithm}")
    print(f"reducers  : {schema.num_reducers}")
    print(format_table([summarize(schema).as_row()]))
    for index, reducer in enumerate(schema.reducers):
        print(f"  reducer {index}: {reducer}")


def _spec_from_args(args: argparse.Namespace, command: str):
    """Build a :class:`JobSpec` from ``plan``/``submit``-style size flags."""
    from repro.planner import JobSpec

    if args.x_sizes is not None or args.y_sizes is not None:
        if args.sizes is not None or args.r is not None:
            raise InvalidInstanceError(
                "--x-sizes/--y-sizes (X2Y) cannot be combined with "
                "--sizes or --r"
            )
        if args.x_sizes is None or args.y_sizes is None:
            raise InvalidInstanceError(
                "X2Y planning needs both --x-sizes and --y-sizes"
            )
        return JobSpec.x2y(
            args.x_sizes,
            args.y_sizes,
            args.q,
            objective=args.objective,
            method=args.method,
        )
    if args.sizes is not None:
        if args.r is not None:
            return JobSpec.multiway(
                args.sizes,
                args.q,
                args.r,
                objective=args.objective,
                method=args.method,
            )
        return JobSpec.a2a(
            args.sizes, args.q, objective=args.objective, method=args.method
        )
    raise InvalidInstanceError(
        f"{command} needs --sizes (A2A/multiway) or --x-sizes/--y-sizes (X2Y)"
    )


def _run_plan(args: argparse.Namespace) -> int:
    """Handle ``repro plan``: plan a spec, print the table, serialize."""
    from repro.planner import Environment, resolve_execution_config
    from repro.planner import plan as plan_spec

    spec = _spec_from_args(args, "plan")
    planned = plan_spec(spec)
    print(planned.describe(explain=args.explain))
    config = resolve_execution_config(
        Environment.detect(),
        communication_cost=planned.schema().communication_cost,
        total_size=spec.total_size,
        num_inputs=spec.num_inputs,
    )
    budget = config.memory_budget
    print(
        f"execution : backend={config.backend}"
        + ("" if budget is None else f", memory_budget={budget}")
    )
    if args.json_out:
        repro_io.atomic_write_text(args.json_out, planned.to_json() + "\n")
        print(f"plan written to {args.json_out}")
    return 0


def _tracer_for(trace: str | None, profile: str | None = None):
    """A live tracer when ``--trace`` or ``--profile`` was given, else
    ``None``; with ``--profile`` the one tracer also profiles."""
    if not (trace or profile):
        return None
    from repro.obs.trace import Tracer

    return Tracer(profile=bool(profile))


def _write_trace(tracer, path: str | None) -> None:
    """Export a tracer's spans to *path*; summary goes to stderr so the
    trace line never corrupts ``--json`` stdout output."""
    if tracer is None or not path:
        return
    from repro.obs.trace import write_chrome_trace

    count = write_chrome_trace(path, tracer.spans())
    print(f"trace: {count} events written to {path}", file=sys.stderr)


def _write_profile(tracer, sampler, path: str | None) -> None:
    """Export the profile computed from *tracer*'s spans and the stopped
    *sampler* to *path*; summary goes to stderr so the profile line never
    corrupts ``--json`` stdout output."""
    if tracer is None or not path:
        return
    from repro.obs.profiler import profile_export, write_profile

    payload = profile_export(tracer.spans(), sampler)
    write_profile(payload, path)
    phases = payload.get("phases", {})
    functions = sum(
        len(entry.get("functions", {})) for entry in phases.values()
    )
    print(
        f"profile: {len(phases)} phases, {functions} functions, "
        f"peak_rss={payload.get('peak_rss_bytes', 0)} written to {path}",
        file=sys.stderr,
    )


def _run_app(args: argparse.Namespace) -> int:
    """Handle ``repro run``: generate a workload, execute it, print metrics.

    With ``--profile`` a resource sampler runs for the whole workload.
    """
    from repro.obs.profiler import ResourceSampler

    tracer = _tracer_for(args.trace, args.profile)
    sampler = ResourceSampler()
    if args.profile:
        sampler.start()
    try:
        _run_workload(args, tracer)
    finally:
        sampler.stop()
    _write_trace(tracer, args.trace)
    _write_profile(tracer, sampler, args.profile)
    return 0


def _run_workload(args: argparse.Namespace, tracer) -> None:
    """``repro run``'s workload: generate, execute, print the metrics."""
    from repro.engine.config import ExecutionConfig

    plan_mode = args.plan == "auto"
    method = "planned" if plan_mode else args.method
    retry = None
    if args.max_attempts is not None:
        from repro.faults import RetryPolicy

        retry = RetryPolicy(max_attempts=args.max_attempts)
    fault_plane = (
        args.inject_faults is not None
        or retry is not None
        or args.task_timeout is not None
        or args.deadline is not None
        or args.fallback
    )
    engine_knobs_given = fault_plane or any(
        value is not None
        for value in (
            args.backend,
            args.num_workers,
            args.memory_budget,
            args.spill_dir,
        )
    )
    if not engine_knobs_given:
        # No explicit knobs: the application resolves the config for
        # this machine, as every run without one does.
        config = None
    else:
        config = ExecutionConfig(
            backend=args.backend or "serial",
            num_workers=args.num_workers,
            memory_budget=args.memory_budget,
            spill_dir=args.spill_dir,
            retry=retry,
            faults=args.inject_faults,
            task_timeout=args.task_timeout,
            deadline=args.deadline,
            fallback=args.fallback,
        )
    if args.app == "similarity":
        from repro.apps.similarity_join import run_similarity_join
        from repro.workloads.documents import document_dataset

        documents = document_dataset(
            args.m, args.q, profile=args.dist, seed=args.seed
        )
        run = run_similarity_join(
            documents,
            args.q,
            args.threshold,
            method=method,
            objective=args.objective,
            config=config,
            tracer=tracer,
        )
        print(f"app       : similarity join ({args.m} documents, q={args.q})")
        print(f"schema    : {run.schema.algorithm}, {run.schema.num_reducers} reducers")
        if plan_mode and run.plan is not None:
            print(f"plan      : {run.plan.chosen} — {run.plan.rationale}")
        print(f"outputs   : {len(run.pairs)} pairs >= {args.threshold}")
    else:
        from repro.apps.skew_join import schema_skew_join
        from repro.workloads.relations import generate_join_workload

        x, y = generate_join_workload(
            args.tuples, args.tuples, args.keys, args.skew, seed=args.seed
        )
        run = schema_skew_join(
            x,
            y,
            args.q,
            method=method,
            objective=args.objective,
            config=config,
            tracer=tracer,
        )
        print(
            f"app       : skew join ({args.tuples}x{args.tuples} tuples, "
            f"{args.keys} keys, skew={args.skew}, q={args.q})"
        )
        print(f"heavy keys: {list(run.heavy_keys)}")
        if plan_mode and run.plans:
            chosen = {key: planned.chosen for key, planned in run.plans.items()}
            print(f"plan      : per-heavy-key methods {chosen}")
        print(f"outputs   : {len(run.triples)} triples")
    if plan_mode:
        source = (
            "explicit knobs override the planner"
            if engine_knobs_given
            else "planner-resolved"
        )
        print(
            f"execution : {source} backend={run.engine.backend}, "
            f"workers={run.engine.num_workers}"
        )
    print(format_table([run.metrics.as_row()], title="job metrics"))
    print(format_table([run.engine.as_row()], title="engine metrics"))
    if fault_plane:
        engine = run.engine
        parts = [
            f"retries={engine.task_retries}",
            f"pool_rebuilds={engine.pool_rebuilds}",
        ]
        if args.inject_faults is not None:
            parts.append(f"spec={args.inject_faults.format()}")
        if engine.fallback_backend is not None:
            parts.append(f"fell back to {engine.fallback_backend}")
        print(f"faults    : {', '.join(parts)}")
    if args.memory_budget is not None:
        metrics = run.metrics
        print(
            f"spill     : {metrics.spilled_bytes} bytes in "
            f"{metrics.spill_runs} runs (budget {args.memory_budget} pairs, "
            f"peak buffered {metrics.peak_buffered_pairs})"
        )


def _result_line(service, job_id: str) -> dict:
    """One NDJSON result line for a terminal job (status + result summary)."""
    status = service.status(job_id)
    line: dict = {"event": "result"}
    line.update(status.to_dict())
    result = service.results.get(job_id)
    if result is not None:
        summary = result.summary()
        summary.pop("id", None)
        line.update(summary)
    return line


def _run_serve(args: argparse.Namespace) -> int:
    """Handle ``repro serve``: the NDJSON job-service loop.

    Requests are newline-delimited JSON objects::

        {"id": "j1", "spec": {"kind": "a2a", "q": 12, "sizes": [3, 5, 2]},
         "priority": 0, "execute": true}

    ``spec`` follows the :meth:`JobSpec.from_dict` wire format.  For each
    job the loop streams ``{"event": "status", ...}`` lines on every
    lifecycle transition (suppressed by ``--quiet``) and exactly one
    ``{"event": "result", ...}`` line when the job reaches a terminal
    state.  Malformed requests produce ``{"event": "error", ...}`` lines
    and do not abort the loop.

    With ``--trace`` every finished span additionally streams as a
    ``{"event": "span", ...}`` line (suppressed by ``--quiet``) and the
    collected trace is written as Chrome trace-event JSON on exit; a
    ``{"metrics": true}`` request line answers with one
    ``{"event": "metrics", ...}`` snapshot of the service's counters,
    gauges, histograms, and plan-cache stats; a ``{"health": true}``
    request line answers with one ``{"event": "health", ...}`` SLO
    snapshot (queue-latency p50/p95, slot utilization, rolling failure
    rate, pool rebuilds, sampler state, peak RSS).

    SIGINT/SIGTERM shut the loop down gracefully: input reading stops, a
    ``{"event": "shutdown", ...}`` line is emitted, in-flight jobs drain
    (bounded wait), backend pools close, and the ``--obs-log`` /
    ``--trace`` outputs are flushed before the process exits 0 — no
    half-written trace files or silently dropped observations.
    """
    import json
    import signal
    import threading

    from repro.planner import JobSpec
    from repro.service import TERMINAL_STATES, JobService

    # Reentrant: a signal can interrupt the main thread while it holds
    # the lock inside an emit, and the shutdown path emits its own line.
    print_lock = threading.RLock()

    def emit_line(payload: dict) -> None:
        with print_lock:
            print(json.dumps(payload, default=str), flush=True)

    tracer = None
    if args.trace:
        from repro.obs.trace import Tracer

        def on_span(span) -> None:
            if not args.quiet:
                emit_line({"event": "span", **span.to_dict()})

        tracer = Tracer(on_finish=on_span)

    service = JobService(
        slots=args.slots,
        plan_cache_size=args.plan_cache_size,
        result_capacity=args.result_capacity,
        tracer=tracer,
        obs_log=args.obs_log,
    )

    def on_event(event) -> None:
        if not args.quiet:
            emit_line(event.to_dict())
        if event.state in TERMINAL_STATES:
            emit_line(_result_line(service, event.job_id))

    service.events.subscribe(on_event)

    def handle_line(number: int, line: str) -> None:
        line = line.strip()
        if not line:
            return
        try:
            request = json.loads(line)
        except json.JSONDecodeError as exc:
            emit_line({"event": "error", "line": number, "error": str(exc)})
            return
        if isinstance(request, dict) and request.get("metrics"):
            emit_line({"event": "metrics", **service.metrics_snapshot()})
            return
        if isinstance(request, dict) and request.get("health"):
            emit_line({"event": "health", **service.health_snapshot()})
            return
        if not isinstance(request, dict) or "spec" not in request:
            emit_line(
                {
                    "event": "error",
                    "line": number,
                    "error": "request must be an object with a 'spec' field",
                }
            )
            return
        try:
            spec = JobSpec.from_dict(request["spec"])
            service.submit_spec(
                spec,
                execute=bool(request.get("execute", True)),
                priority=int(request.get("priority", 0)),
                job_id=request.get("id"),
            )
        # TypeError/ValueError cover mistyped request fields (a string
        # priority, a scalar where the spec wants a list): one bad line
        # must never abort the loop.
        except (ReproError, TypeError, ValueError) as exc:
            emit_line(
                {
                    "event": "error",
                    "line": number,
                    "id": request.get("id"),
                    "error": str(exc),
                }
            )

    class _ShutdownRequested(Exception):
        def __init__(self, signum: int):
            super().__init__(signum)
            self.signum = signum

    def _on_signal(signum: int, _frame: object) -> None:
        raise _ShutdownRequested(signum)

    installed: list[tuple[int, object]] = []
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            installed.append((signum, signal.signal(signum, _on_signal)))
        except ValueError:
            # Not the main thread (embedded use): the loop still works,
            # it just cannot intercept signals.
            pass
    closed = False
    try:
        if args.input == "-":
            for number, line in enumerate(sys.stdin, start=1):
                handle_line(number, line)
        else:
            try:
                stream = open(args.input)
            except OSError as error:
                print(
                    f"error: cannot read {args.input!r}: {error}",
                    file=sys.stderr,
                )
                return 1
            with stream:
                for number, line in enumerate(stream, start=1):
                    handle_line(number, line)
        service.drain()
    except _ShutdownRequested as request:
        name = signal.Signals(request.signum).name
        emit_line({"event": "shutdown", "signal": name, "state": "draining"})
        drained = service.drain(timeout=10.0)
        # Jobs still running after the bounded drain are abandoned by
        # close(drain=False) — they move to 'cancelled' instead of
        # keeping the process alive indefinitely.
        service.close(drain=False)
        closed = True
        emit_line(
            {
                "event": "shutdown",
                "signal": name,
                "state": "complete",
                "drained": drained,
            }
        )
    finally:
        for signum, previous in installed:
            signal.signal(signum, previous)
        if not closed:
            service.close()
        _write_trace(tracer, args.trace)
    return 0


def _run_submit(args: argparse.Namespace) -> int:
    """Handle ``repro submit``: one job through an in-process service."""
    import json

    from repro.service import JobService

    spec = _spec_from_args(args, "submit")
    execute = not args.plan_only
    tracer = _tracer_for(args.trace, args.profile)
    service = JobService(slots=1, tracer=tracer)
    closed = False
    try:
        handle = service.submit_spec(
            spec, execute=execute, priority=args.priority
        )
        status = handle.wait(timeout=600.0)
        if status.state not in ("done", "failed", "cancelled", "rejected"):
            # Timed out mid-run: cancel cooperatively and close without
            # draining so the process exits instead of blocking on the
            # stuck job.
            handle.cancel()
            print(
                f"error: job {handle.job_id} still {status.state!r} after "
                "600s; cancelled",
                file=sys.stderr,
            )
            service.close(drain=False, timeout=5.0)
            closed = True
            return 1
        if status.state != "done":
            # Structured error line: machine-readable on stderr, one
            # line, with the job's terminal state and the actual error —
            # scripts wrapping `repro submit` branch on exit status and
            # parse this instead of scraping the status payload.
            error_line = {
                "event": "error",
                "id": handle.job_id,
                "state": status.state,
                "error": status.error
                or status.detail
                or f"job finished in state {status.state!r}",
            }
            print(json.dumps(error_line, default=str), file=sys.stderr)
            return 1
        result = handle.result()
        if args.json:
            print(json.dumps(_result_line(service, handle.job_id), default=str))
        else:
            score = result.plan.chosen_score
            print(f"job       : {handle.job_id} ({spec.kind}, q={spec.q})")
            print(f"state     : {status.state}")
            print(f"chosen    : {result.plan.chosen} ({result.plan.mode})")
            print(f"rationale : {result.plan.rationale}")
            print(
                f"plan      : {score.num_reducers} reducers, "
                f"communication {score.communication_cost}"
            )
            if result.executed:
                print(
                    f"outputs   : {len(result.outputs)} records on "
                    f"backend={result.engine.backend}"
                )
            else:
                print("outputs   : plan-only job (no execution)")
    finally:
        if not closed:
            service.close()
        _write_trace(tracer, args.trace)
        _write_profile(tracer, service.sampler, args.profile)
    return 0


def _run_metrics(args: argparse.Namespace) -> int:
    """Handle ``repro metrics``: summarize an observation log as a table."""
    import json

    from repro.obs.store import load_observations, summarize_observations

    try:
        records = load_observations(args.log)
    except OSError as error:
        print(f"error: cannot read {args.log!r}: {error}", file=sys.stderr)
        return 1
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    rows = summarize_observations(records)
    if args.json:
        print(
            json.dumps(
                {"observations": len(records), "rows": rows}, default=str
            )
        )
        return 0
    if not rows:
        print(f"no observations in {args.log}")
        return 0
    print(
        format_table(
            rows, title=f"job observations ({len(records)} records)"
        )
    )
    return 0


def _run_lint(args: argparse.Namespace) -> int:
    """Handle ``repro lint``: run the static-analysis rules, gate on new
    findings (anything not absorbed by the baseline)."""
    import json
    from pathlib import Path

    import repro
    from repro.analysis.lint import (
        all_rules,
        apply_baseline,
        lint_paths,
        load_baseline,
        save_baseline,
    )

    rules = all_rules()
    if args.list_rules:
        rows = [
            {
                "rule": rule.rule_id,
                "severity": rule.severity,
                "scopes": ", ".join(rule.scopes) or "(all)",
                "invariant": rule.description,
            }
            for rule in rules
        ]
        print(format_table(rows, title="repro lint rules"))
        return 0

    if args.paths:
        paths = [Path(p) for p in args.paths]
        root = None  # inferred per file from the package hierarchy
    else:
        package_dir = Path(repro.__file__).resolve().parent
        paths = [package_dir]
        root = package_dir.parent

    report = lint_paths(paths, rules, root=root)
    findings = report.sorted_findings()

    if args.write_baseline:
        save_baseline(Path(args.baseline), findings)
        print(
            f"wrote {len(findings)} finding(s) to baseline {args.baseline}"
        )
        return 0

    try:
        baseline = load_baseline(Path(args.baseline))
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    new, grandfathered = apply_baseline(findings, baseline)

    if args.json_out:
        payload = {
            "files_checked": report.files_checked,
            "suppressed": report.suppressed,
            "new": [f.to_dict() for f in new],
            "grandfathered": [f.to_dict() for f in grandfathered],
        }
        repro_io.atomic_write_text(
            args.json_out, json.dumps(payload, indent=2) + "\n"
        )

    for finding in new:
        print(finding.render())
    print(
        f"checked {report.files_checked} file(s):"
        f" {len(new)} new finding(s),"
        f" {len(grandfathered)} grandfathered,"
        f" {report.suppressed} suppressed"
    )
    return 1 if new else 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_absorb_size_values(list(argv)))
    try:
        if args.command == "solve-a2a":
            schema = solve_a2a(A2AInstance(args.sizes, args.q), args.method)
            schema.require_valid()
            _print_schema(schema, args.json)
        elif args.command == "solve-x2y":
            schema = solve_x2y(
                X2YInstance(args.x_sizes, args.y_sizes, args.q), args.method
            )
            schema.require_valid()
            _print_schema(schema, args.json)
        elif args.command == "sweep":
            rows = sweep_a2a_reducers(args.sizes, args.q_values)
            print(format_table(rows, title="A2A reducers vs q"))
        elif args.command == "plan":
            return _run_plan(args)
        elif args.command == "run":
            return _run_app(args)
        elif args.command == "serve":
            return _run_serve(args)
        elif args.command == "submit":
            return _run_submit(args)
        elif args.command == "metrics":
            return _run_metrics(args)
        elif args.command == "lint":
            return _run_lint(args)
        elif args.command == "verify":
            try:
                with open(args.file) as handle:
                    loaded = repro_io.loads(handle.read())
            except OSError as error:
                print(f"error: cannot read {args.file!r}: {error}", file=sys.stderr)
                return 1
            report = loaded.verify()  # type: ignore[union-attr]
            print(report.summary())
            if not report.valid:
                return 1
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    sys.exit(main())
