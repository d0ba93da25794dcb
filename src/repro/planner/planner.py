"""Cost-based planning: enumerate, score, choose.

:func:`plan` is the pipeline's middle stage: it takes a declarative
:class:`~repro.planner.spec.JobSpec` and produces an inspectable
:class:`~repro.planner.plan.Plan`.  Three modes, selected by
``spec.method``:

* ``"auto"`` — the **fast path**: the structural dispatch heuristic from
  :mod:`repro.planner.fastpath` (the same choice as
  ``solve_*(..., method="auto")``), scoring only the candidates the rule
  builds; those it weighed on predicted counts alone (for mixed-size
  A2A, the losers among bin-pairing, triple bins and quadruple bins) are
  listed as skipped.
* ``None`` — **full planning**: every method in the registries
  (:data:`~repro.core.selector.A2A_METHODS` /
  :data:`~repro.core.selector.X2Y_METHODS` /
  :data:`MULTIWAY_METHODS`) is scored with
  :func:`repro.core.costs.summarize`-style metrics; the winner minimizes
  the spec's objective.  Most are built and scored from their schema.
  The X2Y grid family (:data:`~repro.core.selector.X2Y_COSTS`:
  ``equal_grid``, ``half_grid``, ``best_split_grid``, and ``big_small``
  when no input exceeds ``q // 2``) is scored from counted reducers,
  communication and max load instead, and only the winner among them is
  built, so a plan carries the schema it chose either way.  The
  exponential ``exact`` solvers are skipped above a size threshold, and
  a method that raises is recorded as failed, not fatal.
* a method name — **pinned**: that method, still scored, so the plan
  remains inspectable.

A plan is a function of its spec alone: nothing here probes the machine.
The engine configuration a plan runs on is resolved when it runs, by
:func:`resolve_execution_config` from an
:class:`~repro.planner.environment.Environment` snapshot (the rules are
documented on that function and in the README's knob table).
"""

from __future__ import annotations

from typing import Any, Mapping, Protocol

from repro.core.bounds import (
    a2a_communication_lower_bound,
    a2a_reducer_lower_bound,
    x2y_communication_lower_bound,
    x2y_reducer_lower_bound,
)
from repro.core.instance import A2AInstance, X2YInstance
from repro.core.multiway import (
    MultiwayInstance,
    multiway_bin_combining,
    multiway_reducer_lower_bound,
)
from repro.core.selector import A2A_METHODS, X2Y_COSTS, X2Y_METHODS, require_method
from repro.core.x2y import Costs
from repro.engine.config import ExecutionConfig
from repro.exceptions import InvalidInstanceError, ReproError
from repro.obs.trace import NULL_TRACER, Tracer, as_tracer
from repro.planner.environment import Environment
from repro.planner.fastpath import fast_path
from repro.planner.plan import CandidateScore, Plan
from repro.planner.spec import JobSpec

#: Multiway methods (the pairwise kinds use the selector registries).
MULTIWAY_METHODS = {"bin_combining": multiway_bin_combining}

#: The exact A2A solver's branch-and-bound is exponential in the input
#: count; above this many inputs the planner skips it instead of burning
#: the node budget (matches the solver's documented m <= ~10-12 range).
EXACT_A2A_INPUT_LIMIT = 10

#: The exact X2Y solver is tractable for roughly m * n <= 15 cross pairs;
#: from about 16 it can spend its whole node budget (seconds) and fail.
EXACT_X2Y_PAIR_LIMIT = 15

#: The greedy set-cover heuristics re-scan all uncovered pairs per
#: reducer (quadratic-and-worse in the input count); above this many
#: inputs the planner skips them — on instances that large they are
#: never competitive on planning latency, which full planning pays even
#: for candidates it does not choose.  With the bitmask kernels, one
#: greedy build at the limit takes about 15 ms for A2A (m = 64) and 4 ms
#: for X2Y (m + n = 64) on a 2-vCPU VM, against 80 ms and 21 ms for the
#: set-based loops they replaced.  The limit stays: the skip reason is
#: part of plan JSON, and a higher limit would change chosen plans.
GREEDY_INPUT_LIMIT = 64

#: Assumed bytes per size unit when translating the routed input volume
#: into an estimated shuffle footprint.
BYTES_PER_SIZE_UNIT = 256

#: The planner lets the shuffle use at most this fraction of available
#: memory before it imposes a spill budget.
MEMORY_FRACTION = 0.25

#: Smallest memory budget (in buffered pairs) the planner will impose.
MIN_MEMORY_BUDGET = 1024


def method_registry(kind: str) -> Mapping[str, Any]:
    """The method registry for a problem kind."""
    if kind == "a2a":
        return A2A_METHODS
    if kind == "x2y":
        return X2Y_METHODS
    if kind == "multiway":
        return MULTIWAY_METHODS
    raise InvalidInstanceError(f"unknown problem kind {kind!r}")


def build_schema(spec: JobSpec, method: str):
    """Build the schema *method* produces for *spec*'s instance.

    The single rebuild point used by :meth:`Plan.schema`, so a plan
    loaded from JSON reconstructs exactly the schema the planner chose.
    """
    registry = method_registry(spec.kind)
    require_method(spec.kind.upper() if spec.kind != "multiway" else "multiway",
                   method, registry)
    return registry[method](spec.instance())


def _skip_reason(
    name: str, instance: A2AInstance | X2YInstance | MultiwayInstance
) -> str | None:
    """Why *name* should not be attempted on this instance, or ``None``.

    Gates the methods whose construction cost explodes with instance
    size: full planning builds every candidate schema it cannot count,
    so an expensive candidate taxes planning latency even when it loses
    the comparison.
    ``bin_pairing`` (A2A only) is skipped when no input exceeds ``q // 2``:
    ``big_small`` then builds the same reducers and wins the tie-break.
    """
    if name == "bin_pairing" and max(instance.sizes) <= instance.q // 2:
        return "same reducers as big_small: no input above q//2"
    if name == "exact":
        if isinstance(instance, A2AInstance) and instance.m > EXACT_A2A_INPUT_LIMIT:
            return (
                f"m={instance.m} exceeds the exact-search limit "
                f"{EXACT_A2A_INPUT_LIMIT} (branch-and-bound is exponential)"
            )
        if (
            isinstance(instance, X2YInstance)
            and instance.num_pairs > EXACT_X2Y_PAIR_LIMIT
        ):
            return (
                f"m*n={instance.num_pairs} exceeds the exact-search limit "
                f"{EXACT_X2Y_PAIR_LIMIT} cross pairs"
            )
        return None
    if name == "greedy":
        num_inputs = (
            instance.m + instance.n
            if isinstance(instance, X2YInstance)
            else instance.m
        )
        if num_inputs > GREEDY_INPUT_LIMIT:
            return (
                f"{num_inputs} inputs exceed the greedy-cover limit "
                f"{GREEDY_INPUT_LIMIT} (pair re-scans dominate planning time)"
            )
        return None
    return None


def _counted_costs(
    name: str, instance: A2AInstance | X2YInstance | MultiwayInstance
) -> Costs | None:
    """*name*'s costs counted without building its schema, or ``None``
    when full planning must build it (see :data:`X2Y_COSTS`)."""
    if isinstance(instance, X2YInstance) and name in X2Y_COSTS:
        return X2Y_COSTS[name](instance)
    return None


def score_schema(method: str, schema: Any, objective: str) -> CandidateScore:
    """Score one built schema under *objective*.

    Works for all three schema kinds (only ``loads`` / ``num_reducers`` /
    ``communication_cost`` / the instance totals are touched).  No score
    depends on the machine.
    """
    costs = (
        schema.num_reducers,
        schema.communication_cost,
        max(schema.loads, default=0),
    )
    return score_costs(method, costs, schema.instance.total_size, objective)


def score_costs(
    method: str, costs: Costs, total_size: int, objective: str
) -> CandidateScore:
    """Score a candidate from its ``(reducers, communication, max_load)``
    under *objective*, whether counted or read off a built schema."""
    num_reducers, comm, max_load = costs
    if objective == "min-reducers":
        objective_value = float(num_reducers)
    else:  # min-communication
        objective_value = float(comm)
    return CandidateScore(
        method=method,
        status="scored",
        num_reducers=num_reducers,
        communication_cost=comm,
        replication_rate=(comm / total_size) if total_size else 0.0,
        max_load=max_load,
        objective_value=objective_value,
    )


def _lower_bounds(
    instance: A2AInstance | X2YInstance | MultiwayInstance,
) -> dict[str, int]:
    """Problem lower bounds the plan reports next to its choice."""
    if isinstance(instance, A2AInstance):
        return {
            "num_reducers": a2a_reducer_lower_bound(instance),
            "communication_cost": a2a_communication_lower_bound(instance),
        }
    if isinstance(instance, X2YInstance):
        return {
            "num_reducers": x2y_reducer_lower_bound(instance),
            "communication_cost": x2y_communication_lower_bound(instance),
        }
    return {"num_reducers": multiway_reducer_lower_bound(instance)}


def resolve_execution_config(
    env: Environment,
    *,
    communication_cost: int,
    total_size: int,
    num_inputs: int,
) -> ExecutionConfig:
    """Resolve engine knobs for running a schema in an environment.

    The one rule for every job run without an explicit config: called by
    :func:`repro.planner.run`, the job service and the skew join when a
    plan runs, never while planning.  The rules (also documented in the
    README's knob table):

    * ``backend`` — ``serial`` unless the caller names a backend, for
      every schema and machine (the worker count does not enter it),
      with ``num_workers`` and ``num_reduce_tasks`` left ``None``: one
      reduce partition.  Every reduce function here is pure Python, and
      no pool beat serial on a benchmark workload.
    * ``memory_budget`` — set only when the estimated shuffle footprint
      exceeds :data:`MEMORY_FRACTION` of available memory.  The engine
      ships each input once per reduce partition holding one of its
      reducers, so the routed volume is at most both the schema's
      *communication_cost* and the partition count (one) times the inputs'
      *total_size*; the footprint is the smaller of the two times
      :data:`BYTES_PER_SIZE_UNIT`.  The parent holds all routed pairs
      in one buffer and the budget counts pairs, whatever their size,
      so the budget is that whole memory share divided by the bytes of
      one pair of mean size (``ceil(total_size / num_inputs)`` units),
      floored at :data:`MIN_MEMORY_BUDGET`.  Never set when the
      environment could not measure memory.
    * ``spill_dir`` — always ``None`` (system temporary directory).
    """
    memory_budget: int | None = None
    if env.memory_bytes is not None:
        routed = min(communication_cost, total_size)
        shuffle_share = int(env.memory_bytes * MEMORY_FRACTION)
        if routed * BYTES_PER_SIZE_UNIT > shuffle_share:
            mean_size = -(-total_size // num_inputs)
            memory_budget = max(
                MIN_MEMORY_BUDGET,
                shuffle_share // (BYTES_PER_SIZE_UNIT * mean_size),
            )
    return ExecutionConfig(backend="serial", memory_budget=memory_budget)


class PlanCacheProtocol(Protocol):
    """What :func:`plan` needs from a plan cache.

    Deliberately minimal (``get``/``put`` keyed by fingerprint string) so
    the planner stays independent of any particular cache implementation;
    :class:`repro.service.plan_cache.PlanCache` is the bounded LRU the job
    service plugs in here.
    """

    def get(self, key: str) -> Plan | None:
        ...  # pragma: no cover - protocol

    def put(self, key: str, plan: Plan) -> None:
        ...  # pragma: no cover - protocol


def plan_fingerprint(spec: JobSpec) -> str:
    """Content fingerprint of a planning request (hex SHA-256).

    Planning is deterministic given the spec (method enumeration order
    is sorted, scoring is pure arithmetic, and nothing reads the
    machine), so the spec's own :meth:`~JobSpec.fingerprint` is a sound
    cache key: equal fingerprints imply byte-identical
    :meth:`Plan.to_json` output.
    """
    return spec.fingerprint()


def plan_cached(
    spec: JobSpec,
    *,
    cache: PlanCacheProtocol,
    tracer: Tracer | None = None,
) -> tuple[Plan, str, bool]:
    """Plan through *cache*; returns ``(plan, fingerprint, cache_hit)``.

    The single get-or-plan-and-put implementation: :func:`plan` and the
    job service both funnel through here, so cache keying can never
    diverge between them.  A hit skips enumeration and scoring entirely
    and returns the cached plan (plans are immutable, so sharing one
    object across callers is safe).  With a *tracer*, the whole lookup
    (or lookup-plus-planning) is one ``plan`` span carrying the
    ``cache_hit`` outcome.
    """
    tracer = as_tracer(tracer)
    with tracer.span("plan", category="planner", kind=spec.kind) as span:
        key = plan_fingerprint(spec)
        cached = cache.get(key)
        if cached is not None:
            span.set("cache_hit", True)
            return cached, key, True
        span.set("cache_hit", False)
        result = _plan_uncached(spec, tracer)
        cache.put(key, result)
        return result, key, False


def plan(
    spec: JobSpec,
    *,
    cache: PlanCacheProtocol | None = None,
    tracer: Tracer | None = None,
) -> Plan:
    """Turn a declarative spec into an inspectable, executable plan.

    With a *cache*, planning goes through :func:`plan_cached` (misses
    are planned normally and stored back).  A *tracer* records the
    planning work as a ``plan`` span with per-candidate child spans.
    """
    if cache is not None:
        return plan_cached(spec, cache=cache, tracer=tracer)[0]
    tracer = as_tracer(tracer)
    with tracer.span("plan", category="planner", kind=spec.kind) as span:
        span.set("cache_hit", False)
        return _plan_uncached(spec, tracer)


def _plan_uncached(spec: JobSpec, tracer: Tracer = NULL_TRACER) -> Plan:
    """The actual planning pipeline (enumerate, score, choose)."""
    instance = spec.instance()
    instance.check_feasible()
    registry = method_registry(spec.kind)
    lower_bounds = _lower_bounds(instance)

    schemas: dict[str, Any] = {}
    candidates: list[CandidateScore] = []

    if spec.method == "auto":
        chosen, considered, rule, skipped = fast_path(instance)
        for name, schema in considered.items():
            with tracer.span(f"score:{name}", category="planner"):
                schemas[name] = schema
                candidates.append(
                    score_schema(name, schema, spec.objective)
                )
        candidates.extend(
            CandidateScore(method=name, status="skipped", reason=reason)
            for name, reason in skipped.items()
        )
        rationale = f"fast path: {rule}"
        mode = "fast-path"
    elif spec.method is not None:
        kind_label = spec.kind.upper() if spec.kind != "multiway" else "multiway"
        require_method(kind_label, spec.method, registry)
        schema = registry[spec.method](instance)
        schemas[spec.method] = schema
        candidates.append(
            score_schema(spec.method, schema, spec.objective)
        )
        chosen = spec.method
        rationale = f"method pinned to {spec.method!r} by the spec"
        mode = "pinned"
    else:
        for name in sorted(registry):
            skip = _skip_reason(name, instance)
            if skip is not None:
                candidates.append(
                    CandidateScore(method=name, status="skipped", reason=skip)
                )
                continue
            with tracer.span(f"score:{name}", category="planner") as cspan:
                try:
                    costs = _counted_costs(name, instance)
                    if costs is None:
                        schemas[name] = registry[name](instance)
                except ReproError as error:
                    cspan.set("status", "failed")
                    candidates.append(
                        CandidateScore(
                            method=name, status="failed", reason=str(error)
                        )
                    )
                    continue
                candidates.append(
                    score_schema(name, schemas[name], spec.objective)
                    if costs is None
                    else score_costs(
                        name, costs, instance.total_size, spec.objective
                    )
                )
        scored = [c for c in candidates if c.status == "scored"]
        if not scored:
            reasons = "; ".join(
                f"{c.method}: {c.reason}" for c in candidates
            )
            raise InvalidInstanceError(
                f"no candidate method produced a schema ({reasons})"
            )
        best = min(
            scored,
            key=lambda c: (
                c.objective_value,
                c.num_reducers,
                c.communication_cost,
                c.method,
            ),
        )
        chosen = best.method
        if chosen not in schemas:
            # Counted, not built: build the winner only.
            schemas[chosen] = registry[chosen](instance)
        bound_name = (
            "num_reducers"
            if spec.objective == "min-reducers"
            else "communication_cost"
        )
        bound_note = (
            f", lower bound {lower_bounds[bound_name]}"
            if bound_name in lower_bounds
            else ""
        )
        rationale = (
            f"{spec.objective}: {chosen} scores "
            f"{best.objective_value:g}{bound_note}; "
            f"best of {len(scored)} scored candidates"
        )
        mode = "planned"

    result = Plan(
        spec=spec,
        chosen=chosen,
        rationale=rationale,
        candidates=tuple(candidates),
        lower_bounds=lower_bounds,
        mode=mode,
    )
    if chosen in schemas:
        object.__setattr__(result, "_schema_cache", schemas[chosen])
    return result

