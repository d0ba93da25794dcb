"""Cost-based planner: one declarative JobSpec → Plan → run pipeline.

The paper's central question — which mapping schema minimizes reducers or
communication under a capacity ``q`` — is answered by :mod:`repro.core`;
this package makes that answer *drive execution*.  The pipeline has three
stages:

1. **Spec** (:class:`JobSpec`) — a declarative statement of the problem:
   kind (``a2a``/``x2y``/``multiway``), sizes, ``q``, and an objective
   (``min-reducers`` | ``min-communication``).  All applications build
   specs instead of calling solvers directly.
2. **Plan** (:func:`plan`) — enumerate candidate methods from the
   registries, score them (costs and bounds), and pick the winner per
   objective.  The result is an inspectable, JSON-serializable
   :class:`Plan` with per-candidate scores and the chosen rationale; it
   depends on the spec alone, so one spec has one plan on every machine.
3. **Run** (:func:`run`) — funnel the plan into
   :func:`repro.engine.engine.execute_schema`, on an
   :class:`~repro.engine.config.ExecutionConfig` that
   :func:`resolve_execution_config` works out from an
   :class:`Environment` probe unless the caller gives one.

Quickstart::

    from repro.planner import JobSpec, plan, run

    spec = JobSpec.a2a([3, 5, 2, 7, 4], q=12, method=None)  # full planning
    planned = plan(spec)
    print(planned.describe(explain=True))

    def reduce_fn(reducer, values):      # values are (input_index, record)
        yield reducer, sorted(i for i, _ in values)

    result = run(planned, ["r%d" % i for i in range(5)], reduce_fn)

The CLI surfaces the same pipeline as ``repro plan`` (candidate table,
``--explain``, ``--json-out``) and ``repro run --plan auto``.
"""

from repro.planner.environment import Environment
from repro.planner.fastpath import fast_path, fast_path_a2a, fast_path_x2y
from repro.planner.plan import CandidateScore, Plan
from repro.planner.planner import (
    MULTIWAY_METHODS,
    build_schema,
    method_registry,
    plan,
    plan_cached,
    plan_fingerprint,
    resolve_execution_config,
    score_schema,
)
from repro.planner.runner import run
from repro.planner.spec import KINDS, OBJECTIVES, JobSpec, coerce_sizes

__all__ = [
    "JobSpec",
    "Plan",
    "CandidateScore",
    "Environment",
    "plan",
    "plan_cached",
    "plan_fingerprint",
    "run",
    "build_schema",
    "method_registry",
    "score_schema",
    "resolve_execution_config",
    "fast_path",
    "fast_path_a2a",
    "fast_path_x2y",
    "coerce_sizes",
    "KINDS",
    "OBJECTIVES",
    "MULTIWAY_METHODS",
]
