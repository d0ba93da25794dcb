"""The five benchmark workloads: inputs from a seed, one timed call, checks.

Seeds vary content, not shape.  The benchmark compares runs made with
different seeds, so the work a run does must not depend on its seed:
every size multiset (document lengths, join-key frequencies, record
sizes, service job shapes) comes from the library's own generators under
the fixed :data:`SHAPE_SEED`, while the run's seed draws what the sizes
hold — document tokens, key labels and payloads, record bytes — and the
order service jobs arrive in.  Mapping schemas, reducer counts and
communication cost are therefore the same for every seed.

Each workload calls only the library's public entry points and judges
their outputs against an independent reference computed once per run.
"""

from __future__ import annotations

import os
import queue
import random
import string
import time
from itertools import islice
from typing import Any

from repro.apps.similarity_join import run_similarity_join
from repro.apps.skew_join import naive_join, schema_skew_join
from repro.core.bounds import (
    a2a_communication_lower_bound,
    a2a_reducer_lower_bound,
    x2y_communication_lower_bound,
    x2y_reducer_lower_bound,
)
from repro.core.schema import A2ASchema
from repro.core.verify import verify_a2a, verify_x2y
from repro.engine.engine import execute_schema
from repro.exceptions import ReproError
from repro.obs.trace import Tracer
from repro.planner import JobSpec, plan
from repro.service.events import TERMINAL_STATES
from repro.service.service import JobService
from repro.workloads.distributions import sample_sizes
from repro.workloads.documents import Document, all_pairs_above
from repro.workloads.relations import Relation, Tuple2, generate_join_workload

from bench.harness import Repeat

#: Seed of every size multiset; fixed so that all seeds share one shape.
SHAPE_SEED = 1

_MASK64 = (1 << 64) - 1


def multiset_digest(items: Any) -> tuple[int, int]:
    """Order-free fingerprint of a collection: its length and hash sum.

    Lets a 700k-row join output be compared with the reference without
    building a second copy of either in memory.
    """
    return len(items), sum(map(hash, items)) & _MASK64


def lower_bounds(schema: Any) -> tuple[int, int]:
    """The ``core/bounds.py`` reducer and communication lower bounds."""
    instance = schema.instance
    if isinstance(schema, A2ASchema):
        return (
            a2a_reducer_lower_bound(instance),
            a2a_communication_lower_bound(instance),
        )
    return (
        x2y_reducer_lower_bound(instance),
        x2y_communication_lower_bound(instance),
    )


def pair_counts(schema: Any) -> tuple[int, int]:
    """Pairs the problem requires to meet, and pairs the reducers hold."""
    if isinstance(schema, A2ASchema):
        m = schema.instance.m
        held = sum(len(r) * (len(r) - 1) // 2 for r in schema.reducers)
        return m * (m - 1) // 2, held
    held = sum(len(x) * len(y) for x, y in schema.reducers)
    return schema.instance.m * schema.instance.n, held


class SchemaChecks:
    """The paper's invariants, checked once per distinct schema.

    A schema is valid (no reducer over ``q``, every required pair meets)
    and uses no fewer reducers and no less communication than the lower
    bounds allow.  Repeats rebuild identical schemas, so a schema equal to
    the one already verified under the same key is not verified again.
    """

    def __init__(self) -> None:
        self._verified: dict[Any, Any] = {}

    def __call__(self, key: Any, schema: Any) -> list[str]:
        if self._verified.get(key) == schema.reducers:
            return []
        verify = verify_a2a if isinstance(schema, A2ASchema) else verify_x2y
        report = verify(schema)
        problems = [] if report.valid else [f"{key}: {report.summary()}"]
        reducers_lb, comm_lb = lower_bounds(schema)
        if schema.num_reducers < reducers_lb:
            problems.append(
                f"{key}: {schema.num_reducers} reducers, below the lower "
                f"bound {reducers_lb}"
            )
        if schema.communication_cost < comm_lb:
            problems.append(
                f"{key}: communication {schema.communication_cost}, below "
                f"the lower bound {comm_lb}"
            )
        if not problems:
            self._verified[key] = schema.reducers
        return problems


class BatchWorkload:
    """A workload whose operation is one call of a public entry point."""

    name = ""
    #: Processes that measure one end-to-end run.  A process runs a few
    #: percent faster or slower than the next for its whole life (memory
    #: layout, the core it lands on), so a run pools repeats from several.
    PROCESSES = 3

    def __init__(self) -> None:
        self.schema_checks = SchemaChecks()
        self.warm_results: list[Any] = []

    def setup(self, trace: bool = False) -> None:
        """Finish set-up and run the warmup operation."""
        self.warm_results = [self.call(None)]

    def repeat(self, index: int, traced: bool) -> Repeat:
        if not traced:
            return Repeat([self.call(None)])
        tracer = Tracer()
        with tracer.span("job", category="bench"):
            result = self.call(tracer)
        return Repeat([result], spans=tracer.spans())

    def call(self, tracer: Tracer | None) -> Any:
        raise NotImplementedError

    def plans(self, result: Any) -> list[Any]:
        """Plans made during the operation (not taken from a cache)."""
        return []

    def engines(self, result: Any) -> list[tuple[str | None, Any, Any]]:
        """``(trace id, JobMetrics, EngineMetrics)`` of each engine run."""
        return [(None, result.metrics, result.engine)]

    def service_stats(self) -> dict[str, Any] | None:
        """Job-service counters (a batch workload has no service)."""
        return None

    def close(self) -> None:
        """Release what set-up acquired."""


class SimilarityJoin(BatchWorkload):
    """``run_similarity_join`` over Zipf-sized documents, planned for
    minimum communication."""

    name = "simjoin_zipf"
    Q = 800
    THRESHOLD = 0.2
    VOCABULARY = 500

    def __init__(self, seed: int, scale: float, workdir: str) -> None:
        super().__init__()
        m = max(20, round(600 * scale))
        sizes = sample_sizes("zipf", m, self.Q, seed=SHAPE_SEED)
        rng = random.Random(seed)
        vocabulary = [f"tok{v}" for v in range(self.VOCABULARY)]
        self.documents = [
            Document(i, tuple(rng.choices(vocabulary, k=size)))
            for i, size in enumerate(sizes)
        ]

    def call(self, tracer: Tracer | None) -> Any:
        return run_similarity_join(
            self.documents,
            self.Q,
            self.THRESHOLD,
            method="planned",
            objective="min-communication",
            tracer=tracer,
        )

    def reference(self) -> None:
        self.expected = all_pairs_above(self.documents, self.THRESHOLD)

    def check(self, run: Any) -> list[str]:
        problems = self.schema_checks("simjoin", run.schema)
        pairs = [(a, b) for a, b, _ in run.pairs]
        found = set(pairs)
        if len(found) != len(pairs):
            problems.append("similarity join emitted a pair twice")
        if found != self.expected:
            problems.append(
                f"similarity join found {len(found)} pairs; "
                f"all_pairs_above finds {len(self.expected)}"
            )
        if run.metrics.communication_cost != run.schema.communication_cost:
            problems.append("shipped communication differs from the schema's")
        return problems

    def costs(self, results: list[Any]) -> tuple[float, float]:
        schema = results[0].schema
        return schema.communication_cost, schema.num_reducers

    def schemas(self, run: Any) -> list[Any]:
        return [run.schema]

    def plans(self, run: Any) -> list[Any]:
        return [run.plan]


class SkewJoin(BatchWorkload):
    """``schema_skew_join`` of two Zipf-keyed relations, every heavy key
    fully planned."""

    name = "skewjoin_x2y"
    Q = 60
    KEYS = 50
    SKEW = 1.0

    def __init__(self, seed: int, scale: float, workdir: str) -> None:
        super().__init__()
        n = max(100, round(3000 * scale))
        shape_x, shape_y = generate_join_workload(
            n, n, self.KEYS, self.SKEW, seed=SHAPE_SEED
        )
        rng = random.Random(seed)
        labels = rng.sample(range(self.KEYS), self.KEYS)
        # Unique payloads keep the join output a set, as naive_join has it.
        payloads = iter(rng.sample(range(100 * n), 2 * n))

        def relabel(relation: Relation) -> Relation:
            return Relation(
                relation.name,
                tuple(
                    Tuple2(labels[t.key], next(payloads), t.size)
                    for t in relation.tuples
                ),
            )

        self.x, self.y = relabel(shape_x), relabel(shape_y)

    def call(self, tracer: Tracer | None) -> Any:
        return schema_skew_join(
            self.x, self.y, self.Q, method="planned", tracer=tracer
        )

    def reference(self) -> None:
        self.expected = multiset_digest(naive_join(self.x, self.y))

    def check(self, run: Any) -> list[str]:
        problems: list[str] = []
        for key, schema in sorted(run.schemas.items()):
            problems += self.schema_checks(key, schema)
        if multiset_digest(run.triples) != self.expected:
            problems.append(
                f"skew join emitted {len(run.triples)} triples that differ "
                f"from naive_join's {self.expected[0]}"
            )
        return problems

    def costs(self, results: list[Any]) -> tuple[float, float]:
        metrics = results[0].metrics
        return metrics.communication_cost, metrics.num_reducers

    def schemas(self, run: Any) -> list[Any]:
        return list(run.schemas.values())

    def plans(self, run: Any) -> list[Any]:
        return list(run.plans.values())


def count_reduce(key: Any, values: list[Any]) -> Any:
    """How many records reached the reducer, and their total bytes.

    Module-level so the ``processes`` backend can pickle it.
    """
    yield key, len(values), sum(len(record) for _, record in values)


class A2AShuffle(BatchWorkload):
    """``execute_schema`` of a fast-path A2A schema on the processes
    backend, with a counting reducer, so the data plane dominates."""

    name = "a2a_shuffle"
    Q = 200
    #: Map-side spill budget in buffered pairs at scale 1 (None: in memory).
    BUDGET: int | None = None

    def __init__(self, seed: int, scale: float, workdir: str) -> None:
        super().__init__()
        m = max(40, round(1200 * scale))
        self.sizes = sample_sizes("uniform", m, self.Q, seed=SHAPE_SEED)
        rng = random.Random(seed)
        # Each record is as many bytes as its size, so byte totals per
        # reducer can be checked against the schema's loads.
        self.records = [
            "".join(rng.choices(string.ascii_letters, k=size))
            for size in self.sizes
        ]
        # Shuffled pairs grow with the square of the input count.
        self.memory_budget = (
            None
            if self.BUDGET is None
            else max(16, round(self.BUDGET * scale * scale))
        )
        self.spill_dir = workdir

    def setup(self, trace: bool = False) -> None:
        self.schema = plan(JobSpec.a2a(self.sizes, self.Q)).schema()
        super().setup(trace)

    def call(self, tracer: Tracer | None) -> Any:
        return execute_schema(
            self.schema,
            self.records,
            count_reduce,
            backend="processes",
            num_workers=2,
            memory_budget=self.memory_budget,
            spill_dir=self.spill_dir,
            tracer=tracer,
        )

    def reference(self) -> None:
        self.expected = [
            (r, len(members), sum(self.sizes[i] for i in members))
            for r, members in enumerate(self.schema.reducers)
            if members
        ]

    def check(self, result: Any) -> list[str]:
        problems = self.schema_checks("a2a", self.schema)
        if result.outputs != self.expected:
            problems.append(
                "reducer record counts or byte totals differ from the schema"
            )
        if result.metrics.communication_cost != self.schema.communication_cost:
            problems.append("shipped communication differs from the schema's")
        return problems

    def costs(self, results: list[Any]) -> tuple[float, float]:
        metrics = results[0].metrics
        return metrics.communication_cost, metrics.num_reducers

    def schemas(self, result: Any) -> list[Any]:
        return [self.schema]


class A2ASpill(A2AShuffle):
    """The ``a2a_shuffle`` job under a memory budget, spilling to disk."""

    name = "a2a_spill"
    BUDGET = 20000


#: Size profiles the service draws job shapes from.
PROFILES = ("uniform", "zipf", "normal", "bimodal", "constant")


def draw_spec(rng: random.Random, profile: str, kind: str) -> JobSpec:
    """A feasible, fully planned spec of 12-48 inputs and q in 60-200."""
    while True:
        m = rng.randint(12, 48)
        q = rng.choice((60, 80, 100, 120, 150, 200))
        if kind == "a2a":
            spec = JobSpec.a2a(
                sample_sizes(profile, m, q, seed=rng.randrange(2**31)),
                q,
                method=None,
            )
        else:
            spec = JobSpec.x2y(
                sample_sizes(profile, m // 2, q, seed=rng.randrange(2**31)),
                sample_sizes(profile, m - m // 2, q, seed=rng.randrange(2**31)),
                q,
                method=None,
            )
        try:
            spec.instance().check_feasible()
        except ReproError:
            continue
        return spec


def permuted(spec: JobSpec, rng: random.Random) -> JobSpec:
    """The same job with its inputs in another order: a new cache key."""
    if spec.kind == "a2a":
        sizes = rng.sample(spec.sizes, len(spec.sizes))
        return JobSpec.a2a(sizes, spec.q, method=None)
    return JobSpec.x2y(
        rng.sample(spec.x_sizes, len(spec.x_sizes)),
        rng.sample(spec.y_sizes, len(spec.y_sizes)),
        spec.q,
        method=None,
    )


def expected_outputs(schema: Any) -> list[Any]:
    """What the service's ``collect_reduce`` must emit for *schema*."""
    if isinstance(schema, A2ASchema):
        return [
            (r, tuple(sorted(members)))
            for r, members in enumerate(schema.reducers)
            if members
        ]
    return [
        (r, tuple(sorted([("x", i) for i in xs] + [("y", j) for j in ys])))
        for r, (xs, ys) in enumerate(schema.reducers)
        if xs or ys
    ]


class ServiceMix:
    """``JobService`` under a closed loop of 4 outstanding jobs.

    A session submits 300 jobs: 80% repeat 16 hot shapes whose plans are
    cached during set-up, 20% are fresh orderings of other shapes and are
    planned in full.  a2a and x2y jobs run 2:1.  The loop reads each
    result as soon as the job finishes, because the service's result
    store evicts results that are not read.
    """

    name = "service_mix"
    #: A process serves hot jobs in one of two latency modes for its
    #: whole life, so a run's p95 follows which modes its processes land
    #: in; five processes steady it where three did not.
    PROCESSES = 5
    SLOTS = 2
    OUTSTANDING = 4
    JOBS = 300
    HOT_SHAPES = 16
    FRESH_SHARE = 0.2
    WAIT_S = 120.0

    def __init__(self, seed: int, scale: float, workdir: str) -> None:
        self.seed = seed
        self.jobs = max(20, round(self.JOBS * scale))
        shape = random.Random(SHAPE_SEED)
        self.hot = [
            draw_spec(shape, PROFILES[i % 5], "x2y" if i % 3 == 2 else "a2a")
            for i in range(self.HOT_SHAPES)
        ]
        # Reordering equal sizes gives back the same spec, so fresh
        # shapes skip the constant profile.
        self.templates = [
            draw_spec(shape, PROFILES[i % 4], "x2y" if i % 3 == 2 else "a2a")
            for i in range(round(self.jobs * self.FRESH_SHARE))
        ]
        self.schema_checks = SchemaChecks()
        self.expected: dict[str, list[Any]] = {}
        self.services: dict[bool, tuple[JobService, queue.Queue]] = {}
        self.warm_results: list[Any] = []

    def setup(self, trace: bool = False) -> None:
        """Start the service (and a traced twin) with hot plans cached."""
        # Observations stamp the commit; the checkout need not be a git
        # repository, and the fallback lookup would run git.
        os.environ.setdefault("REPRO_COMMIT", "benchmark")
        for traced in (False, True) if trace else (False,):
            service = JobService(
                self.SLOTS, tracer=Tracer() if traced else None
            )
            warm = [service.submit_spec(spec) for spec in self.hot]
            results = [handle.result(timeout=self.WAIT_S) for handle in warm]
            if not traced:
                self.warm_results = results
            finished: queue.Queue = queue.Queue()
            service.events.subscribe(
                lambda event, sink=finished: sink.put(
                    (event.job_id, event.monotonic)
                )
                if event.state in TERMINAL_STATES
                else None
            )
            self.services[traced] = (service, finished)

    def session_specs(self, index: int) -> list[JobSpec]:
        """Session *index*'s jobs; only their order depends on the seed."""
        fresh = random.Random(SHAPE_SEED * 1_000_003 + index)
        specs = [
            self.hot[i % self.HOT_SHAPES]
            for i in range(self.jobs - len(self.templates))
        ]
        specs += [permuted(spec, fresh) for spec in self.templates]
        random.Random(self.seed * 1_000_003 + index).shuffle(specs)
        return specs

    def repeat(self, index: int, traced: bool) -> Repeat:
        service, finished = self.services[traced]
        specs = iter(self.session_specs(index))
        mark = len(service.tracer)
        pending: dict[str, tuple[float, Any]] = {}
        latencies: list[float] = []
        results: list[Any] = []
        statuses: list[Any] = []

        def submit(spec: JobSpec) -> None:
            started = time.perf_counter()
            handle = service.submit_spec(spec)
            pending[handle.job_id] = (started, handle)

        with service.tracer.span("session", category="bench"):
            for spec in islice(specs, self.OUTSTANDING):
                submit(spec)
            while pending:
                job_id, done_at = finished.get(timeout=self.WAIT_S)
                started, handle = pending.pop(job_id)
                latencies.append(done_at - started)
                try:
                    results.append(handle.result(timeout=self.WAIT_S))
                except ReproError as error:
                    results.append(error)
                statuses.append(handle.status())
                spec = next(specs, None)
                if spec is not None:
                    submit(spec)
        spans = service.tracer.spans()[mark:]
        return Repeat(results, latencies, spans, statuses)

    def reference(self) -> None:
        """A job's reference is its own plan's schema (see :meth:`check`)."""

    def check(self, result: Any) -> list[str]:
        if isinstance(result, Exception):
            return [f"job failed: {type(result).__name__}: {result}"]
        schema = result.plan.schema()
        problems = self.schema_checks(result.fingerprint, schema)
        key = result.fingerprint
        if key not in self.expected:
            self.expected[key] = expected_outputs(schema)
        if result.outputs != self.expected[key]:
            problems.append(
                f"{result.job_id}: outputs differ from its plan's schema"
            )
        return problems

    def costs(self, results: list[Any]) -> tuple[float, float]:
        """Mean communication and reducers per job of the session."""
        done = [r for r in results if not isinstance(r, Exception)]
        if not done:
            return 0.0, 0.0
        return (
            sum(r.metrics.communication_cost for r in done) / len(done),
            sum(r.metrics.num_reducers for r in done) / len(done),
        )

    def schemas(self, result: Any) -> list[Any]:
        return [result.plan.schema()]

    def plans(self, result: Any) -> list[Any]:
        return [] if result.cache_hit else [result.plan]

    def engines(self, result: Any) -> list[tuple[str | None, Any, Any]]:
        return [(result.job_id, result.metrics, result.engine)]

    def service_stats(self) -> dict[str, Any] | None:
        """Counters of the traced service, which per-layer runs use."""
        return self.services[True][0].stats()

    def close(self) -> None:
        for service, _ in self.services.values():
            service.close()


WORKLOADS = {
    cls.name: cls
    for cls in (SimilarityJoin, SkewJoin, A2AShuffle, A2ASpill, ServiceMix)
}
