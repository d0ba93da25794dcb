"""Rule ``determinism``: no hidden entropy in result-affecting paths.

The stack's headline contract is byte-identical output across the serial,
thread, and process backends.  Anything that reads ambient state — the
global ``random`` module, ``uuid1``/``uuid4``, the wall clock, environment
variables, OS entropy — or that iterates a set in hash order can silently
break that contract in a way the cross-backend identity tests only catch
when the divergent path happens to run.  This rule flags those reads at
lint time.

Allowed idioms: seeded ``numpy`` generators via
:func:`repro.utils.rng.make_rng`, monotonic clocks
(``time.perf_counter``/``time.monotonic``) for intervals, and
``sorted(...)`` around any set before iterating it.  Observability and
fault modules are out of scope — wall-clock timestamps for humans live
there on purpose.
"""

from __future__ import annotations

import ast

from repro.analysis.lint.engine import LintRule, ModuleInfo
from repro.analysis.lint.findings import Finding
from repro.analysis.lint.rules.common import ImportResolver

#: Canonical dotted paths whose mere use is nondeterministic.
_BANNED_EXACT: dict[str, tuple[str, str]] = {
    "time.time": (
        "wall-clock read (`time.time`) in a result-affecting path",
        "use time.perf_counter/time.monotonic for intervals; suppress with a"
        " reason if the value is display-only",
    ),
    "time.time_ns": (
        "wall-clock read (`time.time_ns`) in a result-affecting path",
        "use time.perf_counter/time.monotonic for intervals; suppress with a"
        " reason if the value is display-only",
    ),
    "uuid.uuid1": (
        "nondeterministic id (`uuid.uuid1`) in a result-affecting path",
        "derive ids from seeded state or take them as input",
    ),
    "uuid.uuid4": (
        "nondeterministic id (`uuid.uuid4`) in a result-affecting path",
        "derive ids from seeded state or take them as input",
    ),
    "os.environ": (
        "environment read (`os.environ`) can change results between runs",
        "pass configuration explicitly through the API",
    ),
    "os.getenv": (
        "environment read (`os.getenv`) can change results between runs",
        "pass configuration explicitly through the API",
    ),
    "os.urandom": (
        "OS entropy (`os.urandom`) in a result-affecting path",
        "use repro.utils.rng.make_rng(seed) for reproducible randomness",
    ),
}


class DeterminismRule(LintRule):
    rule_id = "determinism"
    severity = "error"
    description = (
        "no unseeded randomness, wall-clock reads, environment reads, or"
        " set-order iteration in result-affecting paths"
    )
    scopes = (
        "repro.core",
        "repro.engine",
        "repro.binpack",
        "repro.planner",
        "repro.covering",
        "repro.apps",
        "repro.workloads",
        "repro.service",
        "repro.dataset",
        "repro.analysis",
    )

    def check(self, info: ModuleInfo) -> list[Finding]:
        resolver = ImportResolver(info.tree)
        findings: list[Finding] = []
        flagged: set[int] = set()

        def flag(node: ast.AST, message: str, hint: str) -> None:
            if id(node) in flagged:
                return
            flagged.add(id(node))
            findings.append(self.finding(info, node, message, hint))

        for node in ast.walk(info.tree):
            if isinstance(node, (ast.Attribute, ast.Name)):
                if isinstance(node.ctx, (ast.Store, ast.Del)):
                    continue
                canonical = resolver.resolve(node)
                if canonical is None:
                    continue
                if canonical in _BANNED_EXACT:
                    message, hint = _BANNED_EXACT[canonical]
                    flag(node, message, hint)
                    # keep the inner chain from double-reporting
                    for inner in ast.walk(node):
                        flagged.add(id(inner))
                elif canonical == "random" or canonical.startswith("random."):
                    flag(
                        node,
                        f"use of the global `random` module (`{canonical}`)"
                        " is unseeded across backends",
                        "use repro.utils.rng.make_rng(seed) and thread the"
                        " Generator explicitly",
                    )
                    for inner in ast.walk(node):
                        flagged.add(id(inner))
            elif isinstance(node, (ast.For, ast.comprehension)):
                iterable = node.iter
                if _is_set_valued(iterable):
                    flag(
                        iterable,
                        "iterating a set: element order is arbitrary and can"
                        " differ between runs",
                        "wrap the set in sorted(...) before iterating",
                    )
        return findings


def _is_set_valued(node: ast.AST) -> bool:
    """True for expressions that are literally a set at this node.

    Catches ``set(...)``/``frozenset(...)`` calls, set displays and
    comprehensions, and unions/intersections/differences of those.  A
    ``sorted(...)`` wrapper makes the *call to sorted* the iterable, so
    wrapped sets never reach here.
    """
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_valued(node.left) or _is_set_valued(node.right)
    return False
