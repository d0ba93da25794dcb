"""Rule ``pickle-safety``: task callables must survive the process boundary.

Everything submitted through ``Backend.run_tasks`` (with or without a
retry ``policy=``) may be pickled to a worker process.  Lambdas and
functions defined inside other functions are not importable by name, so
they fail at dispatch time on the process backend only — exactly the kind
of backend-dependent behaviour the determinism contract forbids.  Worse, a
nested task function can close over a lock, pool, or tracer from the
enclosing scope; even where it *does* pickle (thread backend), the capture
smuggles shared mutable state into what must be a pure task.

Allowed idiom: a module-level function, optionally pre-bound with
``functools.partial`` (partials of importable functions pickle fine) — see
``engine._run_routed_map_task`` / ``_run_routed_reduce_task``.
"""

from __future__ import annotations

import ast

from repro.analysis.lint.engine import LintRule, ModuleInfo
from repro.analysis.lint.findings import Finding
from repro.analysis.lint.rules.common import (
    ImportResolver,
    enclosing_functions,
    link_parents,
)

#: Constructors whose results never pickle (and should never ride along
#: in a task closure even when they would).
_UNPICKLABLE_FACTORIES = {
    "threading.Lock",
    "threading.RLock",
    "threading.Condition",
    "threading.Semaphore",
    "threading.BoundedSemaphore",
    "threading.Event",
    "concurrent.futures.ThreadPoolExecutor",
    "concurrent.futures.ProcessPoolExecutor",
    "multiprocessing.Pool",
    "multiprocessing.Manager",
}

_SUBMIT_METHODS = ("run_tasks",)


class PickleSafetyRule(LintRule):
    rule_id = "pickle-safety"
    severity = "error"
    description = (
        "functions submitted to a Backend must be module-level importable;"
        " no closures over locks, pools, or tracers"
    )
    # Anywhere in the library someone might submit work to a backend.
    scopes = ("repro",)

    def check(self, info: ModuleInfo) -> list[Finding]:
        link_parents(info.tree)
        resolver = ImportResolver(info.tree)
        nested_defs = _nested_function_defs(info.tree)
        findings: list[Finding] = []
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call):
                continue
            if not _is_submit_call(node):
                continue
            fn_arg = _task_fn_argument(node)
            if fn_arg is None:
                continue
            findings.extend(
                self._check_task_fn(info, resolver, nested_defs, fn_arg)
            )
        return findings

    def _check_task_fn(
        self,
        info: ModuleInfo,
        resolver: ImportResolver,
        nested_defs: dict[str, list[ast.FunctionDef | ast.AsyncFunctionDef]],
        fn_arg: ast.expr,
    ) -> list[Finding]:
        if isinstance(fn_arg, ast.Lambda):
            return [
                self.finding(
                    info,
                    fn_arg,
                    "lambda passed as a task function cannot cross the"
                    " process boundary",
                    "define a module-level function (use functools.partial"
                    " to pre-bind arguments)",
                )
            ]
        if isinstance(fn_arg, ast.Call):
            # functools.partial(fn, ...): check what it wraps.
            canonical = resolver.resolve(fn_arg.func)
            if canonical in ("functools.partial", "partial") and fn_arg.args:
                return self._check_task_fn(
                    info, resolver, nested_defs, fn_arg.args[0]
                )
            return []
        if isinstance(fn_arg, ast.Name) and fn_arg.id in nested_defs:
            target = _nearest_definition(nested_defs[fn_arg.id], fn_arg)
            captured = _captured_unpicklables(target, resolver)
            if captured:
                names = ", ".join(sorted(captured))
                return [
                    self.finding(
                        info,
                        fn_arg,
                        f"task function `{fn_arg.id}` closes over"
                        f" unpicklable state ({names})",
                        "pass data, not synchronization objects; keep task"
                        " functions pure and module-level",
                    )
                ]
            return [
                self.finding(
                    info,
                    fn_arg,
                    f"task function `{fn_arg.id}` is defined inside another"
                    " function and is not importable by name",
                    "move it to module level (use functools.partial to"
                    " pre-bind arguments)",
                )
            ]
        return []


def _is_submit_call(node: ast.Call) -> bool:
    if isinstance(node.func, ast.Attribute):
        return node.func.attr in _SUBMIT_METHODS
    if isinstance(node.func, ast.Name):
        return node.func.id in _SUBMIT_METHODS
    return False


def _task_fn_argument(node: ast.Call) -> ast.expr | None:
    for keyword in node.keywords:
        if keyword.arg == "fn":
            return keyword.value
    if node.args:
        return node.args[0]
    return None


def _nearest_definition(
    candidates: list[ast.FunctionDef | ast.AsyncFunctionDef],
    use_site: ast.expr,
) -> ast.FunctionDef | ast.AsyncFunctionDef:
    """The candidate def visible from ``use_site`` (same enclosing scope).

    Same-name nested functions can live in different enclosing functions;
    lexical scoping means the use site sees the one defined in its own
    enclosing chain.  Falls back to the last definition when none match.
    """
    enclosing = set(map(id, enclosing_functions(use_site)))
    for candidate in reversed(candidates):
        scopes = enclosing_functions(candidate)
        if scopes and id(scopes[0]) in enclosing:
            return candidate
    return candidates[-1]


def _nested_function_defs(
    tree: ast.AST,
) -> dict[str, list[ast.FunctionDef | ast.AsyncFunctionDef]]:
    """Name -> defs for every function defined inside another function."""
    nested: dict[str, list[ast.FunctionDef | ast.AsyncFunctionDef]] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if enclosing_functions(node):
                nested.setdefault(node.name, []).append(node)
    return nested


def _captured_unpicklables(
    target: ast.FunctionDef | ast.AsyncFunctionDef,
    resolver: ImportResolver,
) -> set[str]:
    """Names the task fn loads that enclosing scopes bind to locks/pools."""
    suspect_bindings: set[str] = set()
    for scope in enclosing_functions(target):
        for node in ast.walk(scope):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                canonical = resolver.resolve(node.value.func)
                if canonical in _UNPICKLABLE_FACTORIES or (
                    canonical is not None
                    and canonical.split(".")[-1]
                    in {c.split(".")[-1] for c in _UNPICKLABLE_FACTORIES}
                ):
                    for tgt in node.targets:
                        if isinstance(tgt, ast.Name):
                            suspect_bindings.add(tgt.id)
    if not suspect_bindings:
        return set()
    local_bindings = {
        arg.arg
        for arg in list(target.args.args)
        + list(target.args.posonlyargs)
        + list(target.args.kwonlyargs)
    }
    loaded: set[str] = set()
    for node in ast.walk(target):
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Store):
                local_bindings.add(node.id)
            elif node.id not in local_bindings:
                loaded.add(node.id)
    return loaded & suspect_bindings
