"""Rule ``lock-discipline``: no blocking calls while holding a lock.

The scheduler and service hold their locks only for state flips: waiting
on a future, joining a thread, sleeping, or doing file I/O inside a
``with <lock>:`` block turns a mutex into a convoy (every submitter and
status query stalls behind the blocked holder) and is one worker-death
away from a deadlock.  The codebase convention — visible in
``JobScheduler.shutdown`` and ``Backend._heal_broken_pool`` — is to snapshot
state under the lock, release it, then block.

``Condition.wait``/``wait_for`` are exempt: they release the lock while
blocking, which is the whole point of a condition variable.  The check is
lexical (it looks inside the ``with`` body, skipping nested function
definitions), so stashing a blocking call behind a helper method defeats
it — the rule catches the common regression, not an adversary.
"""

from __future__ import annotations

import ast
import re

from repro.analysis.lint.engine import LintRule, ModuleInfo
from repro.analysis.lint.findings import Finding
from repro.analysis.lint.rules.common import ImportResolver, terminal_name

_LOCK_NAME_RE = re.compile(r"lock|mutex", re.IGNORECASE)
_THREADISH_RE = re.compile(r"thread|worker|proc|pool", re.IGNORECASE)


class LockDisciplineRule(LintRule):
    rule_id = "lock-discipline"
    severity = "error"
    description = (
        "no blocking calls (future.result(), thread join, sleep, file I/O)"
        " while holding a scheduler/service lock"
    )
    scopes = ("repro.service", "repro.engine")

    def check(self, info: ModuleInfo) -> list[Finding]:
        resolver = ImportResolver(info.tree)
        findings: list[Finding] = []
        for node in ast.walk(info.tree):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            lock_expr = _held_lock(node)
            if lock_expr is None:
                continue
            for call in _calls_in_body(node):
                message, hint = _blocking_call(call, resolver)
                if message is not None:
                    findings.append(
                        self.finding(
                            info,
                            call,
                            f"{message} while holding `{lock_expr}`",
                            hint or "snapshot state under the lock, release"
                            " it, then block",
                        )
                    )
        return findings


def _held_lock(node: ast.With | ast.AsyncWith) -> str | None:
    """Dotted text of the first context manager that looks like a lock."""
    for item in node.items:
        expr = item.context_expr
        if isinstance(expr, ast.Call):
            # e.g. ``with self._lock.acquire_timeout(...)`` — inspect the
            # receiver, not the call.
            expr = expr.func
        name = terminal_name(expr)
        if name and _LOCK_NAME_RE.search(name):
            return ast.unparse(item.context_expr)
    return None


def _calls_in_body(node: ast.With | ast.AsyncWith) -> list[ast.Call]:
    """Every call lexically inside the with body, skipping nested defs."""
    calls: list[ast.Call] = []
    stack: list[ast.AST] = list(node.body)
    while stack:
        current = stack.pop()
        if isinstance(
            current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue  # deferred bodies do not run while the lock is held
        if isinstance(current, ast.Call):
            calls.append(current)
        stack.extend(ast.iter_child_nodes(current))
    return calls


def _blocking_call(
    call: ast.Call, resolver: ImportResolver
) -> tuple[str | None, str | None]:
    """(message, hint) when ``call`` blocks, else (None, None)."""
    func = call.func
    canonical = resolver.resolve(func)
    if canonical == "time.sleep":
        return ("`time.sleep` call", "sleep after releasing the lock")
    if isinstance(func, ast.Name) and func.id == "open":
        return (
            "file I/O (`open`) call",
            "do I/O outside the critical section",
        )
    if isinstance(func, ast.Attribute):
        if func.attr == "result":
            return (
                "`.result()` wait on a future",
                "collect futures under the lock, wait on them after"
                " releasing it",
            )
        if func.attr == "join" and _THREADISH_RE.search(
            terminal_name(func.value)
        ):
            return (
                f"`{terminal_name(func.value)}.join()` call",
                "snapshot the workers under the lock, join them after"
                " releasing it",
            )
    return (None, None)
