"""Self-lint: the shipped tree is clean, and seeded regressions are caught.

The acceptance bar for the lint subsystem: ``repro lint`` over the
installed package exits clean against the *empty* committed baseline, every
inline suppression carries a reason, and deliberately re-introducing the
failure modes the rules exist for (an unseeded ``random.random()`` in the
engine, a closure-captured lock as a task function) is caught.
"""

from __future__ import annotations

from pathlib import Path

import repro
from repro.analysis.lint import all_rules, lint_paths, load_module, run_rules

PACKAGE_DIR = Path(repro.__file__).resolve().parent
SRC_ROOT = PACKAGE_DIR.parent


def test_repo_tree_is_lint_clean():
    report = lint_paths([PACKAGE_DIR], all_rules(), root=SRC_ROOT)
    assert report.findings == [], "\n".join(
        f.render() for f in report.sorted_findings()
    )
    # Every module of the package was walked, not just a few.
    assert report.files_checked == len(list(PACKAGE_DIR.rglob("*.py")))


def test_committed_baseline_is_empty():
    baseline = Path(__file__).parent.parent / "lint-baseline.json"
    if not baseline.exists():
        return  # running from an installed copy without the repo root
    import json

    payload = json.loads(baseline.read_text())
    assert payload["findings"] == []


def test_every_suppression_in_tree_has_a_reason():
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        info = load_module(path, root=SRC_ROOT)
        for suppression in info.suppressions:
            assert suppression.reason, (
                f"{info.relpath}:{suppression.line}: suppression without a"
                " reason string"
            )


def _lint_mutated(tmp_path, original: Path, mutate, rel: str):
    """Copy a real module under its package path, apply ``mutate`` to the
    source, and lint the result with the module's true dotted name."""
    target = tmp_path / rel
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(mutate(original.read_text()))
    info = load_module(target, root=tmp_path)
    findings, _ = run_rules(info, all_rules())
    return findings


def test_unseeded_random_in_engine_is_caught(tmp_path):
    """Inserting ``random.random()`` into engine/engine.py trips the gate."""
    original = PACKAGE_DIR / "engine" / "engine.py"

    def mutate(source: str) -> str:
        tainted = source.replace(
            "def _run_routed_reduce_task(",
            "def _jitter():\n"
            "    import random\n"
            "    return random.random()\n"
            "\n\n"
            "def _run_routed_reduce_task(",
            1,
        )
        assert tainted != source, (
            "engine.py no longer defines _run_routed_reduce_task"
        )
        return tainted

    findings = _lint_mutated(
        tmp_path, original, mutate, "repro/engine/engine.py"
    )
    determinism = [f for f in findings if f.rule == "determinism"]
    assert len(determinism) == 1
    assert "`random` module" in determinism[0].message


def test_closure_captured_lock_task_is_caught(tmp_path):
    """A task function closing over a lock trips pickle-safety."""
    source = (
        "import threading\n"
        "\n"
        "def dispatch(backend, items, policy):\n"
        "    lock = threading.Lock()\n"
        "    seen = []\n"
        "    def task(x):\n"
        "        with lock:\n"
        "            seen.append(x)\n"
        "        return x\n"
        "    return backend.run_tasks(task, items, policy=policy)\n"
    )
    path = tmp_path / "repro" / "engine" / "tainted.py"
    path.parent.mkdir(parents=True)
    path.write_text(source)
    info = load_module(path, root=tmp_path)
    findings, _ = run_rules(info, all_rules())
    pickle = [f for f in findings if f.rule == "pickle-safety"]
    assert len(pickle) == 1
    assert "closes over unpicklable state (lock)" in pickle[0].message


def test_wall_clock_in_service_without_suppression_is_caught(tmp_path):
    """Removing a suppression resurfaces the wall-clock finding."""
    original = PACKAGE_DIR / "service" / "events.py"

    def mutate(source: str) -> str:
        lines = [
            line
            for line in source.splitlines(keepends=True)
            if "repro-lint: disable" not in line
        ]
        return "".join(lines)

    findings = _lint_mutated(
        tmp_path, original, mutate, "repro/service/events.py"
    )
    determinism = [f for f in findings if f.rule == "determinism"]
    assert len(determinism) == 1
    assert "time.time" in determinism[0].message
