"""Per-rule behaviour against the golden fixtures and targeted snippets."""

from __future__ import annotations

from pathlib import Path

from repro.analysis.lint import load_module, run_rules
from repro.analysis.lint.rules import (
    DeterminismRule,
    ExceptionTaxonomyRule,
    LockDisciplineRule,
    PickleSafetyRule,
    all_rules,
)

FIXTURES = Path(__file__).parent / "fixtures" / "lint"


def lint_fixture(name, rule):
    info = load_module(FIXTURES / name)
    findings, _ = run_rules(info, [rule])
    return findings


def lint_source(tmp_path, source, rule, module_path="repro/engine/mod.py"):
    path = tmp_path / module_path
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    info = load_module(path, root=tmp_path)
    findings, _ = run_rules(info, [rule])
    return findings


class TestDeterminismRule:
    def test_positive_fixture_flags_every_entropy_source(self):
        findings = lint_fixture("pos_determinism.py", DeterminismRule())
        messages = " ".join(f.message for f in findings)
        assert len(findings) == 5
        assert "`random` module" in messages
        assert "time.time" in messages
        assert "uuid.uuid4" in messages
        assert "os.environ" in messages
        assert "iterating a set" in messages

    def test_negative_fixture_is_clean(self):
        assert lint_fixture("neg_determinism.py", DeterminismRule()) == []

    def test_aliased_import_still_caught(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "import random as rnd\nx = rnd.random()\n",
            DeterminismRule(),
        )
        assert [f.rule for f in findings] == ["determinism"]

    def test_from_import_still_caught(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "from time import time\nnow = time()\n",
            DeterminismRule(),
        )
        assert len(findings) == 1
        assert "time.time" in findings[0].message

    def test_set_literal_iteration_caught_sorted_allowed(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "out = [k for k in {1, 2, 3}]\nok = [k for k in sorted({1, 2})]\n",
            DeterminismRule(),
        )
        assert len(findings) == 1
        assert findings[0].line == 1

    def test_set_difference_iteration_caught(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def f(a, b):\n    return [k for k in set(a) - set(b)]\n",
            DeterminismRule(),
        )
        assert len(findings) == 1


class TestPickleSafetyRule:
    def test_positive_fixture_flags_lambda_nested_and_capture(self):
        findings = lint_fixture("pos_pickle_safety.py", PickleSafetyRule())
        messages = [f.message for f in findings]
        assert len(findings) == 3
        assert any("lambda" in m for m in messages)
        assert any("not importable by name" in m for m in messages)
        assert any(
            "closes over unpicklable state (lock)" in m for m in messages
        )

    def test_negative_fixture_is_clean(self):
        assert lint_fixture("neg_pickle_safety.py", PickleSafetyRule()) == []

    def test_partial_of_lambda_caught(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "from functools import partial\n"
            "def go(backend, items):\n"
            "    return backend.run_tasks(partial(lambda x, k: x * k, k=2),"
            " items)\n",
            PickleSafetyRule(),
        )
        assert len(findings) == 1
        assert "lambda" in findings[0].message

    def test_keyword_fn_argument_checked(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def go(backend, items, policy):\n"
            "    return backend.run_tasks(\n"
            "        fn=lambda x: x, tasks=items, policy=policy\n"
            "    )\n",
            PickleSafetyRule(),
        )
        assert len(findings) == 1

    def test_module_level_name_not_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def task(x):\n"
            "    return x\n"
            "def go(backend, items, policy):\n"
            "    return backend.run_tasks(task, items, policy=policy)\n",
            PickleSafetyRule(),
        )
        assert findings == []


class TestExceptionTaxonomyRule:
    def test_positive_fixture_flags_each_builtin(self):
        findings = lint_fixture(
            "pos_exception_taxonomy.py", ExceptionTaxonomyRule()
        )
        raised = sorted(f.message for f in findings)
        assert len(findings) == 3
        assert any("ValueError" in m for m in raised)
        assert any("RuntimeError" in m for m in raised)
        assert any("KeyError" in m for m in raised)

    def test_negative_fixture_is_clean(self):
        assert (
            lint_fixture("neg_exception_taxonomy.py", ExceptionTaxonomyRule())
            == []
        )

    def test_only_execution_layers_in_scope(self, tmp_path):
        source = "def f():\n    raise ValueError('nope')\n"
        in_scope = lint_source(
            tmp_path, source, ExceptionTaxonomyRule(), "repro/service/x.py"
        )
        out_of_scope = lint_source(
            tmp_path, source, ExceptionTaxonomyRule(), "repro/core/x.py"
        )
        assert len(in_scope) == 1
        assert out_of_scope == []

    def test_bare_builtin_without_call_caught(self, tmp_path):
        findings = lint_source(
            tmp_path, "def f():\n    raise RuntimeError\n",
            ExceptionTaxonomyRule(),
        )
        assert len(findings) == 1


class TestLockDisciplineRule:
    def test_positive_fixture_flags_each_blocking_call(self):
        findings = lint_fixture(
            "pos_lock_discipline.py", LockDisciplineRule()
        )
        messages = " ".join(f.message for f in findings)
        assert len(findings) == 4
        assert ".result()" in messages
        assert "join()" in messages
        assert "time.sleep" in messages
        assert "open" in messages

    def test_negative_fixture_is_clean(self):
        assert (
            lint_fixture("neg_lock_discipline.py", LockDisciplineRule()) == []
        )

    def test_deferred_body_under_lock_not_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "class S:\n"
            "    def f(self):\n"
            "        with self._lock:\n"
            "            return lambda fut: fut.result()\n",
            LockDisciplineRule(),
        )
        assert findings == []

    def test_non_lock_context_manager_not_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def f(pool, fut):\n"
            "    with pool:\n"
            "        return fut.result()\n",
            LockDisciplineRule(),
        )
        assert findings == []

    def test_string_join_not_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def f(self, parts):\n"
            "    with self._lock:\n"
            "        return ', '.join(parts)\n",
            LockDisciplineRule(),
        )
        assert findings == []


def test_every_rule_has_catalogue_metadata():
    for rule in all_rules():
        assert rule.rule_id
        assert rule.description
        assert rule.severity in ("info", "warning", "error")
        assert isinstance(rule.scopes, tuple)
