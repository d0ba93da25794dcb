"""Negative fixture: the sanctioned module-level + partial task idiom."""

from functools import partial


def double(x, factor=2):
    return x * factor


def run_module_level(backend, items):
    return backend.run_tasks(double, items)


def run_partial(backend, items, factor, policy):
    return backend.run_tasks(
        partial(double, factor=factor), items, policy=policy
    )
