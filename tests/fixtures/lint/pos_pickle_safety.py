"""Positive fixture: task callables that cannot cross the process boundary."""

import threading


def run_with_lambda(backend, items):
    return backend.run_tasks(lambda x: x * 2, items)


def run_with_nested(backend, items):
    def task(x):
        return x * 2

    return backend.run_tasks(task, items)


def run_with_captured_lock(backend, items, policy):
    lock = threading.Lock()
    results = []

    def task(x):
        with lock:
            results.append(x)
        return x

    return backend.run_tasks(task, items, policy=policy)
