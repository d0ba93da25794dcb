"""Execution-environment probe: what a run knows about the machine.

An environment records two facts: how many workers can actually run at
once, and how much memory is available for the shuffle.  No plan reads
it.  :func:`~repro.planner.planner.resolve_execution_config` keys on the
memory only (every job run without a config runs serially) when a plan
runs, and the job service checks requested pools against the worker
count.  :meth:`Environment.detect` measures both (worker count via the
scheduling affinity, memory via ``/proc/meminfo`` where it exists);
tests construct :class:`Environment` explicitly so resolved configs are
reproducible on any machine.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.backends import available_workers
from repro.exceptions import InvalidInstanceError


def _probe_available_memory() -> int | None:
    """Available memory in bytes from ``/proc/meminfo``; ``None`` when unknown."""
    try:
        with open("/proc/meminfo") as handle:
            for line in handle:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):  # pragma: no cover - non-Linux
        return None
    return None  # pragma: no cover - MemAvailable missing


@dataclass(frozen=True)
class Environment:
    """A snapshot of the machine a plan runs on.

    Attributes:
        num_workers: workers the machine can run at once (>= 1).
        memory_bytes: available memory in bytes, or ``None`` when the
            probe could not measure it (a resolved config then never
            sets a memory budget).
    """

    num_workers: int
    memory_bytes: int | None = None

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise InvalidInstanceError(
                f"num_workers must be >= 1, got {self.num_workers}"
            )
        if self.memory_bytes is not None and self.memory_bytes <= 0:
            raise InvalidInstanceError(
                f"memory_bytes must be positive, got {self.memory_bytes}"
            )

    @classmethod
    def detect(cls) -> "Environment":
        """Probe the current machine (affinity-aware cores, MemAvailable)."""
        return cls(
            num_workers=available_workers(),
            memory_bytes=_probe_available_memory(),
        )

