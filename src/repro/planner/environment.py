"""Execution-environment probe: what the planner knows about the machine.

An environment records two facts: how many workers can actually run at
once, and how much memory is available for the shuffle.  The planner's
execution-configuration rules key on the memory only (every planned job
runs serially); the worker count is part of the snapshot a plan embeds,
and the job service checks requested pools against it.
:meth:`Environment.detect` measures both (worker count via the
scheduling affinity, memory via ``/proc/meminfo`` where it exists);
tests and benchmarks construct :class:`Environment` explicitly so plans
are reproducible on any machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

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
    """A snapshot of the execution environment the planner plans for.

    Attributes:
        num_workers: workers the machine can run at once (>= 1).
        memory_bytes: available memory in bytes, or ``None`` when the
            probe could not measure it (the planner then never sets a
            memory budget on its own).
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

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready dict form."""
        return {
            "num_workers": self.num_workers,
            "memory_bytes": self.memory_bytes,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Environment":
        """Rebuild from :meth:`to_dict` form."""
        return cls(
            num_workers=payload.get("num_workers", 1),
            memory_bytes=payload.get("memory_bytes"),
        )
