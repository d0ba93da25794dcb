"""Experiment harness: tradeoff sweeps and approximation-ratio studies."""

from repro.analysis.tradeoffs import (
    sweep_a2a_communication,
    sweep_a2a_parallelism,
    sweep_a2a_reducers,
    sweep_x2y_reducers,
)
from repro.analysis.ratios import RatioSummary, a2a_ratio_study, x2y_ratio_study
from repro.analysis.frontier import FrontierPoint, best_capacity, capacity_frontier
from repro.analysis.schedule import ScheduleResult, schedule_loads

__all__ = [
    "sweep_a2a_communication",
    "sweep_a2a_parallelism",
    "sweep_a2a_reducers",
    "sweep_x2y_reducers",
    "RatioSummary",
    "a2a_ratio_study",
    "x2y_ratio_study",
    "FrontierPoint",
    "best_capacity",
    "capacity_frontier",
    "ScheduleResult",
    "schedule_loads",
]
