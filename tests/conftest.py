"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.core.instance import A2AInstance, X2YInstance

# ``HYPOTHESIS_PROFILE=ci`` runs property tests that set no example count of
# their own ten times longer (CI's tier-1 step does); the default profile
# keeps local runs short.
settings.register_profile("ci", max_examples=1000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def small_a2a() -> A2AInstance:
    """A tiny mixed-size A2A instance every pair of which co-fits."""
    return A2AInstance([3, 5, 2, 7, 4], q=12)


@pytest.fixture
def equal_a2a() -> A2AInstance:
    """An equal-sized A2A instance with k = q // w = 4."""
    return A2AInstance.equal_sized(m=20, w=2, q=8)


@pytest.fixture
def big_a2a() -> A2AInstance:
    """An A2A instance containing inputs above q // 2 (big inputs)."""
    return A2AInstance([10, 9, 2, 3, 4, 5], q=19)


@pytest.fixture
def small_x2y() -> X2YInstance:
    """A tiny mixed-size X2Y instance."""
    return X2YInstance([4, 5, 6], [3, 3, 7], q=14)


@pytest.fixture
def big_x2y() -> X2YInstance:
    """An X2Y instance with big inputs on both sides."""
    return X2YInstance([9, 2, 3], [8, 2, 2], q=17)
