"""Fixtures shared by the spatial index tests.

Also registers a ``ci`` hypothesis profile with many more examples;
``HYPOTHESIS_PROFILE=ci`` selects it, and without the variable the
hypothesis defaults apply.  Tests that pin ``max_examples`` in their
own ``@settings`` keep their count under either profile.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("ci", max_examples=1000, deadline=None)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])


def make_workload(rng, k=500, ndim=4, unbounded=True):
    """Random rectangles, some with ray/wildcard sides, plus probe points."""
    centers = rng.uniform(0, 20, size=(k, ndim))
    half = rng.pareto(1.5, size=(k, ndim)) + 0.05
    lows = centers - half
    highs = centers + half
    if unbounded:
        highs[rng.random(k) < 0.15, ndim - 1] = np.inf
        lows[rng.random(k) < 0.15, ndim - 2] = -np.inf
        full = rng.random(k) < 0.05
        lows[full, 0] = -np.inf
        highs[full, 0] = np.inf
    points = rng.uniform(-3, 23, size=(200, ndim))
    return lows, highs, points


@pytest.fixture()
def workload(rng):
    return make_workload(rng)


@pytest.fixture()
def bounded_workload(rng):
    return make_workload(rng, unbounded=False)
