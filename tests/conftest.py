"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic per-test RNG."""
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture(autouse=True)
def _metrics_isolation():
    """Keep the process-wide metrics state isolated between tests.

    CLI commands switch collection on globally and service runs fold
    their queries into the process registry that ``/metrics`` renders;
    without this fixture a test running after them would collect (or
    read) metrics it never asked for.
    """
    from repro import metrics
    from repro.obs import profile
    was_enabled = metrics.get_registry().enabled
    profiling_was_on = profile.profiling_enabled()
    yield
    if was_enabled:
        metrics.enable()
    else:
        metrics.disable()
    metrics.get_registry().reset()
    # The kernel profiler follows the same discipline: CLI commands
    # enable it process-wide, so restore and clear its global aggregate.
    if profiling_was_on:
        profile.enable()
    else:
        profile.disable()
    profile.reset_global_profile()


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running integration test (still in the "
        "default run; deselect with -m 'not slow')")
