"""Shared fixtures.

Unit tests build their own tiny objects; the fixtures here cover the
recurring needs: the two chip presets, a small deterministic platform,
simple workloads, and (for integration tests) a session-scoped
quick-scale experiment context so the expensive training happens once
per test session.
"""

import numpy as np
import pytest

from repro.experiments.common import ExperimentContext
from repro.hardware.microarch import FX8320_SPEC, PHENOM_II_SPEC
from repro.hardware.platform import CoreAssignment, Platform
from repro.workloads.synthetic import (
    make_cpu_bound,
    make_memory_bound,
    make_mixed,
    make_phased,
)


@pytest.fixture
def spec():
    return FX8320_SPEC


@pytest.fixture
def phenom_spec():
    return PHENOM_II_SPEC


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def platform(spec):
    """A fresh FX-8320 platform, deterministic seed, PG off."""
    return Platform(spec, seed=123)


@pytest.fixture
def pg_platform(spec):
    """A platform with power gating enabled."""
    return Platform(spec, seed=123, power_gating=True)


@pytest.fixture
def cpu_workload():
    return make_cpu_bound("test-cpu")


@pytest.fixture
def mem_workload():
    return make_memory_bound("test-mem")


@pytest.fixture
def mixed_workload():
    return make_mixed("test-mixed")


@pytest.fixture
def phased_workload():
    return make_phased("test-phased")


@pytest.fixture
def busy_platform(platform, cpu_workload):
    """Platform with one CPU-bound workload on core 0."""
    platform.set_assignment(CoreAssignment.packed([cpu_workload]))
    return platform


@pytest.fixture(scope="session")
def quick_ctx():
    """A quick-scale experiment context, shared across the session.

    Training on the quick roster costs a few seconds; integration tests
    share one instance.
    """
    return ExperimentContext(scale="quick")


def make_tiny_registry():
    """A fleet model registry with a minimal training config."""
    from repro.fleet import ModelRegistry
    from repro.workloads.suites import spec_combinations

    return ModelRegistry(
        combos=spec_combinations()[:3], bench_intervals=4, cool_intervals=20
    )


@pytest.fixture(scope="session")
def tiny_registry():
    """:func:`make_tiny_registry`, shared across the session so each SKU
    trains at most once."""
    return make_tiny_registry()
