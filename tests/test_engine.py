"""The vector kernel against the scalar oracle.

:meth:`Platform.step` always runs the batched
:class:`~repro.hardware.engine.VectorEngine`.  The per-slice reference
loop survives as the private ``Platform._step_scalar``, and
:class:`ScalarPlatform` (a test-only subclass) steps through it, so the
kernel must reproduce the oracle's interval samples -- same RNG draw
order, same arithmetic to within 1e-9 relative (batching reassociates a
few sums at the 1e-15 level; see ``repro/hardware/engine.py``).  These
tests sweep the scenarios that exercise every fallback path: idle
cores, mixed rosters, VF transitions with a non-zero switching penalty,
power gating, migration, NB states, and finite workloads completing
mid-interval.
"""

import pytest

from repro.hardware.microarch import FX8320_SPEC, PHENOM_II_SPEC
from repro.hardware.platform import CoreAssignment, Platform
from repro.hardware.vfstates import NB_VF_LO
from repro.workloads.synthetic import (
    make_cpu_bound,
    make_memory_bound,
    make_mixed,
    make_phased,
)

REL_TOL = 1e-9


def _mixed_roster(n):
    factories = (make_cpu_bound, make_memory_bound, make_mixed, make_phased)
    return [
        factories[i % len(factories)]("wl-{}".format(i)) for i in range(n)
    ]


def _sample_fields(sample):
    """Every numeric field of an interval sample, flattened."""
    fields = [
        sample.time,
        sample.measured_power,
        sample.true_power,
        sample.temperature,
        sample.nb_utilisation,
    ]
    fields.extend(sample.power_samples)
    fields.extend(sample.instructions)
    for vec in sample.core_events:
        fields.extend(vec.as_list())
    for vec in sample.true_core_events:
        fields.extend(vec.as_list())
    if sample.breakdown is not None:
        b = sample.breakdown
        fields.extend(
            [
                b.base, b.cu_leakage, b.cu_active_idle, b.core_clock,
                b.core_dynamic, b.nb_leakage, b.nb_active_idle,
                b.nb_dynamic, b.housekeeping, b.total,
            ]
        )
    return fields


def assert_equivalent(scalar_samples, vector_samples):
    assert len(scalar_samples) == len(vector_samples)
    for s, v in zip(scalar_samples, vector_samples):
        for a, b in zip(_sample_fields(s), _sample_fields(v)):
            assert a == pytest.approx(b, rel=REL_TOL, abs=1e-12)


class ScalarPlatform(Platform):
    """A platform stepped by the scalar oracle instead of the kernel.

    ``step`` mirrors :meth:`Platform.step` exactly -- the interval
    loop, then the fault injector -- so ``run`` and
    ``run_until_finished`` work unchanged.
    """

    def step(self):
        sample = self._step_scalar()
        if self.fault_injector is not None:
            sample = self.fault_injector.apply(sample)
        return sample


def _pair(spec=FX8320_SPEC, seed=7, **kwargs):
    return (
        ScalarPlatform(spec, seed=seed, **kwargs),
        Platform(spec, seed=seed, **kwargs),
    )


class TestEngineEquivalence:
    def test_idle_chip(self):
        scalar, vector = _pair()
        assert_equivalent(scalar.run(5), vector.run(5))

    @pytest.mark.parametrize("power_gating", [False, True])
    def test_mixed_roster(self, power_gating):
        scalar, vector = _pair(seed=11, power_gating=power_gating)
        for p in (scalar, vector):
            p.set_assignment(
                CoreAssignment.packed(_mixed_roster(p.spec.num_cores))
            )
        assert_equivalent(scalar.run(8), vector.run(8))

    @pytest.mark.parametrize("power_gating", [False, True])
    def test_sparse_roster(self, power_gating):
        """Busy and idle cores in the same chip (PG gates idle CUs)."""
        scalar, vector = _pair(seed=13, power_gating=power_gating)
        for p in (scalar, vector):
            p.set_assignment(
                CoreAssignment(
                    {0: make_cpu_bound("a"), 5: make_memory_bound("b")}
                )
            )
        assert_equivalent(scalar.run(8), vector.run(8))

    def test_vf_transitions_with_penalty(self):
        """VF switches mid-run, including the transition stall penalty."""
        scalar, vector = _pair(seed=17, vf_transition_penalty_s=0.004)
        states = FX8320_SPEC.vf_table.ascending()
        outs = []
        for p in (scalar, vector):
            p.set_assignment(
                CoreAssignment.packed(_mixed_roster(p.spec.num_cores))
            )
            samples = []
            for step in range(6):
                p.set_cu_vf(step % p.spec.num_cus, states[step % len(states)])
                samples.extend(p.run(2))
            outs.append(samples)
        assert_equivalent(outs[0], outs[1])

    def test_nb_lo_state(self):
        scalar, vector = _pair(seed=19, nb_vf=NB_VF_LO)
        for p in (scalar, vector):
            p.set_assignment(
                CoreAssignment.packed(_mixed_roster(p.spec.num_cores))
            )
        assert_equivalent(scalar.run(6), vector.run(6))

    def test_finite_workloads_complete(self):
        """Budgeted workloads hit completion boundaries mid-interval."""
        scalar, vector = _pair(seed=23)
        for p in (scalar, vector):
            roster = [
                w.with_budget(2.0e8 * (1 + i % 3))
                for i, w in enumerate(_mixed_roster(p.spec.num_cores))
            ]
            p.set_assignment(CoreAssignment.packed(roster))
        assert_equivalent(
            scalar.run_until_finished(50), vector.run_until_finished(50)
        )
        assert scalar.completion_times() == pytest.approx(
            vector.completion_times(), rel=REL_TOL
        )

    def test_migration(self):
        scalar, vector = _pair(seed=29)
        outs = []
        for p in (scalar, vector):
            p.set_assignment(CoreAssignment({0: make_mixed("m")}))
            samples = list(p.run(3))
            p.migrate(0, p.spec.num_cores - 1)
            samples.extend(p.run(3))
            outs.append(samples)
        assert_equivalent(outs[0], outs[1])

    def test_phenom_spec(self):
        """The second SKU (no PG, different topology) agrees too."""
        scalar, vector = _pair(spec=PHENOM_II_SPEC, seed=31)
        for p in (scalar, vector):
            p.set_assignment(
                CoreAssignment.packed(_mixed_roster(p.spec.num_cores))
            )
        assert_equivalent(scalar.run(6), vector.run(6))


class TestEngineSelection:
    def test_vector_deterministic(self):
        runs = []
        for _ in range(2):
            p = Platform(FX8320_SPEC, seed=3)
            p.set_assignment(
                CoreAssignment.packed(_mixed_roster(p.spec.num_cores))
            )
            runs.append([s.measured_power for s in p.run(5)])
        assert runs[0] == runs[1]
