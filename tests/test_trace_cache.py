"""Disk-backed trace cache.

Covers the two perf-infrastructure pieces: key fingerprinting (stable
and collision-free) and the disk-backed :class:`TraceLibrary`
(round-trip fidelity, warm restarts simulating nothing).
"""

import pytest

from repro.analysis.persistence import trace_fingerprint
from repro.analysis.trace import TraceLibrary
from repro.core.ppep import PPEPTrainer
from repro.experiments.common import ExperimentContext
from repro.hardware.microarch import FX8320_SPEC
from repro.hardware.platform import Platform
from repro.workloads.suites import spec_combinations


def _quick_trainer(**kwargs):
    return PPEPTrainer(
        FX8320_SPEC, bench_intervals=4, cool_intervals=12, **kwargs
    )


class TestFingerprint:
    def test_stable_across_calls(self):
        key = ("bench", "429", 4, False, 40, 2)
        assert trace_fingerprint(key) == trace_fingerprint(key)

    def test_structurally_close_keys_differ(self):
        # The classic ambiguities a str()-join would collapse.
        assert trace_fingerprint(("ab", "c")) != trace_fingerprint(("a", "bc"))
        assert trace_fingerprint((1,)) != trace_fingerprint((True,))
        assert trace_fingerprint((1,)) != trace_fingerprint(("1",))
        assert trace_fingerprint((1, 2)) != trace_fingerprint(("1, 2",))
        assert trace_fingerprint((None,)) != trace_fingerprint(("n",))
        assert trace_fingerprint((1.0,)) != trace_fingerprint((1,))

    def test_unsupported_type_is_an_error(self):
        with pytest.raises(TypeError):
            trace_fingerprint((object(),))

    def test_all_trainer_keys_unique(self):
        trainer = _quick_trainer()
        keys = set()
        for combo in spec_combinations()[:10]:
            for vf in FX8320_SPEC.vf_table:
                for pg in (False, True):
                    keys.add(
                        trainer._trace_key(
                            "bench", combo.name, vf.index, pg,
                            trainer.BENCH_INTERVALS, trainer.WARMUP,
                        )
                    )
        fingerprints = {trace_fingerprint(k) for k in keys}
        assert len(fingerprints) == len(keys)

    def test_key_pins_seed(self):
        a = _quick_trainer()
        b = _quick_trainer(base_seed=1)
        keys = {t._trace_key("bench", "x", 4, False, 4, 2) for t in (a, b)}
        assert len(keys) == 2


class TestDiskLibrary:
    def test_requires_spec(self, tmp_path):
        with pytest.raises(ValueError):
            TraceLibrary(str(tmp_path))

    def test_round_trip_matches_fresh_simulation(self, tmp_path):
        trainer = _quick_trainer()
        combo = spec_combinations()[0]
        vf5 = FX8320_SPEC.vf_table.fastest
        disk = TraceLibrary(str(tmp_path), FX8320_SPEC)
        first = trainer.collect_trace(combo, vf5, disk)
        # A second disk-backed library sees only the files.
        fresh = TraceLibrary(str(tmp_path), FX8320_SPEC)
        loaded = trainer.collect_trace(combo, vf5, fresh)
        assert fresh.disk_hits == 1 and fresh.misses == 0
        for a, b in zip(first.samples, loaded.samples):
            assert a.measured_power == b.measured_power
            assert a.true_power == b.true_power
            assert a.power_samples == b.power_samples
            for va, vb in zip(a.core_events, b.core_events):
                assert va.as_list() == vb.as_list()

    def test_truncated_entry_is_a_miss(self, tmp_path):
        """A half-written archive must not poison the cache forever."""
        import os

        trainer = _quick_trainer()
        combo = spec_combinations()[0]
        vf5 = FX8320_SPEC.vf_table.fastest
        disk = TraceLibrary(str(tmp_path), FX8320_SPEC)
        original = trainer.collect_trace(combo, vf5, disk)
        path = [
            os.path.join(tmp_path, p) for p in os.listdir(tmp_path)
        ][0]
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) // 2)
        fresh = TraceLibrary(str(tmp_path), FX8320_SPEC)
        recovered = trainer.collect_trace(combo, vf5, fresh)
        assert fresh.misses == 1 and fresh.disk_hits == 0
        assert [s.measured_power for s in recovered.samples] == [
            s.measured_power for s in original.samples
        ]
        # The bad entry was evicted and re-written; a third library
        # reads it cleanly from disk.
        third = TraceLibrary(str(tmp_path), FX8320_SPEC)
        trainer.collect_trace(combo, vf5, third)
        assert third.disk_hits == 1

    def test_garbage_entry_is_a_miss(self, tmp_path):
        trainer = _quick_trainer()
        combo = spec_combinations()[0]
        vf5 = FX8320_SPEC.vf_table.fastest
        disk = TraceLibrary(str(tmp_path), FX8320_SPEC)
        key = trainer._trace_key(
            "bench", combo.name, vf5.index, False,
            trainer.BENCH_INTERVALS, trainer.WARMUP,
        )
        with open(disk.path_for(key), "wb") as handle:
            handle.write(b"this is not an npz archive")
        trace = trainer.collect_trace(combo, vf5, disk)
        assert disk.misses == 1 and disk.disk_hits == 0
        assert len(trace.samples) > 0

    def test_wrong_version_entry_is_a_miss(self, tmp_path):
        import numpy as np

        trainer = _quick_trainer()
        combo = spec_combinations()[0]
        vf5 = FX8320_SPEC.vf_table.fastest
        disk = TraceLibrary(str(tmp_path), FX8320_SPEC)
        key = trainer._trace_key(
            "bench", combo.name, vf5.index, False,
            trainer.BENCH_INTERVALS, trainer.WARMUP,
        )
        np.savez_compressed(disk.path_for(key), version=np.array(99))
        trace = trainer.collect_trace(combo, vf5, disk)
        assert disk.misses == 1
        assert len(trace.samples) > 0

    def test_counters_and_contains(self, tmp_path):
        trainer = _quick_trainer()
        combo = spec_combinations()[0]
        vf5 = FX8320_SPEC.vf_table.fastest
        lib = TraceLibrary(str(tmp_path), FX8320_SPEC)
        key = trainer._trace_key(
            "bench", combo.name, vf5.index, False,
            trainer.BENCH_INTERVALS, trainer.WARMUP,
        )
        assert key not in lib
        trainer.collect_trace(combo, vf5, lib)
        assert key in lib and lib.misses == 1
        trainer.collect_trace(combo, vf5, lib)
        assert lib.memory_hits == 1
        lib.clear()
        assert key in lib  # still on disk
        trainer.collect_trace(combo, vf5, lib)
        assert lib.disk_hits == 1


class TestWarmContext:
    def test_second_context_simulates_nothing(self, tmp_path, monkeypatch):
        """The acceptance gate: a warm disk cache means a fresh context
        trains its full model with zero new simulations."""
        cold = ExperimentContext(scale="quick", cache_dir=str(tmp_path))
        # Training touches the VF5 bench, cooling, alpha and PG-sweep
        # traces.
        cold.full_ppep
        assert cold.library.misses > 0

        calls = []
        original = Platform.step
        monkeypatch.setattr(
            Platform, "step", lambda self: calls.append(1) or original(self)
        )
        warm = ExperimentContext(scale="quick", cache_dir=str(tmp_path))
        warm.full_ppep
        assert calls == []
        assert warm.library.misses == 0
        assert warm.library.disk_hits == cold.library.misses

    def test_env_var_selects_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        ctx = ExperimentContext(scale="quick")
        assert ctx.library.cache_dir == str(tmp_path)

