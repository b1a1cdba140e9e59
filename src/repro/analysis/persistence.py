"""Trace and model-artifact persistence.

Traces are the expensive artefact of this reproduction (a full sweep
simulates 152 benchmark combinations at five VF states).  This module
serialises them to a compact ``.npz`` archive so sweeps can be captured
once and re-analysed offline, shared, or diffed across code versions.

The trace format stores, per interval: the ten power samples,
ground-truth power, diode temperature, per-core measured and true event
matrices, instructions, per-CU VF indices, and the PG/NB configuration.
The ground-truth power *breakdown* is not persisted (it is a debugging
aid, not part of the measurement surface); loaded samples carry
``breakdown=None``.

Trained PPEP models are the other expensive artefact: a full training
run simulates thousands of intervals per chip SKU.  :func:`save_ppep` /
:func:`load_ppep` serialise everything a trained :class:`PPEP` carries
-- the Eq. 2 idle polynomials, the Eq. 3 weights plus alpha, and the
Section IV-D power-gating decomposition -- so a model registry (see
:mod:`repro.fleet.registry`) can survive process restarts.
"""

from __future__ import annotations

import os
import tempfile
from typing import List

import numpy as np

from repro.analysis.trace import Trace
from repro.core.dynamic_power import DynamicPowerModel
from repro.core.idle_power import IdlePowerModel
from repro.core.power_gating import IdlePowerDecomposition, PGAwareIdleModel
from repro.core.regression import Polynomial
from repro.hardware.events import EventVector, NUM_EVENTS
from repro.hardware.microarch import ChipSpec
from repro.hardware.platform import IntervalSample
from repro.hardware.vfstates import VFState

__all__ = [
    "save_trace",
    "load_trace",
    "save_ppep",
    "load_ppep",
    "trace_fingerprint",
]

_FORMAT_VERSION = 1
_PPEP_FORMAT_VERSION = 1


def _atomic_savez(path: str, **arrays) -> None:
    """``np.savez_compressed`` with an atomic rename.

    A crash (or a parallel worker killed mid-write) must never leave a
    half-written archive under the final name: a shared trace cache
    would then serve corrupt artifacts forever.  Write to a temporary
    file in the destination directory and ``os.replace`` it into place
    -- atomic on POSIX and Windows within one filesystem.

    Mirrors ``np.savez_compressed``'s name handling: a path without an
    ``.npz`` suffix gets one appended.
    """
    final = path if path.endswith(".npz") else path + ".npz"
    directory = os.path.dirname(os.path.abspath(final))
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(final) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez_compressed(handle, **arrays)
        os.replace(tmp_path, final)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def _canonical_key_part(value) -> str:
    """A collision-free canonical encoding of one key component.

    Every component is type-tagged and strings are length-prefixed, so
    structurally different keys can never serialise to the same byte
    string (``("ab", "c")`` vs ``("a", "bc")``, ``1`` vs ``True`` vs
    ``"1"``).  Only the value types that appear in trace-cache keys are
    accepted; anything else is a hard error rather than a silently
    ambiguous ``str()``.
    """
    if value is None:
        return "n"
    # bool before int: True is an instance of int.
    if isinstance(value, bool):
        return "b:1" if value else "b:0"
    if isinstance(value, int):
        return "i:{}".format(value)
    if isinstance(value, float):
        return "f:{!r}".format(value)
    if isinstance(value, str):
        return "s:{}:{}".format(len(value), value)
    if isinstance(value, (tuple, list)):
        inner = ",".join(_canonical_key_part(v) for v in value)
        return "t:{}:[{}]".format(len(value), inner)
    raise TypeError(
        "unsupported trace-key component type: {!r}".format(type(value))
    )


def trace_fingerprint(key) -> str:
    """A stable hex fingerprint of a trace-cache key.

    The fingerprint names the on-disk cache file for a trace, so it must
    be (a) stable across processes and Python versions -- no ``hash()``
    -- and (b) injective on the supported key types -- no separator
    ambiguity.  Keys are tuples of primitives (spec fingerprint, combo
    name, VF index, seed, interval counts, ...); 128 bits of
    blake2b keeps accidental collisions out of reach.
    """
    import hashlib

    canonical = _canonical_key_part(key)
    return hashlib.blake2b(
        canonical.encode("utf-8"), digest_size=16
    ).hexdigest()


def save_trace(trace: Trace, path: str) -> None:
    """Serialise ``trace`` to an ``.npz`` archive at ``path``."""
    samples = trace.samples
    n = len(samples)
    num_cores = len(samples[0].core_events)

    def event_matrix(selector) -> np.ndarray:
        data = np.empty((n, num_cores, NUM_EVENTS))
        for i, sample in enumerate(samples):
            for c, vec in enumerate(selector(sample)):
                data[i, c, :] = vec.as_list()
        return data

    _atomic_savez(
        path,
        version=np.array(_FORMAT_VERSION),
        label=np.array(trace.label),
        index=np.array([s.index for s in samples]),
        time=np.array([s.time for s in samples]),
        power_samples=np.array([s.power_samples for s in samples]),
        measured_power=np.array([s.measured_power for s in samples]),
        true_power=np.array([s.true_power for s in samples]),
        temperature=np.array([s.temperature for s in samples]),
        instructions=np.array([s.instructions for s in samples]),
        cu_vf_indices=np.array([[vf.index for vf in s.cu_vfs] for s in samples]),
        nb_vf_index=np.array([s.nb_vf.index for s in samples]),
        nb_utilisation=np.array([s.nb_utilisation for s in samples]),
        power_gating=np.array([s.power_gating for s in samples]),
        core_events=event_matrix(lambda s: s.core_events),
        true_core_events=event_matrix(lambda s: s.true_core_events),
        interval_s=np.array([s.interval_s for s in samples]),
    )


def load_trace(path: str, spec: ChipSpec) -> Trace:
    """Load a trace saved by :func:`save_trace`.

    ``spec`` resolves VF indices back to :class:`VFState` objects; it
    must describe the same chip the trace was captured on.
    """
    with np.load(path, allow_pickle=False) as data:
        version = int(data["version"])
        if version != _FORMAT_VERSION:
            raise ValueError(
                "unsupported trace format version {}".format(version)
            )
        n = data["time"].shape[0]
        nb_table = {spec.nb_vf.index: spec.nb_vf}
        from repro.hardware.vfstates import NB_VF_HI, NB_VF_LO

        nb_table.setdefault(NB_VF_HI.index, NB_VF_HI)
        nb_table.setdefault(NB_VF_LO.index, NB_VF_LO)

        # Bulk ndarray->list conversion up front: one C-level tolist()
        # per array instead of per-element float() calls per interval.
        # This keeps a warm disk cache decisively cheaper than
        # re-simulating (the whole point of persisting traces).
        indices = data["index"].tolist()
        times = data["time"].tolist()
        power_samples = data["power_samples"].tolist()
        measured = data["measured_power"].tolist()
        true_power = data["true_power"].tolist()
        temperature = data["temperature"].tolist()
        instructions = data["instructions"].tolist()
        cu_vf_indices = data["cu_vf_indices"].tolist()
        nb_vf_index = data["nb_vf_index"].tolist()
        nb_utilisation = data["nb_utilisation"].tolist()
        power_gating = data["power_gating"].tolist()
        core_events = data["core_events"].tolist()
        true_core_events = data["true_core_events"].tolist()
        # Archives written before interval_s was stamped per sample
        # were all captured at the paper's 200 ms default.
        if "interval_s" in data.files:
            interval_s = data["interval_s"].tolist()
        else:
            from repro.hardware.platform import INTERVAL_S

            interval_s = [INTERVAL_S] * n
        by_index = {}
        for row in cu_vf_indices:
            for idx in row:
                if idx not in by_index:
                    by_index[idx] = spec.vf_table.by_index(int(idx))

        samples: List[IntervalSample] = []
        for i in range(n):
            samples.append(
                IntervalSample(
                    index=int(indices[i]),
                    time=times[i],
                    cu_vfs=[by_index[idx] for idx in cu_vf_indices[i]],
                    nb_vf=nb_table[int(nb_vf_index[i])],
                    power_gating=bool(power_gating[i]),
                    power_samples=power_samples[i],
                    measured_power=measured[i],
                    temperature=temperature[i],
                    core_events=[
                        EventVector.wrap(row) for row in core_events[i]
                    ],
                    true_core_events=[
                        EventVector.wrap(row) for row in true_core_events[i]
                    ],
                    instructions=instructions[i],
                    true_power=true_power[i],
                    breakdown=None,
                    nb_utilisation=nb_utilisation[i],
                    interval_s=interval_s[i],
                )
            )
        return Trace(samples, label=str(data["label"]))


def save_ppep(ppep, path: str) -> None:
    """Serialise a trained :class:`~repro.core.ppep.PPEP` to ``path``.

    Stores the fitted model parameters only; the chip spec is *not*
    persisted -- the loader receives it and checks the name, mirroring
    how :func:`load_trace` resolves VF indices.
    """
    arrays = {
        "version": np.array(_PPEP_FORMAT_VERSION),
        "spec_name": np.array(ppep.spec.name),
        "idle_w1": np.array(ppep.idle_model.w_idle1.coefficients),
        "idle_w0": np.array(ppep.idle_model.w_idle0.coefficients),
        "idle_voltage_range": np.array(ppep.idle_model.voltage_range),
        "dyn_weights": np.array(ppep.dynamic_model.weights),
        "dyn_alpha": np.array(ppep.dynamic_model.alpha),
        "dyn_train_voltage": np.array(ppep.dynamic_model.train_voltage),
        "has_pg_model": np.array(ppep.pg_model is not None),
    }
    if ppep.pg_model is not None:
        by_index = ppep.pg_model.decompositions()
        indices = sorted(by_index)
        decomps = [by_index[i] for i in indices]
        arrays["pg_vf_indices"] = np.array(indices)
        arrays["pg_p_cu"] = np.array([d.p_cu for d in decomps])
        arrays["pg_p_nb"] = np.array([d.p_nb for d in decomps])
        arrays["pg_p_base"] = np.array([d.p_base for d in decomps])
    _atomic_savez(path, **arrays)


def load_ppep(path: str, spec: ChipSpec):
    """Load a model saved by :func:`save_ppep` for chip ``spec``."""
    from repro.core.ppep import PPEP

    with np.load(path, allow_pickle=False) as data:
        version = int(data["version"])
        if version != _PPEP_FORMAT_VERSION:
            raise ValueError(
                "unsupported PPEP artifact version {}".format(version)
            )
        saved_name = str(data["spec_name"])
        if saved_name != spec.name:
            raise ValueError(
                "artifact was trained on {!r}, not {!r}".format(
                    saved_name, spec.name
                )
            )
        idle_model = IdlePowerModel(
            w_idle1=Polynomial(tuple(float(c) for c in data["idle_w1"])),
            w_idle0=Polynomial(tuple(float(c) for c in data["idle_w0"])),
            voltage_range=tuple(float(v) for v in data["idle_voltage_range"]),
        )
        dynamic_model = DynamicPowerModel(
            weights=tuple(float(w) for w in data["dyn_weights"]),
            alpha=float(data["dyn_alpha"]),
            train_voltage=float(data["dyn_train_voltage"]),
        )
        pg_model = None
        if bool(data["has_pg_model"]):
            decompositions = {}
            for i, vf_index in enumerate(data["pg_vf_indices"]):
                vf = spec.vf_table.by_index(int(vf_index))
                decompositions[int(vf_index)] = IdlePowerDecomposition(
                    vf=vf,
                    p_cu=float(data["pg_p_cu"][i]),
                    p_nb=float(data["pg_p_nb"][i]),
                    p_base=float(data["pg_p_base"][i]),
                )
            pg_model = PGAwareIdleModel(
                decompositions, spec.num_cus, spec.cores_per_cu
            )
        return PPEP(spec, idle_model, dynamic_model, pg_model)
