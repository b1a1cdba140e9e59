"""Fleet-native struct-of-arrays interval stepping.

:class:`~repro.fleet.simulator.FleetSimulator` used to advance a fleet
one :meth:`Platform.step` at a time, so the 7x within-chip win of
:class:`~repro.hardware.engine.VectorEngine` stopped at the chip
boundary: a 10k-node fleet paid 10k Python interval loops per 200 ms.

:class:`FleetEngine` lifts the VectorEngine's steady-interval fast path
to the *node* axis.  Nodes are grouped by (chip spec, interval
geometry); within a group the engine proves, per interval, which nodes
are **whole-interval steady** -- no VF-transition stall pending, every
busy core provably inside its current phase and instruction budget for
all ``slices_per_interval`` sub-slices (the same margins
:meth:`VectorEngine._steady_slices` uses).  Those nodes advance through
one batched struct-of-arrays pass over ``(nodes x cores)``:

- the NB-contention fixed point, steady-slice spans, per-core event
  counts, and the thermal/sensor emission chain run as NumPy column
  operations over the node axis, looping only over the small axes
  (8 cores, 8 fixed-point iterations, 10 slices) so every per-node
  floating-point operation happens in exactly the scalar order;
- per-node RNG streams are consumed through each node's own
  generators in the per-node order (process noise first, then sensor
  noise), so fallback and batched nodes are interchangeable per
  interval;
- the few genuinely scalar transcendentals
  (``math.exp``-based leakage temperature factors, whose libm results
  differ from ``np.exp`` in the last ulp) stay scalar per node.

Nodes that are *not* whole-interval steady this interval -- phase
boundary inside the interval, workload completion, pending stall --
simply fall back to their own ``platform.step()``, which is the
per-node reference path.  Equivalence is therefore structural: tests
assert the batched fleet produces bit-identical :class:`IntervalSample`
streams to per-node stepping.

Fault injectors are applied per node after the kernel, exactly as
:meth:`Platform.step` does, so fault-injected fleets corrupt
identically.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.hardware.counters import GROUP_A, GROUP_B
from repro.hardware.events import EventVector, NUM_EVENTS
from repro.hardware.power import PowerBreakdown

__all__ = ["FleetEngine"]

_GROUP_A_IDX = tuple(int(e) for e in GROUP_A)
_GROUP_B_IDX = tuple(int(e) for e in GROUP_B)


class _Group:
    """Preallocated column state for the same-(spec, geometry) nodes."""

    __slots__ = (
        "spec",
        "nodes",
        "k",
        "slice_s",
        "num_cores",
        "row_keys",
        "ccpi",
        "mem_ns",
        "f",
        "cps",
        "demand_num",
        "gap",
        "phase_inst",
        "dyn_coeff",
        "l3_per_inst",
        "dram_per_inst",
        "rates8",
        "total_inst",
        "busy",
        "inst_into",
        "done",
        "peak",
        "gains",
        "offsets",
    )

    def __init__(self, spec, nodes, k, slice_s) -> None:
        self.spec = spec
        self.nodes = nodes
        self.k = k
        self.slice_s = slice_s
        n = len(nodes)
        c = spec.num_cores
        self.num_cores = c
        # Per-node tuple of row identities; a node's columns are only
        # refreshed when its (phase, VF, workload) rows change.
        self.row_keys: List[Optional[Tuple[int, ...]]] = [None] * n
        self.ccpi = np.ones((n, c))
        self.mem_ns = np.zeros((n, c))
        self.f = np.ones((n, c))
        self.cps = np.ones((n, c))
        self.demand_num = np.zeros((n, c))
        self.gap = np.zeros((n, c))
        self.phase_inst = np.ones((n, c))
        self.dyn_coeff = np.zeros((n, c))
        self.l3_per_inst = np.zeros((n, c))
        self.dram_per_inst = np.zeros((n, c))
        self.rates8 = np.zeros((n, c, 8))
        self.total_inst = np.full((n, c), np.inf)
        self.busy = np.zeros((n, c), dtype=bool)
        self.inst_into = np.zeros((n, c))
        self.done = np.zeros((n, c))
        self.peak = np.zeros(n)
        self.gains = np.array([nd.platform.sensor._gain for nd in nodes])
        self.offsets = np.array([nd.platform.sensor._offset for nd in nodes])

    def refresh_node(self, i: int, rows) -> None:
        """Reload node ``i``'s columns when its cached rows changed."""
        key = tuple(map(id, rows))
        if key == self.row_keys[i]:
            return
        self.row_keys[i] = key
        cores = self.nodes[i].platform.cores
        for c, row in enumerate(rows):
            if row is None:
                self.busy[i, c] = False
                self.ccpi[i, c] = 1.0
                self.mem_ns[i, c] = 0.0
                self.f[i, c] = 1.0
                self.cps[i, c] = 1.0
                self.demand_num[i, c] = 0.0
                self.gap[i, c] = 0.0
                self.phase_inst[i, c] = 1.0
                self.dyn_coeff[i, c] = 0.0
                self.l3_per_inst[i, c] = 0.0
                self.dram_per_inst[i, c] = 0.0
                self.rates8[i, c, :] = 0.0
                self.total_inst[i, c] = np.inf
                continue
            self.busy[i, c] = True
            self.ccpi[i, c] = row.ccpi
            self.mem_ns[i, c] = row.mem_ns
            self.f[i, c] = row.f
            self.cps[i, c] = row.cps
            self.demand_num[i, c] = row.demand_num
            self.gap[i, c] = row.gap
            self.phase_inst[i, c] = row.phase_instructions
            self.dyn_coeff[i, c] = row.dyn_coeff
            self.l3_per_inst[i, c] = row.l3_per_inst
            self.dram_per_inst[i, c] = row.dram_per_inst
            self.rates8[i, c, :] = row.rates8
            total = cores[c].workload.total_instructions
            self.total_inst[i, c] = np.inf if total is None else total


class FleetEngine:
    """Batched stepping for a fixed roster of fleet nodes."""

    def __init__(self, nodes) -> None:
        self.nodes = list(nodes)
        groups: Dict[tuple, List] = {}
        for i, node in enumerate(self.nodes):
            p = node.platform
            key = (id(p.spec), p.slices_per_interval, p.slice_s)
            groups.setdefault(key, []).append(i)
        self._groups: List[Tuple[_Group, List[int]]] = []
        for key, idx in groups.items():
            member_nodes = [self.nodes[i] for i in idx]
            p0 = member_nodes[0].platform
            self._groups.append(
                (
                    _Group(p0.spec, member_nodes, p0.slices_per_interval, p0.slice_s),
                    idx,
                )
            )
        #: Reused per-step scratch: one slot per node, filled in place.
        self._samples: List[object] = [None] * len(self.nodes)
        #: Nodes batched last interval (for tests / the scale bench).
        self.last_batched = 0

    # -- the interval ---------------------------------------------------------

    def step(self) -> List[object]:
        """Advance every node one synchronized interval.

        Returns one :class:`IntervalSample` per node, in roster order,
        bit-identical to ``[node.platform.step() for node in nodes]``.
        """
        samples = self._samples
        self.last_batched = 0
        for group, idx in self._groups:
            self._step_group(group, idx, samples)
        return list(samples)

    def _step_group(self, g: _Group, idx: List[int], samples) -> None:
        spec = g.spec
        k = g.k
        slice_s = g.slice_s
        num_cores = g.num_cores

        # 1. Refresh per-node derived state; anything with a pending
        # VF-transition stall goes straight to the per-node path.
        candidates: List[int] = []  # positions within the group
        for pos, node in enumerate(g.nodes):
            p = node.platform
            eng = p._vector_engine
            if any(s > 0.0 for s in p._pending_stall):
                samples[idx[pos]] = p.step()
                continue
            eng._refresh_nb()
            rows = eng._rows()
            g.refresh_node(pos, rows)
            g.peak[pos] = eng._nb_peak
            cores = p.cores
            busy_row = g.busy[pos]
            for c in range(num_cores):
                if busy_row[c]:
                    core = cores[c]
                    g.inst_into[pos, c] = core._inst_into_phase
                    g.done[pos, c] = core.instructions_done
            candidates.append(pos)
        if not candidates:
            return
        cand = np.array(candidates)

        busy = g.busy[cand]
        ccpi = g.ccpi[cand]
        memf = g.mem_ns[cand] * g.f[cand]
        demand_num = g.demand_num[cand]
        peak = g.peak[cand]

        # 2. NB-contention fixed point, vectorized over nodes.  The
        # per-core demand terms accumulate in core order (masked adds of
        # exact zeros), replaying VectorEngine._resolve_contention's
        # iteration bit-for-bit per node.
        gain = spec.contention_gain
        cont_cap = spec.contention_cap
        any_busy = busy.any(axis=1)
        contention = np.ones(len(cand))
        utilisation = np.zeros(len(cand))
        for _ in range(8):
            demand = np.zeros(len(cand))
            for c in range(num_cores):
                demand += np.where(
                    busy[:, c],
                    demand_num[:, c] / (ccpi[:, c] + memf[:, c] * contention),
                    0.0,
                )
            rho = np.minimum(demand / peak, 0.985)
            multiplier = np.minimum(1.0 + gain * rho / (1.0 - rho), cont_cap)
            contention = 0.5 * (contention + multiplier)
            utilisation = rho
        contention = np.where(any_busy, contention, 1.0)
        utilisation = np.where(any_busy, utilisation, 0.0)

        # 3. Whole-interval steadiness, VectorEngine._steady_slices'
        # margins verbatim: the batch takes exactly the nodes whose
        # first _compute_spans call would return the full interval.
        mem_cycles = g.mem_ns[cand] * contention[:, None] * g.f[cand]
        cpi = ccpi + mem_cycles
        inst = np.where(busy, g.cps[cand] * slice_s / cpi, 0.0)
        margin = 1e-6 * g.phase_inst[cand]
        headroom = (g.phase_inst[cand] - g.inst_into[cand]) - margin
        inst_safe = np.where(inst > 0.0, inst, 1.0)
        core_ok = (inst > 0.0) & (headroom > inst) & (headroom / inst_safe >= k)
        has_total = np.isfinite(g.total_inst[cand])
        remaining = np.where(
            has_total, g.total_inst[cand] - g.done[cand], 2.0
        )
        headroom2 = remaining - (1e-6 * remaining + 1.0)
        total_ok = ~has_total | (
            (headroom2 > inst) & (headroom2 / inst_safe >= k)
        )
        eligible = np.where(busy, core_ok & total_ok, True).all(axis=1)

        for row, pos in enumerate(candidates):
            if not eligible[row]:
                samples[idx[pos]] = g.nodes[pos].platform.step()
        if not eligible.any():
            return
        sel = np.nonzero(eligible)[0]
        epos = [candidates[r] for r in sel]
        self.last_batched += len(epos)

        busy = busy[sel]
        cpi = cpi[sel]
        inst = inst[sel]
        mem_cycles = mem_cycles[sel]
        contention = contention[sel]
        utilisation = utilisation[sel]
        gap = g.gap[cand][sel]
        rates8 = g.rates8[cand][sel]
        dyn_coeff = g.dyn_coeff[cand][sel]
        l3_per_inst = g.l3_per_inst[cand][sel]
        dram_per_inst = g.dram_per_inst[cand][sel]
        n_el = len(epos)

        # 4. Event counts of one steady sub-slice per (node, core) --
        # _PhaseRow.slice_counts as column ops -- then the k-slice
        # replay (k_even/k_odd multiplexed groups, CounterUnit scaling).
        mab = 1.0 + spec.mab_pressure_gain * utilisation * utilisation
        counts = np.zeros((n_el, num_cores, NUM_EVENTS))
        counts[:, :, :8] = rates8 * inst[:, :, None]
        counts[:, :, 8] = np.maximum(cpi - gap, 0.0) * inst
        counts[:, :, 9] = cpi * inst
        counts[:, :, 10] = inst
        counts[:, :, 11] = (mem_cycles * mab[:, None]) * inst
        counts *= busy[:, :, None]
        k_even = (k + 1) // 2
        k_odd = k - k_even
        scale_a = k / k_even if k_even else 0.0
        scale_b = k / k_odd if k_odd else 0.0
        true_counts = counts * k
        est_a = (counts * k_even) * scale_a
        est_b = (counts * k_odd) * scale_b
        advanced = inst * k

        # 5. Chip power constants per node (CU-major gating semantics);
        # the aggregate L3/DRAM streams accumulate in core order.
        dt = slice_s
        inst_rate = inst / dt
        core_dyn = dyn_coeff * inst_rate
        l3_sum = np.zeros(n_el)
        dram_sum = np.zeros(n_el)
        for c in range(num_cores):
            l3_sum += np.where(busy[:, c], l3_per_inst[:, c] * inst_rate[:, c], 0.0)
            dram_sum += np.where(
                busy[:, c], dram_per_inst[:, c] * inst_rate[:, c], 0.0
            )
        power_consts = np.empty((n_el, 8))
        busy_lists = busy.tolist()
        core_dyn_lists = core_dyn.tolist()
        for row, pos in enumerate(epos):
            eng = g.nodes[pos].platform._vector_engine
            power_consts[row] = eng._assemble_power(
                busy_lists[row], core_dyn_lists[row],
                float(l3_sum[row]), float(dram_sum[row]),
            )

        # 6. Per-node RNG draws, in each node's scalar order: the whole
        # interval's process noise first, then the sensor noise.
        sigma = spec.power_process_noise
        process_draws = np.empty((n_el, k))
        sensor_noise = np.empty((n_el, k))
        for row, pos in enumerate(epos):
            p = g.nodes[pos].platform
            process_draws[row] = p._process_rng.normal(0.0, sigma, size=k)
            sensor_noise[row] = p.sensor.draw_noise(k)

        # 7. Emission: k thermal/sensor slices with constant activity,
        # temperature still evolving (VectorEngine._emit_slices as
        # column ops; the libm temperature factor stays scalar).
        cu_leak_prefix = power_consts[:, 0]
        cu_act_idle = power_consts[:, 1]
        clock = power_consts[:, 2]
        dynamic = power_consts[:, 3]
        housekeeping = power_consts[:, 4]
        nb_leak_prefix = power_consts[:, 5]
        nb_act_idle = power_consts[:, 6]
        nb_dyn = power_consts[:, 7]
        base = spec.base_power
        dyn_part = dynamic + clock + nb_dyn

        kt = spec.leak_temperature_exp
        t_ref = spec.leak_ref_temperature
        ambient = spec.ambient_temperature
        r_th = spec.thermal_resistance
        tau = r_th * spec.thermal_capacitance
        decay = math.exp(-slice_s / tau)
        q_power = spec.sensor_quantum

        temps = np.array(
            [g.nodes[pos].platform.thermal._temperature for pos in epos]
        )
        times = np.array([g.nodes[pos].platform._time for pos in epos])
        factors = np.exp(process_draws)
        gains = g.gains[cand][sel]
        offsets = g.offsets[cand][sel]

        power_samples = np.empty((n_el, k))
        true_powers = np.empty((n_el, k))
        bd1 = np.zeros(n_el)
        bd5 = np.zeros(n_el)
        measured_acc = np.zeros(n_el)
        true_acc = np.zeros(n_el)
        util_acc = np.zeros(n_el)
        for s in range(k):
            temp_factor = np.array([math.exp(kt * (t - t_ref)) for t in temps.tolist()])
            cu_leak = cu_leak_prefix * temp_factor
            nb_leak = nb_leak_prefix * temp_factor
            total = (
                base + cu_leak + cu_act_idle + clock + dynamic
                + nb_leak + nb_act_idle + nb_dyn + housekeeping
            )
            bd1 += cu_leak
            bd5 += nb_leak
            true_power = total + dyn_part * (factors[:, s] - 1.0)
            if np.any(true_power < 0.0):
                raise ValueError("true power cannot be negative")
            noisy = true_power * gains + offsets + sensor_noise[:, s]
            reading = np.maximum(np.rint(noisy / q_power) * q_power, 0.0)
            power_samples[:, s] = reading
            true_powers[:, s] = true_power
            measured_acc += reading
            true_acc += true_power
            util_acc += utilisation
            t_inf = ambient + true_power * r_th
            temps = t_inf + (temps - t_inf) * decay
            times += slice_s

        measured = measured_acc / k
        true_mean = true_acc / k
        nb_util = util_acc / k

        # 8. Per-node sample assembly and state write-back.
        from repro.hardware.platform import IntervalSample

        q_diode = spec.diode_quantum
        true_lists = true_counts.tolist()
        est_a_lists = est_a.tolist()
        est_b_lists = est_b.tolist()
        sample_lists = power_samples.tolist()
        inst_lists = advanced.tolist()
        busy_rows = busy.tolist()
        for row, pos in enumerate(epos):
            node = g.nodes[pos]
            p = node.platform
            core_events = []
            true_events = []
            for c in range(num_cores):
                ta = true_lists[row][c]
                ea = est_a_lists[row][c]
                eb = est_b_lists[row][c]
                est = [ea[i] for i in _GROUP_A_IDX]
                est += [eb[i] for i in _GROUP_B_IDX]
                core_events.append(EventVector.wrap(est))
                true_events.append(EventVector.wrap(ta))
                if busy_rows[row][c]:
                    adv = inst_lists[row][c]
                    core = p.cores[c]
                    core.instructions_done += adv
                    core._inst_into_phase += adv
            temp = float(temps[row])
            p.thermal._temperature = temp
            p._time = float(times[row])
            bd = [
                base * k,
                float(bd1[row]),
                float(cu_act_idle[row]) * k,
                float(clock[row]) * k,
                float(dynamic[row]) * k,
                float(bd5[row]),
                float(nb_act_idle[row]) * k,
                float(nb_dyn[row]) * k,
                float(housekeeping[row]) * k,
            ]
            sample = IntervalSample(
                index=p._interval_index,
                time=p._time,
                cu_vfs=list(p._cu_vfs),
                nb_vf=p.nb.vf,
                power_gating=p.power_gating,
                power_samples=sample_lists[row],
                measured_power=float(measured[row]),
                temperature=round(temp / q_diode) * q_diode,
                core_events=core_events,
                true_core_events=true_events,
                instructions=[
                    inst_lists[row][c] if busy_rows[row][c] else 0.0
                    for c in range(num_cores)
                ],
                true_power=float(true_mean[row]),
                breakdown=PowerBreakdown(*[v / k for v in bd]),
                nb_utilisation=float(nb_util[row]),
                interval_s=p.interval_s,
            )
            p._interval_index += 1
            if p.fault_injector is not None:
                sample = p.fault_injector.apply(sample)
            samples[idx[pos]] = sample
