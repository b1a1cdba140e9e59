"""The interval kernel behind every :meth:`Platform.step`.

:meth:`Platform.step` has to advance 10 sub-slices x 8 cores x an
8-iteration NB-contention fixed point per 200 ms interval, and every
experiment in the reproduction funnels through it.  The platform's
reference per-slice loop, kept only as a test oracle and benchmark
baseline, is dominated by per-slice Python overhead that is
*redundant* whenever the interval is steady: no phase boundary, no
workload completion, no VF-transition stall.  In that regime every
sub-slice of the interval executes the same single segment with the
same CPI, the same event rates, and the same contention fixed point.

:class:`VectorEngine` exploits exactly that structure:

- **Struct-of-arrays state.**  Per-(core, phase, VF) execution
  constants (:class:`_PhaseRow`), per-VF power constants, and the
  core/CU topology are cached up front, so the steady path touches
  plain floats and flat lists instead of re-deriving parameters
  object-by-object each slice.
- **Batching.**  It proves, per slice, how many upcoming sub-slices are
  boundary-free (conservative instruction margins mirror the scalar
  path's numerical-exhaustion epsilons) and advances all of them with
  one set of per-core row operations.  An all-idle chip batches the
  whole interval.
- **Per-core fallback.**  In a slice where *some* core is near a
  boundary, only that core is delegated to the scalar
  :meth:`CoreRuntime.run_slice` (bit-exact by construction); steady
  cores keep the fast path.
- **Identical RNG order.**  Process noise and sensor noise are drawn
  once per interval as arrays; numpy's ``Generator.normal(size=n)``
  produces the same stream as ``n`` sequential scalar draws, so the
  vectorized run consumes the generators in exactly the scalar order.

The engine mutates the same :class:`CoreRuntime`/:class:`ThermalModel`
objects the scalar path uses -- there is no shadow state to keep in
sync, and control actions (VF changes, migration, reassignment) need no
special handling: derived rows are revalidated against the live state.

Numerical contract (asserted by ``tests/test_engine.py``): every field
of every :class:`IntervalSample` matches the scalar oracle to a
relative tolerance of 1e-9.  The fast path reassociates a handful of
products and sums (hoisted leakage prefixes, fused per-instruction
energy coefficients, ``k`` repeated additions becoming one
multiply-add), which perturbs results at the 1e-15 level; branch
decisions (phase exhaustion, workload completion) are protected by
margins ~1e6 times wider than that drift.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.hardware.counters import GROUP_A, GROUP_B
from repro.hardware.events import EventVector, NUM_EVENTS
from repro.hardware.power import PowerBreakdown

__all__ = ["VectorEngine"]

_GROUP_A_IDX = tuple(int(e) for e in GROUP_A)
_GROUP_B_IDX = tuple(int(e) for e in GROUP_B)


class _PhaseRow:
    """Per-(core, phase, VF) constants for the batched fast path.

    Everything here is a pure function of (workload, phase, VF, NB
    state, chip spec); rows are cached until the north bridge changes.
    """

    __slots__ = (
        "f",
        "cps",
        "ccpi",
        "mem_ns",
        "demand_num",
        "rates8",
        "gap",
        "phase_instructions",
        "dyn_coeff",
        "l3_per_inst",
        "dram_per_inst",
    )

    def __init__(self, core, phase, vf, nb_mult, spec) -> None:
        rates8, gap = core._phase_params(phase, vf)
        self.f = vf.frequency_ghz
        self.cps = vf.frequency_ghz * 1e9
        self.ccpi = phase.ccpi
        #: ``phase.mem_ns * nb.memory_time_multiplier()`` -- the same
        #: product the scalar path forms first, so ``mem_ns * contention``
        #: reproduces its rounding exactly.
        self.mem_ns = phase.mem_ns * nb_mult
        #: Numerator of the bandwidth-demand term: (cycles/s) * bytes/inst.
        self.demand_num = self.cps * phase.bytes_per_inst(spec.line_size)
        self.rates8 = tuple(rates8)
        self.gap = gap
        self.phase_instructions = phase.instructions
        # Dynamic power, fused: core_dynamic = dyn_coeff * (inst / dt).
        # The scalar model sums (count/dt) * energy terms; folding the
        # per-instruction energies, 1e-9, V^2 and toggle into one
        # coefficient reassociates that sum (deviation ~1e-16).
        energy_per_inst = (
            rates8[0] * spec.energy_uop
            + rates8[1] * spec.energy_fpu
            + rates8[2] * spec.energy_ic_fetch
            + rates8[3] * spec.energy_dc_access
            + rates8[4] * spec.energy_l2_request
            + rates8[5] * spec.energy_branch
            + rates8[6] * spec.energy_mispredict
            + phase.hidden_per_inst * spec.energy_hidden
        )
        self.dyn_coeff = (
            energy_per_inst * 1e-9 * (vf.voltage * vf.voltage) * phase.toggle_factor
        )
        self.l3_per_inst = rates8[7]
        self.dram_per_inst = rates8[7] * phase.l3_miss_ratio

    def slice_counts(self, inst, cpi, mem_cycles):
        """Event counts of one boundary-free sub-slice, as a list.

        Identical term-by-term to the single segment
        :meth:`CoreRuntime.run_slice` executes for a steady slice, so
        the result is bit-exact (``mem_cycles`` is
        ``mem_ns * contention * f``, the E12 rate before MAB
        distortion)."""
        r = self.rates8
        return [
            r[0] * inst,
            r[1] * inst,
            r[2] * inst,
            r[3] * inst,
            r[4] * inst,
            r[5] * inst,
            r[6] * inst,
            r[7] * inst,
            max(cpi - self.gap, 0.0) * inst,
            cpi * inst,
            inst,
            mem_cycles * inst,
        ]


class VectorEngine:
    """Array-batched interval stepping for one :class:`Platform`."""

    def __init__(self, platform) -> None:
        spec = platform.spec
        self.platform = platform
        # (core_id, id(workload), phase_index, vf_index) -> _PhaseRow.
        self._row_cache = {}
        # Strong references to cached workloads: id() keys above must
        # not be recycled by the allocator while a row is alive.
        self._row_refs = {}
        self._nb_ref = None
        self._nb_mult = 1.0
        self._nb_peak = 0.0
        self._nb_leak_prefix = 0.0
        self._nb_act_idle = 0.0
        # vf.index -> (cu leakage voltage prefix, cu active idle, core clock).
        self._vf_power = {}
        self._hk_share = spec.housekeeping_power / spec.num_cus
        self._supports_pg = spec.supports_power_gating
        self._core_cu = [spec.cu_of_core(c) for c in range(spec.num_cores)]
        self._cu_cores = [spec.cores_of_cu(cu) for cu in range(spec.num_cus)]
        # Scratch reused across _batchable_slices/_run_mixed_slice.
        self._spans = [0] * spec.num_cores
        self._insts = [0.0] * spec.num_cores

    # -- derived-state caches -------------------------------------------------

    def _refresh_nb(self) -> None:
        nb = self.platform.nb
        if nb is not self._nb_ref:
            pm = self.platform.power_model
            self._nb_ref = nb
            self._nb_mult = nb.memory_time_multiplier()
            self._nb_peak = nb.effective_bandwidth()
            self._nb_leak_prefix = pm.nb_leakage_voltage_factor(nb.vf.voltage)
            self._nb_act_idle = pm.nb_active_idle(nb.vf)
            self._row_cache.clear()
            self._row_refs.clear()

    def _vf_power_constants(self, vf):
        cached = self._vf_power.get(vf.index)
        if cached is None:
            pm = self.platform.power_model
            cached = (
                pm.cu_leakage_voltage_factor(vf.voltage),
                pm.cu_active_idle(vf),
                pm.core_clock(vf),
            )
            self._vf_power[vf.index] = cached
        return cached

    def _rows(self) -> List[Optional[_PhaseRow]]:
        """One row per core (``None`` for idle cores) for the current
        (phase, VF) of each core."""
        p = self.platform
        spec = p.spec
        cache = self._row_cache
        cu_vfs = p._cu_vfs
        core_cu = self._core_cu
        rows: List[Optional[_PhaseRow]] = []
        for core in p.cores:
            if not core.busy:
                rows.append(None)
                continue
            workload = core.workload
            vf = cu_vfs[core_cu[core.core_id]]
            key = (core.core_id, id(workload), core._phase_index, vf.index)
            row = cache.get(key)
            if row is None:
                phase = workload.phases[core._phase_index]
                row = _PhaseRow(core, phase, vf, self._nb_mult, spec)
                cache[key] = row
                self._row_refs[id(workload)] = workload
            rows.append(row)
        return rows

    def _resolve_contention(self, rows) -> "tuple[float, float]":
        """The scalar damped fixed point, on cached row constants.

        Follows :meth:`Platform._resolve_contention` iteration-for-
        iteration; the per-core demand term is algebraically identical
        with one product pre-fused (``cps * bytes_per_inst``).
        """
        nums = []
        ccpis = []
        mem_fs = []
        for r in rows:
            if r is not None:
                nums.append(r.demand_num)
                ccpis.append(r.ccpi)
                mem_fs.append(r.mem_ns * r.f)
        if not nums:
            return 1.0, 0.0
        spec = self.platform.spec
        peak = self._nb_peak
        gain = spec.contention_gain
        cap = spec.contention_cap
        n = len(nums)
        contention = 1.0
        utilisation = 0.0
        for _ in range(8):
            demand = 0.0
            for i in range(n):
                demand += nums[i] / (ccpis[i] + mem_fs[i] * contention)
            rho = min(demand / peak, 0.985)
            multiplier = min(1.0 + gain * rho / (1.0 - rho), cap)
            contention = 0.5 * (contention + multiplier)
            utilisation = rho
        return contention, utilisation

    def _steady_slices(self, core, row, inst: float, max_k: int) -> int:
        """How many upcoming sub-slices ``core`` provably stays steady.

        ``inst`` is the instructions one steady sub-slice would retire
        at the current contention.  A span of ``k`` slices is steady
        when the core remains inside its current phase *and* its total
        budget throughout, with margins wider than the scalar path's
        exhaustion epsilons (1e-6 relative) plus the ~1e-15 drift
        batched accumulation can introduce.  Returns 0 when the core is
        too close to a boundary -- that slice takes the exact scalar
        fallback.
        """
        if inst <= 0.0:
            return 0
        k = max_k
        margin = 1e-6 * row.phase_instructions
        headroom = (row.phase_instructions - core._inst_into_phase) - margin
        if headroom <= inst:
            return 0
        k = min(k, int(headroom / inst))
        total = core.workload.total_instructions
        if total is not None:
            remaining = total - core.instructions_done
            headroom = remaining - (1e-6 * remaining + 1.0)
            if headroom <= inst:
                return 0
            k = min(k, int(headroom / inst))
        return k

    def _compute_spans(self, rows, contention: float, max_k: int) -> int:
        """Per-core steady spans and slice instructions at ``contention``.

        Fills the ``_spans``/``_insts`` scratch (consumed by both the
        batch decision and the mixed-slice per-core test) and returns
        the chip-wide batchable span: the min over busy cores.
        """
        slice_s = self.platform.slice_s
        spans = self._spans
        insts = self._insts
        k = max_k
        for c, row in enumerate(rows):
            if row is None:
                spans[c] = max_k
                continue
            core = self.platform.cores[c]
            cpi = row.ccpi + row.mem_ns * contention * row.f
            inst = row.cps * slice_s / cpi
            insts[c] = inst
            span = self._steady_slices(core, row, inst, max_k)
            spans[c] = span
            if span < k:
                k = span
        return k

    # -- the interval --------------------------------------------------------

    def step(self):
        """Advance one 200 ms interval; returns an :class:`IntervalSample`
        equal (to 1e-9) to what the scalar oracle would produce."""
        from repro.hardware.platform import IntervalSample
        from repro.hardware.sensor import PowerSensor

        p = self.platform
        spec = p.spec
        num_cores = spec.num_cores
        slices_per_interval = p.slices_per_interval
        self._refresh_nb()

        # VF-transition stalls apply to the first sub-slice only (same
        # capture-and-clear the scalar path performs).
        stalls = list(p._pending_stall)
        p._pending_stall = [0.0] * spec.num_cus
        any_stall = any(s > 0.0 for s in stalls)

        # Pre-draw the interval's noise.  Generator.normal(size=n)
        # yields the identical stream to n sequential scalar draws, so
        # RNG consumption order matches the scalar oracle exactly.
        process_draws = p._process_rng.normal(
            0.0, spec.power_process_noise, size=slices_per_interval
        )
        sensor_noise = p.sensor.draw_noise(slices_per_interval)

        acc = _IntervalAccumulator(num_cores)

        s = 0
        rows = None  # rebuilt whenever core state may have changed
        contention = 1.0
        utilisation = 0.0
        spans_valid = False
        while s < slices_per_interval:
            if rows is None:
                rows = self._rows()
                contention, utilisation = self._resolve_contention(rows)
                spans_valid = False
            k = 0
            if not (s == 0 and any_stall):
                k = self._compute_spans(
                    rows, contention, slices_per_interval - s
                )
                spans_valid = True
            if k >= 1:
                self._run_batch(
                    rows, contention, utilisation, s, k, acc,
                    process_draws, sensor_noise,
                )
                # A batch by construction crosses no boundary: rows and
                # the contention fixed point stay valid.
                s += k
            else:
                if not spans_valid:
                    self._compute_spans(rows, contention, 1)
                self._run_mixed_slice(
                    rows, contention, utilisation, s, stalls, acc,
                    process_draws, sensor_noise,
                )
                rows = None  # phases may have advanced / workloads finished
                s += 1

        # Multiplexed counter read-out: scale each group's accumulated
        # columns by total/scheduled, exactly as CounterUnit does.
        core_events = []
        scheduled_a, scheduled_b = acc.group_slices
        scale_a = slices_per_interval / scheduled_a if scheduled_a else 0.0
        scale_b = slices_per_interval / scheduled_b if scheduled_b else 0.0
        for c in range(num_cores):
            ga = acc.group_a[c]
            gb = acc.group_b[c]
            est = [ga[i] * scale_a for i in _GROUP_A_IDX]
            est += [gb[i] * scale_b for i in _GROUP_B_IDX]
            core_events.append(EventVector.wrap(est))

        sample = IntervalSample(
            index=p._interval_index,
            time=p._time,
            cu_vfs=list(p._cu_vfs),
            nb_vf=p.nb.vf,
            power_gating=p.power_gating,
            power_samples=acc.power_samples,
            measured_power=PowerSensor.interval_average(acc.power_samples),
            temperature=p.thermal.diode_reading(),
            core_events=core_events,
            true_core_events=[
                EventVector.wrap(acc.true_counts[c]) for c in range(num_cores)
            ],
            instructions=acc.instructions,
            true_power=sum(acc.true_powers) / len(acc.true_powers),
            breakdown=PowerBreakdown(
                *[v / slices_per_interval for v in acc.bd_sums]
            ),
            nb_utilisation=sum(acc.utilisations) / len(acc.utilisations),
            interval_s=p.interval_s,
        )
        p._interval_index += 1
        return sample

    # -- slice emission -------------------------------------------------------

    def _emit_slices(
        self, n, start, acc, process_draws, sensor_noise, utilisation,
        cu_leak_prefix, cu_act_idle, clock, dynamic, housekeeping,
        nb_leak_prefix, nb_act_idle, nb_dyn,
    ) -> None:
        """Emit ``n`` consecutive power/thermal slices whose activity-
        driven components are constant (temperature still evolves)."""
        p = self.platform
        slice_s = p.slice_s
        pm = p.power_model
        thermal = p.thermal
        sensor = p.sensor
        base = p.spec.base_power
        dyn_part = dynamic + clock + nb_dyn
        bd = acc.bd_sums
        for i in range(start, start + n):
            temp_factor = pm.leakage_temperature_factor(thermal.temperature)
            cu_leak = cu_leak_prefix * temp_factor
            nb_leak = nb_leak_prefix * temp_factor
            # PowerBreakdown.total, addition order preserved; the
            # per-slice breakdown object itself is never observed (only
            # the interval average is), so only its sums are kept.
            total = (
                base + cu_leak + cu_act_idle + clock + dynamic
                + nb_leak + nb_act_idle + nb_dyn + housekeeping
            )
            bd[1] += cu_leak
            bd[5] += nb_leak
            # Platform._apply_process_noise, with the pre-drawn sample
            # (scalar np.exp keeps the ufunc path bit-identical).
            factor = float(np.exp(process_draws[i]))
            true_power = total + dyn_part * (factor - 1.0)
            acc.true_powers.append(true_power)
            acc.power_samples.append(
                sensor.apply_noise(true_power, float(sensor_noise[i]))
            )
            acc.utilisations.append(utilisation)
            thermal.step(true_power, slice_s)
            p._time += slice_s
        # Slice-constant fields, added n times at once.
        bd[0] += base * n
        bd[2] += cu_act_idle * n
        bd[3] += clock * n
        bd[4] += dynamic * n
        bd[6] += nb_act_idle * n
        bd[7] += nb_dyn * n
        bd[8] += housekeeping * n

    def _assemble_power(self, busy_cores, core_dyn, l3_sum, dram_sum):
        """Temperature-independent power sums for one busy pattern.

        Mirrors :meth:`GroundTruthPower.chip_power` (CU-major iteration,
        Figure 4 gating semantics) with the leakage voltage prefixes
        hoisted; returns the constants :meth:`_emit_slices` consumes.
        """
        p = self.platform
        gating = p.power_gating and self._supports_pg
        cu_leak_prefix = 0.0
        cu_act_idle = 0.0
        clock = 0.0
        dynamic = 0.0
        housekeeping = 0.0
        any_cu_awake = False
        for cu, cores_of_cu in enumerate(self._cu_cores):
            cu_busy = any(busy_cores[c] for c in cores_of_cu)
            if gating and not cu_busy:
                continue
            any_cu_awake = True
            leak, act_idle, clk = self._vf_power_constants(p._cu_vfs[cu])
            cu_leak_prefix += leak
            cu_act_idle += act_idle
            if cu_busy:
                for c in cores_of_cu:
                    if busy_cores[c]:
                        clock += clk
                        dynamic += core_dyn[c]
            housekeeping += self._hk_share
        if gating and not any_cu_awake:
            return (cu_leak_prefix, cu_act_idle, clock, dynamic, housekeeping,
                    0.0, 0.0, 0.0)
        nb_dyn = p.nb.dynamic_power(l3_sum, dram_sum)
        return (cu_leak_prefix, cu_act_idle, clock, dynamic, housekeeping,
                self._nb_leak_prefix, self._nb_act_idle, nb_dyn)

    # -- the two slice paths --------------------------------------------------

    def _run_batch(
        self, rows, contention, utilisation, s, k, acc,
        process_draws, sensor_noise,
    ) -> None:
        """Advance ``k`` provably-steady sub-slices in one shot."""
        p = self.platform
        dt = p.slice_s
        mab = p.nb.mab_distortion(utilisation)
        insts = self._insts

        # Per-core event counts of ONE steady sub-slice (the scalar
        # segment arithmetic, one multiply per cell); the interval
        # bookkeeping below replays it k times.
        num_cores = p.spec.num_cores
        busy_cores = [False] * num_cores
        core_dyn = [0.0] * num_cores
        l3_sum = 0.0
        dram_sum = 0.0
        k_even = (k + 1) // 2 if s % 2 == 0 else k // 2
        k_odd = k - k_even
        instructions = acc.instructions
        cores = p.cores
        for c, row in enumerate(rows):
            if row is None:
                continue
            mem_cycles = row.mem_ns * contention * row.f
            cpi = row.ccpi + mem_cycles
            inst = insts[c]
            counts = row.slice_counts(inst, cpi, mem_cycles * mab)
            true_row = acc.true_counts[c]
            ga_row = acc.group_a[c]
            gb_row = acc.group_b[c]
            for i in range(NUM_EVENTS):
                v = counts[i]
                true_row[i] += v * k
                if k_even:
                    ga_row[i] += v * k_even
                if k_odd:
                    gb_row[i] += v * k_odd
            busy_cores[c] = True
            inst_rate = inst / dt
            core_dyn[c] = row.dyn_coeff * inst_rate
            l3_sum += row.l3_per_inst * inst_rate
            dram_sum += row.dram_per_inst * inst_rate
            advanced = inst * k
            instructions[c] += advanced
            core = cores[c]
            core.instructions_done += advanced
            core._inst_into_phase += advanced
        acc.group_slices[0] += k_even
        acc.group_slices[1] += k_odd

        power = self._assemble_power(busy_cores, core_dyn, l3_sum, dram_sum)
        self._emit_slices(
            k, s, acc, process_draws, sensor_noise, utilisation, *power
        )

    def _run_mixed_slice(
        self, rows, contention, utilisation, s, stalls, acc,
        process_draws, sensor_noise,
    ) -> None:
        """One sub-slice with at least one core near a boundary.

        Only the boundary (or stalled) cores pay for the scalar
        :meth:`CoreRuntime.run_slice`; cores provably steady for this
        slice (``_compute_spans`` just ran for the batch decision) take
        the same single-segment row arithmetic the batch path uses,
        which is bit-identical to what ``run_slice`` would compute for
        them.
        """
        p = self.platform
        group = s % 2
        dt = p.slice_s
        mab = None  # computed lazily: only steady cores need it
        busy_cores = [False] * p.spec.num_cores
        core_dyn = [0.0] * p.spec.num_cores
        l3_sum = 0.0
        dram_sum = 0.0
        instructions = acc.instructions
        spans = self._spans
        insts = self._insts
        group_counts = acc.group_a if group == 0 else acc.group_b
        first = s == 0
        for c, (core, row) in enumerate(zip(p.cores, rows)):
            stall = stalls[self._core_cu[c]] if first else 0.0
            if row is not None and stall == 0.0 and spans[c] >= 1:
                if mab is None:
                    mab = p.nb.mab_distortion(utilisation)
                mem_cycles = row.mem_ns * contention * row.f
                cpi = row.ccpi + mem_cycles
                inst = insts[c]
                counts = row.slice_counts(inst, cpi, mem_cycles * mab)
                instructions[c] += inst
                core.instructions_done += inst
                core._inst_into_phase += inst
                busy_cores[c] = True
                inst_rate = inst / dt
                core_dyn[c] = row.dyn_coeff * inst_rate
                l3_sum += row.l3_per_inst * inst_rate
                dram_sum += row.dram_per_inst * inst_rate
            else:
                vf = p._cu_vfs[self._core_cu[c]]
                result = core.run_slice(
                    max(dt - stall, 1e-9), vf, p.nb, contention, utilisation,
                    p._time,
                )
                if not result.busy:
                    continue
                counts = result.events.as_list()
                instructions[c] += result.instructions
                activity = result.activity
                busy_cores[c] = True
                core_dyn[c] = p.power_model.core_dynamic(activity, vf.voltage)
                l3_sum += activity.l3_accesses
                dram_sum += activity.dram_accesses
            true_row = acc.true_counts[c]
            # Full-row add: read_interval only ever scales this group's
            # own columns, so the off-group cells are never read.
            group_row = group_counts[c]
            for i in range(NUM_EVENTS):
                v = counts[i]
                true_row[i] += v
                group_row[i] += v
        acc.group_slices[group] += 1

        power = self._assemble_power(busy_cores, core_dyn, l3_sum, dram_sum)
        self._emit_slices(
            1, s, acc, process_draws, sensor_noise, utilisation, *power
        )


class _IntervalAccumulator:
    """Mutable per-interval state shared by the slice paths.

    Flat Python lists beat small-numpy arrays at this size (8x12), and
    per-element accumulation keeps the scalar path's addition order, so
    the mixed-slice path stays bit-exact.
    """

    __slots__ = (
        "true_counts",
        "group_a",
        "group_b",
        "group_slices",
        "instructions",
        "power_samples",
        "bd_sums",
        "true_powers",
        "utilisations",
    )

    def __init__(self, num_cores: int) -> None:
        self.true_counts = [[0.0] * NUM_EVENTS for _ in range(num_cores)]
        self.group_a = [[0.0] * NUM_EVENTS for _ in range(num_cores)]
        self.group_b = [[0.0] * NUM_EVENTS for _ in range(num_cores)]
        self.group_slices = [0, 0]
        self.instructions = [0.0] * num_cores
        self.power_samples: List[float] = []
        #: Running sums of the nine PowerBreakdown fields, in field
        #: order -- what _average_breakdowns would compute from the
        #: per-slice breakdowns, without materialising them.
        self.bd_sums = [0.0] * 9
        self.true_powers: List[float] = []
        self.utilisations: List[float] = []
