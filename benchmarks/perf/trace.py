"""Spans around the program's layers, recorded from outside the program.

:func:`install` wraps the public functions listed in :data:`SPANS` --
the calls into each layer -- so a traced run needs no change to the
program.  Every call made while the tracer is on records one span:
name, start, end, the span that was open when it began (its parent),
and a request id (the fleet round, or the ``(node, interval)`` a shard
is deciding), inherited from the parent unless the wrapper derives one.
Spans stay in memory and are written out when the run ends.

Forked shard workers inherit the wrappers.  The worker entry point is
wrapped too, so each worker starts with an empty span list, traces its
whole life, and spills its spans to a file on exit for the parent to
merge.

A layer's *self* time is its spans' duration minus the part covered by
their child spans (:func:`self_times`), so self times add up to the
traced wall time without counting a nested call twice.
"""

import contextlib
import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

__all__ = [
    "SPANS",
    "STAGES",
    "Tracer",
    "install",
    "layer_table",
    "self_times",
    "stage_totals",
]

#: (span name, module, attribute, stage) for every wrapped call.
SPANS = (
    ("fleet.manager.run", "repro.fleet.cluster_cap", "ClusterPowerManager.run", "control"),
    ("fleet.engine.step", "repro.fleet.simulator", "FleetSimulator.step", "io"),
    ("hardware.actuate", "repro.hardware.platform", "Platform.set_cu_vf", "io"),
    ("serve.protocol.decode", "repro.serve.protocol", "decode_line", "io"),
    ("serve.protocol.parse", "repro.serve.protocol", "parse_telemetry", "io"),
    ("serve.protocol.sample", "repro.serve.protocol", "sample_from_wire", "io"),
    ("serve.manager.submit", "repro.serve.manager", "ShardManager.submit", "io"),
    ("faults.filter.batch", "repro.faults.filtering", "BatchTelemetryFilter.ingest_many", "filter"),
    ("faults.filter.node", "repro.faults.filtering", "TelemetryFilter.ingest", "filter"),
    ("core.states", "repro.core.ppep", "PPEP.core_states", "states"),
    ("fleet.predict", "repro.fleet.simulator", "FleetSimulator.predict", "predict"),
    ("core.batch.predict", "repro.core.batch", "BatchedVFPredictor.predict_samples", "predict"),
    ("core.predict.current", "repro.core.ppep", "PPEP.estimate_current", "predict"),
    ("core.predict.mixed", "repro.core.ppep", "PPEP.predict_mixed", "predict"),
    ("dvfs.cap.decide", "repro.dvfs.power_capping", "PPEPPowerCapper.decide", "cap"),
    ("fleet.allocate", "repro.fleet.cluster_cap", "allocate_budget", "allocate"),
    ("obs.ledger.record", "repro.obs.ledger", "PredictionLedger.record", "ledger"),
    ("obs.ledger.record_many", "repro.obs.ledger", "PredictionLedger.record_many", "ledger"),
    ("obs.events.emit", "repro.obs.events", "EventLog.emit", "persist"),
    ("obs.events.flush", "repro.obs.events", "EventLog.flush", "persist"),
    ("serve.checkpoint.save", "repro.serve.checkpoint", "Checkpointer.save", "persist"),
    ("serve.shard.process", "repro.serve.shard", "ShardPipeline.process", "control"),
)

#: The stage table's rows, in interval-path order.  ``runner`` is the
#: benchmark's own loop (spans named ``bench.*``) plus measured wall
#: time no span covers.
STAGES = (
    "io", "filter", "states", "predict", "cap", "allocate", "ledger",
    "persist", "control", "runner",
)

STAGE_OF = {name: stage for name, _module, _attr, stage in SPANS}


def _process_rid(_pipeline, node, sample, *_args, **_kwargs):
    return (node, int(getattr(sample, "index", -1)))


#: Wrapped calls that start a new request id instead of inheriting one.
_RID_OF = {"serve.shard.process": _process_rid}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, spill_dir=None):
        #: Spans are recorded only while ``on`` (the measured window).
        self.on = False
        #: Where forked workers write their spans on exit.
        self.spill_dir = spill_dir
        #: Wrapped targets missing from the program (renamed or removed).
        self.missing = []
        self._patches = []
        self.reset()

    def reset(self):
        self.pid = os.getpid()
        #: [name, start, end, parent index, request id]
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []

    def start(self):
        self.on = True

    def stop(self):
        self.on = False

    def begin(self, name, rid=None):
        """Open a span (child of the innermost open one); returns its index."""
        stack = self._stack
        parent = stack[-1] if stack else None
        if rid is None and parent is not None:
            rid = self.spans[parent][4]
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, rid])
        stack.append(index)
        return index

    def end(self, index):
        self.spans[index][2] = time.perf_counter()
        stack = self._stack
        if stack and stack[-1] == index:
            stack.pop()
        elif index in stack:
            stack.remove(index)

    @contextlib.contextmanager
    def span(self, name, rid=None):
        """One span around a ``with`` block (the benchmark's own loops)."""
        index = self.begin(name, rid)
        try:
            yield
        finally:
            self.end(index)

    def export(self):
        """The spans as JSON-ready dicts with process-unique ids."""
        pid = self.pid
        return [
            {
                "id": "{}:{}".format(pid, i),
                "parent": None if parent is None else "{}:{}".format(pid, parent),
                "name": name,
                "start": start,
                "end": end,
                "rid": rid,
                "pid": pid,
            }
            for i, (name, start, end, parent, rid) in enumerate(self.spans)
        ]

    def spill(self):
        """Write this process's spans and counts for the parent to merge."""
        if self.spill_dir is None:
            return
        os.makedirs(self.spill_dir, exist_ok=True)
        path = os.path.join(self.spill_dir, "worker-{}.json".format(self.pid))
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.export(), "counts": dict(self.counts)}, handle)

    def merged(self):
        """This process's spans and counts plus every spilled worker's."""
        spans = self.export()
        counts = defaultdict(int, self.counts)
        if self.spill_dir is not None and os.path.isdir(self.spill_dir):
            for entry in sorted(os.listdir(self.spill_dir)):
                with open(os.path.join(self.spill_dir, entry), encoding="utf-8") as handle:
                    spilled = json.load(handle)
                spans += spilled["spans"]
                for key, value in spilled["counts"].items():
                    counts[key] += value
        return spans, dict(counts)

    # -- wrappers -------------------------------------------------------------

    def _span_wrapper(self, name, fn):
        rid_of = _RID_OF.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            index = self.begin(name, None if rid_of is None else rid_of(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    def _count_wrapper(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.on:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _engine_wrapper(self, fn):
        # Counted whether or not the tracer is on: for the shard and
        # serve workloads the engine runs only while pre-generating
        # their telemetry, before the measured window.
        @functools.wraps(fn)
        def stepped(engine, *args, **kwargs):
            samples = fn(engine, *args, **kwargs)
            self.counts["engine.nodes"] += len(samples)
            self.counts["engine.batched"] += int(getattr(engine, "last_batched", 0))
            return samples

        return stepped

    def _worker_wrapper(self, fn):
        @functools.wraps(fn)
        def worker(*args, **kwargs):
            self.reset()
            self.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.stop()
                self.spill()

        return worker


def _resolve(module_name, attr):
    """(owner, name, original) for ``Class.method`` or a module function."""
    module = importlib.import_module(module_name)
    owner = module
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    name = parts[-1]
    original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
    return owner, name, original


def _patch(tracer, module_name, attr, make_wrapper):
    try:
        owner, name, original = _resolve(module_name, attr)
    except (ImportError, AttributeError, KeyError):
        tracer.missing.append("{}.{}".format(module_name, attr))
        return
    wrapper = make_wrapper(original)
    if isinstance(owner, type):
        targets = [owner]
    else:
        # A module function is called through every module that
        # imported it by name, so rebind each of those references.
        targets = [
            module
            for module_name_, module in list(sys.modules.items())
            if module is not None
            and (module_name_ == "repro" or module_name_.startswith("repro."))
            and module.__dict__.get(name) is original
        ]
    for target in targets:
        tracer._patches.append((target, name, original))
        setattr(target, name, wrapper)


def install(tracer):
    """Wrap every layer boundary for ``tracer``; returns an undo callable."""
    for name, module_name, attr, _stage in SPANS:
        _patch(tracer, module_name, attr, functools.partial(tracer._span_wrapper, name))
    _patch(
        tracer, "repro.core.ppep", "MixedPricer.price",
        functools.partial(tracer._count_wrapper, "cap.prices"),
    )
    _patch(tracer, "repro.fleet.engine", "FleetEngine.step", tracer._engine_wrapper)
    _patch(tracer, "repro.serve.shard", "shard_worker_main", tracer._worker_wrapper)

    def uninstall():
        while tracer._patches:
            target, name, original = tracer._patches.pop()
            setattr(target, name, original)

    return uninstall


# -- arithmetic ----------------------------------------------------------------


def self_times(spans):
    """Each span's duration minus the union of its children's intervals.

    ``spans`` are dicts with ``id``, ``parent``, ``start`` and ``end``;
    a child's interval is clipped to its parent's before the union.
    """
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    result = []
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span["id"], ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result.append((end - start) - covered)
    return result


def layer_table(spans):
    """{span name: {"count", "total_s", "self_s"}}."""
    table = defaultdict(lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0})
    for span, own in zip(spans, self_times(spans)):
        row = table[span["name"]]
        row["count"] += 1
        row["total_s"] += span["end"] - span["start"]
        row["self_s"] += own
    return dict(table)


def stage_totals(spans, wall_s, main_pid):
    """(seconds of self time per stage, share of ``wall_s`` spans cover).

    Coverage counts the main process's root spans; the part of the wall
    they leave uncovered is added to ``runner``.
    """
    totals = dict.fromkeys(STAGES, 0.0)
    for span, own in zip(spans, self_times(spans)):
        totals[STAGE_OF.get(span["name"], "runner")] += own
    covered = sum(
        span["end"] - span["start"]
        for span in spans
        if span["parent"] is None and span["pid"] == main_pid
    )
    totals["runner"] += max(wall_s - covered, 0.0)
    return totals, (covered / wall_s if wall_s > 0 else 0.0)
