"""How fast the host runs right now, from a fixed reference job.

A shared host can change speed by up to 2x within seconds: another
tenant on the sibling hyperthread, or a frequency change, slows every
instruction (CPU time grows with wall time; nothing is stolen).  Timed
raw, the same commit then reads 30% apart from one minute to the next.
The benchmark therefore times a fixed reference job -- stdlib and numpy
work that shares no code with the program -- before and after every
window of measured operations (:class:`Meter`), and scales the window's
timings to the host's nominal speed (:func:`slowdown`).  A program
change moves the workload but not the reference, so it still shows in
full.
"""

import json
import math
import time

import numpy as np

__all__ = ["Meter", "at_nominal", "probe", "reference_job", "slowdown"]

_PAYLOAD = {
    "node": "fx8320-n00",
    "sample": {
        "power_samples": [61.5 + 0.25 * i for i in range(10)],
        "core_events": [[0.3 * j + k for j in range(12)] for k in range(8)],
        "temperature": 55.25,
    },
}
_VECTOR = np.linspace(0.0, 1.0, 40)


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y

    def value(self, z):
        return self.x * z + self.y


def reference_job():
    """A few ms of interpreter, dict, json and small-array numpy work."""
    table = {}
    for i in range(2000):
        key = i & 255
        table[key] = table.get(key, 0.0) + math.sqrt(i + 1.0)
    for _ in range(15):
        json.loads(json.dumps(_PAYLOAD, sort_keys=True))
    vector = _VECTOR
    total = 0.0
    for _ in range(150):
        vector = vector * 1.0001 + 0.25
        total += float(vector.sum())
    points = [_Point(i * 0.5, i * 0.25) for i in range(100)]
    for _ in range(5):
        total += sum(p.value(1.5) for p in points)
    return total + sum(table.values())


def probe(repeats=5):
    """Seconds the reference job takes now (the fastest of ``repeats``)."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        reference_job()
        best = min(best, time.perf_counter() - started)
    return best


def slowdown(reference_s, host):
    """How much slower than nominal the host ran, for the workloads.

    ``host`` is the ``params.json`` entry: ``nominal_s`` is the
    reference job's time on the host at full speed, and ``elasticity``
    how strongly the workloads' timings follow the reference job's
    (chosen once as the value that minimised the run-to-run spread of
    every workload over 40 runs; see README.md).
    """
    return (reference_s / host["nominal_s"]) ** host["elasticity"]


def at_nominal(latency_s, wait_s, slow):
    """An operation's latency at nominal speed: a deliberate wait (the
    client's back-off sleep) is wall-clock time host speed does not
    change, so only the rest is scaled."""
    return (latency_s - wait_s) / slow + wait_s


class Meter:
    """Groups operation latencies into windows, probing at each boundary.

    Operations are grouped in order into windows of at least
    ``window_s`` seconds.  Each closed window is kept as (its raw
    latencies, the part of each spent in deliberate waits, the mean of
    the probes before and after it).
    """

    def __init__(self, window_s):
        self.window_s = window_s
        self.windows = []
        #: Seconds spent probing at window boundaries, inside the run.
        self.probe_s = 0.0
        self._latencies = []
        self._waits = []
        self._busy = 0.0
        self._probe = probe()

    def add(self, latency_s, wait_s=0.0):
        """Record one operation; closes (and probes) a full window."""
        self._latencies.append(latency_s)
        self._waits.append(wait_s)
        self._busy += latency_s
        if self._busy >= self.window_s:
            self.close()

    def close(self):
        """Close the open window, if it holds any operation."""
        if not self._latencies:
            return
        started = time.perf_counter()
        after = probe()
        self.probe_s += time.perf_counter() - started
        self.windows.append(
            (self._latencies, self._waits, (self._probe + after) / 2.0)
        )
        self._latencies = []
        self._waits = []
        self._busy = 0.0
        self._probe = after
