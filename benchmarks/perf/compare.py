#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric.

    python3 benchmarks/perf/compare.py A B [--history PATH]

``A`` and ``B`` each name a set of rows written by ``run.py --record``:
a commit-hash prefix selects that commit's rows from the history file
(default ``history.jsonl`` beside this script), and a path to a
``.jsonl`` file selects every row in it.  For each (workload, metric)
the two medians and quartiles are printed with a verdict, using the
bounds and directions in ``BENCHMARK.json``:

- ``worse``: B's median is worse than A's by more than the bound;
- ``unresolved``: otherwise, when either set's quartile spread (as a
  share of its median) is wider than the bound -- unless every B run
  beats every A run, which reads ``better``;
- ``better``: B's median is better by more than the bound;
- ``same``: the medians are within the bound.

Per-layer metrics have no bound and get no verdict.  Exits 1 on any
``worse`` verdict.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def load_rows(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def select(ref, history):
    """The rows a command-line reference names (file path or commit prefix)."""
    if ref.endswith(".jsonl") and os.path.isfile(ref):
        return load_rows(ref)
    return [row for row in load_rows(history) if row["commit"].startswith(ref)]


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a_values, b_values, bound, better):
    """better / worse / same / unresolved for B against A."""
    qa, qb = quartiles(a_values), quartiles(b_values)
    if qa[1] == 0 or qb[1] == 0:
        return "unresolved"
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (qb[1] - qa[1]) / abs(qa[1])
    spread = max((qa[2] - qa[0]) / abs(qa[1]), (qb[2] - qb[0]) / abs(qb[1]))
    if worse_by > bound:
        return "worse"
    if spread > bound:
        if better == "lower":
            every_b_wins = max(b_values) < min(a_values)
        else:
            every_b_wins = min(b_values) > max(a_values)
        return "better" if every_b_wins else "unresolved"
    if -worse_by > bound:
        return "better"
    return "same"


def grouped(rows):
    """{(workload, metric): [values]} over every row."""
    groups = {}
    for row in rows:
        for metric, value in row["metrics"].items():
            groups.setdefault((row["workload"], metric), []).append(value)
    return groups


def compare(a_rows, b_rows, bench):
    """Printable lines and the verdict per (workload, metric)."""
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    a_groups, b_groups = grouped(a_rows), grouped(b_rows)
    lines = ["{:<16} {:<26} {:>32} {:>32} {:>8}  {}".format(
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "verdict")]
    verdicts = {}
    for key in sorted(set(a_groups) & set(b_groups)):
        a_values, b_values = a_groups[key], b_groups[key]
        spec = declared.get(key[1], {})
        if "bound" in spec:
            verdicts[key] = verdict(a_values, b_values, spec["bound"], spec["better"])
        qa, qb = quartiles(a_values), quartiles(b_values)
        change = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else float("nan")
        lines.append("{:<16} {:<26} {:>32} {:>32} {:>+8.1%}  {}".format(
            key[0], key[1],
            "{:.4g} [{:.4g}, {:.4g}] n={}".format(qa[1], qa[0], qa[2], len(a_values)),
            "{:.4g} [{:.4g}, {:.4g}] n={}".format(qb[1], qb[0], qb[2], len(b_values)),
            change, verdicts.get(key, "-")))
    return lines, verdicts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="commit prefix or .jsonl file (the base)")
    parser.add_argument("b", help="commit prefix or .jsonl file (the change)")
    parser.add_argument("--history", default=os.path.join(HERE, "history.jsonl"),
                        help="history file commit prefixes select from")
    parser.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"),
                        help="BENCHMARK.json with the bounds")
    args = parser.parse_args(argv)
    with open(args.benchmark, encoding="utf-8") as handle:
        bench = json.load(handle)
    a_rows, b_rows = select(args.a, args.history), select(args.b, args.history)
    if not a_rows or not b_rows:
        sys.stderr.write("compare.py: no rows for {}\n".format(args.a if not a_rows else args.b))
        return 2
    hosts = {json.dumps(row.get("host"), sort_keys=True) for row in a_rows + b_rows}
    if len(hosts) > 1:
        print("warning: the rows come from {} different hosts".format(len(hosts)))
    lines, verdicts = compare(a_rows, b_rows, bench)
    print("\n".join(lines))
    worse = sorted(key for key, v in verdicts.items() if v == "worse")
    for workload, metric in worse:
        print("WORSE {} {}".format(workload, metric))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
