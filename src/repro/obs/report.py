"""Replay a recorded event stream into the ``ppep-repro obs`` report.

The report has three sections: per-VF error tables (rolling MAE in
watts and relative error, the online analogue of the Figure 2/6
columns), the drift timeline (every CUSUM flag plus quarantine and
retrain events, in interval order), and per-node health (record
counts, rolling error, filter verdicts, quarantine state).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.formatting import format_percent, format_table
from repro.obs.events import read_events
from repro.obs.ledger import PredictionLedger

__all__ = ["ObsReport", "replay", "replay_file", "format_report"]


@dataclass
class ObsReport:
    """Everything the text report needs, derived from one event stream."""

    ledger: PredictionLedger
    #: (interval, node, description) drift/quarantine/retrain timeline.
    timeline: List[Tuple[int, str, str]] = field(default_factory=list)
    #: Per-node filter verdict tallies {node: {quality: count}}.
    verdicts: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Per-node VF transition counts.
    transitions: Dict[str, int] = field(default_factory=dict)
    #: Nodes currently quarantined at end of stream.
    quarantined: List[str] = field(default_factory=list)
    #: Total events replayed, by type.
    event_counts: Dict[str, int] = field(default_factory=dict)


def replay(events: Iterable[dict], **ledger_kwargs) -> ObsReport:
    """Drive a fresh ledger and the timeline off an event stream.

    ``events`` is any iterable of parsed event dicts (typically
    :func:`repro.obs.events.read_events` on a JSONL file).  Prediction
    rows are re-ingested so drift is recomputed deterministically: under
    the live run's ledger settings (and without ``set_band``), the
    report's ledger equals the live one, ``state_dict`` included.
    Recorded ``drift`` events are kept in the timeline as emitted, so a
    replayed report also shows flags from runs with different detector
    settings.
    """
    ledger = PredictionLedger(**ledger_kwargs)
    report = ObsReport(ledger=ledger)
    in_quarantine: Dict[str, bool] = {}
    recorded_drifts = set()
    recomputed_drifts: List[Tuple[int, str]] = []
    for event in events:
        etype = event.get("type", "?")
        node = event.get("node", "node0")
        interval = int(event.get("interval", 0))
        report.event_counts[etype] = report.event_counts.get(etype, 0) + 1
        if etype == "prediction":
            # GOOD intervals emit no filter_verdict event (anomalies
            # only); their quality rides on the prediction row, so the
            # G column of the health table tallies from here.
            if event.get("quality") == "good":
                tallies = report.verdicts.setdefault(node, {})
                tallies["good"] = tallies.get("good", 0) + 1
            drift = ledger.record(
                node=node,
                interval=interval,
                vf_index=event["vf_index"],
                predicted_power=event["predicted_power"],
                measured_power=event["measured_power"],
                interval_s=event.get("interval_s", 0.2),
                quality=event.get("quality"),
            )
            if drift:
                recomputed_drifts.append((interval, node))
        elif etype == "drift":
            recorded_drifts.add((node, interval))
            report.timeline.append(
                (
                    interval,
                    node,
                    "drift: rolling MAE {:.2f} W".format(
                        event.get("rolling_mae", 0.0)
                    ),
                )
            )
        elif etype == "filter_verdict":
            tallies = report.verdicts.setdefault(node, {})
            quality = event.get("quality", "?")
            tallies[quality] = tallies.get(quality, 0) + 1
        elif etype == "vf_transition":
            report.transitions[node] = report.transitions.get(node, 0) + 1
        elif etype == "quarantine_enter":
            in_quarantine[node] = True
            report.timeline.append(
                (
                    interval,
                    node,
                    "quarantined (bad streak {})".format(
                        event.get("bad_streak", "?")
                    ),
                )
            )
        elif etype == "quarantine_exit":
            in_quarantine[node] = False
            report.timeline.append(
                (
                    interval,
                    node,
                    "re-admitted after {} intervals".format(
                        event.get("quarantined_intervals", "?")
                    ),
                )
            )
        elif etype == "model_retrain":
            report.timeline.append(
                (
                    interval,
                    node,
                    "model retrained for {} ({:.1f} s)".format(
                        event.get("spec", "?"), event.get("seconds", 0.0)
                    ),
                )
            )
        elif etype == "cap_reallocation":
            report.timeline.append(
                (
                    interval,
                    node,
                    "budget {:.0f} W over {}/{} healthy nodes".format(
                        event.get("budget_w", 0.0),
                        event.get("healthy_nodes", 0),
                        event.get("total_nodes", 0),
                    ),
                )
            )
    # A live-run ledger emits an explicit ``drift`` event alongside each
    # flagged prediction row; a raw stream of rows alone (e.g. a hand-cut
    # ledger) has only the recomputed flags.  Keep one line per flag.
    for interval, node in recomputed_drifts:
        if (node, interval) not in recorded_drifts:
            report.timeline.append(
                (interval, node, "drift: error left calibration band")
            )
    report.timeline.sort(key=lambda item: (item[0], item[1]))
    report.quarantined = sorted(
        node for node, flag in in_quarantine.items() if flag
    )
    return report


def replay_file(path: str, **ledger_kwargs) -> ObsReport:
    """:func:`replay` over a JSONL event file."""
    return replay(read_events(path), **ledger_kwargs)


def format_report(report: ObsReport, max_timeline: int = 40) -> str:
    """Render the replayed stream as the three-section text report."""
    ledger = report.ledger
    sections: List[str] = []

    per_vf = ledger.per_vf_mae()
    if per_vf:
        rel = ledger.per_vf_relative()
        rows = [
            ["VF{}".format(vf), "{:.2f}".format(mae), format_percent(rel[vf])]
            for vf, mae in per_vf.items()
        ]
        sections.append(
            format_table(
                ["VF state", "rolling MAE (W)", "rel. error"],
                rows,
                title="Online prediction error by VF state",
            )
        )

    summary = ledger.node_summary()
    if summary:
        rows = []
        for node, stats in summary.items():
            verdicts = report.verdicts.get(node, {})
            rows.append(
                [
                    node,
                    "{:d}".format(int(stats["records"])),
                    "{:.2f}".format(stats["rolling_mae_w"]),
                    format_percent(stats["rolling_rel_err"]),
                    "{:.2f}".format(stats["p95_abs_err_w"]),
                    "{:d}".format(int(stats["drift_flags"])),
                    "{}/{}/{}".format(
                        verdicts.get("good", 0),
                        verdicts.get("repaired", 0),
                        verdicts.get("bad", 0),
                    ),
                    "QUARANTINED" if node in report.quarantined else "ok",
                ]
            )
        sections.append(
            format_table(
                [
                    "node",
                    "intervals",
                    "MAE (W)",
                    "rel",
                    "p95 (W)",
                    "drift",
                    "G/R/B",
                    "state",
                ],
                rows,
                title="Per-node health",
            )
        )

    if report.timeline:
        lines = ["Drift / event timeline:"]
        shown = report.timeline[:max_timeline]
        for interval, node, description in shown:
            lines.append(
                "  interval {:>5d}  {:<10s} {}".format(
                    interval, node, description
                )
            )
        hidden = len(report.timeline) - len(shown)
        if hidden > 0:
            lines.append("  ... {} more events".format(hidden))
        sections.append("\n".join(lines))
    else:
        sections.append("Drift / event timeline: no flags (error stayed "
                        "inside the calibration band)")

    counts = ", ".join(
        "{}={}".format(k, v) for k, v in sorted(report.event_counts.items())
    )
    sections.append("Replayed events: {}".format(counts or "none"))
    return "\n\n".join(sections)
