"""repro.obs -- online observability for the prediction pipeline.

PPEP's value is *online* prediction quality: Figure 2/6 accuracy only
matters if, at runtime, you can see when the model is wrong and by how
much.  This package provides the three layers that make the pipeline
observable without slowing it down:

- :mod:`repro.obs.metrics` -- counters, gauges, fixed-bucket histograms
  and span timers behind a process-global :class:`Registry` with a
  zero-cost no-op mode;
- :mod:`repro.obs.events` -- schema-versioned JSON-lines event emission
  (model retrain, VF transition, filter verdict, quarantine enter/exit,
  cap reallocation, per-interval prediction records, drift flags); the
  event stream is the one home of the per-interval rows;
- :mod:`repro.obs.ledger` -- the :class:`PredictionLedger`: per-node
  and per-VF rolling MAE and percentile error of predicted-vs-realized
  power, and a CUSUM drift detector calibrated on the early error band
  (aggregates only);
- :mod:`repro.obs.report` -- replays a recorded event stream into a
  fresh ledger and the text report behind ``ppep-repro obs``.
"""

from repro.obs.events import (
    EVENT_FIELDS,
    EVENT_TYPES,
    SCHEMA_VERSION,
    EventLog,
    read_events,
)
from repro.obs.ledger import CusumDetector, PredictionLedger, RollingStats
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    NullRegistry,
    Registry,
    disable,
    enable,
    get_registry,
    set_registry,
)
from repro.obs.report import ObsReport, format_report, replay, replay_file

__all__ = [
    "SCHEMA_VERSION",
    "EVENT_TYPES",
    "EVENT_FIELDS",
    "EventLog",
    "read_events",
    "PredictionLedger",
    "RollingStats",
    "CusumDetector",
    "Registry",
    "NullRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "get_registry",
    "set_registry",
    "enable",
    "disable",
    "ObsReport",
    "replay",
    "replay_file",
    "format_report",
]
