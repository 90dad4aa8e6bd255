"""Real-telemetry ingestion tier: live monitor agent + trace adapters.

Two front doors feed the serving stack's ``extend`` pipeline with
*measured* availability signals instead of synthetic ones:

* :mod:`repro.ingest.agent` — a live host monitor that samples the
  machine it runs on (via :mod:`repro.ingest.samplers`), quantizes onto
  the model grid, buffers durably, and streams seq-correct chunks to a
  server or cluster;
* :mod:`repro.ingest.adapters` — converters for foreign trace formats
  (generic timestamped CSV, spot-VM preemption logs) onto the same
  grid and calendar.

:mod:`repro.ingest.timebase` holds the wall-clock ↔ model-calendar
mapping both doors share, so live samples and imported history agree on
what a weekday is.
"""

from repro.ingest.agent import AgentConfig, MonitorAgent, SimulatedClock
from repro.ingest.adapters import ADAPTERS, AdapterStats, get_adapter, register_adapter
from repro.ingest.samplers import (
    SAMPLER_KINDS,
    HostSample,
    MissingDependencyError,
    ProcSampler,
    PsutilSampler,
    SyntheticSampler,
    make_sampler,
)
from repro.ingest.timebase import (
    UNIX_EPOCH_OFFSET_S,
    day_type_of_wall,
    model_to_wall,
    wall_to_model,
)

__all__ = [
    "ADAPTERS",
    "AdapterStats",
    "AgentConfig",
    "HostSample",
    "MissingDependencyError",
    "MonitorAgent",
    "ProcSampler",
    "PsutilSampler",
    "SAMPLER_KINDS",
    "SimulatedClock",
    "SyntheticSampler",
    "UNIX_EPOCH_OFFSET_S",
    "day_type_of_wall",
    "get_adapter",
    "make_sampler",
    "model_to_wall",
    "register_adapter",
    "wall_to_model",
]
