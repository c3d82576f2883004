"""Fleet-scale energy simulation under time-varying load (paper Sec. V).

The deployment-time loop the paper's power-state-machine data exists to
feed: a discrete-interval simulator drives a
:class:`~repro.simhw.factory.SimTestbed` — typically built from a
generated cluster model — with seeded synthetic traffic traces, while a
pluggable DVFS *governor* picks a P-state per machine per interval.  The
simulator accounts busy/idle/transition energy exactly (through
:class:`~repro.simhw.machine.SimMachine` and PSM switch plans), tracks
SLO attainment against the offered load, and emits a per-policy
energy/SLO report.
"""

from .traces import TRACE_KINDS, Trace, make_trace
from .governors import (
    GOVERNORS,
    Governor,
    OndemandGovernor,
    PerformanceGovernor,
    PowersaveGovernor,
    RaceToIdleGovernor,
    make_governor,
)
from .simulator import (
    FleetReport,
    FleetSimulator,
    PolicyResult,
    index_state_catalog,
    simulate_fleet,
)
from .sweep import (
    SweepCell,
    SweepCellResult,
    SweepReport,
    SweepStats,
    parse_seeds,
    run_sweep,
)

__all__ = [
    "SweepCell",
    "SweepCellResult",
    "SweepReport",
    "SweepStats",
    "parse_seeds",
    "run_sweep",
    "TRACE_KINDS",
    "Trace",
    "make_trace",
    "GOVERNORS",
    "Governor",
    "OndemandGovernor",
    "PerformanceGovernor",
    "PowersaveGovernor",
    "RaceToIdleGovernor",
    "make_governor",
    "FleetReport",
    "FleetSimulator",
    "PolicyResult",
    "index_state_catalog",
    "simulate_fleet",
]
