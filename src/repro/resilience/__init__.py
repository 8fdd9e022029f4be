"""Fault tolerance for sweeps and simulations (see docs/resilience.md).

Three pillars, over one cell lifecycle
(:mod:`repro.resilience.cells` — pending, leased, done, retried after
backoff or quarantined — shared by every grid dispatcher):

* :mod:`repro.resilience.supervisor` — a supervised worker pool that
  survives worker crashes (``BrokenProcessPool``), enforces per-cell
  wall-clock timeouts by killing and respawning the pool, retries failed
  cells with capped exponential backoff + deterministic jitter, and
  quarantines cells that keep failing so the sweep degrades gracefully
  instead of dying at cell 900/1000.
* :mod:`repro.resilience.watchdog` — a cheap in-engine guard that turns
  "this cell will never finish" from a mystery timeout into a structured
  :class:`SimulationStalled` with a diagnostic dump of the stuck machine.
* :mod:`repro.resilience.faults` — a deterministic, test-only
  fault-injection harness (worker crashes, hangs, transient exceptions,
  corrupted store writes) used to prove the retry/quarantine/resume
  behavior end-to-end.
"""

from repro.resilience.faults import (
    FAULT_KINDS,
    FaultInjected,
    FaultPlan,
    FaultSpec,
)
from repro.resilience.cells import CellFailure, CellTable, RetryPolicy
from repro.resilience.supervisor import Supervisor
from repro.resilience.watchdog import SimulationStalled, Watchdog, stall_diagnostic

__all__ = [
    "CellFailure",
    "CellTable",
    "FAULT_KINDS",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "RetryPolicy",
    "SimulationStalled",
    "Supervisor",
    "Watchdog",
    "stall_diagnostic",
]
