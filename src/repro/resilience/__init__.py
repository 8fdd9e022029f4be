"""Fault tolerance for sweeps and simulations (see docs/resilience.md).

Three pillars, over one cell lifecycle
(:mod:`repro.resilience.cells` — pending, leased, done, retried after
backoff or quarantined — shared by every grid dispatcher):

* :mod:`repro.resilience.supervisor` — supervised worker processes, one
  cell each, so a worker crash or a per-cell wall-clock timeout (the
  overdue worker is killed) blames exactly that cell; it retries failed
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

from repro._exports import lazy_exports

#: The supervisor imports multiprocessing, so only a pooled sweep loads it.
_EXPORTS = {
    "CellFailure": "cells",
    "CellTable": "cells",
    "RetryPolicy": "cells",
    "FAULT_KINDS": "faults",
    "FaultInjected": "faults",
    "FaultPlan": "faults",
    "FaultSpec": "faults",
    "Supervisor": "supervisor",
    "SimulationStalled": "watchdog",
    "Watchdog": "watchdog",
    "stall_diagnostic": "watchdog",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
