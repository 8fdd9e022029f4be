"""Simulation watchdog: no-forward-progress detection for the cycle engine.

A livelocked configuration (e.g. an arbiter that never grants) spins the
engine forever: cycles advance, nothing retires, and from the outside the
cell is indistinguishable from one that is merely slow.  The watchdog
rides the engine's existing zero-cost observability pattern (``if
watchdog is not None`` plus one integer compare per step) and every
``window`` cycles takes a *progress signature* — a tuple of monotonic
counters that increase whenever the system does real work (requests
retired, warps issued, DRAM commands, PIM ops, NoC transfers, mode
switches, kernel completions).  If the signature is unchanged across a
full window while work is still outstanding, the run is provably stuck:
every engine transition bumps at least one of those counters, so it
raises :class:`SimulationStalled` carrying a diagnostic dump (queue
depths, per-channel mode, oldest request age) instead of spinning until
the cell's wall-clock timeout kills the worker with no explanation.

The watchdog observes but never schedules: an enabled run is
bit-identical to a disabled one (``tests/test_watchdog.py``), and the
dormant hook costs <2% (``check_perf_regression.py --check resilience``).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

#: Default no-progress window in cycles.  Large enough that every latency
#: in the model (DRAM timings, PIM ops, refresh, reply latency: all well
#: under 10k cycles) fires many times over before a healthy system could
#: look frozen, small enough to beat any practical per-cell timeout.
DEFAULT_WINDOW = 100_000


class SimulationStalled(RuntimeError):
    """The engine made no forward progress for a full watchdog window.

    ``diagnostic`` is a plain-JSON dict (see :func:`stall_diagnostic`)
    safe to pickle across the worker-process boundary and to journal.
    """

    def __init__(self, message: str, diagnostic: Optional[Dict] = None) -> None:
        super().__init__(message)
        self.diagnostic = dict(diagnostic or {})

    def __reduce__(self):
        return (type(self), (self.args[0], self.diagnostic))


def progress_signature(system) -> Tuple[int, ...]:
    """Monotonic counters that change whenever the engine does real work."""
    if system.mesh is not None:
        transfers = system.mesh.hops + system.mesh.transfers
    else:
        transfers = system.crossbar.transfers
    return (
        system.replies_sent,
        sum(system._injected.values()),
        sum(channel.stats.mem_accesses for channel in system.channels),
        sum(executor.stats.ops_executed for executor in system.pim_execs),
        sum(controller.stats.switches for controller in system.controllers),
        transfers,
        sum(run.completions for run in system.runs),
    )


def outstanding_work(system) -> bool:
    """Buffered or in-flight requests that should eventually retire."""
    if system.backlog() > 0:
        return True
    return any(count > 0 for count in system._kernel_inflight.values())


def stall_diagnostic(system, window: int) -> Dict:
    """Snapshot of the stuck machine, as a plain-JSON dict."""
    cycle = system.cycle
    channels = []
    for ch, controller in enumerate(system.controllers):
        oldest = controller.oldest_overall()
        age = None
        if oldest is not None and oldest.cycle_mc_arrival >= 0:
            age = cycle - oldest.cycle_mc_arrival
        channels.append(
            {
                "channel": ch,
                "mode": controller.mode.value,
                "mem_queue": len(controller.mem_queue),
                "pim_queue": len(controller.pim_queue),
                "mem_in_flight": controller.channel.mem_in_flight(),
                "pim_in_flight": controller.pim_exec.in_flight(),
                "switching": controller.is_switching,
                "oldest_request_age": age,
                "ingress_queue": len(system.dram_queues[ch]),
                "l2_input_queue": len(system.input_buffers[ch]),
            }
        )
    heap = system._reply_heap
    return {
        "cycle": cycle,
        "window": window,
        "backlog": system.backlog(),
        "kernel_inflight": {str(k): v for k, v in system._kernel_inflight.items()},
        "replies_pending": len(heap),
        "next_reply_cycle": heap[0][0] if heap else None,
        "signature": list(progress_signature(system)),
        "channels": channels,
    }


class Watchdog:
    """Per-system stall detector; attach via ``GPUSystem.enable_watchdog``."""

    __slots__ = ("window", "next_check", "_signature", "stalls_checked")

    def __init__(self, window: int = DEFAULT_WINDOW) -> None:
        if not isinstance(window, int) or isinstance(window, bool) or window < 1:
            raise ValueError(f"watchdog window must be a positive integer (got {window!r})")
        self.window = window
        self.next_check = window
        self._signature: Optional[Tuple[int, ...]] = None
        self.stalls_checked = 0

    def scan(self, system) -> None:
        """Compare progress since the last check; raise if frozen.

        Called by the engine only when ``cycle >= next_check``, so the
        per-step dormant cost is one attribute load and one compare.
        """
        self.stalls_checked += 1
        cycle = system.cycle
        signature = progress_signature(system)
        if signature == self._signature and outstanding_work(system):
            diagnostic = stall_diagnostic(system, self.window)
            backlog = diagnostic["backlog"]
            if system.telemetry is not None:
                from repro.obs import events as obs_events

                system.telemetry.emit(
                    cycle,
                    obs_events.WATCHDOG,
                    window=self.window,
                    backlog=backlog,
                )
            raise SimulationStalled(
                f"no forward progress for {self.window} cycles at cycle {cycle} "
                f"({backlog} buffered, "
                f"{sum(system._kernel_inflight.values())} in flight)",
                diagnostic,
            )
        self._signature = signature
        self.next_check = cycle + self.window
