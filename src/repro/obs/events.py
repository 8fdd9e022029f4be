"""Typed event ring buffer for structured tracing.

Emitters along the request path (controller, policies, NoC, the system
itself) push :class:`TraceEvent` records into a bounded :class:`EventRing`;
when the ring is full the oldest events are evicted (and counted), so a
long run can never grow telemetry memory without bound.  The trace writer
(:mod:`repro.obs.trace`) turns the surviving events into Chrome trace-event
slices, instants, and counter updates.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional

# Event kinds (the ``kind`` field of every TraceEvent).  Kept as plain
# strings so events serialize to JSON without translation.
MODE_SWITCH_BEGIN = "mode_switch_begin"
MODE_SWITCH_END = "mode_switch_end"
CAP_BYPASS = "cap_bypass"
REFRESH = "refresh"
BLISS_BLACKLIST = "bliss_blacklist"
BLISS_CLEAR = "bliss_clear"
DYN_CAP_ADAPT = "dyn_cap_adapt"
KERNEL_LAUNCH = "kernel_launch"
KERNEL_DRAIN = "kernel_drain"
NOC_REJECT = "noc_reject"
#: Emitted by the simulation watchdog when it detects a no-progress
#: window (just before raising SimulationStalled); see repro.resilience.
WATCHDOG = "watchdog"
#: Emitted by the sweep supervisor for every cell re-attempt; recorded in
#: GridReport.retry_events rather than the in-engine ring (the supervisor
#: lives outside the simulated system).
RETRY = "retry"


@dataclass(slots=True)
class TraceEvent:
    """One structured event; ``channel`` is -1 for system-wide events."""

    cycle: int
    kind: str
    channel: int = -1
    data: Optional[Dict] = field(default=None)

    def to_dict(self) -> Dict:
        record: Dict = {"cycle": self.cycle, "kind": self.kind}
        if self.channel >= 0:
            record["channel"] = self.channel
        if self.data:
            record.update(self.data)
        return record


class EventRing:
    """Bounded FIFO of trace events with eviction accounting."""

    __slots__ = ("capacity", "_events", "evicted")

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._events: deque = deque(maxlen=capacity)
        self.evicted = 0

    def emit(self, cycle: int, kind: str, channel: int = -1, **data) -> None:
        if len(self._events) == self.capacity:
            self.evicted += 1
        self._events.append(TraceEvent(cycle, kind, channel, data or None))

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self._events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts
