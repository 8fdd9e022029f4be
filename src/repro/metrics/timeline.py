"""Time-series sampling of system state.

A :class:`TimelineSampler` attached to a :class:`~repro.sim.system.GPUSystem`
records, every ``interval`` cycles, each channel's servicing mode and the
occupancies along the memory path.  This is how the phase behaviour the
paper narrates (PIM bursts, MEM drains, mode ping-pong) can actually be
*seen* for a given policy — see ``examples/mode_timeline.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List



@dataclass
class TimelineSample:
    cycle: int
    #: per-channel servicing mode ("mem", "pim", or "switching")
    modes: List[str]
    mem_queue_occupancy: List[int]
    pim_queue_occupancy: List[int]
    noc_occupancy: List[int]


@dataclass
class TimelineSampler:
    """Samples system state on a fixed cadence."""

    interval: int = 100
    samples: List[TimelineSample] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise ValueError("interval must be positive")

    def due(self, cycle: int) -> bool:
        return cycle % self.interval == 0

    def sample(self, system, cycle: int) -> None:
        modes = []
        for controller in system.controllers:
            if controller.is_switching:
                modes.append("switching")
            else:
                modes.append(controller.mode.value)
        self.samples.append(
            TimelineSample(
                cycle=cycle,
                modes=modes,
                mem_queue_occupancy=[len(c.mem_queue) for c in system.controllers],
                pim_queue_occupancy=[len(c.pim_queue) for c in system.controllers],
                noc_occupancy=[len(b) for b in system.input_buffers],
            )
        )

    # -- analysis helpers ----------------------------------------------------

    def mode_share(self) -> Dict[str, float]:
        """Fraction of (channel, sample) points spent in each state.

        Unrecognized mode strings (e.g. from a custom controller subclass)
        are bucketed under ``"other"`` rather than raising.
        """
        counts: Dict[str, int] = {"mem": 0, "pim": 0, "switching": 0}
        total = 0
        for sample in self.samples:
            for mode in sample.modes:
                key = mode if mode in counts else "other"
                counts[key] = counts.get(key, 0) + 1
                total += 1
        if not total:
            return {key: 0.0 for key in counts}
        return {key: value / total for key, value in counts.items()}

    def render_strip(self, channel: int = 0, width: int = 80) -> str:
        """ASCII strip chart of one channel's mode over time.

        ``M`` = MEM mode, ``P`` = PIM mode, ``|`` = switching, ``?`` = any
        unrecognized mode string.
        """
        if not self.samples:
            return ""
        glyphs = {"mem": "M", "pim": "P", "switching": "|"}
        states = [glyphs.get(s.modes[channel], "?") for s in self.samples]
        if len(states) <= width:
            return "".join(states)
        stride = len(states) / width
        return "".join(states[int(i * stride)] for i in range(width))

    def to_rows(self) -> List[Dict]:
        """JSON-friendly export, one flat dict per sample.

        This is the form the trace writer (:mod:`repro.obs.trace`) consumes
        for its queue-occupancy counter tracks.
        """
        return [
            {
                "cycle": sample.cycle,
                "modes": list(sample.modes),
                "mem_queue": list(sample.mem_queue_occupancy),
                "pim_queue": list(sample.pim_queue_occupancy),
                "noc": list(sample.noc_occupancy),
            }
            for sample in self.samples
        ]
