"""Telemetry hub: per-hop latency folding plus the event ring.

One :class:`Telemetry` instance per system, created by
:meth:`~repro.sim.system.GPUSystem.enable_telemetry` and shared with every
memory controller (``controller.telemetry``).  The pipeline stages stamp
requests at their boundaries and call the ``record_*`` methods here; each
completed request is folded into a :class:`~repro.obs.histogram.LogHistogram`
keyed by ``(mode, channel, stage)`` and then forgotten — no per-request
state survives.

Hop model (full-chain requests, i.e. those serviced by DRAM or the PIM
units; every timestamp below is stamped by exactly one stage):

======================  ====================================================
stage                   cycles
======================  ====================================================
``sm_issue``            SM issue-queue wait: creation -> NoC entry
``noc``                 VC buffering + crossbar/mesh: NoC entry -> L2 arrival
``l2``                  L2 lookup + L2->DRAM queueing: L2 arrival -> MC arrival
``mc_blocked``          MC wait spent while the controller served or drained
                        toward the *other* mode (mode arbitration cost)
``mc_bank``             remaining MC wait (bank timing / policy order)
``dram``                service: issue -> completion (DRAM access or PIM op)
======================  ====================================================

The six hops telescope: their sum equals ``Request.total_latency``
*exactly*, which the summary reports as the ``hop_identity`` check.  Two
further stages fall outside the chain: ``return`` (reply network, measured
completion -> SM delivery) and ``l2_filtered`` (total latency of requests
the L2 satisfied without DRAM — hits and MSHR-merged secondaries — which
have no issue/completion timestamps to decompose).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.obs.events import EventRing
from repro.obs.histogram import LogHistogram

#: The telescoping per-hop stages (sum == total latency, by construction).
HOP_STAGES = ("sm_issue", "noc", "l2", "mc_blocked", "mc_bank", "dram")

#: Canonical display order for all stages in summaries and tables.
STAGE_ORDER = HOP_STAGES + ("total", "return", "l2_filtered")


class Telemetry:
    """Aggregation point for latency histograms and structured events."""

    def __init__(self, ring_capacity: int = 65536, sub_bits: int = 3) -> None:
        self.events = EventRing(ring_capacity)
        self.sub_bits = sub_bits
        self._hists: Dict[Tuple[str, int, str], LogHistogram] = {}
        # Hop-identity accounting over full-chain requests.
        self.folded_requests = 0
        self._total_latency_sum = 0
        self._hop_sum = 0
        # Attached by enable_telemetry (unified entry point).
        self.timeline = None  # metrics.timeline.TimelineSampler

    # -- event pillar -----------------------------------------------------

    def emit(self, cycle: int, kind: str, channel: int = -1, **data) -> None:
        self.events.emit(cycle, kind, channel, **data)

    # -- histogram pillar -------------------------------------------------

    def hist(self, mode: str, channel: int, stage: str) -> LogHistogram:
        key = (mode, channel, stage)
        hist = self._hists.get(key)
        if hist is None:
            hist = self._hists[key] = LogHistogram(self.sub_bits)
        return hist

    def record_completion(self, request, cycle: int) -> None:
        """Fold a DRAM/PIM-serviced request's full hop chain.

        Requests with an incomplete timestamp chain (writebacks, requests
        injected mid-path by tests) are skipped — hop attribution would be
        meaningless for them.
        """
        created = request.cycle_created
        noc_entry = request.cycle_noc_entry
        l2_arrival = request.cycle_l2_arrival
        mc_arrival = request.cycle_mc_arrival
        issued = request.cycle_issued
        completed = request.cycle_completed
        if created < 0 or noc_entry < 0 or l2_arrival < 0 or mc_arrival < 0:
            return
        if issued < 0 or completed < 0:
            return
        mode = "pim" if request.is_pim else "mem"
        channel = request.channel
        mc_wait = issued - mc_arrival
        blocked = request.mc_blocked_cycles
        if blocked < 0:
            blocked = 0
        elif blocked > mc_wait:  # pragma: no cover - defensive clamp
            blocked = mc_wait
        hops = (
            noc_entry - created,
            l2_arrival - noc_entry,
            mc_arrival - l2_arrival,
            blocked,
            mc_wait - blocked,
            completed - issued,
        )
        hists = self._hists
        sub_bits = self.sub_bits
        for stage, value in zip(HOP_STAGES, hops):
            key = (mode, channel, stage)
            hist = hists.get(key)
            if hist is None:
                hist = hists[key] = LogHistogram(sub_bits)
            hist.add(value)
        total = completed - created
        self.hist(mode, channel, "total").add(total)
        self.folded_requests += 1
        self._total_latency_sum += total
        self._hop_sum += sum(hops)

    def record_return(self, request, cycle: int) -> None:
        """Record reply delivery back at the SM (loads only).

        DRAM-serviced loads get a ``return`` hop (completion -> delivery);
        L2-filtered loads (hits and MSHR-merged secondaries never reach
        DRAM, so ``cycle_completed`` stays -1) get their end-to-end latency
        under ``l2_filtered`` instead.
        """
        if request.cycle_completed >= 0:
            self.hist("mem", request.channel, "return").add(
                cycle - request.cycle_completed
            )
        elif request.cycle_created >= 0:
            self.hist("mem", request.channel, "l2_filtered").add(
                cycle - request.cycle_created
            )

    def record_l2_filtered(self, request, cycle: int) -> None:
        """Record a request fully absorbed at the L2 (store hit)."""
        if request.cycle_created >= 0:
            self.hist("mem", request.channel, "l2_filtered").add(
                cycle - request.cycle_created
            )

    # -- summary ----------------------------------------------------------

    def stage_hist(self, mode: str, stage: str) -> LogHistogram:
        """Histogram for (mode, stage) merged across all channels."""
        merged = LogHistogram(self.sub_bits)
        for (m, _ch, s), hist in self._hists.items():
            if m == mode and s == stage:
                merged.merge(hist)
        return merged

    def summary(self) -> Dict:
        """JSON-friendly stats: per-(mode, stage) percentiles, per-channel
        breakdowns, the hop-sum identity check, and event counts."""
        stages: Dict[str, Dict[str, Dict]] = {}
        per_channel: Dict[str, Dict[str, Dict[str, Dict]]] = {}
        modes = sorted({key[0] for key in self._hists})
        for mode in modes:
            present = {key[2] for key in self._hists if key[0] == mode}
            ordered = [s for s in STAGE_ORDER if s in present]
            stages[mode] = {
                stage: self.stage_hist(mode, stage).to_dict() for stage in ordered
            }
            channels = sorted({key[1] for key in self._hists if key[0] == mode})
            per_channel[mode] = {}
            for channel in channels:
                entry = {}
                for stage in ordered:
                    hist = self._hists.get((mode, channel, stage))
                    if hist is not None:
                        entry[stage] = hist.to_dict()
                per_channel[mode][str(channel)] = entry
        folded = self.folded_requests
        return {
            "stages": stages,
            "per_channel": per_channel,
            "hop_identity": {
                "requests": folded,
                "mean_total_latency": round(self._total_latency_sum / folded, 4) if folded else 0.0,
                "mean_hop_sum": round(self._hop_sum / folded, 4) if folded else 0.0,
                "mean_abs_gap": round(
                    abs(self._total_latency_sum - self._hop_sum) / folded, 4
                ) if folded else 0.0,
            },
            "events": {
                "recorded": len(self.events),
                "evicted": self.events.evicted,
                "capacity": self.events.capacity,
                "by_kind": self.events.by_kind(),
            },
        }
