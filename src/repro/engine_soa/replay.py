"""Request recycling for replayed warp programs (SoA backend).

Both engines record each warp program once and replay it on every later
launch through the shared trace cache (:mod:`repro.gpu.warp_traces`).
A replay still builds one :class:`~repro.request.Request` per recorded
request, because requests are mutated in flight.  Rebuilding ~170k
dataclass instances per co-run is itself a measurable slice of the SoA
hot path, so for looping kernels this module goes one step further and
reuses the request objects of the previous launch.

Each phase of a looping kernel carries a *slot* (``[live_count,
phase]``) shared by its request objects.  The engine returns every
finished request to its slot; when the count reaches zero the next
launch re-yields the *same* ``Phase`` object.  Per request, reuse is
decided by where it travelled: a request that entered a memory
controller's MEM queue may survive as a stale tombstone reference in
the queue's lazy index deques, so its object is abandoned to the
garbage collector and rebuilt from its record (same fields, fresh
identity); PIM requests (popped physically) and requests that never
reached a controller (L2 hits / MSHR merges) are reused in place,
refreshing only the per-flight fields a later stage reads before
writing (the global request id, to keep id consumption identical to the
object engine, and the ``cycle_created`` stamp guard).  Telemetry reads
every hop timestamp, so enabling telemetry turns recycling off and
drops the existing slots.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from repro import request as _request_mod
from repro.gpu.kernel import KernelInstance, Phase, WarpProgram
from repro.gpu.warp_traces import PhaseRecord, build_request

#: One program's slots, one ``[live_count, phase]`` per phase.
_ProgramSlots = List[list]


class RequestRecycler:
    """Per-system recycling slots, keyed by launch key and kernel id.

    The kernel id is part of the key because reused requests keep the
    ``kernel_id`` they were built with.
    """

    def __init__(self) -> None:
        self._slots: Dict[tuple, Dict[Tuple[int, int], _ProgramSlots]] = {}
        #: Master switch (see module docstring).  Cleared, never re-set,
        #: when telemetry needs fresh stamps.
        self.recycle = True
        #: Optional RequestArrays (engine_soa.handles) of the owning
        #: system: recycled requests pin their NoC handle across
        #: launches, so a rebuilt request inherits the handle of the
        #: object it replaces (the record — and therefore every pool
        #: column — is identical; only the object pointer moves).
        self.pool = None

    def slots_for(self, key: tuple) -> Dict[Tuple[int, int], _ProgramSlots]:
        slots = self._slots.get(key)
        if slots is None:
            slots = self._slots[key] = {}
        return slots

    def disable_recycling(self) -> None:
        """Stop reusing request objects and drop the existing slots.

        Called when telemetry is enabled: recycled requests carry stale
        hop timestamps from earlier flights, which telemetry would fold
        into its latency accounting.  Live requests keep their (now
        orphaned) slots; the counts decay harmlessly.
        """
        self.recycle = False
        self._slots = {}


class ReplayKernelInstance(KernelInstance):
    """Kernel instance of a looping kernel whose requests are recycled.

    Programs come from the shared trace cache like any instance's; the
    first launch in a system gives each phase a slot, later launches
    reuse the slotted phases whose requests have all finished.
    """

    def __init__(self, spec, ctx, kernel_id: int, seed: int, traces, recycler: RequestRecycler) -> None:
        super().__init__(spec, ctx, kernel_id, seed=seed, traces=traces)
        self._recycler = recycler
        self._slots = (
            recycler.slots_for((self.trace_key, kernel_id))
            if self.trace_table is not None
            else None
        )

    def warp_program(self, sm_slot: int, warp: int) -> WarpProgram:
        slots = self._slots
        if slots is None or not self._recycler.recycle:
            return super().warp_program(sm_slot, warp)
        key = (sm_slot, warp)
        phases = self.trace_table.get(key)
        program_slots = slots.get(key)
        if phases is not None and program_slots is not None:
            self.traces.hits += 1
            return self._recycled(phases, program_slots)
        return self._slotted(super().warp_program(sm_slot, warp), slots, key)

    def _slotted(self, source: WarpProgram, slots: dict, key: Tuple[int, int]) -> Iterator[Phase]:
        recycler = self._recycler
        program_slots: _ProgramSlots = []
        for phase in source:
            if recycler.recycle:
                slot = [len(phase.requests), phase]
                for request in phase.requests:
                    request._slot = slot
                program_slots.append(slot)
            yield phase
        if recycler.recycle:
            slots[key] = program_slots

    def _recycled(
        self, phases: Tuple[PhaseRecord, ...], program_slots: _ProgramSlots
    ) -> Iterator[Phase]:
        recycler = self._recycler
        kernel_id = self.kernel_id
        for index, (compute_cycles, wait_for_replies, records) in enumerate(phases):
            if not recycler.recycle:
                requests = [build_request(r, kernel_id) for r in records]
                yield Phase(compute_cycles, requests, wait_for_replies)
                continue
            slot = program_slots[index]
            if slot[0] == 0:
                # Every request of the previous launch's phase finished:
                # reuse the phase.  Requests that entered a MEM controller
                # queue may survive as stale tombstone references in its
                # lazy index deques, so those objects are abandoned to the
                # GC and rebuilt from their records (same fields, fresh
                # identity); the rest are reused in place, refreshing the
                # global id (identical id-stream consumption to a fresh
                # build) and the one stamp guarded by a read-before-write.
                phase = slot[1]
                requests = phase.requests
                slot[0] = len(requests)
                ids = _request_mod._request_ids
                pool = recycler.pool
                pool_objs = pool.objs if pool is not None else None
                for idx, request in enumerate(requests):
                    if request.mc_seq >= 0 and not request.is_pim:
                        fresh = build_request(records[idx], kernel_id)
                        fresh._slot = slot
                        if pool_objs is not None:
                            h = request._handle
                            if h >= 0:
                                fresh._handle = h
                                pool_objs[h] = fresh
                        requests[idx] = fresh
                    else:
                        request.id = next(ids)
                        request.cycle_created = -1
                yield phase
                continue
            requests = [build_request(r, kernel_id) for r in records]
            phase = Phase(compute_cycles, requests, wait_for_replies)
            slot = [len(requests), phase]
            for request in requests:
                request._slot = slot
            program_slots[index] = slot
            yield phase
