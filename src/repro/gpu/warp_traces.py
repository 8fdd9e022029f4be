"""Launch-invariant warp-trace cache (record once, replay on every launch).

The co-execution methodology re-launches each kernel in a loop until
both co-runners finished once (Section III-B), and
:class:`~repro.gpu.kernel.KernelInstance` seeds each warp's RNG without
the launch number, so every launch of a synthetic kernel yields the
*same* warp programs.  A :class:`WarpTraceCache` records each program
the first time it is generated and replays the record on every later
launch — in the same system (loop relaunches) and, when the cache is
shared (one per :class:`~repro.experiments.runner.Runner`), in every
other system built with the same inputs (standalone baselines and
every grid cell a worker runs).  Replay skips the RNG draws and address
encoding; only the :class:`~repro.request.Request` objects are rebuilt,
because the engine mutates them in flight.

The key
-------
A program is a pure function of the spec, the system seed, the launch
context and ``(sm_slot, warp)``.  The key is made of exactly those:

* the spec's exact type and field values (only :data:`REPLAYABLE_SPECS`,
  matched by exact type — a subclass may override ``warp_program`` with
  launch-dependent behaviour, and other specs such as trace files or
  compiled PIM programs are generated as before);
* the system seed;
* every :class:`~repro.gpu.kernel.LaunchContext` field except ``rng``
  (rebuilt per warp from the seed) and ``kernel_id`` (stamped onto the
  replayed requests instead), with the address mapper keyed by its spec;
* ``(sm_slot, warp)``.

Bit identity
------------
A record holds, per phase, the compute cycles, the wait flag and per
request the type, address, ``pim_op``, size, the pre-decoded
channel/bank/row/column and the classification derived from the type
(:data:`RECORD_FIELDS`).  Replay rebuilds each phase's requests lazily,
when the engine asks for the phase — the point at which the generator
built them — and in the original order, so the global request-id
stream is consumed exactly as a fresh generation would.  ``PIMOp`` is
frozen, so sharing it across replays is safe.  A recording is published
only once its generator ran out: a program abandoned mid-way (a looping
kernel still running when the simulation ends) is re-recorded, never
replayed short.
"""

from __future__ import annotations

import dataclasses
import operator
from typing import Dict, Iterator, Optional, Tuple

from repro.dram.address import AddressMapper
from repro.gpu.kernel import KernelSpec, LaunchContext, Phase, WarpProgram
from repro.request import Request
from repro.workloads.synthetic import GPUKernelProfile, PIMGemvKernel, PIMStreamKernel

#: Spec classes whose warp programs are launch-invariant by construction.
#: Exact-type match (not isinstance): a subclass may override
#: ``warp_program`` with launch-dependent behaviour.
REPLAYABLE_SPECS = (GPUKernelProfile, PIMStreamKernel, PIMGemvKernel)

#: The :class:`~repro.request.Request` fields a record holds, in record
#: order: the generator's arguments, the decoded address, and the
#: classification ``__post_init__`` derived from the type and ``pim_op``.
RECORD_FIELDS = (
    "type", "address", "pim_op", "size", "channel", "bank", "row", "column",
    "is_pim", "is_load", "mode", "pim_dram",
)

#: One recorded request: its :data:`RECORD_FIELDS` values.
RequestRecord = Tuple[object, ...]

#: One recorded phase: (compute_cycles, wait_for_replies, requests).
PhaseRecord = Tuple[int, bool, Tuple[RequestRecord, ...]]

#: One launch's recorded programs, keyed by ``(sm_slot, warp)``.
TraceTable = Dict[Tuple[int, int], Tuple[PhaseRecord, ...]]

#: LaunchContext fields that do not determine a program's content.
_CTX_EXCLUDED = frozenset(("rng", "kernel_id"))


def _key_part(value):
    """A field value as a key part; a mapper is keyed by its spec string
    (every system builds its own mapper object)."""
    if isinstance(value, AddressMapper):
        return (type(value), value.spec)
    return value


def launch_key(spec: KernelSpec, ctx: LaunchContext, seed: int) -> Optional[tuple]:
    """Cache key of one launch's programs, or None if ``spec`` is not replayable."""
    if type(spec) not in REPLAYABLE_SPECS:
        return None
    spec_fields = tuple(getattr(spec, f.name) for f in dataclasses.fields(spec))
    ctx_fields = tuple(
        _key_part(getattr(ctx, f.name))
        for f in dataclasses.fields(ctx)
        if f.name not in _CTX_EXCLUDED
    )
    key = (type(spec), spec_fields, seed, ctx_fields)
    try:
        hash(key)
    except TypeError:  # an unhashable field value (e.g. a list): generate as usual
        return None
    return key


#: The record of one request (read before the engine mutates it).
record_request = operator.attrgetter(*RECORD_FIELDS)


def _request_builder():
    """Generate ``build_request(record, kernel_id)``.

    The builder assigns every field of ``dataclasses.fields(Request)``:
    the record's fields, the replaying launch's ``kernel_id``, and each
    other field's declared default, so a field added to ``Request``
    cannot be left unset.  ``id`` comes from its default factory, which
    draws the global request-id counter as ``Request(...)`` does.  The
    record already holds what ``__post_init__`` derives, so replay
    skips it (and its checks, which the recorded request passed).
    """
    namespace = {"_new": object.__new__, "_Request": Request}
    body = [f"    {', '.join('_' + name for name in RECORD_FIELDS)}, = record"]
    body.append("    request = _new(_Request)")
    for f in dataclasses.fields(Request):
        if f.name in RECORD_FIELDS:
            value = "_" + f.name
        elif f.name == "kernel_id":
            value = "kernel_id"
        elif f.default_factory is not dataclasses.MISSING:
            namespace[f"_make_{f.name}"] = f.default_factory
            value = f"_make_{f.name}()"
        elif f.default is not dataclasses.MISSING:
            namespace[f"_default_{f.name}"] = f.default
            value = f"_default_{f.name}"
        else:
            raise TypeError(f"Request.{f.name} has no default and is not recorded")
        body.append(f"    request.{f.name} = {value}")
    body.append("    return request")
    source = "def build_request(record, kernel_id):\n" + "\n".join(body)
    exec(compile(source, f"<generated {__name__}.build_request>", "exec"), namespace)
    return namespace["build_request"]


#: ``build_request(record, kernel_id) -> Request``: a fresh request for a
#: recorded one, equal to the recorded request as generated, ``id`` aside.
build_request = _request_builder()


def replay_program(phases: Tuple[PhaseRecord, ...], kernel_id: int) -> Iterator[Phase]:
    """Yield a recorded program's phases with fresh requests, lazily."""
    for compute_cycles, wait_for_replies, records in phases:
        requests = [build_request(record, kernel_id) for record in records]
        yield Phase(compute_cycles, requests, wait_for_replies)


class WarpTraceCache:
    """Recorded warp programs, shared by every system given the cache.

    ``hits`` counts programs served by replay, ``recorded`` programs
    recorded to completion.
    """

    def __init__(self) -> None:
        self._tables: Dict[tuple, TraceTable] = {}
        self.hits = 0
        self.recorded = 0

    key = staticmethod(launch_key)

    def __len__(self) -> int:
        """Programs recorded, over every launch key."""
        return sum(len(table) for table in self._tables.values())

    def table(self, key: Optional[tuple]) -> Optional[TraceTable]:
        """The programs recorded under a launch key (None: not replayable)."""
        if key is None:
            return None
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = {}
        return table

    def program(
        self, table: TraceTable, sm_slot: int, warp: int, kernel_id: int, generate
    ) -> WarpProgram:
        """Replay ``(sm_slot, warp)`` from ``table``, or record ``generate(sm_slot, warp)``."""
        phases = table.get((sm_slot, warp))
        if phases is not None:
            self.hits += 1
            return replay_program(phases, kernel_id)
        return self._record(table, (sm_slot, warp), generate(sm_slot, warp))

    def _record(
        self, table: TraceTable, key: Tuple[int, int], source: WarpProgram
    ) -> Iterator[Phase]:
        phases = []
        for phase in source:
            # Recorded before the engine sees (and mutates) the requests.
            phases.append(
                (
                    phase.compute_cycles,
                    phase.wait_for_replies,
                    tuple(record_request(r) for r in phase.requests),
                )
            )
            yield phase
        table[key] = tuple(phases)
        self.recorded += 1
