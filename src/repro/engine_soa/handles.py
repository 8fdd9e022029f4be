"""Pooled struct-of-arrays request storage for the handle pipeline.

:class:`RequestArrays` holds the fields the fused NoC hop stages read
as parallel ``array('q')`` columns indexed by a small integer *handle*.
While a request is in flight through the hop rings (see
``engine_soa.ring``) the stages never touch the ``Request`` object —
routing reads (``channel``, ``is_pim``) come straight from the columns,
and the object is materialized (looked up) only at the pipeline
boundaries: the L2 lookup (tag/MSHR state keys on the object), the
memory-controller ingress, telemetry fallbacks, and reply delivery.

Handle lifetime
---------------
Handles are recycled through a free list.  Two lifetimes exist:

* **Transient** (``request._slot is None`` — writebacks, user traces,
  telemetry runs): acquired when the request enters its first ring,
  released when it leaves the NoC (MC ingress, or an L2 hit/merge).
  The pool's steady-state size is therefore bounded by the total ring
  capacity, and the free list churns constantly.
* **Pinned** (recycled requests of looping kernels): the handle stays
  bound to the recorded request across kernel launches — the routing
  columns are immutable for a recorded request, so a later flight
  reuses the handle with zero column writes (only the flight timestamp
  is refreshed).  When recycling rebuilds a dirty request it transfers
  the handle to the fresh object (see ``replay.ReplayKernelInstance``).

Columns are typed ``array('q')`` (C ``int64``) so a compiled kernel can
read them through the buffer protocol without marshalling.
"""

from __future__ import annotations

from array import array
from typing import List, Optional

from repro.request import Request, RequestType

#: Initial pool capacity; the pool doubles as needed.
_INITIAL = 512

#: ``rtype`` column encoding.
RTYPE_LOAD = 0
RTYPE_STORE = 1
RTYPE_PIM = 2

_RTYPE_CODE = {
    RequestType.MEM_LOAD: RTYPE_LOAD,
    RequestType.MEM_STORE: RTYPE_STORE,
    RequestType.PIM: RTYPE_PIM,
}


class RequestArrays:
    """Struct-of-arrays pool of in-flight request fields.

    ``objs[h]`` carries the originating :class:`Request` for boundary
    materialization; every other column is a plain ``int64`` array.
    """

    __slots__ = (
        "rtype",
        "address",
        "channel",
        "bank",
        "row",
        "kernel_id",
        "is_pim",
        "noc_entry",
        "objs",
        "_free",
        "size",
    )

    def __init__(self, initial: int = _INITIAL) -> None:
        zeros = bytes(8 * initial)
        self.rtype = array("q", zeros)
        self.address = array("q", zeros)
        self.channel = array("q", zeros)
        self.bank = array("q", zeros)
        self.row = array("q", zeros)
        self.kernel_id = array("q", zeros)
        self.is_pim = array("q", zeros)
        self.noc_entry = array("q", zeros)
        self.objs: List[Optional[Request]] = [None] * initial
        self._free = list(range(initial - 1, -1, -1))  # pop() yields 0 first
        self.size = initial

    # -- lifetime ------------------------------------------------------------

    def acquire(self, request: Request, cycle: int) -> int:
        """Bind a request to a pool slot and return its handle.

        Copies the routing/record fields into the columns and stamps the
        flight's NoC-entry cycle.  The handle is also stored on the
        request (``request._handle``) so pinned requests skip this copy
        on later flights.
        """
        free = self._free
        if not free:
            self._grow()
            free = self._free
        h = free.pop()
        self.rtype[h] = _RTYPE_CODE[request.type]
        self.address[h] = request.address
        self.channel[h] = request.channel
        self.bank[h] = request.bank
        self.row[h] = request.row
        self.kernel_id[h] = request.kernel_id
        self.is_pim[h] = 1 if request.is_pim else 0
        self.noc_entry[h] = cycle
        self.objs[h] = request
        request._handle = h
        return h

    def release(self, request: Request) -> None:
        """Return a transient request's handle to the free list."""
        h = request._handle
        request._handle = -1
        self.objs[h] = None
        self._free.append(h)

    def transfer(self, h: int, request: Request) -> None:
        """Re-point a pinned handle at a rebuilt request object.

        Used by request recycling when a recorded request is rebuilt
        fresh: the record (and therefore every column) is unchanged, so
        only the object column needs the new reference.
        """
        self.objs[h] = request
        request._handle = h

    def materialize(self, h: int) -> Request:
        """The request object behind a handle (boundary use only)."""
        request = self.objs[h]
        assert request is not None
        return request

    # -- accounting ----------------------------------------------------------

    @property
    def live(self) -> int:
        return self.size - len(self._free)

    def _grow(self) -> None:
        old = self.size
        grow = old  # double
        zeros = bytes(8 * grow)
        for name in ("rtype", "address", "channel", "bank", "row", "kernel_id", "is_pim", "noc_entry"):
            column = getattr(self, name)
            column.extend(array("q", zeros))
        self.objs.extend([None] * grow)
        self._free.extend(range(old + grow - 1, old - 1, -1))
        self.size = old + grow
