"""Write-ahead lease ledger: durable campaign state for the coordinator.

The coordinator of :mod:`repro.fabric` used to be a single point of
amnesia — a killed coordinator resumed *warm* from the content-addressed
store (done cells complete instantly) but lost all in-flight lease
history: retry counts, backoff deadlines, quarantine rosters, and which
worker held which cell.  The ledger closes that gap.  Every decision
that mutates campaign state — lease grant, re-adoption, completion,
rejection, retry, quarantine, drain, close — is appended here *before*
it takes effect, so a restarted coordinator replays the ledger and
resumes the campaign exactly where it stopped.

The file (``fabric_ledger.jsonl`` in the store root, next to
``journal.jsonl``) reuses the store's durability idioms:

* **Atomic appends.**  One ``os.write`` of one complete line per record
  (plus ``fsync`` — this is a WAL, not an activity log), so a crash can
  tear at most the final line, never interleave two records.
* **Checksummed lines.**  Each record carries a ``check`` field — the
  store's canonical-JSON checksum over the rest of the record — plus a
  contiguous ``seq`` number.  Replay verifies both per line: a torn
  *tail* (the only kind of damage a crash can cause) is truncated away
  and replay resumes from the last whole record; damage anywhere else
  (bit rot, hand-editing, a lost middle line) raises
  :class:`LedgerCorrupt` naming the exact byte offset — never a silent
  wrong state.

**Fencing epochs.**  Each coordinator session appends an ``open`` record
with a monotonically increasing epoch (last epoch + 1).  Lease grants
carry the epoch they were made under; after a restart, replies for
pre-restart grants are rejected ``stale-epoch`` until the worker
re-presents the lease via ``POST /resume`` and has it re-adopted
(``readopt`` record) at the recovered epoch.  That is what makes
recovery zombie-safe: a worker that survived the crash cannot
double-complete a cell the restarted coordinator re-leased.

Record operations (fields beyond ``seq``/``op``/``epoch``/``check``)::

    open        code, cells           new session, new epoch
    lease       lease_seq, key, label, lease_id, worker, attempt
    readopt     key, label, lease_id, worker   re-adopted at this epoch
    complete    key, label, lease_id, worker   accepted; store puts landed first
    reject      key, lease_id, worker, reason[, errors]   refused reply
    retry       key, kind, attempts, not_before_wall   requeued w/ backoff
    quarantine  key, index, label, kind, message, attempts
    drain       source, leased        graceful shutdown began
    close       state                 campaign finalized (complete/aborted)

The coordinator writes ``lease``, ``readopt``, ``complete``, ``reject``
and ``drain`` records together with their ``fabric_<op>`` journal line,
which carries the same fields (:mod:`repro.fabric.protocol`).  Replay
reads only the fields a transition needs and ignores the rest (records
of older ledgers lack ``label``, ``worker`` and ``leased``).  Lease
deadlines are monotonic-clock state and are never recorded: a replayed
in-flight lease gets the coordinator's resume grace.

Backoff deadlines are persisted as *wall-clock* times (the coordinator's
scheduling clock is monotonic and does not survive a restart); replay
returns them as wall times and the coordinator converts the remaining
delay onto its fresh monotonic clock.

Store documents are deliberately **not** in the ledger: completions put
their documents into the content-addressed store *before* the
``complete`` record is appended, so a ledger that says "done" is always
backed by store bytes, and a crash between the puts and the record is
healed by the ordinary warm-store scan on restart (the cell replays as
in-flight, the scan finds its object, it completes as a hit).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.resilience.cells import Cell, CellTable
from repro.store.fingerprint import checksum

PathLike = Union[str, Path]

#: Ledger file name inside the store root (next to ``journal.jsonl``).
LEDGER_FILENAME = "fabric_ledger.jsonl"

OP_OPEN = "open"
OP_LEASE = "lease"
OP_READOPT = "readopt"
OP_COMPLETE = "complete"
OP_REJECT = "reject"
OP_RETRY = "retry"
OP_QUARANTINE = "quarantine"
OP_DRAIN = "drain"
OP_CLOSE = "close"

#: Records that move one cell: applied by the cell table.
_CELL_OPS = frozenset((OP_LEASE, OP_READOPT, OP_COMPLETE, OP_RETRY, OP_QUARANTINE))
_OPS = _CELL_OPS | {OP_OPEN, OP_REJECT, OP_DRAIN, OP_CLOSE}


class LedgerCorrupt(RuntimeError):
    """The ledger is damaged somewhere replay cannot repair.

    Only a *tail* line can legitimately be torn (a crash mid-append);
    a parse/checksum failure before the tail, or a ``seq`` gap anywhere,
    means records were lost or altered — resuming would silently drop
    lease history, so replay refuses with this structured diagnostic
    instead.  ``offset`` is the byte offset of the first bad line.
    """

    def __init__(self, path: Path, offset: int, line_no: int, reason: str) -> None:
        self.path = Path(path)
        self.offset = offset
        self.line_no = line_no
        self.reason = reason
        super().__init__(
            f"fabric ledger {self.path} corrupt at byte {offset} "
            f"(line {line_no}): {reason}"
        )


@dataclass
class LedgerState:
    """Everything :meth:`FabricLedger.replay` recovers from disk."""

    table: CellTable = field(default_factory=CellTable)  # the replayed cell lifecycle
    epoch: int = 0  # last opened epoch (0 = never opened)
    opens: int = 0  # coordinator sessions recorded so far
    records: int = 0  # whole records replayed
    lease_seq: int = 0  # highest lease counter ever granted
    rejects: int = 0
    closed: Optional[str] = None  # final state if the last session closed
    draining: bool = False
    torn_tail: bool = False  # a crash-torn final line was truncated away

    @property
    def cells(self) -> Dict[str, Cell]:
        """Per-cell state, keyed by the cell's store fingerprint."""
        return self.table.cells

    @property
    def failures(self) -> List[Dict]:
        """The quarantine roster, in order."""
        return [{"key": f.key, **f.to_dict()} for f in self.table.failures]


class FabricLedger:
    """Appender + replayer for one campaign's write-ahead ledger.

    Usage (the coordinator's startup sequence)::

        ledger = FabricLedger(store_root / LEDGER_FILENAME)
        state = ledger.replay()          # raises LedgerCorrupt on damage
        epoch = state.epoch + 1
        ledger.append(OP_OPEN, epoch=epoch, code=..., cells=...)

    ``replay`` remembers where the last whole record ends; if the tail
    was torn, the first ``append`` truncates the file back to that
    boundary before writing, so the torn bytes can never corrupt later
    records.  Every append is a single ``write`` + ``fsync`` — records
    are rare (one per lease-state transition, not per heartbeat), so
    WAL-grade durability costs nothing measurable.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        self._fd: Optional[int] = None
        self._seq = 0
        self._truncate_to: Optional[int] = None
        self._needs_newline = False

    # -- replay ------------------------------------------------------------

    def replay(self, table: Optional[CellTable] = None) -> LedgerState:
        """Rebuild campaign state from disk (empty state if no file).

        Cell records are applied to ``table`` (a fresh
        :class:`~repro.resilience.cells.CellTable` by default) — the
        transitions a live coordinator applies to its own.
        """
        state = LedgerState(table if table is not None else CellTable())
        self._seq = 0
        self._truncate_to = None
        self._needs_newline = False
        try:
            raw = self.path.read_bytes()
        except OSError:
            return state
        pos = 0
        line_no = 0
        while pos < len(raw):
            newline = raw.find(b"\n", pos)
            end = newline if newline != -1 else len(raw)
            line = raw[pos:end]
            line_no += 1
            if not line.strip():
                pos = end + 1
                continue
            record, problem, tearable = self._decode(line, self._seq + 1)
            if record is None:
                # Only a crash-torn *tail* is tolerated: the bad line must
                # be the last (nothing but whitespace after it) AND look
                # like a torn append (parse/checksum failure).  A
                # well-formed final line with a seq gap can only mean
                # records were lost — that is damage, not a crash.
                tail = raw[end + 1 :] if newline != -1 else b""
                if tail.strip() or not tearable:
                    raise LedgerCorrupt(self.path, pos, line_no, problem)
                state.torn_tail = True
                self._truncate_to = pos
                break
            self._seq = record["seq"]
            self._apply(state, record)
            if newline == -1:
                # Valid record but the trailing newline never landed;
                # the next append must start on a fresh line.
                self._needs_newline = True
            pos = end + 1
        return state

    def _decode(self, line: bytes, expected_seq: int):
        """Parse + verify one line.

        Returns ``(record, None, _)`` on success or ``(None, reason,
        crash_tearable)`` — ``crash_tearable`` is True only for failures
        a torn append could produce (partial bytes: unparseable or
        checksum-broken); a structurally sound record with a bad op,
        seq, or epoch means the file was altered, never merely torn.
        """
        try:
            record = json.loads(line)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            return None, f"unparseable record: {exc}", True
        if not isinstance(record, dict):
            return None, "record must be a JSON object", True
        body = dict(record)
        check = body.pop("check", None)
        try:
            derived = checksum(body)
        except TypeError as exc:
            return None, f"unfingerprintable record: {exc}", True
        if check != derived:
            return None, "record checksum mismatch", True
        if record.get("op") not in _OPS:
            return None, f"unknown op {record.get('op')!r}", False
        if record.get("seq") != expected_seq:
            return None, (
                f"sequence gap: expected seq {expected_seq}, "
                f"found {record.get('seq')!r} — records were lost"
            ), False
        if not isinstance(record.get("epoch"), int) or record["epoch"] < 1:
            return None, f"bad epoch {record.get('epoch')!r}", False
        return record, None, False

    def _apply(self, state: LedgerState, record: Dict) -> None:
        op = record["op"]
        state.records += 1
        if op in _CELL_OPS:
            state.table.apply(record)
            if op == OP_LEASE:
                state.lease_seq = max(state.lease_seq, record.get("lease_seq", 0))
        elif op == OP_OPEN:
            state.epoch = record["epoch"]
            state.opens += 1
            state.closed = None
            state.draining = False
        elif op == OP_REJECT:
            state.rejects += 1
        elif op == OP_DRAIN:
            state.draining = True
        elif op == OP_CLOSE:
            state.closed = record.get("state")

    # -- append ------------------------------------------------------------

    def append(self, op: str, **fields) -> Dict:
        """Durably append one record (WAL: call *before* mutating state)."""
        if op not in _OPS:
            raise ValueError(f"unknown ledger op {op!r}")
        if self._fd is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fd = os.open(
                self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
            if self._truncate_to is not None:
                # Drop the crash-torn tail before the first new record.
                os.ftruncate(self._fd, self._truncate_to)
                self._truncate_to = None
                self._needs_newline = False
        self._seq += 1
        record = {"seq": self._seq, "op": op, **fields}
        record["check"] = checksum(record)
        data = json.dumps(record, sort_keys=True).encode() + b"\n"
        if self._needs_newline:
            data = b"\n" + data
            self._needs_newline = False
        os.write(self._fd, data)
        os.fsync(self._fd)
        return record

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


def ledger_summary(path: PathLike) -> Dict:
    """Operator-facing roll-up of a ledger file (``repro fabric ledger``).

    Raises :class:`LedgerCorrupt` (with the byte offset) on damage —
    the CLI turns that into a non-zero exit and a pointer at the bad
    line rather than a stack trace.
    """
    state = FabricLedger(path).replay()
    return {
        "path": str(path),
        "epoch": state.epoch,
        "sessions": state.opens,
        "records": state.records,
        "lease_seq": state.lease_seq,
        "cells": {name: count for name, count in state.table.counts.items() if count},
        "in_flight": [
            {
                "key": cell.key,
                "label": cell.label,
                "worker": cell.worker,
                "lease_id": cell.lease_id,
                "epoch": cell.lease_epoch,
                "attempt": cell.attempts,
            }
            for cell in state.cells.values()
            if cell.state == "leased"
        ],
        "quarantined": list(state.failures),
        "rejects": state.rejects,
        "closed": state.closed,
        "draining": state.draining,
        "torn_tail": state.torn_tail,
    }
