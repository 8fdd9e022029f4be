"""Content-addressed on-disk result store.

Layout under the store root::

    objects/<key[:2]>/<key>.json   one document per simulation result
    journal.jsonl                  append-only log of writes and GC

Each document carries the fingerprint key it is stored under, the store
schema version, the code version that produced it, free-form ``meta``
(kind + human label, used by ``repro store ls``), a checksum of the
value, and the value itself.  Durability and concurrency rules:

* **Atomic publication.**  Documents are written to a temp file in the
  final directory and ``os.replace``d into place, so a reader (or a
  crash) never observes a half-written object — a cell either exists
  completely or not at all.  That is what makes interrupted sweeps
  resumable: re-running simply misses on the cells that never landed.
* **Checksummed reads.**  ``get`` re-derives the value checksum and
  treats any mismatch — truncation, bit rot, hand-editing — as a miss
  (and records it), never as a crash or a wrong result.
* **Multi-writer safe.**  Keys are content addresses, so two workers
  racing on the same cell write identical documents; last rename wins
  and both outcomes are correct.  The journal is append-only with one
  ``write()`` per line.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from repro.store.fingerprint import STORE_SCHEMA, checksum, code_version

PathLike = Union[str, Path]


@dataclass
class StoreStats:
    """Hit/miss/write accounting for one ResultStore instance."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupt: int = 0
    by_kind: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def record(self, kind: Optional[str], event: str) -> None:
        setattr(self, event, getattr(self, event) + 1)
        if kind:
            bucket = self.by_kind.setdefault(kind, {})
            bucket[event] = bucket.get(event, 0) + 1


@dataclass
class StoreEntry:
    """One on-disk document, as seen by ls/verify."""

    key: str
    path: Path
    status: str  # "ok" | "corrupt" | "stale"
    kind: str = ""
    label: str = ""
    code: str = ""
    size: int = 0


def read_journal(root: PathLike) -> List[Dict]:
    """The events of the journal in store directory ``root``, oldest first
    (``[]`` if it has none).  It only reads: a read-only view (``/journal``)
    creates nothing, not even a missing ``root``."""
    path = Path(root) / ResultStore.JOURNAL
    if not path.exists():
        return []
    entries = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                entries.append(json.loads(line))
            except json.JSONDecodeError:  # torn tail line from a crash
                continue
    return entries


class ResultStore:
    """Content-addressed store of simulation results.

    Every hit, miss and write is counted in ``stats``.  Setting
    ``read_enabled=False`` turns every lookup into a miss while keeping
    writes — the ``--fresh`` sweep mode that recomputes but still
    repopulates the cache.
    """

    JOURNAL = "journal.jsonl"

    def __init__(
        self,
        root: PathLike,
        read_enabled: bool = True,
    ) -> None:
        self.root = Path(root)
        self.objects = self.root / "objects"
        self.objects.mkdir(parents=True, exist_ok=True)
        self.journal_path = self.root / self.JOURNAL
        self.read_enabled = read_enabled
        self.stats = StoreStats()

    # -- key/value ---------------------------------------------------------

    def _path(self, key: str) -> Path:
        return self.objects / key[:2] / f"{key}.json"

    def object_path(self, key: str) -> Path:
        """On-disk location of ``key``'s document (exists only if put)."""
        return self._path(key)

    def get(self, key: str, kind: Optional[str] = None):
        """Return the stored value for ``key`` or ``None`` on any miss.

        Missing, truncated, corrupted, or schema-incompatible documents
        are all misses; corruption is additionally counted so ``verify``
        -style tooling can surface it.
        """
        if not self.read_enabled:
            self.stats.record(kind, "misses")
            return None
        try:
            raw = self._path(key).read_text()
        except OSError:
            self.stats.record(kind, "misses")
            return None
        value, status = self._decode(key, raw)
        if status != "ok":
            if status == "corrupt":
                self.stats.record(kind, "corrupt")
            self.stats.record(kind, "misses")
            return None
        self.stats.record(kind, "hits")
        return value

    def put(self, key: str, value, meta: Optional[Dict] = None) -> Path:
        """Atomically publish ``value`` under ``key`` and journal it."""
        meta = dict(meta or {})
        meta.setdefault("code", code_version())
        document = {
            "key": key,
            "schema": STORE_SCHEMA,
            "meta": meta,
            "checksum": checksum(value),
            "value": value,
        }
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f".{key}.{os.getpid()}.tmp"
        tmp.write_text(json.dumps(document, sort_keys=True))
        os.replace(tmp, path)
        self.stats.record(meta.get("kind"), "writes")
        self._journal(
            {"event": "put", "key": key, "kind": meta.get("kind", ""), "label": meta.get("label", "")}
        )
        return path

    @staticmethod
    def _decode(key: str, raw: str):
        """Parse + validate one document; returns (value, status)."""
        try:
            document = json.loads(raw)
            value = document["value"]
            if document["key"] != key or document["checksum"] != checksum(value):
                return None, "corrupt"
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            return None, "corrupt"
        if document.get("schema") != STORE_SCHEMA:
            return None, "stale"
        return value, "ok"

    # -- journal -----------------------------------------------------------

    def _journal(self, record: Dict) -> None:
        line = json.dumps({**record, "ts": time.time()}, sort_keys=True)
        # One O_APPEND write of the whole line: a Ctrl-C or crash between
        # syscalls cannot leave a torn half-line for the next reader
        # (journal_entries tolerates one anyway, but only at the tail).
        fd = os.open(self.journal_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, (line + "\n").encode())
        finally:
            os.close(fd)

    def log_event(self, event: str, **fields) -> None:
        """Append a structured event line to the journal (public API).

        Used by the sweep supervisor to record quarantined cells next to
        the ``put`` lines of the cells that did complete, so a store
        directory is a self-contained account of what happened to a grid.
        """
        self._journal({"event": event, **fields})

    def journal_entries(self) -> List[Dict]:
        return read_journal(self.root)

    # -- maintenance -------------------------------------------------------

    def entries(self) -> Iterator[StoreEntry]:
        """Walk every object file, validating each (ls/verify backend).

        ``stale`` means unreachable by current keys: the document is
        intact but was written by a different code version or store
        schema, so no current lookup can hit it.
        """
        current = code_version()
        for path in sorted(self.objects.glob("*/*.json")):
            key = path.stem
            try:
                raw = path.read_text()
                size = path.stat().st_size
            except OSError:
                continue
            value, status = self._decode(key, raw)
            meta: Dict = {}
            if status != "corrupt":
                meta = json.loads(raw).get("meta", {})
                if status == "ok" and meta.get("code") != current:
                    status = "stale"
            yield StoreEntry(
                key=key,
                path=path,
                status=status,
                kind=meta.get("kind", ""),
                label=meta.get("label", ""),
                code=meta.get("code", ""),
                size=size,
            )

    def verify(self) -> Dict[str, List[StoreEntry]]:
        """Classify every entry as ok / stale / corrupt."""
        report: Dict[str, List[StoreEntry]] = {"ok": [], "stale": [], "corrupt": []}
        for entry in self.entries():
            report[entry.status].append(entry)
        return report

    def gc(self, drop_stale: bool = True, drop_corrupt: bool = True) -> Dict[str, int]:
        """Delete unreachable entries; returns removal counts."""
        removed = {"stale": 0, "corrupt": 0}
        for entry in self.entries():
            if (entry.status == "stale" and drop_stale) or (
                entry.status == "corrupt" and drop_corrupt
            ):
                try:
                    entry.path.unlink()
                except OSError:
                    continue
                removed[entry.status] += 1
        if any(removed.values()):
            self._journal({"event": "gc", **removed})
        return removed
