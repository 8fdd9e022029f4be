"""Live sweep heartbeat: the atomically-replaced ``status.json``.

A running campaign used to be a black box until it finished; the
heartbeat makes it observable from outside the process.  Whenever a
store directory is attached to a sweep,
:func:`repro.experiments.parallel.run_sweep` keeps a
:class:`StatusPublisher` updated as cells complete, and the publisher
writes ``status.json`` into the store root with the same durability rule
as the store's objects — write a temp file, ``os.replace`` into place —
so a concurrent reader (``repro status``, the HTTP endpoint, a human
with ``cat``) never sees a torn document.

Schema (``validate_status`` checks it; version bumps ``STATUS_SCHEMA``)::

    {
      "schema": 1,
      "state": "running" | "complete" | "aborted",
      "started_at": <unix seconds>, "updated_at": <unix seconds>,
      "cells": {"total": N, "completed": c, "hits": h,
                 "misses": m, "failed": f},
      "throughput_cells_per_sec": <float>,    # completed / elapsed
      "eta_seconds": <float> | null,          # remaining / throughput
      "shard": [i, n] | null,
      "workers": {"max": w, "in_flight": [{"label": ..., "seconds": ...}]},
      "retries": <retry-event count>,
      "quarantined": [{"label", "kind", "attempts", "message"}, ...],
      "metrics": <MetricsRegistry.snapshot()>,
      # optional recovery metadata (fabric coordinators only):
      "recoveries": <ledger-replay count>, "epoch": <fencing epoch>
    }

Writes are throttled (``interval`` seconds, default 1) except for state
transitions — the first write and the final one always land, so even a
sweep that completes instantly (100% warm cache hits) leaves a
``state: "complete"`` document behind rather than an empty campaign.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.obs.metrics import MetricsRegistry

PathLike = Union[str, Path]

STATUS_SCHEMA = 1
STATUS_FILENAME = "status.json"

_STATES = ("running", "complete", "aborted")


def status_path(store_dir: PathLike) -> Path:
    """Where a sweep against ``store_dir`` publishes its heartbeat."""
    return Path(store_dir) / STATUS_FILENAME


def read_status(
    store_dir: PathLike, attempts: int = 3, _sleep=time.sleep
) -> Optional[Dict]:
    """The last published heartbeat, or ``None`` if there has never been
    one (or the file stays unreadable).

    ``os.replace`` is atomic, but not every filesystem that reaches a
    store directory behaves like a local POSIX one (NFS renames, overlay
    mounts, Windows shares can expose a transient window where the path
    is briefly missing or the open races the replace).  A watcher
    (``repro status --watch``, the HTTP endpoint) polling exactly inside
    that window would misreport a live sweep as having no status — so a
    failed read is retried ``attempts`` times with a short pause before
    giving up.  A store no sweep has ever touched still returns ``None``
    (after the retries; the pause is milliseconds)."""
    path = status_path(store_dir)
    for attempt in range(max(1, attempts)):
        try:
            return json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            if attempt + 1 < max(1, attempts):
                _sleep(0.02 * (attempt + 1))
    return None


def validate_status(doc: Dict) -> List[str]:
    """Schema check for a heartbeat document; returns human-readable errors.

    Used by tests and the CI status-canary the same way
    :func:`repro.obs.trace.validate_trace` guards the trace surface.
    """
    errors: List[str] = []
    if not isinstance(doc, dict):
        return ["status document must be an object"]
    if doc.get("schema") != STATUS_SCHEMA:
        errors.append(f"schema must be {STATUS_SCHEMA} (got {doc.get('schema')!r})")
    if doc.get("state") not in _STATES:
        errors.append(f"state must be one of {_STATES} (got {doc.get('state')!r})")
    for field in ("started_at", "updated_at"):
        if not isinstance(doc.get(field), (int, float)):
            errors.append(f"{field} must be a number")
    cells = doc.get("cells")
    if not isinstance(cells, dict):
        errors.append("cells must be an object")
    else:
        for field in ("total", "completed", "hits", "misses", "failed"):
            value = cells.get(field)
            if not isinstance(value, int) or value < 0:
                errors.append(f"cells.{field} must be a non-negative integer")
        if not errors and cells["completed"] != cells["hits"] + cells["misses"]:
            errors.append("cells.completed must equal cells.hits + cells.misses")
    if not isinstance(doc.get("throughput_cells_per_sec"), (int, float)):
        errors.append("throughput_cells_per_sec must be a number")
    eta = doc.get("eta_seconds")
    if eta is not None and not isinstance(eta, (int, float)):
        errors.append("eta_seconds must be a number or null")
    shard = doc.get("shard")
    if shard is not None and (
        not isinstance(shard, list)
        or len(shard) != 2
        or not all(isinstance(v, int) for v in shard)
    ):
        errors.append("shard must be [index, count] or null")
    workers = doc.get("workers")
    if not isinstance(workers, dict) or not isinstance(workers.get("in_flight"), list):
        errors.append("workers.in_flight must be a list")
    else:
        for i, cell in enumerate(workers["in_flight"]):
            if not isinstance(cell, dict) or not isinstance(cell.get("label"), str):
                errors.append(f"workers.in_flight[{i}] must carry a label")
    if not isinstance(doc.get("quarantined"), list):
        errors.append("quarantined must be a list")
    else:
        for i, failure in enumerate(doc["quarantined"]):
            if not isinstance(failure, dict) or not isinstance(failure.get("label"), str):
                errors.append(f"quarantined[{i}] must carry a label")
    if not isinstance(doc.get("retries"), int):
        errors.append("retries must be an integer")
    if not isinstance(doc.get("metrics"), dict):
        errors.append("metrics must be an object")
    # Recovery metadata is optional (only fabric coordinators publish it)
    # but must be well-formed when present.
    if "recoveries" in doc and (
        not isinstance(doc["recoveries"], int) or doc["recoveries"] < 0
    ):
        errors.append("recoveries must be a non-negative integer")
    if "epoch" in doc and (not isinstance(doc["epoch"], int) or doc["epoch"] < 1):
        errors.append("epoch must be a positive integer")
    return errors


class StatusPublisher:
    """Accumulates campaign progress and publishes ``status.json``.

    Purely observational: it is fed by the sweep coordinator *after* each
    cell's result is folded, touches no engine state, and its counters
    live in a :class:`~repro.obs.metrics.MetricsRegistry` — so an armed
    sweep computes exactly what an unarmed one does.
    """

    def __init__(
        self,
        store_dir: PathLike,
        total_cells: int,
        shard: Optional[Tuple[int, int]] = None,
        max_workers: int = 1,
        interval: float = 1.0,
        registry: Optional[MetricsRegistry] = None,
        recoveries: int = 0,
        epoch: Optional[int] = None,
        clock=time.time,
    ) -> None:
        self.path = status_path(store_dir)
        self.total = total_cells
        self.shard = list(shard) if shard is not None else None
        self.max_workers = max_workers
        self.interval = interval
        self.recoveries = recoveries
        self.epoch = epoch
        self.registry = registry if registry is not None else MetricsRegistry()
        self._clock = clock
        self.started_at = clock()
        self.state = "running"
        self.completed = 0
        self.hits = 0
        self.misses = 0
        self.retries = 0
        self.quarantined: List[Dict] = []
        self.in_flight: List[Dict] = []
        self._last_write = 0.0
        self._last_completion: Optional[float] = None
        self._c_completed = self.registry.counter(
            "sweep.cells.completed", "grid cells completed by this sweep"
        )
        self._c_hits = self.registry.counter(
            "sweep.cells.hits", "cells satisfied from the result store"
        )
        self._c_misses = self.registry.counter(
            "sweep.cells.misses", "cells that had to be simulated"
        )
        self._c_retries = self.registry.counter(
            "sweep.cells.retries", "cell retry attempts"
        )
        self._c_quarantined = self.registry.counter(
            "sweep.cells.quarantined", "cells given up on after retries"
        )
        self._g_in_flight = self.registry.gauge(
            "sweep.workers.in_flight", "cells currently running in workers"
        )
        self._h_interval = self.registry.histogram(
            "sweep.cell_interval_ms",
            "milliseconds between consecutive cell completions",
        )
        self.publish(force=True)

    # -- feed --------------------------------------------------------------

    def record_completion(self, hit: bool) -> None:
        now = self._clock()
        self.completed += 1
        self._c_completed.inc()
        if hit:
            self.hits += 1
            self._c_hits.inc()
        else:
            self.misses += 1
            self._c_misses.inc()
        if self._last_completion is not None:
            self._h_interval.add(max(0, int((now - self._last_completion) * 1000)))
        self._last_completion = now
        self.publish()

    def record_retry(self, event: Dict) -> None:
        if event.get("kind") == "retry":
            self.retries += 1
            self._c_retries.inc()
        self.publish()

    def sync_retries(self, count: int) -> None:
        """Catch the retry total up to ``count`` (supervisor-path feed:
        the pool appends retry events internally, so the coordinator
        reconciles the running total instead of seeing each one)."""
        if count > self.retries:
            self._c_retries.inc(count - self.retries)
            self.retries = count

    def record_quarantine(self, failure: Dict) -> None:
        self.quarantined.append(
            {
                "label": failure.get("label", "?"),
                "kind": failure.get("kind", "?"),
                "attempts": failure.get("attempts", 0),
                "message": failure.get("message", ""),
            }
        )
        self._c_quarantined.inc()
        self.publish(force=True)

    def record_in_flight(self, cells: List[Dict]) -> None:
        """Per-worker liveness from the supervisor's heartbeat hook."""
        self.in_flight = cells
        self._g_in_flight.set(len(cells))
        self.publish()

    def finish(self, state: str = "complete") -> None:
        if state not in _STATES:
            raise ValueError(f"unknown final state {state!r}; expected one of {_STATES}")
        self.state = state
        self.in_flight = []
        self._g_in_flight.set(0)
        self.publish(force=True)

    # -- publish -----------------------------------------------------------

    def document(self) -> Dict:
        now = self._clock()
        elapsed = max(now - self.started_at, 1e-9)
        throughput = self.completed / elapsed
        remaining = max(self.total - self.completed - len(self.quarantined), 0)
        eta = (
            round(remaining / throughput, 1)
            if self.state == "running" and throughput > 0 and remaining
            else (0.0 if remaining == 0 or self.state != "running" else None)
        )
        doc = {
            "schema": STATUS_SCHEMA,
            "state": self.state,
            "started_at": round(self.started_at, 3),
            "updated_at": round(now, 3),
            "cells": {
                "total": self.total,
                "completed": self.completed,
                "hits": self.hits,
                "misses": self.misses,
                "failed": len(self.quarantined),
            },
            "throughput_cells_per_sec": round(throughput, 3),
            "eta_seconds": eta,
            "shard": self.shard,
            "workers": {"max": self.max_workers, "in_flight": self.in_flight},
            "retries": self.retries,
            "quarantined": self.quarantined,
            "metrics": self.registry.snapshot(),
        }
        if self.epoch is not None:
            doc["recoveries"] = self.recoveries
            doc["epoch"] = self.epoch
        return doc

    def publish(self, force: bool = False) -> None:
        """Write ``status.json`` atomically (throttled unless ``force``)."""
        now = self._clock()
        if not force and now - self._last_write < self.interval:
            return
        self._last_write = now
        document = self.document()
        tmp = self.path.parent / f".{STATUS_FILENAME}.{os.getpid()}.tmp"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text(json.dumps(document, sort_keys=True))
        os.replace(tmp, self.path)
