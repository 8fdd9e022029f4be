"""Deterministic fault injection for the sweep execution layer (test-only).

A :class:`FaultPlan` maps grid-cell labels (``GridTask.label``, e.g.
``"G17|P1|F3FS|vc1"``) to a :class:`FaultSpec` describing what goes wrong
there and how many attempts it affects:

* ``crash``   — the worker process dies mid-cell (``os._exit``), and the
  supervisor blames the cell that worker held;
* ``hang``    — the worker sleeps past any sane cell timeout, proving the
  path that kills and replaces the overdue worker;
* ``error``   — a transient :class:`FaultInjected` exception, proving
  retry-with-backoff;
* ``corrupt`` — the cell completes but its store object is overwritten
  with garbage afterwards, proving that checksummed reads turn corruption
  into a recomputed miss on resume.

Trigger counts persist in ``state_dir`` (one file per cell, one byte
appended per trigger), so "crash twice then heal" survives replaced
workers and process boundaries, and a resumed sweep sees the same
deterministic schedule.  Workers activate a plan either explicitly
(passed through the pool initializer) or via the ``REPRO_FAULTS``
environment variable naming a JSON plan file — the hook the CI
fault-canary uses.  With no plan installed every hook is a single
``None`` check; nothing here runs in production sweeps.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

FAULT_KINDS = ("crash", "hang", "error", "corrupt")

#: Environment variable naming a JSON fault-plan file (CLI / CI hook).
FAULTS_ENV = "REPRO_FAULTS"

#: Exit code used by injected worker crashes (visible in supervisor logs).
CRASH_EXIT_CODE = 70


class FaultInjected(RuntimeError):
    """The transient exception raised by ``error`` faults (retryable)."""


@dataclass(frozen=True)
class FaultSpec:
    """What goes wrong at one cell.

    ``times`` bounds how many *attempts* trigger the fault; a negative
    value means every attempt (a permanently poisoned cell).
    """

    kind: str
    times: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"fault kind must be one of {FAULT_KINDS} (got {self.kind!r})")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of injected faults, keyed by cell label."""

    state_dir: str
    cells: Tuple[Tuple[str, FaultSpec], ...]
    hang_seconds: float = 300.0

    @classmethod
    def build(
        cls,
        state_dir: os.PathLike,
        cells: Dict[str, FaultSpec],
        hang_seconds: float = 300.0,
    ) -> "FaultPlan":
        Path(state_dir).mkdir(parents=True, exist_ok=True)
        return cls(
            state_dir=str(state_dir),
            cells=tuple(sorted(cells.items())),
            hang_seconds=hang_seconds,
        )

    # -- (de)serialization (initializer args, REPRO_FAULTS files) ---------

    def to_payload(self) -> Dict:
        return {
            "state_dir": self.state_dir,
            "hang_seconds": self.hang_seconds,
            "cells": {
                label: {"kind": spec.kind, "times": spec.times}
                for label, spec in self.cells
            },
        }

    @classmethod
    def from_payload(cls, payload: Dict) -> "FaultPlan":
        return cls.build(
            payload["state_dir"],
            {
                label: FaultSpec(kind=spec["kind"], times=int(spec.get("times", 1)))
                for label, spec in payload.get("cells", {}).items()
            },
            hang_seconds=float(payload.get("hang_seconds", 300.0)),
        )

    @classmethod
    def from_file(cls, path: os.PathLike) -> "FaultPlan":
        with open(path) as fh:
            return cls.from_payload(json.load(fh))

    # -- trigger accounting -----------------------------------------------

    def _counter_path(self, label: str) -> Path:
        slug = f"{zlib.crc32(label.encode()):08x}"
        return Path(self.state_dir) / f"{slug}.count"

    def triggered(self, label: str) -> int:
        """How many times this cell's fault has already fired."""
        try:
            return self._counter_path(label).stat().st_size
        except OSError:
            return 0

    def claim(self, label: str, phase: Optional[str] = None) -> Optional[str]:
        """Consume one trigger for ``label``; returns the fault kind or None.

        ``phase`` filters by when the fault applies without consuming a
        trigger on mismatch: ``"pre"`` matches crash/hang/error (fired
        before the cell runs), ``"post"`` matches corrupt (fired after
        the cell's store write).  One byte is appended per trigger
        (``O_APPEND``: atomic under concurrent workers), so the count
        survives crashes of the very process that claimed it — which is
        the point.
        """
        spec = dict(self.cells).get(label)
        if spec is None:
            return None
        if phase is not None and phase != ("post" if spec.kind == "corrupt" else "pre"):
            return None
        if 0 <= spec.times <= self.triggered(label):
            return None
        fd = os.open(self._counter_path(label), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, b"x")
        finally:
            os.close(fd)
        return spec.kind


#: The plan active in this process (installed by the pool initializer).
_ACTIVE: Optional[FaultPlan] = None


def install(plan: Optional[FaultPlan]) -> None:
    global _ACTIVE
    _ACTIVE = plan


def active() -> Optional[FaultPlan]:
    return _ACTIVE


def load_env() -> Optional[FaultPlan]:
    """Load the plan named by ``REPRO_FAULTS``, if any."""
    path = os.environ.get(FAULTS_ENV)
    if not path:
        return None
    return FaultPlan.from_file(path)


def crash_worker() -> None:  # pragma: no cover - kills the process
    """Die the way a segfault/OOM kill looks to the parent: no cleanup."""
    os._exit(CRASH_EXIT_CODE)


def corrupt_store_object(store, key: str) -> None:
    """Overwrite a published store object with garbage (post-write fault)."""
    path = store.object_path(key)
    if path.exists():
        path.write_text("\x00corrupted-by-fault-injection")
