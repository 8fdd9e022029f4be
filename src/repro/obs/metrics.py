"""Process-wide metrics registry (counters, gauges, streaming histograms).

The registry is the *operational* half of ``repro.obs``: where
:class:`~repro.obs.telemetry.Telemetry` measures the simulated machine,
the registry measures the campaign running it — cells completed, cache
hits, retries, cell-completion cadence — and exposes the lot two ways:

* :meth:`MetricsRegistry.snapshot` — a JSON-friendly dict (the shape
  embedded in ``status.json`` by the sweep heartbeat);
* :meth:`MetricsRegistry.render_prometheus` — Prometheus text exposition
  (``text/plain; version=0.0.4``), served at ``/metrics`` by
  :class:`repro.obs.server.StatusServer`.

Histograms reuse :class:`~repro.obs.histogram.LogHistogram`, so quantile
memory stays bounded no matter how many samples a campaign records.

Like every ``repro.obs`` hook the registry is zero-cost when unused: the
engine's per-cycle path never touches it — only the sweep coordinator
(:func:`repro.experiments.parallel.run_sweep`) updates it, and
only when a store directory (and therefore a heartbeat) is attached.
``get_registry()`` returns the process-wide default; instantiate
:class:`MetricsRegistry` directly for an isolated one (tests do).
"""

from __future__ import annotations

import re
import threading
from typing import Dict, Optional

from repro.obs.histogram import LogHistogram

#: Characters legal in a Prometheus metric name; everything else becomes
#: an underscore (``sweep.cells.completed`` -> ``sweep_cells_completed``).
_PROM_ILLEGAL = re.compile(r"[^a-zA-Z0-9_:]")

#: Quantiles exported per histogram in the Prometheus summary rendering.
_SUMMARY_QUANTILES = ((0.5, "p50"), (0.95, "p95"), (0.99, "p99"))


def prometheus_name(name: str) -> str:
    """A registry metric name mangled into a legal Prometheus name."""
    mangled = _PROM_ILLEGAL.sub("_", name)
    if mangled and mangled[0].isdigit():
        mangled = "_" + mangled
    return mangled


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "help", "_value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"Counter.inc amount must be >= 0 (got {amount})")
        self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A value that can go up and down (in-flight cells, ETA, ...)."""

    __slots__ = ("name", "help", "_value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = value

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    @property
    def value(self) -> float:
        return self._value


class MetricsRegistry:
    """A named collection of counters, gauges, and streaming histograms.

    ``counter``/``gauge``/``histogram`` are get-or-create (idempotent for
    a name, ``ValueError`` if the name already exists as another type),
    so call sites never need to coordinate registration.  The registry
    lock only guards the registration maps — individual updates are
    plain attribute writes, safe under the GIL for the single-writer
    (sweep coordinator) / single-reader (HTTP thread) pattern it serves.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, LogHistogram] = {}
        self._histogram_help: Dict[str, str] = {}

    def _get_or_create(self, table: Dict, name: str, factory):
        for other in (self._counters, self._gauges, self._histograms):
            if other is not table and name in other:
                raise ValueError(
                    f"metric {name!r} already registered as a different type"
                )
        with self._lock:
            metric = table.get(name)
            if metric is None:
                metric = table[name] = factory()
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(self._counters, name, lambda: Counter(name, help))

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(self._gauges, name, lambda: Gauge(name, help))

    def histogram(self, name: str, help: str = "") -> LogHistogram:
        metric = self._get_or_create(self._histograms, name, LogHistogram)
        if help:
            self._histogram_help.setdefault(name, help)
        return metric

    def reset(self) -> None:
        """Drop every registered metric (tests and fresh campaigns)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._histogram_help.clear()

    # -- export ------------------------------------------------------------

    def snapshot(self) -> Dict:
        """JSON-friendly dump: counters/gauges as numbers, histograms as
        their ``to_dict`` summaries (count/mean/p50/p95/p99/min/max)."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.to_dict() for n, h in sorted(self._histograms.items())
            },
        }

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (0.0.4).

        Counters render as ``counter``, gauges as ``gauge``, histograms
        as ``summary`` (p50/p95/p99 quantile series plus ``_sum`` and
        ``_count``, the convention for client-side quantiles).
        """
        lines = []
        for name, counter in sorted(self._counters.items()):
            prom = prometheus_name(name)
            if counter.help:
                lines.append(f"# HELP {prom} {counter.help}")
            lines.append(f"# TYPE {prom} counter")
            lines.append(f"{prom} {counter.value}")
        for name, gauge in sorted(self._gauges.items()):
            prom = prometheus_name(name)
            if gauge.help:
                lines.append(f"# HELP {prom} {gauge.help}")
            lines.append(f"# TYPE {prom} gauge")
            lines.append(f"{prom} {_format_value(gauge.value)}")
        for name, histogram in sorted(self._histograms.items()):
            prom = prometheus_name(name)
            help_text = self._histogram_help.get(name)
            if help_text:
                lines.append(f"# HELP {prom} {help_text}")
            lines.append(f"# TYPE {prom} summary")
            summary = histogram.to_dict()
            for quantile, key in _SUMMARY_QUANTILES:
                lines.append(
                    f'{prom}{{quantile="{quantile}"}} '
                    f"{_format_value(summary.get(key, 0))}"
                )
            total = summary.get("mean", 0) * summary.get("count", 0)
            lines.append(f"{prom}_sum {_format_value(total)}")
            lines.append(f"{prom}_count {summary.get('count', 0)}")
        return "\n".join(lines) + "\n"


def _format_value(value) -> str:
    """Render a sample value the way Prometheus parsers expect."""
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if value != value:  # NaN
        return "NaN"
    return repr(float(value))


_DEFAULT: Optional[MetricsRegistry] = None
_DEFAULT_LOCK = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry (created on first use)."""
    global _DEFAULT
    if _DEFAULT is None:
        with _DEFAULT_LOCK:
            if _DEFAULT is None:
                _DEFAULT = MetricsRegistry()
    return _DEFAULT
