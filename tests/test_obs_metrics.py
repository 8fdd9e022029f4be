"""Tests for the campaign-observability surface (PR: live telemetry).

Four claims are covered:

* **Registry** — counters/gauges/histograms are get-or-create by name,
  type collisions fail loudly, and both export formats (JSON snapshot,
  Prometheus text exposition 0.0.4) carry the registered values.
* **Heartbeat** — ``StatusPublisher`` documents pass ``validate_status``
  through every state transition, land atomically as ``status.json``,
  and a sweep with a store directory leaves a final ``complete`` (or
  ``aborted``) document behind even when every cell is a warm cache hit.
* **Endpoint** — ``StatusServer`` serves ``/status``, ``/metrics`` and
  ``/journal`` off a daemon thread; ``repro status`` renders the same
  document from the CLI.
* **Stage profiler** — wrapping the per-event bodies is observationally
  transparent (bit-identical simulation) and produces a ranked table.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.cli import main as cli_main
from repro.core.policies import PolicySpec
from repro.experiments import ExperimentScale, run_sweep
from repro.experiments.parallel import make_tasks
from repro.obs import (
    MetricsRegistry,
    StatusPublisher,
    StatusServer,
    get_registry,
    read_status,
    status_path,
    validate_status,
)
from repro.obs.metrics import prometheus_name
from repro.store import ResultStore

TINY = ExperimentScale(
    num_channels=4,
    gpu_sms_full=4,
    gpu_sms_corun=3,
    pim_sms=1,
    workload_scale=0.05,
    starvation_factor=10,
)


def tiny_tasks():
    return make_tasks(["G17"], ["P1"], [PolicySpec("FR-FCFS")], (1,))


# ---------------------------------------------------------------------------
# MetricsRegistry
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        counter = reg.counter("cells.done", "cells")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)
        gauge = reg.gauge("in.flight")
        gauge.set(3)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value == 2
        hist = reg.histogram("interval.ms", "cadence")
        for value in (10, 20, 4000):
            hist.add(value)
        assert hist.total == 3

    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a", "help ignored on re-get")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h") is reg.histogram("h")

    def test_type_collision_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")
        with pytest.raises(ValueError):
            reg.histogram("x")

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.gauge("g").set(1.5)
        reg.histogram("h").add(100)
        snap = reg.snapshot()
        assert snap["counters"] == {"c": 2}
        assert snap["gauges"] == {"g": 1.5}
        hist = snap["histograms"]["h"]
        assert hist["count"] == 1 and hist["min"] == 100
        json.dumps(snap)  # JSON-friendly by construction

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.reset()
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}
        assert reg.counter("c").value == 0  # fresh object after reset

    def test_prometheus_name_mangling(self):
        assert prometheus_name("sweep.cells.completed") == "sweep_cells_completed"
        assert prometheus_name("9lives") == "_9lives"
        assert prometheus_name("a:b_c") == "a:b_c"

    def test_render_prometheus(self):
        reg = MetricsRegistry()
        reg.counter("sweep.cells.completed", "cells done").inc(7)
        reg.gauge("sweep.workers.in_flight").set(2)
        hist = reg.histogram("sweep.cell_interval_ms", "cadence")
        for value in (100, 200, 300, 400):
            hist.add(value)
        text = reg.render_prometheus()
        assert "# HELP sweep_cells_completed cells done" in text
        assert "# TYPE sweep_cells_completed counter" in text
        assert "sweep_cells_completed 7" in text
        assert "# TYPE sweep_workers_in_flight gauge" in text
        assert "# TYPE sweep_cell_interval_ms summary" in text
        assert 'sweep_cell_interval_ms{quantile="0.5"}' in text
        assert "sweep_cell_interval_ms_count 4" in text
        # _sum must equal mean * count as rendered.
        summary = hist.to_dict()
        assert f"sweep_cell_interval_ms_sum {summary['mean'] * 4!r}" in text
        assert text.endswith("\n")

    def test_default_registry_is_singleton(self):
        assert get_registry() is get_registry()


# ---------------------------------------------------------------------------
# StatusPublisher / validate_status
# ---------------------------------------------------------------------------


class TestStatusPublisher:
    def make(self, tmp_path, **kwargs):
        kwargs.setdefault("interval", 0.0)  # publish on every feed in tests
        return StatusPublisher(tmp_path, total_cells=4, registry=MetricsRegistry(), **kwargs)

    def test_initial_document_valid_and_on_disk(self, tmp_path):
        publisher = self.make(tmp_path)
        assert status_path(tmp_path).exists()
        doc = read_status(tmp_path)
        assert validate_status(doc) == []
        assert doc["state"] == "running"
        assert doc["cells"] == {
            "total": 4, "completed": 0, "hits": 0, "misses": 0, "failed": 0,
        }
        assert doc["eta_seconds"] is None  # no throughput signal yet
        assert publisher.registry.snapshot()["counters"]["sweep.cells.completed"] == 0

    def test_progress_and_finish(self, tmp_path):
        publisher = self.make(tmp_path)
        publisher.record_completion(hit=True)
        publisher.record_completion(hit=False)
        publisher.record_retry({"kind": "retry", "label": "x"})
        publisher.record_in_flight([{"label": "G17|P1|FR-FCFS|vc1", "seconds": 0.5}])
        doc = read_status(tmp_path)
        assert validate_status(doc) == []
        assert doc["cells"]["completed"] == 2
        assert doc["cells"]["hits"] == 1 and doc["cells"]["misses"] == 1
        assert doc["retries"] == 1
        assert doc["workers"]["in_flight"][0]["label"] == "G17|P1|FR-FCFS|vc1"
        counters = doc["metrics"]["counters"]
        assert counters["sweep.cells.completed"] == 2
        assert counters["sweep.cells.retries"] == 1
        # Second completion recorded an inter-completion interval sample.
        assert doc["metrics"]["histograms"]["sweep.cell_interval_ms"]["count"] == 1
        publisher.finish("complete")
        doc = read_status(tmp_path)
        assert doc["state"] == "complete"
        assert doc["workers"]["in_flight"] == []
        assert doc["eta_seconds"] == 0.0

    def test_quarantine_and_abort(self, tmp_path):
        publisher = self.make(tmp_path)
        publisher.record_quarantine(
            {"label": "G17|P1|F3FS|vc2", "kind": "crash", "attempts": 3, "message": "boom"}
        )
        publisher.finish("aborted")
        doc = read_status(tmp_path)
        assert validate_status(doc) == []
        assert doc["state"] == "aborted"
        assert doc["cells"]["failed"] == 1
        assert doc["quarantined"][0]["label"] == "G17|P1|F3FS|vc2"
        assert doc["quarantined"][0]["kind"] == "crash"

    def test_sync_retries_is_monotone(self, tmp_path):
        publisher = self.make(tmp_path)
        publisher.sync_retries(3)
        publisher.sync_retries(2)  # never goes backwards
        publisher.sync_retries(5)
        assert publisher.retries == 5
        counters = publisher.registry.snapshot()["counters"]
        assert counters["sweep.cells.retries"] == 5

    def test_throttle_skips_writes_but_force_lands(self, tmp_path):
        clock = [100.0]
        publisher = StatusPublisher(
            tmp_path, total_cells=2, registry=MetricsRegistry(),
            interval=10.0, clock=lambda: clock[0],
        )
        clock[0] += 1.0  # inside the throttle window
        publisher.record_completion(hit=False)
        assert read_status(tmp_path)["cells"]["completed"] == 0  # throttled
        publisher.finish("complete")  # forced
        assert read_status(tmp_path)["cells"]["completed"] == 1

    def test_finish_rejects_unknown_state(self, tmp_path):
        with pytest.raises(ValueError):
            self.make(tmp_path).finish("exploded")

    def test_validate_rejects_malformed(self):
        assert validate_status("not a dict")
        assert validate_status({}) != []
        bad = {
            "schema": 1, "state": "running", "started_at": 0, "updated_at": 1,
            "cells": {"total": 2, "completed": 2, "hits": 0, "misses": 1, "failed": 0},
            "throughput_cells_per_sec": 0.0, "eta_seconds": None, "shard": None,
            "workers": {"max": 1, "in_flight": []}, "retries": 0,
            "quarantined": [], "metrics": {},
        }
        errors = validate_status(bad)
        assert errors == ["cells.completed must equal cells.hits + cells.misses"]

    def test_read_status_missing(self, tmp_path):
        assert read_status(tmp_path / "never") is None

    def test_read_status_retries_through_replace_window(self, tmp_path):
        """Regression: a reader racing the atomic replace (file briefly
        missing or torn on non-POSIX filesystems) must retry, not
        misreport a live sweep as statusless."""
        from repro.obs.status import status_path

        good = StatusPublisher(tmp_path / "donor", total_cells=1).document()
        path = status_path(tmp_path)
        path.parent.mkdir(exist_ok=True)
        path.write_text('{"torn": ')  # half-written document

        def heal(_delay):
            path.write_text(json.dumps(good))

        doc = read_status(tmp_path, attempts=3, _sleep=heal)
        assert doc is not None and validate_status(doc) == []

    def test_read_status_gives_up_after_attempts(self, tmp_path):
        from repro.obs.status import status_path

        status_path(tmp_path).write_text("{never json")
        sleeps = []
        assert read_status(tmp_path, attempts=3, _sleep=sleeps.append) is None
        assert len(sleeps) == 2  # attempts - 1 pauses, then give up


# ---------------------------------------------------------------------------
# StatusServer endpoints
# ---------------------------------------------------------------------------


def _get(url):
    with urllib.request.urlopen(url, timeout=5) as resp:
        return resp.status, resp.headers.get("Content-Type", ""), resp.read().decode()


class TestStatusServer:
    def test_endpoints(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("sweep.cells.completed", "done").inc(2)
        store = ResultStore(tmp_path)
        store.log_event("put", key="abc", label="G17|P1|FR-FCFS|vc1")
        with StatusServer(tmp_path, port=0, registry=reg) as server:
            # No heartbeat yet: /status answers 503 with a sentinel body.
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(server.url + "/status", timeout=5)
            assert info.value.code == 503
            assert json.loads(info.value.read().decode())["state"] == "unknown"

            StatusPublisher(tmp_path, total_cells=1, registry=reg)
            status, ctype, body = _get(server.url + "/status")
            assert status == 200 and "application/json" in ctype
            assert validate_status(json.loads(body)) == []

            status, ctype, body = _get(server.url + "/metrics")
            assert status == 200
            assert ctype.startswith("text/plain") and "version=0.0.4" in ctype
            assert "sweep_cells_completed 2" in body

            status, _, body = _get(server.url + "/journal?n=5")
            assert status == 200
            events = json.loads(body)
            assert events and events[0]["event"] == "put"

            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(server.url + "/nope", timeout=5)
            assert info.value.code == 404
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(server.url + "/journal?n=many", timeout=5)
            assert info.value.code == 400

    def test_ephemeral_port_and_close(self, tmp_path):
        server = StatusServer(tmp_path, port=0)
        assert server.port > 0
        assert server.url == f"http://127.0.0.1:{server.port}"
        server.close()
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(server.url + "/status", timeout=1)


# ---------------------------------------------------------------------------
# Sweep integration: heartbeat + warm-hit finalization + CLI
# ---------------------------------------------------------------------------


class TestSweepHeartbeat:
    def test_cold_then_warm_sweep_publishes_and_journals(self, tmp_path, capsys):
        store_dir = str(tmp_path)
        tasks = tiny_tasks()

        report = run_sweep(TINY, tasks, store_dir=store_dir, status_interval=0.0)
        assert report.misses == 1
        doc = read_status(store_dir)
        assert validate_status(doc) == []
        assert doc["state"] == "complete"
        assert doc["cells"]["completed"] == 1 and doc["cells"]["misses"] == 1
        # The embedded metrics snapshot comes from the process-wide
        # registry (Prometheus counters are process-lifetime, and other
        # sweeps in this test session feed the same registry), so assert
        # presence and a floor rather than an exact per-sweep count.
        assert doc["metrics"]["counters"]["sweep.cells.misses"] >= 1

        # Warm resume: every cell is a cache hit, yet the heartbeat and the
        # journal summary still land (the "silent 100%-hit resume" fix).
        report = run_sweep(TINY, tasks, store_dir=store_dir, status_interval=0.0)
        assert report.hits == 1 and report.misses == 0
        doc = read_status(store_dir)
        assert doc["state"] == "complete"
        assert doc["cells"]["hits"] == 1
        summaries = [
            e for e in ResultStore(store_dir).journal_entries()
            if e.get("event") == "sweep_summary"
        ]
        assert len(summaries) == 2
        assert all(s["state"] == "complete" for s in summaries)
        assert summaries[-1]["hits"] == 1 and summaries[-1]["misses"] == 0

    def test_aborted_sweep_finalizes_status(self, tmp_path):
        from repro.experiments import SweepAborted

        store_dir = str(tmp_path)
        with pytest.raises(SweepAborted):
            run_sweep(
                TINY, tiny_tasks(), store_dir=store_dir,
                abort_after=0, status_interval=0.0,
            )
        doc = read_status(store_dir)
        assert validate_status(doc) == []
        assert doc["state"] == "aborted"
        summaries = [
            e for e in ResultStore(store_dir).journal_entries()
            if e.get("event") == "sweep_summary"
        ]
        assert summaries and summaries[-1]["state"] == "aborted"

    def test_status_cli(self, tmp_path, capsys):
        store_dir = str(tmp_path)
        assert cli_main(["status", "--cache-dir", store_dir]) == 1
        assert "no status.json" in capsys.readouterr().err

        run_sweep(TINY, tiny_tasks(), store_dir=store_dir, status_interval=0.0)
        assert cli_main(["status", "--cache-dir", store_dir]) == 0
        out = capsys.readouterr().out
        assert out.startswith("[complete] 1/1 cells")
        assert "(0 cache hits, 1 simulated)" in out

        assert cli_main(["status", "--cache-dir", store_dir, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert validate_status(doc) == []

    def test_status_watch_tolerates_late_status(self, tmp_path, capsys):
        """Regression: ``status --watch`` pointed at a store whose
        status.json lands only after polling starts (or vanishes for a
        poll during an atomic replace) keeps watching and exits cleanly
        once the campaign shows a terminal state."""
        import threading

        from repro.obs.status import StatusPublisher, status_path

        store_dir = str(tmp_path)
        doc = StatusPublisher(tmp_path / "donor", total_cells=1).document()
        doc["state"] = "complete"

        timer = threading.Timer(
            0.15, lambda: status_path(store_dir).write_text(json.dumps(doc))
        )
        timer.start()
        try:
            assert cli_main(
                ["status", "--cache-dir", store_dir, "--watch", "--interval", "0.03"]
            ) == 0
        finally:
            timer.cancel()
        assert "[complete]" in capsys.readouterr().out

    def test_sweep_serve_status_requires_cache_dir(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(
                ["sweep", "--gpus", "G17", "--pims", "P1", "--policies",
                 "FR-FCFS", "--vcs", "1", "--serve-status", "0"]
            )
