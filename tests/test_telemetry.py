"""Tests for the repro.obs telemetry subsystem.

Three claims are covered:

* **Math** — LogHistogram bucket indexing/bounds are consistent and
  monotone, percentiles are sane, merge aggregates; the EventRing evicts
  oldest-first with accounting.
* **Zero observational cost** — enabling telemetry must not change the
  simulation: fingerprints (in the style of test_scheduler_equivalence)
  are bit-identical with telemetry on vs off, with a stale
  ``REPRO_FAST_FORWARD`` set or cleared; and the six per-hop stages
  telescope to ``Request.total_latency`` exactly (mean gap 0).
* **Surface** — the Chrome trace-event export passes its own schema
  validator and contains mode slices, CAP-bypass instants, and queue
  counters; the CLI ``trace`` subcommand writes both artifacts.
"""

import json
import random

import pytest

from repro.cli import main as cli_main
from repro.config import SystemConfig
from repro.core.policies import PolicySpec
from repro.obs import (
    EventRing,
    HOP_STAGES,
    LogHistogram,
    Telemetry,
    build_trace,
    validate_trace,
)
from repro.perf.counters import EngineCounters
from repro.request import reset_request_ids
from repro.sim.system import GPUSystem
from repro.workloads import get_gpu_kernel, get_pim_kernel


# ---------------------------------------------------------------------------
# LogHistogram
# ---------------------------------------------------------------------------


class TestLogHistogram:
    def test_bounds_contain_value(self):
        hist = LogHistogram(sub_bits=3)
        values = list(range(0, 200)) + [2**k + d for k in range(4, 30) for d in (0, 1, 7)]
        for value in values:
            lower, upper = hist.bucket_bounds(hist.bucket_index(value))
            assert lower <= value < upper, value

    def test_exact_below_two_sub(self):
        hist = LogHistogram(sub_bits=3)
        # Values below 2 * 2^sub_bits land in width-1 buckets.
        for value in range(16):
            assert hist.bucket_bounds(hist.bucket_index(value)) == (value, value + 1)

    def test_index_monotone(self):
        hist = LogHistogram(sub_bits=3)
        indices = [hist.bucket_index(v) for v in range(10_000)]
        assert indices == sorted(indices)

    def test_relative_error_bound(self):
        hist = LogHistogram(sub_bits=3)
        for value in (100, 1_000, 50_000, 1_000_000):
            lower, upper = hist.bucket_bounds(hist.bucket_index(value))
            assert (upper - lower) / lower <= 1 / 8 + 1e-9

    def test_stats_and_percentiles(self):
        hist = LogHistogram()
        rng = random.Random(7)
        values = [rng.randrange(0, 100_000) for _ in range(5_000)]
        for value in values:
            hist.add(value)
        assert hist.total == len(values)
        assert hist.min_value == min(values)
        assert hist.max_value == max(values)
        assert hist.mean == pytest.approx(sum(values) / len(values))
        p50, p95, p99 = hist.percentile(0.5), hist.percentile(0.95), hist.percentile(0.99)
        assert hist.min_value <= p50 <= p95 <= p99 <= hist.max_value
        values.sort()
        # Log-bucketed percentiles are within one octave sub-bucket (12.5%).
        assert p50 == pytest.approx(values[len(values) // 2], rel=0.13)
        assert hist.percentile(1.0) == hist.max_value

    def test_exact_region_percentiles(self):
        hist = LogHistogram()
        for value in range(8):  # all in the exact region
            hist.add(value)
        assert hist.percentile(1.0) == 7.0

    def test_merge(self):
        a, b, both = LogHistogram(), LogHistogram(), LogHistogram()
        for value in (3, 70, 900):
            a.add(value)
            both.add(value)
        for value in (1, 40_000):
            b.add(value)
            both.add(value)
        a.merge(b)
        assert a.counts == both.counts
        assert a.to_dict() == both.to_dict()

    def test_merge_rejects_layout_mismatch(self):
        with pytest.raises(ValueError):
            LogHistogram(sub_bits=3).merge(LogHistogram(sub_bits=4))

    def test_empty_and_invalid(self):
        hist = LogHistogram()
        assert hist.percentile(0.5) == 0.0
        assert hist.to_dict()["count"] == 0
        with pytest.raises(ValueError):
            hist.add(-1)
        with pytest.raises(ValueError):
            hist.percentile(0.0)


# ---------------------------------------------------------------------------
# EventRing
# ---------------------------------------------------------------------------


class TestEventRing:
    def test_eviction_keeps_newest(self):
        ring = EventRing(capacity=4)
        for cycle in range(10):
            ring.emit(cycle, "tick", channel=0, n=cycle)
        assert len(ring) == 4
        assert ring.evicted == 6
        assert [e.cycle for e in ring] == [6, 7, 8, 9]

    def test_by_kind_and_data(self):
        ring = EventRing()
        ring.emit(1, "a")
        ring.emit(2, "b", channel=3, x=1)
        ring.emit(3, "a")
        assert ring.by_kind() == {"a": 2, "b": 1}
        event = [e for e in ring if e.kind == "b"][0]
        assert event.to_dict() == {"cycle": 2, "kind": "b", "channel": 3, "x": 1}

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            EventRing(capacity=0)

    def test_overflow_preserves_emission_order_across_kinds(self):
        """Wrap-around keeps interleaved kinds in emission order, and the
        eviction counter tracks exactly the overflow past capacity."""
        ring = EventRing(capacity=5)
        emitted = []
        for i in range(12):
            kind = ("refresh", "cap_bypass", "noc_reject")[i % 3]
            ring.emit(i, kind, channel=i % 2)
            emitted.append((i, kind))
        assert ring.evicted == 12 - 5
        survivors = [(e.cycle, e.kind) for e in ring]
        assert survivors == emitted[-5:]
        # Filling exactly to capacity evicts nothing.
        exact = EventRing(capacity=3)
        for i in range(3):
            exact.emit(i, "refresh")
        assert exact.evicted == 0 and len(exact) == 3


# ---------------------------------------------------------------------------
# Observational transparency and the hop identity
# ---------------------------------------------------------------------------


def run_corun(telemetry: bool):
    """F3FS co-run in the test_scheduler_equivalence fingerprint style."""
    reset_request_ids()
    config = SystemConfig.scaled(num_channels=2, num_sms=4)
    system = GPUSystem(config, PolicySpec("F3FS"), seed=3, scale=0.06)
    if telemetry:
        system.enable_telemetry(timeline_interval=100)
    system.add_kernel(get_gpu_kernel("G17"), num_sms=3, loop=True)
    system.add_kernel(get_pim_kernel("P1"), num_sms=1, loop=True)
    result = system.run(max_cycles=12_000, until_all_complete_once=False)
    fingerprint = {
        "cycles": result.cycles,
        "issued": [(c.stats.mem_issued, c.stats.pim_issued) for c in system.controllers],
        "arrivals": [(c.stats.mem_arrivals, c.stats.pim_arrivals) for c in system.controllers],
        "injected": sorted(system._injected.items()),
        "switches": result.mode_switches,
        "hit_rate": result.row_buffer_hit_rate,
        "replies": system.replies_sent,
    }
    return system, result, fingerprint


class TestTransparency:
    @pytest.mark.parametrize("fast_forward", ["1", "0"], ids=["ff", "noff"])
    def test_fingerprint_identical_on_off(self, monkeypatch, fast_forward):
        # The engine no longer reads REPRO_FAST_FORWARD; a value left over
        # from older releases must not change either run.
        monkeypatch.setenv("REPRO_FAST_FORWARD", fast_forward)
        _, _, on = run_corun(telemetry=True)
        _, _, off = run_corun(telemetry=False)
        assert on == off

    def test_hop_identity_exact(self):
        system, result, _ = run_corun(telemetry=True)
        identity = system.telemetry.summary()["hop_identity"]
        assert identity["requests"] > 0
        assert identity["mean_abs_gap"] == 0.0
        assert identity["mean_total_latency"] == identity["mean_hop_sum"]

    def test_summary_shape_and_result_plumbing(self):
        system, result, _ = run_corun(telemetry=True)
        summary = result.telemetry
        assert summary is not None
        for mode in ("mem", "pim"):
            for stage in HOP_STAGES + ("total",):
                entry = summary["stages"][mode][stage]
                assert entry["count"] > 0
                assert entry["min"] <= entry["p50"] <= entry["p95"] <= entry["p99"]
        # Per-hop means telescope to the total mean per (mode, channel) too.
        for mode, channels in summary["per_channel"].items():
            for stats in channels.values():
                hop_mean = sum(stats[s]["mean"] for s in HOP_STAGES)
                assert hop_mean == pytest.approx(stats["total"]["mean"], abs=0.1)
        events = summary["events"]
        assert events["by_kind"]["mode_switch_begin"] == events["by_kind"]["mode_switch_end"]
        assert events["by_kind"]["cap_bypass"] > 0

    def test_disabled_by_default(self):
        system, result, _ = run_corun(telemetry=False)
        assert system.telemetry is None
        assert result.telemetry is None

    def test_enable_idempotent(self):
        config = SystemConfig.scaled(num_channels=2, num_sms=2)
        system = GPUSystem(config, PolicySpec("F3FS"))
        telemetry = system.enable_telemetry()
        assert system.enable_telemetry() is telemetry
        assert all(c.telemetry is telemetry for c in system.controllers)


class TestTelemetryUnit:
    def test_record_completion_skips_incomplete_chains(self):
        from repro.request import Request, RequestType

        telemetry = Telemetry()
        req = Request(type=RequestType.MEM_LOAD, address=0, kernel_id=0)
        req.cycle_created = 5  # no noc/l2/mc/issue timestamps
        telemetry.record_completion(req, cycle=100)
        assert telemetry.folded_requests == 0


# ---------------------------------------------------------------------------
# Trace export
# ---------------------------------------------------------------------------


class TestTraceExport:
    def test_build_requires_telemetry(self):
        system, _, _ = run_corun(telemetry=False)
        with pytest.raises(ValueError):
            build_trace(system)

    def test_trace_valid_and_populated(self):
        system, _, _ = run_corun(telemetry=True)
        doc = build_trace(system)
        assert validate_trace(doc) == []
        events = doc["traceEvents"]
        mode_slices = [e for e in events if e.get("cat") == "mode" and e["ph"] == "X"]
        assert {e["name"] for e in mode_slices} >= {"MEM", "PIM"}
        assert any(e["name"].startswith("switch->") for e in mode_slices)
        assert any(e["ph"] == "i" and e["name"] == "cap_bypass" for e in events)
        counters = [e for e in events if e["ph"] == "C"]
        assert counters and all(set(e["args"]) == {"mem_q", "pim_q", "noc"} for e in counters)
        kernel_slices = [e for e in events if e.get("cat") == "kernel"]
        assert kernel_slices
        # Slices stay within the run and on valid tracks.
        num_channels = system.config.num_channels
        for e in mode_slices:
            assert 0 <= e["tid"] < num_channels
            assert e["ts"] + e["dur"] <= system.cycle

    def test_validator_rejects_malformed(self):
        assert validate_trace({"nope": 1})
        bad = {
            "traceEvents": [
                {"name": "x", "ph": "Z", "pid": 0, "tid": 0, "ts": 1},
                {"name": "x", "ph": "X", "pid": 0, "tid": 0, "ts": -5, "dur": 1},
                {"name": "x", "ph": "C", "pid": 0, "tid": 0, "ts": 1, "args": {}},
                {"name": "x", "ph": "i", "pid": 0, "tid": 0, "ts": 1, "s": "q"},
            ]
        }
        assert len(validate_trace(bad)) == 4

    def test_cli_trace_smoke(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        rc = cli_main(
            [
                "trace",
                "--scenario",
                "mode_timeline",
                "--policy",
                "f3fs",
                "--out",
                str(out),
                "--max-cycles",
                "6000",
                "--channels",
                "2",
                "--scale",
                "0.06",
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert validate_trace(doc) == []
        stats = json.loads((tmp_path / "trace_stats.json").read_text())
        assert stats["hop_identity"]["mean_abs_gap"] == 0.0
        assert "hop identity" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Report/figure consumers
# ---------------------------------------------------------------------------


class TestConsumers:
    def test_latency_breakdown_rows_and_section(self):
        from repro.experiments import latency_breakdown_rows, telemetry_section

        system, result, _ = run_corun(telemetry=True)
        rows = latency_breakdown_rows(result.telemetry)
        assert {r["mode"] for r in rows} == {"mem", "pim"}
        assert all({"stage", "count", "mean", "p50", "p95", "p99"} <= set(r) for r in rows)
        section = telemetry_section(result)
        assert section.startswith("## ")
        assert "| mode |" in section and "mc_blocked" in section
        with pytest.raises(ValueError):
            telemetry_section(object())


# ---------------------------------------------------------------------------
# EngineCounters aggregation (parallel sweep support)
# ---------------------------------------------------------------------------


class TestEngineCounters:
    def test_reset_and_merge(self):
        a = EngineCounters()
        a.add("sm", 0.5)
        a.add("sm", 0.25)
        a.add("dram", 1.0)
        b = EngineCounters()
        b.add("sm", 1.0)
        b.merge(a)
        assert b.seconds["sm"] == pytest.approx(1.75)
        assert b.calls == {"sm": 3, "dram": 1}
        snapshot = a.snapshot()
        a.reset()
        assert a.seconds == {} and a.calls == {}
        a.merge_snapshot(snapshot)
        assert a.seconds["dram"] == pytest.approx(1.0)
        assert a.calls["sm"] == 2

    def test_runner_shares_counters(self):
        from repro.experiments import ExperimentScale, Runner

        scale = ExperimentScale(
            num_channels=2, gpu_sms_full=3, gpu_sms_corun=2, pim_sms=1,
            workload_scale=0.05, max_cycles=200_000,
        )
        runner = Runner(scale, perf_counters=True)
        runner.pim_standalone("P1")
        assert runner.perf.total_seconds > 0
        assert runner.perf.calls  # stage counters populated

    def test_grid_parallel_collects_perf(self):
        from repro.experiments import ExperimentScale, make_tasks, run_sweep

        scale = ExperimentScale(
            num_channels=2, gpu_sms_full=3, gpu_sms_corun=2, pim_sms=1,
            workload_scale=0.05, max_cycles=400_000,
        )
        tasks = make_tasks(["G17"], ["P1"], [PolicySpec("FR-FCFS")], vc_configs=(1,))
        report = run_sweep(scale, tasks, max_workers=1, collect_perf=True)
        assert report.completed == 1
        assert report.counters.total_seconds > 0
        # Without collect_perf the report carries no counters.
        plain = run_sweep(scale, tasks, max_workers=1)
        assert plain.counters is None and plain.completed == 1

    def test_grid_parallel_merges_perf_across_workers(self):
        """collect_perf across real worker processes: every worker's stage
        counters come home and merge into one EngineCounters."""
        from repro.experiments import ExperimentScale, make_tasks, run_sweep

        scale = ExperimentScale(
            num_channels=2, gpu_sms_full=3, gpu_sms_corun=2, pim_sms=1,
            workload_scale=0.05, max_cycles=400_000,
        )
        tasks = make_tasks(
            ["G17"], ["P1"], [PolicySpec("FR-FCFS")], vc_configs=(1, 2)
        )
        report = run_sweep(scale, tasks, max_workers=2, collect_perf=True)
        merged = report.counters
        assert report.completed == 2
        assert merged.total_seconds > 0
        # The merged counters cover both cells: at least as many stage
        # calls as either cell alone produces serially.
        serial_report = run_sweep(scale, tasks[:1], max_workers=1, collect_perf=True)
        serial = serial_report.counters
        assert serial_report.completed == 1
        for stage, calls in serial.calls.items():
            assert merged.calls.get(stage, 0) >= calls
