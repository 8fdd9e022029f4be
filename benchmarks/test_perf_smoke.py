"""Engine throughput smoke test (writes ``BENCH_engine.json``).

Not a paper figure: this benchmarks the *simulator*, not the simulated
machine.  It times the reference scenarios from :mod:`repro.perf.bench`
— a fixed-window co-run with an idle tail (the cost of empty steps)
and two fully saturated co-runs (the active-set busy path, and the
scheduler-bound ``saturated_corun`` regime targeted by the per-bank
index) — and records simulated cycles per wall-clock second plus the
per-stage breakdown into ``benchmarks/results/BENCH_engine.json``.

Here we only assert that the numbers are sane.
"""

import json

from repro.perf import run_engine_bench


def test_engine_throughput(benchmark, results_dir):
    payload = benchmark.pedantic(
        run_engine_bench,
        rounds=1,
        iterations=1,
    )
    (results_dir / "BENCH_engine.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    scenarios = payload["scenarios"]
    saturated = scenarios["corun_saturated"]

    # Per-stage breakdown covers the whole pipeline.
    assert set(saturated["stages"]) == {
        "completions",
        "replies",
        "controllers",
        "mc_ingress",
        "l2",
        "writebacks",
        "crossbar",
        "sms",
        "kernel_completion",
    }

    # Throughput sanity: both scenarios should simulate at least a few
    # thousand cycles per second on any host this runs on.
    for name, entry in scenarios.items():
        assert entry["fast"]["cycles_per_sec"] > 1_000, name
