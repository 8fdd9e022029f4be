"""Engine throughput smoke test (writes ``BENCH_engine.json``).

Not a paper figure: this benchmarks the *simulator*, not the simulated
machine.  It times the reference scenarios from :mod:`repro.perf.bench`
— a fixed-window co-run with a quiescent tail (fast-forward territory)
and two fully saturated co-runs (the active-set busy path, and the
scheduler-bound ``saturated_corun`` regime targeted by the per-bank
index) — and records simulated cycles per wall-clock second plus the
per-stage breakdown into ``benchmarks/results/BENCH_engine.json``.

The companion correctness guarantee (fast and naive runs bit-identical)
lives in ``tests/test_fast_forward.py``; here we only assert the engine
actually fast-forwards and that the numbers are sane.
"""

import json

from repro.perf import run_engine_bench


def test_engine_throughput(benchmark, results_dir):
    payload = benchmark.pedantic(
        lambda: run_engine_bench(compare_naive=True),
        rounds=1,
        iterations=1,
    )
    (results_dir / "BENCH_engine.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    scenarios = payload["scenarios"]
    horizon = scenarios["corun_horizon"]
    saturated = scenarios["corun_saturated"]
    scheduler_bound = scenarios["saturated_corun"]

    # The fast and naive loops simulated the same number of cycles (the
    # bench itself asserts this; re-check the recorded payload).
    assert horizon["fast"]["cycles"] == horizon["naive"]["cycles"]

    # The fixed-window co-run has a long quiescent tail: most of the
    # window must be jumped, not stepped.  steps_executed/cycles_skipped
    # are engine bookkeeping, reported under engine_meta.
    meta = horizon["engine_meta"]
    assert meta["cycles_skipped"] > horizon["fast"]["cycles"] // 2
    assert set(meta) == {"steps_executed", "cycles_skipped"}

    # The saturated co-runs never quiesce for long — (almost) nothing to
    # skip.  saturated_corun re-launches both kernels, so a handful of
    # single-cycle jumps can occur around launch boundaries.
    assert saturated["engine_meta"]["cycles_skipped"] == 0
    assert scheduler_bound["engine_meta"]["cycles_skipped"] < 100

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
