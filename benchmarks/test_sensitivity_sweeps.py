"""Sensitivity studies the paper reports in prose.

* Section VI-A: BLISS "performs best with a lower threshold, indicating
  its tendency to converge toward FR-FCFS" — we sweep the blacklist
  threshold and check the trend.
* Section VI-A: the FR-FCFS CAP was "set empirically to 32" — we sweep
  the CAP and check the fairness/throughput trade-off it controls.
* Section VII-B: the F3FS CAPs come from a sensitivity study —
  "throughput favors high CAPs while fairness favors lower ones".
"""

from conftest import experiment_scale, write_result

from repro.experiments import figure_table, format_table


def test_frfcfs_cap_sweep(store_dir, benchmark, results_dir):
    _, rows, columns = benchmark.pedantic(
        lambda: figure_table("sweep_frfcfs_cap", experiment_scale(), store_dir=store_dir),
        rounds=1,
        iterations=1,
    )
    write_result(results_dir, "sweep_frfcfs_cap", format_table(rows, columns))
    by_cap = {row["value"]: row for row in rows}
    # A very large CAP degenerates toward FR-FCFS: throughput at least as
    # high as the tight-CAP point, which buys fairness instead.
    assert by_cap[256]["throughput"] >= by_cap[4]["throughput"] * 0.95


def test_bliss_threshold_sweep(store_dir, benchmark, results_dir):
    _, rows, columns = benchmark.pedantic(
        lambda: figure_table("sweep_bliss_threshold", experiment_scale(), store_dir=store_dir),
        rounds=1,
        iterations=1,
    )
    write_result(results_dir, "sweep_bliss_threshold", format_table(rows, columns))
    by_threshold = {row["value"]: row for row in rows}
    # The paper: "BLISS performs best with a lower threshold, indicating
    # its tendency to converge toward FR-FCFS."  A low threshold
    # blacklists everyone (no discrimination -> FR-FCFS-like throughput);
    # a high threshold selectively blacklists only the PIM streak-maker,
    # trading throughput for fairness.
    assert by_threshold[2]["throughput"] >= by_threshold[16]["throughput"]
    assert by_threshold[16]["fairness"] >= by_threshold[2]["fairness"] * 0.9


def test_f3fs_cap_pair_sweep(store_dir, benchmark, results_dir):
    _, rows, columns = benchmark.pedantic(
        lambda: figure_table("sweep_f3fs_caps", experiment_scale(), store_dir=store_dir),
        rounds=1,
        iterations=1,
    )
    write_result(results_dir, "sweep_f3fs_caps", format_table(rows, columns))
    by_pair = {(row["mem_cap"], row["pim_cap"]): row for row in rows}
    # Asymmetric CAPs (favoring MEM) shift service toward the GPU kernel,
    # costing competitive fairness relative to the symmetric setting
    # (Section VII-C ablation).
    assert by_pair[(256, 64)]["fairness"] <= by_pair[(256, 256)]["fairness"] + 0.1
