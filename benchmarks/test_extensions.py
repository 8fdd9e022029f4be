"""Extension studies beyond the paper's evaluation.

* **SMS baseline** (related work, Section VIII): the paper argues SMS's
  batch-granularity scheduling is unsuitable because MEM/PIM batches are
  mutually exclusive — every batch boundary is a mode switch.  We compare
  SMS against F3FS on the competitive grid.
* **Dynamic F3FS** (the future work of Section VII): runtime CAP
  adaptation should land near the hand-tuned symmetric F3FS without any
  offline sensitivity study.
* **Refresh** (fidelity extension): enabling tREFI/tRFC refresh perturbs
  results by only a few percent and preserves the policy ordering.
"""

from conftest import experiment_scale, write_result

from repro.experiments import figure_table, format_table


def test_extension_policies(store_dir, benchmark, results_dir):
    _, rows, columns = benchmark.pedantic(
        lambda: figure_table("ext_policies", experiment_scale(), store_dir=store_dir),
        rounds=1,
        iterations=1,
    )
    write_result(results_dir, "extensions_policies", format_table(rows, columns))
    by_name = {row["policy"]: row for row in rows}
    # SMS pays batch-boundary switches: at least as many switches as F3FS.
    assert by_name["SMS"]["switches"] >= by_name["F3FS"]["switches"]
    # The adaptive variant lands near hand-tuned F3FS on both metrics.
    assert by_name["Dyn-F3FS"]["throughput"] >= 0.85 * by_name["F3FS"]["throughput"]
    assert by_name["Dyn-F3FS"]["fairness"] >= 0.7 * by_name["F3FS"]["fairness"]


def test_mesh_topology(benchmark, results_dir):
    """The VC2 proposal generalizes to a multi-hop mesh interconnect.

    On a mesh, PIM backpressure propagates hop by hop, so head-of-line
    blocking under VC1 is at least as harmful as on the crossbar; the
    separate PIM virtual channel restores the GPU kernel's service.
    """
    from repro.core.policies import PolicySpec
    from repro.sim.system import GPUSystem
    from repro.workloads import get_gpu_kernel, get_pim_kernel

    def run():
        scale = experiment_scale()
        rows = []
        for num_vcs in (1, 2):
            config = scale.config(num_vcs).replace(noc_topology="mesh")
            system = GPUSystem(
                config, PolicySpec("MEM-First"), seed=scale.seed,
                scale=scale.workload_scale,
            )
            gpu = system.add_kernel(
                get_gpu_kernel("G15"), num_sms=scale.gpu_sms_corun, loop=True
            )
            system.add_kernel(get_pim_kernel("P1"), num_sms=scale.pim_sms, loop=True)
            result = system.run(max_cycles=400_000)
            duration = result.kernels[gpu.kernel_id].first_duration or result.cycles
            rows.append(
                {
                    "config": f"VC{num_vcs}",
                    "gpu_first_run": duration,
                    "avg_hops": system.mesh.average_hops(),
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    write_result(
        results_dir, "extensions_mesh", format_table(rows, ["config", "gpu_first_run", "avg_hops"])
    )
    by_config = {row["config"]: row for row in rows}
    # The separate PIM VC un-blocks the GPU kernel on the mesh too.
    assert by_config["VC2"]["gpu_first_run"] < by_config["VC1"]["gpu_first_run"]
    assert by_config["VC1"]["avg_hops"] >= 1.0


def test_refresh_perturbation(store_dir, benchmark, results_dir):
    _, rows, columns = benchmark.pedantic(
        lambda: figure_table("ext_refresh", experiment_scale(), store_dir=store_dir),
        rounds=1,
        iterations=1,
    )
    write_result(results_dir, "extensions_refresh", format_table(rows, columns))
    off, on = rows[0], rows[1]
    # Refresh costs a few percent of throughput, not a regime change.
    assert on["throughput"] > 0.8 * off["throughput"]
    assert abs(on["fairness"] - off["fairness"]) < 0.25
