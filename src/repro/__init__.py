"""repro — Concurrent PIM and Load/Store Servicing in PIM-Enabled Memory.

A cycle-level simulator and experiment harness reproducing Gupta et al.,
ISPASS 2025: a PIM-enabled GPU memory subsystem (HBM banks + bank-level
PIM functional units), the SM-to-memory-controller interconnect with
optional separate MEM/PIM virtual channels (VC2), nine memory-controller
scheduling policies including the paper's F3FS, and harnesses regenerating
every evaluation figure.

Quick start::

    from repro import GPUSystem, PolicySpec, SystemConfig
    from repro.workloads import get_gpu_kernel, get_pim_kernel

    config = SystemConfig.scaled().with_vc2
    system = GPUSystem(config, PolicySpec("F3FS"), scale=0.25)
    system.add_kernel(get_gpu_kernel("G6"), num_sms=8, loop=True)
    system.add_kernel(get_pim_kernel("P1"), num_sms=2, loop=True)
    result = system.run()

See README.md for the architecture overview and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from repro._exports import lazy_exports

__version__ = "1.0.0"

#: Export name -> defining module, resolved on first access: ``import
#: repro`` loads no engine, and ``from repro import GPUSystem`` loads it.
_EXPORTS = {
    "AddressMapper": "dram.address",
    "DRAMTimings": "dram.timings",
    "GPUSystem": "sim.system",
    "KernelResult": "sim.results",
    "Mode": "request",
    "PAPER_POLICY_ORDER": "core.policies",
    "PolicySpec": "core.policies",
    "Request": "request",
    "RequestType": "request",
    "SimResult": "sim.results",
    "SystemConfig": "config",
    "available_policies": "core.policies",
    "fairness_index": "metrics.fairness",
    "make_policy": "core.policies",
    "speedup": "metrics.fairness",
    "system_throughput": "metrics.fairness",
}

__all__ = [*_EXPORTS, "__version__"]
__getattr__ = lazy_exports(__name__, _EXPORTS)
