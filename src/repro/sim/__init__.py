"""Full-system simulation: wiring, cycle engine, results, exporters."""

from repro._exports import lazy_exports

_EXPORTS = {
    "GPUSystem": "system",
    "KernelRun": "system",
    "KernelResult": "results",
    "SimResult": "results",
    "kernel_to_dict": "export",
    "load_result_json": "export",
    "result_to_dict": "export",
    "save_kernels_csv": "export",
    "save_result_json": "export",
    "save_rows_csv": "export",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
