"""Result export: SimResult / outcome records to JSON and CSV.

Downstream analysis usually happens in pandas or a plotting notebook;
these helpers flatten the simulator's result objects into plain rows.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, List, Sequence, Union

from repro.sim.results import SimResult

PathLike = Union[str, Path]


def result_to_dict(result: SimResult) -> Dict:
    """Flatten a SimResult into JSON-serializable data.

    The ``telemetry`` key (per-hop latency percentiles, event counts) is
    only present when the run had telemetry enabled (see :mod:`repro.obs`).
    """
    record = {
        "cycles": result.cycles,
        "bank_level_parallelism": result.bank_level_parallelism,
        "row_buffer_hit_rate": result.row_buffer_hit_rate,
        "mode_switches": result.mode_switches,
        "switches_to_pim": result.switches_to_pim,
        "additional_conflicts_per_switch": result.additional_conflicts_per_switch,
        "mem_drain_latency_per_switch": result.mem_drain_latency_per_switch,
        "mode_cycles": {mode.value: cycles for mode, cycles in result.mode_cycles.items()},
        "noc_rejects": result.noc_rejects,
        "kernels": [kernel_to_dict(k) for k in result.kernels.values()],
    }
    if result.telemetry is not None:
        record["telemetry"] = result.telemetry
    return record


def kernel_to_dict(kernel) -> Dict:
    return {
        "kernel_id": kernel.kernel_id,
        "name": kernel.name,
        "is_pim": kernel.is_pim,
        "first_duration": kernel.first_duration,
        "completions": kernel.completions,
        "requests_injected": kernel.requests_injected,
        "mc_arrivals": kernel.mc_arrivals,
        "l2_accesses": kernel.l2_accesses,
        "l2_hits": kernel.l2_hits,
        "l2_hit_rate": kernel.l2_hit_rate,
        "dram_row_hits": kernel.dram_row_hits,
        "dram_row_misses": kernel.dram_row_misses,
        "dram_row_conflicts": kernel.dram_row_conflicts,
        "row_buffer_hit_rate": kernel.row_buffer_hit_rate,
    }




def save_result_json(result: SimResult, path: PathLike) -> None:
    with open(path, "w") as fh:
        json.dump(result_to_dict(result), fh, indent=2)


def load_result_json(path: PathLike) -> Dict:
    with open(path) as fh:
        return json.load(fh)


def save_rows_csv(rows: Sequence[Dict], path: PathLike) -> None:
    """Write a list of flat dicts as CSV (union of keys, sorted header)."""
    if not rows:
        raise ValueError("no rows to write")
    columns: List[str] = []
    seen = set()
    for row in rows:
        for key in row:
            if key not in seen:
                seen.add(key)
                columns.append(key)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def save_kernels_csv(result: SimResult, path: PathLike) -> None:
    save_rows_csv([kernel_to_dict(k) for k in result.kernels.values()], path)
