"""Command-line interface.

Examples::

    python -m repro list
    python -m repro run --gpu G17 --pim P2 --policy F3FS --vcs 2
    python -m repro collaborative --policy FR-FCFS --vcs 2
    python -m repro figure fig11 --policies FR-FCFS F3FS
    python -m repro figure fig8 --gpus G6 G17 --pims P1 P2
    python -m repro figure sweep_f3fs_caps
    python -m repro figure all --cache-dir store --fail-on-miss
    python -m repro trace --gpu G19 --pim P1 --policy F3FS --vcs 2 --out trace.json

Figure commands print the same tables the benchmark harness writes to
``benchmarks/results/`` — at their default subsets, byte for byte — from
the one definition per figure in ``repro.experiments.figures.FIGURES``
(the sensitivity and extension tables among them).  With
``--cache-dir`` a figure's cells go through the result store, so a second
render reads them back and simulates nothing.

A command loads the cycle engine only when it simulates: the package
exports resolve lazily, and a sweep imports its process pool only when
it forks one.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.core.policies import PAPER_POLICY_ORDER, PolicySpec, available_policies
from repro.experiments import (
    FIGURES,
    ExperimentScale,
    Runner,
    collaborative_policy,
    figure_tables,
    format_table,
)
from repro.resilience.watchdog import SimulationStalled
from repro.workloads import PIM_SUITE, RODINIA, pim_ids, rodinia_ids


def _add_scale_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=0.12, help="workload scale factor")
    parser.add_argument("--channels", type=int, default=8, help="number of memory channels")
    parser.add_argument("--seed", type=int, default=1, help="simulation seed")


def _policy_name(name: str) -> str:
    """Resolve a policy name case-insensitively (``--policy f3fs``); an
    unknown name passes through for argparse's ``choices`` to refuse."""
    return {p.lower(): p for p in available_policies()}.get(name.lower(), name)


def _add_policy_args(parser: argparse.ArgumentParser) -> None:
    """``--policy`` and ``--vcs`` of one cell (``run``, ``trace``, ``collaborative``)."""
    parser.add_argument(
        "--policy", default="F3FS", type=_policy_name, choices=sorted(available_policies())
    )
    parser.add_argument("--vcs", type=int, default=1, choices=(1, 2))
    _add_scale_args(parser)


def _add_cell_args(parser: argparse.ArgumentParser) -> None:
    """One competitive grid cell: the options ``run`` and ``trace`` share."""
    parser.add_argument("--gpu", default="G17", choices=rodinia_ids())
    parser.add_argument("--pim", default="P1", choices=pim_ids())
    _add_policy_args(parser)


def _add_subset_args(parser: argparse.ArgumentParser) -> None:
    """Kernel and policy subsets (``figure``, ``report``, ``sweep``, ``fabric serve``)."""
    parser.add_argument("--gpus", nargs="*", choices=rodinia_ids())
    parser.add_argument("--pims", nargs="*", choices=pim_ids())
    parser.add_argument("--policies", nargs="*", type=_policy_name, choices=PAPER_POLICY_ORDER)
    _add_scale_args(parser)


def _add_store_args(parser: argparse.ArgumentParser) -> None:
    """The result store of ``figure``, ``report`` and ``sweep``."""
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="result-store root; completed cells persist here as they finish",
    )
    parser.add_argument(
        "--fail-on-miss",
        action="store_true",
        help="exit 1 if any cell had to be simulated (determinism canary)",
    )


def _missed(args, misses: int, file=None) -> int:
    """Exit status of ``--fail-on-miss``: 1, saying so on ``file``
    (default stdout), if cells simulated."""
    if args.fail_on_miss and misses:
        print(f"FAIL: expected a fully warm cache but {misses} cells simulated", file=file)
        return 1
    return 0


def _scale(args) -> ExperimentScale:
    return ExperimentScale(
        num_channels=args.channels,
        workload_scale=args.scale,
        seed=args.seed,
        starvation_factor=15,
    )


def _add_grid_args(parser: argparse.ArgumentParser) -> None:
    """The grid and retry options ``sweep`` and ``fabric serve`` share."""
    _add_subset_args(parser)
    parser.add_argument(
        "--vcs", nargs="*", type=int, default=[1, 2], choices=(1, 2),
        help="VC configurations to include (default: 1 2)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=2,
        help="re-attempts before a failing cell is quarantined (default: 2)",
    )
    parser.add_argument(
        "--backoff",
        type=float,
        default=0.25,
        metavar="SECONDS",
        help="base retry backoff, doubled per attempt (0 disables; default: 0.25)",
    )


def _grid(args):
    """``(scale, tasks, retry)`` from the options of :func:`_add_grid_args`."""
    from repro.experiments import RetryPolicy, default_grid_tasks

    tasks = default_grid_tasks(
        gpu_subset=args.gpus or None,
        pim_subset=args.pims or None,
        policy_names=args.policies or None,
        vc_configs=tuple(args.vcs),
    )
    try:
        retry = RetryPolicy(retries=args.retries, backoff_base=args.backoff)
    except ValueError as exc:
        raise SystemExit(f"invalid retry settings: {exc}")
    return _scale(args), tasks, retry


def _positive(value) -> None:
    if not value > 0:  # also refuses nan
        raise ValueError("must be positive")


def _non_negative(value) -> None:
    if not value >= 0:  # also refuses nan
        raise ValueError("must be >= 0")


def _port(value) -> None:
    if not 0 <= value <= 65535:
        raise ValueError("must be a port number in 0..65535")


def _power_of_two(value) -> None:
    if value < 1 or value & (value - 1):
        raise ValueError("must be a power of two")


#: Numeric flags checked before any command runs, each with the check the
#: code it configures applies.
_SETTING_CHECKS = {
    "--scale": _positive,
    "--channels": _power_of_two,
    "--seed": _non_negative,
    "--max-cycles": _positive,
    "--workers": _positive,
    "--cell-timeout": _positive,
    "--ttl": _positive,
    "--resume-grace": _non_negative,
    "--interval": _positive,
    "--ring-capacity": _positive,
    "--port": _port,
    "--serve-status": _port,
}


def _check_settings(args) -> None:
    """Refuse a bad numeric flag with one line that names it."""
    for flag, check in _SETTING_CHECKS.items():
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is None:
            continue
        try:
            check(value)
        except ValueError as exc:
            raise SystemExit(f"invalid {flag} {value}: {exc}")


def cmd_list(args) -> int:
    print("GPU kernels (Table II):")
    for gid in rodinia_ids():
        print(f"  {gid:4s} {RODINIA[gid].name}")
    print("\nPIM kernels (Table III):")
    for pid in pim_ids():
        print(f"  {pid:4s} {PIM_SUITE[pid].name}")
    print("\nScheduling policies:")
    for name in PAPER_POLICY_ORDER:
        marker = "  <- paper's proposal" if name == "F3FS" else ""
        print(f"  {name}{marker}")
    return 0


def cmd_run(args) -> int:
    runner = Runner(_scale(args))
    outcome = runner.competitive(args.gpu, args.pim, PolicySpec(args.policy), num_vcs=args.vcs)
    rows = [
        {
            "gpu": outcome.gpu_id,
            "pim": outcome.pim_id,
            "policy": outcome.policy,
            "vcs": outcome.num_vcs,
            "gpu_speedup": outcome.gpu_speedup,
            "pim_speedup": outcome.pim_speedup,
            "fairness": outcome.fairness,
            "throughput": outcome.throughput,
            "switches": outcome.mode_switches,
        }
    ]
    print(format_table(rows, list(rows[0])))
    return 0


def cmd_collaborative(args) -> int:
    runner = Runner(_scale(args))
    outcome = runner.collaborative(collaborative_policy(args.policy, args.vcs), num_vcs=args.vcs)
    rows = [
        {
            "policy": outcome.policy,
            "vcs": outcome.num_vcs,
            "speedup": outcome.speedup,
            "ideal": outcome.ideal_speedup,
        }
    ]
    print(format_table(rows, list(rows[0])))
    return 0


def cmd_figure(args) -> int:
    """Print one figure's table, or with ``all`` every figure's, each
    under a ``== name ==`` line, from one sweep over their cells."""
    names = list(FIGURES) if args.name == "all" else [args.name]
    reports = []
    tables = figure_tables(
        names, _scale(args), args.gpus, args.pims, args.policies,
        store_dir=args.cache_dir, on_sweep=reports.append,
    )
    for name in names:
        _, rows, columns = tables[name]
        if args.name == "all":
            print(f"== {name} ==")
        print(format_table(rows, columns))
    return _missed(args, sum(report.misses for report in reports), sys.stderr)


def cmd_trace(args) -> int:
    """Run one competitive cell with telemetry and export its trace."""
    from pathlib import Path

    from repro.experiments.figures import latency_breakdown_rows
    from repro.obs.trace import write_stats, write_trace

    cell = Runner(_scale(args)).competitive_system(
        args.gpu, args.pim, PolicySpec(args.policy), num_vcs=args.vcs
    )
    system = cell.system
    telemetry = system.enable_telemetry(
        ring_capacity=args.ring_capacity, timeline_interval=args.interval
    )
    result = system.run(max_cycles=cell.budget if args.max_cycles is None else args.max_cycles)

    out = Path(args.out)
    doc = write_trace(system, out)
    stats_path = out.with_name(out.stem + "_stats.json")
    write_stats(result.telemetry, stats_path)

    identity = result.telemetry["hop_identity"]
    print(
        f"trace written to {out} "
        f"({len(doc['traceEvents'])} events, {result.cycles} cycles, "
        f"{len(telemetry.events)} ring events, {telemetry.events.evicted} evicted)"
    )
    print(f"stats written to {stats_path}")
    print(
        f"hop identity: {identity['requests']} requests, "
        f"mean total {identity['mean_total_latency']} vs hop sum "
        f"{identity['mean_hop_sum']} (gap {identity['mean_abs_gap']})"
    )
    rows = latency_breakdown_rows(result.telemetry)
    if rows:
        print(format_table(rows, list(rows[0])))
    return 0


def _parse_shard(text: Optional[str]):
    """Parse ``--shard i/n`` into a (index, count) pair."""
    if text is None:
        return None
    try:
        index_text, count_text = text.split("/", 1)
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise SystemExit(f"invalid --shard {text!r}; expected i/n, e.g. 0/3")
    if count < 1 or not 0 <= index < count:
        raise SystemExit(f"invalid --shard {text!r}; need 0 <= i < n")
    return index, count


def cmd_sweep(args) -> int:
    """Resumable, shardable benchmark-grid sweep through the result store."""
    from repro.experiments import collect_from_store, run_sweep, sweep_rows

    scale, tasks, retry = _grid(args)
    shard = _parse_shard(args.shard)
    faults = None
    if args.faults is not None:
        from repro.resilience import FaultPlan

        faults = FaultPlan.from_file(args.faults)

    server = None
    if args.serve_status is not None:
        if args.cache_dir is None:
            raise SystemExit("--serve-status requires --cache-dir")
        from repro.obs.metrics import get_registry
        from repro.obs.server import PortInUseError, StatusServer

        try:
            server = StatusServer(
                args.cache_dir, port=args.serve_status, registry=get_registry()
            )
        except PortInUseError as exc:
            raise SystemExit(str(exc))
        print(
            f"status endpoint: {server.url}/status "
            "(also /metrics and /journal)",
            file=sys.stderr,
        )
    try:
        failures = []
        if args.merge_only:
            if args.cache_dir is None:
                raise SystemExit("--merge-only requires --cache-dir")
            outcomes = collect_from_store(scale, tasks, args.cache_dir)
            hits, misses = len(outcomes), 0
        else:
            report = run_sweep(
                scale,
                tasks,
                store_dir=args.cache_dir,
                max_workers=args.workers,
                shard=shard,
                fresh=not args.resume,
                cell_timeout=args.cell_timeout,
                retry=retry,
                faults=faults,
            )
            hits, misses = report.hits, report.misses
            failures = report.failed_outcomes
            _print_quarantined(failure.to_dict() for failure in failures)
            if shard is not None:
                ran = report.completed
                tally = _tally(hits, misses, len(failures))
                print(f"shard {args.shard}: {ran}/{len(tasks)} cells {tally}")
                if args.cache_dir:
                    print(
                        "merge with: repro sweep --merge-only --cache-dir "
                        f"{args.cache_dir} (same grid/scale args)"
                    )
                if failures and args.strict:
                    return 2
                return 1 if (args.fail_on_miss and misses) else 0
            outcomes = report.completed_outcomes()

        rows = sweep_rows(outcomes)
        if rows:
            _write(format_table(rows, list(rows[0])), args.out, "table")
        else:
            print("no cells completed", file=sys.stderr)
        print(f"cells: {len(rows)} " + _tally(hits, misses, len(failures)))
        if failures and args.strict:
            print(f"FAIL: {len(failures)} cell(s) quarantined (--strict)", file=sys.stderr)
            return 2
        return _missed(args, misses)
    finally:
        if server is not None:
            server.close()


def _tally(hits: int, misses: int, failed: int) -> str:
    """``(H cache hits, M simulated[, F failed])`` for a summary line."""
    failures = f", {failed} failed" if failed else ""
    return f"({hits} cache hits, {misses} simulated{failures})"


def _print_quarantined(failures) -> None:
    """One ``FAILED`` line per quarantined cell (stderr), from
    ``CellFailure.to_dict()``-shaped dicts: a sweep's report, a
    heartbeat's roster or a fabric coordinator's."""
    for failure in failures:
        attempts = failure["attempts"]
        print(
            f"FAILED {failure['label']}: {failure['kind']} after {attempts} "
            f"attempt{'' if attempts == 1 else 's'} — {failure['message']}",
            file=sys.stderr,
        )


def _status_line(doc) -> str:
    """One human-readable summary line for a heartbeat document."""
    cells = doc["cells"]
    line = (
        f"[{doc['state']}] {cells['completed']}/{cells['total']} cells "
        + _tally(cells["hits"], cells["misses"], cells["failed"])
        + f" {doc['throughput_cells_per_sec']:.2f} cells/s"
    )
    eta = doc.get("eta_seconds")
    if doc["state"] == "running" and eta:
        line += f", ETA {eta:.0f}s"
    in_flight = doc.get("workers", {}).get("in_flight", [])
    if in_flight:
        labels = ", ".join(cell.get("label", "?") for cell in in_flight[:4])
        line += f" | in flight: {labels}"
        if len(in_flight) > 4:
            line += f" (+{len(in_flight) - 4} more)"
    return line


def cmd_status(args) -> int:
    """Show (or follow) the live heartbeat of a sweep against a store."""
    import json
    import time

    from repro.obs.status import read_status

    while True:
        doc = read_status(args.cache_dir)
        if doc is None:
            if not args.watch:
                print(
                    f"no status.json in {args.cache_dir} — no sweep has "
                    "heartbeat into this store yet",
                    file=sys.stderr,
                )
                return 1
        elif args.json:
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            print(_status_line(doc))
            _print_quarantined(doc.get("quarantined", []))
        if not args.watch:
            return 0
        if doc is not None and doc["state"] != "running":
            return 0
        time.sleep(args.interval)


def cmd_fabric_serve(args) -> int:
    """Coordinate a distributed sweep: lease cells to fabric workers."""
    from repro.fabric import FabricCoordinator, run_campaign
    from repro.obs.server import PortInUseError

    scale, tasks, retry = _grid(args)
    coordinator = FabricCoordinator(
        scale,
        tasks,
        args.cache_dir,
        host=args.host,
        port=args.port,
        ttl=args.ttl,
        retry=retry,
        token=args.token,
        resume_grace=args.resume_grace,
    )

    def announce(coord) -> None:
        recovered = (
            f"; recovered from {coord.recoveries} prior session(s), "
            f"epoch {coord.epoch}"
            if coord.recoveries
            else ""
        )
        print(
            f"fabric coordinator on http://{coord.address} — "
            f"{len(coord.cells)} cells ({coord.publisher.hits} already warm){recovered}; "
            f"join with: repro fabric work --connect {coord.address}",
            file=sys.stderr,
        )

    try:
        summary = run_campaign(coordinator, linger=args.linger, announce=announce)
    except PortInUseError as exc:
        raise SystemExit(str(exc))
    print(
        f"campaign {summary['state']}: {summary['completed']}/{summary['total']} cells "
        + _tally(summary["hits"], summary["misses"], summary["failed"])
        + f" via {len(summary['workers'])} worker(s)"
        + (" [drained]" if summary["drained"] else "")
    )
    _print_quarantined(coordinator.failures)
    if summary["state"] != "complete":
        # A graceful drain (SIGTERM / POST /drain) is a clean exit: the
        # ledger lets the next `fabric serve` resume the remainder.
        return 0 if summary["drained"] else 1
    if summary["failed"] and args.strict:
        print(f"FAIL: {summary['failed']} cell(s) quarantined (--strict)", file=sys.stderr)
        return 2
    return 0


def cmd_fabric_work(args) -> int:
    """Join a fabric campaign as a worker: lease, simulate, stream back."""
    import tempfile

    from repro.fabric import FabricError, FabricWorker

    scratch = args.scratch_dir or tempfile.mkdtemp(prefix="repro-fabric-")
    worker = FabricWorker(
        args.id or f"worker-{os.getpid()}",
        args.connect,
        scratch,
        token=args.token,
        crash_after_lease=args.crash_after_lease,
    )
    try:
        summary = worker.run()
    except FabricError as exc:
        raise SystemExit(f"cannot join fabric at {args.connect}: {exc}")
    print(
        f"worker {summary['worker']} done: {summary['completed']} completed, "
        f"{summary['leases']} leases"
        + (f", {summary['rejected']} rejected" if summary["rejected"] else "")
        + (f", {summary['failed']} failed" if summary["failed"] else "")
        + (f", {summary['reconnects']} reconnects" if summary["reconnects"] else "")
        + (f", {summary['readopted']} readopted" if summary["readopted"] else "")
    )
    return 0


def cmd_fabric_ledger(args) -> int:
    """Inspect a coordinator's write-ahead ledger (operator runbook aid)."""
    import json
    from pathlib import Path

    from repro.fabric import LEDGER_FILENAME, LedgerCorrupt, ledger_summary

    path = Path(args.cache_dir) / LEDGER_FILENAME
    try:
        summary = ledger_summary(path)
    except LedgerCorrupt as exc:
        print(
            f"CORRUPT: {exc}\n"
            f"  (a torn final line would have been repaired automatically; "
            f"damage before the tail means records were lost — do not resume "
            f"from this ledger)",
            file=sys.stderr,
        )
        return 1
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    if not summary["records"]:
        print(f"no ledger at {path}")
        return 0
    cells = ", ".join(f"{n} {s}" for s, n in sorted(summary["cells"].items()))
    print(
        f"ledger {path}: epoch {summary['epoch']}, "
        f"{summary['sessions']} session(s), {summary['records']} records"
        + (" [torn tail repaired on next open]" if summary["torn_tail"] else "")
    )
    print(
        f"  cells: {cells or 'none'};  rejects: {summary['rejects']};  "
        f"closed: {summary['closed'] or 'no (in flight or killed)'}"
        + (";  draining" if summary["draining"] else "")
    )
    for lease in summary["in_flight"]:
        print(
            f"  in-flight: {lease['label']} held by {lease['worker']} "
            f"({lease['lease_id']}, epoch {lease['epoch']}, "
            f"attempt {lease['attempt']})"
        )
    for failure in summary["quarantined"]:
        print(
            f"  quarantined: {failure['label']} ({failure['kind']} "
            f"after {failure['attempts']} attempt(s))"
        )
    return 0


def cmd_store(args) -> int:
    """Inspect and maintain a content-addressed result store."""
    from repro.store import ResultStore, code_version

    store = ResultStore(args.cache_dir)
    if args.action == "ls":
        count = 0
        for entry in store.entries():
            kind = entry.kind or "?"
            label = entry.label or "?"
            print(
                f"{entry.key[:16]}  {entry.status:8s}"
                f"{kind:12s}{label}  ({entry.size} B)"
            )
            count += 1
        print(f"{count} entries (code version {code_version()})")
        return 0
    if args.action == "verify":
        report = store.verify()
        ok, stale, corrupt = (len(report[s]) for s in ("ok", "stale", "corrupt"))
        print(f"ok: {ok}  stale: {stale}  corrupt: {corrupt}")
        for entry in report["corrupt"]:
            print(f"  corrupt: {entry.path}")
        return 1 if corrupt else 0
    if args.action == "gc":
        removed = store.gc()
        print(
            f"removed {removed['stale']} stale and {removed['corrupt']} "
            "corrupt entries"
        )
        return 0
    raise ValueError(args.action)  # pragma: no cover - argparse restricts


def cmd_report(args) -> int:
    from repro.experiments.report import generate_report

    reports = []
    text = generate_report(
        _scale(args),
        gpu_subset=args.gpus,
        pim_subset=args.pims,
        policies=args.policies,
        store_dir=args.cache_dir,
        on_sweep=reports.append,
    )
    _write(text, args.out, "report")
    return _missed(args, sum(report.misses for report in reports), sys.stderr)


def _write(text: str, out: str, what: str) -> None:
    """Print ``text`` (``out`` is ``-``), or write it to file ``out`` and say so."""
    if out == "-":
        print(text)
        return
    with open(out, "w") as fh:
        fh.write(text if text.endswith("\n") else text + "\n")
    print(f"{what} written to {out}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Concurrent PIM and load/store servicing simulator (ISPASS 2025 reproduction)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run the command under cProfile and print the top functions",
    )
    parser.add_argument(
        "--profile-out",
        metavar="FILE",
        default=None,
        help="with --profile, dump pstats data to FILE (for snakeviz/pstats) "
        "instead of printing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list kernels and policies").set_defaults(func=cmd_list)

    run = sub.add_parser("run", help="run one competitive co-execution")
    _add_cell_args(run)
    run.set_defaults(func=cmd_run)

    collab = sub.add_parser("collaborative", help="run the LLM collaborative scenario")
    _add_policy_args(collab)
    collab.set_defaults(func=cmd_collaborative)

    figure = sub.add_parser("figure", help="regenerate a paper figure's table")
    figure.add_argument("name", choices=[*FIGURES, "all"])
    _add_subset_args(figure)
    _add_store_args(figure)
    figure.set_defaults(func=cmd_figure)

    trace = sub.add_parser(
        "trace",
        help="run one competitive cell with telemetry and export a Perfetto-loadable trace",
    )
    _add_cell_args(trace)
    trace.add_argument("--out", default="trace.json", help="trace-event JSON output path")
    trace.add_argument(
        "--max-cycles", type=int, default=None, help="override the cell's cycle budget"
    )
    trace.add_argument(
        "--interval", type=int, default=100, help="queue-occupancy sampling interval"
    )
    trace.add_argument(
        "--ring-capacity", type=int, default=65536, help="event ring-buffer capacity"
    )
    trace.set_defaults(func=cmd_trace)

    sweep = sub.add_parser(
        "sweep",
        help="run the benchmark grid through the resumable result store",
    )
    _add_grid_args(sweep)
    sweep.add_argument("--workers", type=int, default=1, help="worker processes")
    _add_store_args(sweep)
    sweep.add_argument(
        "--shard",
        default=None,
        metavar="i/n",
        help="run only this round-robin shard of the grid (e.g. 0/3)",
    )
    resume = sweep.add_mutually_exclusive_group()
    resume.add_argument(
        "--resume",
        dest="resume",
        action="store_true",
        default=True,
        help="skip cells already in the store (default)",
    )
    resume.add_argument(
        "--fresh",
        dest="resume",
        action="store_false",
        help="recompute every cell (still writes results through the store)",
    )
    sweep.add_argument(
        "--merge-only",
        action="store_true",
        help="assemble the full table from the store without running anything",
    )
    sweep.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="kill and retry any cell exceeding this wall-clock budget",
    )
    sweep.add_argument(
        "--strict",
        action="store_true",
        help="exit 2 if any cell was quarantined (default: degrade gracefully)",
    )
    sweep.add_argument(
        "--faults",
        default=None,
        metavar="FILE",
        help="JSON fault-injection plan (testing; see docs/resilience.md)",
    )
    sweep.add_argument(
        "--serve-status",
        type=int,
        default=None,
        metavar="PORT",
        help="serve /status, /metrics, and /journal over HTTP while the "
        "sweep runs (0 = ephemeral port; requires --cache-dir)",
    )
    sweep.add_argument("--out", default="-", help="table output file ('-' = stdout)")
    sweep.set_defaults(func=cmd_sweep)

    status = sub.add_parser(
        "status",
        help="show the live heartbeat (status.json) of a sweep's store",
    )
    status.add_argument(
        "--cache-dir", required=True, help="result-store root directory"
    )
    status.add_argument(
        "--watch",
        action="store_true",
        help="keep printing until the campaign leaves the 'running' state",
    )
    status.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="polling interval with --watch (default: 1)",
    )
    status.add_argument(
        "--json",
        action="store_true",
        help="print the raw status.json document instead of a summary line",
    )
    status.set_defaults(func=cmd_status)

    fabric = sub.add_parser(
        "fabric",
        help="distributed sweep fabric: coordinator + workers over HTTP",
    )
    fabric_sub = fabric.add_subparsers(dest="fabric_command", required=True)

    serve = fabric_sub.add_parser(
        "serve",
        help="coordinate a campaign: lease grid cells to workers over HTTP",
    )
    _add_grid_args(serve)
    serve.add_argument(
        "--cache-dir", required=True, help="shared result-store root directory"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8347, help="bind port (0 = ephemeral)"
    )
    serve.add_argument(
        "--ttl",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="lease time-to-live; a worker silent this long forfeits its cell",
    )
    serve.add_argument(
        "--linger",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="keep serving this long after completion so workers see 'done'",
    )
    serve.add_argument(
        "--strict",
        action="store_true",
        help="exit 2 if any cell was quarantined",
    )
    serve.add_argument(
        "--token",
        default=os.environ.get("REPRO_FABRIC_TOKEN") or None,
        help="shared secret required on every fabric request "
        "(default: $REPRO_FABRIC_TOKEN)",
    )
    serve.add_argument(
        "--resume-grace",
        type=float,
        default=None,
        metavar="SECONDS",
        help="how long recovered in-flight leases wait to be re-presented "
        "via /resume before expiring (default: the lease TTL)",
    )
    serve.set_defaults(func=cmd_fabric_serve)

    work = fabric_sub.add_parser(
        "work",
        help="join a fabric campaign: lease cells, simulate, stream results",
    )
    work.add_argument(
        "--connect", required=True, metavar="HOST:PORT", help="coordinator address"
    )
    work.add_argument("--id", default=None, help="worker id (default: worker-<pid>)")
    work.add_argument(
        "--scratch-dir",
        default=None,
        help="local scratch store (default: a fresh temp directory)",
    )
    work.add_argument(
        "--crash-after-lease",
        type=int,
        default=None,
        metavar="N",
        help="testing: hard-exit while holding the (N+1)th lease "
        "(0 = die on the first cell; exercises lease expiry)",
    )
    work.add_argument(
        "--token",
        default=os.environ.get("REPRO_FABRIC_TOKEN") or None,
        help="shared secret presented on every fabric request "
        "(default: $REPRO_FABRIC_TOKEN)",
    )
    work.set_defaults(func=cmd_fabric_work)

    ledger = fabric_sub.add_parser(
        "ledger",
        help="inspect a coordinator's write-ahead lease ledger",
    )
    ledger.add_argument(
        "--cache-dir", required=True, help="result-store root directory"
    )
    ledger.add_argument(
        "--json",
        action="store_true",
        help="print the full ledger summary as JSON",
    )
    ledger.set_defaults(func=cmd_fabric_ledger)

    store = sub.add_parser("store", help="inspect the content-addressed result store")
    store.add_argument("action", choices=("ls", "gc", "verify"))
    store.add_argument(
        "--cache-dir", required=True, help="result-store root directory"
    )
    store.set_defaults(func=cmd_store)

    report = sub.add_parser("report", help="generate a markdown reproduction report")
    report.add_argument("--out", default="-", help="output file ('-' = stdout)")
    _add_subset_args(report)
    _add_store_args(report)
    report.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_settings(args)
    try:
        if not args.profile:
            try:
                return args.func(args)
            except BrokenPipeError:
                # Downstream pipe closed early (e.g. `repro store ls | head`):
                # stop quietly instead of tracebacking.  Detach stdout so the
                # interpreter's exit-time flush doesn't raise again.
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                return 0

        import cProfile
        import pstats

        profiler = cProfile.Profile()
        status = profiler.runcall(args.func, args)
        profiler.create_stats()
        if args.profile_out is None:
            pstats.Stats(profiler).sort_stats("cumulative").print_stats(25)
        else:
            profiler.dump_stats(args.profile_out)
            print(f"profile written to {args.profile_out}", file=sys.stderr)
        return status
    except SimulationStalled as exc:
        # A single-cell command (run, trace, collaborative) that livelocks;
        # sweeps and figures quarantine or name a stalled cell themselves.
        print(f"stalled: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # Completed cells are already persisted (atomic store puts, whole
        # journal lines), so Ctrl-C loses at most in-flight work; re-run
        # with --resume to pick up where this invocation stopped.
        print("interrupted — completed cells are persisted; re-run to resume", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
