"""Chrome trace-event export (Perfetto / ``chrome://tracing`` loadable).

Builds a `trace-event JSON object
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
from a telemetry-enabled system:

* **pid 0 — memory channels.**  One thread per channel carrying "X"
  (complete) slices for the servicing mode — ``MEM``, ``PIM``, and
  ``switch->X`` drain windows reconstructed from the mode-switch events —
  "i" (instant) markers for CAP bypasses, refreshes, BLISS and Dyn-F3FS
  actions and NoC rejects, and "C" (counter) tracks with the MEM/PIM/NoC
  queue occupancies from the attached
  :class:`~repro.metrics.timeline.TimelineSampler`.
* **pid 1 — SMs.**  One thread per SM with a slice per kernel launch
  (re-launches of looping kernels become back-to-back slices).

Timestamps are simulated **cycles**, not microseconds; Perfetto renders
them on its usual time axis, just read "us" as "cycles".

:func:`validate_trace` is the schema check used by tests and the CI smoke
step: it verifies the structural invariants the Perfetto trace-event
loader relies on (known phases, required fields per phase, numeric
non-negative timestamps) and returns a list of human-readable errors.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.obs import events as ev

PathLike = Union[str, Path]

PID_CHANNELS = 0
PID_SMS = 1

#: Event kinds rendered as channel-track instants (everything that marks a
#: point action on one channel's request stream).
_INSTANT_KINDS = {
    ev.CAP_BYPASS,
    ev.REFRESH,
    ev.BLISS_BLACKLIST,
    ev.BLISS_CLEAR,
    ev.DYN_CAP_ADAPT,
    ev.NOC_REJECT,
}

_MODE_NAMES = {"mem": "MEM", "pim": "PIM"}


def _metadata(pid: int, tid: int, name: str, field: str) -> Dict:
    return {"name": field, "ph": "M", "pid": pid, "tid": tid, "args": {"name": name}}


def _mode_slices(telemetry, num_channels: int, end_cycle: int) -> List[Dict]:
    """Reconstruct per-channel mode slices from the switch events.

    Controllers start in MEM mode at cycle 0.  If the ring evicted early
    events the reconstruction starts at the first surviving event with an
    unknown prior state, labelled ``(pre-ring)``.
    """
    slices: List[Dict] = []
    start = [0] * num_channels
    state = ["MEM" if telemetry.events.evicted == 0 else "(pre-ring)" for _ in range(num_channels)]

    def close(channel: int, cycle: int, next_state: str) -> None:
        duration = cycle - start[channel]
        if duration > 0:
            slices.append(
                {
                    "name": state[channel],
                    "cat": "mode",
                    "ph": "X",
                    "ts": start[channel],
                    "dur": duration,
                    "pid": PID_CHANNELS,
                    "tid": channel,
                }
            )
        start[channel] = cycle
        state[channel] = next_state

    for event in telemetry.events:
        if event.channel < 0 or event.channel >= num_channels:
            continue
        if event.kind == ev.MODE_SWITCH_BEGIN:
            target = _MODE_NAMES.get((event.data or {}).get("to", "?"), "?")
            close(event.channel, event.cycle, f"switch->{target}")
        elif event.kind == ev.MODE_SWITCH_END:
            mode = _MODE_NAMES.get((event.data or {}).get("mode", "?"), "?")
            close(event.channel, event.cycle, mode)
    for channel in range(num_channels):
        close(channel, end_cycle, state[channel])
    return slices


def _instants(telemetry, num_channels: int) -> List[Dict]:
    out: List[Dict] = []
    for event in telemetry.events:
        if event.kind not in _INSTANT_KINDS:
            continue
        record = {
            "name": event.kind,
            "cat": "events",
            "ph": "i",
            "ts": event.cycle,
            "pid": PID_CHANNELS,
            "tid": event.channel if 0 <= event.channel < num_channels else 0,
            "s": "t" if 0 <= event.channel < num_channels else "g",
        }
        if event.data:
            record["args"] = dict(event.data)
        out.append(record)
    return out


def _kernel_slices(telemetry, num_sms: int, end_cycle: int) -> List[Dict]:
    slices: List[Dict] = []
    open_runs: Dict[int, Dict] = {}  # kernel_id -> {"cycle", "name", "sms"}

    def close(kernel_id: int, cycle: int) -> None:
        launch = open_runs.pop(kernel_id, None)
        if launch is None:
            return
        duration = cycle - launch["cycle"]
        if duration <= 0:
            return
        for sm in launch["sms"]:
            if 0 <= sm < num_sms:
                slices.append(
                    {
                        "name": f"{launch['name']} (k{kernel_id})",
                        "cat": "kernel",
                        "ph": "X",
                        "ts": launch["cycle"],
                        "dur": duration,
                        "pid": PID_SMS,
                        "tid": sm,
                        "args": {"kernel_id": kernel_id},
                    }
                )

    for event in telemetry.events:
        data = event.data or {}
        if event.kind == ev.KERNEL_LAUNCH:
            kernel_id = data.get("kernel", -1)
            close(kernel_id, event.cycle)  # looping relaunch: close previous
            open_runs[kernel_id] = {
                "cycle": event.cycle,
                "name": data.get("name", f"kernel{kernel_id}"),
                "sms": data.get("sms", []),
            }
        elif event.kind == ev.KERNEL_DRAIN:
            close(data.get("kernel", -1), event.cycle)
    for kernel_id in list(open_runs):
        close(kernel_id, end_cycle)
    return slices


def _counter_tracks(telemetry, num_channels: int) -> List[Dict]:
    timeline = telemetry.timeline
    if timeline is None:
        return []
    out: List[Dict] = []
    for row in timeline.to_rows():
        cycle = row["cycle"]
        for channel in range(min(num_channels, len(row["modes"]))):
            out.append(
                {
                    "name": f"ch{channel} queues",
                    "cat": "occupancy",
                    "ph": "C",
                    "ts": cycle,
                    "pid": PID_CHANNELS,
                    "tid": channel,
                    "args": {
                        "mem_q": row["mem_queue"][channel],
                        "pim_q": row["pim_queue"][channel],
                        "noc": row["noc"][channel],
                    },
                }
            )
    return out


def build_trace(system) -> Dict:
    """Build the trace-event JSON object for a telemetry-enabled system."""
    telemetry = getattr(system, "telemetry", None)
    if telemetry is None:
        raise ValueError("system has no telemetry; call enable_telemetry() before run()")
    num_channels = system.config.num_channels
    num_sms = system.config.num_sms
    end_cycle = system.cycle

    trace_events: List[Dict] = [
        _metadata(PID_CHANNELS, 0, "memory channels", "process_name"),
        _metadata(PID_SMS, 0, "SMs", "process_name"),
    ]
    for channel in range(num_channels):
        trace_events.append(_metadata(PID_CHANNELS, channel, f"channel {channel}", "thread_name"))
    for sm in range(num_sms):
        trace_events.append(_metadata(PID_SMS, sm, f"SM {sm}", "thread_name"))

    trace_events.extend(_mode_slices(telemetry, num_channels, end_cycle))
    trace_events.extend(_kernel_slices(telemetry, num_sms, end_cycle))
    trace_events.extend(_instants(telemetry, num_channels))
    trace_events.extend(_counter_tracks(telemetry, num_channels))

    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "tool": "repro trace",
            "time_unit": "cycles",
            "cycles": end_cycle,
            "policy": system.policy_spec.name,
            "channels": num_channels,
            "sms": num_sms,
            "events_evicted": telemetry.events.evicted,
        },
    }


_KNOWN_PHASES = {"X", "B", "E", "i", "I", "C", "M"}
_METADATA_NAMES = {
    "process_name",
    "process_labels",
    "process_sort_index",
    "thread_name",
    "thread_sort_index",
}


def validate_trace(doc: Dict, max_errors: int = 20) -> List[str]:
    """Check trace-event structural invariants; returns a list of errors."""
    errors: List[str] = []

    def fail(index: int, message: str) -> bool:
        errors.append(f"traceEvents[{index}]: {message}")
        return len(errors) >= max_errors

    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        return ["document must be an object with a 'traceEvents' array"]
    for index, event in enumerate(doc["traceEvents"]):
        if not isinstance(event, dict):
            if fail(index, "event is not an object"):
                break
            continue
        phase = event.get("ph")
        if phase not in _KNOWN_PHASES:
            if fail(index, f"unknown phase {phase!r}"):
                break
            continue
        if not isinstance(event.get("name"), str) or not event["name"]:
            if fail(index, "missing/empty 'name'"):
                break
            continue
        if not isinstance(event.get("pid"), int) or not isinstance(event.get("tid"), int):
            if fail(index, "'pid'/'tid' must be integers"):
                break
            continue
        if phase == "M":
            if event["name"] not in _METADATA_NAMES:
                if fail(index, f"unknown metadata record {event['name']!r}"):
                    break
            elif not isinstance(event.get("args"), dict):
                if fail(index, "metadata record without 'args'"):
                    break
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            if fail(index, f"bad 'ts' {ts!r}"):
                break
            continue
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                if fail(index, f"'X' slice with bad 'dur' {dur!r}"):
                    break
        elif phase == "C":
            args = event.get("args")
            if not isinstance(args, dict) or not args:
                if fail(index, "'C' counter without 'args'"):
                    break
            elif not all(isinstance(v, (int, float)) for v in args.values()):
                if fail(index, "'C' counter with non-numeric series"):
                    break
        elif phase in ("i", "I"):
            if event.get("s", "t") not in ("g", "p", "t"):
                if fail(index, f"instant with bad scope {event.get('s')!r}"):
                    break
    return errors


def write_trace(system, path: PathLike) -> Dict:
    """Build, validate, and write the trace; returns the document."""
    doc = build_trace(system)
    errors = validate_trace(doc)
    if errors:  # pragma: no cover - build_trace emits schema-valid events
        raise ValueError("invalid trace: " + "; ".join(errors))
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return doc


def write_stats(summary: Dict, path: PathLike) -> None:
    """Write the telemetry stats summary (``Telemetry.summary()``) as JSON."""
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2)
