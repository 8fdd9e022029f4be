"""Wire protocol shared by the fabric coordinator and its workers.

The fabric speaks plain HTTP/1.1 with JSON bodies — no third-party
dependencies on either side.  The coordinator owns all campaign state;
workers are stateless loops that lease cells, execute them, and stream
the resulting store documents back.  Endpoints (see ``docs/fabric.md``
for the full state machine):

* ``GET /grid`` — handshake: protocol schema, coordinator code version,
  the current **fencing epoch**, the
  :class:`~repro.experiments.runner.ExperimentScale` fields, the
  lease TTL, and the cell totals.  Workers refuse to join a coordinator
  whose ``code`` differs from their own — a mixed-code fleet would
  compute fingerprints that never match the shared store.
* ``POST /lease`` — ``{"worker": id}`` → one leased cell (task fields,
  its kind among them, + ``lease_id`` + TTL + the grant's fencing
  ``epoch``), ``{"empty": true}`` when everything runnable is leased
  or backing off, ``{"draining": true}`` once the coordinator stops
  granting, or ``{"done": true}`` once the campaign ends.
* ``POST /heartbeat`` — ``{"worker", "epoch", "lease_ids"}`` renews
  lease deadlines; the reply lists leases still ``renewed`` and those
  ``lost`` (expired, re-leased elsewhere, or fenced behind a coordinator
  restart) plus the coordinator's current ``epoch``.
* ``POST /complete`` — ``{"worker", "lease_id", "key", "epoch",
  "documents"}``: the cell's store documents (each checksum-carrying,
  see :func:`validate_documents`).  Accepted exactly once per live
  lease *at the current epoch*; stale, pre-restart-epoch, duplicate, or
  corrupt completions are rejected with a reason and journaled.
* ``POST /fail`` — ``{"worker", "lease_id", "key", "epoch", "kind",
  "message"}``: the leased cell raised.  Workers run each lease once
  and never retry; the coordinator blames the lease, then re-leases the
  cell after backoff or quarantines it (``docs/resilience.md``).
* ``POST /resume`` — ``{"worker", "held": [{"lease_id", "key"}]}``:
  session resume after a reconnect.  The worker re-presents the leases
  it still holds; the coordinator re-adopts each live, matching lease
  at the *current* epoch (fresh TTL) and instructs abandonment of the
  rest.  This is the only way a pre-restart lease becomes completable
  again — without it, its replies stay fenced as ``stale-epoch``.
* ``POST /drain`` — begin graceful shutdown: stop granting leases,
  keep accepting heartbeats/completions for in-flight work, finalize
  and flush the ledger once nothing is leased (``SIGTERM`` does the
  same server-side).
* ``GET /status`` / ``GET /metrics`` / ``GET /journal?n=N`` — the PR 8
  observability surface, aggregated across every worker (same schema as
  a single-process sweep's ``status.json`` / Prometheus exposition).

Every state-changing decision is additionally written ahead to the
coordinator's write-ahead ledger (:mod:`repro.fabric.ledger`) before it
takes effect, which is what lets a restarted coordinator resume the
campaign with exact in-flight state.  When a shared secret is configured
(``REPRO_FABRIC_TOKEN`` / ``--token``), every endpoint requires the
:data:`TOKEN_HEADER` header and replies ``401`` with reason
``unauthorized`` on a mismatch.

Journal event names below are what the exactly-once accounting in
``tests/test_fabric.py`` (and operators grepping ``journal.jsonl``) key
on: every execution is bracketed by one ``fabric_lease`` and at most one
``fabric_complete`` for that ``lease_id``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

from repro.store.fingerprint import checksum

#: Protocol schema version; bumped on any wire-incompatible change.
#: 2: fencing epochs on grants/completions, /resume, /drain, token auth.
#: 3: lease tasks carry the cell ``kind`` and ``sms`` (any cell kind).
#: 4: lease tasks carry ``scale_params`` (scale-variant cells).
FABRIC_SCHEMA = 4

#: Default lease time-to-live (seconds).  A worker heartbeats at TTL/3,
#: so one missed heartbeat never kills a healthy lease.
DEFAULT_TTL = 30.0

#: Shared-secret header checked on every endpoint when the coordinator
#: was started with a token (``REPRO_FABRIC_TOKEN`` / ``--token``).
TOKEN_HEADER = "X-Fabric-Token"

#: Environment variable both sides read their shared secret from.
TOKEN_ENV = "REPRO_FABRIC_TOKEN"

# -- journal event names (store journal.jsonl) ---------------------------
#
# The first five are written with their ledger record and carry its
# fields (all but ``seq``/``op``/``check``); the last three are
# journal-only.

EV_LEASE = "fabric_lease"  # {key, label, worker, lease_id, attempt, epoch, lease_seq}
EV_COMPLETE = "fabric_complete"  # accepted: {key, label, worker, lease_id, epoch}
EV_READOPT = "fabric_readopt"  # re-adopted: {key, label, worker, lease_id, epoch}
EV_REJECT = "fabric_reject"  # refused: {key, lease_id, worker, reason, epoch[, errors]}
EV_DRAIN = "fabric_drain"  # graceful shutdown began: {epoch, source, leased}
EV_EXPIRE = "fabric_expire"  # lease deadline passed: {key, label, worker, lease_id}
EV_FAIL = "fabric_fail"  # /fail accepted: {key, label, worker, lease_id, kind, message}
EV_RECOVER = "fabric_recover"  # ledger replayed: {epoch, torn_tail, ...counts}

#: Reasons a /complete or /fail can be refused.  ``stale-lease``,
#: ``stale-epoch``, and ``already-complete`` are benign races (the work
#: is simply discarded — cells are idempotent); ``corrupt-payload`` and
#: ``missing-cell-document`` blame the lease like a failure attempt;
#: ``unauthorized`` is a shared-secret mismatch (HTTP 401).
REJECT_STALE = "stale-lease"
REJECT_DONE = "already-complete"
REJECT_CORRUPT = "corrupt-payload"
REJECT_MISSING = "missing-cell-document"
REJECT_UNKNOWN_CELL = "unknown-cell"
REJECT_STALE_EPOCH = "stale-epoch"
REJECT_UNAUTHORIZED = "unauthorized"


class FabricError(RuntimeError):
    """Base class for fabric client/worker errors."""


class FabricConnectionError(FabricError):
    """The coordinator could not be reached (socket-level failure)."""


class FabricProtocolError(FabricError):
    """The coordinator replied with something the client cannot accept
    (schema/code mismatch, malformed document, HTTP error status)."""


def validate_documents(documents) -> List[str]:
    """Structural + checksum validation of a /complete document list.

    Each document is the exact on-disk shape of one
    :class:`~repro.store.ResultStore` object — ``{"key", "value",
    "meta", "checksum"}`` — and the checksum must re-derive from the
    value, so a payload corrupted in flight (or fabricated by a buggy
    worker) is rejected before it can poison the shared store.
    """
    errors: List[str] = []
    if not isinstance(documents, list) or not documents:
        return ["documents must be a non-empty list"]
    for i, doc in enumerate(documents):
        if not isinstance(doc, dict):
            errors.append(f"documents[{i}] must be an object")
            continue
        key = doc.get("key")
        if not isinstance(key, str) or not key:
            errors.append(f"documents[{i}].key must be a non-empty string")
            continue
        meta = doc.get("meta")
        if not isinstance(meta, dict):
            errors.append(f"documents[{i}].meta must be an object")
        if "value" not in doc:
            errors.append(f"documents[{i}] has no value")
            continue
        try:
            derived = checksum(doc["value"])
        except TypeError as exc:
            errors.append(f"documents[{i}].value is not fingerprintable: {exc}")
            continue
        if doc.get("checksum") != derived:
            errors.append(f"documents[{i}] checksum mismatch for key {key[:16]}")
    return errors


def lease_task_fields(task) -> Dict:
    """The GridTask fields a lease carries over the wire (JSON encodes the
    parameter pairs as lists), the cell's ``kind``, ``sms`` and
    ``scale_params`` among them."""
    return dataclasses.asdict(task)


def task_from_fields(fields: Dict):
    """Rebuild a GridTask from :func:`lease_task_fields` output."""
    from repro.experiments.runner import GridTask

    pairs = {
        name: tuple((str(k), v) for k, v in fields[name])
        for name in ("policy_params", "scale_params")
    }
    return GridTask(**{**fields, **pairs, "num_vcs": int(fields["num_vcs"])})
