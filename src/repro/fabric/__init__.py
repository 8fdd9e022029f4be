"""Distributed sweep fabric: campaign coordination over HTTP.

``repro.fabric`` turns a sweep grid into a horizontally scalable
service: one :class:`FabricCoordinator` owns the campaign (cell leases
with TTL + heartbeat renewal, fingerprint dedupe, checksum-verified
streaming into the shared :class:`~repro.store.ResultStore`, the PR 8
status/metrics surface aggregated across workers) and any number of
:class:`FabricWorker` processes lease cells and stream results home.
A fabric sweep and a single-process ``run_sweep`` over
the same grid leave byte-identical stores behind.

The coordinator is durable: every lease-state decision is written ahead
to a checksummed ledger (:class:`FabricLedger`), so a killed coordinator
restarts with exact in-flight state under a bumped fencing epoch, and
surviving workers reconnect and re-present their leases rather than
dying on disconnect.

CLI: ``repro fabric serve`` / ``repro fabric work --connect HOST:PORT``
/ ``repro fabric ledger``.  Protocol, state machine, and recovery
semantics: ``docs/fabric.md``.
"""

from repro.fabric.coordinator import FabricCoordinator, run_campaign
from repro.fabric.ledger import (
    LEDGER_FILENAME,
    FabricLedger,
    LedgerCorrupt,
    LedgerState,
    ledger_summary,
)
from repro.fabric.protocol import (
    DEFAULT_TTL,
    FABRIC_SCHEMA,
    TOKEN_ENV,
    TOKEN_HEADER,
    FabricConnectionError,
    FabricError,
    FabricProtocolError,
    lease_task_fields,
    task_from_fields,
    validate_documents,
)
from repro.fabric.worker import (
    FabricClient,
    FabricWorker,
    WorkerAbandoned,
)

__all__ = [
    "DEFAULT_TTL",
    "FABRIC_SCHEMA",
    "LEDGER_FILENAME",
    "TOKEN_ENV",
    "TOKEN_HEADER",
    "FabricClient",
    "FabricConnectionError",
    "FabricCoordinator",
    "FabricError",
    "FabricLedger",
    "FabricProtocolError",
    "FabricWorker",
    "LedgerCorrupt",
    "LedgerState",
    "WorkerAbandoned",
    "lease_task_fields",
    "ledger_summary",
    "run_campaign",
    "task_from_fields",
    "validate_documents",
]
