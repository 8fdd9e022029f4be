"""Content-addressed simulation result store (see docs/store.md).

``fingerprint`` turns simulation inputs into stable content addresses;
``ResultStore`` persists each completed result under its address with
atomic writes and checksummed reads.  Together they make grid sweeps
incremental: any cell already simulated — by this process, an earlier
interrupted run, or another shard — is a cache hit.
"""

from repro.store.disk import ResultStore, StoreEntry, StoreStats
from repro.store.fingerprint import (
    CODE_VERSION_ENV,
    STORE_SCHEMA,
    canonical_json,
    canonical_policy,
    canonicalize,
    code_version,
    competitive_payload,
    fingerprint,
    source_digest,
    standalone_payload,
    store_key,
    workload_descriptor,
)

__all__ = [
    "CODE_VERSION_ENV",
    "ResultStore",
    "STORE_SCHEMA",
    "StoreEntry",
    "StoreStats",
    "canonical_json",
    "canonical_policy",
    "canonicalize",
    "code_version",
    "competitive_payload",
    "fingerprint",
    "source_digest",
    "standalone_payload",
    "store_key",
    "workload_descriptor",
]
