"""Canonical fingerprints for simulation inputs.

A grid cell is identified by *what* was simulated, never by *when* or
*where*: the fingerprint of (system configuration, workload descriptor,
seed, policy + parameters, code version) is the content address under
which its result is stored (see :mod:`repro.store.disk`).  Two processes
that would run the same simulation must therefore derive the same key,
which drives every rule here:

* **Canonical form first.**  Inputs are reduced to a tree of JSON
  scalars, lists, and string-keyed dicts by :func:`canonicalize`; the
  fingerprint is the SHA-256 of its compact JSON with sorted keys.  Dict
  insertion order, set iteration order, and ``PYTHONHASHSEED`` cannot
  leak into the key.
* **Defaults are resolved.**  ``PolicySpec("F3FS")`` and
  ``PolicySpec("F3FS", mem_cap=4)`` (4 being the default) describe the
  same simulation; :func:`canonical_policy` fills every constructor
  default so they hash equal.  Dataclasses (``SystemConfig``,
  ``ExperimentScale``, kernel specs) carry their defaults in their
  fields, so plain field extraction already canonicalizes them.
* **Code is part of the key.**  Simulator changes change results, so
  :func:`code_version` — a digest of every ``repro`` source file (Python
  and C), or the ``REPRO_CODE_VERSION`` override — is folded into every
  key.  Entries written by older code become unreachable (and are reaped
  by ``repro store gc``) instead of serving stale results.

Every store key in the code base comes from :func:`store_key`.  It
builds the same bytes :func:`fingerprint` would hash for
:func:`competitive_payload` / :func:`standalone_payload`, but from the
canonical JSON of each part (scale, configuration, policy, kernel
specs), memoized by value: a grid of hundreds of cells canonicalizes
each distinct part once.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import inspect
import json
import math
import os
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from typing import Callable, Dict, Mapping, Optional

#: Environment override for the code-version key component (tests, or
#: deployments that pin a release id instead of hashing sources).
CODE_VERSION_ENV = "REPRO_CODE_VERSION"

#: Bump when the store's on-disk document layout changes; old documents
#: are then treated as stale rather than misread.
STORE_SCHEMA = 1


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------


def canonicalize(obj):
    """Reduce ``obj`` to a deterministic JSON-serializable tree.

    Handles scalars, enums, numpy scalars, lists/tuples, sets (sorted by
    their canonical encoding), dicts (string-coerced sorted keys), and
    dataclass instances (class name + every field, so defaults are always
    explicit).  Objects may instead supply a ``fingerprint_payload()``
    method returning their canonical description.  Anything else raises
    ``TypeError`` — an unknown type silently hashed by ``repr`` could
    smuggle memory addresses into the key.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return {"__float__": repr(obj)}
        return obj
    if hasattr(obj, "fingerprint_payload"):
        return canonicalize(obj.fingerprint_payload())
    if isinstance(obj, enum.Enum):
        return canonicalize(obj.value)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            f.name: canonicalize(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        return {"__dataclass__": type(obj).__name__, "fields": fields}
    if isinstance(obj, dict):
        out: Dict[str, object] = {}
        for key, value in obj.items():
            if isinstance(key, str):
                skey = key
            else:
                skey = canonical_json(key)
            if skey in out:
                raise ValueError(f"canonical key collision for {key!r}")
            out[skey] = canonicalize(value)
        return out
    if isinstance(obj, (list, tuple)):
        return [canonicalize(item) for item in obj]
    if isinstance(obj, (set, frozenset)):
        encoded = sorted(canonical_json(item) for item in obj)
        return {"__set__": encoded}
    if isinstance(obj, bytes):
        return {"__bytes__": obj.hex()}
    item = getattr(obj, "item", None)  # numpy scalar
    if callable(item) and getattr(obj, "shape", None) == ():
        return canonicalize(obj.item())
    raise TypeError(f"cannot canonicalize {type(obj).__name__}: {obj!r}")


def canonical_json(obj) -> str:
    """Compact, key-sorted JSON of the canonical form of ``obj``."""
    return json.dumps(
        canonicalize(obj), sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def fingerprint(obj) -> str:
    """SHA-256 hex digest of the canonical encoding of ``obj``."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def checksum(obj) -> str:
    """Content checksum used to detect corrupted/truncated store files."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# code version
# ---------------------------------------------------------------------------


#: Files under the package root whose content feeds the simulation: the
#: Python modules and the C source the SoA backend compiles at run time.
SOURCE_PATTERNS = ("*.py", "*.c")

#: Root of the ``repro`` package (the directory hashed by :func:`code_version`).
PACKAGE_ROOT = Path(__file__).resolve().parents[1]


def source_digest(root: Path) -> str:
    """Digest of every source file under ``root`` (name + content)."""
    paths = sorted({path for pattern in SOURCE_PATTERNS for path in root.rglob(pattern)})
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


@lru_cache(maxsize=1)
def _source_version() -> str:
    """Digest of the installed ``repro`` sources, computed once per process."""
    return source_digest(PACKAGE_ROOT)


def code_version() -> str:
    """The code-version key component (env override, else source digest)."""
    override = os.environ.get(CODE_VERSION_ENV)
    if override:
        return override
    return _source_version()


# ---------------------------------------------------------------------------
# simulation-input payloads
# ---------------------------------------------------------------------------


def canonical_policy(name: str, params: Optional[Dict] = None) -> Dict:
    """Policy name + parameters with every constructor default resolved.

    ``PolicySpec("BLISS")`` and ``PolicySpec("BLISS", threshold=4)`` (the
    default) canonicalize identically; any non-default value shows up as
    a differing field.  Unknown policies (not in the registry) keep their
    given params verbatim rather than failing — custom registered
    factories may be ``**kwargs``-style.
    """
    from repro.core.policies import _REGISTRY

    resolved = dict(params or {})
    try:
        factory = _REGISTRY[name]
        signature = inspect.signature(factory.__init__ if inspect.isclass(factory) else factory)
        for pname, parameter in signature.parameters.items():
            if pname == "self" or parameter.default is inspect.Parameter.empty:
                continue
            resolved.setdefault(pname, parameter.default)
    except (KeyError, ValueError, TypeError):
        pass
    return {"name": name, "params": resolved}


def workload_descriptor(spec) -> Dict:
    """Canonical description of a kernel spec (the workload's identity).

    Kernel specs are dataclasses whose fields are the workload model's
    parameters; non-dataclass specs fall back to (class, name, kind) and
    rely on the code-version component for their behaviour.
    """
    if dataclasses.is_dataclass(spec) and not isinstance(spec, type):
        return {"spec": canonicalize(spec)}
    return {
        "spec": {
            "__class__": type(spec).__name__,
            "name": spec.name,
            "kind": spec.kind,
        }
    }


def standalone_payload(scale, config, label: str, spec, sms: int, num_vcs: int) -> Dict:
    """Key payload for one standalone (baseline) simulation."""
    return {
        "kind": "standalone",
        "schema": STORE_SCHEMA,
        "code": code_version(),
        "scale": canonicalize(scale),
        "config": canonicalize(config),
        "label": label,
        "workload": workload_descriptor(spec),
        "sms": sms,
        "num_vcs": num_vcs,
    }


def competitive_payload(
    scale,
    config,
    gpu_id: str,
    pim_id: str,
    policy_name: str,
    policy_params: Optional[Dict],
    num_vcs: int,
    gpu_spec=None,
    pim_spec=None,
) -> Dict:
    """Key payload for one competitive grid cell."""
    payload = {
        "kind": "competitive",
        "schema": STORE_SCHEMA,
        "code": code_version(),
        "scale": canonicalize(scale),
        "config": canonicalize(config),
        "gpu": gpu_id,
        "pim": pim_id,
        "policy": canonical_policy(policy_name, policy_params),
        "num_vcs": num_vcs,
    }
    if gpu_spec is not None:
        payload["gpu_workload"] = workload_descriptor(gpu_spec)
    if pim_spec is not None:
        payload["pim_workload"] = workload_descriptor(pim_spec)
    return payload


# ---------------------------------------------------------------------------
# store keys
# ---------------------------------------------------------------------------


def value_key(value):
    """A hashable stand-in for ``value``, equal only for values whose
    canonical forms are equal.

    Types are part of the key: ``1``, ``1.0`` and ``True`` compare (and
    hash) equal in Python but canonicalize differently, as do ``0.0`` and
    ``-0.0``.  Dataclasses (frozen configurations and mutable kernel
    specs alike) key by exact type plus field values, never by identity,
    so a mutated spec gets a new key and an equal copy the same one.
    Raises ``TypeError`` for anything else, which :func:`store_key` then
    canonicalizes unmemoized.
    """
    cls = type(value)
    if cls is float:  # repr tells -0.0 from 0.0, as the JSON does
        return (cls, repr(value))
    if value is None or cls in (bool, int, str) or isinstance(value, enum.Enum):
        return (cls, value)
    if cls in (tuple, list):
        return (cls, tuple(value_key(item) for item in value))
    if cls is dict:
        return (cls, frozenset((value_key(k), value_key(v)) for k, v in value.items()))
    names = _FIELD_NAMES.get(cls)
    if names is None:
        if not dataclasses.is_dataclass(cls):
            raise TypeError(f"no value key for {cls.__name__}")
        names = _FIELD_NAMES[cls] = tuple(f.name for f in dataclasses.fields(cls))
    return (cls, tuple(value_key(getattr(value, name)) for name in names))


#: Field names per dataclass type, for :func:`value_key`.
_FIELD_NAMES: Dict[type, tuple] = {}


#: Canonical JSON of key parts, by (part, value key).  Bounded: cleared
#: whole when full, which costs a process only re-canonicalization.
_PART_MEMO: Dict[tuple, str] = {}
_PART_MEMO_LIMIT = 4096


def _part_json(memo_key: Optional[tuple], build: Callable[[], object]) -> str:
    """Canonical JSON of ``build()``, memoized under ``memo_key`` (None: not memoizable)."""
    if memo_key is None:
        return canonical_json(build())
    text = _PART_MEMO.get(memo_key)
    if text is None:
        if len(_PART_MEMO) >= _PART_MEMO_LIMIT:
            _PART_MEMO.clear()
        text = _PART_MEMO[memo_key] = canonical_json(build())
    return text


def _scalar_json(value) -> str:
    """:func:`canonical_json` of ``value``, without the tree walk for a
    plain ``str`` or ``int`` (the JSON encoder's own spelling of both)."""
    cls = type(value)
    if cls is str:
        return _json_str(value)
    if cls is int:
        return int.__repr__(value)
    return canonical_json(value)


def _memo_key(part: str, *values) -> Optional[tuple]:
    try:
        return (part, *(value_key(value) for value in values))
    except TypeError:
        return None


def store_key(
    kind: str,
    scale,
    num_vcs: int,
    policy=None,
    workloads: Optional[Mapping[str, object]] = None,
    **fields,
) -> str:
    """The store key of one simulation, from memoized canonical parts.

    ``scale`` is an ``ExperimentScale`` (its ``config(num_vcs)`` is the
    system configuration), ``policy`` a ``PolicySpec``-like object with
    ``name`` and ``params``, ``workloads`` maps payload names to kernel
    specs, and ``fields`` are the remaining scalar payload entries.  The
    result is byte-identical to ``fingerprint(payload)`` of the payload
    :func:`competitive_payload` or :func:`standalone_payload` builds for
    the same inputs::

        store_key("competitive", scale, vcs, policy=spec, gpu=gid, pim=pid,
                  workloads={"gpu_workload": gpu_spec, "pim_workload": pim_spec})
        store_key("standalone", scale, vcs, label=label, sms=sms,
                  workloads={"workload": spec})
    """
    scale_key = _memo_key("scale", scale)
    config_key = scale_key and ("config", scale_key[1], type(num_vcs), num_vcs)
    parts = {
        "kind": _scalar_json(kind),
        "schema": _scalar_json(STORE_SCHEMA),
        "code": _scalar_json(code_version()),
        "scale": _part_json(scale_key, lambda: scale),
        "config": _part_json(config_key, lambda: scale.config(num_vcs)),
        "num_vcs": _scalar_json(num_vcs),
    }
    for name, value in fields.items():
        parts[name] = _scalar_json(value)
    if policy is not None:
        from repro.core.policies import _REGISTRY

        policy_key = _memo_key("policy", policy.name, policy.params)
        if policy_key is not None:
            # The registered factory's signature supplies the defaults.
            policy_key += (_REGISTRY.get(policy.name),)
        parts["policy"] = _part_json(
            policy_key, lambda: canonical_policy(policy.name, policy.params)
        )
    for name, spec in (workloads or {}).items():
        parts[name] = _part_json(
            _memo_key("workload", spec), lambda: workload_descriptor(spec)
        )
    text = "{" + ",".join(f"{_json_str(name)}:{parts[name]}" for name in sorted(parts)) + "}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
