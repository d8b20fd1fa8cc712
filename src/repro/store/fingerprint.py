"""Content fingerprints for artifact-store keys.

Every store key is a SHA-256 over a *canonical JSON* rendering of the
inputs that determine a stage's output: source text, tool version, option
values, and upstream artifact fingerprints.  Canonicalization maps the
value types the pipeline actually uses (enums, tuples, sets, frozensets,
dataclass-like objects already rendered to dicts) onto deterministic JSON
so the same inputs always hash to the same key, in every process and on
every platform.

This module is deliberately dependency-light (hashlib + json only) so the
hierarchy and synthesis layers can import it without cycles.
"""

from __future__ import annotations

import enum
import hashlib
import json
from typing import Any, Iterable


def _canonical(value: Any) -> Any:
    """Reduce ``value`` to JSON-able form with a deterministic rendering."""
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (set, frozenset)):
        return sorted(_canonical(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(
            value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, bytes):
        return value.hex()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot canonicalize {type(value).__name__} for "
                    f"fingerprinting: {value!r}")


def canonical_json(value: Any) -> str:
    """Deterministic JSON text for ``value`` (sorted keys, no whitespace)."""
    return json.dumps(_canonical(value), sort_keys=True,
                      separators=(",", ":"))


def fingerprint_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fingerprint_text(text: str) -> str:
    return fingerprint_bytes(text.encode("utf-8"))


def fingerprint_obj(value: Any) -> str:
    """Fingerprint of any canonicalizable value."""
    return fingerprint_text(canonical_json(value))


def gates_fingerprint(gates: Iterable, num_nets: int) -> str:
    """Fingerprint of a gate sequence (order-sensitive).

    Used for the codegen stage, whose generated program depends only on the
    levelized gate order and the net-id space.
    """
    h = hashlib.sha256()
    h.update(str(num_nets).encode("ascii"))
    for gate in gates:
        h.update(gate.type.value.encode("ascii"))
        h.update(b"%d:" % gate.output)
        for inp in gate.inputs:
            h.update(b"%d," % inp)
        h.update(b";")
    return h.hexdigest()


def netlist_fingerprint(netlist) -> str:
    """Content fingerprint of a gate-level netlist.

    Covers everything downstream consumers can observe: the net-id space
    and names (fault sites are reported by name), gates, PI/PO lists and
    the hierarchical region map used for fault-region filtering.  Cached on
    the netlist instance; mutation after fingerprinting is the caller's
    responsibility (the pipeline only fingerprints finished netlists).
    """
    cached = getattr(netlist, "_content_fingerprint", None)
    if cached is not None:
        return cached
    h = hashlib.sha256()
    h.update(gates_fingerprint(netlist.gates,
                               len(netlist._names)).encode("ascii"))
    h.update(canonical_json({
        "names": [n or "" for n in netlist._names],
        "pis": list(netlist.pis),
        "po_pairs": [[net, name] for net, name in netlist.po_pairs],
        "regions": dict(getattr(netlist, "regions", {})),
    }).encode("utf-8"))
    fp = h.hexdigest()
    try:
        netlist._content_fingerprint = fp
    except AttributeError:  # pragma: no cover - exotic netlist stand-ins
        pass
    return fp


def atpg_options_fingerprint(options) -> str:
    """Fingerprint of an :class:`repro.atpg.engine.AtpgOptions`.

    A ``None`` backend runs the arena, so it keys like ``"arena"``; the
    interpreted oracle keeps a key of its own, so an oracle run never
    loads the arena run's stored report.
    """
    import dataclasses

    fields = dataclasses.asdict(options)
    fields["fault_sim_backend"] = options.fault_sim_backend or "arena"
    return fingerprint_obj(fields)
