"""Persistent content-addressed artifact store: the warm-start substrate.

The FACTOR pipeline's economy is reuse — constraints extracted once are
reused across MUTs (paper Section 2.2) — but in-process reuse dies with the
process.  This package makes it durable: every expensive stage output is
keyed by a fingerprint of its inputs and published to a content-addressed
on-disk store, so a second CLI run, benchmark row or ``--jobs`` worker
warm-starts instead of re-parsing, re-extracting, re-elaborating,
re-code-generating and re-running ATPG from scratch.

Stages and their keys:

=============  ============================================================
``ast``        preprocessed Verilog text fingerprint
``extract``    (design fp, MUT module+path, extraction mode)
``transform``  (design fp, MUT module+path, mode, optimize flag)
``synth``      (design fp, root, netlist name, optimize flag)
``codegen``    (fault simulator's ``digest`` = levelized gate-order fp,
               chunk size, bytecode magic)
``atpg``       (netlist content fp, resolved ATPG options fp)
``campaign``   (trial job-spec request fingerprint)
``serve``      (served job's request fingerprint)
=============  ============================================================

See :mod:`repro.store.core` for robustness guarantees (atomic publish,
corruption/version-skew fallback, concurrency) and the environment knobs
(``REPRO_CACHE_DIR``, ``REPRO_NO_CACHE``).
"""

from repro.store.core import (
    MISS,
    STORE_SCHEMA,
    ArtifactStore,
    default_cache_dir,
    get_store,
    store_disabled,
)
from repro.store.fingerprint import (
    atpg_options_fingerprint,
    canonical_json,
    fingerprint_obj,
    fingerprint_text,
    gates_fingerprint,
    netlist_fingerprint,
)
from repro.store.pipeline import parse_verilog_cached, synthesize_cached

__all__ = [
    "MISS",
    "STORE_SCHEMA",
    "ArtifactStore",
    "default_cache_dir",
    "get_store",
    "store_disabled",
    "atpg_options_fingerprint",
    "canonical_json",
    "fingerprint_obj",
    "fingerprint_text",
    "gates_fingerprint",
    "netlist_fingerprint",
    "parse_verilog_cached",
    "synthesize_cached",
]
