"""Paper-literal reference implementation of MAP-IT (the *oracle*).

This package exists solely to check production code: it restates the
§4.1 sanitize and §4.3 neighbor fold (:mod:`repro.oracle.fold`) and
Algorithms 1–4 (:mod:`repro.oracle.reference`) of the paper directly,
with none of the production kernels' buffering, caching,
observability, or ordering tricks, so that the differential harness
(:mod:`repro.diff`) can compare the two implementations table by table
and inference by inference on seeded synthetic worlds.

Independence is the whole point — the oracle must never import
anything from ``repro`` outside this package (enforced statically by
mapitlint rule ORA001), because a shared helper would share the bug
the harness is supposed to catch.  It consumes only the algorithm's
*inputs*: the traces, the interface graph, the special-address test,
the IP2AS mapper, sibling data, and relationships.
"""

from repro.oracle.fold import OracleFold, oracle_fold
from repro.oracle.reference import (
    OracleConfig,
    OracleRecord,
    OracleResult,
    oracle_run,
)

__all__ = [
    "OracleConfig",
    "OracleFold",
    "OracleRecord",
    "OracleResult",
    "oracle_fold",
    "oracle_run",
]
