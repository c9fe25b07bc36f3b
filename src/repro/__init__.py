"""repro — conditional and matching dependencies for data quality.

A from-scratch implementation of the framework surveyed in

    Wenfei Fan. "Dependencies Revisited for Improving Data Quality."
    PODS 2008. DOI 10.1145/1376916.1376940

Subpackages
-----------
``repro.session``      the unified Session facade: detect/repair/discover/stream
``repro.server``       long-running HTTP/JSON service over warm named Sessions
``repro.client``       stdlib HTTP/1.1 client for the server's wire protocol
``repro.registry``     pluggable constraint registry: JSON codecs per class
``repro.relational``   typed domains, schemas, instances, algebra, queries
``repro.engine``       indexed execution: shared scans, batch planning, deltas
``repro.deps``         FDs, INDs, denial constraints, Armstrong proofs
``repro.cfd``          conditional functional dependencies and eCFDs (§2.1/§2.3)
``repro.cind``         conditional inclusion dependencies (§2.2)
``repro.md``           matching dependencies and relative candidate keys (§3)
``repro.repair``       data repairing: X/S/U repairs, cost model (§5.1)
``repro.cqa``          consistent query answering (§5.2)
``repro.propagation``  CFD propagation through SPCU views (§4.1)
``repro.condensed``    condensed representations of repairs (§5.3)
``repro.workloads``    synthetic data generators with error injection
``repro.paper``        the paper's figures and examples as objects

The typical entry point is :class:`repro.session.Session` (also exported
here as ``repro.Session``), which owns an instance plus a rule set and
exposes the whole lifecycle over the indexed and delta engines.
"""

from repro.errors import (
    AnalysisBoundExceeded,
    DependencyError,
    DomainError,
    InconsistentDependenciesError,
    QueryError,
    RepairError,
    ReproError,
    SchemaError,
)

__version__ = "1.3.0"

__all__ = [
    "AnalysisBoundExceeded",
    "DependencyError",
    "DomainError",
    "InconsistentDependenciesError",
    "QueryError",
    "RepairError",
    "ReproError",
    "SchemaError",
    "Session",
    "__version__",
]


def __getattr__(name: str):
    # Lazy: Session pulls in the engine stack, which most type-level users
    # (schemas, implication analyses) never need at import time.
    if name == "Session":
        from repro.session import Session

        return Session
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
