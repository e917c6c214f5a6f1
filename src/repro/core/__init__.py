"""Structural provenance: the paper's primary contribution (Secs. 4-6)."""

from repro.core.paths import POS, Path, Step, parse_path
from repro.core.operator_provenance import OperatorProvenance, UNDEFINED
from repro.core.store import ProvenanceSizeReport, ProvenanceStore

__all__ = [
    "POS",
    "Path",
    "Step",
    "parse_path",
    "OperatorProvenance",
    "UNDEFINED",
    "ProvenanceSizeReport",
    "ProvenanceStore",
]
