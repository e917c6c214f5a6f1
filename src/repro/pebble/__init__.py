"""The Pebble system: integrated capture and querying (paper Sec. 7.1)."""

from repro.pebble.api import CapturedExecution, PebbleSession
from repro.pebble.export import plan_to_dot, provenance_to_dot
from repro.pebble.query import query_provenance

__all__ = [
    "CapturedExecution",
    "PebbleSession",
    "plan_to_dot",
    "provenance_to_dot",
    "query_provenance",
]
