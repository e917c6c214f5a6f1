"""The no-prefilter reference answer over a stored run.

Parses every result row, matches the pattern over all of them and
backtraces the matches: what a stored run answers when no row is ruled
out unparsed.  Tests compare ``StoredRun.backtrace`` against it where no
in-memory capture of the run exists.
"""

from repro.core.backtrace.result import ProvenanceResult
from repro.core.treepattern.matcher import match_rows
from repro.pebble.query import as_pattern, trace_matches
from repro.warehouse.format import materialise_rows


def full_parse_backtrace(store, pattern) -> ProvenanceResult:
    """Backtrace *pattern* over every parsed row of the stored run *store*."""
    matches = match_rows(as_pattern(pattern), materialise_rows(store.encoded_rows()))
    return trace_matches(store, store.sink_oid, matches)
