"""repro.serve: a concurrent provenance query service over the warehouse.

The paper's provenance outlives the run that produced it (auditing and
usage queries arrive days later, Sec. 7.4); this package turns the
warehouse into a long-running HTTP service so those queries don't pay a
process start + catalog load each time.  Everything is standard library:
``http.server`` + ``threading`` for the server, ``urllib`` for the client
(:func:`repro.connect`, in :mod:`repro.client`).

Layers, inside out:

* :mod:`repro.serve.cache` -- single-flight LRU over pattern results,
  keyed ``(kind, run scope, params)``.
* :mod:`repro.serve.pool` -- the bounded worker pool with admission
  control (full queue -> 429) and per-request deadlines (-> 504).
* :mod:`repro.serve.service` -- the route table (the served surface,
  declared once) and :class:`QueryService`, the transport-free core that
  answers it: resident runs, catalog freshness, metrics.
* :mod:`repro.serve.http` -- the handler that reads the table, and
  :class:`ProvenanceServer`.

One server answers for one warehouse root; there is no second tier in
front of it (DESIGN.md Sec. 17, "One server").
"""

from repro.serve.cache import PatternResultCache
from repro.serve.http import ProvenanceServer
from repro.serve.pool import QueryPool
from repro.serve.service import (
    QueryService,
    ServeConfig,
    result_to_json,
)

__all__ = [
    "PatternResultCache",
    "ProvenanceServer",
    "QueryPool",
    "QueryService",
    "ServeConfig",
    "result_to_json",
]
