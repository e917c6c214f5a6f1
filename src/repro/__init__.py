"""Pebble reproduction: structural provenance for nested big-data analytics.

Reproduces Diestelkaemper & Herschel, "Tracing nested data with structural
provenance for big data analytics", EDBT 2020.

This module is the library's **stable facade**: user programs import from
``repro`` and nothing deeper.  It re-exports

* :class:`PebbleSession` -- build pipelines and run them with capture,
* :class:`CapturedExecution` -- a captured run: results + backtracing,
* :class:`Warehouse` -- durable multi-run provenance storage,
* :class:`StreamSession` -- micro-batch streaming capture into a *live*
  run (windowed aggregation via ``repro.stream.window_by``, watermarks,
  incremental backtrace while ingesting, TTL retention),
* :func:`connect` -- the provenance client: one :class:`ProvenanceClient`
  over ``file:///path`` (in-process) and ``http://host:port`` (a
  ``repro serve`` endpoint),
* the audit surface -- :func:`trace_forward` (forward provenance: inputs ->
  derived outputs), :func:`subject_access_request`, and
  :func:`verify_erasure` (the GDPR workflows in :mod:`repro.audit`),
* :class:`TreePattern` (with ``parse_pattern``/``child``/``descendant``) --
  the structural query language,
* :class:`EngineConfig` -- execution knobs (optimizer rules),
* the expression language (``col``, ``lit``, ``struct_``, the aggregates).

Internal module paths (``repro.engine.*``, ``repro.core.*``, ...) remain
importable but are not part of the stable surface and may move between
releases.

**Migrating to 3.0**: :func:`connect` is the one client -- the 1.x client
class and the ``repro.Session`` alias are gone -- and a served endpoint
answers ``/v1`` only: an unversioned path is a 404 in the ``/v1`` envelope,
bar the two Prometheus scrape pages.  See ``docs/MIGRATION.md`` for the
name, route and flag map.
"""

from repro.audit import subject_access_request, trace_forward, verify_erasure
from repro.client import ProvenanceClient, connect
from repro.core.treepattern import TreePattern, child, descendant, parse_pattern
from repro.engine import (
    avg,
    coalesce,
    col,
    collect_list,
    collect_set,
    count,
    lit,
    max_,
    min_,
    struct_,
    sum_,
)
from repro.engine.config import EngineConfig
from repro.pebble import CapturedExecution, PebbleSession, query_provenance
from repro.stream import StreamSession
from repro.warehouse import Warehouse

__version__ = "3.16.0"

__all__ = [
    # primary API
    "PebbleSession",
    "CapturedExecution",
    "Warehouse",
    "StreamSession",
    "connect",
    "ProvenanceClient",
    "TreePattern",
    "EngineConfig",
    # tree-pattern builders
    "child",
    "descendant",
    "parse_pattern",
    "query_provenance",
    # audit / forward provenance
    "trace_forward",
    "subject_access_request",
    "verify_erasure",
    # expression language
    "avg",
    "coalesce",
    "col",
    "collect_list",
    "collect_set",
    "count",
    "lit",
    "max_",
    "min_",
    "struct_",
    "sum_",
    "__version__",
]
