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
* :func:`connect` -- the unified provenance client: one
  :class:`ProvenanceClient` protocol over ``file:///path`` (in-process)
  and ``http://host:port`` (a serve worker or fleet router),
* the audit surface -- :func:`trace_forward` (forward provenance: inputs ->
  derived outputs), :func:`subject_access_request`, and
  :func:`verify_erasure` (the GDPR workflows in :mod:`repro.audit`),
* :class:`TreePattern` (with ``parse_pattern``/``child``/``descendant``) --
  the structural query language,
* :class:`EngineConfig` -- execution knobs (partitions, scheduler backend,
  retries/timeouts, fault injection, optimizer rules),
* the expression language (``col``, ``lit``, ``struct_``, the aggregates).

Internal module paths (``repro.engine.*``, ``repro.core.*``, ...) remain
importable but are not part of the stable surface and may move between
releases.

**Migrating to 2.0**: the HTTP surface moved under ``/v1`` with a uniform
response envelope (legacy routes still answer, with a ``Deprecation``
header), and ``repro.ServeClient`` is deprecated in favour of
``repro.connect(url)``, which returns the same :class:`ProvenanceClient`
facade for local warehouses and served endpoints alike.  See
``docs/MIGRATION.md`` for the endpoint and error-code mapping.
"""

import warnings

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
from repro.engine.session import Session as _EngineSession
from repro.pebble import CapturedExecution, PebbleSession, query_provenance
from repro.stream import StreamSession
from repro.warehouse import Warehouse

__version__ = "2.4.0"

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
    # deprecated
    "Session",
    "ServeClient",
    "__version__",
]


def __getattr__(name: str) -> object:
    """Deprecated lazy attributes of the facade.

    ``repro.ServeClient`` predates :func:`connect`; resolving it still
    works (and is not cached as a module attribute, so the warning fires
    on every import site) but new code should call ``repro.connect(url)``.
    """
    if name == "ServeClient":
        warnings.warn(
            "repro.ServeClient is deprecated; use repro.connect(url) -- it "
            "returns one ProvenanceClient facade for file:// and http:// "
            "endpoints alike",
            DeprecationWarning,
            stacklevel=2,
        )
        from repro.serve.client import ServeClient

        return ServeClient
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class Session(_EngineSession):
    """Deprecated alias of the engine session; use :class:`PebbleSession`.

    ``repro.Session`` predates the facade; constructing it still works but
    warns.  The engine-internal ``repro.engine.session.Session`` stays
    silent -- the deprecation targets the public entry point only.
    """

    def __init__(self, *args: object, **kwargs: object) -> None:
        warnings.warn(
            "repro.Session is deprecated; construct repro.PebbleSession "
            "(capture + querying) instead",
            DeprecationWarning,
            stacklevel=2,
        )
        super().__init__(*args, **kwargs)  # type: ignore[arg-type]
