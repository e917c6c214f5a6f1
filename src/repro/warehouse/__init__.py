"""Provenance warehouse: a persistent, indexed, multi-run store.

Eager capture only pays off if the collected pebbles outlive the pipeline
run.  This package stores many captured executions under one root directory
in a binary segment format and serves backtrace queries *lazily* -- the
reader decodes only the operator segments a query's backtrace path touches,
never the whole run.

Modules:

* :mod:`~repro.warehouse.format` -- length-prefixed, versioned binary
  encoding of operator provenance, source items, and result rows,
* :mod:`~repro.warehouse.writer` -- spills one segment per operator, the
  rows and the index into one part file plus a footer index,
* :mod:`~repro.warehouse.catalog` -- the JSON run registry,
* :mod:`~repro.warehouse.reader` -- ``run_parts`` (a batch run is one part,
  a streamed run one per micro-batch) and the :class:`LazyProvenanceStore`
  over them, with an LRU segment cache and hit/miss metrics,
* :mod:`~repro.warehouse.live` -- the epoch-append lifecycle of streamed
  runs (append, seal, compact, retain),
* :mod:`~repro.warehouse.index` -- the persisted per-run query index
  (inverted input ids, source-item terms and byte ranges, A/M paths)
  backing forward tracing and the ``repro.audit`` subsystem,
* :mod:`~repro.warehouse.service` -- the :class:`Warehouse` facade used by
  the Pebble API and the CLI.
"""

from repro.warehouse.catalog import Catalog, RunRecord
from repro.warehouse.index import RunIndex, ensure_index
from repro.warehouse.reader import LazyProvenanceStore
from repro.warehouse.service import Warehouse

__all__ = ["Warehouse", "Catalog", "RunRecord", "LazyProvenanceStore", "RunIndex", "ensure_index"]
