"""Forward provenance: input items -> every derived output (the audit dual).

Backtracing (Sec. 6.3) answers "which inputs produced this output?".  The
GDPR questions run the other way: *given a data subject's input items,
which outputs anywhere in the warehouse derive from them?*  This module
answers that as the association-level dual of the backtrace walk: operators
are visited in **forward** topological order and each one maps the ids of
its frontier inputs to the output ids its association records derive from
them.

Per operator kind the forward step mirrors the backward step of
:class:`~repro.core.backtrace.algorithms.Backtracer` exactly:

* **unary / map / flatten** -- an output derives from its single recorded
  input id;
* **union / join** -- an output derives from each *defined* input side;
* **distinct** -- every duplicate member derives the surviving output (the
  backward step passes all members through unchanged);
* **aggregation** -- an output derives from *every* group member.  This is
  the one conservative spot: the backward direction filters members by
  ``inProv`` (a ``collect_set`` that deduplicates may drop members), so the
  forward answer can **over-approximate** for deduplicating collectors --
  it never under-reports, which is the safe direction for an audit ("this
  output may contain traces of the subject").  For all other operators,
  and for aggregations whose members are all ``inProv`` (``collect_list``,
  ``count``, ``min``/``max``/``sum``/``avg``), forward and backward agree
  exactly -- the duality the property tests pin.

Subjects are selected with the same tree-pattern language queries use,
matched against the *source items* instead of the results.  With a
persisted :class:`~repro.warehouse.index.RunIndex` the matching is
index-assisted (TERMS postings narrow the candidates, the store parses only
those candidates out of its item block, and the closure skips every operator
the INPUTS map proves untouched); without one everything falls back to a
full scan.  Both paths confirm every candidate with
:func:`~repro.core.treepattern.matcher.match_item`, so their answers are
byte-identical -- the index is an accelerator, never an oracle.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.core.operator_provenance import (
    AggregationAssociations,
    BinaryAssociations,
    FlattenAssociations,
    OperatorProvenance,
    ReadAssociations,
    UnaryAssociations,
)
from repro.core.store import ProvenanceStoreProtocol
from repro.core.treepattern.pattern import TreePattern
from repro.engine.executor import ExecutionResult
from repro.errors import AuditError
from repro.nested.json_io import _jsonable
from repro.nested.values import DataItem
from repro.obs.breakdown import QueryBreakdown
from repro.obs.log import get_logger
from repro.obs.slowlog import explained
from repro.obs.tracer import count, span
from repro.pebble.query import as_pattern
from repro.core.treepattern.matcher import match_item
from repro.warehouse.index import MAX_TERM_LEN, RunIndex
from repro.warehouse.reader import StoredRun

__all__ = [
    "ForwardResult",
    "ForwardTracer",
    "SubjectMatch",
    "required_terms",
    "trace_forward",
]


def required_terms(pattern: TreePattern) -> set[str]:
    """String constants every match must contain somewhere as a leaf.

    A node's equality term is *required* when the node and all its
    ancestors demand at least one occurrence (``count`` absent or with a
    lower bound >= 1).  A ``[0,n]`` count is an upper bound -- possibly a
    negation -- so nothing below it is required.  The result is the set of
    necessary TERMS-index probes; an empty set means the index cannot help
    and matching falls back to a scan.
    """
    terms: set[str] = set()

    def visit(node: Any, positive: bool) -> None:
        positive = positive and (node.count is None or node.count[0] >= 1)
        if positive and isinstance(node.equals, str):
            terms.add(node.equals)
        for child in node.children:
            visit(child, positive)

    for child in pattern.children:
        visit(child, True)
    return terms


class SubjectMatch:
    """The items of one source that match the subject pattern."""

    __slots__ = ("oid", "name", "ids")

    def __init__(self, oid: int, name: str, ids: tuple[int, ...]):
        self.oid = oid
        self.name = name
        #: Matched input item ids, ascending.
        self.ids = ids

    def to_json(self) -> dict[str, Any]:
        return {"oid": self.oid, "name": self.name, "ids": list(self.ids)}

    def __repr__(self) -> str:
        return f"SubjectMatch({self.name!r}, ids={list(self.ids)})"


class ForwardResult:
    """One forward trace: matched inputs, reached ids, derived outputs.

    ``stats`` carries the evaluation accounting (index used, operators
    decoded/skipped, source items tested as candidates and confirmed); it
    is deliberately **excluded** from :meth:`to_json` so indexed and scan
    answers to the same question serialise byte-identically.
    """

    __slots__ = ("run_id", "pattern", "sources", "reached", "output_ids", "outputs", "stats")

    def __init__(
        self,
        run_id: str | None,
        pattern: str,
        sources: list[SubjectMatch],
        reached: frozenset[int],
        output_ids: tuple[int, ...],
        outputs: list[tuple[int, DataItem]],
        stats: dict[str, Any],
    ):
        self.run_id = run_id
        self.pattern = pattern
        self.sources = sources
        #: Every provenance id the closure reached (inputs included).
        self.reached = reached
        #: Sink output ids deriving from the matched inputs, ascending.
        self.output_ids = output_ids
        #: The derived result rows in row order.
        self.outputs = outputs
        self.stats = stats

    @property
    def matched_input_count(self) -> int:
        return sum(len(source.ids) for source in self.sources)

    def to_json(self, include_items: bool = True) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "direction": "forward",
            "run_id": self.run_id,
            "pattern": self.pattern,
            "sources": [source.to_json() for source in self.sources],
            "matched_inputs": self.matched_input_count,
            "output_ids": list(self.output_ids),
            "output_count": len(self.output_ids),
        }
        if include_items:
            payload["outputs"] = [
                {"id": pid, "item": _jsonable(item)} for pid, item in self.outputs
            ]
        return payload

    def render(self) -> str:
        lines = [f"forward trace of {self.pattern}"]
        for source in self.sources:
            lines.append(f"  {source.name}: {len(source.ids)} matched input items")
        lines.append(
            f"  derived outputs: {len(self.output_ids)} "
            f"(of {len(self.outputs)} rows listed)"
        )
        for pid, item in self.outputs[:20]:
            lines.append(f"    [{pid}] {item}")
        if len(self.outputs) > 20:
            lines.append(f"    ... {len(self.outputs) - 20} more")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"ForwardResult({self.pattern!r}, inputs={self.matched_input_count}, "
            f"outputs={len(self.output_ids)})"
        )


class ForwardTracer:
    """Traces matched source items forward to every derived output.

    *run* is an in-memory :class:`~repro.engine.executor.ExecutionResult`
    or a stored :class:`~repro.warehouse.reader.StoredRun`: the tracer reads
    only its ``store`` and ``rows()``.  Pass the run's :class:`RunIndex` to
    evaluate index-assisted.  Results are byte-stable: identifiers come
    from one deterministic executor counter and every collection here is
    visited in sorted order, so a capture and its stored run give identical
    forward answers.
    """

    def __init__(self, run: ExecutionResult | StoredRun, index: RunIndex | None = None):
        if run.store is None:
            raise AuditError("forward tracing needs a capture-enabled execution")
        self._run = run
        self._store: ProvenanceStoreProtocol = run.store
        self._index = index
        #: Candidates are tested and dropped; a warehouse store can parse
        #: them without keeping them resident.
        self._candidate = getattr(
            self._store, "peek_source_item", self._store.source_item
        )
        #: Accounting of the last trace: what ``match_sources`` tested and
        #: confirmed, what ``closure`` decoded and skipped.
        self._last_stats: dict[str, Any] = {
            "index_used": False,
            "operators_decoded": 0,
            "operators_skipped": 0,
            "candidates_tested": 0,
            "candidates_confirmed": 0,
        }

    # -- subject matching ------------------------------------------------------

    def match_sources(self, pattern: TreePattern | str) -> list[SubjectMatch]:
        """Match *pattern* against every source's items, in oid order."""
        tree_pattern = as_pattern(pattern)
        tested = 0
        with span("match-sources", "pattern_match"):
            topology = self._topology()
            matches = []
            for oid in sorted(topology):
                if not self._store.is_source(oid):
                    continue
                ids, candidates = self._match_source(tree_pattern, oid)
                tested += candidates
                matches.append(SubjectMatch(oid, self._store.source_name(oid), ids))
        counts = {
            "candidates_tested": tested,
            "candidates_confirmed": sum(len(match.ids) for match in matches),
        }
        self._last_stats.update(counts)
        count(**counts)
        return matches

    def _match_source(self, pattern: TreePattern, oid: int) -> tuple[tuple[int, ...], int]:
        """The matching item ids of one source, and how many items were
        parsed and walked to find them (the index's candidates, or all)."""
        index = self._index
        if index is not None:
            terms = [
                term for term in sorted(required_terms(pattern))
                if len(term) <= MAX_TERM_LEN
            ]
            if terms:
                with span("index-probe", "index_probe"):
                    candidates: set[int] | None = None
                    for term in terms:
                        ids = {
                            item_id
                            for source_oid, item_id in index.candidates(term)
                            if source_oid == oid
                        }
                        candidates = ids if candidates is None else candidates & ids
                        if not candidates:
                            break
                if not candidates:
                    # TERMS is complete for in-cap terms: no postings
                    # proves no source item can satisfy the pattern.
                    return (), 0
                confirmed = []
                for item_id in sorted(candidates):
                    if match_item(pattern, self._candidate(oid, item_id)) is not None:
                        confirmed.append(item_id)
                return tuple(confirmed), len(candidates)
        items = self._store.source_items(oid)
        matched = tuple(
            item_id
            for item_id in sorted(items)
            if match_item(pattern, items[item_id]) is not None
        )
        return matched, len(items)

    # -- the forward closure ---------------------------------------------------

    def closure(self, seed_ids: Iterable[int]) -> set[int]:
        """Every provenance id reachable forward from *seed_ids* (inclusive).

        With an index, operators none of whose recorded inputs are on the
        frontier are skipped without decoding; without one, every operator
        decodes once in forward topological order.  Both paths compute the
        same set: the INPUTS map is complete by construction, and by the
        time an operator is visited all its predecessors have settled.
        """
        with span("forward-closure", "closure"):
            topology = self._topology()
            order = _forward_order(topology)
            reached: set[int] = set(seed_ids)
            decoded = 0
            skipped = 0
            store = self._store
            if self._index is not None:
                pending: dict[int, set[int]] = {}

                def feed(ids: Iterable[int]) -> None:
                    for item_id in ids:
                        for oid in self._index.consumers(item_id):
                            pending.setdefault(oid, set()).add(item_id)

                feed(reached)
                for oid in order:
                    if store.is_source(oid):
                        continue
                    frontier = pending.get(oid)
                    if not frontier:
                        skipped += 1
                        continue
                    outputs = _emit(store.get(oid), frontier)
                    decoded += 1
                    fresh = outputs - reached
                    reached |= fresh
                    feed(fresh)
            else:
                for oid in order:
                    if store.is_source(oid):
                        continue
                    reached |= _emit(store.get(oid), reached)
                    decoded += 1
        counts = {
            "index_used": self._index is not None,
            "operators_decoded": decoded,
            "operators_skipped": skipped,
        }
        self._last_stats.update(counts)
        count(**counts)
        return reached

    def trace(self, pattern: TreePattern | str) -> ForwardResult:
        """Match subjects and trace them to the sink's derived output rows."""
        tree_pattern = as_pattern(pattern)
        with span(
            "forward-trace", "audit", pattern=tree_pattern.render()
        ) as handle:
            sources = self.match_sources(tree_pattern)
            seeds = [item_id for source in sources for item_id in source.ids]
            reached = self.closure(seeds)
            rows = self._run.rows()
            outputs = [
                (pid, item) for pid, item in rows if pid is not None and pid in reached
            ]
            handle.set(inputs=len(seeds), outputs=len(outputs))
            count(matched_inputs=len(seeds), outputs=len(outputs))
        return ForwardResult(
            getattr(self._store, "run_id", None),
            tree_pattern.render(),
            sources,
            frozenset(reached),
            tuple(sorted(pid for pid, _ in outputs)),
            outputs,
            dict(self._last_stats),
        )

    def derived_output_ids(self, seed_ids: Iterable[int]) -> tuple[int, ...]:
        """Sink output ids derived from raw *seed_ids* (the oracle hook)."""
        reached = self.closure(seed_ids)
        return tuple(
            sorted(
                pid
                for pid, _ in self._run.rows()
                if pid is not None and pid in reached
            )
        )

    # -- plumbing --------------------------------------------------------------

    def _topology(self) -> dict[int, tuple[int, ...]]:
        store = self._store
        # The warehouse store keeps the operator graph in its footer; only
        # in-memory stores decode.
        footer = getattr(store, "footer_topology", None)
        if footer is not None:
            return footer()
        return {
            provenance.oid: tuple(
                ref.predecessor
                for ref in provenance.inputs
                if ref.predecessor is not None
            )
            for provenance in store.operators()
        }


def _forward_order(topology: dict[int, tuple[int, ...]]) -> list[int]:
    """Kahn's algorithm, sources first, deterministic (ascending-oid ties)."""
    remaining = {
        oid: sum(1 for pred in preds if pred in topology)
        for oid, preds in topology.items()
    }
    successors: dict[int, list[int]] = {oid: [] for oid in topology}
    for oid, preds in topology.items():
        for pred in preds:
            if pred in topology:
                successors[pred].append(oid)
    ready = sorted((oid for oid, count in remaining.items() if count == 0), reverse=True)
    order: list[int] = []
    while ready:
        ready.sort(reverse=True)
        oid = ready.pop()
        order.append(oid)
        for succ in successors[oid]:
            remaining[succ] -= 1
            if remaining[succ] == 0:
                ready.append(succ)
    if len(order) != len(topology):
        raise AuditError("captured operator graph contains a cycle")
    return order


def _emit(provenance: OperatorProvenance, frontier: set[int]) -> set[int]:
    """Output ids one operator derives from frontier input ids."""
    associations = provenance.associations
    outputs: set[int] = set()
    if isinstance(associations, ReadAssociations):
        return outputs
    if isinstance(associations, UnaryAssociations):
        for id_in, id_out in associations.records:
            if id_in in frontier:
                outputs.add(id_out)
    elif isinstance(associations, FlattenAssociations):
        for id_in, _pos, id_out in associations.records:
            if id_in in frontier:
                outputs.add(id_out)
    elif isinstance(associations, BinaryAssociations):
        for id_in1, id_in2, id_out in associations.records:
            if (id_in1 is not None and id_in1 in frontier) or (
                id_in2 is not None and id_in2 in frontier
            ):
                outputs.add(id_out)
    elif isinstance(associations, AggregationAssociations):
        for members, id_out in associations.records:
            if any(member in frontier for member in members):
                outputs.add(id_out)
    else:  # pragma: no cover -- new association kinds must be handled here
        raise AuditError(
            f"cannot trace forward through {type(associations).__name__}"
        )
    return outputs


def trace_forward(
    warehouse: Any,
    pattern: TreePattern | str,
    run_id: str | None = None,
    use_index: bool = True,
    breakdown: QueryBreakdown | None = None,
) -> ForwardResult:
    """One warehouse-level forward trace (load, index, trace, log).

    Pass a :class:`QueryBreakdown` to collect explain-analyze timings; when
    ``REPRO_SLOW_QUERY_MS`` is set, one is built regardless so over-budget
    traces land in the slow log with their breakdown attached.
    """
    with explained("forward", "", breakdown=breakdown) as query:
        with span("load-run", "load"):
            run = warehouse.load(run_id)
            index = warehouse.load_index(run.run_id) if use_index else None
        result = ForwardTracer(run, index).trace(pattern)
        query.run_id, query.pattern = run.run_id, result.pattern
        metrics = run.store.metrics
        count(
            segments_decoded=metrics.misses,
            cache_hits=metrics.hits,
            cache_misses=metrics.misses,
            bytes_read=metrics.bytes_read,
        )
    get_logger(run.run_id).event(
        "forward-trace",
        pattern=result.pattern,
        matched_inputs=result.matched_input_count,
        outputs=len(result.output_ids),
        **result.stats,
    )
    return result
