"""The backtracing algorithms (paper Sec. 6.3, Algs. 1-4).

:class:`Backtracer` walks the captured operator provenance from the sink
back to the sources.  The paper presents the walk as a recursion per linear
pipeline (Alg. 1) that is invoked once per input dataframe; we generalise it
to the full operator DAG: operators are processed in reverse-topological
order, every operator consumes the backtracing structure accumulated from
its successors and emits structures for its predecessors, and whatever
reaches a read operator is that source's provenance.  This is equivalent to
the paper's per-input recursion but visits shared sub-plans once.

Per operator type the step mirrors the paper exactly:

* **generic** (Alg. 3, used by filter/select): join ``B`` with the id
  associations, apply ``manipulatePath`` for every pair in ``M``, then
  ``accessPath`` for every path in ``A``.
* **flatten** (Alg. 2): generic step keeping the stored position, then
  ``mergeTrees`` substitutes the ``[pos]`` placeholders and merges trees of
  the same input id.
* **aggregation** (Alg. 4): positional flatten of the grouped ids,
  per-member placeholder substitution, ``inProv`` filtering, removal of
  sibling positions, and access marks for the grouping attributes.
* **join/union**: per-input id projection; the join prunes nodes that
  belong to the other input's schema, the union drops items whose id is
  undefined on the traced side.
* **map**: the tree is replaced by the whole input schema, marked as
  manipulated (``A`` and ``M`` are unknown for arbitrary UDFs).

Trees are immutable and, within one :meth:`Backtracer.backtrace` call,
interned, so each step edits each *distinct* tree once (memoised per
operator) however many items carry it.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Iterable, Sequence

from repro.core.backtrace.methods import (
    access_path,
    manipulate_paths,
    merge_trees,
    prune_output_residue,
    remove_sibling_positions,
)
from repro.core.backtrace.tree import BacktraceNode, BacktraceStructure, BacktraceTree, interning
from repro.core.operator_provenance import (
    AggregationAssociations,
    BinaryAssociations,
    FlattenAssociations,
    OperatorProvenance,
    ReadAssociations,
    UnaryAssociations,
)
from repro.core.paths import POS, Path
from repro.core.store import ProvenanceStoreProtocol
from repro.errors import BacktraceError
from repro.obs.tracer import span
from repro.nested.schema import Schema
from repro.nested.types import BagType, SetType, StructType

__all__ = ["Backtracer", "SourceProvenance"]


class SourceProvenance:
    """The backtraced provenance that reached one read operator."""

    __slots__ = ("oid", "name", "structure")

    def __init__(self, oid: int, name: str, structure: BacktraceStructure):
        self.oid = oid
        self.name = name
        self.structure = structure

    def ids(self) -> list[int]:
        """Identifiers of the input items in the provenance."""
        return sorted(self.structure.ids())

    def __repr__(self) -> str:
        return f"SourceProvenance({self.name!r}, ids={self.ids()})"


class Backtracer:
    """Backtraces a structure ``B`` through the captured provenance."""

    def __init__(self, store: ProvenanceStoreProtocol):
        self._store = store

    def backtrace(self, sink_oid: int, seeds: BacktraceStructure) -> list[SourceProvenance]:
        """Trace *seeds* (over the sink's output) back to every source.

        Returns one :class:`SourceProvenance` per read operator reachable
        from the sink, in operator-id order.  Sources whose provenance is
        empty (the queried items do not depend on them) are included with an
        empty structure, mirroring the paper's union backtracing that
        filters out undefined ids.
        """
        with span("toposort", "backtrace"):
            order = self._reverse_topological(sink_oid)
        frontier: dict[int, BacktraceStructure] = {sink_oid: seeds}
        results: list[SourceProvenance] = []
        with span("operator-walk", "backtrace", operators=len(order)), interning():
            for oid in order:
                structure = frontier.pop(oid, BacktraceStructure())
                with span(f"walk op-{oid}", "backtrace") as handle:
                    provenance = self._store.get(oid)
                    handle.set(op_type=provenance.op_type, trees=len(structure.entries))
                    if isinstance(provenance.associations, ReadAssociations):
                        results.append(
                            SourceProvenance(oid, self._store.source_name(oid), structure)
                        )
                        continue
                    for pred_oid, contribution in self._step(provenance, structure):
                        existing = frontier.setdefault(pred_oid, contribution)
                        if existing is not contribution:
                            for item_id, tree in contribution.items():
                                existing.add(item_id, tree)
        results.sort(key=lambda source: source.oid)
        return results

    # -- DAG ordering ------------------------------------------------------------

    def _reverse_topological(self, sink_oid: int) -> list[int]:
        """Order reachable operators so successors precede predecessors."""
        reachable: set[int] = set()
        stack = [sink_oid]
        predecessors: dict[int, list[int]] = {}
        while stack:
            oid = stack.pop()
            if oid in reachable:
                continue
            reachable.add(oid)
            preds = [
                input_ref.predecessor
                for input_ref in self._store.get(oid).inputs
                if input_ref.predecessor is not None
            ]
            predecessors[oid] = preds
            stack.extend(preds)
        # Kahn's algorithm on the successor relation: an operator can be
        # processed once all reachable successors handed their B down.
        successor_count: dict[int, int] = {oid: 0 for oid in reachable}
        for oid, preds in predecessors.items():
            for pred in preds:
                successor_count[pred] += 1
        ready = [oid for oid, count in successor_count.items() if count == 0]
        order: list[int] = []
        while ready:
            ready.sort(reverse=True)
            oid = ready.pop()
            order.append(oid)
            for pred in predecessors.get(oid, ()):
                successor_count[pred] -= 1
                if successor_count[pred] == 0:
                    ready.append(pred)
        if len(order) != len(reachable):
            raise BacktraceError("captured operator graph contains a cycle")
        return order

    # -- per-operator steps ---------------------------------------------------------

    def _step(
        self, provenance: OperatorProvenance, structure: BacktraceStructure
    ) -> list[tuple[int, BacktraceStructure]]:
        associations = provenance.associations
        if isinstance(associations, UnaryAssociations):
            if provenance.manipulations_undefined():
                return self._step_map(provenance, structure)
            return self._step_unary(provenance, structure)
        if isinstance(associations, FlattenAssociations):
            return self._step_flatten(provenance, structure)
        if isinstance(associations, AggregationAssociations):
            if provenance.op_type == "distinct":
                return self._step_distinct(provenance, structure)
            return self._step_aggregation(provenance, structure)
        if isinstance(associations, BinaryAssociations):
            if provenance.op_type == "union":
                return self._step_union(provenance, structure)
            return self._step_join(provenance, structure)
        raise BacktraceError(
            f"cannot backtrace operator {provenance.oid} of type {provenance.op_type!r}"
        )

    def _step_unary(
        self, provenance: OperatorProvenance, structure: BacktraceStructure
    ) -> list[tuple[int, BacktraceStructure]]:
        """Alg. 3 for filter and select."""
        input_ref = provenance.input(0)
        lookup = provenance.associations.by_output()  # type: ignore[attr-defined]
        edit = _editor(provenance.oid, input_ref, provenance.manipulations_or_empty(), prune=True)
        return [(self._pred(input_ref), _mapped(structure, lambda i: (lookup.get(i),), edit))]

    def _step_map(
        self, provenance: OperatorProvenance, structure: BacktraceStructure
    ) -> list[tuple[int, BacktraceStructure]]:
        """Map: unknown semantics; mark the whole input schema manipulated."""
        input_ref = provenance.input(0)
        lookup = provenance.associations.by_output()  # type: ignore[attr-defined]
        whole = _schema_tree(input_ref.schema, provenance.oid)
        return [(self._pred(input_ref), _mapped(structure, lambda i: (lookup.get(i),), lambda _: whole))]

    def _step_flatten(
        self, provenance: OperatorProvenance, structure: BacktraceStructure
    ) -> list[tuple[int, BacktraceStructure]]:
        """Alg. 2: generic step, then mergeTrees over positions."""
        input_ref = provenance.input(0)
        lookup = provenance.associations.by_output()  # type: ignore[attr-defined]
        edit = _editor(provenance.oid, input_ref, provenance.manipulations_or_empty())
        rows = [(*lookup[i], edit(tree)) for i, tree in structure.items() if i in lookup]
        return [(self._pred(input_ref), BacktraceStructure(merge_trees(rows)))]

    def _step_union(
        self, provenance: OperatorProvenance, structure: BacktraceStructure
    ) -> list[tuple[int, BacktraceStructure]]:
        """Union: project the defined input id per side, trees unchanged."""
        lookup = provenance.associations.by_output()  # type: ignore[attr-defined]
        return [
            (self._pred(provenance.input(side)), _mapped(structure, _side(lookup, side), lambda t: t))
            for side in (0, 1)
        ]

    def _step_join(
        self, provenance: OperatorProvenance, structure: BacktraceStructure
    ) -> list[tuple[int, BacktraceStructure]]:
        """Join: per side, prune the other side's attributes, mark A and M."""
        lookup = provenance.associations.by_output()  # type: ignore[attr-defined]
        outputs: list[tuple[int, BacktraceStructure]] = []
        for side in (0, 1):
            input_ref = provenance.input(side)
            schema = input_ref.schema
            own_names = set(schema.attribute_names()) if schema is not None else None
            pairs = [
                (in_path, out_path)
                for in_path, out_path in provenance.manipulations_or_empty()
                if own_names is None or (in_path.steps and in_path.head().name in own_names)
            ]
            edit = _editor(provenance.oid, input_ref, pairs, keep=own_names)
            outputs.append((self._pred(input_ref), _mapped(structure, _side(lookup, side), edit)))
        return outputs

    def _step_distinct(
        self, provenance: OperatorProvenance, structure: BacktraceStructure
    ) -> list[tuple[int, BacktraceStructure]]:
        """Distinct: every duplicate input carries the whole output item.

        Unlike an aggregation there is no restructuring to undo and no
        inProv filtering -- each member *is* the queried item, so the tree
        passes through unchanged (plus access marks for the comparison).
        """
        input_ref = provenance.input(0)
        lookup = provenance.associations.by_output()  # type: ignore[attr-defined]
        edit = _editor(provenance.oid, input_ref)
        return [(self._pred(input_ref), _mapped(structure, lambda i: lookup.get(i, ()), edit))]

    def _step_aggregation(
        self, provenance: OperatorProvenance, structure: BacktraceStructure
    ) -> list[tuple[int, BacktraceStructure]]:
        """Alg. 4: trace aggregation/nesting back to the grouped input.

        A member's position enters its edit only through finding the
        concrete ``out[position]`` node, and edits make no position label an
        input path does not name.  So the members at positions the tree does
        not name share one edit.
        """
        input_ref = provenance.input(0)
        lookup = provenance.associations.by_output()  # type: ignore[attr-defined]
        pairs = provenance.manipulations_or_empty()
        oid = provenance.oid
        mark = _editor(oid, input_ref)

        @cache
        def edit(tree: BacktraceTree, position: int) -> BacktraceTree | None:
            in_prov = False
            for in_path, out_path in pairs:
                tree, hit = _undo_aggregate_pair(tree, in_path, out_path, position, oid)
                in_prov |= hit
            for _, out_path in pairs:
                tree = _drop_residual_output(tree, out_path)
            return mark(prune_output_residue(tree, pairs)) if in_prov else None

        named_by_pairs = {step.pos for in_path, _ in pairs for step in in_path}
        result = BacktraceStructure()
        for item_id, tree in structure.items():
            labels = {label for _, node in tree.paths() for label in node.children}
            named = {label for label in labels | named_by_pairs if isinstance(label, int)}
            unnamed = max(named, default=0) + 1  # stands in for every other position
            for position, id_in in enumerate(lookup.get(item_id, ()), start=1):
                updated = edit(tree, position if position in named else unnamed)
                if updated is not None:
                    result.add(id_in, updated)
        return [(self._pred(input_ref), result)]

    @staticmethod
    def _pred(input_ref: object) -> int:
        predecessor = input_ref.predecessor  # type: ignore[attr-defined]
        if predecessor is None:
            raise BacktraceError("non-source operator without predecessor reference")
        return predecessor


def _mapped(
    structure: BacktraceStructure,
    ids_in: Callable[[int], Iterable[int | None]],
    edit: Callable[[BacktraceTree], BacktraceTree],
) -> BacktraceStructure:
    """``(id_in, edit(tree))`` for every ``(id, tree)`` and defined ``id_in`` of the id."""
    result = BacktraceStructure()
    for item_id, tree in structure.items():
        for id_in in ids_in(item_id):
            if id_in is not None:
                result.add(id_in, edit(tree))
    return result


def _side(lookup: dict, side: int) -> Callable[[int], tuple]:
    """The input id on *side* of a binary operator's output id."""
    return lambda item_id: lookup.get(item_id, (None, None))[side : side + 1]


def _editor(
    oid: int,
    input_ref: object,
    pairs: Sequence[tuple[Path, Path]] = (),
    prune: bool = False,
    keep: set[str] | None = None,
) -> Callable[[BacktraceTree], BacktraceTree]:
    """The generic step (Alg. 3) on one input, memoised per distinct tree:
    keep only the *keep* top-level attributes, undo ``M``, drop the output
    residue if *prune*, then mark ``A``."""
    accessed = sorted(input_ref.accessed_or_empty(), key=str)  # type: ignore[attr-defined]
    schema = input_ref.schema  # type: ignore[attr-defined]

    @cache
    def edit(tree: BacktraceTree) -> BacktraceTree:
        root = tree.root
        if keep is not None and not keep.issuperset(root.children):
            tree = BacktraceTree(root.replace(children=[c for n, c in root.children.items() if n in keep]))
        tree = manipulate_paths(tree, pairs, oid)
        if prune:
            tree = prune_output_residue(tree, pairs)
        for path in accessed:
            tree = access_path(tree, path, oid, schema)
        return tree

    return edit


def _undo_aggregate_pair(
    tree: BacktraceTree, in_path: Path, out_path: Path, position: int, oid: int
) -> tuple[BacktraceTree, bool]:
    """Apply one M pair of an aggregation to one group member (Alg. 4 ll. 5-12).

    Returns the tree with the matched output node grafted (and left) at
    the input path, and whether the member is ``inProv``.  Three match
    shapes are handled for nested collectors:

    * a concrete position in the tree (the pattern matched this member's
      element),
    * a ``[pos]`` placeholder child (the tree came from a schema expansion,
      e.g. backtracing a downstream ``map``), and
    * the bare collection attribute as a leaf (the query addresses the
      whole collection) -- every member produced one element, so every
      member is in the provenance.

    Several M pairs can consume one matched output region (``collect_list``
    of a struct of two input attributes); :func:`_drop_residual_output`
    removes it afterwards.
    """
    node = tree.find(out_path.substitute_placeholder(position) if out_path.has_placeholder() else out_path)
    if node is None and out_path.has_placeholder():
        # Schema-expanded trees (e.g. from a downstream map) hold literal
        # [pos] placeholder nodes; find resolves the POS label directly.
        node = tree.find(out_path)
        if node is None:
            collection = tree.find(_collection_attr(out_path))
            if collection is not None and not collection.positional_children():
                node = collection
    if node is None:
        return tree, False
    return tree.graft(in_path, node.with_manipulation(oid)), True


def _drop_residual_output(tree: BacktraceTree, out_path: Path) -> BacktraceTree:
    """Alg. 4 l. 13: remove remaining output-schema nodes of this pair."""
    if out_path.has_placeholder():
        return remove_sibling_positions(tree, _collection_attr(out_path))
    return tree.remove(out_path)


def _collection_attr(out_path: Path) -> Path:
    """Truncate at the placeholder step: ``tweets[pos].text`` -> ``tweets``."""
    steps = []
    for step in out_path:
        if step.pos is POS:
            steps.append(step.without_pos())
            break
        steps.append(step)
    return Path(steps)


def _schema_tree(schema: Schema | None, oid: int) -> BacktraceTree:
    """Build a whole-input-schema tree, all nodes manipulated by *oid*.

    Used when backtracing a ``map``: the UDF's internals are unknown, so the
    paper conservatively marks every input attribute as manipulated (and
    therefore contributing).
    """
    if schema is None:
        return BacktraceTree()

    def build(struct: StructType) -> list[BacktraceNode]:
        nodes = []
        for name, field_type in struct.fields:
            children: list[BacktraceNode] = []
            if isinstance(field_type, StructType):
                children = build(field_type)
            elif isinstance(field_type, (BagType, SetType)):
                element = build(field_type.element) if isinstance(field_type.element, StructType) else []
                children = [BacktraceNode(POS, True, manipulation=(oid,), children=element)]
            nodes.append(BacktraceNode(name, True, manipulation=(oid,), children=children))
        return nodes

    return BacktraceTree(BacktraceNode("root", True, children=build(schema.struct)))
