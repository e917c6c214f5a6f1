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
"""

from __future__ import annotations

from repro.core.backtrace.methods import (
    access_path,
    manipulate_paths,
    merge_trees,
    prune_output_residue,
    remove_sibling_positions,
)
from repro.core.backtrace.tree import BacktraceNode, BacktraceStructure, BacktraceTree
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
        with span("operator-walk", "backtrace", operators=len(order)):
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
                        existing = frontier.get(pred_oid)
                        if existing is None:
                            frontier[pred_oid] = contribution
                        else:
                            existing.merge_from(contribution)
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
        result = BacktraceStructure()
        pairs = provenance.manipulations_or_empty()
        for item_id, tree in structure.items():
            id_in = lookup.get(item_id)
            if id_in is None:
                continue
            updated = tree.copy()
            manipulate_paths(updated, pairs, provenance.oid)
            prune_output_residue(updated, pairs)
            for accessed in sorted(input_ref.accessed_or_empty(), key=str):
                access_path(updated, accessed, provenance.oid, input_ref.schema)
            result.add(id_in, updated)
        return [(self._pred(input_ref), result)]

    def _step_map(
        self, provenance: OperatorProvenance, structure: BacktraceStructure
    ) -> list[tuple[int, BacktraceStructure]]:
        """Map: unknown semantics; mark the whole input schema manipulated."""
        input_ref = provenance.input(0)
        lookup = provenance.associations.by_output()  # type: ignore[attr-defined]
        result = BacktraceStructure()
        for item_id, _tree in structure.items():
            id_in = lookup.get(item_id)
            if id_in is None:
                continue
            result.add(id_in, _schema_tree(input_ref.schema, provenance.oid))
        return [(self._pred(input_ref), result)]

    def _step_flatten(
        self, provenance: OperatorProvenance, structure: BacktraceStructure
    ) -> list[tuple[int, BacktraceStructure]]:
        """Alg. 2: generic step, then mergeTrees over positions."""
        input_ref = provenance.input(0)
        lookup = provenance.associations.by_output()  # type: ignore[attr-defined]
        pairs = provenance.manipulations_or_empty()
        rows: list[tuple[int, int, BacktraceTree]] = []
        for item_id, tree in structure.items():
            record = lookup.get(item_id)
            if record is None:
                continue
            id_in, pos = record
            updated = tree.copy()
            manipulate_paths(updated, pairs, provenance.oid)
            for accessed in sorted(input_ref.accessed_or_empty(), key=str):
                access_path(updated, accessed, provenance.oid, input_ref.schema)
            rows.append((id_in, pos, updated))
        result = BacktraceStructure(merge_trees(rows))
        return [(self._pred(input_ref), result)]

    def _step_union(
        self, provenance: OperatorProvenance, structure: BacktraceStructure
    ) -> list[tuple[int, BacktraceStructure]]:
        """Union: project the defined input id per side, trees unchanged."""
        lookup = provenance.associations.by_output()  # type: ignore[attr-defined]
        left = BacktraceStructure()
        right = BacktraceStructure()
        for item_id, tree in structure.items():
            record = lookup.get(item_id)
            if record is None:
                continue
            id_in1, id_in2 = record
            if id_in1 is not None:
                left.add(id_in1, tree.copy())
            if id_in2 is not None:
                right.add(id_in2, tree.copy())
        return [
            (self._pred(provenance.input(0)), left),
            (self._pred(provenance.input(1)), right),
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
            side_structure = BacktraceStructure()
            for item_id, tree in structure.items():
                record = lookup.get(item_id)
                if record is None:
                    continue
                id_in = record[side]
                if id_in is None:
                    continue
                updated = tree.copy()
                if own_names is not None:
                    for label in list(updated.root.children):
                        if label not in own_names:
                            updated.root.remove_child(label)
                manipulate_paths(updated, pairs, provenance.oid)
                for accessed in sorted(input_ref.accessed_or_empty(), key=str):
                    access_path(updated, accessed, provenance.oid, schema)
                side_structure.add(id_in, updated)
            outputs.append((self._pred(input_ref), side_structure))
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
        result = BacktraceStructure()
        for ids_in, id_out in provenance.associations.records:  # type: ignore[attr-defined]
            if id_out not in structure.entries:
                continue
            tree = structure.entries[id_out]
            for id_in in ids_in:
                member_tree = tree.copy()
                for accessed in sorted(input_ref.accessed_or_empty(), key=str):
                    access_path(member_tree, accessed, provenance.oid, input_ref.schema)
                result.add(id_in, member_tree)
        return [(self._pred(input_ref), result)]

    def _step_aggregation(
        self, provenance: OperatorProvenance, structure: BacktraceStructure
    ) -> list[tuple[int, BacktraceStructure]]:
        """Alg. 4: trace aggregation/nesting back to the grouped input."""
        input_ref = provenance.input(0)
        lookup = provenance.associations.by_output()  # type: ignore[attr-defined]
        pairs = provenance.manipulations_or_empty()
        result = BacktraceStructure()
        for item_id, tree in structure.items():
            ids_in = lookup.get(item_id)
            if ids_in is None:
                continue
            for position, id_in in enumerate(ids_in, start=1):
                member_tree = tree.copy()
                in_prov = False
                for in_path, out_path in pairs:
                    in_prov |= _undo_aggregate_pair(
                        member_tree, in_path, out_path, position, provenance.oid
                    )
                for in_path, out_path in pairs:
                    _drop_residual_output(member_tree, out_path)
                prune_output_residue(member_tree, pairs)
                if not in_prov:
                    continue
                for accessed in sorted(input_ref.accessed_or_empty(), key=str):
                    access_path(member_tree, accessed, provenance.oid, input_ref.schema)
                result.add(id_in, member_tree)
        return [(self._pred(input_ref), result)]

    @staticmethod
    def _pred(input_ref: object) -> int:
        predecessor = input_ref.predecessor  # type: ignore[attr-defined]
        if predecessor is None:
            raise BacktraceError("non-source operator without predecessor reference")
        return predecessor


def _graft_copy(tree: BacktraceTree, in_path: Path, node: "BacktraceNode", oid: int) -> None:
    """Graft a *copy* of a matched output node at the input path.

    The copy keeps the original tree intact so that several M pairs can
    consume the same matched output region (e.g. ``collect_list`` of a
    struct built from two input attributes); the residual output nodes are
    dropped afterwards by :func:`_drop_residual_output`.
    """
    copied = node.copy()
    copied.mark_subtree_manipulated(oid)
    tree.graft(in_path, copied)


def _undo_aggregate_pair(
    tree: BacktraceTree, in_path: Path, out_path: Path, position: int, oid: int
) -> bool:
    """Apply one M pair of an aggregation to one group member (Alg. 4 ll. 5-12).

    Returns ``True`` if the member's output path occurs in the tree (the
    member is ``inProv``).  Three match shapes are handled for nested
    collectors:

    * a concrete position in the tree (the pattern matched this member's
      element),
    * a ``[pos]`` placeholder child (the tree came from a schema expansion,
      e.g. backtracing a downstream ``map``), and
    * the bare collection attribute as a leaf (the query addresses the
      whole collection) -- every member produced one element, so every
      member is in the provenance.
    """
    if out_path.has_placeholder():
        concrete = out_path.substitute_placeholder(position)
        node = tree.find(concrete)
        if node is not None:
            _graft_copy(tree, in_path, node, oid)
            return True
        # Schema-expanded trees (e.g. from a downstream map) hold literal
        # [pos] placeholder nodes; find resolves the POS label directly.
        node = tree.find(out_path)
        if node is not None:
            _graft_copy(tree, in_path, node, oid)
            return True
        collection_node = tree.find(_collection_attr(out_path))
        if collection_node is not None and not collection_node.positional_children():
            # Whole-collection query: the attribute is a leaf (or holds
            # element constraints without positions) -- every member
            # produced one element, so every member is in the provenance.
            _graft_copy(tree, in_path, collection_node, oid)
            return True
        return False
    node = tree.find(out_path)
    if node is None:
        return False
    _graft_copy(tree, in_path, node, oid)
    return True


def _drop_residual_output(tree: BacktraceTree, out_path: Path) -> None:
    """Alg. 4 l. 13: remove remaining output-schema nodes of this pair."""
    if out_path.has_placeholder():
        remove_sibling_positions(tree, _collection_attr(out_path))
    else:
        tree.remove(out_path)


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
    tree = BacktraceTree()
    if schema is None:
        return tree

    def build(node: BacktraceNode, struct: StructType) -> None:
        for name, field_type in struct.fields:
            child = node.ensure_child(name, contributing=True)
            child.manipulation.add(oid)
            if isinstance(field_type, StructType):
                build(child, field_type)
            elif isinstance(field_type, (BagType, SetType)):
                element = child.ensure_child(POS, contributing=True)
                element.manipulation.add(oid)
                if isinstance(field_type.element, StructType):
                    build(element, field_type.element)

    build(tree.root, schema.struct)
    return tree
