"""Export paths: Graphviz/DOT renderings and the plain-JSON interchange.

The paper's outlook mentions a user-friendly front-end for interacting with
structural provenance; a DOT rendering is the lightweight version of that:
``plan_to_dot`` draws the operator DAG (Fig. 1 style), ``provenance_to_dot``
draws the backtracing trees of a query answer (Fig. 2 style) with
contributing nodes filled green-ish and influencing nodes dashed.

:func:`export_execution_json` writes one self-contained JSON document
(``"format": 1``: the result rows, the per-operator provenance and the source
items) that external tools can read without knowing the segment format.  It
is write-only: the warehouse (:mod:`repro.warehouse`) is the one store
provenance is read back from.
"""

from __future__ import annotations

import json
from pathlib import Path as FsPath
from typing import Any

from repro.core.backtrace.result import ProvenanceResult
from repro.core.backtrace.tree import BacktraceNode
from repro.core.operator_provenance import (
    AggregationAssociations,
    Associations,
    BinaryAssociations,
    FlattenAssociations,
    OperatorProvenance,
    ReadAssociations,
    UNDEFINED,
    UnaryAssociations,
)
from repro.core.paths import POS
from repro.engine.executor import ExecutionResult
from repro.engine.plan import PlanNode
from repro.errors import ProvenanceError
from repro.nested.json_io import _jsonable  # shared encoder for model values
from repro.nested.types import type_to_obj

__all__ = ["plan_to_dot", "provenance_to_dot", "export_execution_json"]

_FORMAT_VERSION = 1


def _encode_associations(associations: Associations) -> dict[str, Any]:
    if isinstance(associations, ReadAssociations):
        return {"kind": "read", "ids": list(associations.ids)}
    if isinstance(associations, UnaryAssociations):
        return {"kind": "unary", "records": [list(record) for record in associations.records]}
    if isinstance(associations, FlattenAssociations):
        return {"kind": "flatten", "records": [list(record) for record in associations.records]}
    if isinstance(associations, BinaryAssociations):
        return {"kind": "binary", "records": [list(record) for record in associations.records]}
    if isinstance(associations, AggregationAssociations):
        return {
            "kind": "aggregation",
            "records": [[list(ids_in), id_out] for ids_in, id_out in associations.records],
        }
    raise ProvenanceError(f"cannot encode associations {type(associations).__name__}")


def _encode_operator(provenance: OperatorProvenance) -> dict[str, Any]:
    inputs = []
    for input_ref in provenance.inputs:
        inputs.append(
            {
                "predecessor": input_ref.predecessor,
                "accessed": (
                    None
                    if input_ref.accessed is UNDEFINED
                    else sorted(str(path) for path in input_ref.accessed)
                ),
                "schema": (
                    None if input_ref.schema is None else type_to_obj(input_ref.schema.struct)
                ),
            }
        )
    return {
        "oid": provenance.oid,
        "type": provenance.op_type,
        "label": provenance.label,
        "inputs": inputs,
        "manipulations": (
            None
            if provenance.manipulations_undefined()
            else [
                [str(path_in), str(path_out)]
                for path_in, path_out in provenance.manipulations_or_empty()
            ]
        ),
        "associations": _encode_associations(provenance.associations),
    }


def export_execution_json(execution: ExecutionResult, path: FsPath | str) -> None:
    """Export a capture-enabled execution (rows + provenance) to JSON."""
    if execution.store is None:
        raise ProvenanceError("only capture-enabled executions can be exported")
    store = execution.store
    sources = []
    for provenance in store.operators():
        if not isinstance(provenance.associations, ReadAssociations):
            continue
        sources.append(
            {
                "oid": provenance.oid,
                "name": store.source_name(provenance.oid),
                "items": [
                    [item_id, _jsonable(item)]
                    for item_id, item in sorted(store.source_items(provenance.oid).items())
                ],
            }
        )
    document = {
        "format": _FORMAT_VERSION,
        "sink": execution.root.oid,
        "rows": [[pid, _jsonable(item)] for pid, item in execution.rows()],
        "operators": [_encode_operator(provenance) for provenance in store.operators()],
        "sources": sources,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def plan_to_dot(root: PlanNode, name: str = "pipeline") -> str:
    """Render the logical plan DAG as a DOT digraph (data flows upward)."""
    lines = [f"digraph {name} {{", "  rankdir=LR;", "  node [shape=box];"]
    for node in root.walk():
        lines.append(f'  op{node.oid} [label="{_escape(f"[{node.oid}] {node.label()}")}"];')
        for child in node.children:
            lines.append(f"  op{child.oid} -> op{node.oid};")
    lines.append("}")
    return "\n".join(lines)


def _tree_nodes(
    lines: list[str], prefix: str, label: str, node: BacktraceNode
) -> None:
    shown = "[pos]" if node.label is POS else str(label)
    marks = []
    if node.access:
        marks.append("A=" + ",".join(map(str, sorted(node.access))))
    if node.manipulation:
        marks.append("M=" + ",".join(map(str, sorted(node.manipulation))))
    suffix = ("\\n" + "; ".join(marks)) if marks else ""
    if node.contributing:
        style = 'style=filled, fillcolor="#c8e6c9"'
    else:
        style = 'style="filled,dashed", fillcolor="#e8f5e9"'
    lines.append(f'  {prefix} [label="{_escape(shown + suffix)}", {style}];')
    for child_label, child in sorted(
        node.children.items(), key=lambda pair: str(pair[0])
    ):
        child_prefix = f"{prefix}_{_node_key(child_label)}"
        _tree_nodes(lines, child_prefix, str(child_label), child)
        lines.append(f"  {prefix} -> {child_prefix};")


def _node_key(label: object) -> str:
    text = "pos" if label is POS else str(label)
    return "".join(ch if ch.isalnum() else "_" for ch in text)


def provenance_to_dot(provenance: ProvenanceResult, name: str = "provenance") -> str:
    """Render all backtraced trees as one DOT digraph, grouped per source.

    Contributing nodes are filled solid (the paper's dark green),
    influencing nodes are dashed (medium green).
    """
    lines = [f"digraph {name} {{", "  node [shape=ellipse];"]
    for source_index, source in enumerate(provenance.sources):
        lines.append(f"  subgraph cluster_{source_index} {{")
        lines.append(f'    label="{_escape(source.name)} (operator {source.oid})";')
        for entry in source:
            root_id = f"s{source_index}_i{entry.item_id}"
            lines.append(f'    {root_id} [label="id {entry.item_id}", shape=box];')
            for label, child in sorted(
                entry.tree.root.children.items(), key=lambda pair: str(pair[0])
            ):
                prefix = f"{root_id}_{_node_key(label)}"
                _tree_nodes(lines, prefix, str(label), child)
                lines.append(f"    {root_id} -> {prefix};")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines)
