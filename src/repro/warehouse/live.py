"""Live runs: epoch-append storage for micro-batch streaming captures.

A batch run is written once and sealed (:mod:`repro.warehouse.writer`).  A
**live run** grows: every micro-batch appends one immutable *epoch*
directory that describes itself (``part.json``) and renames a new *head*
(``manifest.json``) into place, so a reader that snapshots the head at
admission sees a frozen, consistent set of segments no matter how many
batches land afterwards.

Directory layout::

    runs/<run_id>/
      manifest.json                 the head: run counters + one line per epoch
      batches/epoch-0001/           one immutable directory per micro-batch
        part.seg                    delta operator segments | sink rows this
                                    batch emitted | its RunIndex (same codec
                                    and writer as a batch run)
        part.json                   the epoch's footer: operator entries,
                                    rows and index locations
      retention/receipt-*.json      erasure-style retention receipts

The head carries ``live`` (still growing?), ``segment_epoch`` (a monotonic
counter bumped per append *and* per retention sweep -- the serve cache
invalidation granule), ``next_pid`` (the executor id counter, so ids stay
globally unique across batches), the ``watermark``, the run's
``operator_count``, and per epoch one slim line (epoch, dir, created, rows,
total_bytes, watermark, expired) -- about 130 bytes.  Everything per
operator lives in the epoch's ``part.json``, written once, so an append
costs in proportion to its batch however long the stream has run: it reads
and rewrites the head and touches no earlier epoch.  (Heads written by
<= 2.3 carry each epoch's footer inline; :func:`~repro.warehouse.reader.run_parts`
takes those as they are.)

An append writes the epoch's ``part.seg``, then its ``part.json``, then
renames the head.  A writer that dies anywhere before that rename leaves a
directory no head references; the next append recomputes the same epoch
number and clears it first.

This module is the *lifecycle* only.  Reading goes through
:func:`repro.warehouse.reader.run_parts` and the one
:class:`~repro.warehouse.reader.LazyProvenanceStore`: each visible epoch is
a part, written by the same :func:`~repro.warehouse.writer.write_part` that
writes a batch run's directory.

Run lifecycle::

    live --(finish(compact=False))--> sealed, epoch layout   (retention applies)
         --(finish(compact=True))---> compacted, batch layout (byte-identical
                                      to a one-shot batch run of the same rows)

Compaction is a pure association-level rewrite: operators are walked in
chain (topological) order, per-epoch association entries concatenate in
epoch order, and fresh sequential ids are assigned in entry order -- exactly
the order a batch executor would have assigned them for a linear plan -- so
the compacted segments are byte-identical to a batch capture.  Source items
and sink rows are re-headed, not re-parsed: their stored JSON bytes move
under the new ids, the items inflated out of each epoch's frames and
framed again by the writer (zlib is deterministic at a fixed level, so the
frames are the ones a one-shot record writes).

Retention expires whole epochs past a TTL and proves it: the sweep records
the expired sink-row and source-item ids, verifies they no longer answer
from the surviving segments, and writes a sha256-digested receipt (the
erasure-verification idiom of :mod:`repro.audit.erasure` applied to
time-based deletion).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import shutil
import time
from pathlib import Path as FsPath
from typing import Any

from repro.core.operator_provenance import OperatorProvenance
from repro.core.store import topological_order
from repro.errors import LiveRunError, ProvenanceError, StreamError
import repro.warehouse.format as wf
from repro.warehouse.index import RunIndex, walk_string_leaves
from repro.warehouse.reader import LazyProvenanceStore
from repro.warehouse.writer import (
    EncodedPart,
    encode_part,
    write_manifest,
    write_part,
    write_part_footer,
    write_run,
)

__all__ = [
    "BATCHES_DIR",
    "RETENTION_DIR",
    "append_epoch",
    "check_not_epoch_layout",
    "compact_live_run",
    "create_live_manifest",
    "is_epoch_layout",
    "retain_epochs",
    "seal_live_manifest",
]

BATCHES_DIR = "batches"
RETENTION_DIR = "retention"


def is_epoch_layout(manifest: dict[str, Any]) -> bool:
    """``True`` for live or sealed-uncompacted (epoch-append) manifests."""
    return "epochs" in manifest


def check_not_epoch_layout(manifest: dict[str, Any], operation: str) -> None:
    """Reject batch-only *operation* on an epoch-layout run, with guidance."""
    if is_epoch_layout(manifest):
        state = "live" if manifest.get("live") else "sealed but uncompacted"
        raise LiveRunError(
            f"cannot {operation}: run {manifest.get('run_id')!r} is {state} "
            "(epoch-append layout). Per-epoch index segments are maintained "
            "incrementally on append; seal the stream with compact=True to "
            "get the batch layout."
        )


def create_live_manifest(
    run_dir: FsPath, run_id: str, name: str, created: float, sink_oid: int
) -> dict[str, Any]:
    """Create the run directory and the epoch-0 live manifest."""
    run_dir = FsPath(run_dir)
    (run_dir / BATCHES_DIR).mkdir(parents=True, exist_ok=False)
    manifest: dict[str, Any] = {
        "format": wf.LAYOUT_VERSION,
        "run_id": run_id,
        "name": name,
        "created": created,
        "live": True,
        "segment_epoch": 0,
        "next_pid": 1,
        "watermark": None,
        "sink_oid": sink_oid,
        "rows": {"count": 0},
        "total_bytes": 0,
        "operator_count": 0,
        "epochs": [],
    }
    write_manifest(run_dir, manifest)
    return manifest


def append_epoch(
    run_dir: FsPath,
    manifest: dict[str, Any],
    execution: Any,
    *,
    next_pid: int,
    watermark: float | None = None,
) -> dict[str, Any]:
    """Append one micro-batch as a sealed epoch; returns its manifest line.

    *execution* is the batch's capture-enabled execution result (its store
    holds only this batch's delta records).  The epoch directory --
    ``part.seg``, then ``part.json`` -- is written completely before the
    manifest is rewritten to reference it; one a crashed append left
    unreferenced is cleared.  The line's ``total_bytes`` is the size of the
    epoch's ``part.seg``.
    """
    if not manifest.get("live"):
        raise LiveRunError(
            f"run {manifest.get('run_id')!r} is sealed; cannot append epochs"
        )
    run_dir = FsPath(run_dir)
    epoch = manifest["segment_epoch"] + 1
    epoch_dir = run_dir / BATCHES_DIR / f"epoch-{epoch:04d}"
    if epoch_dir.exists():
        shutil.rmtree(epoch_dir)
    part = encode_part(execution)
    # The per-epoch delta index is accumulated while the epoch's segments
    # are encoded, like a batch run's, so no full-run rebuild ever happens.
    footer, total_bytes = write_part(epoch_dir, part, RunIndex.accumulator())
    write_part_footer(epoch_dir, footer)
    entry = {
        "epoch": epoch,
        "dir": f"{BATCHES_DIR}/epoch-{epoch:04d}",
        "created": time.time(),
        "rows": part.row_count,
        "total_bytes": total_bytes,
        "watermark": watermark,
    }

    manifest["segment_epoch"] = epoch
    manifest["next_pid"] = next_pid
    if watermark is not None:
        manifest["watermark"] = watermark
    manifest["rows"]["count"] += part.row_count
    manifest["total_bytes"] += total_bytes
    manifest["operator_count"] = max(manifest.get("operator_count", 0), len(footer["operators"]))
    manifest["epochs"].append(entry)
    write_manifest(run_dir, manifest)
    return entry


def seal_live_manifest(run_dir: FsPath, manifest: dict[str, Any]) -> dict[str, Any]:
    """Mark the run finished (no more appends); keeps the epoch layout.

    Sealing bumps ``segment_epoch`` -- what queries see changes (the final
    window flush landed, or compaction is about to remap ids), so cached
    mid-ingest answers must go stale.  The manifest's counter is the ground
    truth the catalog record mirrors; keeping them in lockstep means a later
    retention sweep's bump is never masked by a colliding value.
    """
    manifest["live"] = False
    manifest["segment_epoch"] += 1
    write_manifest(run_dir, manifest)
    return manifest


# ---------------------------------------------------------------------------
# Compaction: epoch layout -> canonical batch layout
# ---------------------------------------------------------------------------


def compact_live_run(run_dir: FsPath, manifest: dict[str, Any]) -> dict[str, Any]:
    """Rewrite a sealed epoch-layout run into the canonical batch layout.

    Ids are remapped to the sequence a one-shot batch execution would have
    assigned (operator-major in topological order, entry order within each
    operator), which makes the resulting segments byte-identical to a batch
    capture of the same data; the batch index is fed in the same pass, from
    the stored item bytes.  The ``batches/`` tree is removed afterwards.
    Only linear (streaming-legal) plans compact; retention must not have
    expired any epoch (the removed rows cannot be re-derived).
    """
    run_dir = FsPath(run_dir)
    if manifest.get("live"):
        raise LiveRunError(
            f"run {manifest.get('run_id')!r} is still live; seal before compacting"
        )
    if not is_epoch_layout(manifest):
        return manifest  # already compacted
    if any(entry.get("expired") for entry in manifest["epochs"]):
        raise LiveRunError(
            f"run {manifest['run_id']!r} has expired epochs; a retained run "
            "stays in epoch layout"
        )
    source = LazyProvenanceStore(run_dir, manifest)
    id_map: dict[int, int] = {}
    fresh = itertools.count(1)
    operators = []
    for oid in topological_order(source.topology()):
        provenance = source.get(oid)
        if len(provenance.inputs) > 1:
            # Binary operators are rejected at stream-open time; a run that
            # somehow holds one cannot be canonically ordered.
            raise StreamError(
                f"cannot compact binary operator {oid}; streaming plans are linear"
            )
        remapped = provenance.associations.renumbered(id_map, fresh)
        source_block = None
        if source.is_source(oid):
            payloads = sorted(
                (id_map[old], raw) for old, raw in source.encoded_source_items(oid)
            )
            # No item object exists here: the index parses the stored bytes.
            leaves = (walk_string_leaves(json.loads(raw)) for _, raw in payloads)
            source_block = (source.source_name(oid), payloads, leaves)
        remapped_provenance = OperatorProvenance(
            provenance.oid,
            provenance.op_type,
            provenance.inputs,
            provenance.manipulations,
            remapped,
            label=provenance.label,
        )
        operators.append((remapped_provenance, source_block))
    rows = [
        (id_map[pid] if pid is not None else None, raw)
        for pid, raw in source.encoded_rows()
    ]
    sealed = write_run(
        run_dir,
        EncodedPart(operators, len(rows), wf.encode_payloads(rows)),
        manifest["sink_oid"],
        manifest["run_id"],
        manifest["name"],
        manifest["created"],
        index=RunIndex.accumulator(),
    )
    shutil.rmtree(run_dir / BATCHES_DIR)
    return sealed


# ---------------------------------------------------------------------------
# Retention: TTL-based epoch expiry with verified receipts
# ---------------------------------------------------------------------------


def retain_epochs(
    run_dir: FsPath,
    manifest: dict[str, Any],
    ttl_seconds: float,
    now: float | None = None,
) -> dict[str, Any] | None:
    """Expire epochs older than *ttl_seconds*; returns the receipt or ``None``.

    For each expired epoch the sweep records the sink-row ids and source
    item ids it held, deletes the epoch directory, marks the manifest entry
    expired, bumps ``segment_epoch`` (cached answers over the run are now
    stale), and then *verifies* against the surviving segments that none of
    the recorded ids still answers -- the same proof shape as an erasure
    verification, applied to time-based deletion.  The receipt (with a
    sha256 digest over its canonical JSON) persists under ``retention/``.
    """
    if ttl_seconds <= 0:
        raise ProvenanceError(f"retention TTL must be positive, got {ttl_seconds}")
    if not is_epoch_layout(manifest):
        return None
    run_dir = FsPath(run_dir)
    now = time.time() if now is None else now
    horizon = now - ttl_seconds
    due = [
        entry
        for entry in manifest["epochs"]
        if not entry.get("expired") and entry["created"] <= horizon
    ]
    if not due:
        return None

    expired_records: list[dict[str, Any]] = []
    for entry in due:
        doomed = LazyProvenanceStore(run_dir, dict(manifest, epochs=[entry]))
        expired_records.append(
            {
                "epoch": entry["epoch"],
                "rows": entry["rows"],
                "sink_ids": sorted(
                    pid for pid, _ in doomed.encoded_rows() if pid is not None
                ),
                "source_ids": {
                    str(oid): sorted(doomed.source_ids(oid))
                    for oid in doomed.topology()
                    if doomed.is_source(oid)
                },
            }
        )
        shutil.rmtree(run_dir / entry["dir"])
        entry["expired"] = True
        entry["expired_at"] = now
        # A <= 2.3 entry's inline footer goes with its directory.
        entry.pop("operators", None)
        entry.pop("index", None)
        manifest["rows"]["count"] -= entry["rows"]
        manifest["total_bytes"] -= entry["total_bytes"]

    manifest["segment_epoch"] += 1
    write_manifest(run_dir, manifest)

    # Verify the expiry actually removed answerability: surviving sink rows
    # must not carry an expired id, and expired source ids must not resolve.
    survivor = LazyProvenanceStore(run_dir, manifest)
    surviving_ids = {
        pid for pid, _ in survivor.encoded_rows() if pid is not None
    }
    sink_absent = all(
        not surviving_ids.intersection(record["sink_ids"])
        for record in expired_records
    )
    sources_absent = all(
        not survivor.has(int(oid_text))
        or survivor.decayed_source_id(int(oid_text), item_id)
        for record in expired_records
        for oid_text, ids in record["source_ids"].items()
        for item_id in ids
    )
    payload = {
        "run_id": manifest["run_id"],
        "swept_at": now,
        "ttl_seconds": ttl_seconds,
        "segment_epoch": manifest["segment_epoch"],
        "expired_epochs": expired_records,
        "verified": {
            "sink_ids_absent": sink_absent,
            "source_ids_absent": sources_absent,
        },
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    receipt = dict(payload, digest=hashlib.sha256(canonical.encode()).hexdigest())
    retention_dir = run_dir / RETENTION_DIR
    retention_dir.mkdir(exist_ok=True)
    last = max(record["epoch"] for record in expired_records)
    with open(
        retention_dir / f"receipt-{last:04d}.json", "w", encoding="utf-8"
    ) as handle:
        json.dump(receipt, handle, indent=2)
    if not (sink_absent and sources_absent):
        raise ProvenanceError(
            f"retention verification failed for run {manifest['run_id']!r}: "
            f"receipt {receipt['digest'][:12]} records surviving expired ids"
        )
    return receipt
