"""Subject-access requests and erasure verification over forward traces.

GDPR Art. 15 ("what do you hold about me?") and Art. 17 ("prove you
deleted it") become, over a provenance warehouse, bulk forward-trace
queries: every subject identifier is matched against the recorded source
items, and its matches are traced to the outputs that derive from them.
A subject-access request reports those outputs per run; an erasure
verification asserts there are none left and signs the finding.

Reports are **deliberately timing-free**: two SAR runs over the same
warehouse state -- indexed or scanning, today or next week -- serialise byte-identically, which is what makes the erasure digest a
meaningful receipt and lets CI compare indexed against scan answers with
``cmp``.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Iterable, Sequence

from repro.errors import AuditError
from repro.nested.json_io import _jsonable
from repro.obs.log import get_logger
from repro.audit.forward import ForwardTracer
from repro.warehouse.index import walk_string_leaves

__all__ = [
    "DEFAULT_SUBJECT_TEMPLATE",
    "build_tracers",
    "erasure_over_tracers",
    "harvest_subjects",
    "report_digest",
    "sar_over_tracers",
    "subject_access_request",
    "subject_pattern",
    "verify_erasure",
]

#: Default subject selector: any string leaf anywhere equal to the subject
#: identifier.  Override with a sharper template (e.g.
#: ``root{//user{/id_str="{subject}"}}``) when field names are known.
DEFAULT_SUBJECT_TEMPLATE = 'root{//*="{subject}"}'


def subject_pattern(subject: str, template: str = DEFAULT_SUBJECT_TEMPLATE) -> str:
    """Instantiate *template* for one subject, escaping pattern syntax."""
    if "{subject}" not in template:
        raise AuditError(
            f"subject template must contain a {{subject}} placeholder: {template!r}"
        )
    escaped = subject.replace("\\", "\\\\").replace('"', '\\"')
    return template.replace("{subject}", escaped)


def harvest_subjects(run: Any, limit: int = 500) -> list[str]:
    """Distinct string leaves of the run's source items, sorted, capped.

    Subjects drawn from the data itself keep a probe sweep honest: every
    probe exercises the term-postings path (and most also the closure),
    instead of short-circuiting on guaranteed misses.
    """
    store = run.store
    leaves: set[str] = set()
    for provenance in store.operators():
        if not store.is_source(provenance.oid):
            continue
        for item in store.source_items(provenance.oid).values():
            leaves.update(walk_string_leaves(_jsonable(item)))
    return sorted(leaves)[:limit]


def _paginate(subjects: Iterable[str], page: int, page_size: int) -> tuple[list[str], int, int]:
    """Deduplicate, order, and slice the subject list for one page."""
    if page < 1:
        raise AuditError(f"page numbers start at 1, got {page}")
    if page_size < 1:
        raise AuditError(f"page size must be >= 1, got {page_size}")
    ordered = sorted(set(subjects))
    pages = max(1, -(-len(ordered) // page_size))
    if page > pages:
        raise AuditError(f"page {page} out of range (report has {pages} pages)")
    start = (page - 1) * page_size
    return ordered[start : start + page_size], len(ordered), pages


def sar_over_tracers(
    tracers: Sequence[tuple[str, ForwardTracer]],
    subjects: Iterable[str],
    template: str = DEFAULT_SUBJECT_TEMPLATE,
    page: int = 1,
    page_size: int = 100,
    include_items: bool = False,
) -> dict[str, Any]:
    """The SAR core: trace each page subject through every given tracer.

    ``tracers`` is an ordered ``(run_id, tracer)`` sequence; the serve layer
    passes its resident runs here, the warehouse API freshly loaded
    ones -- the report is identical either way.  Runs in which a subject
    matched nothing are omitted from that subject's entry, so the report
    stays proportional to actual exposure.
    """
    page_subjects, total, pages = _paginate(subjects, page, page_size)
    entries = []
    for subject in page_subjects:
        pattern = subject_pattern(subject, template)
        runs = []
        for run_id, tracer in tracers:
            result = tracer.trace(pattern)
            if result.matched_input_count == 0 and not result.output_ids:
                continue
            entry: dict[str, Any] = {
                "run_id": run_id,
                "matched_inputs": result.matched_input_count,
                "sources": [source.to_json() for source in result.sources if source.ids],
                "output_ids": list(result.output_ids),
                "output_count": len(result.output_ids),
            }
            if include_items:
                entry["outputs"] = [
                    {"id": pid, "item": _item_json(item)} for pid, item in result.outputs
                ]
            runs.append(entry)
        entries.append(
            {
                "subject": subject,
                "runs": runs,
                "run_count": len(runs),
                "total_outputs": sum(run["output_count"] for run in runs),
            }
        )
    return {
        "report": "subject-access-request",
        "template": template,
        "page": page,
        "page_size": page_size,
        "pages": pages,
        "total_subjects": total,
        "subjects": entries,
    }


def _item_json(item: Any) -> Any:
    from repro.nested.json_io import _jsonable

    return _jsonable(item)


def build_tracers(
    warehouse: Any,
    runs: Sequence[str] | None = None,
    use_index: bool = True,
) -> list[tuple[str, ForwardTracer]]:
    """Load one :class:`ForwardTracer` per requested (default: every) run."""
    if runs is None:
        warehouse.refresh()
        run_ids = [record.run_id for record in warehouse.runs()]
    else:
        run_ids = [warehouse.resolve(run_id).run_id for run_id in runs]
    tracers = []
    for run_id in run_ids:
        index = warehouse.load_index(run_id) if use_index else None
        tracers.append((run_id, ForwardTracer(warehouse.load(run_id), index)))
    return tracers


def subject_access_request(
    warehouse: Any,
    subjects: Iterable[str],
    runs: Sequence[str] | None = None,
    template: str = DEFAULT_SUBJECT_TEMPLATE,
    page: int = 1,
    page_size: int = 100,
    use_index: bool = True,
    include_items: bool = False,
) -> dict[str, Any]:
    """One bulk subject-access request across warehouse runs (paginated)."""
    tracers = build_tracers(warehouse, runs, use_index=use_index)
    report = sar_over_tracers(
        tracers,
        subjects,
        template=template,
        page=page,
        page_size=page_size,
        include_items=include_items,
    )
    get_logger("audit").event(
        "audit-sar",
        subjects=report["total_subjects"],
        page=page,
        runs=len(tracers),
        use_index=use_index,
    )
    return report


def report_digest(body: dict[str, Any]) -> str:
    """The sha256 over the canonical JSON serialisation of *body*."""
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def erasure_over_tracers(
    tracers: Sequence[tuple[str, ForwardTracer]],
    subjects: Iterable[str],
    template: str = DEFAULT_SUBJECT_TEMPLATE,
) -> dict[str, Any]:
    """The erasure-verification core, shared by the library and serve paths.

    Like :func:`sar_over_tracers`, the report depends only on the warehouse
    state and the request shape -- a server answering from resident
    runs produces the same bytes (and therefore the same ``digest``)
    as a fresh library call, which is what makes served receipts
    interchangeable with direct ones.
    """
    entries = []
    for subject in sorted(set(subjects)):
        pattern = subject_pattern(subject, template)
        residuals = []
        for run_id, tracer in tracers:
            result = tracer.trace(pattern)
            if result.matched_input_count == 0 and not result.output_ids:
                continue
            residuals.append(
                {
                    "run_id": run_id,
                    "matched_inputs": result.matched_input_count,
                    "output_ids": list(result.output_ids),
                }
            )
        entries.append({"subject": subject, "clean": not residuals, "residuals": residuals})
    body = {
        "report": "erasure-verification",
        "template": template,
        "subjects": entries,
        "subject_count": len(entries),
        "clean": all(entry["clean"] for entry in entries),
        "runs_checked": [run_id for run_id, _ in tracers],
    }
    return dict(body, digest=report_digest(body))


def verify_erasure(
    warehouse: Any,
    subjects: Iterable[str],
    runs: Sequence[str] | None = None,
    template: str = DEFAULT_SUBJECT_TEMPLATE,
    use_index: bool = True,
) -> dict[str, Any]:
    """Assert no warehouse output still derives from any of *subjects*.

    The returned report carries ``clean`` (no residual matches anywhere)
    plus a sha256 ``digest`` over its canonical body, so it can be archived
    as a verifiable erasure receipt: re-running the check against the same
    warehouse state reproduces the digest exactly.
    """
    tracers = build_tracers(warehouse, runs, use_index=use_index)
    report = erasure_over_tracers(tracers, subjects, template=template)
    get_logger("audit").event(
        "audit-erasure",
        subjects=report["subject_count"],
        clean=report["clean"],
        runs=len(tracers),
    )
    return report
