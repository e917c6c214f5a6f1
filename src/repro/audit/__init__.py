"""GDPR audit subsystem: forward provenance over the warehouse.

Backtracing answers "where did this output come from?"; this package
answers the regulator's dual -- "which outputs, anywhere in the warehouse,
derive from this subject's input items?" -- and packages it as the two
workflows compliance teams actually run:

* :func:`trace_forward` / :class:`ForwardTracer` -- one forward trace,
  from a tree pattern over the source items to every derived output,
  index-assisted when the run carries a persisted
  :class:`~repro.warehouse.index.RunIndex`;
* :func:`subject_access_request` -- a bulk, paginated SAR over many
  subjects and many runs;
* :func:`verify_erasure` -- the Art. 17 receipt: assert nothing derives
  from the subjects any more, signed with a reproducible sha256 digest.

All answers are byte-stable across in-memory and stored runs and across
indexed-vs-scan evaluation.
"""

from repro.audit.forward import (
    ForwardResult,
    ForwardTracer,
    SubjectMatch,
    trace_forward,
)
from repro.audit.sar import (
    DEFAULT_SUBJECT_TEMPLATE,
    sar_over_tracers,
    subject_access_request,
    subject_pattern,
    verify_erasure,
)

__all__ = [
    "DEFAULT_SUBJECT_TEMPLATE",
    "ForwardResult",
    "ForwardTracer",
    "SubjectMatch",
    "sar_over_tracers",
    "subject_access_request",
    "subject_pattern",
    "trace_forward",
    "verify_erasure",
]
