"""Exception hierarchy for the Pebble reproduction.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while still
being able to distinguish the individual failure modes.

Each class also carries a stable machine-readable ``code``.  The versioned
HTTP surface (``/v1``) puts this code in its error envelope so remote callers
can classify failures without string-matching messages, and the HTTP client
maps codes back onto this hierarchy -- the wire format survives exception
renames, the codes do not change.  Retired codes are never reused:
``worker_lost`` (went with the process pool in 3.1) and ``injected_fault``
(went with the fault injector in 3.3).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library.

    ``retryable`` classifies the failure for the client's retry loop
    (:func:`repro.client.exchange`): transient errors (a full admission
    queue, a deadline overrun, an unreachable server) may be retried with
    backoff, everything else fails immediately.  Callers classify through
    this attribute rather than string-matching messages.

    ``code`` is the stable wire identifier of the failure mode; subclasses
    narrow it.  It is part of the ``/v1`` API contract -- never recycle a
    code for a different meaning.
    """

    retryable: bool = False
    code: str = "internal"


class TransientError(ReproError):
    """A failure that may succeed on retry (the client's retry trigger)."""

    retryable = True
    code = "transient"


class TaskTimeoutError(TransientError):
    """A served request overran its deadline (HTTP 504), or no answer
    arrived in the client's timeout."""

    code = "deadline_exceeded"


class ServeError(ReproError):
    """The provenance query service could not satisfy a request."""

    code = "bad_request"


class AdmissionError(ServeError):
    """The service's admission queue is full (HTTP 429).

    Retryable by design: the client-side backoff protocol treats a full
    queue like any transient failure -- wait, then retry.
    """

    retryable = True
    code = "admission_full"


class DataModelError(ReproError):
    """A value does not conform to the nested data model (Sec. 4.1)."""

    code = "bad_data_model"


class TypeInferenceError(DataModelError):
    """Type inference or unification failed, e.g. a heterogeneous bag."""


class PathError(ReproError):
    """An access path is syntactically invalid or cannot be evaluated."""

    code = "bad_path"


class PathSyntaxError(PathError):
    """An access path string could not be parsed."""


class PathEvaluationError(PathError):
    """An access path does not resolve against a given data item."""


class ExpressionError(ReproError):
    """A column expression is invalid or cannot be evaluated."""

    code = "bad_expression"


class PlanError(ReproError):
    """A logical plan is malformed (unknown attribute, schema mismatch, ...)."""

    code = "bad_plan"


class SchemaMismatchError(PlanError):
    """Two datasets have incompatible schemas (e.g. for a union)."""


class StreamError(PlanError):
    """A plan or operation is invalid for micro-batch streaming.

    Raised when a pipeline handed to :class:`~repro.stream.StreamSession`
    contains operators the streaming executor cannot run incrementally
    (joins, unions, blocking sorts/limits, non-windowed aggregations), or
    when a session method is called out of lifecycle order.
    """

    code = "bad_stream"


class ExecutionError(ReproError):
    """An operator failed while processing data."""

    code = "execution_failed"


class ProvenanceError(ReproError):
    """Provenance capture or storage failed."""

    code = "not_found"


class LiveRunError(ProvenanceError):
    """An operation requires a sealed run but the target is still live.

    Batch-only paths (``repro index build`` backfill, eager store loads)
    reject live runs with this error; the incremental per-epoch index and
    the live store merge are the supported alternatives while a run grows.
    """

    code = "run_live"


class CaptureDisabledError(ProvenanceError):
    """A provenance query was issued but capture was not enabled."""

    code = "capture_disabled"


class BacktraceError(ProvenanceError):
    """Backtracing could not complete (missing operator provenance, ...)."""

    code = "backtrace_failed"


class AuditError(ProvenanceError):
    """An audit operation (forward trace, SAR, erasure check) failed."""

    code = "bad_audit_request"


class TreePatternError(ReproError):
    """A tree pattern is invalid."""

    code = "bad_pattern"


class TreePatternSyntaxError(TreePatternError):
    """A tree-pattern string could not be parsed."""


class WorkloadError(ReproError):
    """A workload generator or scenario was configured incorrectly."""

    code = "bad_workload"


#: ``code -> exception class`` for the /v1 client: rebuilding a typed error
#: from a wire envelope.  Built from the hierarchy so the two cannot drift.
ERROR_CODES: dict[str, type[ReproError]] = {}


def _register_codes() -> None:
    ordered: list[type[ReproError]] = [ReproError]
    index = 0
    while index < len(ordered):
        ordered.extend(ordered[index].__subclasses__())
        index += 1
    for cls in ordered:  # later (more derived) classes do not override earlier
        ERROR_CODES.setdefault(cls.code, cls)


_register_codes()


def error_code(exc: BaseException) -> str:
    """The stable wire code for *exc* (``"internal"`` for foreign errors)."""
    if isinstance(exc, ReproError):
        return exc.code
    return "internal"
