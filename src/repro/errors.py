"""Exception hierarchy for :mod:`repro`.

Every error raised by the library derives from :class:`ReproError` so
callers can catch library failures with a single ``except`` clause.

Structured error contract
-------------------------

Every subclass carries two stable class attributes the command-line
entry points rely on:

- ``code`` — a short, stable identifier rendered as
  ``error[<code>]: <message>`` (see :func:`render_error`).  Codes are
  part of the public interface: scripts may grep for them, so they
  never change once released.
- ``exit_code`` — the process exit status the CLIs map the error to.
  The full table lives in ``docs/CONFIGURATION.md`` ("Exit codes");
  in short: ``1`` generic failure, ``2`` usage (argparse), ``3``
  partial sweep results, ``4`` input validation / plausibility,
  ``10``-``13`` ``repro-cli doctor`` failure classes.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""

    #: Stable identifier rendered as ``error[<code>]`` by the CLIs.
    code = "REPRO"

    #: Process exit status the CLI entry points map this error to.
    exit_code = 1


class CellParameterError(ReproError):
    """A cell specification is missing or has an invalid parameter."""

    code = "CELL"


class HeuristicError(ReproError):
    """A modeling heuristic could not be applied (e.g. no donor cell)."""

    code = "HEURISTIC"


class ModelGenerationError(ReproError):
    """The circuit model could not produce an LLC model for a cell."""

    code = "MODEL"


class TraceError(ReproError):
    """A memory trace is malformed or inconsistent.

    Structured context (all optional) lets callers — and the
    ``error[TRACE]`` rendering — say exactly what was wrong where:
    ``lineno`` (1-based text-format line), ``field`` (``address`` /
    ``thread`` / ``gap`` / an npz array name) and ``value`` (the
    offending raw token).
    """

    code = "TRACE"
    exit_code = 4

    def __init__(
        self,
        message: str,
        lineno: Optional[int] = None,
        field: Optional[str] = None,
        value: object = None,
    ) -> None:
        super().__init__(message)
        self.lineno = lineno
        self.field = field
        self.value = value


class WorkloadError(ReproError):
    """An unknown workload was requested or a generator misbehaved."""

    code = "WORKLOAD"


class SimulationError(ReproError):
    """The system simulator reached an inconsistent state."""

    code = "SIM"


class ConfigurationError(ReproError):
    """An architecture or cache configuration is invalid."""

    code = "CONFIG"


class CorrelationError(ReproError):
    """The correlation framework received unusable inputs."""

    code = "CORRELATE"


class ExperimentError(ReproError):
    """An experiment could not be assembled or executed."""

    code = "EXPERIMENT"


class CheckpointError(ReproError):
    """A checkpoint journal could not be written or read."""

    code = "CHECKPOINT"


class CompressionError(ReproError):
    """The compressed-LLC model was misconfigured.

    Raised by :mod:`repro.techniques.compression` for a compacted-way
    tag factor below 1, a compressed-size function that returns sizes
    outside ``(0, block_bytes]``, or an unusable compressibility
    distribution.
    """

    code = "COMPRESS"
    exit_code = 2


class PlanError(ReproError):
    """The ``dse`` grid names a workload that does not exist.

    Raised by :func:`repro.experiments.dse.resolve_workloads` for an
    unknown workload in ``REPRO_DSE_WORKLOADS`` or ``plan --workloads``.
    """

    code = "PLAN"


class PlausibilityError(ReproError):
    """A value passed structural checks but is physically impossible.

    Raised by the validation firewall (:mod:`repro.validate`) when a
    cell parameter, model output or simulation result falls outside its
    plausibility bounds — NaN latency, negative energy, a femtosecond
    pulse width.  Carries the offending ``field``, its ``value``, the
    violated ``bound`` (human-readable) and the ``provenance`` chain
    (which heuristic produced the number), so the error message names
    the culprit, not just the symptom.
    """

    code = "PLAUSIBILITY"
    exit_code = 4

    def __init__(
        self,
        message: str,
        subject: str = "",
        field: str = "",
        value: object = None,
        bound: str = "",
        provenance: str = "",
    ) -> None:
        super().__init__(message)
        self.subject = subject
        self.field = field
        self.value = value
        self.bound = bound
        self.provenance = provenance


class ServeError(ReproError):
    """The experiment service (:mod:`repro.serve`) rejected a request.

    Carries ``http_status`` — the HTTP response status the daemon maps
    the error to — alongside the usual ``code``/``exit_code`` contract,
    so the same exception type serves both the HTTP boundary and the
    ``repro-cli submit``/``fetch`` client (which exits 5 on any
    service-side failure).
    """

    code = "SERVE"
    exit_code = 5

    #: Default HTTP status the daemon renders this error with.
    http_status = 400

    def __init__(self, message: str, http_status: Optional[int] = None) -> None:
        super().__init__(message)
        if http_status is not None:
            self.http_status = http_status


class QueueFullError(ServeError):
    """The service job queue is at capacity (backpressure).

    Rendered as HTTP 429 with a ``Retry-After`` header carrying
    ``retry_after_s``; callers should back off and resubmit.
    """

    code = "BUSY"
    http_status = 429

    def __init__(self, message: str, retry_after_s: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class DegradedError(ServeError):
    """A fleet segment is temporarily uncovered (dead or ejected shard).

    The router raises this instead of a bare 502 when the shard owning
    a digest is unreachable and the result cannot be served from the
    shared store.  Rendered as HTTP 503 with a ``Retry-After`` header
    carrying ``retry_after_s`` — the condition is *retryable*: the
    heartbeat monitor ejects the dead shard and remaps its ring
    segment, or the fleet supervisor restarts it, so a backed-off
    resubmission lands on a live owner (and submissions are idempotent
    by spec digest, so the retry can never double-compute).
    """

    code = "DEGRADED"
    http_status = 503

    def __init__(self, message: str, retry_after_s: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class LoadGenError(ReproError):
    """A load-generation scenario (:mod:`repro.loadgen`) is invalid.

    Raised for malformed scenario profiles, unknown arrival processes
    and out-of-range mix/rate parameters — configuration problems, so
    the CLI exits 2 like other bad-input errors.
    """

    code = "LOADGEN"
    exit_code = 2


class PartialResultError(ExperimentError):
    """A sweep finished with some cells failed — but none lost.

    Carries every completed result so callers (and the checkpoint
    journal) keep the work already done; ``failures`` maps the input
    index of each failed cell to the error message that killed it.

    Attributes
    ----------
    completed:
        ``{input_index: {model_name: SimResult}}`` for every cell that
        finished.
    failures:
        ``{input_index: message}`` for every cell that did not.
    """

    code = "PARTIAL"
    exit_code = 3

    def __init__(self, message, completed=None, failures=None):
        super().__init__(message)
        self.completed = dict(completed or {})
        self.failures = dict(failures or {})


def render_error(error: ReproError) -> str:
    """The CLI rendering of a library error: ``error[<code>]: <message>``.

    Every ``repro-cli`` / ``repro-experiments`` entry point prints this
    (to stderr, no traceback) and exits with ``error.exit_code``.
    """
    return f"error[{error.code}]: {error}"
