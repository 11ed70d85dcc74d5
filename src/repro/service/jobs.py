"""Job model for the annealing service: requests, states, and the store.

A *job* is one submitted problem (Verilog or QMASM source, pins, run
options) moving through ``queued -> running -> {done, error, timeout}``.
Submission-time validation happens in :meth:`JobRequest.from_payload`
so malformed requests are rejected synchronously with a structured
HTTP 400 (diagnostics formatted by
:func:`repro.hdl.errors.format_diagnostic`, the same house style the
CLI uses); everything that can only fail at execution time (elaboration
errors, deadline expiry, solver failures) lands on the job as a
structured terminal error instead.
"""

from __future__ import annotations

import re
import secrets
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.compiler import CompileOptions
from repro.core.options import OptionError, check_value, knob
from repro.hdl.errors import VerilogError, format_diagnostic
from repro.qmasm.parser import parse_pin, parse_qmasm
from repro.qmasm.program import QmasmError
from repro.qmasm.runner import RunOptions


class JobState:
    """The job lifecycle states (plain strings, JSON-friendly)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    ERROR = "error"
    TIMEOUT = "timeout"

    TERMINAL = frozenset({DONE, ERROR, TIMEOUT})
    ALL = (QUEUED, RUNNING, DONE, ERROR, TIMEOUT)


class ServiceError(Exception):
    """A structured service-level failure, mapped 1:1 onto an HTTP reply.

    Attributes:
        status: the HTTP status code (400/404/429/503/...).
        code: a stable machine-readable error code
            (``"invalid_source"``, ``"rate_limited"``, ...).
        retry_after_s: when set, rendered as a ``Retry-After`` header.
        details: extra JSON-safe fields merged into the error payload
            (line/column numbers, the formatted diagnostic, ...).
    """

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        retry_after_s: Optional[float] = None,
        **details: Any,
    ):
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.retry_after_s = retry_after_s
        self.details = details

    def payload(self) -> Dict[str, Any]:
        body: Dict[str, Any] = {
            "error": self.code,
            "message": self.message,
            "status": self.status,
        }
        if self.retry_after_s is not None:
            body["retry_after_s"] = round(self.retry_after_s, 6)
        body.update(self.details)
        return body


ALLOWED_LANGUAGES = ("verilog", "qmasm")

#: Submission hard caps: a served endpoint must bound what one request
#: can ask of the fleet (the deadline bounds wall time; these bound the
#: requested work shape).  The lower bounds are the options schema's.
MAX_NUM_READS = 100_000
MAX_NUM_SWEEPS = 1_000_000
MAX_UNROLL_STEPS = 64
MAX_SOURCE_BYTES = 1_000_000
MAX_SOLUTIONS_CAP = 256

#: Wire fields that are run or compile knobs, by the options class that
#: declares (and validates) them.
_OPTION_FIELDS = {
    **dict.fromkeys(
        ("solver", "num_reads", "num_sweeps", "use_roof_duality", "certify"), RunOptions
    ),
    **dict.fromkeys(("top", "unroll_steps"), CompileOptions),
}
_CAPS = {"num_reads": MAX_NUM_READS, "num_sweeps": MAX_NUM_SWEEPS, "unroll_steps": MAX_UNROLL_STEPS}


def _invalid(message: str, **details: Any) -> ServiceError:
    return ServiceError(400, "invalid_request", message, **details)


@dataclass(frozen=True)
class JobRequest:
    """A validated submission: everything one job execution needs.

    The run and compile fields are checked against the options schema
    (:data:`_OPTION_FIELDS`) plus the service caps; the service-only
    fields declare their own bounds.
    """

    source: str
    language: str = knob("verilog", choices=ALLOWED_LANGUAGES, help="language of 'source'")
    pins: Tuple[str, ...] = ()
    solver: str = "sa"
    num_reads: int = 100
    num_sweeps: Optional[int] = None
    seed: Optional[int] = knob(
        None, minimum=-(2**62), maximum=2**62, help="RNG seed; None draws one at submission"
    )
    deadline_s: Optional[float] = knob(
        None, exclusive_minimum=0.0, maximum=3600.0, help="wall-clock budget in seconds"
    )
    top: Optional[str] = None
    unroll_steps: Optional[int] = None
    use_roof_duality: bool = False
    certify: bool = False
    return_samples: bool = knob(False, help="include the raw reads in the result")
    max_solutions: int = knob(
        16, minimum=1, maximum=MAX_SOLUTIONS_CAP, help="cap on the solutions reported"
    )

    def options(self, schema: type) -> Any:
        """This request's :class:`RunOptions` or :class:`CompileOptions`."""
        return schema(
            **{
                name: getattr(self, name)
                for name, owner in _OPTION_FIELDS.items()
                if owner is schema
            }
        )

    @classmethod
    def from_payload(cls, payload: Any) -> "JobRequest":
        """Validate a decoded JSON body into a request (or raise 400).

        Source and pins are *parsed* here -- a submission with a syntax
        error is rejected synchronously with a 400 whose payload
        carries the one-line :func:`format_diagnostic` rendering plus
        the raw line/column, rather than burning a worker slot to
        discover the same thing asynchronously.
        """
        if not isinstance(payload, dict):
            raise _invalid("request body must be a JSON object")
        unknown = sorted(
            set(payload)
            - {f for f in cls.__dataclass_fields__}  # noqa: C416 (py39)
            - {"tenant"}
        )
        if unknown:
            raise _invalid(f"unknown field(s): {', '.join(unknown)}")

        source = payload.get("source")
        if not isinstance(source, str) or not source.strip():
            raise _invalid("'source' must be a non-empty string", field="source")
        if len(source.encode("utf-8")) > MAX_SOURCE_BYTES:
            raise _invalid(
                f"'source' exceeds {MAX_SOURCE_BYTES} bytes", field="source"
            )

        values: Dict[str, Any] = {}
        for name, spec in cls.__dataclass_fields__.items():
            if name in ("source", "pins"):
                continue
            value = payload.get(name, spec.default)
            try:
                check_value(_OPTION_FIELDS.get(name, cls), name, value)
            except OptionError as exc:
                raise _invalid(f"{name!r} {exc.reason}", field=name) from None
            cap = _CAPS.get(name)
            if cap is not None and value is not None and value > cap:
                raise _invalid(
                    f"{name!r} must be <= {cap}, got {value}", field=name
                )
            values[name] = value
        # A JSON integer is a valid budget; the request holds it as float.
        if values["deadline_s"] is not None:
            values["deadline_s"] = float(values["deadline_s"])

        pins_raw = payload.get("pins", [])
        if isinstance(pins_raw, str):
            pins_raw = [pins_raw]
        if not isinstance(pins_raw, list) or not all(
            isinstance(p, str) for p in pins_raw
        ):
            raise _invalid("'pins' must be a list of strings", field="pins")
        for text in pins_raw:
            try:
                parse_pin(text)
            except QmasmError as exc:
                raise ServiceError(
                    400,
                    "invalid_pin",
                    str(exc),
                    field="pins",
                    diagnostic=format_diagnostic(
                        str(exc), source=f"pin {text!r}"
                    ),
                ) from exc

        # Syntax-check the source now: submission is the synchronous
        # moment, and the frontend errors carry line/column positions.
        if values["language"] == "verilog":
            try:
                from repro.hdl.parser import parse as parse_verilog

                parse_verilog(source)
            except VerilogError as exc:
                raise ServiceError(
                    400,
                    "invalid_source",
                    str(exc),
                    language="verilog",
                    line=exc.line,
                    column=exc.column,
                    diagnostic=format_diagnostic(str(exc), source="verilog"),
                ) from exc
        else:
            try:
                parse_qmasm(source)
            except QmasmError as exc:
                raise ServiceError(
                    400,
                    "invalid_source",
                    str(exc),
                    language="qmasm",
                    line=exc.line,
                    diagnostic=format_diagnostic(str(exc), source="qmasm"),
                ) from exc

        return cls(source=source, pins=tuple(pins_raw), **values)


@dataclass
class Job:
    """One submission moving through the queue; mutated under its lock."""

    id: str
    request: JobRequest
    tenant: str = "anonymous"
    state: str = JobState.QUEUED
    created_s: float = field(default_factory=time.time)
    started_s: Optional[float] = None
    finished_s: Optional[float] = None
    result: Optional[Dict[str, Any]] = None
    error: Optional[Dict[str, Any]] = None
    cache_warm: bool = False
    stage_records: List[Dict[str, Any]] = field(default_factory=list)
    #: Worker pickups so far (journaled; recovery quarantines a job
    #: whose attempts reach the poison threshold with no terminal).
    attempts: int = 0
    #: The submission's Idempotency-Key, when one was given.
    idempotency_key: Optional[str] = None
    #: True when this job was rebuilt from the journal after a restart.
    recovered: bool = False

    def __post_init__(self):
        self._lock = threading.Lock()
        self._terminal_sink: Optional[Callable[["Job"], None]] = None

    def bind_terminal_sink(self, sink: Callable[["Job"], None]) -> None:
        """Install the journal callback invoked on every terminal transition.

        Bound at creation (and at recovery), so *every* path that
        finishes a job -- the executor, the pool's crash guard, the
        queue-full rejection, shutdown fail-out -- durably records the
        terminal state without each call site remembering to.
        """
        self._terminal_sink = sink

    # -- lifecycle -----------------------------------------------------
    def mark_running(self) -> int:
        """Transition to running; returns the (1-based) attempt number."""
        with self._lock:
            self.state = JobState.RUNNING
            self.started_s = time.time()
            self.attempts += 1
            return self.attempts

    def finish(
        self,
        state: str,
        result: Optional[Dict[str, Any]] = None,
        error: Optional[Dict[str, Any]] = None,
        cache_warm: bool = False,
        stage_records: Optional[List[Dict[str, Any]]] = None,
    ) -> None:
        if state not in JobState.TERMINAL:
            raise ValueError(f"{state!r} is not a terminal job state")
        with self._lock:
            self.state = state
            self.finished_s = time.time()
            self.result = result
            self.error = error
            self.cache_warm = cache_warm
            if stage_records is not None:
                self.stage_records = stage_records
            sink = self._terminal_sink
        # The sink fsyncs; invoke it outside the lock so snapshot
        # readers are never blocked behind journal I/O.
        if sink is not None:
            sink(self)

    # -- views ---------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """A consistent JSON-safe view of this job's current state."""
        with self._lock:
            body: Dict[str, Any] = {
                "id": self.id,
                "state": self.state,
                "tenant": self.tenant,
                "solver": self.request.solver,
                "language": self.request.language,
                "created_s": self.created_s,
                "started_s": self.started_s,
                "finished_s": self.finished_s,
                "cache_warm": self.cache_warm,
                "links": {
                    "self": f"/jobs/{self.id}",
                    "trace": f"/jobs/{self.id}/trace",
                },
            }
            if self.started_s is not None:
                body["queue_wait_s"] = self.started_s - self.created_s
            if self.finished_s is not None and self.started_s is not None:
                body["run_s"] = self.finished_s - self.started_s
            if self.result is not None:
                body["result"] = self.result
            if self.error is not None:
                body["error"] = self.error
            if self.attempts > 1:
                body["attempts"] = self.attempts
            if self.recovered:
                body["recovered"] = True
            return body

    def terminal_record(self) -> Dict[str, Any]:
        """The journal's ``terminal`` payload: everything a restarted
        server needs to keep answering ``GET /jobs/<id>`` for this job."""
        with self._lock:
            return {
                "state": self.state,
                "result": self.result,
                "error": self.error,
                "cache_warm": self.cache_warm,
                "stage_records": list(self.stage_records),
                "started_s": self.started_s,
                "finished_s": self.finished_s,
                "attempts": self.attempts,
            }

    def trace_payload(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "id": self.id,
                "state": self.state,
                "stages": list(self.stage_records),
            }

    def is_terminal(self) -> bool:
        with self._lock:
            return self.state in JobState.TERMINAL


_JOB_ID_SEQ_RE = re.compile(r"^job-(\d+)-")


class JobStore:
    """Thread-safe registry of jobs, bounded by evicting old terminals.

    Completed jobs are retained so clients can poll results, but a
    serving process must not grow without bound: once ``max_jobs`` is
    exceeded the oldest *terminal* jobs are evicted first (active jobs
    are never dropped).  Evictions leave a bounded *tombstone* behind,
    so a poll for a recently-evicted job can answer a structured
    ``410 Gone`` (with eviction metadata) instead of an
    indistinguishable-from-a-typo 404.
    """

    def __init__(self, max_jobs: int = 1024, max_tombstones: Optional[int] = None):
        self.max_jobs = max_jobs
        self.max_tombstones = (
            max_tombstones if max_tombstones is not None else max(1024, 4 * max_jobs)
        )
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._tombstones: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._lock = threading.Lock()
        self._next_seq = 1

    def create(self, request: JobRequest, tenant: str) -> Job:
        with self._lock:
            job_id = f"job-{self._next_seq:06d}-{secrets.token_hex(4)}"
            self._next_seq += 1
            job = Job(id=job_id, request=request, tenant=tenant)
            self._jobs[job_id] = job
            self._evict_locked()
            return job

    def restore(self, job: Job) -> None:
        """Re-insert a journal-recovered job under its original id.

        Bumps the sequence counter past the recovered id so post-restart
        submissions never reuse a journaled sequence number.
        """
        with self._lock:
            match = _JOB_ID_SEQ_RE.match(job.id)
            if match:
                self._next_seq = max(self._next_seq, int(match.group(1)) + 1)
            self._jobs[job.id] = job
            self._evict_locked()

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def all_jobs(self) -> List[Job]:
        """Retained jobs in insertion order (for journal compaction)."""
        with self._lock:
            return list(self._jobs.values())

    def evicted_info(self, job_id: str) -> Optional[Dict[str, Any]]:
        """Eviction metadata for a job dropped by the retention bound."""
        with self._lock:
            info = self._tombstones.get(job_id)
            return dict(info) if info is not None else None

    def counts(self) -> Dict[str, int]:
        with self._lock:
            by_state = {state: 0 for state in JobState.ALL}
            for job in self._jobs.values():
                by_state[job.state] = by_state.get(job.state, 0) + 1
            return by_state

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)

    def _evict_locked(self) -> None:
        if len(self._jobs) <= self.max_jobs:
            return
        for job_id in list(self._jobs):
            if len(self._jobs) <= self.max_jobs:
                break
            job = self._jobs[job_id]
            if job.state in JobState.TERMINAL:
                del self._jobs[job_id]
                self._tombstones[job_id] = {
                    "state_at_eviction": job.state,
                    "created_s": job.created_s,
                    "finished_s": job.finished_s,
                    "evicted_s": time.time(),
                    "tenant": job.tenant,
                }
                while len(self._tombstones) > self.max_tombstones:
                    self._tombstones.popitem(last=False)
