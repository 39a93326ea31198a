"""The experiment service daemon: stdlib HTTP JSON API over the engine.

One :class:`ExperimentServer` owns the four moving parts — the
deduplicating :class:`~repro.serve.queue.JobQueue`, the
:class:`~repro.serve.executor.WorkerPool`, the drain
:class:`~repro.serve.journal.JobJournal` and a
:class:`~http.server.ThreadingHTTPServer` — and wires them to the
process's :mod:`repro.obs` registry so engine-level telemetry (replay
cache hits, validation quarantines, per-job timers) is visible at
``/metrics``.

Endpoints (all JSON; errors use the ``error[<code>]`` contract)::

    GET  /healthz              liveness + queue/worker/cache summary
    GET  /metrics              the full obs registry snapshot
    POST /jobs                 submit a job spec -> 202 {job, deduped}
                               (429 + Retry-After on backpressure,
                                503 while draining)
    POST /plan                 submit a dse job ({scale, seed})
                               at the plan priority tier -> 202
    GET  /jobs                 every job's status record
    GET  /jobs/<id>            one job's status record; with
                               ``?wait=running|terminal&timeout_s=N``
                               long-polls on the queue's condition until
                               the job reaches that state (no sleep
                               polling, bounded by the timeout)
    GET  /jobs/<id>/result     the result payload (DONE jobs; 409 while
                               pending, 500 for failed, 410 cancelled)
    POST /jobs/<id>/cancel     cancel a still-queued job (409 later)
    GET  /store/<digest>       raw stored result bytes from the shared
                               result store (404 miss, 503 if no store);
                               read-only — only workers write the store

Lifecycle: :meth:`ExperimentServer.start` binds (an address it cannot
bind is a :class:`~repro.errors.ServeError`, and the journal stays for
the next start), restores any journaled queued jobs from a previous
drain, and spawns workers;
:meth:`~ExperimentServer.drain` (normally triggered by SIGTERM through
:meth:`~ExperimentServer.install_signal_handlers`) stops accepting,
lets in-flight jobs finish, journals the still-queued ones and shuts
the listener down — no accepted job is ever lost across
drain + restart.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from repro.errors import (
    QueueFullError,
    ReproError,
    ServeError,
    render_error,
)
from repro.obs import metrics as _metrics
from repro.obs.metrics import MetricsRegistry
from repro.serve.executor import DEFAULT_WORKERS, WorkerPool
from repro.serve.journal import JobJournal
from repro.serve.jobs import PLAN_PRIORITY, JobState, normalize_spec
from repro.serve.queue import DEFAULT_MAX_QUEUED, JobQueue
from repro.serve.store import FileResultStore
from repro.sim.parallel import FaultPolicy

#: Bind address and port when the caller names none (``serve --host``
#: and ``--port``).
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8765

#: Hard ceiling on one long-poll round; clients re-issue rounds, so the
#: cap bounds how long a dead client can pin a handler thread.
LONG_POLL_MAX_S = 60.0


class _ServeHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying a back-pointer to the service."""

    daemon_threads = True
    experiment_server: "ExperimentServer"


class _Handler(BaseHTTPRequestHandler):
    """Request handler: thin routing over the owning server's queue."""

    server: _ServeHTTPServer
    protocol_version = "HTTP/1.1"

    # -- plumbing ---------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:
        if os.environ.get("REPRO_SERVE_LOG", "").strip():
            super().log_message(format, *args)

    def _send(
        self,
        status: int,
        body: bytes,
        content_type: str = "application/json",
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_json(
        self,
        status: int,
        payload: Dict[str, Any],
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self._send(status, body, extra_headers=extra_headers)

    def _send_error_payload(self, error: ReproError) -> None:
        headers = {}
        if isinstance(error, QueueFullError):
            headers["Retry-After"] = f"{error.retry_after_s:g}"
        self._send_json(
            getattr(error, "http_status", 400),
            {"error": render_error(error), "code": error.code},
            extra_headers=headers,
        )

    def _read_body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ServeError("request body must be a JSON object")
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as error:
            raise ServeError(f"request body is not valid JSON: {error}")
        if not isinstance(body, dict):
            raise ServeError("request body must be a JSON object")
        return body

    def _route(self, method: str) -> None:
        service = self.server.experiment_server
        try:
            handled = service.handle(method, self.path, self)
        except ReproError as error:
            self._send_error_payload(error)
            return
        except Exception as error:  # never leak a traceback to the wire
            self._send_error_payload(
                ServeError(f"internal error: {error}", http_status=500)
            )
            return
        if not handled:
            self._send_error_payload(
                ServeError(
                    f"unknown endpoint {method} {self.path}", http_status=404
                )
            )

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        self._route("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._route("POST")


class ExperimentServer:
    """The long-running experiment service (see module docstring)."""

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        workers: int = DEFAULT_WORKERS,
        max_queued: int = DEFAULT_MAX_QUEUED,
        state_dir: Optional[str] = None,
        policy: Optional[FaultPolicy] = None,
        registry: Optional[MetricsRegistry] = None,
        store: Optional[FileResultStore] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.state_dir = state_dir
        self.store = store
        self.queue = JobQueue(max_queued=max_queued)
        self.pool = WorkerPool(
            self.queue, workers=workers, policy=policy,
            state_dir=state_dir, store=store,
        )
        self.journal = (
            JobJournal(self.state_dir) if self.state_dir is not None else None
        )
        self.registry = registry if registry is not None else MetricsRegistry()
        self._previous_registry: Optional[MetricsRegistry] = None
        self._httpd: Optional[_ServeHTTPServer] = None
        self._listener: Optional[threading.Thread] = None
        self._drain_requested = threading.Event()
        self._drained = False
        self.started_unix: Optional[float] = None
        self.restored_jobs = 0

    # -- lifecycle --------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) — resolves ``port=0`` ephemerals."""
        if self._httpd is None:
            return (self.host, self.port)
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        """Base URL of the bound listener."""
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ExperimentServer":
        """Bind, restore journaled jobs, spawn workers and the listener.

        Binding comes first: a start that cannot bind raises
        :class:`~repro.errors.ServeError` with the journal still on disk
        and the process's registry untouched.
        """
        if self._httpd is not None:
            raise ServeError("server already started", http_status=500)
        try:
            self._httpd = _ServeHTTPServer((self.host, self.port), _Handler)
        except (OSError, OverflowError) as error:
            raise ServeError(
                f"cannot bind {self.host}:{self.port}: {error}"
            ) from error
        self._httpd.experiment_server = self
        self._previous_registry = _metrics.get_registry()
        _metrics.enable(self.registry)
        self._restore_journal()
        self.pool.start()
        self._listener = threading.Thread(
            target=self._httpd.serve_forever,
            name="serve-listener",
            daemon=True,
        )
        self._listener.start()
        self.started_unix = time.time()
        return self

    def _restore_journal(self) -> None:
        if self.journal is None:
            return
        for record in self.journal.load():
            try:
                spec = normalize_spec(record["spec"])
                job, deduped = self.queue.submit(
                    spec,
                    priority=int(record.get("priority", 0)),
                    job_id=str(record["id"]),
                    enforce_bound=False,
                )
            except ReproError:
                _metrics.counter_add("serve.journal.corrupt")
                continue
            if not deduped:
                job.submitted_unix = float(
                    record.get("submitted_unix", job.submitted_unix)
                )
                self.restored_jobs += 1
                _metrics.counter_add("serve.jobs.restored")
        self.journal.clear()

    def install_signal_handlers(self) -> None:
        """Route SIGTERM/SIGINT to a drain request (main thread only)."""
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, lambda *_: self.request_drain())

    def request_drain(self) -> None:
        """Ask for a graceful drain (signal-safe, idempotent)."""
        self._drain_requested.set()

    def wait_for_drain_request(self, timeout: Optional[float] = None) -> bool:
        """Block until a drain has been requested."""
        return self._drain_requested.wait(timeout)

    def drain(self) -> Dict[str, Any]:
        """Gracefully stop: finish in-flight, journal queued, shut down.

        Returns a summary dict (journaled/completed counts).  Idempotent:
        a second call returns the first call's effect shape with zero
        newly journaled jobs.
        """
        self._drain_requested.set()
        self.queue.reject_submissions(
            "service is draining; resubmit after restart"
        )
        self.queue.pause_dispatch()
        queued = self.queue.queued_jobs()
        journaled = 0
        if self.journal is not None and not self._drained:
            journaled = self.journal.write_jobs(queued)
        self.pool.stop(wait=True)
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._listener is not None:
            self._listener.join(timeout=5.0)
            self._listener = None
        if not self._drained:
            if self._previous_registry is not None:
                _metrics.enable(self._previous_registry)
            elif _metrics.get_registry() is self.registry:
                _metrics.disable()
            self._previous_registry = None
        self._drained = True
        counts = self.queue.counts()
        return {
            "journaled": journaled,
            "queued": len(queued),
            "done": counts[JobState.DONE.value],
            "failed": counts[JobState.FAILED.value],
            "cancelled": counts[JobState.CANCELLED.value],
        }

    def serve_until_drained(self, stream=None) -> Dict[str, Any]:
        """The daemon main loop: start, announce, wait for SIGTERM, drain."""
        import sys

        if stream is None:
            stream = sys.stdout
        self.install_signal_handlers()
        self.start()
        stream.write(f"repro-serve listening on {self.url}\n")
        if self.restored_jobs:
            stream.write(
                f"restored {self.restored_jobs} journaled jobs from "
                f"{self.state_dir}\n"
            )
        stream.flush()
        while not self.wait_for_drain_request(timeout=60.0):
            pass
        summary = self.drain()
        stream.write(
            f"drained: {summary['done']} done, {summary['journaled']} "
            f"queued jobs journaled"
            + (f" to {self.state_dir}" if self.state_dir else "")
            + "\n"
        )
        stream.flush()
        return summary

    # -- request handling -------------------------------------------------

    def handle(self, method: str, path: str, http: _Handler) -> bool:
        """Route one request; returns False for an unknown endpoint."""
        from urllib.parse import parse_qs

        path, _, query_string = path.partition("?")
        query = parse_qs(query_string)
        path = path.rstrip("/") or "/"
        if method == "GET" and path == "/healthz":
            http._send_json(200, self._health())
            return True
        if method == "GET" and path == "/metrics":
            http._send_json(200, self.registry.snapshot())
            return True
        if method == "POST" and path == "/jobs":
            self._submit(http)
            return True
        if method == "POST" and path == "/plan":
            self._plan(http)
            return True
        if method == "GET" and path == "/jobs":
            http._send_json(200, {"jobs": self.queue.describe()})
            return True
        parts = path.strip("/").split("/")
        if method == "GET" and len(parts) == 2 and parts[0] == "store":
            self._store_get(http, parts[1])
            return True
        if len(parts) >= 2 and parts[0] == "jobs":
            job_id = parts[1]
            if method == "GET" and len(parts) == 2:
                self._job_status(http, job_id, query)
                return True
            if method == "GET" and len(parts) == 3 and parts[2] == "result":
                self._result(http, job_id)
                return True
            if method == "POST" and len(parts) == 3 and parts[2] == "cancel":
                job = self.queue.cancel(job_id)
                http._send_json(200, {"job": job.describe()})
                return True
        return False

    def _health(self) -> Dict[str, Any]:
        from repro import __version__
        from repro.sim.replay_cache import default_cache

        counts = self.queue.counts()
        return {
            "status": "draining" if self._drain_requested.is_set() else "ok",
            "version": __version__,
            "uptime_s": (
                time.time() - self.started_unix if self.started_unix else 0.0
            ),
            "queue": counts,
            "queued": counts[JobState.QUEUED.value],
            "running": counts[JobState.RUNNING.value],
            "queue_bound": self.queue.max_queued,
            "workers": self.pool.workers,
            "state_dir": self.state_dir,
            "cache": default_cache().stats(),
            "store": self.store.stats() if self.store is not None else None,
        }

    def _job_status(self, http: _Handler, job_id: str, query) -> None:
        """``GET /jobs/<id>`` — immediate, or a long-poll round."""
        wait = (query.get("wait") or [None])[0]
        if wait is None:
            job = self.queue.job(job_id)
        else:
            raw = (query.get("timeout_s") or ["30"])[0]
            try:
                timeout = float(raw)
            except ValueError:
                raise ServeError(f"timeout_s must be a number, got {raw!r}")
            timeout = min(max(timeout, 0.0), LONG_POLL_MAX_S)
            job = self.queue.wait_for_state(job_id, wait, timeout=timeout)
        http._send_json(200, {"job": job.describe()})

    def _store_get(self, http: _Handler, digest: str) -> None:
        if self.store is None:
            raise ServeError("no result store configured", http_status=503)
        payload = self.store.get(digest)
        if payload is None:
            raise ServeError(
                f"no stored result for digest {digest!r}", http_status=404
            )
        http._send(200, payload, content_type="application/octet-stream")

    def _submit(self, http: _Handler) -> None:
        body = http._read_body()
        priority = 0
        if "priority" in body:
            from repro.validate.schema import coerce_number

            priority = int(
                coerce_number(
                    "priority", body["priority"], lo=-1000, hi=1000,
                    integer=True, error=ServeError,
                )
            )
        spec = normalize_spec(body)
        job, deduped = self.queue.submit(spec, priority=priority)
        http._send_json(202, {"job": job.describe(), "deduped": deduped})

    def _plan(self, http: _Handler) -> None:
        """``POST /plan``: a ``dse`` job at the plan priority tier.

        The body carries only ``scale``/``seed`` — the experiment is
        forced to ``dse``, and the job rides above the user priority
        band (:data:`~repro.serve.jobs.PLAN_PRIORITY`): its grid is a
        few workloads at one replay per distinct capacity, so letting
        it jump the queue costs little and unblocks design decisions
        early.
        """
        from repro.validate.schema import validate_keys

        body = http._read_body()
        validate_keys(body.keys(), ("scale", "seed"),
                      kind="plan request key", error=ServeError)
        spec = normalize_spec(dict(body, experiment="dse"))
        job, deduped = self.queue.submit(spec, priority=PLAN_PRIORITY)
        _metrics.counter_add("serve.plans.submitted")
        http._send_json(202, {"job": job.describe(), "deduped": deduped})

    def _result(self, http: _Handler, job_id: str) -> None:
        job = self.queue.job(job_id)
        if job.state is JobState.DONE:
            assert job.result_bytes is not None
            http._send(200, job.result_bytes)
            return
        if job.state is JobState.FAILED:
            raise ServeError(
                f"job {job_id} failed: {job.error} "
                f"[{job.error_code}]",
                http_status=500,
            )
        if job.state is JobState.CANCELLED:
            raise ServeError(f"job {job_id} was cancelled", http_status=410)
        raise ServeError(
            f"job {job_id} is {job.state.value}; poll /jobs/{job_id} until "
            "it is done",
            http_status=409,
        )
