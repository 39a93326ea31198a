"""Client for the experiment service, and the fleet's one HTTP exchange.

:func:`exchange` sends one request over a fresh :mod:`http.client`
connection; :class:`ServeClient` and the router's upstream side
(:class:`~repro.serve.router.ShardRouter`) both go through it, so a
failed transport maps one way: no connection, or a failure after
connecting (the server hanging up included), is a 503
:class:`TransportError`, and a timeout a 504.

:class:`ServeClient` is what ``repro-cli submit|status|fetch`` and the
serve tests (``tests/serve/test_load.py``, the fleet cases of
``tests/test_cli.py``) speak through, to one daemon or to a fleet's
router — the same API either way.
Error responses are mapped back into the structured error hierarchy:
a 429 becomes a :class:`~repro.errors.QueueFullError` carrying the
server's ``Retry-After`` hint, a router 503 with code ``DEGRADED``
becomes a :class:`~repro.errors.DegradedError` (retryable — see
:func:`submit_with_backoff`), anything else with a JSON error body
becomes a :class:`~repro.errors.ServeError` whose ``code`` is the
server-side error code — so a caller sees the same ``error[<code>]``
rendering whether the failure happened locally or across the wire.

Waiting is long-poll, not sleep-poll: :meth:`ServeClient.wait` issues
``GET /jobs/<id>?wait=terminal&timeout_s=N`` rounds, each parked on the
server's state-transition condition, so a finished job is observed
within one wire round-trip instead of a poll interval.
"""

from __future__ import annotations

import json
import time
from http.client import HTTPConnection, HTTPException
from typing import Any, Dict, List, NamedTuple, Optional
from urllib.parse import quote

from repro.errors import DegradedError, QueueFullError, ServeError

#: Base URL when the caller names none (the daemon's default bind
#: address).
DEFAULT_URL = "http://127.0.0.1:8765"

#: Transport allowance on top of a long-poll round: the socket read
#: timeout must strictly exceed the server-side park duration or the
#: two expire in a dead heat and the client sees a raw socket timeout
#: instead of the server's in-whatever-state-it-is response.
LONG_POLL_GRACE_S = 10.0


class Response(NamedTuple):
    """One HTTP response, whatever its status."""

    status: int
    body: bytes
    content_type: str = "application/json"
    retry_after: Optional[str] = None


class TransportError(ServeError):
    """No response came back: 504 if the timeout ran out, else 503.

    ``connected`` tells a failure to connect from one after the
    connection was made (a hang-up included); the router counts them
    apart.
    """

    def __init__(self, message: str, http_status: int, connected: bool):
        super().__init__(message, http_status=http_status)
        self.connected = connected


def exchange(
    url: str, method: str, path: str, body: bytes, timeout_s: float
) -> Response:
    """``method path`` to the server at base ``url``, on a fresh
    connection; every HTTP request the fleet makes goes through here.

    Returns the response whatever its status, or raises
    :class:`TransportError` when none came back.
    """
    connected = False
    try:
        connection = HTTPConnection(
            url.rpartition("://")[2], timeout=timeout_s
        )
        try:
            connection.connect()
            connected = True
            connection.request(method, path, body=body, headers={
                "Content-Type": "application/json", "Connection": "close",
            })
            reply = connection.getresponse()
            return Response(
                reply.status, reply.read(),
                reply.getheader("Content-Type", "application/json"),
                reply.getheader("Retry-After"),
            )
        finally:
            connection.close()
    except TimeoutError as error:
        raise TransportError(
            f"no response from {url} within {timeout_s:g}s", 504, connected
        ) from error
    except (OSError, HTTPException) as error:
        raise TransportError(
            f"{url} failed mid-request: {error}" if connected
            else f"cannot reach {url}: {error}",
            503, connected,
        ) from error


class ServeClient:
    """Thin JSON client over one service base URL."""

    def __init__(
        self, url: Optional[str] = None, timeout_s: float = 30.0
    ) -> None:
        self.url = (DEFAULT_URL if url is None else url).rstrip("/")
        self.timeout_s = timeout_s

    # -- transport --------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        timeout_s: Optional[float] = None,
    ) -> bytes:
        response = exchange(
            self.url, method, path,
            b"" if body is None else json.dumps(body).encode(),
            self.timeout_s if timeout_s is None else timeout_s,
        )
        if not 200 <= response.status < 300:
            raise self._to_error(response)
        return response.body

    @staticmethod
    def _to_error(response: Response) -> ServeError:
        """Rebuild the server's structured error from an HTTP response."""
        message = f"HTTP {response.status}"
        code = None
        try:
            payload = json.loads(response.body)
            message = str(payload.get("error", message))
            code = payload.get("code")
        except (ValueError, AttributeError):
            if response.body:
                message = f"{message}: {response.body[:200]!r}"
        try:
            retry_after = float(response.retry_after or "1")
        except ValueError:
            retry_after = 1.0
        if response.status == 429:
            return QueueFullError(message, retry_after_s=retry_after)
        if code == "DEGRADED":
            return DegradedError(message, retry_after_s=retry_after)
        out = ServeError(message, http_status=response.status)
        if isinstance(code, str) and code:
            out.code = code
        return out

    def _json(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        timeout_s: Optional[float] = None,
    ) -> Dict[str, Any]:
        return json.loads(
            self._request(method, path, body, timeout_s=timeout_s)
        )

    # -- API --------------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        """``GET /healthz``."""
        return self._json("GET", "/healthz")

    def metrics(self) -> Dict[str, Any]:
        """``GET /metrics`` — the service's obs registry snapshot."""
        return self._json("GET", "/metrics")

    def ring(self) -> Dict[str, Any]:
        """``GET /ring`` — fleet membership, ring version, per-shard
        health and store occupancy (router endpoints only)."""
        return self._json("GET", "/ring")

    def ring_join(self, url: str) -> Dict[str, Any]:
        """``POST /ring/join`` — add a shard to the router's live ring."""
        return self._json("POST", "/ring/join", {"url": url})

    def ring_leave(self, url: str) -> Dict[str, Any]:
        """``POST /ring/leave`` — remove a shard from the live ring and
        forget it."""
        return self._json("POST", "/ring/leave", {"url": url})

    def submit(
        self,
        experiment: str,
        scale: float = 1.0,
        seed: Optional[int] = None,
        priority: int = 0,
    ) -> Dict[str, Any]:
        """``POST /jobs`` — returns ``{"job": {...}, "deduped": bool}``."""
        body: Dict[str, Any] = {"experiment": experiment, "scale": scale}
        if seed is not None:
            body["seed"] = seed
        if priority:
            body["priority"] = priority
        return self._json("POST", "/jobs", body)

    def status(self, job_id: str) -> Dict[str, Any]:
        """``GET /jobs/<id>`` — the job's status record."""
        return self._json("GET", f"/jobs/{quote_segment(job_id)}")["job"]

    def list_jobs(self) -> List[Dict[str, Any]]:
        """``GET /jobs`` — every job's status record."""
        return self._json("GET", "/jobs")["jobs"]

    def result_bytes(self, job_id: str) -> bytes:
        """``GET /jobs/<id>/result`` — the raw canonical payload bytes."""
        return self._request("GET", f"/jobs/{quote_segment(job_id)}/result")

    def result(self, job_id: str) -> Dict[str, Any]:
        """The result payload, parsed."""
        return json.loads(self.result_bytes(job_id))

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """``POST /jobs/<id>/cancel``."""
        path = f"/jobs/{quote_segment(job_id)}/cancel"
        return self._json("POST", path)["job"]

    def wait_state(
        self, job_id: str, target: str, timeout_s: float = 30.0
    ) -> Dict[str, Any]:
        """One long-poll round: ``GET /jobs/<id>?wait=<target>``.

        Returns the job record when it reaches ``target`` ("running" or
        "terminal") or at the round's timeout in whatever state it is
        then — the caller inspects ``record["state"]``.  The transport
        timeout is the round plus :data:`LONG_POLL_GRACE_S` so the
        server-side park always resolves first.
        """
        return self._json(
            "GET",
            f"/jobs/{quote_segment(job_id)}"
            f"?wait={target}&timeout_s={timeout_s:g}",
            timeout_s=max(self.timeout_s, timeout_s + LONG_POLL_GRACE_S),
        )["job"]

    def wait(
        self,
        job_id: str,
        timeout_s: float = 300.0,
        poll_s: float = 15.0,
    ) -> Dict[str, Any]:
        """Long-poll until the job is terminal; returns its record.

        ``poll_s`` bounds one long-poll round (the server parks the
        request on its state-change condition — a finished job returns
        within one round-trip, not a poll interval).  Raises
        :class:`~repro.errors.ServeError` on overall timeout.
        """
        deadline = time.monotonic() + timeout_s
        while True:
            remaining = deadline - time.monotonic()
            round_s = max(0.0, min(poll_s, remaining))
            try:
                record = self.wait_state(
                    job_id, "terminal", timeout_s=round_s
                )
            except ServeError as error:
                # A transport 504 (slow host, not a slow job) is
                # retryable while the overall deadline allows.
                if (getattr(error, "http_status", None) != 504
                        or time.monotonic() >= deadline):
                    raise
                continue
            if record["state"] in ("done", "failed", "cancelled"):
                return record
            if time.monotonic() >= deadline:
                raise ServeError(
                    f"timed out after {timeout_s:g}s waiting for job "
                    f"{job_id} (last state: {record['state']})",
                    http_status=504,
                )

    def store_get(self, digest: str) -> bytes:
        """``GET /store/<digest>`` — raw stored payload bytes."""
        return self._request("GET", f"/store/{quote_segment(digest)}")


def quote_segment(value: str) -> str:
    """One path segment, percent-quoted: the request line is ASCII, and
    a space or ``/`` in an id must not change the path's shape.  The
    server and the router unquote each segment."""
    return quote(value, safe="")


def submit_with_backoff(
    client: ServeClient,
    experiment: str,
    scale: float = 1.0,
    seed: Optional[int] = None,
    priority: int = 0,
    attempts: int = 4,
    sleep=time.sleep,
) -> Dict[str, Any]:
    """Submit, backing off on retryable fleet conditions.

    Both retryable errors carry a server-chosen ``Retry-After`` hint:
    :class:`~repro.errors.QueueFullError` (the queue is at capacity)
    and :class:`~repro.errors.DegradedError` (the owning shard is down
    and not yet ejected/healed).  Submissions are idempotent by spec
    digest, so resubmitting after either is loss-free by construction.
    The last attempt re-raises.
    """
    if attempts < 1:
        raise ServeError("submit needs at least one attempt")
    for attempt in range(1, attempts + 1):
        try:
            return client.submit(
                experiment, scale=scale, seed=seed, priority=priority
            )
        except (QueueFullError, DegradedError) as error:
            if attempt == attempts:
                raise
            sleep(min(max(error.retry_after_s, 0.05), 30.0))
    raise AssertionError("unreachable")  # pragma: no cover
