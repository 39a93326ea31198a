"""Client for the experiment service: urllib over the JSON API.

:class:`ServeClient` is what ``repro-cli submit|status|fetch`` and the
serve tests (``tests/serve/test_load.py``, the fleet cases of
``tests/test_cli.py``) speak through, to one daemon or to a fleet's
:class:`~repro.serve.router.ShardRouter` — the same API either way.
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
import os
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional

from repro.errors import DegradedError, QueueFullError, ServeError

#: Environment variable naming the service base URL.
URL_ENV = "REPRO_SERVE_URL"

#: Default base URL (the daemon's default bind address).
DEFAULT_URL = "http://127.0.0.1:8765"

#: Transport allowance on top of a long-poll round: the socket read
#: timeout must strictly exceed the server-side park duration or the
#: two expire in a dead heat and the client sees a raw socket timeout
#: instead of the server's in-whatever-state-it-is response.
LONG_POLL_GRACE_S = 10.0


def resolve_url(url: Optional[str] = None) -> str:
    """Base URL: explicit argument > ``REPRO_SERVE_URL`` > default."""
    if url is None:
        url = os.environ.get(URL_ENV, "").strip() or DEFAULT_URL
    return url.rstrip("/")


class ServeClient:
    """Thin JSON client over one service base URL."""

    def __init__(
        self, url: Optional[str] = None, timeout_s: float = 30.0
    ) -> None:
        self.url = resolve_url(url)
        self.timeout_s = timeout_s

    # -- transport --------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        timeout_s: Optional[float] = None,
    ) -> bytes:
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.url + path, data=data, headers=headers, method=method
        )
        timeout = self.timeout_s if timeout_s is None else timeout_s
        try:
            with urllib.request.urlopen(
                request, timeout=timeout
            ) as response:
                return response.read()
        except urllib.error.HTTPError as error:
            raise self._to_error(error)
        except urllib.error.URLError as error:
            if isinstance(error.reason, TimeoutError):
                raise ServeError(
                    f"no response from {self.url} within {timeout:g}s",
                    http_status=504,
                )
            raise ServeError(
                f"cannot reach experiment service at {self.url}: "
                f"{error.reason}",
                http_status=503,
            )
        except TimeoutError:
            # urllib wraps connect timeouts in URLError but lets read
            # timeouts escape raw; both are the same transport failure.
            raise ServeError(
                f"no response from {self.url} within {timeout:g}s",
                http_status=504,
            )

    @staticmethod
    def _to_error(error: urllib.error.HTTPError) -> ServeError:
        """Rebuild the server's structured error from an HTTP response."""
        raw = error.read()
        message = f"HTTP {error.code}"
        code = None
        try:
            payload = json.loads(raw)
            message = str(payload.get("error", message))
            code = payload.get("code")
        except (json.JSONDecodeError, AttributeError):
            if raw:
                message = f"{message}: {raw[:200]!r}"
        try:
            retry_after = float(error.headers.get("Retry-After", "1"))
        except (TypeError, ValueError):
            retry_after = 1.0
        if error.code == 429:
            return QueueFullError(message, retry_after_s=retry_after)
        if code == "DEGRADED":
            return DegradedError(message, retry_after_s=retry_after)
        out = ServeError(message, http_status=error.code)
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

    def ring_leave(self, url: str, forget: bool = False) -> Dict[str, Any]:
        """``POST /ring/leave`` — remove a shard from the live ring."""
        return self._json(
            "POST", "/ring/leave", {"url": url, "forget": forget}
        )

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

    def plan(
        self, scale: float = 1.0, seed: Optional[int] = None
    ) -> Dict[str, Any]:
        """``POST /plan`` — a ``dse`` job at the plan priority tier.

        Returns ``{"job": {...}, "deduped": bool}`` like :meth:`submit`;
        the server forces ``experiment="dse"`` and queues the job above
        the user priority band.
        """
        body: Dict[str, Any] = {"scale": scale}
        if seed is not None:
            body["seed"] = seed
        return self._json("POST", "/plan", body)

    def status(self, job_id: str) -> Dict[str, Any]:
        """``GET /jobs/<id>`` — the job's status record."""
        return self._json("GET", f"/jobs/{job_id}")["job"]

    def list_jobs(self) -> List[Dict[str, Any]]:
        """``GET /jobs`` — every job's status record."""
        return self._json("GET", "/jobs")["jobs"]

    def result_bytes(self, job_id: str) -> bytes:
        """``GET /jobs/<id>/result`` — the raw canonical payload bytes."""
        return self._request("GET", f"/jobs/{job_id}/result")

    def result(self, job_id: str) -> Dict[str, Any]:
        """The result payload, parsed."""
        return json.loads(self.result_bytes(job_id))

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """``POST /jobs/<id>/cancel``."""
        return self._json("POST", f"/jobs/{job_id}/cancel")["job"]

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
            f"/jobs/{job_id}?wait={target}&timeout_s={timeout_s:g}",
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
        return self._request("GET", f"/store/{digest}")


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
