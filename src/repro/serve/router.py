"""Multiplexed fleet front end: one event loop routing to N shards.

The :class:`ShardRouter` is the serve fleet's one front end: every
fleet launcher puts it in front of shards that share one result-store
directory, and clients talk to it, not to the shards.  It terminates
client HTTP on a single :mod:`asyncio` event loop — a parked long-poll
client costs one socket and a coroutine frame, not a thread, so
thousands of concurrent waiters multiplex onto the loop — and forwards
each request to the shard chosen by the consistent-hash
:class:`~repro.serve.ring.VersionedRing` over
:func:`~repro.serve.jobs.spec_digest`.

Because the ring keys on the *same* digest the per-shard queue dedups
on and the shared :class:`~repro.serve.store.FileResultStore` is keyed
by, placement composes with in-shard dedup into fleet-wide dedup, and
a routed ``/jobs/<id>/result`` response is proxied byte-for-byte — the
byte-identity contract survives the extra hop (pinned by
``tests/serve/test_identity.py``).  The router has no ``/store``
route: store bytes enter the store only from a shard's workers.

Routing rules::

    POST /jobs, /plan      by spec digest -> owning shard
    GET  /jobs/<id>[...]   by remembered id->shard home, else asking
                           every shard (only the owner knows the id)
    GET  /jobs             fan-out, concatenated, shard-tagged
    GET  /healthz          fan-out, aggregated fleet view
    GET  /ring             membership, ring version, per-shard health,
                           store occupancy (live-probed)
    POST /ring/join        {"url": ...} — add a shard to the live ring
    POST /ring/leave       {"url": ...} — remove a shard from the ring
    GET  /metrics          every shard's snapshot folded together via
                           MetricsRegistry.merge_snapshot, plus the
                           router's own serve.router.* / serve.shard.*
                           counters

Long-poll rounds (``GET /jobs/<id>?wait=...``) are *coalesced*: any
number of clients waiting on the same job/target share one upstream
long-poll connection, so a popular job costs the shard one parked
handler regardless of fan-in (``serve.router.wait_coalesced`` counts
the sharing).

Failure model
-------------

Membership is *dynamic*: the router tracks a versioned ring plus a
per-shard health record, heartbeats every member's ``/healthz`` every
``heartbeat_s`` seconds (default :data:`DEFAULT_HEARTBEAT_S`), and
after ``eject_after`` consecutive failures ejects the dead shard —
its arcs remap minimally onto the survivors, and the shared
content-addressed store means remapped digests that already completed
are served from the store instead of recomputed.  A recovered (or
supervisor-restarted) shard rejoins automatically on its first
successful heartbeat.

While a segment is uncovered — the owning shard is down but not yet
ejected, or a job's home died with the job's id — the router never
returns a silent 502: it either serves a finished job's result bytes
from the shared store through a live member's read-only
``GET /store/<digest>`` (``serve.router.store_served``) or raises the
structured, retryable :class:`~repro.errors.DegradedError` (HTTP 503 +
``Retry-After``), which ``repro-cli submit`` and the load harness back
off on.  The router itself holds no job state worth preserving, so it
has no journal — restart it freely, the shards are the truth.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import DegradedError, ReproError, ServeError, render_error
from repro.obs.metrics import MetricsRegistry
from repro.serve.jobs import normalize_spec, spec_digest
from repro.serve.ring import VersionedRing
from repro.serve.server import LONG_POLL_MAX_S

#: Upstream connect/read timeout for ordinary (non-long-poll) proxying.
UPSTREAM_TIMEOUT_S = 30.0

#: Cap on a client request body the router will buffer.
_MAX_BODY = 8 * 1024 * 1024

#: Heartbeat period in seconds (0 disables the monitor; failures are
#: then only noticed by traffic).
DEFAULT_HEARTBEAT_S = 2.0

#: One heartbeat probe's timeout in seconds.
DEFAULT_HEARTBEAT_TIMEOUT_S = 1.0

#: Consecutive failures before a member is ejected from the ring.
DEFAULT_EJECT_AFTER = 3


def _error_response(error: ReproError) -> "_Response":
    payload = {"error": render_error(error), "code": error.code}
    headers: Dict[str, str] = {}
    retry_after = getattr(error, "retry_after_s", None)
    if retry_after is not None:
        headers["Retry-After"] = f"{retry_after:g}"
    return _Response(
        getattr(error, "http_status", 400),
        json.dumps(payload, sort_keys=True).encode(),
        headers=headers,
    )


class _Response:
    """One upstream or router-originated HTTP response to relay."""

    def __init__(
        self,
        status: int,
        body: bytes,
        content_type: str = "application/json",
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self.status = status
        self.body = body
        self.content_type = content_type
        self.headers = headers or {}


class _Member:
    """One shard's membership + health record inside the router."""

    def __init__(self, url: str, index: int) -> None:
        self.url = url
        self.index = index
        self.state = "up"  # up | suspect | down
        self.in_ring = True
        self.consecutive_failures = 0
        self.last_ok_unix: Optional[float] = None
        self.last_error: Optional[str] = None
        #: Last successful ``/healthz`` payload (store occupancy lives
        #: here — the shard reports its store stats in its health).
        self.health: Optional[Dict[str, Any]] = None

    def describe(self) -> Dict[str, Any]:
        store = None
        if isinstance(self.health, dict):
            store = self.health.get("store")
        return {
            "index": self.index,
            "state": self.state,
            "in_ring": self.in_ring,
            "consecutive_failures": self.consecutive_failures,
            "last_ok_unix": self.last_ok_unix,
            "last_error": self.last_error,
            "store": store,
        }


class ShardRouter:
    """Asyncio front end multiplexing a fleet of serve shards."""

    def __init__(
        self,
        shards: Sequence[str],
        host: str = "127.0.0.1",
        port: int = 0,
        replicas: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        heartbeat_timeout_s: float = DEFAULT_HEARTBEAT_TIMEOUT_S,
        eject_after: int = DEFAULT_EJECT_AFTER,
    ) -> None:
        urls = [url.strip().rstrip("/") for url in shards if url.strip()]
        if not urls:
            raise ServeError("router needs at least one shard URL")
        self._ring = VersionedRing(urls, replicas=replicas)
        self._members: Dict[str, _Member] = {
            url: _Member(url, index) for index, url in enumerate(urls)
        }
        self.host = host
        self.port = port
        self.registry = registry if registry is not None else MetricsRegistry()
        self.heartbeat_s = heartbeat_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.eject_after = eject_after
        self._job_homes: Dict[str, str] = {}
        self._job_digests: Dict[str, str] = {}
        self._waits: Dict[Tuple[str, str], asyncio.Task] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._bind_error: Optional[Exception] = None
        self._drain_requested = threading.Event()
        self._bound: Optional[Tuple[str, int]] = None

    # -- membership views --------------------------------------------------

    @property
    def ring(self) -> VersionedRing:
        """The current versioned ring (immutable snapshot)."""
        return self._ring

    @property
    def ring_version(self) -> int:
        return self._ring.version

    @property
    def shards(self) -> Tuple[str, ...]:
        """Every known member URL (ring members first, then ejected)."""
        return tuple(
            sorted(self._members, key=lambda u: self._members[u].index)
        )

    # -- lifecycle --------------------------------------------------------

    @property
    def url(self) -> str:
        host, port = self._bound if self._bound else (self.host, self.port)
        return f"http://{host}:{port}"

    def start(self) -> "ShardRouter":
        """Run the event loop (and listener) in a daemon thread."""
        if self._thread is not None:
            raise ServeError("router already started", http_status=500)
        self._thread = threading.Thread(
            target=self._run_loop, name="serve-router", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=10.0):
            raise ServeError("router failed to start within 10s",
                             http_status=500)
        error = self._bind_error
        if error is not None:
            self._thread.join(timeout=10.0)
            raise ServeError(
                f"router cannot bind {self.host}:{self.port}: {error}"
            ) from error
        return self

    def _run_loop(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        try:
            self._server = await asyncio.start_server(
                self._handle_connection, self.host, self.port
            )
        except (OSError, OverflowError) as error:
            self._bind_error = error
            self._started.set()
            return
        self._loop = asyncio.get_running_loop()
        sockname = self._server.sockets[0].getsockname()
        self._bound = (sockname[0], sockname[1])
        self._stop_event = asyncio.Event()
        self.registry.gauge_set("serve.router.ring_version",
                                self._ring.version)
        monitor: Optional[asyncio.Task] = None
        if self.heartbeat_s > 0:
            monitor = asyncio.ensure_future(self._monitor())
        self._started.set()
        await self._stop_event.wait()
        if monitor is not None:
            monitor.cancel()
            await asyncio.gather(monitor, return_exceptions=True)
        self._server.close()
        await self._server.wait_closed()

    def stop(self) -> None:
        """Shut the listener and loop down (idempotent)."""
        self._drain_requested.set()
        if self._loop is None:
            return
        loop, thread = self._loop, self._thread

        def _signal() -> None:
            self._stop_event.set()

        try:
            loop.call_soon_threadsafe(_signal)
        except RuntimeError:
            pass  # loop already closed
        if thread is not None:
            thread.join(timeout=10.0)
        self._loop = None
        self._thread = None

    def install_signal_handlers(self) -> None:
        """Route SIGTERM/SIGINT to a stop request (main thread only)."""
        import signal

        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, lambda *_: self._drain_requested.set())

    def serve_until_drained(self, stream=None) -> Dict[str, Any]:
        """CLI main loop: start, announce, wait for SIGTERM, stop."""
        import sys

        if stream is None:
            stream = sys.stdout
        self.install_signal_handlers()
        self.start()
        stream.write(
            f"repro-serve-router listening on {self.url} "
            f"({len(self.shards)} shards)\n"
        )
        stream.flush()
        while not self._drain_requested.wait(timeout=60.0):
            pass
        self.stop()
        snapshot = self.registry.snapshot()
        routed = snapshot.get("counters", {}).get("serve.router.requests", 0)
        stream.write(f"router stopped after {int(routed)} requests\n")
        stream.flush()
        return {"requests": int(routed)}

    # -- dynamic membership (thread-safe entry points) ---------------------

    def _on_loop(self, coroutine, timeout_s: float = 10.0):
        """Run a coroutine on the router loop from any thread."""
        if self._loop is None:
            raise ServeError("router is not running", http_status=500)
        future = asyncio.run_coroutine_threadsafe(coroutine, self._loop)
        return future.result(timeout=timeout_s)

    def add_shard(self, url: str) -> Dict[str, Any]:
        """Join a shard to the live ring (idempotent); returns /ring."""
        return self._on_loop(self._membership("join", url))

    def remove_shard(self, url: str, forget: bool = False) -> Dict[str, Any]:
        """Remove a shard from the live ring; ``forget`` also drops its
        membership record (no heartbeat re-probe, no auto-rejoin)."""
        return self._on_loop(self._membership("leave", url, forget=forget))

    def ring_info(self, probe: bool = True) -> Dict[str, Any]:
        """The /ring payload, optionally live-probing member health."""
        return self._on_loop(self._ring_payload(probe=probe))

    async def _membership(
        self, action: str, url: str, forget: bool = False
    ) -> Dict[str, Any]:
        url = (url or "").strip().rstrip("/")
        if not url:
            raise ServeError("membership change needs a shard 'url'")
        if action == "join":
            self._apply_join(url, reason="joined")
        else:
            if url not in self._members:
                raise ServeError(
                    f"shard {url} is not a fleet member", http_status=404
                )
            self._apply_leave(url, reason="left", forget=forget)
        return await self._ring_payload(probe=False)

    def _apply_join(self, url: str, reason: str) -> None:
        member = self._members.get(url)
        if member is None:
            index = 1 + max(
                (m.index for m in self._members.values()), default=-1
            )
            member = _Member(url, index)
            self._members[url] = member
        if url in self._ring:
            member.in_ring = True
            return  # idempotent join
        self._ring = self._ring.join(url)
        member.in_ring = True
        self._note_membership_change(reason)

    def _apply_leave(self, url: str, reason: str, forget: bool = False) -> None:
        member = self._members.get(url)
        if url in self._ring:
            self._ring = self._ring.leave(url)  # raises on the last node
            self._note_membership_change(reason)
        if member is not None:
            member.in_ring = False
        if forget:
            self._members.pop(url, None)
            # Only forgetting drops id routing state: an ejected-but-
            # remembered shard may come back and still owns its ids.
            for job_id, home in list(self._job_homes.items()):
                if home == url:
                    del self._job_homes[job_id]

    def _note_membership_change(self, reason: str) -> None:
        self.registry.counter_add(f"serve.router.{reason}")
        self.registry.counter_add("serve.router.membership_changes")
        self.registry.gauge_set("serve.router.ring_version",
                                self._ring.version)

    # -- failure detection -------------------------------------------------

    async def _monitor(self) -> None:
        """Heartbeat every member's /healthz; eject after repeated
        failures, rejoin on recovery."""
        while True:
            await asyncio.sleep(self.heartbeat_s)
            await self._probe_members()

    async def _probe_members(self) -> None:
        members = list(self._members.values())
        await asyncio.gather(
            *(self._probe(member) for member in members),
            return_exceptions=True,
        )

    async def _probe(self, member: _Member) -> None:
        try:
            response = await self._upstream(
                member.url, "GET", "/healthz",
                timeout_s=self.heartbeat_timeout_s, note=False,
            )
        except ServeError as error:
            self.registry.counter_add("serve.router.heartbeat_failed")
            self._note_failure(member.url, str(error))
            return
        if response.status != 200:
            self.registry.counter_add("serve.router.heartbeat_failed")
            self._note_failure(
                member.url, f"healthz returned {response.status}"
            )
            return
        try:
            payload = json.loads(response.body)
        except json.JSONDecodeError:
            payload = None
        self._note_ok(member.url, payload)

    def _note_ok(self, url: str, payload: Optional[Dict[str, Any]]) -> None:
        member = self._members.get(url)
        if member is None:
            return
        member.consecutive_failures = 0
        member.state = "up"
        member.last_ok_unix = time.time()
        member.last_error = None
        if isinstance(payload, dict):
            member.health = payload
        if not member.in_ring:
            self._apply_join(url, reason="rejoined")

    def _note_failure(self, url: str, error: str) -> None:
        member = self._members.get(url)
        if member is None:
            return
        member.consecutive_failures += 1
        member.last_error = error
        member.state = "suspect" if member.in_ring else "down"
        if (member.in_ring
                and member.consecutive_failures >= self.eject_after):
            if len(self._ring) > 1:
                self._apply_leave(url, reason="ejected")
            # The last shard is never ejected: an empty ring routes
            # nothing, while a kept-but-down shard degrades loudly.
            member.state = "down"

    # -- client side of the wire ------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            method, path, body = request
            self.registry.counter_add("serve.router.requests")
            try:
                response = await self._dispatch(method, path, body)
            except ReproError as error:
                response = _error_response(error)
            except Exception as error:  # never leak a traceback
                response = _error_response(
                    ServeError(f"router internal error: {error}",
                               http_status=500)
                )
            await self._write_response(writer, response)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, bytes]]:
        try:
            request_line = await reader.readline()
        except (ConnectionError, OSError):
            return None
        if not request_line.strip():
            return None
        try:
            method, target, _version = (
                request_line.decode("latin-1").strip().split(" ", 2)
            )
        except ValueError:
            return None
        length = 0
        while True:
            line = await reader.readline()
            if not line or line in (b"\r\n", b"\n"):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    length = 0
        if length > _MAX_BODY:
            return method, target, b""
        body = await reader.readexactly(length) if length else b""
        return method, target, body

    async def _write_response(
        self, writer: asyncio.StreamWriter, response: _Response
    ) -> None:
        head = (
            f"HTTP/1.1 {response.status} X\r\n"
            f"Content-Type: {response.content_type}\r\n"
            f"Content-Length: {len(response.body)}\r\n"
            "Connection: close\r\n"
        )
        for name, value in response.headers.items():
            head += f"{name}: {value}\r\n"
        writer.write(head.encode("latin-1") + b"\r\n" + response.body)
        await writer.drain()

    # -- upstream side of the wire ----------------------------------------

    async def _upstream(
        self,
        shard: str,
        method: str,
        path: str,
        body: bytes = b"",
        timeout_s: float = UPSTREAM_TIMEOUT_S,
        content_type: str = "application/json",
        note: bool = True,
    ) -> _Response:
        """One request to one shard over a fresh asyncio connection.

        ``note`` feeds connection failures into the shard's health
        record (real traffic accelerates failure detection); heartbeat
        probes pass ``note=False`` and account for themselves.
        """
        host, _, port = shard.rpartition("://")[2].partition(":")
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, int(port or 80)),
                timeout=timeout_s,
            )
        except (OSError, asyncio.TimeoutError) as error:
            if note:
                self._count_shard(shard, "unreachable")
                self._note_failure(shard, f"unreachable: {error}")
            raise DegradedError(
                f"shard {shard} unreachable: {error}; the fleet is "
                "degraded until the shard is ejected or restarted",
                retry_after_s=max(1.0, self.heartbeat_s),
            )
        try:
            head = (
                f"{method} {path} HTTP/1.1\r\n"
                f"Host: {host}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            )
            writer.write(head.encode("latin-1") + body)
            await writer.drain()
            return await asyncio.wait_for(
                self._read_upstream_response(reader), timeout=timeout_s
            )
        except (OSError, asyncio.TimeoutError,
                asyncio.IncompleteReadError) as error:
            if note:
                self._count_shard(shard, "errors")
                self._note_failure(shard, f"failed mid-request: {error}")
            raise DegradedError(
                f"shard {shard} failed mid-request: {error}; safe to "
                "retry — submissions are idempotent by spec digest",
                retry_after_s=max(1.0, self.heartbeat_s),
            )
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_upstream_response(
        self, reader: asyncio.StreamReader
    ) -> _Response:
        status_line = await reader.readline()
        parts = status_line.decode("latin-1").split(" ", 2)
        status = int(parts[1]) if len(parts) >= 2 else 502
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if not line or line in (b"\r\n", b"\n"):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = headers.get("content-length")
        if length is not None:
            body = await reader.readexactly(int(length))
        else:
            body = await reader.read()
        extra = {}
        if "retry-after" in headers:
            extra["Retry-After"] = headers["retry-after"]
        return _Response(
            status, body,
            content_type=headers.get("content-type", "application/json"),
            headers=extra,
        )

    def _count_shard(self, shard: str, what: str) -> None:
        member = self._members.get(shard)
        if member is not None:
            self.registry.counter_add(f"serve.shard.{member.index}.{what}")
        self.registry.counter_add(f"serve.router.shard_{what}")

    # -- routing ----------------------------------------------------------

    async def _dispatch(
        self, method: str, target: str, body: bytes
    ) -> _Response:
        path, _, query_string = target.partition("?")
        path = path.rstrip("/") or "/"
        parts = path.strip("/").split("/")
        if method == "GET" and path == "/healthz":
            return await self._health()
        if method == "GET" and path == "/metrics":
            return await self._metrics()
        if method == "GET" and path == "/ring":
            payload = await self._ring_payload(probe=True)
            return _Response(
                200, json.dumps(payload, sort_keys=True).encode()
            )
        if method == "POST" and path in ("/ring/join", "/ring/leave"):
            return await self._membership_endpoint(path, body)
        if method == "POST" and path in ("/jobs", "/plan"):
            return await self._route_submission(path, body)
        if method == "GET" and path == "/jobs":
            return await self._list_jobs()
        if len(parts) >= 2 and parts[0] == "jobs":
            return await self._route_job(
                method, parts, query_string, body
            )
        raise ServeError(
            f"unknown endpoint {method} {path}", http_status=404
        )

    async def _membership_endpoint(
        self, path: str, body: bytes
    ) -> _Response:
        try:
            payload = json.loads(body) if body else {}
        except json.JSONDecodeError as error:
            raise ServeError(f"request body is not valid JSON: {error}")
        if not isinstance(payload, dict):
            raise ServeError("request body must be a JSON object")
        action = "join" if path.endswith("join") else "leave"
        out = await self._membership(
            action, str(payload.get("url", "")),
            forget=bool(payload.get("forget", False)),
        )
        return _Response(200, json.dumps(out, sort_keys=True).encode())

    async def _route_submission(self, path: str, body: bytes) -> _Response:
        try:
            payload = json.loads(body) if body else {}
        except json.JSONDecodeError as error:
            raise ServeError(f"request body is not valid JSON: {error}")
        if not isinstance(payload, dict):
            raise ServeError("request body must be a JSON object")
        spec_mapping = dict(payload)
        if path == "/plan":
            spec_mapping["experiment"] = "dse"
        spec_mapping.pop("priority", None)
        digest = spec_digest(normalize_spec(spec_mapping))
        shard = self._ring.node_for(digest)
        self._count_shard(shard, "routed")
        response = await self._upstream(shard, "POST", path, body)
        if response.status in (200, 202):
            try:
                job_id = json.loads(response.body)["job"]["id"]
                self._job_homes[job_id] = shard
                self._job_digests[job_id] = digest
            except (json.JSONDecodeError, KeyError, TypeError):
                pass
        return response

    async def _route_job(
        self,
        method: str,
        parts: List[str],
        query_string: str,
        body: bytes,
    ) -> _Response:
        job_id = parts[1]
        sub = "/".join(parts[2:])
        path = f"/jobs/{job_id}" + (f"/{sub}" if sub else "")
        if query_string:
            path += f"?{query_string}"
        shard = self._job_homes.get(job_id)
        if shard is None:
            shard = await self._find_home(job_id)
        is_wait = method == "GET" and not sub and "wait=" in query_string
        try:
            if is_wait:
                return await self._coalesced_wait(shard, path)
            return await self._upstream(shard, method, path, body,
                                        timeout_s=UPSTREAM_TIMEOUT_S)
        except DegradedError:
            # The job's home is gone.  For result fetches the payload
            # may still live in the shared store — serve it from any
            # surviving member rather than failing a finished job.
            if method == "GET" and sub == "result":
                stored = await self._store_fallback(job_id)
                if stored is not None:
                    return stored
            raise

    async def _store_fallback(self, job_id: str) -> Optional[_Response]:
        digest = self._job_digests.get(job_id)
        if digest is None:
            return None
        dead_home = self._job_homes.get(job_id)
        for url in self.shards:
            if url == dead_home:
                continue
            try:
                response = await self._upstream(
                    url, "GET", f"/store/{digest}",
                    content_type="application/octet-stream", note=False,
                )
            except ServeError:
                continue
            if response.status == 200:
                self.registry.counter_add("serve.router.store_served")
                return _Response(200, response.body)
        return None

    async def _find_home(self, job_id: str) -> str:
        """Ask every shard who owns an id the router has not seen.

        Needed after a router restart (the id->home map is in-memory
        only) and for ids submitted directly to a shard.
        """
        shards = self.shards
        results = await asyncio.gather(
            *(
                self._upstream(url, "GET", f"/jobs/{job_id}")
                for url in shards
            ),
            return_exceptions=True,
        )
        for url, result in zip(shards, results):
            if isinstance(result, _Response) and result.status == 200:
                self._job_homes[job_id] = url
                return url
        raise ServeError(
            f"unknown job id {job_id!r} on any shard", http_status=404
        )

    async def _coalesced_wait(self, shard: str, path: str) -> _Response:
        """Share one upstream long-poll among identical waiters."""
        key = (shard, path)
        task = self._waits.get(key)
        if task is None:
            task = asyncio.ensure_future(
                self._upstream(
                    shard, "GET", path,
                    timeout_s=LONG_POLL_MAX_S + UPSTREAM_TIMEOUT_S,
                )
            )
            self._waits[key] = task
            task.add_done_callback(lambda _t: self._waits.pop(key, None))
        else:
            self.registry.counter_add("serve.router.wait_coalesced")
        try:
            return await asyncio.shield(task)
        except asyncio.CancelledError:
            raise
        except ServeError:
            raise
        except Exception as error:
            raise ServeError(f"long-poll failed: {error}", http_status=502)

    # -- fan-out endpoints -------------------------------------------------

    async def _each_shard(self, path: str) -> List[Tuple[str, Any]]:
        """(shard, parsed JSON | ServeError) for a GET on every shard."""
        shards = self.shards
        responses = await asyncio.gather(
            *(self._upstream(url, "GET", path) for url in shards),
            return_exceptions=True,
        )
        out: List[Tuple[str, Any]] = []
        for url, response in zip(shards, responses):
            if isinstance(response, _Response):
                try:
                    out.append((url, json.loads(response.body)))
                except json.JSONDecodeError:
                    out.append(
                        (url, ServeError(f"shard {url} sent bad JSON"))
                    )
            elif isinstance(response, ServeError):
                out.append((url, response))
            else:
                out.append((url, ServeError(str(response))))
        return out

    async def _ring_payload(self, probe: bool = False) -> Dict[str, Any]:
        """Membership + ring version + per-shard health + store stats."""
        if probe:
            await self._probe_members()
        members = {
            url: member.describe()
            for url, member in self._members.items()
        }
        entries = 0
        total_bytes = 0
        for member in self._members.values():
            store = (member.health or {}).get("store")
            if isinstance(store, dict) and member.in_ring:
                # All shards normally share one store directory; take
                # the max rather than a double-counting sum.
                entries = max(entries, int(store.get("entries", 0) or 0))
                total_bytes = max(
                    total_bytes, int(store.get("total_bytes", 0) or 0)
                )
        return {
            "ring": self._ring.describe(),
            "members": members,
            "store": {"entries": entries, "total_bytes": total_bytes},
            "heartbeat": {
                "period_s": self.heartbeat_s,
                "timeout_s": self.heartbeat_timeout_s,
                "eject_after": self.eject_after,
            },
        }

    async def _health(self) -> _Response:
        shards: Dict[str, Any] = {}
        status = "ok"
        for url, payload in await self._each_shard("/healthz"):
            if isinstance(payload, ServeError):
                shards[url] = {"status": "unreachable",
                               "error": str(payload)}
                status = "degraded"
            else:
                shards[url] = payload
                if payload.get("status") != "ok":
                    status = "degraded"
        body = json.dumps(
            {
                "status": status,
                "role": "router",
                "shards": shards,
                "ring": self._ring.describe(),
            },
            sort_keys=True,
        ).encode()
        return _Response(200, body)

    async def _metrics(self) -> _Response:
        scratch = MetricsRegistry()
        scratch.merge_snapshot(self.registry.snapshot())
        for url, payload in await self._each_shard("/metrics"):
            member = self._members.get(url)
            index = member.index if member is not None else -1
            if isinstance(payload, ServeError):
                scratch.gauge_set(f"serve.shard.{index}.up", 0)
                continue
            scratch.gauge_set(f"serve.shard.{index}.up", 1)
            for name, value in payload.get("counters", {}).items():
                if name.startswith("serve.jobs."):
                    scratch.counter_add(
                        f"serve.shard.{index}.{name[len('serve.'):]}",
                        value,
                    )
            scratch.merge_snapshot(payload)
        body = json.dumps(scratch.snapshot(), sort_keys=True).encode()
        return _Response(200, body)

    async def _list_jobs(self) -> _Response:
        jobs: List[Dict[str, Any]] = []
        for url, payload in await self._each_shard("/jobs"):
            if isinstance(payload, ServeError):
                continue
            for record in payload.get("jobs", []):
                jobs.append(dict(record, shard=url))
        jobs.sort(key=lambda r: r.get("submitted_unix", 0), reverse=True)
        body = json.dumps({"jobs": jobs}, sort_keys=True).encode()
        return _Response(200, body)
