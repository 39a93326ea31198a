"""Fleet front end: one threaded HTTP server routing to N shards.

The :class:`ShardRouter` is the serve fleet's one front end: every
fleet launcher puts it in front of shards that share one result-store
directory, and clients talk to it, not to the shards.  It answers
client HTTP through the shards' own threaded handler
(:func:`repro.serve.server.bind`, one thread per connection, so a
parked long-poll costs one thread) and forwards each request through
the client's :func:`~repro.serve.client.exchange` to the shard chosen
by the consistent-hash :class:`~repro.serve.ring.VersionedRing` over
:func:`~repro.serve.jobs.spec_digest`.

Because the ring keys on the *same* digest the per-shard queue dedups
on and the shared :class:`~repro.serve.store.FileResultStore` is keyed
by, placement composes with in-shard dedup into fleet-wide dedup, and
a routed ``/jobs/<id>/result`` response is proxied byte-for-byte — the
byte-identity contract survives the extra hop (pinned by
``tests/serve/test_identity.py``).  The router has no ``/store``
route: store bytes enter the store only from a shard's workers.

Routing rules::

    POST /jobs             by spec digest -> owning shard
    GET  /jobs/<id>[...]   by remembered id->shard home, else asking
                           every shard (only the owner knows the id)
    GET  /jobs             fan-out, concatenated, shard-tagged
    GET  /healthz          fan-out, aggregated fleet view
    GET  /ring             membership, ring version, per-shard health,
                           store occupancy (live-probed)
    POST /ring/join        {"url": ...} — add a shard to the live ring
    POST /ring/leave       {"url": ...} — remove and forget a shard
    GET  /metrics          every shard's snapshot folded together via
                           MetricsRegistry.merge_snapshot, plus the
                           router's own serve.router.* / serve.shard.*
                           counters

Long-poll rounds (``GET /jobs/<id>?wait=...``) are *coalesced*: any
number of clients waiting on the same job/target share one upstream
long-poll connection, so a popular job costs the shard one parked
handler regardless of fan-in (``serve.router.wait_coalesced`` counts
the sharing).  The fan-outs (``/healthz``, ``/metrics``, ``/jobs``, an
unknown id's home, heartbeats) ask every member at once, one thread
each.

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

import json
import threading
import time
from concurrent.futures import Future
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union
from urllib.parse import unquote

from repro.errors import DegradedError, ServeError
from repro.obs.metrics import MetricsRegistry
from repro.serve.client import (
    Response,
    TransportError,
    exchange,
    quote_segment,
)
from repro.serve.jobs import normalize_spec, spec_digest
from repro.serve.ring import VersionedRing
from repro.serve.server import LONG_POLL_MAX_S, bind

#: Upstream connect/read timeout for ordinary (non-long-poll) proxying.
UPSTREAM_TIMEOUT_S = 30.0

#: Heartbeat period in seconds (0 disables the monitor; failures are
#: then only noticed by traffic).
DEFAULT_HEARTBEAT_S = 2.0

#: One heartbeat probe's timeout in seconds.
DEFAULT_HEARTBEAT_TIMEOUT_S = 1.0

#: Consecutive failures before a member is ejected from the ring.
DEFAULT_EJECT_AFTER = 3


#: What a route returns: a shard's response, or a JSON payload (200).
_Reply = Union[Response, Dict[str, Any]]


def _each(function: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
    """``function(item)`` for every item at once, one thread each.

    Each slot holds the call's result, or the exception it raised.
    """
    results: List[Any] = [None] * len(items)

    def run(index: int) -> None:
        try:
            results[index] = function(items[index])
        except Exception as error:
            results[index] = error

    threads = [
        threading.Thread(target=run, args=(index,), daemon=True)
        for index in range(len(items))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results


def _json_object(body: bytes) -> Dict[str, Any]:
    try:
        payload = json.loads(body) if body else {}
    except json.JSONDecodeError as error:
        raise ServeError(f"request body is not valid JSON: {error}")
    if not isinstance(payload, dict):
        raise ServeError("request body must be a JSON object")
    return payload


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
    """Front end routing requests to a fleet of serve shards."""

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
        self._waits: Dict[Tuple[str, str], Future] = {}
        #: Guards membership, the wait table and ``registry`` (which is
        #: not thread-safe) across handler and heartbeat threads.
        self._lock = threading.RLock()
        self._httpd = None
        self._monitor: Optional[threading.Thread] = None
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
        with self._lock:
            return tuple(
                sorted(self._members, key=lambda u: self._members[u].index)
            )

    # -- lifecycle --------------------------------------------------------

    @property
    def url(self) -> str:
        host, port = self._bound if self._bound else (self.host, self.port)
        return f"http://{host}:{port}"

    def start(self) -> "ShardRouter":
        """Bind, then serve and heartbeat from daemon threads."""
        if self._httpd is not None:
            raise ServeError("router already started", http_status=500)
        self._httpd = bind(self, self.host, self.port)
        self._bound = self._httpd.server_address[:2]
        with self._lock:
            self.registry.gauge_set("serve.router.ring_version",
                                    self._ring.version)
        self._httpd.serve_in_thread("serve-router")
        if self.heartbeat_s > 0:
            self._monitor = threading.Thread(
                target=self._heartbeat, name="serve-router-heartbeat",
                daemon=True,
            )
            self._monitor.start()
        return self

    def stop(self) -> None:
        """Shut the listener and heartbeat down (idempotent)."""
        self._drain_requested.set()
        if self._httpd is not None:
            self._httpd.close()
            self._httpd = None
        if self._monitor is not None:
            self._monitor.join(timeout=10.0)
            self._monitor = None

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

    def add_shard(self, url: str) -> Dict[str, Any]:
        """Join a shard to the live ring (idempotent); returns /ring."""
        return self._membership("join", url)

    def remove_shard(self, url: str) -> Dict[str, Any]:
        """Remove a shard from the live ring and forget it; returns
        /ring."""
        return self._membership("leave", url)

    def _membership(self, action: str, url: str) -> Dict[str, Any]:
        url = (url or "").strip().rstrip("/")
        if not url:
            raise ServeError("membership change needs a shard 'url'")
        with self._lock:
            if action == "join":
                self._apply_join(url, reason="joined")
            else:
                if url not in self._members:
                    raise ServeError(
                        f"shard {url} is not a fleet member", http_status=404
                    )
                self._apply_leave(url, reason="left")
                # A shard that left is forgotten, or its next healthy
                # heartbeat would rejoin it; an ejected one is kept so
                # that it can.  Its job ids stop routing to it too.
                del self._members[url]
                for job_id, home in list(self._job_homes.items()):
                    if home == url:
                        del self._job_homes[job_id]
        return self._ring_payload(probe=False)

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

    def _apply_leave(self, url: str, reason: str) -> None:
        if url in self._ring:
            self._ring = self._ring.leave(url)  # raises on the last node
            self._note_membership_change(reason)
        self._members[url].in_ring = False

    def _note_membership_change(self, reason: str) -> None:
        self.registry.counter_add(f"serve.router.{reason}")
        self.registry.counter_add("serve.router.membership_changes")
        self.registry.gauge_set("serve.router.ring_version",
                                self._ring.version)

    # -- failure detection -------------------------------------------------

    def _heartbeat(self) -> None:
        """Heartbeat every member's /healthz; eject after repeated
        failures, rejoin on recovery."""
        while not self._drain_requested.wait(self.heartbeat_s):
            self._probe_members()

    def _probe_members(self) -> None:
        with self._lock:
            members = list(self._members.values())
        _each(self._probe, members)

    def _probe(self, member: _Member) -> None:
        try:
            response = self._upstream(
                member.url, "GET", "/healthz",
                timeout_s=self.heartbeat_timeout_s, note=False,
            )
        except ServeError as error:
            self._count("serve.router.heartbeat_failed")
            self._note_failure(member.url, str(error))
            return
        if response.status != 200:
            self._count("serve.router.heartbeat_failed")
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
        with self._lock:
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
        with self._lock:
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

    # -- upstream side of the wire ----------------------------------------

    def _upstream(
        self,
        shard: str,
        method: str,
        path: str,
        body: bytes = b"",
        timeout_s: float = UPSTREAM_TIMEOUT_S,
        note: bool = True,
    ) -> Response:
        """One request to one shard through
        :func:`~repro.serve.client.exchange`.

        ``note`` feeds transport failures into the shard's health
        record (real traffic accelerates failure detection); heartbeat
        probes pass ``note=False`` and account for themselves.
        """
        try:
            return exchange(shard, method, path, body, timeout_s)
        except TransportError as error:
            if note:
                self._count_shard(
                    shard, "errors" if error.connected else "unreachable"
                )
                self._note_failure(shard, str(error))
            raise DegradedError(
                f"{error}; the fleet is degraded until the shard "
                "answers or is ejected, and a retry is safe: submissions "
                "are idempotent by spec digest",
                retry_after_s=max(1.0, self.heartbeat_s),
            )

    def _count(self, name: str) -> None:
        with self._lock:
            self.registry.counter_add(name)

    def _count_shard(self, shard: str, what: str) -> None:
        with self._lock:
            member = self._members.get(shard)
            if member is not None:
                self.registry.counter_add(
                    f"serve.shard.{member.index}.{what}"
                )
            self.registry.counter_add(f"serve.router.shard_{what}")

    # -- routing ----------------------------------------------------------

    def handle(self, method: str, target: str, http: Any) -> bool:
        """Answer one request on ``http``, the shared handler; returns
        False for an unknown endpoint."""
        self._count("serve.router.requests")
        body = http.read_body() if method == "POST" else b""
        reply = self._dispatch(method, target, body)
        if reply is None:
            return False
        if isinstance(reply, dict):
            http.send_json(200, reply)
        else:
            http.send(
                reply.status, reply.body, reply.content_type,
                {"Retry-After": reply.retry_after}
                if reply.retry_after is not None else None,
            )
        return True

    def _dispatch(
        self, method: str, target: str, body: bytes
    ) -> Optional[_Reply]:
        path, _, query_string = target.partition("?")
        path = path.rstrip("/") or "/"
        parts = [unquote(part) for part in path.strip("/").split("/")]
        if method == "GET" and path == "/healthz":
            return self._health()
        if method == "GET" and path == "/metrics":
            return self._metrics()
        if method == "GET" and path == "/ring":
            return self._ring_payload(probe=True)
        if method == "POST" and path in ("/ring/join", "/ring/leave"):
            return self._membership(
                "join" if path.endswith("join") else "leave",
                str(_json_object(body).get("url", "")),
            )
        if method == "POST" and path == "/jobs":
            return self._route_submission(body)
        if method == "GET" and path == "/jobs":
            return self._list_jobs()
        if len(parts) >= 2 and parts[0] == "jobs":
            return self._route_job(method, parts, query_string, body)
        return None

    def _route_submission(self, body: bytes) -> Response:
        spec_mapping = dict(_json_object(body))
        spec_mapping.pop("priority", None)
        digest = spec_digest(normalize_spec(spec_mapping))
        shard = self._ring.node_for(digest)
        self._count_shard(shard, "routed")
        response = self._upstream(shard, "POST", "/jobs", body)
        if response.status in (200, 202):
            try:
                job_id = json.loads(response.body)["job"]["id"]
            except (json.JSONDecodeError, KeyError, TypeError):
                return response
            with self._lock:
                self._job_homes[job_id] = shard
                self._job_digests[job_id] = digest
        return response

    def _route_job(
        self,
        method: str,
        parts: List[str],
        query_string: str,
        body: bytes,
    ) -> Response:
        job_id = parts[1]
        sub = "/".join(parts[2:])
        path = "/" + "/".join(quote_segment(part) for part in parts)
        if query_string:
            path += f"?{query_string}"
        shard = self._job_homes.get(job_id)
        if shard is None:
            shard = self._find_home(job_id)
        is_wait = method == "GET" and not sub and "wait=" in query_string
        try:
            if is_wait:
                return self._coalesced_wait(shard, path)
            return self._upstream(shard, method, path, body,
                                  timeout_s=UPSTREAM_TIMEOUT_S)
        except DegradedError:
            # The job's home is gone.  For result fetches the payload
            # may still live in the shared store — serve it from any
            # surviving member rather than failing a finished job.
            if method == "GET" and sub == "result":
                stored = self._store_fallback(job_id)
                if stored is not None:
                    return stored
            raise

    def _store_fallback(self, job_id: str) -> Optional[Response]:
        digest = self._job_digests.get(job_id)
        if digest is None:
            return None
        dead_home = self._job_homes.get(job_id)
        for url in self.shards:
            if url == dead_home:
                continue
            try:
                response = self._upstream(
                    url, "GET", f"/store/{digest}", note=False
                )
            except ServeError:
                continue
            if response.status == 200:
                self._count("serve.router.store_served")
                return Response(200, response.body)
        return None

    def _find_home(self, job_id: str) -> str:
        """Ask every shard who owns an id the router has not seen.

        Needed after a router restart (the id->home map is in-memory
        only) and for ids submitted directly to a shard.
        """
        shards = self.shards
        results = _each(
            lambda url: self._upstream(
                url, "GET", f"/jobs/{quote_segment(job_id)}"
            ),
            shards,
        )
        for url, result in zip(shards, results):
            if isinstance(result, Response) and result.status == 200:
                with self._lock:
                    self._job_homes[job_id] = url
                return url
        raise ServeError(
            f"unknown job id {job_id!r} on any shard", http_status=404
        )

    def _coalesced_wait(self, shard: str, path: str) -> Response:
        """Share one upstream long-poll among identical waiters."""
        key = (shard, path)
        with self._lock:
            future = self._waits.get(key)
            leader = future is None
            if leader:
                future = self._waits[key] = Future()
            else:
                self.registry.counter_add("serve.router.wait_coalesced")
        if not leader:
            return future.result()
        try:
            response = self._upstream(
                shard, "GET", path,
                timeout_s=LONG_POLL_MAX_S + UPSTREAM_TIMEOUT_S,
            )
        except Exception as error:
            future.set_exception(error)
            raise
        else:
            future.set_result(response)
            return response
        finally:
            with self._lock:
                del self._waits[key]

    # -- fan-out endpoints -------------------------------------------------

    def _each_shard(self, path: str) -> List[Tuple[str, Any]]:
        """(shard, parsed JSON | ServeError) for a GET on every shard."""
        shards = self.shards
        responses = _each(
            lambda url: self._upstream(url, "GET", path), shards
        )
        out: List[Tuple[str, Any]] = []
        for url, response in zip(shards, responses):
            if isinstance(response, Response):
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

    def _ring_payload(self, probe: bool = False) -> Dict[str, Any]:
        """Membership + ring version + per-shard health + store stats."""
        if probe:
            self._probe_members()
        with self._lock:
            members = {
                url: member.describe()
                for url, member in self._members.items()
            }
            entries = 0
            total_bytes = 0
            for member in self._members.values():
                store = (member.health or {}).get("store")
                if isinstance(store, dict) and member.in_ring:
                    # All shards normally share one store directory;
                    # take the max rather than a double-counting sum.
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

    def _health(self) -> Dict[str, Any]:
        shards: Dict[str, Any] = {}
        status = "ok"
        for url, payload in self._each_shard("/healthz"):
            if isinstance(payload, ServeError):
                shards[url] = {"status": "unreachable",
                               "error": str(payload)}
                status = "degraded"
            else:
                shards[url] = payload
                if payload.get("status") != "ok":
                    status = "degraded"
        return {
            "status": status,
            "role": "router",
            "shards": shards,
            "ring": self._ring.describe(),
        }

    def _metrics(self) -> Dict[str, Any]:
        scratch = MetricsRegistry()
        with self._lock:
            scratch.merge_snapshot(self.registry.snapshot())
        for url, payload in self._each_shard("/metrics"):
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
        return scratch.snapshot()

    def _list_jobs(self) -> Dict[str, Any]:
        jobs: List[Dict[str, Any]] = []
        for url, payload in self._each_shard("/jobs"):
            if isinstance(payload, ServeError):
                continue
            for record in payload.get("jobs", []):
                jobs.append(dict(record, shard=url))
        jobs.sort(key=lambda r: r.get("submitted_unix", 0), reverse=True)
        return {"jobs": jobs}
