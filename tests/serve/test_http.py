"""The HTTP stack the shards and the router share (in-process fleet),
and how the client and the router type a server that hangs up or
never answers.

Marked ``serial`` like the other fleet tests: each case runs real
daemons and a router in this process.
"""

from __future__ import annotations

import json
import os
import socket
import socketserver
import subprocess
import sys
import threading
import time
import urllib.request
from contextlib import contextmanager
from pathlib import Path
from urllib.parse import urlsplit

import pytest

from repro.errors import DegradedError, ServeError
from repro.serve import InProcessFleet, ServeClient, ShardRouter

pytestmark = pytest.mark.serial


@pytest.fixture(scope="module")
def fleet():
    with InProcessFleet(shards=2, workers=1, heartbeat_s=0) as running:
        yield running


def _router_requests(fleet) -> float:
    counters = fleet.router.registry.snapshot()["counters"]
    return counters.get("serve.router.requests", 0)


def _raw(url: str, request: str, body: bytes = b"") -> bytes:
    """Everything the server at ``url`` sends for ``request`` (then
    ``body``) until it closes the connection."""
    address = urlsplit(url)
    reply = b""
    with socket.create_connection(
        (address.hostname, address.port), timeout=10
    ) as sock:
        sock.sendall(request.encode() + body)
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return reply
            reply += chunk


@pytest.mark.parametrize("server", ["shard", "router"])
@pytest.mark.parametrize(
    "length, status", [("abc", 400), ("-5", 400), ("99999999", 413)]
)
def test_a_bad_content_length_is_refused_before_the_body(
    fleet, server, length, status
):
    """Decided from the header alone (no body byte is sent here), and
    the connection closes, since the body's end is unknown."""
    url = fleet.url if server == "router" else fleet.shard_urls[0]
    reply = _raw(url, (
        "POST /jobs HTTP/1.1\r\nHost: x\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {length}\r\n\r\n"
    ))
    assert reply.startswith(f"HTTP/1.1 {status} ".encode()), reply[:300]
    body = reply.partition(b"\r\n\r\n")[2]
    assert b"error[SERVE]" in body and b"Content-Length" in body, reply


@pytest.mark.parametrize("server", ["shard", "router"])
def test_a_client_that_sends_an_oversized_body_reads_the_413(fleet, server):
    """A 9 MiB body written in full before the reply is read: the server
    drains it, so the client gets the 413 instead of a reset."""
    url = fleet.url if server == "router" else fleet.shard_urls[0]
    body = b" " * (9 * 1024 * 1024)
    reply = _raw(url, (
        "POST /jobs HTTP/1.1\r\nHost: x\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ), body)
    assert reply.startswith(b"HTTP/1.1 413 "), reply[:300]
    assert b"error[SERVE]" in reply.partition(b"\r\n\r\n")[2], reply


@pytest.mark.parametrize("server", ["shard", "router"])
@pytest.mark.parametrize("request_, status", [
    ("PUT /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n", 501),
    ("GARBAGE\r\n\r\n", 400),
], ids=["PUT", "GARBAGE"])
def test_the_errors_the_stdlib_sends_use_the_json_contract(
    fleet, server, request_, status
):
    """A method with no handler and a request line that does not parse
    are refused before any route runs, with a status line even though
    no HTTP version was read."""
    url = fleet.url if server == "router" else fleet.shard_urls[0]
    head, _, body = _raw(url, request_).partition(b"\r\n\r\n")
    assert head.startswith(f"HTTP/1.1 {status} ".encode()), head
    assert b"Content-Type: application/json" in head, head
    assert b"Connection: close" in head, head
    payload = json.loads(body)
    assert payload["code"] == "SERVE"
    assert payload["error"].startswith("error[SERVE]: "), payload


@pytest.mark.parametrize("server", ["shard", "router"])
@pytest.mark.parametrize(
    "job_id", ["jöb-1", "job nope", "a/b"],
    ids=["non-ascii", "space", "slash"],
)
def test_an_unknown_job_id_travels_quoted_to_a_typed_404(
    fleet, server, job_id
):
    """Ids that are not ASCII, or carry a space or a slash, reach the
    job table intact, so an unknown one is a 404 naming it."""
    url = fleet.url if server == "router" else fleet.shard_urls[0]
    client = ServeClient(url)
    for call in (client.status, client.result_bytes):
        with pytest.raises(ServeError) as info:
            call(job_id)
        assert info.value.http_status == 404, info.value
        assert repr(job_id) in str(info.value), info.value


def test_a_head_request_gets_its_status_without_a_body(fleet):
    reply = _raw(fleet.url, "HEAD /jobs HTTP/1.1\r\nHost: x\r\n\r\n")
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 501 "), reply
    assert b"Content-Type: application/json" in head, head
    assert body == b""


def _burst(url: str, clients: int) -> list:
    """Seconds each of ``clients`` concurrent ``GET /jobs`` took, all
    released at once (None where a request failed)."""
    barrier = threading.Barrier(clients)
    elapsed = [None] * clients

    def get(index: int) -> None:
        barrier.wait()
        began = time.perf_counter()
        with urllib.request.urlopen(url + "/jobs", timeout=60) as reply:
            reply.read()
        elapsed[index] = time.perf_counter() - began

    threads = [
        threading.Thread(target=get, args=(index,))
        for index in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=90)
    return elapsed


def test_a_64_client_burst_is_answered_within_a_second(fleet):
    """The listen backlog holds a burst of connects: with
    socketserver's default of 5, most of 64 wait out the kernel's 1 s
    SYN retransmit.  The router counts every request exactly, though
    each runs on its own handler thread."""
    clients = 64
    for url, routed in ((fleet.shard_urls[0], 0), (fleet.url, clients)):
        before = _router_requests(fleet)
        elapsed = _burst(url, clients)
        assert None not in elapsed, f"a request to {url} failed"
        assert max(elapsed) < 1.0, (url, sorted(elapsed)[-5:])
        assert _router_requests(fleet) - before == routed


class _HangUp(socketserver.BaseRequestHandler):
    """Reads the request, then closes without a byte of reply."""

    def handle(self) -> None:
        self.request.recv(65536)


class _Silent(socketserver.BaseRequestHandler):
    """Reads the request, then waits for the client to give up."""

    def handle(self) -> None:
        self.request.recv(65536)
        self.request.recv(1)


@contextmanager
def _peer(handler):
    """The base URL of a TCP server that answers with ``handler``."""
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def test_a_server_that_hangs_up_is_a_serve_error():
    with _peer(_HangUp) as url, pytest.raises(ServeError) as info:
        ServeClient(url, timeout_s=10).health()
    assert info.value.http_status == 503
    assert url in str(info.value)


def test_a_server_that_never_answers_is_a_504():
    with _peer(_Silent) as url, pytest.raises(ServeError) as info:
        ServeClient(url, timeout_s=0.5).health()
    assert info.value.http_status == 504


def test_status_against_a_server_that_hangs_up_exits_typed():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    with _peer(_HangUp) as url:
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "status", "--url", url],
            env=env, capture_output=True, text=True, timeout=60,
        )
    assert proc.returncode == 5, proc.stderr
    assert "error[SERVE]" in proc.stderr
    assert "Traceback" not in proc.stderr


def _counts_after_a_failed_submit(shard_url: str) -> dict:
    router = ShardRouter([shard_url], heartbeat_s=0).start()
    try:
        with pytest.raises(DegradedError):
            ServeClient(router.url).submit("table2", scale=0.02)
        return router.registry.snapshot()["counters"]
    finally:
        router.stop()


def test_the_router_counts_a_shard_failure_by_its_stage():
    """No connection is ``unreachable``; a failure after connecting,
    a hang-up here, is ``errors``.  Both answer DEGRADED."""
    counters = _counts_after_a_failed_submit("http://127.0.0.1:1")
    assert counters["serve.shard.0.unreachable"] == 1
    assert "serve.shard.0.errors" not in counters
    with _peer(_HangUp) as url:
        counters = _counts_after_a_failed_submit(url)
    assert counters["serve.shard.0.errors"] == 1
    assert "serve.shard.0.unreachable" not in counters
