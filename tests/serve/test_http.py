"""The HTTP stack the shards and the router share (in-process fleet).

Marked ``serial`` like the other fleet tests: each case runs real
daemons and a router in this process.
"""

from __future__ import annotations

import socket
import threading
import time
import urllib.request
from urllib.parse import urlsplit

import pytest

from repro.serve import InProcessFleet

pytestmark = pytest.mark.serial


@pytest.fixture(scope="module")
def fleet():
    with InProcessFleet(shards=2, workers=1, heartbeat_s=0) as running:
        yield running


def _router_requests(fleet) -> float:
    counters = fleet.router.registry.snapshot()["counters"]
    return counters.get("serve.router.requests", 0)


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
    address = urlsplit(url)
    head = (
        f"POST /jobs HTTP/1.1\r\nHost: {address.netloc}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {length}\r\n\r\n"
    )
    reply = b""
    with socket.create_connection(
        (address.hostname, address.port), timeout=10
    ) as sock:
        sock.sendall(head.encode())
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            reply += chunk
    assert reply.startswith(f"HTTP/1.1 {status} ".encode()), reply[:300]
    body = reply.partition(b"\r\n\r\n")[2]
    assert b"error[SERVE]" in body and b"Content-Length" in body, reply


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
