"""A client DTD that is slow to compile must not stall its shard.

A registry miss parses and compiles the request's DTD.  That cold path
runs in one thread hop off the event loop, so the shard's other
connections (``health``, gossip probes, warm checks) keep being
answered while a large DTD compiles, and concurrent first requests for
one DTD text wait on that one hop.  A DTD nested far past the
interpreter's recursion limit is answered like any other.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.server import server as server_mod
from repro.server.client import ValidationClient
from repro.server.server import ServerThread
from repro.service import registry as registry_mod

#: 8 KB of DTD: two thousand optional children, seconds to compile.
LARGE_DTD = "<!ELEMENT r (" + ", ".join(["a?"] * 2000) + ")><!ELEMENT a EMPTY>"

SMALL_DTD = "<!ELEMENT r (a*)><!ELEMENT a (#PCDATA)>"

#: Malformed only at its very end, so it is rejected after a full parse.
BAD_DTD = LARGE_DTD + "<!ELEMENT"

#: 40 KB of DTD whose groups nest 10,000 deep: ``(a, (a, ...))``.
DEEP_DTD = "<!ELEMENT r " + "(a," * 10_000 + "a" + ")" * 10_000 + "><!ELEMENT a EMPTY>"


@pytest.fixture
def server_handle():
    with ServerThread(host="127.0.0.1", port=0) as handle:
        yield handle


@pytest.fixture
def gated_parses(monkeypatch):
    """The server's cold-path DTD parses, each held until the gate opens."""
    parses: list[str] = []
    gate = threading.Event()
    parse = server_mod.parse_dtd

    def gated(text, **kwargs):
        parses.append(text)
        gate.wait(timeout=30)
        return parse(text, **kwargs)

    monkeypatch.setattr(server_mod, "parse_dtd", gated)
    return parses, gate


def _send_together(handle, payload: dict, count: int, gate: threading.Event):
    """*payload* on *count* connections at once; the replies, in order.

    The gate opens once the server has read every request (or after a
    deadline, for a server that reads them one at a time), so the cold
    path of the first is still held while the others arrive.
    """
    clients = [
        ValidationClient.connect(handle.tcp_address, timeout=60)
        for _ in range(count)
    ]
    try:
        for client in clients:
            client.send(payload)
        deadline = time.monotonic() + 5.0
        while handle.server._requests < count and time.monotonic() < deadline:
            time.sleep(0.01)
        gate.set()
        return [client.recv() for client in clients]
    finally:
        for client in clients:
            client.close()


def test_health_answers_while_a_large_dtd_compiles(server_handle, monkeypatch):
    started = threading.Event()
    compile_schema = registry_mod.compile_schema

    def signalled(dtd, **kwargs):
        started.set()
        return compile_schema(dtd, **kwargs)

    monkeypatch.setattr(registry_mod, "compile_schema", signalled)
    replies: list[dict] = []

    def first_check() -> None:
        with ValidationClient.connect(
            server_handle.tcp_address, timeout=120
        ) as client:
            replies.append(client.check(LARGE_DTD, "<r><a></a></r>"))

    checker = threading.Thread(target=first_check)
    checker.start()
    try:
        assert started.wait(timeout=60)
        with ValidationClient.connect(server_handle.tcp_address) as client:
            began = time.monotonic()
            assert client.health()["ok"] is True
            elapsed = time.monotonic() - began
        compiling = checker.is_alive()
    finally:
        checker.join(timeout=120)
    assert not checker.is_alive()
    assert elapsed < 0.5, f"health took {elapsed * 1000:.0f} ms during a compile"
    assert compiling  # the health reply overtook the compile
    assert replies[0]["potentially_valid"] is True
    assert replies[0]["schema"]["registry"] == "miss"


def test_concurrent_first_checks_share_one_compile(server_handle, gated_parses):
    parses, gate = gated_parses
    payload = {"op": "check", "dtd": SMALL_DTD, "doc": "<r><a>x</a></r>"}
    replies = _send_together(server_handle, payload, 4, gate)
    assert all(reply["potentially_valid"] is True for reply in replies)
    # What four sequential first checks give: one compile, one miss.
    dispositions = sorted(reply["schema"]["registry"] for reply in replies)
    assert dispositions == ["hit", "hit", "hit", "miss"]
    assert parses == [SMALL_DTD]
    registry = server_handle.server.registry.stats
    assert (registry.misses, registry.hits) == (1, 3)


def test_every_concurrent_sender_of_a_bad_dtd_gets_bad_dtd(
    server_handle, gated_parses
):
    parses, gate = gated_parses
    payload = {"op": "check", "dtd": BAD_DTD, "doc": "<r></r>"}
    replies = _send_together(server_handle, payload, 4, gate)
    assert [reply["ok"] for reply in replies] == [False] * 4
    assert {reply["error"]["code"] for reply in replies} == {"bad-dtd"}
    assert len({reply["error"]["message"] for reply in replies}) == 1
    assert parses == [BAD_DTD]  # one hop answered all four
    # The failure is not remembered: the next sender parses again.
    with ValidationClient.connect(server_handle.tcp_address) as client:
        client.send(payload)
        assert client.recv()["error"]["code"] == "bad-dtd"
    assert len(parses) == 2


def test_a_dtd_nested_10000_deep_is_answered_cold_and_after_eviction(
    server_handle,
):
    """Every fold over a content model is iterative: the first check
    parses and compiles the deep DTD, and once 70 other schemas have
    evicted it from the 64-entry registry, the same text is parsed
    again and compared with its still-cached analysis."""
    with ValidationClient.connect(server_handle.tcp_address, timeout=120) as client:
        first = client.check(DEEP_DTD, "<r><a/></r>")
        assert first["ok"] and first["potentially_valid"] is True, first
        for index in range(70):
            other = f"<!ELEMENT r{index} (a*)><!ELEMENT a EMPTY>"
            reply = client.check(other, f"<r{index}><a/></r{index}>")
            assert reply["potentially_valid"] is True, reply
        again = client.check(DEEP_DTD, "<r><a/></r>")
        assert again["ok"] and again["potentially_valid"] is True, again
        assert again["schema"]["registry"] == "miss"  # it was evicted
        assert again["schema"]["fingerprint"] == first["schema"]["fingerprint"]
        assert client.check(DEEP_DTD, "<r><r/></r>")["potentially_valid"] is False
        assert client.stats()["server"]["errors"] == 0
