"""Tests for the asyncio validation server, protocol, and client."""

from __future__ import annotations

import asyncio
import base64
import gc
import json
import os
import socket
import sys
import threading
import time
import warnings

import pytest

from repro.core.coarse import decode_coarse
from repro.core.pv import PVChecker
from repro.dtd.parser import parse_dtd
from repro.errors import ReproError
from repro.obs.metrics import counter_value
from repro.server import protocol
from repro.server.client import ServerError, ValidationClient
from repro.server.protocol import ProtocolError, decode_request
from repro.server import server as server_mod
from repro.server.server import ServerThread, ValidationServer
from repro.service.compiled import CompiledSchema
from repro.service.registry import SchemaRegistry

FIGURE1 = """
<!ELEMENT r (a+)>
<!ELEMENT a (b?, (c | f), d)>
<!ELEMENT b (d | f)>
<!ELEMENT c (#PCDATA)>
<!ELEMENT d (#PCDATA | e)*>
<!ELEMENT e EMPTY>
<!ELEMENT f (c, e)>
"""

DOC_OK = "<r><a><b>A quick brown</b><c> fox</c> dog<e></e></a></r>"
#: The paper's W: <e> before <c> cannot be completed by insertions alone.
DOC_BAD = "<r><a><b>A quick brown</b><e></e><c> fox</c> dog</a></r>"


# -- protocol unit tests -----------------------------------------------------


class TestProtocol:
    def test_request_roundtrip(self):
        request = decode_request(
            json.dumps(
                {"op": "check", "dtd": FIGURE1, "doc": DOC_OK,
                 "algorithm": "machine", "id": 7}
            )
        )
        assert request.op == "check"
        assert request.algorithm == "machine"
        assert request.id == 7

    def test_bad_json(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_request(b"this is { not json")
        assert excinfo.value.code == "bad-json"

    def test_non_object(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_request(b"[1, 2, 3]")
        assert excinfo.value.code == "bad-request"

    def test_unknown_op(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_request(json.dumps({"op": "frobnicate"}))
        assert excinfo.value.code == "unsupported-op"

    def test_missing_dtd(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_request(json.dumps({"op": "check", "doc": DOC_OK}))
        assert "requires 'dtd'" in excinfo.value.message

    def test_missing_doc(self):
        with pytest.raises(ProtocolError):
            decode_request(json.dumps({"op": "validate", "dtd": FIGURE1}))

    def test_stats_needs_nothing(self):
        assert decode_request(json.dumps({"op": "stats"})).op == "stats"

    def test_bad_algorithm(self):
        with pytest.raises(ProtocolError):
            decode_request(
                json.dumps({"op": "check", "dtd": FIGURE1, "doc": DOC_OK,
                            "algorithm": "magic"})
            )

    def test_non_string_field(self):
        with pytest.raises(ProtocolError):
            decode_request(json.dumps({"op": "check", "dtd": 42, "doc": DOC_OK}))

    def test_encode_is_one_line(self):
        encoded = protocol.encode({"ok": True, "nested": {"a": [1, 2]}})
        assert encoded.endswith(b"\n")
        assert encoded.count(b"\n") == 1

    def test_decode_reply_wraps_bad_json(self):
        # Regression: this used to leak a raw json.JSONDecodeError,
        # violating the "failures are structured" contract.
        with pytest.raises(ProtocolError) as excinfo:
            protocol.decode_reply(b"this is { not json\n")
        assert excinfo.value.code == "bad-reply"

    def test_decode_reply_wraps_bad_utf8(self):
        with pytest.raises(ProtocolError) as excinfo:
            protocol.decode_reply(b"\xff\xfe{}\n")
        assert excinfo.value.code == "bad-reply"

    def test_decode_reply_requires_ok(self):
        with pytest.raises(ProtocolError) as excinfo:
            protocol.decode_reply(b'{"fine": true}\n')
        assert excinfo.value.code == "bad-reply"

    def test_decode_batch_item(self):
        item = protocol.decode_batch_item(b'{"doc": "<r/>", "id": 0}')
        assert item.doc == "<r/>" and item.id == 0
        for garbage in (b"nope {", b"[1]", b'{"id": 3}', b'{"doc": 42}'):
            with pytest.raises(ProtocolError) as excinfo:
                protocol.decode_batch_item(garbage)
            assert excinfo.value.code == "bad-item"


# -- live server tests -------------------------------------------------------


@pytest.fixture
def server_handle():
    with ServerThread(host="127.0.0.1", port=0) as handle:
        yield handle


@pytest.fixture
def client(server_handle):
    with ValidationClient.connect(server_handle.tcp_address) as client:
        yield client


class TestServerRoundTrip:
    def test_check_ok(self, client):
        reply = client.check(FIGURE1, DOC_OK)
        assert reply["ok"] is True
        assert reply["potentially_valid"] is True
        assert reply["failures"] == []
        assert reply["elapsed_ms"] >= 0
        assert reply["schema"]["registry"] == "miss"
        assert len(reply["schema"]["fingerprint"]) == 64

    def test_check_not_pv_carries_failures(self, client):
        reply = client.check(FIGURE1, DOC_BAD)
        assert reply["potentially_valid"] is False
        assert reply["failures"]
        assert reply["failures"][0]["element"]

    def test_second_request_is_a_registry_hit(self, client):
        client.check(FIGURE1, DOC_OK)
        assert client.check(FIGURE1, DOC_OK)["schema"]["registry"] == "hit"

    def test_explicit_algorithms_agree(self, client):
        verdicts = {
            algorithm: client.check(FIGURE1, DOC_OK, algorithm=algorithm)[
                "potentially_valid"
            ]
            for algorithm in ("kernel", "machine", "figure5", "earley")
        }
        assert set(verdicts.values()) == {True}

    def test_auto_dispatch_reports_reason(self, client):
        # The resolved backend is the whole reason: auto is the kernel,
        # and the reply carries no other dispatch field.
        reply = client.check(FIGURE1, DOC_OK, algorithm="auto")
        assert reply["algorithm"] == "kernel"
        assert set(reply) == {
            "ok", "op", "potentially_valid", "failures", "depth_limited",
            "algorithm", "schema", "elapsed_ms",
        }

    def test_id_is_echoed(self, client):
        assert client.check(FIGURE1, DOC_OK, id="req-1")["id"] == "req-1"

    def test_classify(self, client):
        reply = client.classify(FIGURE1)
        assert reply["dtd_class"] == "non-recursive"
        assert reply["element_count"] == 7

    def test_validate(self, client):
        reply = client.validate(FIGURE1, DOC_OK)
        assert reply["valid"] is False  # potentially valid, not yet valid
        assert reply["issues"]

    def test_stats(self, client):
        client.check(FIGURE1, DOC_OK)
        reply = client.stats()
        assert reply["server"]["requests"] >= 2
        assert reply["registry"]["size"] == 1
        assert "store" not in reply

    def test_unix_socket(self, tmp_path):
        with ServerThread(unix_path=str(tmp_path / "pv.sock")) as handle:
            assert handle.tcp_address is None
            with ValidationClient.connect_unix(handle.unix_path) as client:
                assert client.check(FIGURE1, DOC_OK)["potentially_valid"]


class TestServerErrors:
    """Every defect is a structured reply; the connection survives."""

    def test_malformed_json_then_normal_request(self, client):
        reply = client.send_raw(b"this is definitely { not json\n")
        assert reply["ok"] is False
        assert reply["error"]["code"] == "bad-json"
        # Same socket still serves real requests.
        assert client.check(FIGURE1, DOC_OK)["potentially_valid"] is True

    def test_bad_dtd(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.check("<!ELEMENT broken", DOC_OK)
        assert excinfo.value.code == "bad-dtd"

    def test_bad_document(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.check(FIGURE1, "<r><a></r>")
        assert excinfo.value.code == "bad-document"

    def test_an_invalid_character_reference_is_a_bad_document(self, client):
        bad = "<r>&#xZZ;</r>"
        with pytest.raises(ServerError) as excinfo:
            client.check(FIGURE1, bad)
        assert excinfo.value.code == "bad-document"
        assert excinfo.value.message.startswith(
            "invalid character reference &#xZZ;"
        )
        replies, trailer = client.check_batch(FIGURE1, [DOC_OK, bad])
        assert replies[0]["potentially_valid"] is True
        assert replies[1]["error"]["code"] == "bad-document"
        assert trailer["errors"] == 1
        assert client.stats()["server"]["errors"] == 2
        snapshot = client.metrics()["metrics"]
        assert counter_value(
            snapshot, "repro_errors_total", code="bad-document"
        ) == 2
        assert counter_value(snapshot, "repro_errors_total", code="internal") == 0

    def test_unknown_op(self, client):
        reply = client.send_raw(b'{"op": "frobnicate"}\n')
        assert reply["error"]["code"] == "unsupported-op"

    def test_blank_lines_are_ignored(self, client):
        reply = client.send_raw(b"\n" + protocol.encode({"op": "stats"}))
        assert reply["ok"] is True

    def test_errors_counted_in_stats(self, client):
        with pytest.raises(ServerError):
            client.check("<!ELEMENT broken", DOC_OK)
        assert client.stats()["server"]["errors"] >= 1

    def test_error_replies_echo_the_request_id(self, client):
        reply = client.send_raw(
            protocol.encode(
                {"op": "check", "dtd": "<!ELEMENT broken", "doc": DOC_OK,
                 "id": 42}
            )
        )
        assert reply["ok"] is False
        assert reply["error"]["code"] == "bad-dtd"
        assert reply["id"] == 42

    def test_server_error_carries_the_full_reply_and_id(self, client):
        # Regression: ServerError used to discard the reply object, which
        # made error replies uncorrelatable under pipelining.
        with pytest.raises(ServerError) as excinfo:
            client.check("<!ELEMENT broken", DOC_OK, id="req-7")
        error = excinfo.value
        assert error.code == "bad-dtd"
        assert error.id == "req-7"
        assert error.reply["ok"] is False
        assert error.reply["id"] == "req-7"
        assert error.reply["error"]["code"] == "bad-dtd"


class TestConcurrentClients:
    def test_many_connections_share_one_registry(self):
        registry = SchemaRegistry()
        with ServerThread(host="127.0.0.1", registry=registry) as handle:
            errors: list[Exception] = []

            def worker() -> None:
                try:
                    with ValidationClient.connect(handle.tcp_address) as client:
                        for _ in range(5):
                            reply = client.check(FIGURE1, DOC_OK)
                            assert reply["potentially_valid"] is True
                except Exception as error:  # pragma: no cover - failure path
                    errors.append(error)

            threads = [threading.Thread(target=worker) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            with ValidationClient.connect(handle.tcp_address) as client:
                stats = client.stats()
        # One compile total; every other access was a warm hit, so the
        # hit rate climbs toward 1 as connections pile on.
        assert stats["registry"]["misses"] == 1
        assert stats["registry"]["hits"] >= 29
        assert stats["registry"]["hit_rate"] > 0.9
        assert registry.stats.size == 1


#: Three small schemas (and a valid document each) to churn a registry.
_CHURN = [
    (f"<!ELEMENT s{i} (t{i}*)><!ELEMENT t{i} (#PCDATA)>",
     f"<s{i}><t{i}>x</t{i}></s{i}>")
    for i in range(3)
]


class TestServerCachesFollowTheRegistry:
    def test_a_recompiled_schema_is_served_over_its_new_artifact(self):
        # check A, check B, classify C, classify D evicts A from a
        # two-entry registry.  The second check of A recompiles it and
        # must be served over the registry's new artifact, whose kernel
        # memo the scrape then counts.
        registry = SchemaRegistry(maxsize=2)
        with ServerThread(host="127.0.0.1", registry=registry) as handle:
            with ValidationClient.connect(handle.tcp_address) as client:
                first = client.check(FIGURE1, DOC_OK)
                client.check(*_CHURN[0])
                client.classify(_CHURN[1][0])
                client.classify(_CHURN[2][0])
                again = client.check(FIGURE1, DOC_OK)
                scrape = client.metrics()["metrics"]
        assert first["schema"]["registry"] == again["schema"]["registry"] == "miss"
        fingerprint = again["schema"]["fingerprint"]
        schema = registry.lookup(fingerprint)
        gauges = {entry["name"]: entry["value"] for entry in scrape["gauges"]}
        assert len(schema.tables.emissions) >= 1
        assert gauges["repro_kernel_memo_entries"] == len(schema.tables.emissions)

    @pytest.mark.parametrize("last", ["classify", "validate"])
    def test_an_evicted_artifact_is_not_pinned(self, last):
        # check A, check B, then classify (or validate) C evicts A from a
        # two-entry registry.  Nothing else the server keeps may hold A's
        # artifact: the registry's budget bounds what stays resident.
        # A's DTD is this test's own, so no other artifact in the
        # process shares its fingerprint.
        registry = SchemaRegistry(maxsize=2)
        with ServerThread(host="127.0.0.1", registry=registry) as handle:
            with ValidationClient.connect(handle.tcp_address) as client:
                reply = client.check(
                    "<!ELEMENT pinned (leaf*)><!ELEMENT leaf (#PCDATA)>",
                    "<pinned><leaf>x</leaf></pinned>",
                )
                fingerprint = reply["schema"]["fingerprint"]
                client.check(*_CHURN[0])
                dtd, doc = _CHURN[1]
                if last == "classify":
                    client.classify(dtd)
                else:
                    client.validate(dtd, doc)
                assert registry.lookup(fingerprint) is None
                assert registry.stats.size == 2
                gc.collect()
                alive = [
                    obj for obj in gc.get_objects()
                    if isinstance(obj, CompiledSchema)
                    and obj.fingerprint == fingerprint
                ]
                assert alive == []

    def test_concurrent_validates_under_registry_churn_never_fail(self):
        # Regression: validators were cached in a dict that the server's
        # threads mutated without a lock, and a validate racing another
        # could be answered "internal: KeyError".  The race is rare, so
        # a short switch interval widens it; a racy server fails this
        # test only by chance, but any failure is a real one.
        interval = sys.getswitchinterval()
        replies: list[dict] = []
        sys.setswitchinterval(1e-6)
        try:
            with ServerThread(
                host="127.0.0.1", registry=SchemaRegistry(maxsize=1)
            ) as handle:

                def worker(offset: int) -> None:
                    with ValidationClient.connect(handle.tcp_address) as client:
                        payloads = [
                            {"op": "validate", "dtd": dtd, "doc": doc}
                            for dtd, doc in (
                                _CHURN[(offset + i) % 3] for i in range(400)
                            )
                        ]
                        replies.extend(client.pipeline(payloads))

                threads = [
                    threading.Thread(target=worker, args=(i,)) for i in range(6)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert len(replies) == 2400
        assert [reply for reply in replies if not reply["ok"]] == []
        assert all(reply["valid"] for reply in replies)


class _SlowServer(ValidationServer):
    """Adds a delay inside request handling to widen the in-flight window."""

    def __init__(self, delay: float, **kwargs: object) -> None:
        super().__init__(**kwargs)
        self.delay = delay

    async def _handle_line(self, line: bytes, *args: object) -> dict:
        response = await super()._handle_line(line, *args)
        await asyncio.sleep(self.delay)
        return response


class TestGracefulShutdown:
    def test_inflight_request_is_drained(self):
        handle = ServerThread(_SlowServer(delay=0.6), host="127.0.0.1")
        handle.start()
        client = ValidationClient.connect(handle.tcp_address)
        result: dict = {}

        def send() -> None:
            result.update(client.check(FIGURE1, DOC_OK))

        sender = threading.Thread(target=send)
        try:
            sender.start()
            # Let the request reach the server, then stop while in flight.
            import time

            time.sleep(0.2)
            handle.stop()  # blocks until drained
            sender.join(timeout=5)
            assert not sender.is_alive()
            assert result.get("potentially_valid") is True
        finally:
            client.close()

    def test_an_idle_connection_closes_at_once(self):
        # Parked between requests, a connection holds no request: stop()
        # closes it without waiting out the 30 s drain.
        handle = ServerThread(host="127.0.0.1")
        handle.start()
        try:
            with socket.create_connection(handle.tcp_address, timeout=10) as sock:
                sock.sendall(protocol.encode({"op": "health"}))
                with sock.makefile("rb") as lines:
                    assert protocol.decode_reply(lines.readline())["ok"] is True
                    began = time.monotonic()
                    handle.stop()
                    stopped = time.monotonic() - began
                    rest = lines.readline()
        finally:
            handle.stop()
        assert stopped < 5.0
        assert rest == b""  # closed by the server, no reply pending
        assert not handle.server._idle

    def test_new_connections_refused_after_stop(self):
        with ServerThread(host="127.0.0.1") as handle:
            address = handle.tcp_address
            with ValidationClient.connect(address) as client:
                client.check(FIGURE1, DOC_OK)
        with pytest.raises(OSError):
            ValidationClient.connect(address)


def _one_shot_server(respond) -> tuple[str, int, threading.Thread]:
    """A fake TCP server: accept one connection, run *respond*, close."""
    listener = socket.create_server(("127.0.0.1", 0))
    host, port = listener.getsockname()

    def serve() -> None:
        conn, _addr = listener.accept()
        try:
            respond(conn)
        finally:
            conn.close()
            listener.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return host, port, thread


class TestClientWireDefects:
    """The client's own structured-failure contract (satellite coverage)."""

    def test_garbage_reply_is_a_protocol_error(self):
        def respond(conn: socket.socket) -> None:
            conn.makefile("rb").readline()
            conn.sendall(b"this is definitely { not json\n")

        host, port, thread = _one_shot_server(respond)
        with ValidationClient.connect_tcp(host, port) as client:
            with pytest.raises(ProtocolError) as excinfo:
                client.request({"op": "stats"})
        thread.join(timeout=5)
        assert excinfo.value.code == "bad-reply"

    def test_mid_reply_hangup_is_a_connection_error(self):
        def respond(conn: socket.socket) -> None:
            conn.makefile("rb").readline()
            conn.sendall(b'{"ok": tru')  # dies with the reply half-written

        host, port, thread = _one_shot_server(respond)
        with ValidationClient.connect_tcp(host, port) as client:
            with pytest.raises(ConnectionError) as excinfo:
                client.request({"op": "stats"})
        thread.join(timeout=5)
        assert "mid-reply" in str(excinfo.value)

    def test_hangup_before_any_reply_is_a_connection_error(self):
        def respond(conn: socket.socket) -> None:
            conn.makefile("rb").readline()  # read the request, say nothing

        host, port, thread = _one_shot_server(respond)
        with ValidationClient.connect_tcp(host, port) as client:
            with pytest.raises(ConnectionError):
                client.request({"op": "stats"})
        thread.join(timeout=5)

    def test_a_batch_item_answered_twice_is_a_connection_error(self):
        def respond(conn: socket.socket) -> None:
            stream = conn.makefile("rb")
            for _ in range(3):  # the header and both items
                stream.readline()
            item = {"ok": True, "op": "check-batch-item", "id": 0,
                    "potentially_valid": True}
            trailer = {"ok": True, "op": "check-batch", "items": 2, "errors": 0}
            conn.sendall(protocol.encode(item) * 2 + protocol.encode(trailer))

        host, port, thread = _one_shot_server(respond)
        with ValidationClient.connect_tcp(host, port) as client:
            with pytest.raises(ConnectionError, match="answered twice"):
                client.check_batch(FIGURE1, [DOC_OK, DOC_OK])
        thread.join(timeout=5)

    def test_a_failed_unix_connect_closes_its_socket(self, tmp_path):
        def open_fds() -> int:
            return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else 0

        missing = str(tmp_path / "nobody.sock")
        kept: list[OSError] = []  # a failover keeps its last error like this
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            before = open_fds()
            for _ in range(20):
                with pytest.raises(OSError) as excinfo:
                    ValidationClient.connect_unix(missing)
                kept.append(excinfo.value)
            held = open_fds() - before
            kept.clear()
            gc.collect()
        assert held == 0
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def assert_bad_requests_counted(address, count: int) -> None:
    """A fresh connection's ``stats`` and scrape count *count* errors,
    each a ``bad-request``."""
    with ValidationClient.connect(address) as client:
        assert client.stats()["server"]["errors"] == count
        snapshot = client.metrics()["metrics"]
    assert counter_value(snapshot, "repro_errors_total") == count
    assert counter_value(
        snapshot, "repro_errors_total", code="bad-request"
    ) == count


class TestOverLimitRequests:
    """MAX_LINE_BYTES exceeded -> structured error, then disconnect."""

    @pytest.fixture
    def small_limit(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_LINE_BYTES", 4096)

    def test_overlong_request_gets_error_then_disconnect(self, small_limit):
        with ServerThread(host="127.0.0.1", port=0) as handle:
            with ValidationClient.connect(handle.tcp_address) as client:
                client.send(
                    {"op": "check", "dtd": FIGURE1, "doc": "<r>" + "x" * 8192}
                )
                reply = client.recv()
                assert reply["ok"] is False
                assert reply["error"]["code"] == "bad-request"
                assert "exceeds" in reply["error"]["message"]
                # The framing is unrecoverable, so the server closes: the
                # documented disconnect.
                with pytest.raises(ConnectionError):
                    client.request({"op": "stats"})
            assert_bad_requests_counted(handle.tcp_address, 1)

    def test_within_limit_still_fine(self, small_limit):
        with ServerThread(host="127.0.0.1", port=0) as handle:
            with ValidationClient.connect(handle.tcp_address) as client:
                assert client.check(FIGURE1, DOC_OK)["potentially_valid"]

    def test_overlong_batch_item_gets_error_then_disconnect(self, small_limit):
        with ServerThread(host="127.0.0.1", port=0) as handle:
            with ValidationClient.connect(handle.tcp_address) as client:
                client.send(
                    {"op": "check-batch", "dtd": FIGURE1, "count": 1},
                    flush=False,
                )
                client.send({"doc": "<r>" + "y" * 8192})
                reply = client.recv()
                assert reply["ok"] is False
                assert reply["error"]["code"] == "bad-request"
                with pytest.raises(ConnectionError):
                    client.request({"op": "stats"})
            assert_bad_requests_counted(handle.tcp_address, 1)


class TestUndecodableBatchHeader:
    def test_one_error_reply_then_eof(self):
        # A check-batch header that fails to decode is a bad header
        # (framing rule 5): its item lines are never read as requests.
        with ServerThread(host="127.0.0.1", port=0) as handle:
            with ValidationClient.connect(handle.tcp_address) as client:
                client.send(
                    {"op": "check-batch", "dtd": FIGURE1,
                     "algorithm": "bogus", "count": 2},
                    flush=False,
                )
                client.send({"doc": DOC_OK}, flush=False)
                client.send({"doc": DOC_OK})
                reply = client.recv()
                assert reply["ok"] is False
                assert reply["error"]["code"] == "bad-request"
                with pytest.raises(ConnectionError):
                    client.recv()  # EOF: no reply to either item line
            assert_bad_requests_counted(handle.tcp_address, 1)


class TestConnectionTasks:
    def test_a_connection_cancelled_before_its_first_step_is_closed(self):
        # stop() cancels the connection tasks still pending.  A task
        # cancelled before its first step never runs the handler, whose
        # ``finally`` closes the writer, so the task's end must close it.
        server = ValidationServer()
        ours, peer = socket.socketpair()

        async def main() -> bool:
            reader, writer = await asyncio.open_connection(sock=ours)
            server._on_connection(reader, writer)
            (task,) = server._conn_tasks
            task.cancel()
            for _ in range(3):  # the task ends, its callbacks run
                await asyncio.sleep(0)
            assert task.cancelled()
            return writer.transport.is_closing()

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            try:
                closed = asyncio.run(main())
            finally:
                peer.close()
            gc.collect()
        assert closed
        assert not server._conn_tasks
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


class TestUnixSocketLifecycle:
    """Stale socket paths must not brick a restarted server (satellite)."""

    def test_stop_unlinks_the_socket_path(self, tmp_path):
        path = tmp_path / "pv.sock"
        with ServerThread(unix_path=str(path)) as handle:
            assert path.exists()
            assert handle.unix_path == str(path)
        assert not path.exists()

    def test_restart_over_a_stale_socket_succeeds(self, tmp_path):
        # Simulate a crash: a bound-then-abandoned socket file with no
        # listener behind it (what SIGKILL leaves on disk).
        path = tmp_path / "pv.sock"
        stale = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        stale.bind(str(path))
        stale.close()  # closed without listen/accept and without unlink
        assert path.exists()
        with ServerThread(unix_path=str(path)) as handle:
            with ValidationClient.connect_unix(handle.unix_path) as client:
                assert client.check(FIGURE1, DOC_OK)["potentially_valid"]
        assert not path.exists()

    def test_restart_after_restart(self, tmp_path):
        # The original regression: serve, stop, serve again on one path.
        path = str(tmp_path / "pv.sock")
        for _round in range(3):
            with ServerThread(unix_path=path) as handle:
                with ValidationClient.connect_unix(handle.unix_path) as client:
                    assert client.check(FIGURE1, DOC_OK)["ok"]

    def test_live_socket_is_not_stolen(self, tmp_path):
        path = str(tmp_path / "pv.sock")
        with ServerThread(unix_path=path):
            with pytest.raises(OSError):
                ServerThread(unix_path=path).start()
            # And the probe did not kill the live server's socket.
            with ValidationClient.connect_unix(path) as client:
                assert client.check(FIGURE1, DOC_OK)["ok"]

    def test_regular_file_is_never_clobbered(self, tmp_path):
        path = tmp_path / "precious.txt"
        path.write_text("do not delete")
        with pytest.raises(OSError):
            ServerThread(unix_path=str(path)).start()
        assert path.read_text() == "do not delete"


class TestServerConstruction:
    def test_unknown_read_policy_rejected(self):
        with pytest.raises(ValueError):
            ValidationServer(read_policy="sticky")

    def test_unknown_default_algorithm_rejected(self):
        with pytest.raises(ValueError):
            ValidationServer(default_algorithm="quantum")

    def test_needs_an_endpoint(self):
        server = ValidationServer()
        with pytest.raises(ValueError):
            asyncio.run(server.start())

    def test_bind_error_surfaces_from_thread(self):
        with ServerThread(host="127.0.0.1", port=0) as handle:
            _host, port = handle.tcp_address
            with pytest.raises(OSError):
                ServerThread(host="127.0.0.1", port=port).start()


# -- health, ring views, and epochs ------------------------------------------


class TestHealthOp:
    def test_health_without_a_view(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["epoch"] is None
        assert health["members"] is None
        assert health["uptime_seconds"] >= 0.0

    def test_health_reports_the_published_view(self, server_handle, client):
        server_handle.server.set_ring_view(
            3, ["a.sock", "b.sock"], replica_count=2
        )
        health = client.health()
        assert health["epoch"] == 3
        assert health["members"] == ["a.sock", "b.sock"]
        assert health["replica_count"] == 2


class TestRingConfigOp:
    """A held ring view: reply stamps and request epoch gating.

    The view is installed in process with ``set_ring_view``, the way a
    local ring starts (a ring shard's gossip agent keeps it after).
    """

    @pytest.fixture
    def install(self, server_handle):
        return server_handle.server.set_ring_view

    def test_replies_are_stamped_after_a_view(self, client, install):
        assert "epoch" not in client.check(FIGURE1, DOC_OK)
        install(5, ["a.sock"])
        reply = client.check(FIGURE1, DOC_OK)
        assert reply["epoch"] == 5
        assert client.stats()["server"]["ring_epoch"] == 5

    def test_stale_request_epoch_is_wrong_epoch_with_the_view(
        self, client, install
    ):
        install(4, ["a.sock", "b.sock"], replica_count=2)
        with pytest.raises(ServerError) as excinfo:
            client.check(FIGURE1, DOC_OK, epoch=2)
        error = excinfo.value.reply["error"]
        assert error["code"] == "wrong-epoch"
        assert error["epoch"] == 4
        assert error["members"] == ["a.sock", "b.sock"]
        assert error["replica_count"] == 2
        # The connection survives: a recoverable protocol error.
        assert client.check(FIGURE1, DOC_OK, epoch=4)["potentially_valid"]

    def test_current_and_future_epochs_are_served(self, client, install):
        install(4, ["a.sock"])
        assert client.check(FIGURE1, DOC_OK, epoch=4)["ok"]
        # A client ahead of this shard (it missed a change) is not gated.
        assert client.check(FIGURE1, DOC_OK, epoch=9)["ok"]

    def test_epochless_requests_are_always_served(self, client, install):
        install(7, ["a.sock"])
        assert client.check(FIGURE1, DOC_OK)["potentially_valid"]

    def test_a_stale_view_is_rejected(self, client, install):
        install(6, ["a.sock"])
        with pytest.raises(ProtocolError) as excinfo:
            install(2, ["b.sock"])
        assert excinfo.value.code == "wrong-epoch"
        assert excinfo.value.details["epoch"] == 6
        # The same view again is idempotent; a newer one replaces it.
        install(6, ["a.sock"])
        install(8, ["b.sock"])
        assert client.health()["members"] == ["b.sock"]

    def test_equal_epoch_with_a_different_view_is_rejected(
        self, client, install
    ):
        # One epoch must never name two views.
        install(5, ["a.sock", "b.sock"], replica_count=2)
        with pytest.raises(ProtocolError) as excinfo:
            install(5, ["a.sock", "c.sock"], replica_count=2)
        assert excinfo.value.code == "wrong-epoch"
        with pytest.raises(ProtocolError):
            install(5, ["a.sock", "b.sock"], replica_count=1)
        # The held view is untouched by the rejected installs.
        assert client.health()["members"] == ["a.sock", "b.sock"]

    def test_a_view_advertises_a_read_policy(self, client, install):
        install(
            3, ["a.sock", "b.sock"], replica_count=2, read_policy="round-robin"
        )
        health = client.health()
        assert health["read_policy"] == "round-robin"
        # The wrong-epoch refresh carries it too, so a routing client
        # adopting the view learns the policy from the error alone.
        with pytest.raises(ServerError) as excinfo:
            client.check(FIGURE1, DOC_OK, epoch=1)
        assert excinfo.value.reply["error"]["read_policy"] == "round-robin"

    def test_read_policy_absent_until_advertised(self, client, install):
        install(3, ["a.sock"])
        assert client.health()["read_policy"] is None

    def test_same_epoch_with_a_different_read_policy_is_rejected(
        self, client, install
    ):
        install(5, ["a.sock"], read_policy="round-robin")
        with pytest.raises(ProtocolError) as excinfo:
            install(5, ["a.sock"], read_policy="least-inflight")
        assert excinfo.value.code == "wrong-epoch"
        assert client.health()["read_policy"] == "round-robin"

    def test_batch_header_with_stale_epoch_errors_then_disconnects(
        self, server_handle, install
    ):
        with ValidationClient.connect(server_handle.tcp_address) as client:
            install(4, ["a.sock"])
            with pytest.raises(ServerError) as excinfo:
                client.check_batch(FIGURE1, [DOC_OK], epoch=1)
            assert excinfo.value.code == "wrong-epoch"
            with pytest.raises((ConnectionError, OSError)):
                client.check(FIGURE1, DOC_OK)

    def test_wrong_epoch_happens_before_any_work(self, client, install):
        install(4, ["a.sock"])
        with pytest.raises(ServerError):
            client.check("<!ELEMENT broken", DOC_OK, epoch=1)
        # The stale epoch answered first: the broken DTD was never parsed,
        # so the error code is wrong-epoch, not bad-dtd.
        try:
            client.check("<!ELEMENT broken", DOC_OK, epoch=1)
        except ServerError as error:
            assert error.code == "wrong-epoch"


class TestInflightGauge:
    def test_idle_server_reports_zero_inflight(self, client):
        client.check(FIGURE1, DOC_OK)
        stats = client.stats()
        assert stats["server"]["inflight"] == 0
        assert client.health()["inflight"] == 0

    def test_inflight_counts_a_parked_verdict(self, server_handle):
        # Hold one check in flight on a second connection and observe it
        # through stats on the first — the signal a least-inflight
        # router balances on.
        import threading
        import time

        release = threading.Event()
        original = server_mod.check_text

        def slow_check(*args):
            release.wait(timeout=10)
            return original(*args)

        server_mod.check_text = slow_check
        try:
            with ValidationClient.connect(server_handle.tcp_address) as busy:
                busy.send({"op": "check", "dtd": FIGURE1, "doc": DOC_OK})
                with ValidationClient.connect(
                    server_handle.tcp_address
                ) as observer:
                    deadline = time.monotonic() + 5.0
                    seen = 0
                    while time.monotonic() < deadline:
                        seen = observer.stats()["server"]["inflight"]
                        if seen >= 1:
                            break
                        time.sleep(0.01)
                    assert seen >= 1
                    release.set()
                    assert busy.recv()["potentially_valid"] is True
                    assert observer.stats()["server"]["inflight"] == 0
        finally:
            server_mod.check_text = original
            release.set()

    def test_queue_depth_counts_the_cpus_the_process_may_use(self, monkeypatch):
        # A shard pinned to one CPU queues its second document, whatever
        # the host's CPU count.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        server = ValidationServer()
        server._inflight = 2
        assert server._load_fields() == {"inflight": 2, "queue_depth": 1}


class TestHotFingerprints:
    def test_stats_rank_fingerprints_by_request_count(self, client):
        other = "<!ELEMENT q (z*)><!ELEMENT z EMPTY>"
        for _ in range(3):
            client.check(FIGURE1, DOC_OK)
        client.check(other, "<q/>")
        hot = client.stats()["hot"]
        assert len(hot) == 2
        (top_fp, top_count), (second_fp, second_count) = hot
        assert top_count == 3 and second_count == 1
        assert top_fp == client.check(FIGURE1, DOC_OK)["schema"]["fingerprint"]
        assert top_fp != second_fp

    def test_batch_items_count_toward_heat(self, client):
        client.check_batch(FIGURE1, [DOC_OK] * 5)
        hot = client.stats()["hot"]
        assert hot[0][1] >= 5


class TestAdmissionServer:
    """The server has no admission stage: every check runs a backend."""

    #: <zz> is undeclared, so the coarse summary rejects it outright.
    REJECT = "<r><zz></zz></r>"

    def test_admission_off_replies_carry_no_admission_field(self, client):
        reply = client.check(FIGURE1, self.REJECT)
        assert "admission" not in reply
        assert reply["algorithm"] != "coarse"


class TestVerdictCacheMetrics:
    def test_scrapes_report_the_cache_counters_once(self):
        from repro.obs.metrics import counter_value

        docs = ["<r><a><c></c><d></d></a></r>", DOC_OK, DOC_BAD, DOC_OK]
        with ServerThread(host="127.0.0.1", verdict_cache=2) as handle:
            with ValidationClient.connect(handle.tcp_address) as client:
                for doc in docs:
                    client.check(FIGURE1, doc)
                stats = client.stats()["server"]["verdict_cache"]
                for _scrape in range(2):  # a second scrape adds nothing
                    snapshot = client.metrics()["metrics"]
                    counted = {
                        key: counter_value(
                            snapshot, "repro_verdict_cache_total", outcome=outcome
                        )
                        for key, outcome in (
                            ("hits", "hit"), ("misses", "miss"),
                            ("evictions", "evict"),
                        )
                    }
                    assert counted == {
                        "hits": 1, "misses": 3, "evictions": 1,
                    } == {key: stats[key] for key in counted}


class TestFigure5FalseNegative:
    """``auto`` serves the kernel, and the figure5 oracle agrees.

    Under this DTD (a random ring tenant) the figure5 recognizer used to
    reject a document that is plainly DTD-valid (an occupied node hid a
    fresh one at the same position); ``auto`` used to route small
    documents like it to figure5.
    """

    DTD = (
        "<!ELEMENT t75x0 ((t75x7? | t75x3 | t75x5*), t75x1?, t75x2?, t75x4?)>"
        "<!ELEMENT t75x1 EMPTY>  <!ELEMENT t75x2 ((t75x8*, t75x3*, t75x6?)*)>"
        "<!ELEMENT t75x3 (#PCDATA)>  <!ELEMENT t75x4 (t75x8* | t75x6+)>"
        "<!ELEMENT t75x5 (t75x6, t75x7, t75x8)>"
        "<!ELEMENT t75x6 ((t75x7 | t75x8)+)>"
        "<!ELEMENT t75x7 (#PCDATA | t75x8)*>  <!ELEMENT t75x8 EMPTY>"
    )
    DOC = "<t75x0><t75x3></t75x3><t75x2></t75x2></t75x0>"

    def test_the_document_is_valid(self):
        from repro.dtd.parser import parse_dtd
        from repro.validity.validator import DTDValidator
        from repro.xmlmodel.parser import parse_xml

        report = DTDValidator(parse_dtd(self.DTD)).validate(parse_xml(self.DOC))
        assert report.valid

    def test_served_check_and_batch_answer_yes_on_the_kernel(self, client):
        reply = client.check(self.DTD, self.DOC)
        assert reply["potentially_valid"] is True
        assert reply["algorithm"] == "kernel"
        replies, trailer = client.check_batch(self.DTD, [self.DOC])
        assert trailer["errors"] == 0
        assert replies[0]["potentially_valid"] is True
        assert replies[0]["algorithm"] == "kernel"

    def test_library_figure5_agrees(self):
        from repro.core.pv import PVChecker
        from repro.dtd.parser import parse_dtd

        checker = PVChecker(parse_dtd(self.DTD), algorithm="figure5")
        assert checker.check_text(self.DOC).potentially_valid


class TestCoarseOp:
    """``get-coarse`` and the ``"coarse": true`` reply stamps."""

    def test_get_coarse_round_trips_the_summary(self, client):
        fingerprint = client.check(FIGURE1, DOC_OK)["schema"]["fingerprint"]
        summary = decode_coarse(client.get_coarse(fingerprint))
        assert summary is not None
        assert summary.root == "r"
        assert set(summary.names) >= {"r", "a", "b", "c", "d", "e", "f"}

    def test_get_coarse_unknown_fingerprint_is_artifact_miss(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.get_coarse("0" * 16)
        assert excinfo.value.code == "artifact-miss"

    def test_check_reply_stamp_decodes(self, client):
        reply = client.check(FIGURE1, DOC_OK, coarse=True)
        blob = base64.b64decode(reply["coarse"].encode("ascii"))
        summary = decode_coarse(blob)
        assert summary is not None and summary.root == "r"

    def test_unstamped_replies_stay_lean(self, client):
        assert "coarse" not in client.check(FIGURE1, DOC_OK)

    def test_batch_trailer_carries_the_stamp_when_asked(self, client):
        replies, trailer = client.check_batch(FIGURE1, [DOC_OK], coarse=True)
        assert len(replies) == 1
        blob = base64.b64decode(trailer["coarse"].encode("ascii"))
        assert decode_coarse(blob) is not None


def _batch_stream(docs: list[str], counted: bool = True, **header: object) -> bytes:
    """A check-batch header and its item lines, as one write."""
    fields = {"op": "check-batch", "dtd": FIGURE1, **header}
    if counted:
        fields["count"] = len(docs)
    return protocol.encode(fields) + b"".join(
        protocol.encode({"doc": doc}) for doc in docs
    )


def _send_and_read(address, stream: bytes, replies: int) -> list[dict]:
    """Send *stream* in one write on a fresh connection; read *replies*."""
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(stream)
        with sock.makefile("rb") as lines:
            return [protocol.decode_reply(lines.readline()) for _ in range(replies)]


class TestBatchRuns:
    """A batch checks every item line that has arrived as one run: one
    off-loop hop and one write per run."""

    @pytest.fixture
    def hops(self, monkeypatch):
        """The functions sent off-loop with ``asyncio.to_thread``, but for
        the batch DTD's cold resolution (each test's server is fresh, so
        its first sight of the DTD is one more hop, before any run)."""
        sent: list = []
        to_thread = asyncio.to_thread

        async def counting(func, /, *args, **kwargs):
            if func.__name__ != "_resolve_text":
                sent.append(func)
            return await to_thread(func, *args, **kwargs)

        monkeypatch.setattr(asyncio, "to_thread", counting)
        return sent

    def test_a_batch_that_arrived_in_one_write_is_one_hop(
        self, server_handle, hops
    ):
        stream = _batch_stream([DOC_OK] * 50, trace="runs")
        *items, trailer = _send_and_read(server_handle.tcp_address, stream, 51)
        assert len(hops) == 1
        assert [item["id"] for item in items] == list(range(50))
        assert all(item["potentially_valid"] for item in items)
        assert trailer["items"] == 50 and trailer["errors"] == 0
        # The hop's queue time is spread evenly over the run's items; each
        # item keeps its own verdict time and dispatch count.
        assert len({item["trace"]["queue_ms"] for item in items}) == 1
        assert all("verdict_ms" in item["trace"] for item in items)
        with ValidationClient.connect(server_handle.tcp_address) as client:
            assert client.stats()["dispatch"] == {"kernel": 50}

    @pytest.mark.parametrize("window", [1, 3, 7])
    def test_every_window_answers_each_id_once_with_library_verdicts(
        self, client, hops, window
    ):
        docs = [DOC_OK, DOC_BAD, "<r><a>", "<r><a><c>x</c><d>y</d></a></r>"] * 5
        replies, trailer = client.check_batch(FIGURE1, docs, window=window)
        assert [reply["id"] for reply in replies] == list(range(len(docs)))
        library = PVChecker(parse_dtd(FIGURE1), algorithm="kernel")
        for doc, reply in zip(docs, replies):
            try:
                expected = library.check_text(doc).potentially_valid
            except ReproError:
                assert reply["error"]["code"] == "bad-document"
            else:
                assert reply["potentially_valid"] is expected
        assert trailer["items"] == 20 and trailer["errors"] == 5
        if window == 1:  # every run shrinks to the one item in flight
            assert len(hops) == len(docs)

    @pytest.mark.parametrize("counted", [True, False], ids=["counted", "blank"])
    def test_a_request_pipelined_behind_a_batch_is_answered(
        self, server_handle, counted
    ):
        stream = _batch_stream([DOC_OK, DOC_BAD], counted=counted)
        if not counted:
            stream += b"\n"
        stream += protocol.encode(
            {"op": "check", "dtd": FIGURE1, "doc": DOC_OK, "id": "behind"}
        )
        *items, trailer, check = _send_and_read(
            server_handle.tcp_address, stream, 4
        )
        assert [item["potentially_valid"] for item in items] == [True, False]
        assert trailer["op"] == "check-batch" and trailer["items"] == 2
        assert check["op"] == "check" and check["id"] == "behind"
        assert check["potentially_valid"] is True

    def test_defective_items_in_one_run_are_item_errors(
        self, server_handle, hops
    ):
        stream = (
            protocol.encode({"op": "check-batch", "dtd": FIGURE1, "count": 4})
            + protocol.encode({"doc": DOC_OK})
            + b"{not json\n"
            + protocol.encode({"doc": "<r><a>", "id": "broken"})
            + protocol.encode({"doc": DOC_BAD})
        )
        *items, trailer = _send_and_read(server_handle.tcp_address, stream, 5)
        assert len(hops) == 1
        assert [item["id"] for item in items] == [0, 1, "broken", 3]
        assert [item["ok"] for item in items] == [True, False, False, True]
        assert items[1]["error"]["code"] == "bad-item"
        assert items[2]["error"]["code"] == "bad-document"
        assert items[3]["potentially_valid"] is False
        assert trailer["items"] == 4 and trailer["errors"] == 2

    def test_a_client_that_does_not_read_is_held_at_one_line(
        self, server_handle, monkeypatch
    ):
        # While a run is checked, the reader takes at most one more line;
        # the rest stay in the stream, whose limit pauses the transport.
        feeds: list = []

        class Recorded(server_mod._ItemReader):
            def __init__(self, *args):
                super().__init__(*args)
                feeds.append(self)

        monkeypatch.setattr(server_mod, "_ItemReader", Recorded)
        server = server_handle.server
        entered, release = threading.Event(), threading.Event()
        runs: list[int] = []
        check_all = server._check_all

        def held(schema, docs, algorithm):
            runs.append(len(docs))
            entered.set()
            release.wait(timeout=10)
            return check_all(schema, docs, algorithm)

        monkeypatch.setattr(server, "_check_all", held)
        count = 5000
        item_line = protocol.encode({"doc": DOC_OK})
        try:
            with socket.create_connection(
                server_handle.tcp_address, timeout=10
            ) as sock:
                sock.sendall(
                    protocol.encode(
                        {"op": "check-batch", "dtd": FIGURE1, "count": count}
                    )
                    + item_line
                )
                assert entered.wait(timeout=10)  # the first run is off-loop
                sock.sendall(item_line * (count - 1))  # and no replies are read
                time.sleep(0.5)  # for the stream to reach the server
                [feed] = feeds
                ahead = len(feed.lines)
                release.set()
                with sock.makefile("rb") as lines:
                    replies = [
                        protocol.decode_reply(lines.readline())
                        for _ in range(count + 1)
                    ]
        finally:
            release.set()
        assert ahead <= 1
        # Once resumed, the reader collects the whole backlog as one run.
        assert runs == [1, count - 1]
        *items, trailer = replies
        assert [item["id"] for item in items] == list(range(count))
        assert trailer["items"] == count and trailer["errors"] == 0
        assert server._inflight == 0

    def test_a_hangup_mid_run_leaves_the_server_live(self, server_handle, client):
        stream = _batch_stream([DOC_OK] * 50)
        with socket.create_connection(server_handle.tcp_address) as sock:
            sock.sendall(stream[: len(stream) * 2 // 3])  # ends mid-line
        deadline = time.monotonic() + 10.0
        # Until a run was checked and the batch's connection has closed.
        while (server := client.stats()["server"])["batch_items"] == 0 or (
            server["connections"] > 1
        ):
            assert time.monotonic() < deadline, server
            time.sleep(0.01)
        assert server["inflight"] == 0
        assert client.health()["status"] == "ok"
        assert client.check(FIGURE1, DOC_OK)["potentially_valid"] is True

    def test_stop_ends_a_batch_waiting_for_its_next_item(self):
        handle = ServerThread(host="127.0.0.1", port=0).start()
        try:
            with socket.create_connection(handle.tcp_address, timeout=10) as sock:
                # The header promises three items; only one is sent.
                sock.sendall(
                    protocol.encode({"op": "check-batch", "dtd": FIGURE1, "count": 3})
                    + protocol.encode({"doc": DOC_OK})
                )
                with sock.makefile("rb") as lines:
                    first = protocol.decode_reply(lines.readline())
                    began = time.monotonic()
                    handle.stop()  # the drain timeout is 30 s
                    stopped = time.monotonic() - began
                    rest = lines.readline()
        finally:
            handle.stop()
        assert first["ok"] is True and first["id"] == 0
        assert stopped < 5.0
        assert rest == b""  # closed without a trailer
        assert handle.server._inflight == 0

    def test_stop_abandons_the_rest_of_a_run(self, monkeypatch):
        # A 200-item batch arrives in one write and each document takes
        # 20 ms; when stop()'s drain times out, the run's thread checks at
        # most the document it is in, not the rest of the run.
        server = ValidationServer()
        check = server_mod.check_text
        checked: list[float] = []

        def slow(*args):
            time.sleep(0.02)
            checked.append(time.monotonic())
            return check(*args)

        monkeypatch.setattr(server_mod, "check_text", slow)

        async def main() -> float:
            await server.start(host="127.0.0.1", port=0)
            reader, writer = await asyncio.open_connection(*server.tcp_address)
            writer.write(_batch_stream([DOC_OK] * 200))
            await writer.drain()
            while not checked:  # the run is off-loop
                await asyncio.sleep(0.005)
            await server.stop(drain_timeout=0.2)
            stopped = time.monotonic()
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass
            return stopped

        # asyncio.run waits for the run's thread before it returns.
        stopped = asyncio.run(main())
        assert len(checked) < 200
        assert sum(1 for at in checked if at > stopped) <= 1
        assert server._inflight == 0
