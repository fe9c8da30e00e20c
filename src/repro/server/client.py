"""A small blocking client for the validation server.

:class:`ValidationClient` speaks the NDJSON protocol over a plain socket
— TCP or Unix domain — responses decoded to dicts.  It is intentionally
synchronous: the test suite, the CI smoke job, the benchmarks, and
shell-adjacent tooling all want a straight-line call site, and the
server's concurrency lives server-side.

>>> with ValidationClient.connect_tcp("127.0.0.1", 8750) as client:
...     reply = client.check("<!ELEMENT r (a*)><!ELEMENT a EMPTY>", "<r/>")
...     reply["potentially_valid"]
True

Beyond one-request-per-round-trip calls, the client supports

* **pipelining** — :meth:`ValidationClient.pipeline` sends N requests
  before reading any reply and correlates the replies by their echoed
  ``id`` (falsy ids like ``0``, ``false``, and ``""`` included), so a
  high-latency link costs one round trip for the lot;
* **streaming batches** — :meth:`ValidationClient.check_batch` drives the
  wire protocol's ``check-batch`` op: one header, NDJSON item lines, and
  per-item replies read concurrently with a bounded send window (so
  neither side's socket buffer can deadlock the exchange);
* **artifact hand-off** — :meth:`ValidationClient.get_artifact` /
  :meth:`ValidationClient.put_artifact` move compiled schema artifacts
  between servers by fingerprint, the primitive the routing client's
  hand-off and a joining shard's prefetch use;
* **membership ops** — :meth:`ValidationClient.health` (the liveness
  probe, carrying the shard's ring view and gossip) and
  :meth:`ValidationClient.probe` (the gossip relay), plus an optional
  ``epoch=`` on every routed op so stale placement is answered
  ``wrong-epoch`` with the refresh.

The wire format behind all of this is specified in
``docs/PROTOCOL.md``.
"""

from __future__ import annotations

import base64
import json
import socket
from typing import Any

from repro.server import protocol

__all__ = ["ServerError", "ValidationClient", "correlation_key"]


def correlation_key(id: Any) -> str:
    """A hashable key distinguishing every JSON ``id`` value.

    Python would conflate ``0``, ``0.0`` and ``False`` as dict keys; their
    JSON serializations (``0`` vs ``0.0`` vs ``false``) stay distinct, so
    pipelined correlation keeps them apart.
    """
    return json.dumps(id, sort_keys=True, separators=(",", ":"))


class ServerError(Exception):
    """An ``ok: false`` reply, surfaced with its structured code.

    The full decoded reply object rides along as :attr:`reply` (and its
    echoed correlation id as :attr:`id`), so pipelined callers can tell
    *which* request an error reply answers instead of losing everything
    but the message text.
    """

    def __init__(
        self, code: str, message: str, reply: dict[str, Any] | None = None
    ) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message
        self.reply: dict[str, Any] = reply if reply is not None else {}
        self.id: Any = self.reply.get("id")


def _raise_for_error(reply: dict[str, Any]) -> dict[str, Any]:
    if not reply.get("ok"):
        error = reply.get("error") or {}
        raise ServerError(
            str(error.get("code", "unknown")),
            str(error.get("message", "(no message)")),
            reply=reply,
        )
    return reply


class ValidationClient:
    """One connection to a :class:`~repro.server.server.ValidationServer`."""

    #: How many batch items may be in flight ahead of the replies read —
    #: bounds both sides' socket buffering so a large batch cannot
    #: write-write deadlock the exchange.
    BATCH_WINDOW = 64

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._file = sock.makefile("rwb")

    # -- constructors --------------------------------------------------------

    @classmethod
    def connect_tcp(
        cls, host: str, port: int, timeout: float | None = 30.0
    ) -> "ValidationClient":
        return cls(socket.create_connection((host, port), timeout=timeout))

    @classmethod
    def connect_unix(
        cls, path: str, timeout: float | None = 30.0
    ) -> "ValidationClient":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.settimeout(timeout)
            sock.connect(path)
        except BaseException:
            # The raised error keeps this frame, and so the socket, alive:
            # close it now or its fd lives as long as the error does.
            sock.close()
            raise
        return cls(sock)

    @classmethod
    def connect(
        cls, address: tuple[str, int] | str, timeout: float | None = 30.0
    ) -> "ValidationClient":
        """Connect to a ``(host, port)`` tuple or a Unix socket path."""
        if isinstance(address, tuple):
            return cls.connect_tcp(*address, timeout=timeout)
        return cls.connect_unix(address, timeout=timeout)

    # -- the wire ------------------------------------------------------------

    def send(self, payload: dict[str, Any], flush: bool = True) -> None:
        """Write one request object without reading a reply (pipelining)."""
        self._file.write(protocol.encode(payload))
        if flush:
            self._file.flush()

    def recv(self) -> dict[str, Any]:
        """Read one reply object (``ok: false`` replies are returned, not
        raised — a pipelining caller correlates them by ``id``)."""
        return self._read_reply()

    def _read_reply(self) -> dict[str, Any]:
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        if not line.endswith(b"\n"):
            # readline returned a fragment at EOF: the server died with a
            # reply partially written.
            raise ConnectionError("server hung up mid-reply")
        return protocol.decode_reply(line)

    def request(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Send one raw request object; return the decoded reply.

        Raises :class:`ServerError` for ``ok: false`` replies (carrying
        the full reply object and its ``id``), :class:`ConnectionError`
        if the server hangs up before or during the reply, and
        :class:`~repro.server.protocol.ProtocolError` (code ``bad-reply``)
        if the reply line is not valid JSON.
        """
        self.send(payload)
        return _raise_for_error(self._read_reply())

    def send_raw(self, line: bytes) -> dict[str, Any]:
        """Ship pre-encoded bytes (protocol tests use this to send garbage)."""
        self._file.write(line)
        self._file.flush()
        return self._read_reply()

    def pipeline(self, payloads: list[dict[str, Any]]) -> list[dict[str, Any]]:
        """Send every request before reading any reply; correlate by ``id``.

        Returns one reply per payload, **in payload order**.  When every
        payload carries an ``"id"`` key (any JSON value — ``0``, ``false``
        and ``""`` work) the replies are matched by their echoed ids, so
        the result stays correct even if reply order ever diverged from
        request order; otherwise arrival order is trusted.  Error replies
        are returned in place, not raised — the caller inspects ``ok``.
        """
        for payload in payloads:
            self.send(payload, flush=False)
        self._file.flush()
        replies = [self._read_reply() for _ in payloads]
        if not all("id" in payload for payload in payloads):
            return replies
        by_id: dict[str, list[dict[str, Any]]] = {}
        for reply in replies:
            by_id.setdefault(correlation_key(reply.get("id")), []).append(reply)
        ordered: list[dict[str, Any]] = []
        for payload in payloads:
            bucket = by_id.get(correlation_key(payload["id"]))
            if not bucket:
                raise ConnectionError(
                    f"no reply correlates with request id {payload['id']!r}"
                )
            ordered.append(bucket.pop(0))
        return ordered

    # -- the ops -------------------------------------------------------------

    def check(
        self,
        dtd: str,
        doc: str,
        algorithm: str | None = None,
        root: str | None = None,
        id: Any = None,
        epoch: int | None = None,
        trace: str | None = None,
        coarse: bool | None = None,
    ) -> dict[str, Any]:
        """Potential-validity check; the reply carries the verdict fields.

        *epoch*, when given, stamps the request with the ring epoch this
        client routed under; a shard holding a newer view answers with a
        ``wrong-epoch`` error carrying the refresh (docs/PROTOCOL.md,
        "Epochs").
        *trace*, when given, opts the request into tracing: the reply
        gains a ``trace`` object with the server's per-phase span.
        *coarse*, when true, asks the server to stamp the schema's
        base64 coarse summary into the reply under ``"coarse"``.
        """
        return self.request(
            self._payload("check", dtd=dtd, doc=doc, algorithm=algorithm,
                          root=root, id=id, epoch=epoch, trace=trace,
                          coarse=coarse)
        )

    def check_batch(
        self,
        dtd: str,
        docs: list[str],
        algorithm: str | None = None,
        root: str | None = None,
        id: Any = None,
        window: int | None = None,
        epoch: int | None = None,
        trace: str | None = None,
        coarse: bool | None = None,
    ) -> tuple[list[dict[str, Any]], dict[str, Any]]:
        """Stream *docs* through one ``check-batch`` op on this connection.

        Returns ``(item_replies, trailer)`` with one reply per document in
        document order (items are correlated by their 0-based index, which
        the client supplies as each item's ``id``).  Item replies may be
        ``ok: false`` for per-document defects; the batch still completes.
        At most *window* items (default :data:`BATCH_WINDOW`) are in
        flight ahead of the replies read.  *epoch* stamps the header with
        the routing epoch (a stale one is a ``wrong-epoch`` header error).
        """
        window = self.BATCH_WINDOW if window is None else max(1, window)
        header = self._payload(
            "check-batch", dtd=dtd, algorithm=algorithm, root=root, id=id,
            epoch=epoch, trace=trace, coarse=coarse,
        )
        header["count"] = len(docs)
        self.send(header, flush=False)
        replies: list[dict[str, Any] | None] = [None] * len(docs)
        sent = received = 0
        while received < len(docs):
            try:
                # Refill the send window in one write: encode the pending
                # chunk into a single buffer instead of a write()+encode
                # round per item (per-item writes dominated large-batch
                # client profiles).  Refilling only once in-flight drops to
                # half the window keeps the chunks large while never
                # letting more than *window* items ride ahead of the reads.
                if sent < len(docs) and sent - received <= window // 2:
                    stop = min(len(docs), received + window)
                    self._file.write(
                        b"".join(
                            protocol.encode({"doc": docs[index], "id": index})
                            for index in range(sent, stop)
                        )
                    )
                    sent = stop
                self._file.flush()
            except (BrokenPipeError, ConnectionResetError):
                # The server abandoned the batch (e.g. a bad header) and
                # closed; its structured error reply is still readable.
                _raise_for_error(self._read_reply())
                raise
            reply = self._read_reply()
            if reply.get("op") != "check-batch-item":
                # The header itself failed (bad dtd, bad count): the server
                # answered with a plain error and abandoned the batch.
                _raise_for_error(reply)
                raise ConnectionError(
                    f"expected a check-batch-item reply, got {reply.get('op')!r}"
                )
            index = reply.get("id")
            if type(index) is not int or not 0 <= index < len(docs):
                raise ConnectionError(
                    f"batch item reply has unknown id {index!r}"
                )
            if replies[index] is not None:
                raise ConnectionError(
                    f"batch item id {index!r} was answered twice"
                )
            replies[index] = reply
            received += 1
        self._file.flush()  # an empty batch never enters the loop above
        trailer = _raise_for_error(self._read_reply())
        if trailer.get("op") != "check-batch":
            raise ConnectionError(
                f"expected the check-batch trailer, got {trailer.get('op')!r}"
            )
        # Every id was answered once, so no slot is left None.
        return replies, trailer  # type: ignore[return-value]

    def validate(
        self,
        dtd: str,
        doc: str,
        root: str | None = None,
        id: Any = None,
        epoch: int | None = None,
        trace: str | None = None,
    ) -> dict[str, Any]:
        """Standard DTD validation."""
        return self.request(
            self._payload("validate", dtd=dtd, doc=doc, root=root, id=id,
                          epoch=epoch, trace=trace)
        )

    def classify(
        self,
        dtd: str,
        root: str | None = None,
        id: Any = None,
        epoch: int | None = None,
    ) -> dict[str, Any]:
        """Definition 6-8 classification of a DTD."""
        return self.request(
            self._payload("classify", dtd=dtd, root=root, id=id, epoch=epoch)
        )

    def stats(self) -> dict[str, Any]:
        """Server, registry, hot-fingerprint, and dispatch statistics."""
        return self.request({"op": "stats"})

    def metrics(self) -> dict[str, Any]:
        """The metrics scrape: a mergeable snapshot (``"metrics"``) plus
        Prometheus text exposition (``"prometheus"``)."""
        return self.request({"op": "metrics"})

    def health(
        self, gossip: dict[str, Any] | None = None
    ) -> dict[str, Any]:
        """The liveness probe: status, uptime, and the shard's ring view.

        *gossip*, when given, piggybacks the caller's membership table
        on the probe (the shard merges it and answers with its own
        under ``"gossip"``) — the anti-entropy exchange of ring
        membership.
        """
        return self.request(self._payload("health", gossip=gossip))

    def probe(
        self, target: str, gossip: dict[str, Any] | None = None
    ) -> dict[str, Any]:
        """Ask this shard to probe *target*'s health (the SWIM indirect
        probe).  The reply carries ``"reachable"`` plus the prober's own
        gossip table; like ``health``, the op is never epoch-gated."""
        return self.request(
            self._payload("probe", target=target, gossip=gossip)
        )

    def get_artifact(self, fingerprint: str) -> bytes:
        """The server's compiled artifact for *fingerprint*, as
        :func:`~repro.service.compiled.encode_artifact` bytes."""
        reply = self.request({"op": "get-artifact", "fingerprint": fingerprint})
        return base64.b64decode(reply["artifact"].encode("ascii"))

    def get_coarse(self, fingerprint: str) -> bytes:
        """The server's coarse summary for *fingerprint*, as the
        pickled :class:`~repro.core.coarse.CoarseSummary` bytes — the
        few-hundred-byte payload a ring client caches to pre-filter
        batches locally."""
        reply = self.request({"op": "get-coarse", "fingerprint": fingerprint})
        return base64.b64decode(reply["coarse"].encode("ascii"))

    def put_artifact(self, fingerprint: str, blob: bytes) -> dict[str, Any]:
        """Seed an artifact (:func:`~repro.service.compiled.encode_artifact`
        *blob*) into the server's registry."""
        return self.request(
            {
                "op": "put-artifact",
                "fingerprint": fingerprint,
                "artifact": base64.b64encode(blob).decode("ascii"),
            }
        )

    @staticmethod
    def _payload(op: str, **fields: Any) -> dict[str, Any]:
        payload: dict[str, Any] = {"op": op}
        payload.update(
            (key, value) for key, value in fields.items() if value is not None
        )
        return payload

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        try:
            # Closing the buffered file flushes any bytes a failed call
            # left behind; with the server already gone that is EPIPE,
            # which must not mask the close itself.
            self._file.close()
        except OSError:
            pass
        finally:
            self._sock.close()

    def __enter__(self) -> "ValidationClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
