"""The newline-delimited JSON wire protocol of the validation server.

One request per line, one response per line, UTF-8 JSON either way.

Request object::

    {"op": "check" | "classify" | "validate" | "stats"
           | "check-batch" | "put-artifact" | "get-artifact"
           | "get-coarse" | "health" | "metrics" | "probe",
     "dtd": "<!ELEMENT ...>",        # required for schema-carrying ops
     "doc": "<r>...</r>",            # required for "check"/"validate"
     "algorithm": "machine" | "kernel" | "figure5" | "earley"
                | "auto",                # optional
     "root": "r",                    # optional DTD root override
     "fingerprint": "9f...",         # required for the artifact ops
     "artifact": "<base64>",         # required for "put-artifact"
     "coarse": true,                 # optional: stamp the coarse
                                     # summary into the check reply
     "count": 12,                    # optional item count for "check-batch"
     "epoch": 3,                     # optional ring epoch (see below)
     "gossip": {"epoch": 3,          # optional piggybacked membership
                "members": [{"member": "host:port", "status": "alive",
                             "incarnation": 0}, ...]},
     "target": "host:port",          # required for "probe"
     "trace": "f3a9c2d417b8e05a",    # optional opt-in trace id
     "id": <any JSON value>}         # optional, echoed back verbatim

Observability ops and tracing
-----------------------------
``metrics`` answers with the server's metrics snapshot (counters,
gauges, log-bucketed latency histograms — the :mod:`repro.obs.metrics`
snapshot shape, mergeable across shards) plus a ready-rendered
Prometheus text exposition under ``"prometheus"``.  Like ``health`` it
carries no payload and is **not** epoch-gated: scrapers talk to a shard
directly, not through ring routing.  A request carrying a non-empty
``trace`` string opts into tracing: the success reply (for
``check-batch``, the trailer; item replies get a timing stub) gains a
``"trace": {"id", "span"}`` object whose span records the member, op,
total wall time, and the per-phase timings the server measured.
Requests without the field pay nothing.

Streaming batch op
------------------
``check-batch`` is one request header followed by NDJSON *item* lines —
``{"doc": "<r>...</r>", "id": ...}`` — either exactly ``count`` of them
(when the header carries a count) or terminated by a blank line.  The
server replies with one ``check-batch-item`` line per item, in item
order (correlated by the item's ``id``, defaulting to its 0-based index),
and a final ``check-batch`` trailer summarizing the batch.  Items are
checked in runs: each run is every item line that has arrived since the
server last looked, and its replies are written at once.  The DTD is
resolved once for the whole batch, and item replies stream back while
later items are still in flight, so a batch over one connection costs one
round trip instead of one per document.

Artifact hand-off ops
---------------------
``get-artifact`` returns a compiled schema artifact held by this
server's registry — :func:`~repro.service.compiled.encode_artifact`'s
bytes (versioned header + pickle), base64-encoded — and ``put-artifact``
seeds one into the registry.  Together they let a routing client
move artifacts between shards by fingerprint so each schema is compiled
at most once ring-wide, and a joining shard prefetch its hottest owned
artifacts.

``get-coarse`` is the lightweight sibling: it returns only the
few-hundred-byte coarse summary
(:mod:`repro.core.coarse`, pickled and base64-encoded) for a
fingerprint this server holds, so a routing client can pre-filter
batches locally without pulling the full artifact.  A ``check`` or
``check-batch`` request carrying ``"coarse": true`` additionally gets
the summary stamped into the (trailer) reply under ``"coarse"`` — the
first-miss path that saves the extra round trip.

Membership ops and epochs
-------------------------
``health`` is the liveness probe: it carries no payload and answers with
the server's status, uptime, and — when the server belongs to a ring —
the current ring ``epoch``, ``members``, ``replica_count`` and the
``read_policy`` the ring advertises to routing clients (one of
:data:`READ_POLICIES`; clients with no explicit policy follow it).  A
shard holding a view stamps ``"epoch"`` into every success reply; a
request carrying an ``epoch`` **older** than the shard's view is
answered with error code ``wrong-epoch`` whose error object carries the
shard's current ``epoch``, ``members``, and ``replica_count`` — the
full refresh a client needs to re-resolve placement without restarting.

Gossip membership
-----------------
Ring shards run a gossip agent, the ring's only control plane: it keeps
the SWIM-style membership table of
:class:`~repro.server.placement.PlacementView` and exchanges it as
``"gossip"`` payloads: a ``health`` request may carry one (the server
merges it) and the ``health`` reply carries the server's own table
back; the ``probe`` op asks a shard to reach ``target``'s
``health`` on the asker's behalf (the SWIM indirect probe) and answers
``{"ok": true, "op": "probe", "target": ..., "reachable": true|false}``
plus the prober's gossip.  Success replies additionally stamp a
``"load": {"inflight", "queue_depth"}`` object (server-reported truth
for ``least-inflight`` routing) whenever the shard holds a ring view.
Like ``health``, ``probe`` is not epoch-gated.  Gossip payloads are
merged loosely: malformed entries are skipped, never rejected — a
membership rumor must not poison a liveness probe.

.. warning:: **Trust model.**  The protocol has no authentication, and
   ``put-artifact`` payloads are unpickled (after header and fingerprint
   verification, which cannot make unpickling itself safe).  Run servers
   only on trusted networks — Unix sockets, localhost, or a private
   segment between your own shards.  TLS + auth on TCP endpoints is
   named in the roadmap; until then, do not expose the port publicly.

Responses always carry ``"ok"``.  Success responses echo ``"op"`` (and
``"id"`` when given) plus op-specific fields — the verdict, wall time in
milliseconds, and the schema's registry disposition::

    {"ok": true, "op": "check", "potentially_valid": true, "failures": [],
     "depth_limited": false, "algorithm": "kernel",  # auto resolved
     "elapsed_ms": 0.41,
     "schema": {"fingerprint": "9f...", "registry": "hit"}}

Failures are structured, never a dropped connection::

    {"ok": false, "error": {"code": "bad-json", "message": "..."}}

Error codes: ``bad-json`` (line is not JSON), ``bad-request`` (JSON but
not a valid request object), ``bad-dtd`` / ``bad-document`` (payload does
not parse), ``bad-item`` (a batch item line is defective),
``bad-artifact`` (a ``put-artifact`` blob fails decoding, version or
fingerprint verification), ``artifact-miss`` (``get-artifact`` for a fingerprint this
server does not hold), ``wrong-epoch`` (the request's ring epoch is
older than the shard's view; the error object carries the current view),
``unsupported-op``, ``internal``.  A
protocol-level error is recoverable — the server keeps the connection
open and reads the next line — so one malformed request never costs a
client its warm socket.  On the client side, a reply line that is not
valid JSON raises :class:`ProtocolError` with code ``bad-reply`` (the
same structured-failure contract, pointed the other way).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.core.pv import PVVerdict

__all__ = [
    "OPS",
    "SCHEMA_OPS",
    "ALGORITHMS",
    "ERROR_CODES",
    "READ_POLICIES",
    "MAX_LINE_BYTES",
    "ProtocolError",
    "Request",
    "BatchItem",
    "decode_request",
    "decode_batch_item",
    "encode",
    "decode_reply",
    "error_payload",
    "verdict_fields",
]

#: Operations the server understands.
OPS = (
    "check",
    "classify",
    "validate",
    "stats",
    "check-batch",
    "put-artifact",
    "get-artifact",
    "get-coarse",
    "health",
    "metrics",
    "probe",
)

#: Every structured error code a server may answer with, plus the two
#: client-side codes that reuse the same ``{"code", "message"}`` shape:
#: ``bad-reply`` (a garbled reply line) and ``unreachable`` (no replica
#: of a fingerprint answered — raised by the ring client and used in
#: ``check_corpus`` failure entries).  ``docs/PROTOCOL.md`` documents
#: each one; a test diffs that document against this tuple.
ERROR_CODES = (
    "bad-json",
    "bad-request",
    "bad-dtd",
    "bad-document",
    "bad-item",
    "bad-artifact",
    "artifact-miss",
    "wrong-epoch",
    "unsupported-op",
    "internal",
    "bad-reply",
    "unreachable",
)

#: Operations that carry a DTD and therefore require the ``dtd`` field.
SCHEMA_OPS = ("check", "classify", "validate", "check-batch")

#: Accepted ``algorithm`` values; ``auto`` resolves to the kernel.
ALGORITHMS = ("machine", "kernel", "figure5", "earley", "auto")

#: Read policies a ring may advertise (``serve --read-policy``) and a
#: routing client may apply: ``primary-first`` serves every read from a
#: fingerprint's primary replica (the compatibility default),
#: ``round-robin`` rotates reads across the live replica set, and
#: ``least-inflight`` picks the live replica with the fewest requests
#: currently in flight from this client.
READ_POLICIES = ("primary-first", "round-robin", "least-inflight")

#: Upper bound on one request line (shields the server from unbounded
#: buffering; generous enough for multi-megabyte documents).
MAX_LINE_BYTES = 32 * 1024 * 1024


class ProtocolError(Exception):
    """A request the server rejects with a structured error response.

    *details*, when given, is merged into the wire error object — the
    mechanism ``wrong-epoch`` uses to carry the current ring view
    (``epoch``/``members``/``replica_count``) alongside code and message.
    :attr:`op` is the request's op when :func:`decode_request` got that
    far (it is never sent): a ``check-batch`` header that fails to
    decode still loses the batch framing.
    """

    op: str | None = None

    def __init__(
        self, code: str, message: str, details: dict[str, Any] | None = None
    ) -> None:
        super().__init__(message)
        self.code = code
        self.message = message
        self.details = details


@dataclass(frozen=True)
class Request:
    """A decoded, field-validated request line."""

    op: str
    dtd: str | None = None
    doc: str | None = None
    algorithm: str | None = None
    root: str | None = None
    fingerprint: str | None = None
    artifact: str | None = None
    coarse: bool | None = None
    count: int | None = None
    epoch: int | None = None
    gossip: dict[str, Any] | None = None
    target: str | None = None
    trace: str | None = None
    id: Any = field(default=None)


@dataclass(frozen=True)
class BatchItem:
    """One decoded ``check-batch`` item line."""

    doc: str
    id: Any = field(default=None)


def decode_request(line: str | bytes) -> Request:
    """Parse one request line, raising :class:`ProtocolError` on defects."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as error:
            raise ProtocolError("bad-json", f"request is not UTF-8: {error}")
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as error:
        raise ProtocolError("bad-json", f"request is not valid JSON: {error}")
    if not isinstance(payload, dict):
        raise ProtocolError("bad-request", "request must be a JSON object")
    op = payload.get("op")
    if op not in OPS:
        raise ProtocolError(
            "unsupported-op",
            f"op must be one of {', '.join(OPS)} (got {op!r})",
        )
    # Every later defect still names the op: a check-batch header that
    # fails here loses the batch framing all the same.
    try:
        for key in ("dtd", "doc", "root", "fingerprint", "artifact", "trace",
                    "target"):
            value = payload.get(key)
            if value is not None and not isinstance(value, str):
                raise ProtocolError("bad-request", f"{key!r} must be a string")
        trace = payload.get("trace")
        if trace is not None and not trace:
            raise ProtocolError("bad-request", "'trace' must be a non-empty string")
        algorithm = payload.get("algorithm")
        if algorithm is not None and algorithm not in ALGORITHMS:
            raise ProtocolError(
                "bad-request",
                f"algorithm must be one of {', '.join(ALGORITHMS)} (got {algorithm!r})",
            )
        count = payload.get("count")
        if count is not None and (isinstance(count, bool) or not isinstance(count, int)
                                 or count < 0):
            raise ProtocolError("bad-request", "'count' must be a non-negative integer")
        epoch = payload.get("epoch")
        if epoch is not None and (isinstance(epoch, bool) or not isinstance(epoch, int)
                                  or epoch < 0):
            raise ProtocolError("bad-request", "'epoch' must be a non-negative integer")
        gossip = payload.get("gossip")
        if gossip is not None and not isinstance(gossip, dict):
            raise ProtocolError("bad-request", "'gossip' must be an object")
        coarse = payload.get("coarse")
        if coarse is not None and not isinstance(coarse, bool):
            raise ProtocolError("bad-request", "'coarse' must be a boolean")
        request = Request(
            op=op,
            dtd=payload.get("dtd"),
            doc=payload.get("doc"),
            algorithm=algorithm,
            root=payload.get("root"),
            fingerprint=payload.get("fingerprint"),
            artifact=payload.get("artifact"),
            coarse=coarse,
            count=count,
            epoch=epoch,
            gossip=gossip,
            target=payload.get("target"),
            trace=trace,
            id=payload.get("id"),
        )
        if request.op in SCHEMA_OPS and request.dtd is None:
            raise ProtocolError("bad-request", f"op {op!r} requires 'dtd'")
        if request.op in ("check", "validate") and request.doc is None:
            raise ProtocolError("bad-request", f"op {op!r} requires 'doc'")
        if (
            request.op in ("put-artifact", "get-artifact", "get-coarse")
            and request.fingerprint is None
        ):
            raise ProtocolError("bad-request", f"op {op!r} requires 'fingerprint'")
        if request.op == "put-artifact" and request.artifact is None:
            raise ProtocolError("bad-request", "op 'put-artifact' requires 'artifact'")
        if request.op == "probe" and not request.target:
            raise ProtocolError("bad-request", "op 'probe' requires 'target'")
        return request
    except ProtocolError as error:
        error.op = op
        raise


def decode_batch_item(line: str | bytes) -> BatchItem:
    """Parse one ``check-batch`` item line, raising on defects.

    Every defect carries code ``bad-item`` so the server can answer it as
    a structured per-item error and keep the batch (and the connection)
    alive.
    """
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as error:
            raise ProtocolError("bad-item", f"batch item is not UTF-8: {error}")
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as error:
        raise ProtocolError("bad-item", f"batch item is not valid JSON: {error}")
    if not isinstance(payload, dict):
        raise ProtocolError("bad-item", "batch item must be a JSON object")
    doc = payload.get("doc")
    if not isinstance(doc, str):
        raise ProtocolError("bad-item", "batch item requires a string 'doc'")
    return BatchItem(doc=doc, id=payload.get("id"))


def encode(payload: dict[str, Any]) -> bytes:
    """One response (or request) object as a newline-terminated JSON line."""
    return json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_reply(line: str | bytes) -> dict[str, Any]:
    """Parse a response line (the client side of :func:`encode`).

    Failures are structured here too: a reply line that is not UTF-8 or
    not valid JSON raises :class:`ProtocolError` with code ``bad-reply``
    rather than leaking a raw :class:`json.JSONDecodeError` (or
    :class:`UnicodeDecodeError`) to the caller.
    """
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as error:
            raise ProtocolError("bad-reply", f"reply is not UTF-8: {error}")
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as error:
        raise ProtocolError("bad-reply", f"reply is not valid JSON: {error}")
    if not isinstance(payload, dict) or "ok" not in payload:
        raise ProtocolError("bad-reply", "reply must be an object with 'ok'")
    return payload


def error_payload(
    code: str,
    message: str,
    id: Any = None,
    details: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """A structured ``ok: false`` reply object.

    *details* keys are merged into the error object (``code`` and
    ``message`` always win) — how ``wrong-epoch`` ships the current ring
    view to the client that needs it.
    """
    error: dict[str, Any] = dict(details) if details else {}
    error["code"] = code
    error["message"] = message
    payload: dict[str, Any] = {"ok": False, "error": error}
    if id is not None:
        payload["id"] = id
    return payload


def verdict_fields(verdict: PVVerdict) -> dict[str, Any]:
    """The JSON rendering of a potential-validity verdict."""
    return {
        "potentially_valid": verdict.potentially_valid,
        "failures": [
            {
                "path": failure.path,
                "element": failure.element,
                "reason": failure.reason,
            }
            for failure in verdict.failures
        ],
        "depth_limited": verdict.depth_limited,
    }
