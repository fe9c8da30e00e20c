"""The asyncio serving front: one warm registry, many connections.

This package turns the :mod:`repro.service` layer into a long-running
process serving traffic:

* :mod:`repro.server.protocol` — the newline-delimited JSON wire format
  (requests ``check``/``classify``/``validate``/``stats``; structured,
  recoverable errors).
* :mod:`repro.server.server` — :class:`ValidationServer` (TCP and Unix
  sockets, CPU-bound verdicts on threads, graceful draining shutdown)
  and :class:`ServerThread` (a server on its own event-loop thread).
* :mod:`repro.server.client` — :class:`ValidationClient`, the blocking
  NDJSON client (pipelining, streaming ``check-batch``, artifact
  transfer) used by tests, the benchmarks, and the CI smoke jobs.
* :mod:`repro.server.placement` — the placement core shared by client,
  server, and gossip agent: :class:`ShardRing` (consistent hashing with
  virtual nodes and replica sets) and :class:`PlacementView` (the
  epoch-stamped view with a bounded fingerprint→owners memo and both
  wire reconciliation disciplines).
* :mod:`repro.server.pool` — :class:`ConnectionPool`, pooled blocking
  connections with per-member locks and liveness marks.
* :mod:`repro.server.router` — :class:`Router`, pluggable read
  policies (``primary-first`` / ``round-robin`` / ``least-inflight``)
  over the placement view.
* :mod:`repro.server.scheduler` — :class:`CorpusScheduler`,
  replica-aware corpus spreading (seed-window compile-once, window
  work-stealing, straggler hand-off).
* :mod:`repro.server.ring` — :class:`ShardedClient`, the routing
  client composed of the layers above (fingerprint routing to a live
  replica picked by the read policy, deterministic failover,
  compile-at-most-once artifact hand-off and replica fan-out,
  epoch-driven placement refresh).
* :mod:`repro.server.gossip` — :class:`~repro.server.gossip.GossipAgent`,
  the ring's one control plane: every shard's agent probes its peers,
  suspects, refutes and confirms failures and mints epochs, and a
  joining shard's agent prefetches its hottest owned artifacts before
  announcing itself, so its first request is warm.

Start one from the shell with ``python -m repro serve`` (or a local
ring of N shards with R replicas per schema via ``python -m repro
serve --ring N --replicas R``; another shard joins it with ``serve
--gossip-seed ADDR --replicas R``); inspect a running ring with
``python -m repro ring-status ADDR[,ADDR...]``.
"""

from repro.server.client import ServerError, ValidationClient
from repro.server.placement import PlacementView
from repro.server.pool import ConnectionPool
from repro.server.protocol import (
    ALGORITHMS,
    ERROR_CODES,
    MAX_LINE_BYTES,
    OPS,
    READ_POLICIES,
    SCHEMA_OPS,
    BatchItem,
    ProtocolError,
    Request,
    decode_batch_item,
    decode_reply,
    decode_request,
    encode,
    error_payload,
    verdict_fields,
)
from repro.server.ring import (
    ShardedClient,
    ShardRing,
    ShardUnavailableError,
    member_label,
    parse_member,
)
from repro.server.router import DEFAULT_READ_POLICY, Router
from repro.server.scheduler import CorpusScheduler
from repro.server.server import HANDLED_OPS, ServerThread, ValidationServer

__all__ = [
    "ValidationServer",
    "ServerThread",
    "ValidationClient",
    "ServerError",
    "ShardRing",
    "ShardedClient",
    "ShardUnavailableError",
    "PlacementView",
    "ConnectionPool",
    "Router",
    "CorpusScheduler",
    "member_label",
    "parse_member",
    "READ_POLICIES",
    "DEFAULT_READ_POLICY",
    "ProtocolError",
    "Request",
    "BatchItem",
    "OPS",
    "SCHEMA_OPS",
    "ALGORITHMS",
    "ERROR_CODES",
    "HANDLED_OPS",
    "MAX_LINE_BYTES",
    "decode_request",
    "decode_batch_item",
    "decode_reply",
    "encode",
    "error_payload",
    "verdict_fields",
]
