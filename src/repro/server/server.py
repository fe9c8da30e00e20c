"""The asyncio validation server.

:class:`ValidationServer` is the long-running serving front over the
service layer: one warm :class:`~repro.service.registry.SchemaRegistry`
answers potential-validity requests for many concurrent connections,
speaking the newline-delimited
JSON protocol of :mod:`repro.server.protocol` over TCP and/or a Unix
domain socket.

Execution model
---------------
The event loop owns the schema-resolution state (the text memo);
compiles and verdicts are CPU-bound and run off-loop.  A DTD text the
server has not resolved before is parsed and compiled in one thread
hop, shared by concurrent requests for that text.  Every ``check`` and
every ``check-batch`` item runs the one text→verdict function,
:func:`~repro.service.dispatch.check_text`, on a thread
(``asyncio.to_thread``) over the artifact the registry resolved for the
request and the server's verdict cache; nothing else is kept per
schema.  A ``check`` is one thread hop; a batch takes one hop per
*run*, every item line that has arrived since the batch last looked,
and answers the run with one write.  Parallelism across processes
comes from ring shards, not from inside one server.

Shutdown is graceful by default: :meth:`ValidationServer.stop` closes the
listeners, lets every in-flight request finish and its response flush,
then tears down connections.  A batch run still off-loop when the drain
times out is abandoned between documents.

Ring membership
---------------
A standalone server holds no ring view and stamps no epoch.  A ring
shard runs a :class:`~repro.server.gossip.GossipAgent`
(:meth:`ValidationServer.join_ring`), the only source of its
membership and epochs; the agent of a shard joining through seeds
prefetches the hottest artifacts it will own before announcing itself.
A local ring (``serve --ring N``) installs its full view in process
with :meth:`ValidationServer.set_ring_view` before the agents start.

:class:`ServerThread` runs a server on a dedicated event-loop thread —
the form the test suite, the benchmark, and embedders use.
"""

from __future__ import annotations

import asyncio
import base64
import binascii
import errno
import os
import socket
import stat
import threading
from collections import Counter
from time import monotonic
from typing import Any, Callable, Iterable, Mapping

from repro.core.classify import classify_dtd
from repro.core.coarse import encode_coarse
from repro.dtd.model import DTD
from repro.dtd.parser import parse_dtd
from repro.errors import ReproError
from repro.lru import LRU
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry, Stopwatch
from repro.obs.promtext import render as render_prometheus
from repro.server import protocol
from repro.server.client import ServerError, ValidationClient
from repro.server.gossip import DEFAULT_PROBE_INTERVAL, GossipAgent
from repro.server.placement import Member, PlacementView, parse_member
from repro.server.protocol import ProtocolError, Request
from repro.service.cache import VerdictCache
from repro.service.compiled import CompiledSchema, decode_artifact, encode_artifact
from repro.service.dispatch import TextVerdict, check_text
from repro.service.registry import SchemaRegistry
from repro.validity.validator import DTDValidator, ValidationReport
from repro.xmlmodel.parser import parse_xml

__all__ = ["ValidationServer", "ServerThread", "HANDLED_OPS"]

#: Every op :class:`ValidationServer` dispatches.  Kept in lockstep with
#: :data:`repro.server.protocol.OPS` (and with ``docs/PROTOCOL.md``) by a
#: test that diffs the three.
HANDLED_OPS = (
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

#: Socket timeout for the indirect-probe relay's reach attempt.
_PROBE_TIMEOUT = 2.0

#: Default for how many of the most-requested fingerprints ``stats``
#: reports — the list a joining shard's prefetch is computed from.
#: Configurable per server via ``hot_limit`` / ``serve --hot-limit``.
HOT_FINGERPRINTS = 32

#: The request phases the server times into ``repro_phase_seconds``.
_PHASES = ("parse", "queue", "verdict", "artifact")

#: Bound on the per-fingerprint request counter; past this the counter is
#: compacted to its hottest half (exact counts are a prefetch heuristic,
#: not an accounting invariant).
_HOT_COUNTER_SIZE = 4096

#: Bound on the (dtd text, root) -> fingerprint memo that lets warm
#: requests skip DTD re-parsing entirely.
_TEXT_INDEX_SIZE = 1024


#: Sentinel :meth:`ValidationServer._read_line` returns for an over-limit
#: request line (distinct from ``None``, which means EOF/shutdown).
_OVERLONG = b"\x00overlong\x00"


class _ItemReader:
    """A ``check-batch``'s item lines, collected by a task as they arrive.

    The task reads with a plain ``readline`` and stops at the batch's
    last item: after *count* item lines, or at the blank line that ends
    an uncounted batch, so a request pipelined behind the batch stays on
    the stream for the connection loop.  :attr:`end` is ``None`` while
    reading and then says why it stopped: ``"done"``, ``"overlong"`` (an
    over-limit line: the stream cannot be re-framed) or ``"hangup"``.

    Each :meth:`take` pauses the task, once the line it is reading has
    come in, until the next :meth:`wait`.  Lines that arrive while a run
    is checked or its replies drain stay in the stream, whose ``limit``
    pauses the transport: a client that sends without reading holds one
    line beyond the run in flight, plus that bounded buffer.
    """

    def __init__(self, reader: asyncio.StreamReader, count: int | None) -> None:
        self.lines: list[bytes] = []
        self.end: str | None = None
        self._arrived: asyncio.Future[None] | None = None
        self._resume: asyncio.Future[None] | None = None
        self._task = asyncio.ensure_future(self._read(reader, count))

    async def _read(
        self, reader: asyncio.StreamReader, remaining: int | None
    ) -> None:
        end = "hangup"
        try:
            while remaining is None or remaining > 0:
                if self._resume is not None:
                    await self._resume
                line = await reader.readline()
                if not line:
                    return
                if not line.strip():
                    if remaining is None:
                        break  # the uncounted batch's blank-line terminator
                    continue  # blank keep-alive lines inside a counted batch
                if remaining is not None:
                    remaining -= 1
                self.lines.append(line)
                self._wake()
            end = "done"
        except ValueError:  # stream limit overrun
            end = "overlong"
        except OSError:  # a reset connection is a hangup too
            pass
        finally:
            self.end = end
            self._wake()

    def _wake(self) -> None:
        if self._arrived is not None and not self._arrived.done():
            self._arrived.set_result(None)

    def take(self) -> list[bytes]:
        """Every line collected since the last take: the next run.

        Pauses the reading task until the next :meth:`wait`.
        """
        run, self.lines = self.lines, []
        self._resume = asyncio.get_running_loop().create_future()
        return run

    async def wait(self, closing: asyncio.Future[Any]) -> bool:
        """Resume reading; wait for a line or the end of reading.

        ``False`` if *closing* won.
        """
        resume, self._resume = self._resume, None
        if resume is not None:
            resume.set_result(None)
            # The resumed task runs before this one does again, and it
            # collects every line the stream holds without yielding.
            await asyncio.sleep(0)
        if self.lines or self.end is not None:
            return True
        self._arrived = arrived = asyncio.get_running_loop().create_future()
        await asyncio.wait((arrived, closing), return_when=asyncio.FIRST_COMPLETED)
        return arrived.done()

    def close(self) -> None:
        self._task.cancel()


def _remove_stale_unix_socket(path: str) -> None:
    """Unlink *path* when it is a socket nobody is listening on.

    A crashed server leaves its socket file behind, and binding over it
    raises ``EADDRINUSE`` even though no process serves it.  Probing with
    a connect distinguishes the two cases: connection refused (or a
    similar failure) means stale — remove it; a successful connect means
    another live server owns the path — leave it so the bind fails loudly.
    Non-socket files are never touched: clobbering a user's regular file
    because they mistyped a path would be worse than the bind error.
    """
    try:
        mode = os.stat(path).st_mode
    except OSError:
        return  # nothing there: the normal fresh-start case
    if not stat.S_ISSOCK(mode):
        return
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        probe.settimeout(1.0)
        probe.connect(path)
    except OSError:
        try:
            os.unlink(path)
        except OSError as error:
            if error.errno != errno.ENOENT:
                raise
    else:
        raise OSError(
            errno.EADDRINUSE,
            f"unix socket {path!r} is in use by a live server",
        )
    finally:
        probe.close()


class ValidationServer:
    """A long-running NDJSON potential-validity service.

    Dispatches every op of the wire protocol (:data:`HANDLED_OPS`;
    specified in full in ``docs/PROTOCOL.md``): the verdict ops
    ``check`` / ``classify`` / ``validate``, the streaming
    ``check-batch``, ``stats`` (including the ``hot`` most-requested
    fingerprint list a joining shard's prefetch reads), the artifact
    hand-off pair ``put-artifact`` / ``get-artifact`` (and the
    lightweight ``get-coarse`` coarse-summary fetch), the ``health``
    liveness probe, ``metrics`` and the gossip relay ``probe``.  Once
    the server holds a ring view (its gossip agent's, see
    :meth:`join_ring`, or one installed with :meth:`set_ring_view`),
    every success reply is stamped with the view's epoch and a request
    routed under an older epoch is answered ``wrong-epoch`` together
    with the current membership.

    Parameters
    ----------
    registry:
        The warm artifact cache shared by every connection.  A fresh one
        is created when omitted.
    default_algorithm:
        Backend when a request names none; ``"auto"`` (the default)
        resolves to the fused kernel.
    verdict_cache:
        Entries in the verdict memo cache (``serve --verdict-cache N``);
        ``0`` (the default) disables it.  Repeat documents — same schema
        fingerprint, same bytes, same resolved backend — are answered
        from the cache without parsing, the reply stamped ``"cached":
        true``; hits, misses and evictions feed
        ``repro_verdict_cache_total``.
    replica_count, read_policy:
        The replica-set size and the read policy this server advertises
        with its ring view (``serve --replicas`` / ``--read-policy``);
        every shard of a ring takes the same values.  A standalone
        server holds no view and advertises nothing.
    gossip_interval:
        Seconds between the gossip agent's probe rounds, once the
        server joins a ring.
    """

    def __init__(
        self,
        registry: SchemaRegistry | None = None,
        default_algorithm: str = "auto",
        metrics: MetricsRegistry | None = None,
        events: EventLog | None = None,
        slow_ms: float | None = None,
        hot_limit: int = HOT_FINGERPRINTS,
        gossip_interval: float = DEFAULT_PROBE_INTERVAL,
        verdict_cache: int = 0,
        replica_count: int = 1,
        read_policy: str | None = None,
    ) -> None:
        if verdict_cache < 0:
            raise ValueError("verdict_cache must be >= 0 (0 disables)")
        if gossip_interval <= 0:
            raise ValueError("gossip_interval must be > 0")
        if default_algorithm not in protocol.ALGORITHMS:
            raise ValueError(f"unknown default algorithm {default_algorithm!r}")
        if hot_limit < 1:
            raise ValueError("hot_limit must be >= 1")
        if slow_ms is not None and slow_ms < 0:
            raise ValueError("slow_ms must be >= 0")
        if read_policy is not None and read_policy not in protocol.READ_POLICIES:
            raise ValueError(f"unknown read policy {read_policy!r}")
        if registry is None:
            registry = SchemaRegistry()
        self.registry = registry
        self.default_algorithm = default_algorithm
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.events = events if events is not None else EventLog()
        self.slow_ms = slow_ms
        self.hot_limit = hot_limit
        # Pushed instruments, for what no object counts: handles are
        # resolved once here.  Kept counts are reads (_register_reads).
        m = self.metrics
        self._m_requests = {
            op: m.counter("repro_requests_total", op=op) for op in protocol.OPS
        }
        self._m_latency = {
            op: m.histogram("repro_request_seconds", op=op)
            for op in protocol.OPS
        }
        self._m_phases = {
            phase: m.histogram("repro_phase_seconds", phase=phase)
            for phase in _PHASES
        }
        self._m_verdict = {
            backend: m.histogram("repro_verdict_seconds", backend=backend)
            for backend in protocol.ALGORITHMS
            if backend != "auto"
        }
        self._m_slow = m.counter("repro_slow_requests_total")
        self._m_traced = m.counter("repro_traced_requests_total")
        self._verdict_cache = (
            VerdictCache(verdict_cache) if verdict_cache > 0 else None
        )
        self._text_index: LRU[tuple[str, str | None], str] = LRU(_TEXT_INDEX_SIZE)
        # Cold resolutions in flight per (DTD text, root); a request for
        # the same text waits on the first one's hop.  The future's
        # result is the bad-dtd error every waiter answers, or None.
        self._resolving: dict[
            tuple[str, str | None], asyncio.Future[ProtocolError | None]
        ] = {}
        self._dispatch_counts: Counter[str] = Counter()
        self._servers: list[asyncio.AbstractServer] = []
        self._conn_tasks: set[asyncio.Task] = set()
        # Connections parked in readline between requests (_read_line).
        self._idle: set[asyncio.Task] = set()
        self._closing: asyncio.Event | None = None
        self._unix_path: str | None = None
        self._tcp_address: tuple[str, int] | None = None
        self._requests = 0
        # Error replies by code (_count_error).
        self._errors = dict.fromkeys(protocol.ERROR_CODES, 0)
        self._batches = 0
        self._batch_items = 0
        # Verdict work currently executing off-loop — the load signal a
        # "least-inflight" routing client balances on, surfaced in stats.
        self._inflight = 0
        # The CPUs verdict work can use (this process's affinity, where
        # the platform reports it): inflight work past them waits (the
        # load stamp's queue_depth).
        self._capacity = (
            len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1
        )
        self._started_at: float | None = None
        # Per-fingerprint request counts: the "hot" list a joining shard's
        # prefetch is computed from.
        self._hot_counts: Counter[str] = Counter()
        # The ring view — the shared placement core.  Its epoch is None
        # until the gossip agent announces this server (or the local
        # ring installs a view); the replica count and read policy it
        # advertises are this server's own, set once here.
        self._placement = PlacementView(
            replica_count=replica_count, read_policy=read_policy
        )
        # Ring membership: the GossipAgent that join_ring() starts
        # probes peers and mutates this very placement view.
        self._gossip_interval = gossip_interval
        self._gossip: GossipAgent | None = None
        # Set when stop()'s drain times out: an off-loop run still being
        # checked stops at its next document.
        self._abandoned = False
        self._register_reads()

    def _register_reads(self) -> None:
        """Export each count the server, its registry and verdict cache
        keep as a read of that count.

        A scrape runs on the event loop, which owns the server's own
        counts; the registry and cache read theirs under their own
        locks.
        """
        m = self.metrics

        def export(name: str, label: str, fields: dict[str, str],
                   counts: Callable[[], Mapping[str, int]]) -> None:
            for value, field in fields.items():
                m.counter(name, read=lambda f=field: counts()[f], **{label: value})

        registry, cache = self.registry, self._verdict_cache
        export("repro_errors_total", "code",
               {code: code for code in protocol.ERROR_CODES},
               lambda: self._errors)
        export("repro_dispatch_total", "backend",
               {b: b for b in protocol.ALGORITHMS if b != "auto"},
               lambda: self._dispatch_counts)
        export("repro_registry_events_total", "event",
               {"hit": "hits", "miss": "misses", "eviction": "evictions"},
               lambda: registry.stats.as_dict())
        outcomes = {"hit": "hits", "miss": "misses", "evict": "evictions"}
        export("repro_verdict_cache_total", "outcome", outcomes,
               (lambda: cache.stats) if cache is not None
               else lambda: dict.fromkeys(outcomes.values(), 0))
        m.counter("repro_batch_items_total", read=lambda: self._batch_items)
        m.gauge("repro_inflight", read=lambda: self._inflight)
        m.gauge("repro_connections", read=lambda: len(self._conn_tasks))
        m.gauge("repro_kernel_memo_entries",
                read=lambda: registry.kernel_memo_entries)

    # -- endpoints -----------------------------------------------------------

    @property
    def tcp_address(self) -> tuple[str, int] | None:
        """``(host, port)`` actually bound (port resolved when 0 was asked)."""
        return self._tcp_address

    @property
    def unix_path(self) -> str | None:
        return self._unix_path

    async def start(
        self,
        host: str | None = None,
        port: int | None = None,
        unix_path: str | None = None,
    ) -> None:
        """Bind the requested endpoints and begin accepting connections."""
        if host is None and unix_path is None:
            raise ValueError("need a TCP host/port or a unix socket path")
        self._closing = asyncio.Event()
        self._abandoned = False
        self._started_at = monotonic()
        if host is not None:
            server = await asyncio.start_server(
                self._on_connection,
                host=host,
                port=port or 0,
                limit=protocol.MAX_LINE_BYTES,
            )
            sockname = server.sockets[0].getsockname()
            self._tcp_address = (sockname[0], sockname[1])
            self._servers.append(server)
        if unix_path is not None:
            _remove_stale_unix_socket(unix_path)
            server = await asyncio.start_unix_server(
                self._on_connection,
                path=unix_path,
                limit=protocol.MAX_LINE_BYTES,
            )
            self._unix_path = unix_path
            self._servers.append(server)

    async def join_ring(self, seeds: Iterable[Member | str] = ()) -> None:
        """Run this server's gossip agent: it is a ring member from now on.

        Call after :meth:`start` (the agent's identity is the bound
        address).  With *seeds* this is a join: off the event loop, the
        agent reads a seed's view, prefetches the hottest artifacts it
        will own and only then announces itself
        (:meth:`GossipAgent.start`).  Without seeds the agent announces
        into the view already held, the one a local ring installs with
        :meth:`set_ring_view`.
        """
        if self._gossip is not None:
            return
        label = self._member_label()
        if label is None:
            raise RuntimeError("join_ring() needs a bound server; start() first")
        agent = GossipAgent(
            self._placement,
            label,
            seeds=tuple(
                parse_member(seed) if isinstance(seed, str) else seed
                for seed in seeds
            ),
            interval=self._gossip_interval,
            metrics=self.metrics,
            events=self.events,
            install=self._install_artifact,
        )
        await asyncio.to_thread(agent.start)
        if self._gossip is not None or self._closing is None or self._closing.is_set():
            # Stopped, or joined by a racing call, while this one joined.
            await asyncio.to_thread(agent.stop)
            return
        self._gossip = agent

    async def serve_forever(self) -> None:
        """Block until :meth:`stop` (or cancellation) ends the server."""
        assert self._closing is not None, "start() first"
        await self._closing.wait()

    async def stop(self, drain_timeout: float | None = 30.0) -> None:
        """Stop accepting, drain in-flight requests, tear everything down."""
        if self._gossip is not None:
            gossip = self._gossip
            self._gossip = None
            await asyncio.to_thread(gossip.stop)
        for server in self._servers:
            server.close()
        if self._closing is not None:
            self._closing.set()
        # An idle connection closes at once; a busy one finishes its
        # request, sees the closing event and closes.
        for task in self._idle:
            task.cancel()
        if self._conn_tasks:
            _done, pending = await asyncio.wait(
                list(self._conn_tasks), timeout=drain_timeout
            )
            # The drain gave up: a run still checking off-loop would
            # otherwise finish every document for a cancelled batch.
            self._abandoned = bool(pending)
        for task in list(self._conn_tasks):
            task.cancel()
        # Last: from Python 3.12.1 on this also waits for every accepted
        # connection to close.
        for server in self._servers:
            await server.wait_closed()
        self._servers.clear()
        if self._unix_path is not None:
            # Leave nothing behind: a lingering socket path would force
            # the next start() through the stale-socket probe (and, on a
            # crashed process, used to mean EADDRINUSE forever).
            try:
                os.unlink(self._unix_path)
            except OSError:
                pass
            self._unix_path = None

    # -- ring membership -----------------------------------------------------

    @property
    def placement(self) -> PlacementView:
        """The shared placement view (epoch, members, replica count)."""
        return self._placement

    @property
    def ring_view(self) -> tuple[int, list[str], int] | None:
        """The published ``(epoch, member labels, replica_count)``, if any."""
        return self._placement.as_tuple()

    def set_ring_view(
        self,
        epoch: int,
        members: list[str],
        replica_count: int = 1,
        read_policy: str | None = None,
    ) -> None:
        """Install a ring view in process (older epochs are rejected).

        The local ring (``serve --ring N``) installs its full view this
        way before its gossip agents start; tests do too.  It starts no
        agent.  Delegates to
        :meth:`~repro.server.placement.PlacementView.publish`: raises
        :class:`~repro.server.protocol.ProtocolError` with code
        ``wrong-epoch`` when *epoch* does not supersede the view already
        held (older, or equal with different contents); installing the
        identical view again is idempotent.
        """
        self._placement.publish(
            epoch, members, replica_count=replica_count,
            read_policy=read_policy,
        )

    def _view_details(self) -> dict[str, Any] | None:
        """The current view as ``wrong-epoch`` error-object fields."""
        return self._placement.details()

    def _check_epoch(self, request: Request) -> None:
        """Reject a request routed under an epoch older than this view.

        A request carrying no epoch (or arriving before any view was
        published) is always served — epochs tighten routing, they do not
        gate plain clients out.
        """
        self._placement.check_request_epoch(request.epoch)

    def _count_hot(self, fingerprint: str, requests: int = 1) -> None:
        self._hot_counts[fingerprint] += requests
        if len(self._hot_counts) > _HOT_COUNTER_SIZE:
            self._hot_counts = Counter(
                dict(self._hot_counts.most_common(_HOT_COUNTER_SIZE // 2))
            )

    # -- connection handling -------------------------------------------------

    def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.ensure_future(self._handle_connection(reader, writer))
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)
        # A task cancelled before its first step never enters the
        # handler's ``finally``: close the writer however the task ends.
        task.add_done_callback(lambda _task: writer.close())

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        assert self._closing is not None
        task = asyncio.current_task()
        assert task is not None
        try:
            while not self._closing.is_set():
                line = await self._read_line(reader, task)
                if line is None:  # EOF or an unrecoverable read
                    break
                if line is _OVERLONG:
                    await self._lose_framing(writer, ProtocolError(
                        "bad-request",
                        f"request line exceeds {protocol.MAX_LINE_BYTES} bytes",
                    ))
                    break
                if not line.strip():
                    continue  # blank keep-alive lines are ignored
                # Decode once here: the batch op changes the read loop
                # itself (items follow on this reader), so the branch must
                # see the real decoded op, not a byte sniff of the line.
                request: Request | None = None
                decode_error: ProtocolError | None = None
                try:
                    request = protocol.decode_request(line)
                except ProtocolError as error:
                    if error.op == "check-batch":
                        # A header that fails to decode is a bad header:
                        # its item lines may already be on the stream.
                        self._requests += 1
                        await self._lose_framing(writer, error)
                        break
                    decode_error = error
                if request is not None and request.op == "check-batch":
                    self._requests += 1
                    if not await self._handle_batch(request, reader, writer):
                        break  # framing lost mid-batch: close
                    continue
                response = await self._handle_line(line, request, decode_error)
                writer.write(protocol.encode(response))
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_line(
        self, reader: asyncio.StreamReader, task: asyncio.Task
    ) -> bytes | None:
        """One request line, or ``None`` on EOF or a failed read.

        While it waits, the connection's *task* is parked in ``readline``
        and counted idle: :meth:`stop` cancels idle connections and drains
        busy ones, so no request line costs a task of its own.
        """
        self._idle.add(task)
        try:
            line = await reader.readline()
        except ValueError:  # stream limit overrun: cannot resync the framing
            return _OVERLONG
        except (ConnectionError, OSError):
            return None
        finally:
            self._idle.discard(task)
        return line or None

    # -- request handling ----------------------------------------------------

    async def _handle_line(
        self,
        line: bytes,
        request: Request | None = None,
        decode_error: ProtocolError | None = None,
    ) -> dict[str, Any]:
        """One request line to one response object.

        The connection loop passes its already-decoded *request* (or the
        *decode_error* that decoding produced) so the line is parsed only
        once; called with just *line*, it decodes for itself.
        """
        watch = Stopwatch()
        self._requests += 1
        request_id: Any = None  # echoed even on errors, once decoded
        timings: dict[str, Any] = {}
        try:
            if decode_error is not None:
                raise decode_error
            if request is None:
                request = protocol.decode_request(line)
            request_id = request.id
            response = await self._dispatch_request(request, timings)
        except Exception as error:  # noqa: BLE001 - a reply beats a disconnect
            return self._error_reply(error, request_id)
        # The reply stamp and the latency histogram read one Stopwatch,
        # so the two can never disagree.
        response["elapsed_ms"] = watch.elapsed_ms
        self._observe_request(request.op, watch, timings)
        if request.trace is not None:
            self._m_traced.inc()
            response["trace"] = {
                "id": request.trace,
                "span": self._server_span(request.op, watch, timings),
            }
        self._note_slow(request.op, watch, request.trace, request_id)
        epoch = self._placement.epoch
        if epoch is not None:
            response.setdefault("epoch", epoch)
            response.setdefault("load", self._load_fields())
        if request_id is not None:
            response["id"] = request_id
        return response

    async def _lose_framing(
        self,
        writer: asyncio.StreamWriter,
        error: Exception,
        request_id: Any = None,
    ) -> None:
        """Answer a defect that loses the framing with one counted error
        reply; the caller then closes the connection (PROTOCOL.md batch
        framing rule 5)."""
        writer.write(protocol.encode(self._error_reply(error, request_id)))
        await writer.drain()

    def _error_reply(self, error: Exception, request_id: Any) -> dict[str, Any]:
        """The counted error reply for a request that raised *error*.

        A :class:`ProtocolError` answers with its own code; anything else
        is ``internal``, naming the exception.
        """
        if isinstance(error, ProtocolError):
            self._count_error(error.code)
            return protocol.error_payload(
                error.code, error.message, id=request_id, details=error.details
            )
        self._count_error("internal")
        return protocol.error_payload(
            "internal", f"{type(error).__name__}: {error}", id=request_id
        )

    # -- instrumentation helpers ---------------------------------------------

    def _count_error(self, code: str) -> None:
        """Count one error reply; a code outside ERROR_CODES is internal."""
        self._errors[code if code in self._errors else "internal"] += 1

    def _observe_request(
        self, op: str, watch: Stopwatch, timings: dict[str, Any]
    ) -> None:
        """Record one served request: op counter, latency, phase timers."""
        self._m_requests[op].inc()
        self._m_latency[op].observe(watch.seconds)
        self._observe_phases(timings)

    def _observe_phases(self, timings: dict[str, Any]) -> None:
        for phase in _PHASES:
            seconds = timings.get(phase)
            if seconds is not None:
                self._m_phases[phase].observe(seconds)
        backend = timings.get("backend")
        if backend in self._m_verdict and timings.get("verdict") is not None:
            self._m_verdict[backend].observe(timings["verdict"])

    def _note_slow(
        self, op: str | None, watch: Stopwatch, trace: str | None, id: Any
    ) -> None:
        if self.slow_ms is None:
            return
        elapsed_ms = watch.elapsed_ms
        if elapsed_ms <= self.slow_ms:
            return
        self._m_slow.inc()
        fields: dict[str, Any] = {
            "member": self._member_label(),
            "op": op,
            "elapsed_ms": elapsed_ms,
            "slow_ms": self.slow_ms,
        }
        if trace is not None:
            fields["trace"] = trace
        if id is not None:
            fields["id"] = id
        self.events.emit("slow-request", **fields)

    def _member_label(self) -> str | None:
        if self._unix_path is not None:
            return self._unix_path
        if self._tcp_address is not None:
            return f"{self._tcp_address[0]}:{self._tcp_address[1]}"
        return None

    def _server_span(
        self, op: str, watch: Stopwatch, timings: dict[str, Any]
    ) -> dict[str, Any]:
        """The per-hop span a traced request's reply carries."""
        span: dict[str, Any] = {
            "member": self._member_label(),
            "op": op,
            "total_ms": watch.elapsed_ms,
        }
        for phase in _PHASES:
            seconds = timings.get(phase)
            if seconds is not None:
                span[f"{phase}_ms"] = round(seconds * 1000.0, 3)
        backend = timings.get("backend")
        if backend is not None:
            span["backend"] = backend
        return span

    async def _dispatch_request(
        self, request: Request, timings: dict[str, Any]
    ) -> dict[str, Any]:
        if request.op == "health":
            return self._op_health(request)
        if request.op == "metrics":
            return self._op_metrics()
        if request.op == "probe":
            # Before the epoch gate: failure detection must keep working
            # while views disagree.
            return await self._op_probe(request)
        self._check_epoch(request)
        if request.op == "stats":
            return self._op_stats()
        if request.op == "put-artifact":
            return await self._op_put_artifact(request, timings)
        if request.op == "get-artifact":
            return await self._op_get_artifact(request, timings)
        if request.op == "get-coarse":
            return await self._op_get_coarse(request, timings)
        assert request.dtd is not None  # decode_request guarantees it
        parse_watch = Stopwatch()
        schema, disposition = await self._resolve_schema(request.dtd, request.root)
        timings["parse"] = parse_watch.seconds
        self._count_hot(schema.fingerprint)
        if request.op == "check":
            return await self._op_check(request, schema, disposition, timings)
        if request.op == "classify":
            return self._op_classify(schema, disposition)
        if request.op == "validate":
            return await self._op_validate(request, schema, disposition, timings)
        raise ProtocolError("unsupported-op", f"unhandled op {request.op!r}")

    async def _resolve_schema(
        self, dtd_text: str, root: str | None
    ) -> tuple[CompiledSchema, str]:
        """The compiled artifact for *dtd_text* plus how it was obtained.

        The warm path stays on the event loop: one text-memo probe and one
        counted registry lookup, so a repeated request body never
        re-parses its DTD.  The cold path (:meth:`_resolve_text`: parse,
        then the registry, which may compile) is one thread hop,
        so a large client DTD does not stall the shard's other
        connections.  Concurrent cold requests for one text wait on the
        first one's hop and then take the warm path, answering as if they
        had come one after another: one ``miss``, then ``hit``s.
        """
        key = (dtd_text, root)
        while True:
            fingerprint = self._text_index.get(key)
            if fingerprint is not None:
                schema = self.registry.lookup(fingerprint, count=True)
                if schema is not None:
                    return schema, "hit"
            resolving = self._resolving.get(key)
            if resolving is None:
                break
            # Shielded: a waiter's cancellation must not cancel the others'.
            bad_dtd = await asyncio.shield(resolving)
            if bad_dtd is not None:
                raise bad_dtd
        resolving = asyncio.get_running_loop().create_future()
        self._resolving[key] = resolving
        bad_dtd = None
        try:
            schema, disposition = await asyncio.to_thread(
                self._resolve_text, dtd_text, root
            )
        except ProtocolError as error:
            bad_dtd = error
            raise
        finally:
            del self._resolving[key]
            resolving.set_result(bad_dtd)
        self._text_index.put(key, schema.fingerprint)
        return schema, disposition

    def _resolve_text(
        self, dtd_text: str, root: str | None
    ) -> tuple[CompiledSchema, str]:
        """The cold path, off-loop: parse *dtd_text*, resolve it."""
        try:
            dtd = parse_dtd(dtd_text, root=root)
        except ReproError as error:
            raise ProtocolError("bad-dtd", str(error))
        return self.registry.resolve(dtd)

    def _schema_fields(
        self, schema: CompiledSchema, disposition: str
    ) -> dict[str, Any]:
        return {"fingerprint": schema.fingerprint, "registry": disposition}

    # -- ops -----------------------------------------------------------------

    async def _run_check(
        self,
        schema: CompiledSchema,
        doc_text: str,
        algorithm: str,
        timings: dict[str, Any],
    ) -> TextVerdict:
        """One served verdict, a one-document hop; raises ``bad-document``."""
        [checked], timings["queue"] = await self._check_run(
            schema, [doc_text], algorithm
        )
        if isinstance(checked, Exception):
            raise checked
        self._tally(checked, timings)
        if checked.error is not None:
            raise ProtocolError("bad-document", checked.error)
        return checked

    async def _off_loop(
        self, count: int, work: Callable[..., Any], *args: Any
    ) -> tuple[Any, float]:
        """Run ``work(*args)`` in one thread hop: its result, the hop's seconds.

        Brackets the hop with the ``inflight`` gauge, which counts each of
        the hop's *count* documents (the increments run on the event loop,
        so no lock is needed): the stats-visible load signal a
        ``least-inflight`` routing client balances on.
        """
        self._inflight += count
        hop = Stopwatch()
        try:
            return await asyncio.to_thread(work, *args), hop.seconds
        finally:
            self._inflight -= count

    async def _check_run(
        self, schema: CompiledSchema, docs: list[str], algorithm: str
    ) -> tuple[list[TextVerdict | Exception], float]:
        """Check *docs* in one hop: their results, per-document queue.

        The hop's wall clock minus the verdict seconds is the queue-wait
        phase, spread evenly over the documents.
        """
        results, hop = await self._off_loop(
            len(docs), self._check_all, schema, docs, algorithm
        )
        verdict_seconds = sum(
            result.seconds for result in results if isinstance(result, TextVerdict)
        )
        return results, max(0.0, hop - verdict_seconds) / len(docs)

    def _tally(self, checked: TextVerdict, timings: dict[str, Any]) -> None:
        """Record one check's verdict phase and dispatch count.

        A cache hit runs no backend, so it records neither.
        """
        if checked.cached:
            return
        timings["verdict"] = checked.seconds
        timings["backend"] = checked.algorithm
        self._dispatch_counts[checked.algorithm] += 1

    def _check_all(
        self, schema: CompiledSchema, docs: list[str], algorithm: str
    ) -> list[TextVerdict | Exception]:
        """The off-loop step: :func:`check_text` per document, in order.

        An unexpected failure stays in its document's place, so the rest
        of a batch run is still answered.  Once :meth:`stop` has
        abandoned the run (its batch is cancelled, nobody reads the
        results) it stops at the next document.
        """
        results: list[TextVerdict | Exception] = []
        for doc_text in docs:
            if self._abandoned:
                break
            try:
                results.append(
                    check_text(schema, doc_text, algorithm, self._verdict_cache)
                )
            except Exception as error:  # noqa: BLE001 - a reply beats a lost run
                results.append(error)
        return results

    def _verdict_fields(self, checked: TextVerdict) -> dict[str, Any]:
        """The verdict fields a ``check`` reply and a batch item share."""
        assert checked.verdict is not None
        fields = protocol.verdict_fields(checked.verdict)
        fields["algorithm"] = checked.algorithm
        if checked.cached:
            fields["cached"] = True
        return fields

    async def _op_check(
        self,
        request: Request,
        schema: CompiledSchema,
        disposition: str,
        timings: dict[str, Any],
    ) -> dict[str, Any]:
        assert request.doc is not None
        algorithm = request.algorithm or self.default_algorithm
        checked = await self._run_check(schema, request.doc, algorithm, timings)
        response: dict[str, Any] = {
            "ok": True,
            "op": "check",
            **self._verdict_fields(checked),
            "schema": self._schema_fields(schema, disposition),
        }
        if request.coarse:
            response["coarse"] = await self._coarse_stamp(schema)
        return response

    @staticmethod
    async def _coarse_stamp(schema: CompiledSchema) -> str:
        """The base64 coarse summary a ``"coarse": true`` reply carries.

        The summary is built on its first read, so reading and encoding
        it run in one thread hop, off the event loop.
        """
        blob = await asyncio.to_thread(lambda: encode_coarse(schema.coarse))
        return base64.b64encode(blob).decode("ascii")

    # -- the streaming batch op ----------------------------------------------

    async def _handle_batch(
        self,
        request: Request,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> bool:
        """One streaming batch: header already decoded, items on *reader*.

        Items are checked in *runs*: a reader task collects item lines as
        they arrive, and each time the loop comes back it takes every
        line that has arrived, checks the run (:meth:`_answer_run`) and
        writes its replies with one write, in item order, correlated by
        the item's ``id`` (its 0-based index when it carries none).  A
        trailer summarizes the batch.  Per-item defects (a bad document,
        a malformed item line) are structured item errors and the batch
        continues; defects that lose the framing — a bad header (the
        client may already have pipelined items this server cannot safely
        reinterpret), an over-limit item line, a mid-batch hangup — end
        the connection after the replies already checked and an error
        reply, the documented disconnect.
        """
        watch = Stopwatch()
        self._batches += 1
        batch_timings: dict[str, Any] = {}
        try:
            self._check_epoch(request)
            assert request.dtd is not None  # decode_request guarantees it
            parse_watch = Stopwatch()
            schema, disposition = await self._resolve_schema(
                request.dtd, request.root
            )
            batch_timings["parse"] = parse_watch.seconds
        except Exception as error:  # noqa: BLE001 - a reply beats a disconnect
            await self._lose_framing(writer, error, request.id)
            return False
        assert self._closing is not None
        algorithm = request.algorithm or self.default_algorithm
        items = 0
        errors = 0
        feed = _ItemReader(reader, request.count)
        # One closing waiter per batch: the shutdown race is paid once per
        # wait for input, not once per item line.
        closing = asyncio.ensure_future(self._closing.wait())
        try:
            while True:
                if not await feed.wait(closing):
                    return False  # shutdown while waiting for an item
                run = feed.take()
                if not run:
                    break  # the reader has stopped
                replies, run_errors = await self._answer_run(
                    run, items, schema, algorithm, request.trace
                )
                items += len(run)
                errors += run_errors
                writer.write(replies)
                await writer.drain()
        finally:
            feed.close()
            closing.cancel()
        if feed.end == "overlong":
            await self._lose_framing(writer, ProtocolError(
                "bad-request",
                f"batch item line exceeds {protocol.MAX_LINE_BYTES} bytes",
            ))
            return False  # the stream cannot be re-framed
        if feed.end != "done":
            return False  # hangup mid-batch
        self._count_hot(schema.fingerprint, max(items, 1))
        trailer: dict[str, Any] = {
            "ok": True,
            "op": "check-batch",
            "items": items,
            "errors": errors,
            "schema": self._schema_fields(schema, disposition),
            # The same Stopwatch feeds the trailer stamp and the latency
            # histogram, so the two can never disagree.
            "elapsed_ms": watch.elapsed_ms,
        }
        if request.coarse:
            trailer["coarse"] = await self._coarse_stamp(schema)
        self._observe_request("check-batch", watch, batch_timings)
        if request.trace is not None:
            self._m_traced.inc()
            span = self._server_span("check-batch", watch, batch_timings)
            span["items"] = items
            trailer["trace"] = {"id": request.trace, "span": span}
        self._note_slow("check-batch", watch, request.trace, request.id)
        epoch = self._placement.epoch
        if epoch is not None:
            trailer["epoch"] = epoch
            trailer["load"] = self._load_fields()
        if request.id is not None:
            trailer["id"] = request.id
        writer.write(protocol.encode(trailer))
        await writer.drain()
        return True

    async def _answer_run(
        self,
        run: list[bytes],
        first: int,
        schema: CompiledSchema,
        algorithm: str,
        trace: str | None,
    ) -> tuple[bytes, int]:
        """One run of item lines to its encoded replies and error count.

        The items are decoded on the loop and all of their documents are
        checked in one hop (:meth:`_check_run`).  *first* is the index of
        the run's first item.
        """
        self._requests += len(run)
        self._batch_items += len(run)
        decoded: list[protocol.BatchItem | ProtocolError] = []
        for line in run:
            try:
                decoded.append(protocol.decode_batch_item(line))
            except ProtocolError as error:
                decoded.append(error)
        docs = [item.doc for item in decoded if isinstance(item, protocol.BatchItem)]
        results: list[TextVerdict | Exception] = []
        queue = 0.0
        if docs:
            results, queue = await self._check_run(schema, docs, algorithm)
        checked = iter(results)
        replies: list[bytes] = []
        errors = 0
        for index, item in enumerate(decoded, first):
            if isinstance(item, ProtocolError):
                reply = self._item_error(item.code, item.message, index)
            else:
                item_id = index if item.id is None else item.id
                reply = self._item_reply(next(checked), item_id, queue, trace)
            if not reply["ok"]:
                errors += 1
            replies.append(protocol.encode(reply))
        return b"".join(replies), errors

    def _item_reply(
        self,
        result: TextVerdict | Exception,
        item_id: Any,
        queue: float,
        trace: str | None,
    ) -> dict[str, Any]:
        """One checked document to its ``check-batch-item`` reply."""
        if isinstance(result, Exception):
            return self._item_error(
                "internal", f"{type(result).__name__}: {result}", item_id
            )
        timings: dict[str, Any] = {"queue": queue}
        self._tally(result, timings)
        if result.error is not None:
            return self._item_error("bad-document", result.error, item_id)
        self._observe_phases(timings)
        reply = {
            "ok": True,
            "op": "check-batch-item",
            "id": item_id,
            **self._verdict_fields(result),
        }
        if trace is not None:
            stub: dict[str, Any] = {"id": trace}
            for phase in ("queue", "verdict"):
                seconds = timings.get(phase)
                if seconds is not None:
                    stub[f"{phase}_ms"] = round(seconds * 1000.0, 3)
            reply["trace"] = stub
        return reply

    def _item_error(self, code: str, message: str, item_id: Any) -> dict[str, Any]:
        """A structured per-item error reply; the batch goes on."""
        self._count_error(code)
        reply = protocol.error_payload(code, message, id=item_id)
        reply["op"] = "check-batch-item"
        return reply

    # -- artifact hand-off ops -----------------------------------------------

    def _install_artifact(self, fingerprint: str, blob: bytes) -> bool:
        """Seed one artifact blob into the registry; ``False`` if rejected.

        The blob is :func:`~repro.service.compiled.encode_artifact`'s
        format (header + pickle); decoding verifies magic, version, and
        the embedded fingerprint against *fingerprint*, so a corrupt,
        mislabeled or older-version blob is never a poisoned registry
        entry.  Shared by ``put-artifact`` and the gossip agent's join
        prefetch; runs off the event loop in both.
        """
        schema = decode_artifact(blob, fingerprint)
        if schema is None:
            return False
        self.registry.put(schema)
        return True

    async def _op_put_artifact(
        self, request: Request, timings: dict[str, Any]
    ) -> dict[str, Any]:
        """Seed a compiled artifact shipped by a peer's hand-off.

        The payload is a base64-encoded artifact blob, installed by
        :meth:`_install_artifact`: a blob failing decoding or fingerprint
        verification is a structured ``bad-artifact`` error.  Unpickling,
        like the rest of the wire protocol, assumes a trusted network —
        see the protocol module's trust-model note.  Decoding runs
        off-loop: a multi-megabyte artifact must not stall other
        connections.
        """
        assert request.fingerprint is not None and request.artifact is not None
        fingerprint = request.fingerprint
        artifact = request.artifact

        def decode_and_install() -> bool:
            try:
                blob = base64.b64decode(artifact.encode("ascii"), validate=True)
            except (binascii.Error, UnicodeEncodeError, ValueError):
                return False
            return self._install_artifact(fingerprint, blob)

        artifact_watch = Stopwatch()
        installed = await asyncio.to_thread(decode_and_install)
        timings["artifact"] = artifact_watch.seconds
        if not installed:
            raise ProtocolError(
                "bad-artifact",
                "artifact failed decoding or fingerprint verification",
            )
        return {"ok": True, "op": "put-artifact", "fingerprint": fingerprint}

    async def _encode_held(
        self,
        fingerprint: str,
        encode: Callable[[CompiledSchema], bytes],
        timings: dict[str, Any],
    ) -> bytes:
        """*encode* applied to the artifact the registry holds for
        *fingerprint*; ``artifact-miss`` when it holds none.  The lookup
        and the encoding run off-loop.
        """

        def lookup_and_encode() -> bytes | None:
            schema = self.registry.lookup(fingerprint)
            return None if schema is None else encode(schema)

        artifact_watch = Stopwatch()
        blob = await asyncio.to_thread(lookup_and_encode)
        timings["artifact"] = artifact_watch.seconds
        if blob is None:
            raise ProtocolError(
                "artifact-miss",
                f"no artifact held for fingerprint {fingerprint!r}",
            )
        return blob

    async def _op_get_artifact(
        self, request: Request, timings: dict[str, Any]
    ) -> dict[str, Any]:
        """Hand the compiled artifact for a fingerprint to a peer.

        Pickling runs off-loop, like every other heavy path in this
        server.
        """
        assert request.fingerprint is not None
        blob = await self._encode_held(request.fingerprint, encode_artifact, timings)
        return {
            "ok": True,
            "op": "get-artifact",
            "fingerprint": request.fingerprint,
            "artifact": base64.b64encode(blob).decode("ascii"),
            "bytes": len(blob),
        }

    async def _op_get_coarse(
        self, request: Request, timings: dict[str, Any]
    ) -> dict[str, Any]:
        """Hand the few-hundred-byte coarse summary to a routing client.

        The lightweight sibling of ``get-artifact``: a ring client caches
        this per fingerprint to pre-filter batches locally.  The
        summary's build on its first read runs off-loop.
        """
        assert request.fingerprint is not None
        blob = await self._encode_held(
            request.fingerprint, lambda schema: encode_coarse(schema.coarse), timings
        )
        return {
            "ok": True,
            "op": "get-coarse",
            "fingerprint": request.fingerprint,
            "coarse": base64.b64encode(blob).decode("ascii"),
            "bytes": len(blob),
        }

    def _op_classify(
        self, schema: CompiledSchema, disposition: str
    ) -> dict[str, Any]:
        # The compiled artifact already carries the analysis; building the
        # report from it is pure formatting, safe on the event loop.
        report = classify_dtd(schema.dtd, analysis=schema.analysis)
        return {
            "ok": True,
            "op": "classify",
            "dtd_class": report.dtd_class.value,
            "element_count": report.element_count,
            "occurrence_count": report.occurrence_count,
            "recursive_elements": list(report.recursive_elements),
            "strong_recursive_elements": list(report.strong_recursive_elements),
            "unusable_elements": list(report.unusable_elements),
            "needs_depth_bound": report.needs_depth_bound,
            "summary": report.summary(),
            "schema": self._schema_fields(schema, disposition),
        }

    async def _op_validate(
        self,
        request: Request,
        schema: CompiledSchema,
        disposition: str,
        timings: dict[str, Any],
    ) -> dict[str, Any]:
        assert request.doc is not None
        (report, timings["verdict"]), _hop = await self._off_loop(
            1, self._validate, schema.dtd, request.doc
        )
        return {
            "ok": True,
            "op": "validate",
            "valid": report.valid,
            "issues": [str(issue) for issue in report.issues],
            "schema": self._schema_fields(schema, disposition),
        }

    @staticmethod
    def _validate(dtd: DTD, doc_text: str) -> tuple[ValidationReport, float]:
        """Parse and validate one document off-loop: its report, seconds.

        Raises ``bad-document`` when *doc_text* does not parse.
        """
        try:
            document = parse_xml(doc_text)
        except ReproError as error:
            raise ProtocolError("bad-document", str(error))
        # Built per request: its automata are memoized per DTD by
        # repro.validity.validator, so a validator costs microseconds.
        watch = Stopwatch()
        report = DTDValidator(dtd).validate(document)
        return report, watch.seconds

    def _op_health(self, request: Request | None = None) -> dict[str, Any]:
        """The liveness probe: cheap, payload-free, always answerable.

        Carries the ring view so a client that learns of a newer epoch
        from a reply stamp can fetch the full membership with one round
        trip.  On a ring shard it is also the gossip exchange: any
        membership table the request piggybacks is merged first, and the
        reply carries this view's own — one round trip synchronizes both
        sides.  A server running no agent merges nothing.
        """
        if (
            self._gossip is not None
            and request is not None
            and request.gossip is not None
        ):
            self._gossip.merge_wire(request.gossip)
        uptime = (
            monotonic() - self._started_at if self._started_at is not None else 0.0
        )
        view = self._view_details() or {}
        response: dict[str, Any] = {
            "ok": True,
            "op": "health",
            "status": "ok",
            "uptime_seconds": round(uptime, 3),
            "requests": self._requests,
            "inflight": self._inflight,
            "connections": len(self._conn_tasks),
            "epoch": view.get("epoch"),
            "members": view.get("members"),
            "replica_count": view.get("replica_count"),
            "read_policy": view.get("read_policy"),
        }
        if self._gossip is not None:
            response["gossip"] = self._placement.gossip_delta()
        return response

    async def _op_probe(self, request: Request) -> dict[str, Any]:
        """Indirect-probe relay: can *this* server reach ``target``?

        A gossip agent whose direct probe failed asks other members to
        try on its behalf before raising a suspicion — one flaky link
        must not take a healthy shard out of the ring.  Gossip tables
        ride along both ways, so every relay hop also spreads news.
        """
        target = request.target
        assert target is not None  # decode_request guarantees it
        if self._gossip is not None and request.gossip is not None:
            self._gossip.merge_wire(request.gossip)
        reachable = await asyncio.to_thread(self._reach_target, target)
        response: dict[str, Any] = {
            "ok": True,
            "op": "probe",
            "target": target,
            "reachable": reachable,
        }
        if self._gossip is not None:
            response["gossip"] = self._placement.gossip_delta()
        return response

    def _reach_target(self, target: str) -> bool:
        """One fresh short-timeout ``health`` round trip to *target*."""
        try:
            member = parse_member(target)
        except ValueError:
            return False
        try:
            client = ValidationClient.connect(member, timeout=_PROBE_TIMEOUT)
        except OSError:
            return False
        try:
            return bool(client.health().get("ok"))
        except (OSError, ProtocolError, ServerError):
            return False
        finally:
            try:
                client.close()
            except OSError:
                pass

    def _load_fields(self) -> dict[str, int]:
        """The server-truth load stamp success replies carry.

        ``inflight`` is verdict work currently executing; ``queue_depth``
        is the portion beyond the server's CPU count — what a new request
        would wait behind.
        """
        return {
            "inflight": self._inflight,
            "queue_depth": max(0, self._inflight - self._capacity),
        }

    def _op_stats(self) -> dict[str, Any]:
        dispatch = dict(self._dispatch_counts)
        uptime = (
            monotonic() - self._started_at if self._started_at is not None else 0.0
        )
        return {
            "ok": True,
            "op": "stats",
            "server": {
                "uptime_seconds": round(uptime, 3),
                "requests": self._requests,
                "errors": sum(self._errors.values()),
                "batches": self._batches,
                "batch_items": self._batch_items,
                "inflight": self._inflight,
                "connections": len(self._conn_tasks),
                "default_algorithm": self.default_algorithm,
                "ring_epoch": self._placement.epoch,
                "hot_limit": self.hot_limit,
                "slow_ms": self.slow_ms,
                "verdict_cache": (
                    self._verdict_cache.stats
                    if self._verdict_cache is not None
                    else None
                ),
            },
            "registry": self.registry.stats.as_dict(),
            "dispatch": dispatch,
            "hot": [
                [fingerprint, count]
                for fingerprint, count in self._hot_counts.most_common(
                    self.hot_limit
                )
            ],
        }

    def _op_metrics(self) -> dict[str, Any]:
        """The metrics scrape: a mergeable snapshot plus exposition text.

        Not epoch-gated — scrapers address a shard directly, not through
        ring routing.  Counts kept by the server, its registry and
        verdict cache are read where they are kept, at snapshot time.
        """
        snapshot = self.metrics.snapshot()
        return {
            "ok": True,
            "op": "metrics",
            "member": self._member_label(),
            "metrics": snapshot,
            "prometheus": render_prometheus(snapshot),
        }


class ServerThread:
    """Run a :class:`ValidationServer` on its own event-loop thread.

    The context-manager form the tests, the E11 benchmark, and the CI
    smoke job use::

        with ServerThread(unix_path=str(tmp / "pv.sock")) as handle:
            with ValidationClient.connect_unix(handle.unix_path) as client:
                client.check(dtd_text, doc_text)

    ``stop()`` (or leaving the ``with`` block) performs the server's
    graceful drain before the thread exits.
    """

    def __init__(
        self,
        server: ValidationServer | None = None,
        *,
        host: str | None = None,
        port: int = 0,
        unix_path: str | None = None,
        **server_kwargs: Any,
    ) -> None:
        if host is None and unix_path is None:
            host = "127.0.0.1"
        self.server = server if server is not None else ValidationServer(**server_kwargs)
        self._host = host
        self._port = port
        self._unix_path = unix_path
        self._ready = threading.Event()
        self._stop_event: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._startup_error: BaseException | None = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()),
            name="repro-validation-server",
            daemon=True,
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            self._thread.join()
            raise self._startup_error
        return self

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            await self.server.start(
                host=self._host, port=self._port, unix_path=self._unix_path
            )
        except BaseException as error:  # surface bind errors to the caller
            self._startup_error = error
            self._ready.set()
            return
        self._ready.set()
        await self._stop_event.wait()
        await self.server.stop()

    def join_ring(self, seeds: Iterable[Member | str] = ()) -> "ServerThread":
        """Run :meth:`ValidationServer.join_ring` on the server's loop."""
        assert self._loop is not None, "start() first"
        asyncio.run_coroutine_threadsafe(
            self.server.join_ring(seeds), self._loop
        ).result()
        return self

    def stop(self) -> None:
        """Request a graceful stop and wait for the thread to finish."""
        if self._thread is None:
            return
        if self._loop is not None and self._stop_event is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:
                pass  # loop already closed
        self._thread.join()
        self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- endpoints -----------------------------------------------------------

    @property
    def tcp_address(self) -> tuple[str, int] | None:
        return self.server.tcp_address

    @property
    def unix_path(self) -> str | None:
        return self.server.unix_path
