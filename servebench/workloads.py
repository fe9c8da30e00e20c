"""The three served workloads: inputs, oracle, and one measured round.

A round runs calibration slices, starts fresh pinned servers, warms
them with one verdict per schema on a document outside the timed
sequence, then sends the workload's fixed request sequence, with one
calibration slice per document sent, run in blocks between requests,
and reads the counters the servers and the ring client kept.  The
round's timings exclude the slices, and its slowdown
(``hostspeed.Tally``) says how much slower than the reference host its
slices ran.  Replies are compared with the in-process oracle only after
the timed region, so checking costs no client CPU inside it.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time
from typing import Any

from repro.core.pv import PVChecker
from repro.obs.metrics import counter_value
from repro.server.client import ServerError, ValidationClient
from repro.server.protocol import ProtocolError
from repro.server.ring import ShardedClient
from repro.xmlmodel.parser import parse_xml

import inputs
from hostspeed import HostSpeed, Tally
from layers import Spans, resolve
from procs import ServerGroup

#: Documents per bulk-unique round and per check-batch request.
BULK_DOCS = 800
BULK_BATCH = 50
#: Replayed markup sessions per editor-session round.
EDITOR_SESSIONS = 8
#: Verdict-cache capacity of the editor-session server: every state fits.
EDITOR_CACHE = 4096
#: Editor requests per calibration block of as many slices.  A lone
#: slice before each request ran ~25% slower than slices in a block, on
#: caches the server had just used, so it timed the server's footprint
#: as well as the host.
EDITOR_BLOCK = 8
#: Tenant schemas and 40-document batches per ring-tenants round.
RING_TENANTS = 80
RING_BATCHES = 64
#: Distinct documents the machine backend re-checks per corpus.
CROSS_CHECK_SAMPLE = 60
#: Calibration slices run before a round spawns its servers.
SETUP_SLICES = 100

_FAILURES = (ServerError, ProtocolError, OSError)

#: Round counters that need not repeat exactly: pickled artifacts embed
#: their own compile timing, so hand-off volume varies by a few bytes.
INEXACT_COUNTERS = frozenset({"handoff_bytes"})


def work_counters(counters: dict[str, Any]) -> dict[str, Any]:
    """The counters a fixed request sequence must reproduce exactly."""
    return {key: value for key, value in counters.items()
            if key not in INEXACT_COUNTERS}


class OracleError(RuntimeError):
    """The kernel and machine backends disagree in process."""


def oracle(schema: inputs.Schema, texts: list[str]) -> dict[str, bool]:
    """Kernel verdicts for every distinct text."""
    kernel = PVChecker(schema.dtd, algorithm="kernel")
    return {text: kernel.check_text(text).potentially_valid
            for text in dict.fromkeys(texts)}


def cross_check(items: list[tuple[inputs.Schema, str]],
                expected: dict[tuple[str, str], bool]) -> None:
    """Re-check an evenly spaced sample with the machine backend.

    The machine backend is an independent exact algorithm, so a kernel
    defect cannot become the benchmark's notion of correct.
    """
    step = max(1, len(items) // CROSS_CHECK_SAMPLE)
    machines: dict[str, PVChecker] = {}
    for schema, text in items[::step]:
        machine = machines.setdefault(
            schema.name, PVChecker(schema.dtd, algorithm="machine")
        )
        verdict = machine.check_document(parse_xml(text)).potentially_valid
        if verdict != expected[(schema.name, text)]:
            raise OracleError(f"kernel and machine disagree on {text[:80]!r}")


@dataclass
class Drive:
    """What one pass over the fixed request sequence returned."""

    verdicts: int = 0
    failed: int = 0
    #: Verdicts the ring client's coarse filter answered locally.
    filtered: int = 0
    latencies_ms: list[float] = field(default_factory=list)
    #: (schema, text, reply or None) per document, checked after timing.
    answers: list[tuple[inputs.Schema, str, dict | None]] = field(
        default_factory=list
    )
    #: Server-reported milliseconds per wire request.
    elapsed_ms: list[float] = field(default_factory=list)
    #: (request payload, reply) pairs for the protocol codec figure.
    frames: list[tuple[dict, dict]] = field(default_factory=list)


@dataclass(frozen=True)
class Figures:
    """A round's timings, as timed or at reference host speed."""

    setup_s: float
    docs_per_s: float
    server_cpu_s: float
    client_cpu_s: float
    latencies_ms: list[float]


@dataclass
class Round:
    setup_s: float
    #: Wall and generator CPU seconds of the request sequence, less the
    #: calibration slices run between its requests.
    wall_s: float
    server_cpu_s: float
    client_cpu_s: float
    rss_mb: float
    drive: Drive
    counters: dict[str, Any]
    timed: dict[str, float]
    #: The round's calibration slices: before set-up and between requests.
    speed: Tally
    #: repro_phase_seconds (sum, count) per phase at the timed region's
    #: start and end; traced rounds only.
    phases_before: dict[str, tuple[float, int]] = field(default_factory=dict)
    phases_after: dict[str, tuple[float, int]] = field(default_factory=dict)

    @property
    def raw(self) -> Figures:
        return Figures(self.setup_s, self.drive.verdicts / self.wall_s,
                       self.server_cpu_s, self.client_cpu_s,
                       self.drive.latencies_ms)

    @property
    def norm(self) -> Figures:
        """The figures divided by the round's host slowdown: wall-clock
        ones by the slices' wall time, CPU times by their CPU time."""
        wall, cpu = self.speed.wall_slowdown, self.speed.cpu_slowdown
        return Figures(
            self.setup_s / wall, self.drive.verdicts / self.wall_s * wall,
            self.server_cpu_s / cpu, self.client_cpu_s / cpu,
            [ms / wall for ms in self.drive.latencies_ms],
        )


def _stats_counters(stats: list[dict]) -> dict[str, Any]:
    """Work counters summed over the servers' ``stats`` replies."""
    out: dict[str, Any] = {
        "cache_hits": 0, "cache_misses": 0,
        "registry_hits": 0, "registry_misses": 0, "registry_evictions": 0,
        "registry_capacity": 0, "dispatch": {},
    }
    for reply in stats:
        cache = reply["server"].get("verdict_cache") or {}
        out["cache_hits"] += cache.get("hits", 0)
        out["cache_misses"] += cache.get("misses", 0)
        registry = reply["registry"]
        out["registry_hits"] += registry["hits"]
        out["registry_misses"] += registry["misses"]
        out["registry_evictions"] += registry["evictions"]
        out["registry_capacity"] = registry["maxsize"]
        for backend, count in (reply.get("dispatch") or {}).items():
            out["dispatch"][backend] = out["dispatch"].get(backend, 0) + count
    return out


def _phase_totals(snapshot: dict) -> dict[str, tuple[float, int]]:
    totals: dict[str, tuple[float, int]] = {}
    for entry in snapshot.get("histograms", []):
        if entry["name"] == "repro_phase_seconds":
            totals[entry["labels"].get("phase", "")] = (
                entry["sum"], entry["count"]
            )
    return totals


class Workload:
    """One traffic mix against fresh ``repro serve`` processes."""

    name = ""
    servers = 1
    flags: tuple[str, ...] = ()

    def __init__(self) -> None:
        self.schemas: list[inputs.Schema] = []
        self.expected: dict[tuple[str, str], bool] = {}

    # -- per-workload hooks ------------------------------------------------

    def open(self, addresses: list[str]) -> Any:
        return ValidationClient.connect_unix(addresses[0])

    def warm(self, client: Any) -> None:
        raise NotImplementedError

    def drive(self, client: Any, spans: Spans | None,
              speed: HostSpeed) -> Drive:
        """Send the fixed request sequence, running one calibration
        slice per document sent, in blocks between requests."""
        raise NotImplementedError

    def stats(self, client: Any) -> list[dict]:
        return [client.stats()]

    def scrape(self, client: Any) -> dict:
        return client.metrics()["metrics"]

    def client_counters(self, client: Any) -> dict[str, Any]:
        return {}

    def properties(self) -> dict[str, Any]:
        raise NotImplementedError

    def layer_items(self) -> list[tuple[inputs.Schema, str]]:
        raise NotImplementedError

    def coarse_definite_frac(self) -> float | None:
        """Share of the distinct documents the coarse pass decides
        definitely (``None`` once the program has no coarse checker)."""
        checker_cls = resolve("repro.core.coarse", "CoarseChecker")
        if checker_cls is None:
            return None
        checkers: dict[str, Any] = {}
        items = list(dict.fromkeys(self.layer_items()))
        definite = 0
        for schema, text in items:
            checker = checkers.get(schema.name)
            if checker is None:
                compiled = PVChecker(schema.dtd, algorithm="kernel").compiled
                checker = checkers[schema.name] = checker_cls(compiled.coarse)
            definite += checker.check_text(text).definite
        return definite / len(items)

    # -- shared machinery --------------------------------------------------

    def _expect(self, schema: inputs.Schema, texts: list[str]) -> None:
        for text, verdict in oracle(schema, texts).items():
            self.expected[(schema.name, text)] = verdict

    def verify(self, drive: Drive) -> int:
        """Failed operations: transport or error replies, wrong verdicts."""
        failed = drive.failed
        for schema, text, reply in drive.answers:
            if reply is None:
                continue  # already counted as a transport failure
            if not reply.get("ok") or reply.get("potentially_valid") != (
                self.expected[(schema.name, text)]
            ):
                failed += 1
        return failed

    def round(self, root: Path, rundir: Path, cpu: int,
              spans: Spans | None, speed: HostSpeed) -> Round:
        first = speed.mark()
        speed.sample(SETUP_SLICES)
        started = perf_counter()
        with ServerGroup(root, rundir, self.servers, cpu, self.flags) as group:
            client = self.open(group.addresses)
            try:
                self.warm(client)
                setup_s = perf_counter() - started
                before = _stats_counters(self.stats(client))
                scraped = self.scrape(client) if spans is not None else None
                server_cpu = group.cpu_seconds()
                client_cpu = process_time()
                wall = perf_counter()
                mark = speed.mark()
                drive = self.drive(client, spans, speed)
                slices = speed.since(mark)
                wall = perf_counter() - wall - slices.wall_s
                client_cpu = process_time() - client_cpu - slices.cpu_s
                server_cpu = group.cpu_seconds() - server_cpu
                rss_mb = group.peak_rss_mb()
                after = _stats_counters(self.stats(client))
                phases_before = phases_after = {}
                if scraped is not None:
                    phases_before = _phase_totals(scraped)
                    phases_after = _phase_totals(self.scrape(client))
                counters = dict(after, **self.client_counters(client))
            finally:
                client.close()
        drive.failed = self.verify(drive)
        timed = {
            key: after[key] - before[key]
            for key in ("cache_hits", "cache_misses", "registry_hits",
                        "registry_misses")
        }
        return Round(setup_s, wall, server_cpu, client_cpu, rss_mb, drive,
                     counters, timed, speed.since(first), phases_before,
                     phases_after)


def _request_id(spans: Spans | None, number: int) -> str | None:
    return None if spans is None else f"req-{number}"


def _record(spans: Spans | None, name: str, started: float, ended: float,
            request: str | None, reply: dict | None,
            items: list[dict] = ()) -> None:
    if spans is None:
        return
    span_id = spans.add(name, started, ended, request=request)
    if reply is not None:
        trace = reply.get("trace") or {}
        spans.add_server(
            span_id, started, request, trace.get("span"),
            reply.get("elapsed_ms"),
            [item["trace"] for item in items if "trace" in item],
        )


class _Manuscript(Workload):
    """A workload of manuscript-DTD documents on one server."""

    def __init__(self, seed: int, texts: list[str]) -> None:
        super().__init__()
        self.schema = inputs.manuscript()
        self.schemas = [self.schema]
        self.texts = texts
        self.warm_doc = inputs.warmup_document(self.schema.dtd, seed)
        self._expect(self.schema, self.texts)

    def warm(self, client: ValidationClient) -> None:
        client.check(self.schema.text, self.warm_doc, root=self.schema.root)


class BulkUnique(_Manuscript):
    """Unique manuscript documents streamed through check-batch."""

    name = "bulk-unique"

    def __init__(self, seed: int) -> None:
        super().__init__(seed, inputs.bulk_corpus(seed, BULK_DOCS))

    def drive(self, client: ValidationClient, spans: Spans | None,
              speed: HostSpeed) -> Drive:
        out = Drive()
        schema = self.schema
        for number, start in enumerate(range(0, len(self.texts), BULK_BATCH)):
            docs = self.texts[start:start + BULK_BATCH]
            request = _request_id(spans, number)
            speed.sample(len(docs))
            began = perf_counter()
            try:
                items, trailer = client.check_batch(
                    schema.text, docs, root=schema.root, trace=request
                )
            except _FAILURES:
                out.failed += len(docs)
                out.answers.extend((schema, doc, None) for doc in docs)
                continue
            ended = perf_counter()
            out.latencies_ms.append((ended - began) * 1000.0)
            out.verdicts += len(items)
            out.elapsed_ms.append(trailer["elapsed_ms"])
            out.answers.extend(
                (schema, doc, item) for doc, item in zip(docs, items)
            )
            if spans is not None:
                _record(spans, "client.check-batch", began, ended, request,
                        trailer, items)
                out.frames.extend(
                    ({"doc": doc, "id": index}, item)
                    for index, (doc, item) in enumerate(zip(docs, items))
                )
        return out

    def properties(self) -> dict[str, Any]:
        return {
            "documents": len(self.texts),
            "repeat_frac": inputs.repeat_share(self.texts),
            "mean_doc_kb": statistics.fmean(map(len, self.texts)) / 1024.0,
            "schemas": 1,
            "potentially_valid_frac": statistics.fmean(
                self.expected[(self.schema.name, text)] for text in self.texts
            ),
        }

    def layer_items(self) -> list[tuple[inputs.Schema, str]]:
        return [(self.schema, text) for text in self.texts]


class EditorSession(_Manuscript):
    """Closed-loop single checks of replayed markup sessions."""

    name = "editor-session"
    flags = ("--verdict-cache", str(EDITOR_CACHE))

    def __init__(self, seed: int) -> None:
        super().__init__(seed, inputs.editor_sequence(seed, EDITOR_SESSIONS))

    def drive(self, client: ValidationClient, spans: Spans | None,
              speed: HostSpeed) -> Drive:
        out = Drive()
        schema = self.schema
        for number, text in enumerate(self.texts):
            request = _request_id(spans, number)
            if number % EDITOR_BLOCK == 0:
                speed.sample(EDITOR_BLOCK)
            began = perf_counter()
            try:
                reply = client.check(
                    schema.text, text, root=schema.root, trace=request
                )
            except _FAILURES:
                out.failed += 1
                out.answers.append((schema, text, None))
                continue
            ended = perf_counter()
            out.latencies_ms.append((ended - began) * 1000.0)
            out.verdicts += 1
            out.elapsed_ms.append(reply["elapsed_ms"])
            out.answers.append((schema, text, reply))
            if spans is not None:
                _record(spans, "client.check", began, ended, request, reply)
                out.frames.append(({
                    "op": "check", "dtd": schema.text, "doc": text,
                    "root": schema.root, "trace": request,
                }, reply))
        return out

    def properties(self) -> dict[str, Any]:
        return {
            "requests": len(self.texts),
            "repeat_frac": inputs.repeat_share(self.texts),
            "mean_doc_kb": statistics.fmean(map(len, self.texts)) / 1024.0,
            "schemas": 1,
            "cache_capacity": EDITOR_CACHE,
        }

    def layer_items(self) -> list[tuple[inputs.Schema, str]]:
        return [(self.schema, text) for text in dict.fromkeys(self.texts)]


class _Figure5Screen:
    """Accepts a tenant document only when figure5 agrees with the kernel.

    ``auto`` dispatch serves small, shallow documents with the figure5
    recognizer, which misjudges some random content models.  Such a
    document would fail in every run, so the generator replaces it and
    the workload reports how many it replaced.
    """

    def __init__(self) -> None:
        self._checkers: dict[str, tuple[PVChecker, PVChecker]] = {}

    def __call__(self, schema: inputs.Schema, text: str) -> bool:
        pair = self._checkers.get(schema.name)
        if pair is None:
            pair = (PVChecker(schema.dtd, algorithm="kernel"),
                    PVChecker(schema.dtd, algorithm="figure5"))
            self._checkers[schema.name] = pair
        kernel, figure5 = pair
        tree = parse_xml(text)
        return (kernel.check_document(tree).potentially_valid
                == figure5.check_document(tree).potentially_valid)


class RingTenants(Workload):
    """Zipf tenants over a 2-shard R=2 ring with the client filter on."""

    name = "ring-tenants"
    servers = 2

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.schemas = inputs.tenants(RING_TENANTS)
        plan = inputs.tenant_batches(
            seed, self.schemas, RING_BATCHES, _Figure5Screen()
        )
        self.batches = plan.batches
        #: Documents replaced because figure5 misjudged them.
        self.screened = plan.rejected
        # Warm the coldest tenants first: the overflow evicts only ranks
        # the timed sequence never sends, so every seed's timed region
        # runs on a registry holding its working set, as in steady state.
        self.warm_order = plan.ranked[::-1]
        self.warm_docs = [
            inputs.warmup_document(schema.dtd, seed) for schema in self.schemas
        ]
        by_tenant: dict[int, list[str]] = {}
        for tenant, docs in self.batches:
            by_tenant.setdefault(tenant, []).extend(docs)
        for tenant, docs in by_tenant.items():
            self._expect(self.schemas[tenant], docs)

    def open(self, addresses: list[str]) -> ShardedClient:
        return ShardedClient(
            addresses, replica_count=2, read_policy="round-robin",
            coarse_filter=True,
        )

    def warm(self, ring: ShardedClient) -> None:
        # Through the same batch surface as the timed region, so the
        # client's coarse-summary cache is primed as well.
        for tenant in self.warm_order:
            schema = self.schemas[tenant]
            ring.check_batch(schema.text, [self.warm_docs[tenant]],
                             root=schema.root)

    def drive(self, ring: ShardedClient, spans: Spans | None,
              speed: HostSpeed) -> Drive:
        out = Drive()
        for number, (tenant, docs) in enumerate(self.batches):
            schema = self.schemas[tenant]
            request = _request_id(spans, number)
            speed.sample(len(docs))
            began = perf_counter()
            try:
                # Untraced even in the traced run: a traced ring batch
                # bypasses the coarse filter, which would change the work.
                items, trailer = ring.check_batch(
                    schema.text, docs, root=schema.root
                )
            except _FAILURES:
                out.failed += len(docs)
                out.answers.extend((schema, doc, None) for doc in docs)
                continue
            ended = perf_counter()
            out.latencies_ms.append((ended - began) * 1000.0)
            out.verdicts += len(items)
            out.filtered += sum(1 for item in items if item.get("filtered"))
            out.elapsed_ms.append(
                trailer.get("server_ms", trailer.get("elapsed_ms", 0.0))
            )
            out.answers.extend(
                (schema, doc, item) for doc, item in zip(docs, items)
            )
            if spans is not None:
                _record(spans, "ring.check_batch", began, ended, request,
                        None)
                out.frames.extend(
                    ({"doc": doc, "id": index}, item)
                    for index, (doc, item) in enumerate(zip(docs, items))
                    if not item.get("filtered")
                )
        return out

    def stats(self, ring: ShardedClient) -> list[dict]:
        return [reply for reply in ring.stats()["shards"].values()
                if reply is not None]

    def scrape(self, ring: ShardedClient) -> dict:
        return ring.metrics()["merged"]

    def client_counters(self, ring: ShardedClient) -> dict[str, Any]:
        stats = ring.ring_stats
        requeues = counter_value(
            ring.telemetry.snapshot(), "repro_ring_requeues_total"
        )
        return {
            "handoffs": stats["handoffs"],
            "handoff_bytes": stats["handoff_bytes"],
            "compiles_observed": stats["compiles_observed"],
            "coarse_filtered": stats["coarse_filtered"],
            "requests_by_member": dict(stats["requests_by_member"]),
            "retries": stats["failovers"] + stats["epoch_refreshes"]
            + int(requeues),
        }

    def properties(self) -> dict[str, Any]:
        texts = [doc for _tenant, docs in self.batches for doc in docs]
        used = {tenant for tenant, _docs in self.batches}
        return {
            "documents": len(texts),
            "batches": len(self.batches),
            "repeat_frac": inputs.repeat_share(texts),
            "mean_doc_kb": statistics.fmean(map(len, texts)) / 1024.0,
            "schemas": len(self.schemas),
            "schemas_in_timed_sequence": len(used),
            "docs_replaced_for_figure5": self.screened,
        }

    def layer_items(self) -> list[tuple[inputs.Schema, str]]:
        return [(self.schemas[tenant], doc)
                for tenant, docs in self.batches for doc in docs]


WORKLOADS = {
    workload.name: workload
    for workload in (BulkUnique, EditorSession, RingTenants)
}

