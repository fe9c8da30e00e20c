"""Thread-safe counters, gauges, and log-bucketed latency histograms.

Design constraints, in order:

1. **One count per event.**  A count some object already keeps (the
   schema registry's hits, a server's dispatch counts) is registered as
   a *read*: ``counter(name, read=fn)`` / ``gauge(name, read=fn)``,
   where ``snapshot()`` calls the zero-argument ``fn`` on the thread
   that scrapes.  Only a count nothing else keeps is pushed, through a
   handle's ``inc()``/``observe()``: one lock acquire and one add, with
   the name + labels lookup done once, at wiring time.
2. **Mergeability.**  Snapshots are plain JSON-ready dicts, and
   :func:`merge_snapshots` is associative and commutative (counters and
   gauges add; histograms add bucket-wise under identical bounds), so
   "ring-wide p99" is literally ``histogram_quantile(merge(...), 0.99)``
   no matter how the per-shard snapshots are grouped.
3. **Strippability.**  ``MetricsRegistry(enabled=False)`` hands out
   shared no-op metrics, which is how the E16 overhead benchmark builds
   its "stripped" server without a second code path.

Buckets are logarithmic (doubling from 100 µs to ~3.5 min plus +Inf),
the classic Prometheus latency layout: quantiles come from a cumulative
scan with linear interpolation inside the winning bucket, so p50/p99
are estimates bounded by one bucket's width — plenty for "which backend
tier is slow ring-wide".

Every metric name the instrumented stack may register is declared in
:data:`CATALOG`; the docs drift guard diffs it against the catalog
table in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Iterable, Mapping

__all__ = [
    "CATALOG",
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricSpec",
    "MetricsRegistry",
    "Stopwatch",
    "counter_value",
    "histogram_entries",
    "histogram_quantile",
    "merge_snapshots",
]

#: Log-spaced latency buckets in seconds: 100 µs doubling up to ~209 s,
#: with the implicit +Inf bucket appended by :class:`Histogram`.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(
    0.0001 * (2.0 ** i) for i in range(22)
)


class Stopwatch:
    """One monotonic timer, shared by reply stamps and histograms.

    The server stamps ``elapsed_ms`` on every reply *and* observes the
    same request in a latency histogram; both readings come from the
    same :class:`Stopwatch` instance so they can never disagree.
    """

    __slots__ = ("_started",)

    def __init__(self) -> None:
        self._started = perf_counter()

    @property
    def seconds(self) -> float:
        return perf_counter() - self._started

    @property
    def elapsed_ms(self) -> float:
        """Milliseconds elapsed, rounded to the wire precision (3 dp)."""
        return round(self.seconds * 1000.0, 3)


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up, down, or be set outright."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """A log-bucketed distribution of seconds.

    Stores per-bucket (non-cumulative) counts plus a running sum and
    count; snapshots carry the bucket bounds so merging can insist they
    match.
    """

    __slots__ = ("_lock", "bounds", "_counts", "_sum", "_count")

    def __init__(self, bounds: Iterable[float] = DEFAULT_BUCKETS) -> None:
        self.bounds = tuple(float(b) for b in bounds)
        if not self.bounds or list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram bounds must be sorted and non-empty")
        self._lock = threading.Lock()
        self._counts = [0] * (len(self.bounds) + 1)  # trailing +Inf bucket
        self._sum = 0.0
        self._count = 0

    def observe(self, seconds: float) -> None:
        # The first bound >= seconds: bounds are inclusive upper edges.
        index = bisect_left(self.bounds, seconds)
        with self._lock:
            self._counts[index] += 1
            self._sum += seconds
            self._count += 1

    def quantile(self, q: float) -> float | None:
        return histogram_quantile(self._entry(), q)

    def _entry(self) -> dict[str, Any]:
        with self._lock:
            return {
                "le": list(self.bounds),
                "counts": list(self._counts),
                "sum": self._sum,
                "count": self._count,
            }


class _Reading:
    """A counter or gauge read from the object that keeps its count.

    ``snapshot()`` calls *read* on the thread that scrapes; the reading
    has no ``inc()`` or ``set()``, because its count lives elsewhere.
    """

    __slots__ = ("_read",)

    def __init__(self, read: Callable[[], float]) -> None:
        self._read = read

    @property
    def value(self) -> float:
        return float(self._read())


class _NullMetric:
    """Shared no-op stand-in handed out by a disabled registry."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, seconds: float) -> None:
        pass

    def quantile(self, q: float) -> None:
        return None

    @property
    def value(self) -> float:
        return 0.0


_NULL_METRIC = _NullMetric()

_KINDS = ("counter", "gauge", "histogram")


@dataclass(frozen=True)
class MetricSpec:
    """One catalog entry: a name, its kind, its label keys, and help."""

    name: str
    kind: str
    labels: tuple[str, ...]
    help: str


#: Every metric name the instrumented stack may register, server- and
#: client-side.  ``docs/OBSERVABILITY.md``'s catalog table is diffed
#: against this tuple by the docs drift tests, and the obs test suite
#: asserts that live snapshots register no name outside it.
CATALOG: tuple[MetricSpec, ...] = (
    MetricSpec("repro_requests_total", "counter", ("op",),
               "Requests handled, by wire op (batch items excluded)."),
    MetricSpec("repro_errors_total", "counter", ("code",),
               "Error replies sent, by protocol error code."),
    MetricSpec("repro_request_seconds", "histogram", ("op",),
               "End-to-end request latency, by wire op."),
    MetricSpec("repro_phase_seconds", "histogram", ("phase",),
               "Per-request phase latency: parse (DTD resolution), queue, "
               "verdict (text to verdict), artifact."),
    MetricSpec("repro_verdict_seconds", "histogram", ("backend",),
               "Verdict computation latency, by resolved backend."),
    MetricSpec("repro_dispatch_total", "counter", ("backend",),
               "Verdicts produced, by resolved backend."),
    MetricSpec("repro_batch_items_total", "counter", (),
               "Documents checked inside check-batch streams."),
    MetricSpec("repro_slow_requests_total", "counter", (),
               "Requests slower than the served --slow-ms threshold."),
    MetricSpec("repro_traced_requests_total", "counter", (),
               "Requests that carried an opt-in trace id."),
    MetricSpec("repro_inflight", "gauge", (),
               "Checks currently in flight on this server."),
    MetricSpec("repro_connections", "gauge", (),
               "Open client connections on this server."),
    MetricSpec("repro_kernel_memo_entries", "gauge", (),
               "Kernel memo entries (emission lists and interned states) "
               "summed over resident schemas."),
    MetricSpec("repro_registry_events_total", "counter", ("event",),
               "Schema registry events: hit, miss, eviction."),
    MetricSpec("repro_ring_reads_total", "counter", ("member",),
               "Client-side reads served, by ring member."),
    MetricSpec("repro_ring_failovers_total", "counter", (),
               "Client-side reads served by a non-primary owner."),
    MetricSpec("repro_ring_requeues_total", "counter", (),
               "Corpus windows re-queued after a replica died mid-run."),
    MetricSpec("repro_ring_steals_total", "counter", (),
               "Corpus windows executed on a non-primary owner."),
    MetricSpec("repro_gossip_probe_seconds", "histogram", (),
               "Direct gossip probe round-trip latency."),
    MetricSpec("repro_gossip_suspects_total", "counter", (),
               "Members this agent marked suspect after failed probes."),
    MetricSpec("repro_gossip_refutes_total", "counter", (),
               "Suspicions about this member refuted by incarnation bump."),
    MetricSpec("repro_gossip_down_total", "counter", (),
               "Suspicions this agent confirmed down after timeout."),
    MetricSpec("repro_view_epoch", "gauge", (),
               "Placement view epoch this member currently holds."),
    MetricSpec("repro_verdict_cache_total", "counter", ("outcome",),
               "Verdict cache lookups: hit, miss, evict."),
)

CATALOG_NAMES: frozenset[str] = frozenset(spec.name for spec in CATALOG)


def _check_name(name: str) -> None:
    if not name or not all(c.isalnum() or c == "_" for c in name):
        raise ValueError(f"invalid metric name: {name!r}")


class MetricsRegistry:
    """Process-wide registry of named, labelled metrics.

    ``counter(name, **labels)`` (and ``gauge``/``histogram``) get or
    create the metric for that exact label set; callers keep the handle.
    A counter or gauge created with ``read=fn`` reports ``fn()`` at
    snapshot time; the first metric registered for a name and label set
    stands.
    ``snapshot()`` returns a JSON-ready dict; :func:`merge_snapshots`
    aggregates snapshots ring-wide.

    A registry built with ``enabled=False`` hands out shared no-op
    metrics, never calls a read, and snapshots empty — the "stripped"
    configuration the E16 overhead benchmark compares against.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self._lock = threading.Lock()
        # kind -> {(name, sorted-label-items) -> metric}
        self._metrics: dict[str, dict[tuple, Any]] = {
            kind: {} for kind in _KINDS
        }

    def _get(self, kind: str, name: str, labels: Mapping[str, str],
             factory) -> Any:
        if not self.enabled:
            return _NULL_METRIC
        _check_name(name)
        key = (name, tuple(sorted(labels.items())))
        table = self._metrics[kind]
        with self._lock:
            for other in _KINDS:
                if other != kind and key in self._metrics[other]:
                    raise ValueError(
                        f"metric {name!r} already registered as a {other}"
                    )
            metric = table.get(key)
            if metric is None:
                metric = table[key] = factory()
            return metric

    def counter(self, name: str, read: Callable[[], float] | None = None,
                **labels: str) -> Counter:
        return self._get("counter", name, labels,
                         Counter if read is None else lambda: _Reading(read))

    def gauge(self, name: str, read: Callable[[], float] | None = None,
              **labels: str) -> Gauge:
        return self._get("gauge", name, labels,
                         Gauge if read is None else lambda: _Reading(read))

    def histogram(self, name: str,
                  bounds: Iterable[float] = DEFAULT_BUCKETS,
                  **labels: str) -> Histogram:
        return self._get("histogram", name, labels,
                         lambda: Histogram(bounds))

    def snapshot(self) -> dict[str, Any]:
        """A JSON-ready, deterministically ordered snapshot."""
        with self._lock:
            items = {
                kind: sorted(table.items())
                for kind, table in self._metrics.items()
            }
        out: dict[str, Any] = {"counters": [], "gauges": [], "histograms": []}
        for (name, labels), metric in items["counter"]:
            out["counters"].append(
                {"name": name, "labels": dict(labels), "value": metric.value}
            )
        for (name, labels), metric in items["gauge"]:
            out["gauges"].append(
                {"name": name, "labels": dict(labels), "value": metric.value}
            )
        for (name, labels), metric in items["histogram"]:
            entry = metric._entry()
            entry.update(name=name, labels=dict(labels))
            out["histograms"].append(entry)
        return out


def _key(entry: Mapping[str, Any]) -> tuple:
    return (entry["name"], tuple(sorted(entry.get("labels", {}).items())))


def merge_snapshots(snapshots: Iterable[Mapping[str, Any]]) -> dict[str, Any]:
    """Aggregate snapshots: counters and gauges add, histograms add
    bucket-wise.  Associative and commutative; raises ``ValueError`` on
    histograms with mismatched bucket bounds."""
    counters: dict[tuple, dict[str, Any]] = {}
    gauges: dict[tuple, dict[str, Any]] = {}
    histograms: dict[tuple, dict[str, Any]] = {}
    for snapshot in snapshots:
        for entry in snapshot.get("counters", []):
            merged = counters.setdefault(
                _key(entry), {"name": entry["name"],
                              "labels": dict(entry.get("labels", {})),
                              "value": 0.0})
            merged["value"] += entry["value"]
        for entry in snapshot.get("gauges", []):
            merged = gauges.setdefault(
                _key(entry), {"name": entry["name"],
                              "labels": dict(entry.get("labels", {})),
                              "value": 0.0})
            merged["value"] += entry["value"]
        for entry in snapshot.get("histograms", []):
            key = _key(entry)
            merged = histograms.get(key)
            if merged is None:
                histograms[key] = {
                    "name": entry["name"],
                    "labels": dict(entry.get("labels", {})),
                    "le": list(entry["le"]),
                    "counts": list(entry["counts"]),
                    "sum": entry["sum"],
                    "count": entry["count"],
                }
                continue
            if merged["le"] != list(entry["le"]):
                raise ValueError(
                    f"histogram {entry['name']!r} bucket bounds differ "
                    f"across snapshots"
                )
            merged["counts"] = [
                a + b for a, b in zip(merged["counts"], entry["counts"])
            ]
            merged["sum"] += entry["sum"]
            merged["count"] += entry["count"]
    return {
        "counters": [counters[k] for k in sorted(counters)],
        "gauges": [gauges[k] for k in sorted(gauges)],
        "histograms": [histograms[k] for k in sorted(histograms)],
    }


def histogram_quantile(entry: Mapping[str, Any], q: float) -> float | None:
    """Estimate the *q* quantile (in seconds) from a histogram entry.

    Cumulative scan with linear interpolation inside the winning bucket;
    the +Inf bucket degrades to its lower bound (the largest finite
    bound).  Returns ``None`` for an empty histogram.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    total = entry["count"]
    if total <= 0:
        return None
    target = q * total
    bounds = entry["le"]
    cumulative = 0
    for index, count in enumerate(entry["counts"]):
        if count <= 0:
            continue
        if cumulative + count >= target:
            if index >= len(bounds):  # the +Inf bucket
                return float(bounds[-1])
            lower = bounds[index - 1] if index > 0 else 0.0
            upper = bounds[index]
            fraction = (target - cumulative) / count
            return lower + (upper - lower) * max(0.0, min(1.0, fraction))
        cumulative += count
    return float(bounds[-1])


def counter_value(snapshot: Mapping[str, Any], name: str,
                  **labels: str) -> float:
    """Sum of a snapshot's counters named *name* whose labels contain
    *labels* (a convenience for tests and the CLI)."""
    total = 0.0
    for entry in snapshot.get("counters", []):
        if entry["name"] != name:
            continue
        entry_labels = entry.get("labels", {})
        if all(entry_labels.get(k) == v for k, v in labels.items()):
            total += entry["value"]
    return total


def histogram_entries(snapshot: Mapping[str, Any],
                      name: str) -> list[dict[str, Any]]:
    """The snapshot's histogram entries named *name*."""
    return [e for e in snapshot.get("histograms", []) if e["name"] == name]
