"""Tests for the observability layer: metrics, tracing, events, scrapes.

Covers the obs primitives in isolation (histogram bucket math and
quantiles, merge associativity, Prometheus rendering, the event-log
line schema, trace contexts) and the instrumented stack end to end: the
``metrics`` wire op, opt-in tracing across a forced ring failover, the
``--hot-limit`` / ``--slow-ms`` server knobs, the scrape agreeing with
``stats`` on every count both carry, and the ring-wide CLI aggregation.
"""

from __future__ import annotations

import json
import socket

import pytest

from repro.cli import main
from repro.obs.events import EventLog
from repro.obs.metrics import (
    CATALOG,
    CATALOG_NAMES,
    Counter,
    Histogram,
    MetricsRegistry,
    Stopwatch,
    counter_value,
    histogram_entries,
    histogram_quantile,
    merge_snapshots,
)
from repro.obs.promtext import render, validate_exposition
from repro.obs.trace import TraceContext, new_trace_id
from repro.server.ring import ShardedClient, member_label
from repro.server.server import ValidationServer, ServerThread

DTD = """
<!ELEMENT doc (title, para+)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT para (#PCDATA)>
"""
DOC = "<doc><title>t</title><para>p</para></doc>"


def schema_text(index: int) -> str:
    """A family of structurally distinct DTDs (distinct fingerprints)."""
    return (
        f"<!ELEMENT r{index} (a{index}*)>"
        f"<!ELEMENT a{index} (#PCDATA)>"
    )


def doc_text(index: int) -> str:
    return f"<r{index}><a{index}>x</a{index}></r{index}>"


# -- metric primitives -------------------------------------------------------


class TestHistogram:
    def test_observations_land_in_log_buckets(self):
        h = Histogram(bounds=(0.001, 0.01, 0.1))
        for value in (0.0005, 0.005, 0.05, 0.5):
            h.observe(value)
        entry = h._entry()
        assert entry["counts"] == [1, 1, 1, 1]  # last is the +Inf bucket
        assert entry["count"] == 4
        assert entry["sum"] == pytest.approx(0.5555)

    def test_boundary_value_is_inclusive(self):
        h = Histogram(bounds=(0.001, 0.01))
        h.observe(0.001)
        assert h._entry()["counts"] == [1, 0, 0]

    @pytest.mark.parametrize("value, bucket", [
        (0.0, 0), (0.0005, 0),  # below the first bound
        (0.002, 1), (0.05, 2),  # between bounds
        (0.01, 1),  # on an inner bound
        (0.1, 2),  # on the last bound
        (0.1000001, 3), (7.0, 3),  # above it: the +Inf bucket
    ])
    def test_a_value_lands_in_the_first_bucket_that_bounds_it(
        self, value, bucket
    ):
        h = Histogram(bounds=(0.001, 0.01, 0.1))
        h.observe(value)
        counts = [0, 0, 0, 0]
        counts[bucket] = 1
        assert h._entry()["counts"] == counts

    def test_quantiles_interpolate_inside_the_winning_bucket(self):
        h = Histogram(bounds=(0.1, 0.2, 0.4))
        for _ in range(100):
            h.observe(0.15)
        # All mass in the (0.1, 0.2] bucket: every quantile lands there.
        assert 0.1 <= h.quantile(0.5) <= 0.2
        assert 0.1 <= h.quantile(0.99) <= 0.2
        # p50 sits mid-bucket under linear interpolation.
        assert h.quantile(0.5) == pytest.approx(0.15, abs=0.011)

    def test_inf_bucket_degrades_to_the_largest_finite_bound(self):
        h = Histogram(bounds=(0.1, 0.2))
        h.observe(5.0)
        assert h.quantile(0.99) == pytest.approx(0.2)

    def test_empty_histogram_has_no_quantile(self):
        assert Histogram(bounds=(0.1,)).quantile(0.5) is None

    def test_quantile_range_is_validated(self):
        h = Histogram(bounds=(0.1,))
        h.observe(0.05)
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_unsorted_bounds_are_rejected(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(0.2, 0.1))


class TestCounterAndStopwatch:
    def test_counters_only_go_up(self):
        c = Counter()
        c.inc()
        c.inc(2)
        assert c.value == 3
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_stopwatch_readings_agree(self):
        watch = Stopwatch()
        first_ms = watch.elapsed_ms
        later_seconds = watch.seconds
        # Both read the same monotonic start; time only moves forward.
        assert 0 <= first_ms <= later_seconds * 1000.0
        assert first_ms == round(first_ms, 3)


class TestMergeSnapshots:
    def snapshot(self, value: int) -> dict:
        registry = MetricsRegistry()
        registry.counter("repro_requests_total", op="check").inc(value)
        h = registry.histogram("repro_request_seconds",
                               bounds=(0.25, 1.0), op="check")
        for _ in range(value):
            h.observe(0.5)  # exactly representable: sums associate exactly
        return registry.snapshot()

    def test_counters_add_and_histograms_add_bucketwise(self):
        merged = merge_snapshots([self.snapshot(2), self.snapshot(3)])
        assert counter_value(merged, "repro_requests_total", op="check") == 5
        entry = histogram_entries(merged, "repro_request_seconds")[0]
        assert entry["count"] == 5
        assert entry["counts"] == [0, 5, 0]

    def test_merge_is_associative(self):
        a, b, c = self.snapshot(1), self.snapshot(2), self.snapshot(4)
        left = merge_snapshots([merge_snapshots([a, b]), c])
        right = merge_snapshots([a, merge_snapshots([b, c])])
        assert left == right

    def test_merge_is_commutative(self):
        a, b = self.snapshot(1), self.snapshot(2)
        assert merge_snapshots([a, b]) == merge_snapshots([b, a])

    def test_mismatched_bucket_bounds_are_rejected(self):
        other = MetricsRegistry()
        other.histogram("repro_request_seconds",
                        bounds=(0.5,), op="check").observe(0.1)
        with pytest.raises(ValueError):
            merge_snapshots([self.snapshot(1), other.snapshot()])

    def test_quantile_of_a_merge_equals_quantile_of_the_union(self):
        merged = merge_snapshots([self.snapshot(10), self.snapshot(10)])
        entry = histogram_entries(merged, "repro_request_seconds")[0]
        # All 20 observations sit in the (0.25, 1.0] bucket.
        assert 0.25 <= histogram_quantile(entry, 0.99) <= 1.0


class TestMetricsRegistry:
    def test_same_name_and_labels_share_a_handle(self):
        registry = MetricsRegistry()
        assert registry.counter("repro_requests_total", op="check") is (
            registry.counter("repro_requests_total", op="check")
        )

    def test_kind_conflicts_are_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_requests_total")
        with pytest.raises(ValueError):
            registry.gauge("repro_requests_total")

    def test_disabled_registry_hands_out_noops_and_snapshots_empty(self):
        def never() -> int:
            raise AssertionError("a stripped registry read a count")

        registry = MetricsRegistry(enabled=False)
        registry.counter("repro_requests_total", op="check").inc()
        registry.gauge("repro_inflight").set(5)
        registry.histogram("repro_request_seconds", op="check").observe(0.1)
        registry.counter("repro_batch_items_total", read=never)
        registry.gauge("repro_connections", read=never)
        assert registry.snapshot() == {
            "counters": [], "gauges": [], "histograms": []
        }

    def test_a_read_reports_its_count_at_snapshot_time(self):
        registry = MetricsRegistry()
        kept = {"items": 0, "open": 0}
        registry.counter("repro_batch_items_total",
                         read=lambda: kept["items"])
        registry.gauge("repro_connections", read=lambda: kept["open"])
        kept.update(items=7, open=2)
        snapshot = registry.snapshot()
        assert counter_value(snapshot, "repro_batch_items_total") == 7.0
        assert snapshot["gauges"] == [
            {"name": "repro_connections", "labels": {}, "value": 2.0}
        ]
        kept["items"] = 9
        assert counter_value(
            registry.snapshot(), "repro_batch_items_total"
        ) == 9.0


# -- Prometheus exposition ---------------------------------------------------


class TestPromtext:
    def test_golden_rendering(self):
        registry = MetricsRegistry()
        registry.counter("repro_batch_items_total").inc(7)
        registry.gauge("repro_inflight").set(2)
        h = registry.histogram("repro_request_seconds",
                               bounds=(0.001, 0.01), op="check")
        h.observe(0.0005)
        h.observe(0.005)
        h.observe(5.0)
        assert render(registry.snapshot()) == (
            "# HELP repro_batch_items_total Documents checked inside "
            "check-batch streams.\n"
            "# TYPE repro_batch_items_total counter\n"
            "repro_batch_items_total 7\n"
            "# HELP repro_inflight Checks currently in flight on this "
            "server.\n"
            "# TYPE repro_inflight gauge\n"
            "repro_inflight 2\n"
            "# HELP repro_request_seconds End-to-end request latency, "
            "by wire op.\n"
            "# TYPE repro_request_seconds histogram\n"
            'repro_request_seconds_bucket{op="check",le="0.001"} 1\n'
            'repro_request_seconds_bucket{op="check",le="0.01"} 2\n'
            'repro_request_seconds_bucket{op="check",le="+Inf"} 3\n'
            'repro_request_seconds_sum{op="check"} 5.0055\n'
            'repro_request_seconds_count{op="check"} 3\n'
        )

    def test_rendering_validates(self):
        registry = MetricsRegistry()
        registry.counter("repro_requests_total", op="check").inc()
        registry.histogram("repro_verdict_seconds", backend="kernel").observe(
            0.002
        )
        text = render(registry.snapshot())
        assert validate_exposition(text) > 0

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("repro_ring_reads_total", member='a"b\\c').inc()
        text = render(registry.snapshot())
        assert validate_exposition(text) == 1
        assert '\\"' in text

    def test_validator_rejects_garbage(self):
        with pytest.raises(ValueError):
            validate_exposition("no exposition at all\n")
        with pytest.raises(ValueError):
            validate_exposition("repro_requests_total 1")  # no newline


# -- the event log -----------------------------------------------------------


class TestEventLog:
    def test_disabled_by_default(self):
        log = EventLog()
        assert not log.enabled
        log.emit("member-down", member="x")  # a no-op, not an error

    def test_lines_are_json_with_ts_and_event(self):
        lines: list[str] = []
        log = EventLog(lines.append)
        log.emit("failover", member="a.sock", owner="b.sock")
        record = json.loads(lines[0])
        assert record["event"] == "failover"
        assert isinstance(record["ts"], float)
        assert record["member"] == "a.sock"
        assert record["owner"] == "b.sock"

    def test_unserializable_fields_degrade_to_str(self):
        lines: list[str] = []
        EventLog(lines.append).emit("member-up", member={1, 2})
        assert json.loads(lines[0])["event"] == "member-up"

    def test_to_path_appends_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog.to_path(str(path))
        assert log.enabled
        log.emit("epoch-published", epoch=3)
        log.emit("epoch-published", epoch=4)
        log.close()
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert [e["epoch"] for e in events] == [3, 4]


# -- trace contexts ----------------------------------------------------------


class TestTraceContext:
    def test_falsy_trace_makes_no_context(self):
        assert TraceContext.make(False) is None
        assert TraceContext.make(None) is None
        assert TraceContext.make("") is None

    def test_true_draws_an_id_and_strings_become_the_id(self):
        assert len(TraceContext.make(True).id) == 16
        assert TraceContext.make("my-id").id == "my-id"
        assert len(new_trace_id()) == 16

    def test_hops_fold_in_server_spans_and_count_failovers(self):
        ctx = TraceContext("t1")
        first = ctx.begin_hop("dead.sock")
        ctx.fail_hop(first, ConnectionRefusedError("refused"))
        second = ctx.begin_hop("live.sock")
        ctx.end_hop(
            second,
            {"ok": True, "trace": {"id": "t1", "span": {"total_ms": 1.0}}},
        )
        out = ctx.as_dict()
        assert out["id"] == "t1"
        assert out["failovers"] == 1
        assert "error" in out["hops"][0]
        assert out["hops"][1]["span"] == {"total_ms": 1.0}
        assert all("_started" not in hop for hop in out["hops"])


# -- the instrumented server -------------------------------------------------


class TestServerMetricsOp:
    def test_scrape_reflects_served_requests(self, tmp_path, client):
        assert client.check(DTD, DOC)["ok"] is True
        reply = client.metrics()
        assert reply["op"] == "metrics"
        snapshot = reply["metrics"]
        assert counter_value(snapshot, "repro_requests_total", op="check") == 1
        assert counter_value(snapshot, "repro_dispatch_total") >= 1
        entries = histogram_entries(snapshot, "repro_request_seconds")
        assert any(e["count"] for e in entries)
        phases = {
            e["labels"]["phase"]
            for e in histogram_entries(snapshot, "repro_phase_seconds")
            if e["count"]
        }
        assert {"parse", "queue", "verdict"} <= phases
        assert validate_exposition(reply["prometheus"]) > 0

    def test_every_scraped_name_is_in_the_catalog(self, client):
        client.check(DTD, DOC)
        snapshot = client.metrics()["metrics"]
        names = {
            entry["name"]
            for kind in ("counters", "gauges", "histograms")
            for entry in snapshot[kind]
        }
        assert names <= CATALOG_NAMES

    def test_scrape_reports_the_kernel_memo(self, client):
        assert client.check(DTD, DOC)["potentially_valid"] is True
        reply = client.metrics()
        gauges = {
            entry["name"]: entry["value"] for entry in reply["metrics"]["gauges"]
        }
        # The check stepped the kernel, which memoizes every round.
        assert gauges["repro_kernel_memo_entries"] >= 1
        assert "repro_kernel_memo_entries " in reply["prometheus"]

    def test_untraced_replies_carry_no_trace(self, client):
        assert "trace" not in client.check(DTD, DOC)

    def test_traced_reply_carries_the_server_span(self, client):
        reply = client.check(DTD, DOC, trace="abc123")
        trace = reply["trace"]
        assert trace["id"] == "abc123"
        span = trace["span"]
        assert span["op"] == "check"
        assert span["total_ms"] >= 0
        assert span["backend"] in ("kernel", "machine", "figure5", "earley")
        assert counter_value(
            client.metrics()["metrics"], "repro_traced_requests_total"
        ) == 1

    def test_traced_batch_items_and_trailer(self, client):
        replies, trailer = client.check_batch(DTD, [DOC, DOC], trace="b-1")
        assert all(r["trace"]["id"] == "b-1" for r in replies)
        assert trailer["trace"]["span"]["items"] == 2
        snapshot = client.metrics()["metrics"]
        assert counter_value(snapshot, "repro_batch_items_total") == 2

    def test_empty_trace_is_a_bad_request(self, client):
        from repro.server.client import ServerError

        with pytest.raises(ServerError) as info:
            client.request({"op": "check", "dtd": DTD, "doc": DOC,
                            "trace": ""})
        assert info.value.code == "bad-request"

    @pytest.fixture()
    def client(self, tmp_path):
        from repro.server.client import ValidationClient

        with ServerThread(
            unix_path=str(tmp_path / "pv.sock"), port=0
        ) as handle:
            with ValidationClient.connect_unix(handle.unix_path) as client:
                yield client


class TestServerKnobs:
    def test_hot_limit_bounds_the_stats_hot_list_and_is_reported(
        self, tmp_path
    ):
        from repro.server.client import ValidationClient

        with ServerThread(
            unix_path=str(tmp_path / "pv.sock"), port=0,
            server=ValidationServer(hot_limit=2),
        ) as handle:
            with ValidationClient.connect_unix(handle.unix_path) as client:
                for index in range(4):
                    client.check(schema_text(index), doc_text(index))
                stats = client.stats()
        assert stats["server"]["hot_limit"] == 2
        assert len(stats["hot"]) == 2

    def test_slow_ms_zero_counts_and_logs_every_request(self, tmp_path):
        from repro.server.client import ValidationClient

        lines: list[str] = []
        server = ValidationServer(slow_ms=0.0, events=EventLog(lines.append))
        with ServerThread(
            unix_path=str(tmp_path / "pv.sock"), port=0, server=server
        ) as handle:
            with ValidationClient.connect_unix(handle.unix_path) as client:
                client.check(DTD, DOC, trace="slow-1")
                snapshot = client.metrics()["metrics"]
        assert counter_value(snapshot, "repro_slow_requests_total") >= 1
        events = [json.loads(line) for line in lines]
        slow = [e for e in events if e["event"] == "slow-request"]
        assert slow and slow[0]["op"] == "check"
        assert slow[0]["trace"] == "slow-1"

    def test_knob_validation(self):
        with pytest.raises(ValueError):
            ValidationServer(hot_limit=0)
        with pytest.raises(ValueError):
            ValidationServer(slow_ms=-1.0)

    def test_stripped_server_serves_but_snapshots_empty(self, tmp_path):
        from repro.server.client import ValidationClient

        server = ValidationServer(metrics=MetricsRegistry(enabled=False))
        with ServerThread(
            unix_path=str(tmp_path / "pv.sock"), port=0, server=server
        ) as handle:
            with ValidationClient.connect_unix(handle.unix_path) as client:
                assert client.check(DTD, DOC)["ok"] is True
                reply = client.metrics()
        assert reply["metrics"] == {
            "counters": [], "gauges": [], "histograms": []
        }


def _raw_exchange(path: str, stream: bytes, replies: int) -> list[dict]:
    """Send *stream* in one write on a fresh connection; read *replies*."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(10)
        sock.connect(path)
        sock.sendall(stream)
        with sock.makefile("rb") as lines:
            return [json.loads(lines.readline()) for _ in range(replies)]


#: Scraped series -> stats field, for the counts both surfaces carry.
REGISTRY_EVENTS = {"hit": "hits", "miss": "misses", "eviction": "evictions"}
CACHE_OUTCOMES = {"hit": "hits", "miss": "misses", "evict": "evictions"}


def shared_counts(stats: dict, snapshot: dict) -> dict[str, tuple]:
    """``name -> (stats value, scraped value)`` for every count that
    ``stats`` and the scrape both carry."""
    pairs: dict[str, tuple] = {}
    for event, field in REGISTRY_EVENTS.items():
        pairs[f"registry.{field}"] = (
            stats["registry"][field],
            counter_value(snapshot, "repro_registry_events_total", event=event),
        )
    cache = stats["server"]["verdict_cache"]
    if cache is not None:
        for outcome, field in CACHE_OUTCOMES.items():
            pairs[f"verdict_cache.{field}"] = (
                cache[field],
                counter_value(
                    snapshot, "repro_verdict_cache_total", outcome=outcome
                ),
            )
    backends = {
        entry["labels"]["backend"]
        for entry in snapshot["counters"]
        if entry["name"] == "repro_dispatch_total"
    }
    for backend in backends | set(stats["dispatch"]):
        pairs[f"dispatch.{backend}"] = (
            stats["dispatch"].get(backend, 0),
            counter_value(snapshot, "repro_dispatch_total", backend=backend),
        )
    server = stats["server"]
    pairs["batch_items"] = (
        server["batch_items"],
        counter_value(snapshot, "repro_batch_items_total"),
    )
    pairs["errors"] = (
        server["errors"], counter_value(snapshot, "repro_errors_total")
    )
    gauges = {entry["name"]: entry["value"] for entry in snapshot["gauges"]}
    pairs["inflight"] = (server["inflight"], gauges["repro_inflight"])
    return pairs


class TestScrapeAgreesWithStats:
    """Each count is kept once, where the work happens, and both
    ``stats`` and the ``metrics`` scrape read it there, so the two agree
    even over a registry with history from before the server."""

    def test_every_count_both_surfaces_carry_agrees(self, tmp_path):
        from repro.dtd.parser import parse_dtd
        from repro.server.client import ServerError, ValidationClient
        from repro.server.protocol import encode
        from repro.service.registry import SchemaRegistry

        # A registry that compiled one schema before the server started.
        registry = SchemaRegistry(maxsize=2)
        registry.get(parse_dtd(schema_text(60)))

        def doc(items: int) -> str:
            return "<r0>" + "<a0>x</a0>" * items + "</r0>"

        with ServerThread(
            unix_path=str(tmp_path / "pv.sock"), registry=registry,
            verdict_cache=2,
        ) as handle:
            with ValidationClient.connect_unix(handle.unix_path) as client:
                # The verdict cache misses, hits, misses and evicts.
                for items in (1, 1, 2, 3):
                    assert client.check(schema_text(0), doc(items))["ok"]
                # Three more schemas compile and evict schema 0, which
                # the batch below compiles again.
                for index in (50, 51, 52):
                    assert client.check(
                        schema_text(index), doc_text(index)
                    )["ok"]
                # A batch with a malformed item line and a bad document.
                *items, trailer = _raw_exchange(handle.unix_path, (
                    encode({"op": "check-batch", "dtd": schema_text(0),
                            "count": 3})
                    + encode({"doc": doc(1)})
                    + b"{not json\n"
                    + encode({"doc": "<r0><a0>"})
                ), 4)
                assert trailer["items"] == 3 and trailer["errors"] == 2
                for payload, code in (
                    ({"op": "check", "dtd": "<!ELEMENT", "doc": "<r/>"},
                     "bad-dtd"),
                    ({"op": "check", "dtd": schema_text(0), "doc": doc(1),
                      "algorithm": "bogus"}, "bad-request"),
                ):
                    with pytest.raises(ServerError) as info:
                        client.request(payload)
                    assert info.value.code == code
                first = client.metrics()["metrics"]
                stats = client.stats()
                second = client.metrics()["metrics"]
        pairs = shared_counts(stats, first)
        mismatched = {
            name: pair for name, pair in pairs.items() if pair[0] != pair[1]
        }
        assert not mismatched
        # The traffic moved every count but the idle ones.
        idle = {"inflight", "dispatch.machine", "dispatch.figure5",
                "dispatch.earley"}
        assert {name for name, (kept, _) in pairs.items() if not kept} == idle
        assert pairs["registry.misses"] == (6, 6)
        assert pairs["errors"] == (4, 4)
        # A second scrape moves no counter but the requests served since.
        assert [
            entry for entry in second["counters"]
            if entry["name"] != "repro_requests_total"
        ] == [
            entry for entry in first["counters"]
            if entry["name"] != "repro_requests_total"
        ]

    def test_servers_sharing_a_registry_each_scrape_its_counts(
        self, tmp_path
    ):
        from repro.server.client import ValidationClient
        from repro.service.registry import SchemaRegistry

        registry = SchemaRegistry()
        with ServerThread(
            unix_path=str(tmp_path / "first.sock"), registry=registry
        ) as first, ServerThread(
            unix_path=str(tmp_path / "second.sock"), registry=registry
        ) as second:
            with ValidationClient.connect_unix(first.unix_path) as client:
                client.check(DTD, DOC)
                client.check(DTD, DOC)
            for handle in (first, second):
                with ValidationClient.connect_unix(handle.unix_path) as client:
                    stats = client.stats()
                    snapshot = client.metrics()["metrics"]
                assert (
                    stats["registry"]["hits"], stats["registry"]["misses"]
                ) == (1, 1)
                for event, field in REGISTRY_EVENTS.items():
                    assert counter_value(
                        snapshot, "repro_registry_events_total", event=event
                    ) == stats["registry"][field]


class TestRegistryEventCounters:
    """The registry's event counts reach a server's scrape, which reads
    them where they are kept."""

    def test_registry_events_mirror_into_metrics(self):
        from repro.dtd.parser import parse_dtd
        from repro.service.registry import SchemaRegistry

        registry = SchemaRegistry(maxsize=1)
        server = ValidationServer(registry=registry)
        registry.get(parse_dtd(schema_text(0)))
        registry.get(parse_dtd(schema_text(0)))
        registry.get(parse_dtd(schema_text(1)))  # evicts schema 0
        snapshot = server.metrics.snapshot()
        events = "repro_registry_events_total"
        assert counter_value(snapshot, events, event="miss") == 2
        assert counter_value(snapshot, events, event="hit") == 1
        assert counter_value(snapshot, events, event="eviction") == 1


# -- the instrumented ring ---------------------------------------------------


class TestTracedFailover:
    def test_trace_spans_a_forced_failover(self, tmp_path):
        live = ServerThread(
            unix_path=str(tmp_path / "live.sock"), port=0
        ).start()
        live_path = live.unix_path
        dead_path = str(tmp_path / "dead.sock")
        try:
            with ShardedClient([live_path, dead_path], timeout=2.0) as ring:
                index = next(
                    i for i in range(64)
                    if member_label(
                        ring.ring.owner(ring.fingerprint(schema_text(i)))
                    ) == dead_path
                )
                reply = ring.check(
                    schema_text(index), doc_text(index), trace=True
                )
                telemetry = ring.telemetry.snapshot()
                ring_stats = ring.ring_stats
        finally:
            live.stop()
        assert reply["ok"] is True
        trace = reply["trace"]
        assert trace["failovers"] == 1
        hops = trace["hops"]
        assert [hop["member"] for hop in hops] == [dead_path, live_path]
        assert "error" in hops[0]
        assert hops[1]["span"]["op"] == "check"
        assert counter_value(telemetry, "repro_ring_failovers_total") == 1
        assert counter_value(
            telemetry, "repro_ring_reads_total", member=live_path
        ) == 1
        # The scrape reads the counts ring_stats reports.
        assert ring_stats["failovers"] == counter_value(
            telemetry, "repro_ring_failovers_total"
        )
        scraped_reads = {
            entry["labels"]["member"]: entry["value"]
            for entry in telemetry["counters"]
            if entry["name"] == "repro_ring_reads_total"
        }
        assert ring_stats["requests_by_member"] == scraped_reads

    def test_failover_and_liveness_events_are_emitted(self, tmp_path):
        lines: list[str] = []
        live = ServerThread(
            unix_path=str(tmp_path / "live.sock"), port=0
        ).start()
        dead_path = str(tmp_path / "dead.sock")
        try:
            with ShardedClient(
                [live.unix_path, dead_path], timeout=2.0,
                events=EventLog(lines.append),
            ) as ring:
                index = next(
                    i for i in range(64)
                    if member_label(
                        ring.ring.owner(ring.fingerprint(schema_text(i)))
                    ) == dead_path
                )
                ring.check(schema_text(index), doc_text(index))
        finally:
            live.stop()
        events = [json.loads(line)["event"] for line in lines]
        assert "member-down" in events
        assert "failover" in events


class TestRingMetricsAggregation:
    def test_ring_wide_scrape_merges_reachable_shards(self, tmp_path):
        shards = [
            ServerThread(
                unix_path=str(tmp_path / f"shard-{i}.sock"), port=0
            ).start()
            for i in range(2)
        ]
        dead_path = str(tmp_path / "dead.sock")
        members = [s.unix_path for s in shards] + [dead_path]
        try:
            with ShardedClient(members, timeout=2.0) as ring:
                for index in range(8):
                    ring.check(schema_text(index), doc_text(index))
                scrape = ring.metrics()
        finally:
            for shard in shards:
                shard.stop()
        assert scrape["shards"][dead_path] is None
        live_snapshots = [
            snapshot for snapshot in scrape["shards"].values()
            if snapshot is not None
        ]
        assert len(live_snapshots) == 2
        total = sum(
            counter_value(s, "repro_requests_total", op="check")
            for s in live_snapshots
        )
        merged_total = counter_value(
            scrape["merged"], "repro_requests_total", op="check"
        )
        assert merged_total == total == 8
        reads = counter_value(scrape["client"], "repro_ring_reads_total")
        assert reads == 8


# -- the CLI -----------------------------------------------------------------


class TestCliMetrics:
    def ring(self, tmp_path, count=2):
        return [
            ServerThread(
                unix_path=str(tmp_path / f"shard-{i}.sock"), port=0
            ).start()
            for i in range(count)
        ]

    def test_metrics_aggregates_ring_wide(self, tmp_path, capsys):
        from repro.server.client import ValidationClient

        shards = self.ring(tmp_path)
        try:
            with ValidationClient.connect_unix(shards[0].unix_path) as client:
                client.check(DTD, DOC)
            addrs = ",".join(s.unix_path for s in shards)
            assert main(["metrics", addrs]) == 0
            out = capsys.readouterr().out
            assert "ring: requests=" in out
            assert "latency by op:" in out
            assert main(["metrics", addrs, "--prometheus"]) == 0
            prom = capsys.readouterr().out
            assert validate_exposition(prom) > 0
            assert "repro_requests_total" in prom
        finally:
            for shard in shards:
                shard.stop()

    def test_metrics_discovers_the_ring_from_one_shard(
        self, tmp_path, capsys
    ):
        from repro.server.client import ValidationClient

        shards = self.ring(tmp_path)
        for shard in shards:
            shard.server.set_ring_view(
                1, [s.unix_path for s in shards], 2
            )
        try:
            with ValidationClient.connect_unix(shards[0].unix_path) as client:
                client.check(DTD, DOC)
            assert main(["metrics", "--discover", shards[0].unix_path]) == 0
            out = capsys.readouterr().out
            assert "ring: requests=" in out
        finally:
            for shard in shards:
                shard.stop()

    def test_metrics_exits_1_when_a_shard_is_down(self, tmp_path, capsys):
        shards = self.ring(tmp_path, count=1)
        dead = str(tmp_path / "dead.sock")
        try:
            assert main(["metrics", f"{shards[0].unix_path},{dead}"]) == 1
            captured = capsys.readouterr()
            assert "DOWN" in captured.err
            assert "ring: requests=" in captured.out  # survivors still print
        finally:
            shards[0].stop()

    def test_ring_status_metrics_flag(self, tmp_path, capsys):
        shards = self.ring(tmp_path, count=1)
        try:
            assert main(["ring-status", shards[0].unix_path, "--metrics"]) == 0
            assert "ring: requests=" in capsys.readouterr().out
        finally:
            shards[0].stop()

    def test_serve_knob_validation_is_a_usage_error(self, capsys):
        assert main(["serve", "--hot-limit", "0"]) == 2
        assert "--hot-limit" in capsys.readouterr().err
        assert main(["serve", "--slow-ms", "-5"]) == 2
        assert "--slow-ms" in capsys.readouterr().err


# -- catalog hygiene ---------------------------------------------------------


class TestCatalog:
    def test_catalog_names_are_unique(self):
        names = [spec.name for spec in CATALOG]
        assert len(names) == len(set(names))

    def test_catalog_kinds_are_valid(self):
        assert {spec.kind for spec in CATALOG} <= {
            "counter", "gauge", "histogram"
        }
