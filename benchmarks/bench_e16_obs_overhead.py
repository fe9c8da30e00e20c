"""E16 — observability overhead: the instrumented server within 5%.

The observability layer (:mod:`repro.obs`) instruments every request the
server handles: per-op counters, per-phase and per-backend latency
histograms, inflight gauges.  Its claim is that with tracing off this
costs nearly nothing — a count some object already keeps is read at
scrape time, and the rest go through pre-resolved metric handles, so
the steady-state price of a counted request is a few lock acquires and
adds.  This benchmark puts a number on "nearly":
the same corpora as E15 (the E1 degraded size sweep plus the E10
editorial corpus), streamed over ``check-batch`` through two identically
configured servers —

* **instrumented** — the default ``ValidationServer()``, full metrics;
* **stripped** — ``metrics=MetricsRegistry(enabled=False)``, which hands
  every instrument site a shared no-op object (same code path, dead
  instruments).

Both arms run interleaved, best-of-rounds (E15's measurement discipline:
shared-runner noise hits both arms of a round equally), and the bar is
``instrumented / stripped <= 1.05`` in aggregate.  Verdicts must agree
document-for-document, the instrumented scrape must actually have
counted the traffic, and the stripped scrape must be empty — a bench
that quietly measured two stripped servers would prove nothing.

``REPRO_BENCH_FAST=1`` shrinks the corpora for the CI smoke job and
relaxes the bar: with sub-millisecond rounds the socket jitter alone
exceeds 5%.
"""

from __future__ import annotations

import os
import random

from repro.bench.harness import Table, interleaved_best, throughput
from repro.bench.scenarios import degraded_document
from repro.dtd.serialize import dtd_to_text
from repro.obs.metrics import MetricsRegistry, counter_value
from repro.server.client import ValidationClient
from repro.server.server import ServerThread, ValidationServer
from repro.workloads.degrade import degrade
from repro.workloads.docgen import DocumentGenerator
from repro.xmlmodel.serialize import to_xml

FAST = bool(os.environ.get("REPRO_BENCH_FAST"))
#: The E1 sweep sizes and E10 corpus shape, as in E15.
SIZES = (100, 200, 400) if FAST else (100, 200, 400, 800, 1600)
DOC_COUNT = 12 if FAST else 60
TARGET_NODES = 12 if FAST else 16
ROUNDS = 3 if FAST else 5
#: The acceptance bar: instrumented wall clock over stripped wall clock.
#: The FAST corpora finish in fractions of a millisecond per document,
#: where scheduler jitter swamps the instruments' few lock acquires.
MAX_OVERHEAD = 1.25 if FAST else 1.05


def _corpus(dtd) -> list[str]:
    """The E15 corpora — E1 size sweep plus E10 editorial mix — as text."""
    texts = [to_xml(degraded_document(dtd, size)) for size in SIZES]
    rng = random.Random(7)
    generator = DocumentGenerator(dtd, seed=7)
    for document in generator.documents(DOC_COUNT // 2, target_nodes=TARGET_NODES):
        texts.append(to_xml(document))
        degraded, _count = degrade(document, rng, fraction=0.5)
        texts.append(to_xml(degraded))
    return texts


def test_e16_obs_overhead(benchmark, manuscript_dtd, tmp_path):
    dtd_text = dtd_to_text(manuscript_dtd)
    root = manuscript_dtd.root
    texts = _corpus(manuscript_dtd)

    stripped_server = ValidationServer(metrics=MetricsRegistry(enabled=False))
    with ServerThread(
        unix_path=str(tmp_path / "e16-on.sock")
    ) as instrumented, ServerThread(
        stripped_server, unix_path=str(tmp_path / "e16-off.sock")
    ) as stripped:
        with ValidationClient.connect_unix(
            instrumented.unix_path
        ) as on_client, ValidationClient.connect_unix(
            stripped.unix_path
        ) as off_client:

            def drive(client) -> list[bool]:
                replies, trailer = client.check_batch(dtd_text, texts, root=root)
                assert trailer["errors"] == 0
                return [reply["potentially_valid"] for reply in replies]

            # Verdict identity first: an instrument that changed answers
            # would make the timing comparison meaningless.
            assert drive(on_client) == drive(off_client)

            best = interleaved_best(
                {
                    "instrumented": lambda: drive(on_client),
                    "stripped": lambda: drive(off_client),
                },
                rounds=ROUNDS,
            )

            on_snapshot = on_client.metrics()["metrics"]
            off_snapshot = off_client.metrics()["metrics"]
            benchmark(lambda: drive(on_client))

    # The instruments were live on one arm and dead on the other.
    assert counter_value(on_snapshot, "repro_batch_items_total") >= len(texts)
    assert counter_value(on_snapshot, "repro_dispatch_total") >= len(texts)
    assert off_snapshot == {"counters": [], "gauges": [], "histograms": []}

    overhead = best["instrumented"] / best["stripped"]
    table = Table(
        "E16: observability overhead (check-batch, manuscript DTD)",
        ["arm", "docs", "seconds", "docs/s", "vs stripped"],
    )
    table.add_row("stripped", len(texts), best["stripped"],
                  throughput(len(texts), best["stripped"]), 1.0)
    table.add_row("instrumented", len(texts), best["instrumented"],
                  throughput(len(texts), best["instrumented"]), overhead)
    table.print()

    assert overhead <= MAX_OVERHEAD, (
        f"instrumented server is {overhead:.3f}x the stripped one "
        f"(allowed {MAX_OVERHEAD}x)"
    )
