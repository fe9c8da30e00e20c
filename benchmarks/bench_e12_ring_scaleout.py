"""E12 — ring scale-out: 3 shards vs one server; schemas compile once.

The sharding claim extends E11's one-warm-process argument horizontally.
Every server here is a real ``python -m repro serve`` subprocess — the
deployment shape, not an in-process thread — so shard parallelism is OS
process parallelism.  Three measured arms over one mixed 8-schema corpus
of small editorial documents (the heavy-traffic shape where per-request
wire and schema overhead matters), every server warmed before timing:

* **sequential single** — one server, one connection, one ``check``
  round trip per document: the naive client;
* **batch single** — the same server and connection driven with the
  streaming ``check-batch`` op, one batch per schema: what the bulk op
  alone buys (the DTD crosses the wire once per corpus instead of once
  per document, and round-trip stalls vanish);
* **3-shard ring** — three servers behind a ``ShardedClient``, schema
  batches fanned out to their owning shards concurrently.

Asserted: every arm returns identical verdicts; ``check-batch`` over one
connection beats N sequential ``check`` calls; with >= 2 CPUs the ring
beats the single server (both its sequential and its batched client — on
a 1-CPU host no honest benchmark can demonstrate hardware parallelism,
so there the ring is only required to stay within 1.5x of the batched
single server, and the ratios are reported); each schema fingerprint is
compiled **at most once ring-wide** — including after a membership
change, where the replayed corpus reaches remapped shards via
``get-artifact``/``put-artifact`` hand-off (observed in the routing
client's stats) instead of recompiling.

``REPRO_BENCH_FAST=1`` shrinks the corpus for the CI smoke job.
"""

from __future__ import annotations

import os
import random

from repro.bench.harness import Table, spawn_server, stop_servers, throughput, time_callable
from repro.dtd import catalog
from repro.dtd.parser import parse_dtd
from repro.dtd.serialize import dtd_to_text
from repro.server.client import ValidationClient
from repro.server.ring import ShardedClient, ShardRing, member_label
from repro.service.compiled import schema_fingerprint
from repro.workloads.degrade import degrade
from repro.workloads.docgen import DocumentGenerator
from repro.xmlmodel.serialize import to_xml

FAST = bool(os.environ.get("REPRO_BENCH_FAST"))
#: Documents per schema (half valid, half Theorem-2 degraded).
DOCS_PER_SCHEMA = 8 if FAST else 24
#: Heavy-traffic shape: many small editorial documents, where the wire
#: and schema overhead the batch op amortizes is a real fraction.
TARGET_NODES = 12
REPEAT = 2 if FAST else 3
SHARDS = 3

#: The multi-schema workload: eight structurally distinct catalog DTDs.
SCHEMA_BUILDERS = (
    catalog.paper_figure1,
    catalog.example5_t1,
    catalog.example6_t2,
    catalog.tei_lite,
    catalog.xhtml_basic,
    catalog.docbook_article,
    catalog.play,
    catalog.dictionary,
)


def _corpus() -> list[tuple[str, str | None, list[str]]]:
    """``(dtd_text, root, docs)`` per schema, serialized for the wire."""
    batches = []
    for index, builder in enumerate(SCHEMA_BUILDERS):
        dtd = builder()
        rng = random.Random(100 + index)
        generator = DocumentGenerator(dtd, seed=100 + index)
        texts: list[str] = []
        for document in generator.documents(
            DOCS_PER_SCHEMA // 2, target_nodes=TARGET_NODES
        ):
            texts.append(to_xml(document))
            degraded, _count = degrade(document, rng, fraction=0.5)
            texts.append(to_xml(degraded))
        batches.append((dtd_to_text(dtd), dtd.root, texts))
    return batches


def _registry_misses(unix_path: str) -> int:
    with ValidationClient.connect_unix(unix_path) as client:
        return client.stats()["registry"]["misses"]


def _ring_corpus(ring: ShardedClient, batches) -> list[bool]:
    """One ring pass via ``check_corpus``, verdicts flat in corpus order."""
    results = ring.check_corpus(
        [(dtd, docs, root) for dtd, root, docs in batches]
    )
    flat: list[bool] = []
    for replies, _trailer in results:
        flat.extend(r["potentially_valid"] for r in replies)
    return flat


def _spread_shard_paths(tmp_path, batches) -> list[str]:
    """Shard socket paths whose ring placement spreads the corpus.

    Ring placement hashes the socket *path*, and the pytest tmp
    directory is random — so with small shard counts there is a tiny
    chance every schema lands on one shard, which would make the
    scale-out measurement meaningless (and flaky).  Salting the socket
    names deterministically until the owners spread keeps the benchmark
    honest about what it measures without depending on luck.
    """
    fingerprints = [
        schema_fingerprint(parse_dtd(dtd, root=root))
        for dtd, root, _docs in batches
    ]
    for salt in range(64):
        paths = [
            str(tmp_path / f"shard-{index}-{salt}.sock")
            for index in range(SHARDS)
        ]
        trial = ShardRing(paths)
        owners = {member_label(trial.owner(fp)) for fp in fingerprints}
        if len(owners) > 1:
            return paths
    raise AssertionError("no salt spread the corpus over the shards")


def test_e12_ring_scaleout(benchmark, tmp_path):
    batches = _corpus()
    total_docs = sum(len(docs) for _dtd, _root, docs in batches)
    single_path = str(tmp_path / "single.sock")
    shard_paths = _spread_shard_paths(tmp_path, batches)
    processes = [spawn_server(single_path)]
    try:
        processes.extend(spawn_server(path) for path in shard_paths)

        # -- arms 1+2: one server, sequential checks vs streaming batches ----
        with ValidationClient.connect_unix(single_path) as client:

            def sequential_run() -> list[bool]:
                return [
                    client.check(dtd, doc, root=root)["potentially_valid"]
                    for dtd, root, docs in batches
                    for doc in docs
                ]

            def batch_run() -> list[bool]:
                verdicts: list[bool] = []
                for dtd, root, docs in batches:
                    replies, _trailer = client.check_batch(dtd, docs, root=root)
                    verdicts.extend(r["potentially_valid"] for r in replies)
                return verdicts

            sequential_seconds = time_callable(
                sequential_run, repeat=REPEAT, warmup=1
            )
            sequential_verdicts = sequential_run()
            batch_seconds = time_callable(batch_run, repeat=REPEAT, warmup=1)
            batch_verdicts = batch_run()
        single_misses = _registry_misses(single_path)

        # -- arm 3: the ring, schema batches fanned out concurrently ---------
        with ShardedClient(shard_paths) as ring:
            ring_seconds = time_callable(
                lambda: _ring_corpus(ring, batches), repeat=REPEAT, warmup=1
            )
            ring_verdicts = _ring_corpus(ring, batches)
            benchmark(
                lambda: ring.check(
                    batches[0][0], batches[0][2][0], root=batches[0][1]
                )
            )
            shard_misses = [_registry_misses(path) for path in shard_paths]
            owners = {
                member_label(ring.ring.owner(ring.fingerprint(dtd, root)))
                for dtd, root, _docs in batches
            }

            # -- membership change: drop one owning shard, replay ------------
            removed = ring.ring.owner(
                ring.fingerprint(batches[0][0], batches[0][1])
            )
            ring.ring.remove(removed)
            replay_verdicts = _ring_corpus(ring, batches)
            handoffs = ring.ring_stats["handoffs"]
        final_misses = [_registry_misses(path) for path in shard_paths]
    finally:
        stop_servers(processes)

    table = Table(
        "E12: ring scale-out (8 schemas, mixed corpus, subprocess servers)",
        ["mode", "docs", "seconds", "docs/s", "speedup vs sequential"],
    )
    table.add_row(
        "single, sequential check", total_docs, sequential_seconds,
        throughput(total_docs, sequential_seconds), 1.0,
    )
    table.add_row(
        "single, check-batch", total_docs, batch_seconds,
        throughput(total_docs, batch_seconds),
        sequential_seconds / batch_seconds,
    )
    table.add_row(
        f"{SHARDS}-shard ring", total_docs, ring_seconds,
        throughput(total_docs, ring_seconds),
        sequential_seconds / ring_seconds,
    )
    table.print()
    print(f"schemas: {len(batches)}, shard owners used: {len(owners)}")
    print(f"single-server compiles: {single_misses}")
    print(f"per-shard compiles: {shard_misses} (sum {sum(shard_misses)})")
    print(f"after membership change: {final_misses} "
          f"(sum {sum(final_misses)}), handoffs: {handoffs}")

    # Every arm agrees, document by document.
    assert batch_verdicts == sequential_verdicts
    assert ring_verdicts == sequential_verdicts
    assert replay_verdicts == sequential_verdicts

    # The streaming op must beat one round trip per document on the very
    # same connection and server.
    assert batch_seconds < sequential_seconds, (
        f"check-batch ({batch_seconds:.3f}s) did not beat sequential checks "
        f"({sequential_seconds:.3f}s)"
    )

    # The scale-out bar, honest about hardware: process parallelism needs
    # processors.
    cores = os.cpu_count() or 1
    if cores >= 2:
        assert ring_seconds < sequential_seconds, (
            f"{SHARDS}-shard ring ({ring_seconds:.3f}s) did not beat the "
            f"single server's sequential client ({sequential_seconds:.3f}s)"
        )
        assert ring_seconds < batch_seconds, (
            f"{SHARDS}-shard ring ({ring_seconds:.3f}s) did not beat the "
            f"batched single server ({batch_seconds:.3f}s) on {cores} cores"
        )
    else:
        print(
            f"note: 1 CPU visible — ring speedups "
            f"({sequential_seconds / ring_seconds:.2f}x vs sequential, "
            f"{batch_seconds / ring_seconds:.2f}x vs batch) reported, "
            f"not asserted"
        )
        assert ring_seconds < 1.5 * batch_seconds, (
            f"ring overhead is pathological even for one core: "
            f"{ring_seconds:.3f}s vs {batch_seconds:.3f}s batched"
        )

    # Compile-at-most-once, ring-wide: every schema compiled on exactly
    # one shard, the corpus actually spread over shards, and the
    # membership-change replay moved artifacts instead of recompiling.
    assert single_misses == len(batches)
    assert sum(shard_misses) == len(batches)
    assert len(owners) > 1
    assert sum(final_misses) == len(batches), (
        f"membership change caused recompiles: {final_misses}"
    )
    assert handoffs >= 1
