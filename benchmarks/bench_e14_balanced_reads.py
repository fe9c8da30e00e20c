"""E14 — balanced reads: spread a hot schema over its replicas, for free.

E13 proved the replica layer loses nothing when shards die.  E14 holds
the *read* side to a throughput standard over real ``python -m repro
serve`` subprocesses: a corpus skewed onto one hot schema used to pin
that schema's every check onto its primary owner while the R-1 other
replicas sat idle.  With ``--read-policy round-robin`` the corpus
scheduler spreads the hot schema's ``check-batch`` windows across all
live owners.  Required:

* **balanced reads** — every owner of the hot schema serves a share of
  its documents, and the max/min per-replica ratio of those shares is
  bounded (primary-first, run for contrast, puts every document on one
  owner);
* **faster wall-clock** — the balanced replay beats the primary-first
  replay on >= 2 cores (each shard is its own process; spreading the
  hot schema is real parallelism), reported honestly on 1 core;
* **zero extra compiles** — spreading adds no compiles ring-wide: the
  seed window performs the one honest compile/hand-off and the fan-out
  warms every owner before windows land on them.

The three shards form one gossip ring (``--gossip-seed``,
``--replicas 2``).  ``REPRO_BENCH_FAST=1`` shrinks the corpus for the
CI smoke job.
"""

from __future__ import annotations

import os
import time

from repro.bench.harness import Table, spawn_server, stop_servers, throughput
from repro.dtd import catalog
from repro.dtd.parser import parse_dtd
from repro.dtd.serialize import dtd_to_text
from repro.server.client import ValidationClient
from repro.server.ring import ShardedClient, member_label
from repro.service.compiled import schema_fingerprint
from repro.workloads.docgen import DocumentGenerator
from repro.xmlmodel.serialize import to_xml

FAST = bool(os.environ.get("REPRO_BENCH_FAST"))
HOT_DOCS = 40 if FAST else 60
COLD_DOCS = 3 if FAST else 6
#: Large enough that the per-document verdict work (the part that
#: parallelizes across shard processes) dominates the per-item wire
#: overhead (the part that does not).
TARGET_NODES = 160
WINDOW = 4
SHARDS = 3
REPLICAS = 2
GOSSIP_INTERVAL = 0.2
CONVERGE_TIMEOUT = 30.0
#: Max/min bound on the per-replica share of the hot schema's documents.
#: Work-stealing is not an even split (a straggling window skews it),
#: but every replica must take a real share.
BALANCE_RATIO = 4.0

HOT_BUILDER = catalog.paper_figure1
COLD_BUILDERS = (catalog.example5_t1, catalog.play, catalog.dictionary)


def _documents(dtd, seed: int, count: int) -> list[str]:
    generator = DocumentGenerator(dtd, seed=seed)
    return [
        to_xml(document)
        for document in generator.documents(count, target_nodes=TARGET_NODES)
    ]


def _corpus() -> list[tuple[str, str | None, list[str]]]:
    batches = []
    hot = HOT_BUILDER()
    batches.append((dtd_to_text(hot), hot.root, _documents(hot, 1400, HOT_DOCS)))
    for index, builder in enumerate(COLD_BUILDERS):
        dtd = builder()
        batches.append(
            (dtd_to_text(dtd), dtd.root,
             _documents(dtd, 1450 + index, COLD_DOCS))
        )
    return batches


def _shard_stats(unix_path: str) -> dict:
    with ValidationClient.connect_unix(unix_path) as client:
        return client.stats()


def _await_converged(paths: list[str]) -> None:
    """Poll *paths* until every one answers ``health`` with one epoch
    over exactly *paths*."""
    expected = tuple(sorted(paths))
    deadline = time.monotonic() + CONVERGE_TIMEOUT
    seen: set = set()
    while time.monotonic() < deadline:
        seen = set()
        for path in paths:
            with ValidationClient.connect_unix(path) as client:
                reply = client.health()
            seen.add((reply["epoch"], tuple(sorted(reply["members"] or ()))))
        if len(seen) == 1 and next(iter(seen))[1] == expected:
            return
        time.sleep(0.05)
    raise AssertionError(f"ring never converged on {expected}: {seen}")


def _hot_counts(shard_paths: list[str], fingerprint: str) -> dict[str, int]:
    """Per-shard item count served for *fingerprint* (from `hot` stats)."""
    counts: dict[str, int] = {}
    for path in shard_paths:
        stats = _shard_stats(path)
        counts[path] = dict(
            (fp, count) for fp, count in stats.get("hot") or []
        ).get(fingerprint, 0)
    return counts


def _verdicts(results) -> list[bool]:
    flat: list[bool] = []
    for replies, _trailer in results:
        assert replies is not None
        flat.extend(reply["potentially_valid"] for reply in replies)
    return flat


def test_e14_balanced_reads(benchmark, tmp_path):
    batches = _corpus()
    corpus = [(dtd, docs, root) for dtd, root, docs in batches]
    total_docs = sum(len(docs) for _dtd, _root, docs in batches)
    hot_fingerprint = schema_fingerprint(
        parse_dtd(batches[0][0], root=batches[0][1])
    )
    shard_paths = [str(tmp_path / f"shard-{i}.sock") for i in range(SHARDS)]
    # Every shard joins the ring of the others by gossip.
    processes = [
        spawn_server(
            path, "--replicas", str(REPLICAS),
            "--gossip-interval", str(GOSSIP_INTERVAL),
            "--gossip-seed", ",".join(p for p in shard_paths if p != path),
        )
        for path in shard_paths
    ]
    try:
        _await_converged(shard_paths)
        with ShardedClient(shard_paths, replica_count=REPLICAS) as ring:
            hot_owners = [
                member_label(m) for m in ring.ring.owners(hot_fingerprint)
            ]
            # -- phase 1: warm the ring (compile once, fan out) --------------
            baseline = _verdicts(ring.check_corpus(corpus))
            compiles_after_warm = sum(
                _shard_stats(path)["registry"]["misses"]
                for path in shard_paths
            )

            # -- phase 2: primary-first replay (the old placement) -----------
            before_pf = _hot_counts(shard_paths, hot_fingerprint)
            pf_started = time.perf_counter()
            pf_results = ring.check_corpus(corpus)
            pf_seconds = time.perf_counter() - pf_started
            after_pf = _hot_counts(shard_paths, hot_fingerprint)
            pf_share = {
                path: after_pf[path] - before_pf[path] for path in shard_paths
            }

            # -- phase 3: balanced replay (round-robin windows) --------------
            balanced_started = time.perf_counter()
            balanced_results = ring.check_corpus(
                corpus, read_policy="round-robin", window=WINDOW
            )
            balanced_seconds = time.perf_counter() - balanced_started
            after_balanced = _hot_counts(shard_paths, hot_fingerprint)
            balanced_share = {
                path: after_balanced[path] - after_pf[path]
                for path in shard_paths
            }
            compiles_final = sum(
                _shard_stats(path)["registry"]["misses"]
                for path in shard_paths
            )
            ring_stats = ring.ring_stats
            benchmark(
                lambda: ring.check(
                    batches[0][0], batches[0][2][0], root=batches[0][1]
                )
            )
    finally:
        stop_servers(processes)

    owner_shares = [balanced_share[owner] for owner in hot_owners]
    table = Table(
        "E14: balanced reads (3-shard ring, R=2, hot-skewed corpus)",
        ["phase", "docs", "seconds", "docs/s", "hot spread (per owner)"],
    )
    table.add_row(
        "primary-first replay", total_docs, pf_seconds,
        throughput(total_docs, pf_seconds),
        "/".join(str(pf_share[owner]) for owner in hot_owners),
    )
    table.add_row(
        "round-robin replay", total_docs, balanced_seconds,
        throughput(total_docs, balanced_seconds),
        "/".join(str(share) for share in owner_shares),
    )
    table.print()
    print(
        f"hot schema owners: {hot_owners}; compiles ring-wide: "
        f"{compiles_after_warm} after warm, {compiles_final} final; "
        f"policy: {ring_stats['read_policy']}, "
        f"handoffs: {ring_stats['handoffs']}"
    )

    # Correctness first: both replays reproduce the warm baseline.
    assert _verdicts(pf_results) == baseline
    assert _verdicts(balanced_results) == baseline

    # Compile-once: the warm corpus compiled each schema exactly once
    # ring-wide, and neither replay — balanced spreading included —
    # added a single compile.
    assert compiles_after_warm == len(batches), (
        f"warm ring compiled {compiles_after_warm} != {len(batches)} schemas"
    )
    assert compiles_final == compiles_after_warm, (
        f"replays added {compiles_final - compiles_after_warm} compile(s)"
    )

    # Primary-first pinned the hot schema to exactly one owner...
    assert sorted(pf_share.values(), reverse=True)[1:] == [0] * (SHARDS - 1), (
        f"primary-first spread the hot schema: {pf_share}"
    )
    # ...while the balanced replay put a real, bounded share on every
    # replica (and nothing on non-replicas).
    assert all(share > 0 for share in owner_shares), (
        f"an owner served nothing under round-robin: {balanced_share}"
    )
    assert max(owner_shares) / min(owner_shares) <= BALANCE_RATIO, (
        f"per-replica load ratio unbounded: {balanced_share}"
    )
    for path in shard_paths:
        if path not in hot_owners:
            assert balanced_share[path] == 0

    # The point of it all: spreading the hot schema's windows over two
    # server processes is real parallelism on multi-core hardware.
    cores = os.cpu_count() or 1
    if cores >= 2:
        assert balanced_seconds < pf_seconds, (
            f"round-robin ({balanced_seconds:.3f}s) not faster than "
            f"primary-first ({pf_seconds:.3f}s) on {cores} cores"
        )
    else:  # pragma: no cover - single-core CI runners
        print(
            f"single core: balanced {balanced_seconds:.3f}s vs "
            f"primary-first {pf_seconds:.3f}s reported, not asserted"
        )
