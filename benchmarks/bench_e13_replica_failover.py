"""E13 — replica failover: kill a shard, lose nothing; join a shard, warm.

E12 showed the ring scales throughput while compiling each schema once.
E13 holds the **availability** layer to the same standard over real
``python -m repro serve`` subprocesses:

* **replica fan-out** — a 3-shard ring at ``replica_count=2`` warms an
  8-schema corpus; every compiled artifact must end up on both of its
  owners (one compile + one hand-off each, never two compiles);
* **kill one shard mid-corpus** — the primary owner of a measured
  schema is SIGKILLed halfway through a corpus replay.  Required: **zero
  failed checks** (every document still gets its verdict, identical to
  the baseline) and **zero recompiles** (the surviving replicas answer
  from fanned-out artifacts; their registry miss counters do not move);
* **add one shard** — a fourth server joins by ``--gossip-seed``; its
  gossip agent prefetches the joiner's hottest owned fingerprints
  *before* it announces itself.  Required: the joiner serves its first
  routed request from a **prefetched** artifact — 0 compiles on join
  (its miss counter stays 0 through traffic).

The ring is real ``python -m repro serve`` subprocesses, one per shard,
joined into one gossip ring by ``--gossip-seed`` with ``--replicas 2``;
membership and epochs come from their gossip agents alone.
``REPRO_BENCH_FAST=1`` shrinks the corpus for the CI smoke job.
"""

from __future__ import annotations

import os
import random
import signal
import time

from repro.bench.harness import Table, spawn_server, stop_servers, throughput
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
DOCS_PER_SCHEMA = 6 if FAST else 16
TARGET_NODES = 12
SHARDS = 3
REPLICAS = 2
#: Fast gossip so down-detection and joins fit a CI-sized timeout.
GOSSIP_INTERVAL = 0.2
CONVERGE_TIMEOUT = 30.0

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
    batches = []
    for index, builder in enumerate(SCHEMA_BUILDERS):
        dtd = builder()
        rng = random.Random(300 + index)
        generator = DocumentGenerator(dtd, seed=300 + index)
        texts: list[str] = []
        for document in generator.documents(
            DOCS_PER_SCHEMA // 2, target_nodes=TARGET_NODES
        ):
            texts.append(to_xml(document))
            degraded, _count = degrade(document, rng, fraction=0.5)
            texts.append(to_xml(degraded))
        batches.append((dtd_to_text(dtd), dtd.root, texts))
    return batches


def _registry(unix_path: str) -> dict:
    with ValidationClient.connect_unix(unix_path) as client:
        return client.stats()["registry"]


def _registry_misses(unix_path: str) -> int:
    return _registry(unix_path)["misses"]


def _await_converged(paths: list[str]) -> int:
    """Poll *paths* until every one answers ``health`` with one epoch
    over exactly *paths*; returns that epoch."""
    expected = tuple(sorted(paths))
    deadline = time.monotonic() + CONVERGE_TIMEOUT
    seen: set = set()
    while time.monotonic() < deadline:
        seen = set()
        for path in paths:
            try:
                with ValidationClient.connect_unix(path) as client:
                    reply = client.health()
            except OSError:
                seen.add(None)
                continue
            seen.add((reply["epoch"], tuple(sorted(reply["members"] or ()))))
        if len(seen) == 1:
            [view] = seen
            if view is not None and view[0] is not None and view[1] == expected:
                return view[0]
        time.sleep(0.05)
    raise AssertionError(f"ring never converged on {expected}: {seen}")


def _pick_paths(tmp_path, fingerprints) -> tuple[list[str], str]:
    """Shard paths that spread the corpus, plus a joiner that will own
    at least one schema — salted deterministically so the measured
    scenario (a kill on an owner; a join that takes traffic) always
    exists regardless of the random tmp directory."""
    for salt in range(128):
        paths = [
            str(tmp_path / f"shard-{index}-{salt}.sock")
            for index in range(SHARDS)
        ]
        ring = ShardRing(paths, replica_count=REPLICAS)
        owners = {member_label(ring.owner(fp)) for fp in fingerprints}
        if len(owners) <= 1:
            continue
        for joiner_salt in range(128):
            joiner = str(tmp_path / f"joiner-{joiner_salt}.sock")
            grown = ShardRing([*paths, joiner], replica_count=REPLICAS)
            if any(
                member_label(grown.owner(fp)) == joiner for fp in fingerprints
            ):
                return paths, joiner
    raise AssertionError("no salt produced a usable topology")


def test_e13_replica_failover(benchmark, tmp_path):
    batches = _corpus()
    total_docs = sum(len(docs) for _dtd, _root, docs in batches)
    fingerprints = [
        schema_fingerprint(parse_dtd(dtd, root=root))
        for dtd, root, _docs in batches
    ]
    shard_paths, joiner_path = _pick_paths(tmp_path, fingerprints)
    # Every shard joins the ring of the others by gossip.
    flags = ("--replicas", str(REPLICAS), "--gossip-interval", str(GOSSIP_INTERVAL))
    processes = [
        spawn_server(
            path, *flags,
            "--gossip-seed", ",".join(p for p in shard_paths if p != path),
        )
        for path in shard_paths
    ]
    try:
        _await_converged(shard_paths)
        with ShardedClient(shard_paths, replica_count=REPLICAS) as ring:
            # -- phase 1: warm the ring (one compile per schema, fan-out) -----
            warm_started = time.perf_counter()
            baseline: list[bool] = []
            for dtd, root, docs in batches:
                replies, _trailer = ring.check_batch(dtd, docs, root=root)
                baseline.extend(r["potentially_valid"] for r in replies)
            warm_seconds = time.perf_counter() - warm_started
            compiles_after_warm = sum(
                _registry_misses(path) for path in shard_paths
            )
            benchmark(
                lambda: ring.check(
                    batches[0][0], batches[0][2][0], root=batches[0][1]
                )
            )

            # -- phase 2: SIGKILL the primary of a measured schema -----------
            victim = member_label(ring.ring.owner(fingerprints[0]))
            victim_index = shard_paths.index(victim)
            survivors = [
                path for path in shard_paths if path != victim
            ]
            survivor_misses_before = {
                path: _registry_misses(path) for path in survivors
            }
            kill_at = len(batches) // 2
            failed_checks = 0
            replay: list[bool] = []
            replay_started = time.perf_counter()
            for index, (dtd, root, docs) in enumerate(batches):
                if index == kill_at:
                    processes[victim_index].send_signal(signal.SIGKILL)
                    processes[victim_index].wait(timeout=10)
                for doc in docs:
                    try:
                        reply = ring.check(dtd, doc, root=root)
                    except Exception:  # noqa: BLE001 - counted, not raised
                        failed_checks += 1
                        replay.append(None)  # type: ignore[arg-type]
                        continue
                    replay.append(reply["potentially_valid"])
            replay_seconds = time.perf_counter() - replay_started
            survivor_misses_after = {
                path: _registry_misses(path) for path in survivors
            }
            recompiles = sum(
                survivor_misses_after[path] - survivor_misses_before[path]
                for path in survivors
            )

            # -- phase 3: join a prefetched shard ----------------------------
            # The survivors' gossip drops the victim; the joiner then
            # prefetches from them and announces itself, and every live
            # member agrees on one epoch before any traffic.
            _await_converged(survivors)
            processes.append(
                spawn_server(joiner_path, *flags, "--gossip-seed", ",".join(survivors))
            )
            _await_converged([*survivors, joiner_path])
            joined = _registry(joiner_path)
            prefetched = joined["size"]
            joiner_misses_at_join = joined["misses"]
            join_verdicts: list[bool] = []
            for dtd, root, docs in batches:
                reply = ring.check(dtd, docs[0], root=root)
                join_verdicts.append(reply["potentially_valid"])
            joiner_misses_after_traffic = _registry_misses(joiner_path)
            joiner_requests = 0
            with ValidationClient.connect_unix(joiner_path) as client:
                joiner_requests = client.stats()["server"]["requests"]
            ring_stats = ring.ring_stats
    finally:
        stop_servers(processes)

    table = Table(
        "E13: replica failover (3-shard ring, R=2, subprocess servers)",
        ["phase", "docs", "seconds", "docs/s", "failed checks", "recompiles"],
    )
    table.add_row(
        "warm (cold ring)", total_docs, warm_seconds,
        throughput(total_docs, warm_seconds), 0, compiles_after_warm,
    )
    table.add_row(
        "replay + SIGKILL owner", total_docs, replay_seconds,
        throughput(total_docs, replay_seconds), failed_checks, recompiles,
    )
    table.print()
    print(f"handoffs: {ring_stats['handoffs']} "
          f"({ring_stats['handoff_bytes']} bytes), "
          f"failovers: {ring_stats['failovers']}, "
          f"epoch: {ring_stats['epoch']}")
    print(f"join: prefetched {prefetched} artifact(s); joiner compiles "
          f"at join {joiner_misses_at_join}, after traffic "
          f"{joiner_misses_after_traffic} (requests served: "
          f"{joiner_requests})")

    # Phase 1: one compile per schema ring-wide, despite R=2 owners each.
    assert compiles_after_warm == len(batches), (
        f"warm ring compiled {compiles_after_warm} != {len(batches)} schemas"
    )

    # Phase 2: the kill lost nothing — every check answered, identically,
    # and the survivors recompiled nothing (their replicas were warm).
    assert failed_checks == 0
    assert replay == baseline
    assert recompiles == 0, (
        f"killing {victim} caused {recompiles} recompile(s) on survivors"
    )
    # Recovery took one of two documented paths (timing decides which):
    # the client tripped on the dead socket and failed over, or the
    # survivors' gossip minted an epoch that re-resolved placement first.
    assert ring_stats["failovers"] >= 1 or ring_stats["epoch_refreshes"] >= 1

    # Phase 3: the joiner took traffic without ever compiling — its hot
    # set arrived by prefetch before it announced itself.
    assert prefetched >= 1
    assert joiner_misses_at_join == 0
    assert joiner_misses_after_traffic == 0, (
        "the joining shard compiled despite prefetch"
    )
    assert all(join_verdicts[i] == baseline[sum(
        len(docs) for _d, _r, docs in batches[:i]
    )] for i in range(len(batches)))
    assert joiner_requests >= 1, (
        "the joiner never served a request — placement salt failed"
    )
