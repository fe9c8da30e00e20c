"""E17 — chaos: kill a shard mid-corpus, lose nothing.

E14 proved balanced reads; E13 proved replica failover.  E17 holds the
ring's one control plane — the shards' own gossip agents — to the
standard that motivated it: the ring must not care who dies, and
``least-inflight`` must balance on load the servers report, not on
client-local counters:

* **shard SIGKILLed mid-corpus** — the survivors' gossip agents
  suspect, confirm, and mint a new epoch that drops the victim, the
  client routes around it, and **zero checks are lost**: every replay
  reproduces the warm baseline verdicts exactly;
* **bounded skew on server truth** — under ``least-inflight`` fed by
  server-reported ``inflight``/``queue_depth`` stamps, the hot schema's
  windows spread over its owners within a max/min ratio of
  ``BALANCE_RATIO`` (a client-counter-only control run — the pre-gossip
  behavior — is measured alongside for contrast).

The ring is three real ``python -m repro serve`` subprocesses, each
running its own gossip agent seeded with the other two and started with
``--replicas 2 --read-policy least-inflight``, so SIGKILL means
SIGKILL.  ``REPRO_BENCH_FAST=1`` shrinks the corpus for the CI smoke
job.
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
HOT_DOCS = 64 if FAST else 96
COLD_DOCS = 3 if FAST else 6
#: Large enough that per-document verdict work dominates wire overhead.
TARGET_NODES = 160
SHARDS = 3
REPLICAS = 2
#: Max/min bound on the per-owner share of the hot schema's documents
#: (the E14 bound): scheduling is not an even split, but every live
#: owner must take a real share.
BALANCE_RATIO = 4.0
#: Fast gossip so suspect -> down -> mint fits a CI-sized timeout.
GOSSIP_INTERVAL = 0.2
CONVERGE_TIMEOUT = 30.0

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
    batches.append((dtd_to_text(hot), hot.root, _documents(hot, 1700, HOT_DOCS)))
    for index, builder in enumerate(COLD_BUILDERS):
        dtd = builder()
        batches.append(
            (dtd_to_text(dtd), dtd.root,
             _documents(dtd, 1750 + index, COLD_DOCS))
        )
    return batches


def _health(unix_path: str) -> dict:
    with ValidationClient.connect_unix(unix_path) as client:
        return client.health()


def _await_converged(
    paths: list[str], expect_members: list[str],
    timeout: float = CONVERGE_TIMEOUT,
) -> int:
    """Poll *paths* until every one answers ``health`` with the same
    epoch over exactly *expect_members*; returns the converged epoch."""
    expected = tuple(sorted(expect_members))
    deadline = time.monotonic() + timeout
    seen: dict[str, tuple | None] = {}
    while time.monotonic() < deadline:
        seen = {}
        for path in paths:
            try:
                reply = _health(path)
            except OSError:
                seen[path] = None
                continue
            seen[path] = (
                reply.get("epoch"),
                tuple(sorted(reply.get("members") or ())),
            )
        views = set(seen.values())
        if len(views) == 1:
            view = next(iter(views))
            if view is not None and view[0] is not None and view[1] == expected:
                return view[0]
        time.sleep(0.1)
    raise AssertionError(f"ring never converged on {expected}: {seen}")


def _hot_counts(shard_paths: list[str], fingerprint: str) -> dict[str, int]:
    """Per-shard item count served for *fingerprint* (from `hot` stats)."""
    counts: dict[str, int] = {}
    for path in shard_paths:
        with ValidationClient.connect_unix(path) as client:
            stats = client.stats()
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


def _batch_verdicts(replies) -> list[bool]:
    return [reply["potentially_valid"] for reply in replies]


def _ratio(share: dict[str, int], owners: list[str]) -> float:
    shares = [share[owner] for owner in owners]
    return max(shares) / min(shares) if min(shares) else float("inf")


def test_e17_chaos(benchmark, tmp_path):
    batches = _corpus()
    corpus = [(dtd, docs, root) for dtd, root, docs in batches]
    hot_dtd, hot_root, hot_docs = batches[0]
    half = len(hot_docs) // 2
    hot_fingerprint = schema_fingerprint(parse_dtd(hot_dtd, root=hot_root))
    shard_paths = [str(tmp_path / f"shard-{i}.sock") for i in range(SHARDS)]
    # Every shard joins the ring of the others by gossip.
    processes = {
        path: spawn_server(
            path, "--replicas", str(REPLICAS), "--read-policy", "least-inflight",
            "--gossip-interval", str(GOSSIP_INTERVAL),
            "--gossip-seed", ",".join(p for p in shard_paths if p != path),
        )
        for path in shard_paths
    }
    table = Table(
        "E17: chaos (3-shard gossip ring, R=2, least-inflight)",
        ["phase", "docs", "seconds", "docs/s", "notes"],
    )
    try:
        epoch_initial = _await_converged(shard_paths, shard_paths)
        with ShardedClient(
            shard_paths, replica_count=REPLICAS, read_policy="least-inflight"
        ) as ring:
            hot_owners = [
                member_label(m) for m in ring.ring.owners(hot_fingerprint)
            ]
            victim = hot_owners[-1]
            survivors = [p for p in shard_paths if p != victim]

            # -- warm: compile once ring-wide, fix the baseline verdicts
            baseline_results = ring.check_corpus(corpus)
            baseline = _verdicts(baseline_results)
            hot_expected = _batch_verdicts(baseline_results[0][0])

            # -- phase 1: hot replay balanced on server-reported truth
            before = _hot_counts(shard_paths, hot_fingerprint)
            started = time.perf_counter()
            replies, _trailer = ring.check_batch(
                hot_dtd, hot_docs, root=hot_root
            )
            truth_seconds = time.perf_counter() - started
            truth_verdicts = _batch_verdicts(replies)
            fresh_reports = [
                owner for owner in hot_owners
                if ring.router.reported_load(owner) is not None
            ]
            after_truth = _hot_counts(shard_paths, hot_fingerprint)
            truth_share = {
                path: after_truth[path] - before[path] for path in shard_paths
            }

            # -- phase 2: same replay on client-local counters only (the
            # pre-gossip behavior), as the control
            ring.router.prefer_reported = False
            started = time.perf_counter()
            replies, _trailer = ring.check_batch(
                hot_dtd, hot_docs, root=hot_root
            )
            control_seconds = time.perf_counter() - started
            control_verdicts = _batch_verdicts(replies)
            ring.router.prefer_reported = True
            after_control = _hot_counts(shard_paths, hot_fingerprint)
            control_share = {
                path: after_control[path] - after_truth[path]
                for path in shard_paths
            }

            # -- phase 3: SIGKILL a hot-schema owner mid-corpus
            started = time.perf_counter()
            first, _trailer = ring.check_batch(
                hot_dtd, hot_docs[:half], root=hot_root
            )
            processes[victim].kill()
            processes[victim].wait(timeout=10)
            second, _trailer = ring.check_batch(
                hot_dtd, hot_docs[half:], root=hot_root
            )
            chaos_results = ring.check_corpus(corpus)
            chaos_seconds = time.perf_counter() - started
            chaos_verdicts = _batch_verdicts(first) + _batch_verdicts(second)
            epoch_final = _await_converged(survivors, survivors)
            down_after_chaos = ring.ring_stats["down"]

            benchmark(
                lambda: ring.check(hot_dtd, hot_docs[0], root=hot_root)
            )
    finally:
        stop_servers(processes.values())

    total_docs = sum(len(docs) for _dtd, _root, docs in batches)
    chaos_docs = len(hot_docs) + total_docs
    table.add_row(
        "server-truth replay", len(hot_docs), truth_seconds,
        throughput(len(hot_docs), truth_seconds),
        "hot share " + "/".join(
            str(truth_share[owner]) for owner in hot_owners
        ),
    )
    table.add_row(
        "client-counter control", len(hot_docs), control_seconds,
        throughput(len(hot_docs), control_seconds),
        "hot share " + "/".join(
            str(control_share[owner]) for owner in hot_owners
        ),
    )
    table.add_row(
        "owner SIGKILL", chaos_docs, chaos_seconds,
        throughput(chaos_docs, chaos_seconds),
        f"epoch {epoch_final}, {len(survivors)} survivors",
    )
    table.print()
    print(
        f"hot owners: {hot_owners}; victim: {victim}; epochs: "
        f"{epoch_initial} initial -> {epoch_final} after shard death; skew "
        f"{_ratio(truth_share, hot_owners):.2f} server-truth vs "
        f"{_ratio(control_share, hot_owners):.2f} control; "
        f"client marked down: {down_after_chaos}"
    )

    # Zero lost checks: every replay — balanced, and with an owner dying
    # mid-batch — reproduces the warm baseline.
    assert truth_verdicts == hot_expected
    assert control_verdicts == hot_expected
    assert chaos_verdicts == hot_expected
    assert _verdicts(chaos_results) == baseline

    # The server-truth balancer had real reports to act on (otherwise
    # phase 2 is not a control), and it spread the hot schema's windows
    # over every owner within the E14 bound, touching no non-owner.
    assert fresh_reports, "no server-reported load reached the router"
    assert all(truth_share[owner] > 0 for owner in hot_owners), (
        f"an owner served nothing under server truth: {truth_share}"
    )
    assert _ratio(truth_share, hot_owners) <= BALANCE_RATIO, (
        f"per-replica skew unbounded on server truth: {truth_share}"
    )
    for path in shard_paths:
        if path not in hot_owners:
            assert truth_share[path] == 0

    # Killing a shard was *detected by the shards themselves*: the
    # survivors minted a strictly newer epoch whose view excludes the
    # victim (asserted inside _await_converged), and the client routed
    # around the death.
    assert epoch_final > epoch_initial
    assert victim in down_after_chaos
