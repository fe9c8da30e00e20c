"""Command-line interface: ``python -m repro <command> ...``.

Nine commands wrap the library for shell use:

``classify SCHEMA.dtd``
    Print the Definition 6-8 classification report of a DTD.

``validate SCHEMA.dtd DOC.xml``
    Standard validation (``D(T, r)`` membership) with per-node issues.

``check SCHEMA.dtd DOC.xml``
    Potential-validity check (Problem PV) with per-node failures — the
    editor-facing verdict: can this document still be completed?

``complete SCHEMA.dtd DOC.xml``
    Compute a valid extension (Definition 2) and print it, or explain why
    none exists.

``batch SCHEMA.dtd DOC.xml [DOC.xml ...]``
    Compile the schema once and check a whole corpus, optionally over a
    worker pool (``--workers N``); prints one verdict per document plus
    aggregate throughput statistics.  With ``--ring ADDR[,ADDR...]`` the
    corpus is instead streamed (``check-batch`` ops) to the owning
    shards of a validation-server ring; ``--read-policy`` picks how the
    documents spread over a schema's live replicas (``primary-first``
    pins them to the primary, ``round-robin`` / ``least-inflight``
    spread windows over all R owners).  With ``--ring``, ``--admission
    on`` turns on the client-side coarse filter, so documents the
    schema's coarse summary decides definitely never cross the wire.

``profile SCHEMA.dtd DOC.xml [DOC.xml ...]``
    Run a ``check`` or ``batch`` workload under :mod:`cProfile` and
    print the top-N functions by cumulative time — the first stop when
    a corpus checks slower than expected.  ``--mode batch`` profiles
    the batch pipeline instead of per-document checks; ``--repeat R``
    re-runs the workload R times so short corpora produce stable
    profiles.

``serve``
    Run the long-lived NDJSON validation server (TCP and/or a Unix
    socket) over one warm schema registry; verdicts run on the server's
    threads, so more cores take more shard processes.  ``--ring N``
    starts a local ring of N shard servers (consecutive ports / suffixed
    socket paths, one registry each) for development and
    smoke testing of the sharded topology; every shard of a ring runs a
    SWIM-style gossip agent, the ring's one control plane (probe,
    suspect, refute, confirm down, mint epochs), starting from a view
    at epoch 1 that lists every shard.  ``--gossip-seed ADDR`` joins
    this server to a running ring instead: its agent prefetches the
    hottest artifacts it will own, then announces itself.  Every shard
    of a ring takes the same ``--replicas R`` (each schema is owned by
    R shards, so clients read from any of them) and ``--read-policy``
    (advertised to clients that name none).  ``--verdict-cache N``
    memoizes up to N verdicts per shard keyed by content digest; repeat
    documents are answered without parsing, the replies stamped
    ``"cached": true``.

``ring-status ADDR[,ADDR...]``
    Probe every shard of a running ring with the ``health`` op and print
    a liveness/epoch/traffic table; exits 0 when all shards answer, 1
    when any is down.  ``--metrics`` additionally scrapes each shard's
    ``metrics`` op and prints the ring-wide aggregate.  Instead of
    listing every ADDR, ``--discover ADDR`` bootstraps the member list
    from any one live shard's view.

``metrics ADDR[,ADDR...]``
    Scrape every shard's ``metrics`` op and print ring-wide aggregates:
    counters summed, latency histograms merged, with p50/p90/p99 per op
    and per verdict backend.  ``--prometheus`` prints the merged
    snapshot as Prometheus text exposition instead.  Exits 1 when any
    shard is down (the aggregate over the survivors still prints).
    ``--discover ADDR`` bootstraps the member list like ``ring-status``.

Exit status: 0 for "yes" verdicts (and clean service runs), 1 for "no"
verdicts and runtime failures (a port that will not bind, an event log
that will not open), 2 for usage/parse errors.  ``main`` always *returns*
the status — argparse's ``SystemExit`` on bad usage is caught and
converted — so embedding callers never have to trap exits.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.core.classify import classify_dtd
from repro.core.completion import CompletionError, complete_document
from repro.dtd.model import DTD
from repro.dtd.parser import parse_dtd
from repro.errors import ReproError
from repro.service.batch import BatchChecker
from repro.service.dispatch import check_text
from repro.service.registry import DEFAULT_REGISTRY
from repro.validity.validator import DTDValidator
from repro.xmlmodel.parser import parse_xml
from repro.xmlmodel.serialize import to_xml
from repro.xmlmodel.tree import XmlDocument

__all__ = ["main"]

#: Usage/parse errors exit with this status (mirrors argparse's own code).
USAGE_ERROR = 2

#: Runtime failures (bind errors, unwritable event logs) exit with this status.
RUNTIME_ERROR = 1

_ALGORITHMS = ("machine", "kernel", "figure5", "earley", "auto")

# Mirrors repro.server.protocol.READ_POLICIES without importing the
# server stack at CLI-parse time (a test keeps the two in lockstep).
_READ_POLICIES = ("primary-first", "round-robin", "least-inflight")


def _version() -> str:
    """The installed distribution version, or the source tree's fallback."""
    try:
        from importlib.metadata import version

        return version("repro-pv")
    except Exception:
        from repro import __version__

        return __version__


def _load_dtd(path: str, root: str | None) -> DTD:
    return parse_dtd(Path(path).read_text(), root=root, name=Path(path).stem)


def _load_document(path: str) -> XmlDocument:
    return parse_xml(Path(path).read_text())


def _cmd_classify(args: argparse.Namespace) -> int:
    report = classify_dtd(_load_dtd(args.schema, args.root))
    print(report.summary())
    if report.recursive_elements:
        print(f"  recursive elements: {', '.join(report.recursive_elements)}")
    if report.strong_recursive_elements:
        print(
            "  PV-strong recursive elements: "
            f"{', '.join(report.strong_recursive_elements)}"
        )
    if report.unusable_elements:
        print(f"  unusable elements: {', '.join(report.unusable_elements)}")
    if report.needs_depth_bound:
        print(
            "  note: PV-strong recursion — the Figure-5 recognizer needs a "
            "depth bound; the exact machine does not."
        )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    dtd = _load_dtd(args.schema, args.root)
    report = DTDValidator(dtd).validate(_load_document(args.document))
    if report.valid:
        print("valid")
        return 0
    print(f"invalid ({len(report.issues)} issue(s)):")
    for issue in report.issues:
        print(f"  {issue}")
    return 1


def _cmd_check(args: argparse.Namespace) -> int:
    schema = DEFAULT_REGISTRY.get(_load_dtd(args.schema, args.root))
    checked = check_text(schema, Path(args.document).read_text(), args.algorithm)
    if checked.error is not None:
        print(f"error: {checked.error}", file=sys.stderr)
        return USAGE_ERROR
    verdict = checked.verdict
    assert verdict is not None
    if verdict.potentially_valid:
        print("potentially valid — the encoding can be completed")
        return 0
    print(f"NOT potentially valid ({len(verdict.failures)} blocked node(s)):")
    for failure in verdict.failures:
        print(f"  {failure}")
    if verdict.depth_limited:
        print("  (verdict is relative to the configured depth bound)")
    return 1


def _cmd_batch(args: argparse.Namespace) -> int:
    if args.ring:
        return _cmd_batch_ring(args)
    schema = DEFAULT_REGISTRY.get(_load_dtd(args.schema, args.root))
    checker = BatchChecker(
        schema, algorithm=args.algorithm or "auto", workers=args.workers
    )
    result = checker.check_paths(args.documents)
    for item in result.items:
        print(item)
    print(result.summary(), file=sys.stderr)
    if args.stats:
        print(f"registry: {DEFAULT_REGISTRY.stats}", file=sys.stderr)
    return 0 if result.all_ok else 1


def _cmd_batch_ring(args: argparse.Namespace) -> int:
    """Stream the corpus to a validation-server ring (``batch --ring``)."""
    from repro.server.client import ServerError
    from repro.server.protocol import ProtocolError
    from repro.server.ring import ShardedClient, member_label, parse_member

    try:
        members = [parse_member(text) for text in args.ring.split(",") if text]
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return USAGE_ERROR
    if not members:
        print("error: --ring needs at least one ADDR", file=sys.stderr)
        return USAGE_ERROR
    dtd_text = Path(args.schema).read_text()
    docs = [Path(path).read_text() for path in args.documents]
    with ShardedClient(
        members,
        replica_count=args.replicas,
        read_policy=args.read_policy,
        # Admission "on" turns on the client-side coarse filter: definite
        # documents are answered from the cached per-fingerprint summary,
        # only the uncertain middle crosses the wire.
        coarse_filter=args.admission == "on",
    ) as ring:
        try:
            # One schema, one batch — through the filter, then the read
            # policy: under round-robin / least-inflight the documents
            # spread in windows over every live owning replica.  With no
            # --algorithm the shards' default applies.
            replies, trailer = ring.check_batch(
                dtd_text, docs, algorithm=args.algorithm, root=args.root
            )
        except ProtocolError as error:
            print(f"error: {error.message}", file=sys.stderr)
            # A bad schema (the ring client fingerprints it locally, so
            # ReproError arrives wrapped) is a usage error, same exit
            # code the local batch path gives parse errors; anything
            # else (e.g. a garbled reply) is a runtime failure.
            return USAGE_ERROR if error.code == "bad-dtd" else RUNTIME_ERROR
        except ServerError as error:
            # The shard rejected the batch (bad header, internal error).
            print(f"error: {error}", file=sys.stderr)
            return RUNTIME_ERROR
        except ConnectionError as error:
            # No shard reachable: a deployment failure, not bad usage.
            print(f"error: {error}", file=sys.stderr)
            return RUNTIME_ERROR
        all_ok = True
        for path, reply in zip(args.documents, replies):
            if not reply.get("ok"):
                all_ok = False
                error = reply.get("error") or {}
                print(f"{path}: ERROR {error.get('code')}: {error.get('message')}")
            elif reply["potentially_valid"]:
                print(f"{path}: potentially valid")
            else:
                all_ok = False
                count = len(reply["failures"])
                print(f"{path}: NOT potentially valid ({count} blocked node(s))")
        # The shard(s) that actually served the batch: one under
        # primary-first (failover aside), the live replica set under the
        # balanced policies.
        served_by = ring.ring_stats["requests_by_member"]
        shards = ", ".join(sorted(served_by)) or member_label(
            ring.ring.owner(ring.fingerprint(dtd_text, args.root))
        )
        print(
            f"{trailer['items']} document(s), {trailer['errors']} error(s) in "
            f"{trailer['elapsed_ms']:.1f} ms on shard(s) {shards} "
            f"(policy: {ring.read_policy}, "
            f"registry: {trailer['schema']['registry']})",
            file=sys.stderr,
        )
        if args.stats:
            stats = ring.ring_stats
            print(f"ring: {stats}", file=sys.stderr)
    return 0 if all_ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.server.server import ValidationServer

    host = None if args.no_tcp else args.host
    if host is None and args.unix is None:
        print("error: --no-tcp requires --unix PATH", file=sys.stderr)
        return USAGE_ERROR
    shards = args.ring

    events = None
    if args.events:
        from repro.obs.events import EventLog

        try:
            # One shared append-mode log: shards interleave whole lines
            # (the EventLog serializes writes), and every event carries
            # its member label.
            events = EventLog.to_path(args.events)
        except OSError as error:
            print(f"error: {error}", file=sys.stderr)
            return RUNTIME_ERROR

    seeds = [part.strip() for part in (args.gossip_seed or "").split(",")]
    seeds = [seed for seed in seeds if seed]
    servers = [
        ValidationServer(
            default_algorithm=args.algorithm,
            events=events,
            slow_ms=args.slow_ms,
            hot_limit=args.hot_limit,
            gossip_interval=args.gossip_interval,
            verdict_cache=args.verdict_cache,
            replica_count=args.replicas,
            read_policy=args.read_policy,
        )
        for _ in range(shards)
    ]

    def endpoints(index: int) -> tuple[int | None, str | None]:
        port = args.port
        if port and shards > 1:
            port = port + index
        unix = args.unix
        if unix is not None and shards > 1:
            unix = f"{unix}.{index}"
        return port, unix

    def shard_label(server: ValidationServer) -> str:
        # A shard's canonical ring label: the Unix path when it has one
        # (the ShardedClient hashes the same string), else host:port.
        if server.unix_path is not None:
            return server.unix_path
        assert server.tcp_address is not None
        return f"{server.tcp_address[0]}:{server.tcp_address[1]}"

    async def run() -> None:
        started: list[ValidationServer] = []
        try:
            for index, server in enumerate(servers):
                port, unix = endpoints(index)
                await server.start(host=host, port=port, unix_path=unix)
                started.append(server)
                name = f"shard {index}: " if shards > 1 else ""
                if server.tcp_address is not None:
                    print(
                        f"{name}listening on "
                        f"{server.tcp_address[0]}:{server.tcp_address[1]}",
                        file=sys.stderr,
                    )
                if server.unix_path is not None:
                    print(f"{name}listening on unix:{server.unix_path}",
                          file=sys.stderr)
            if shards > 1:
                # Every shard is bound: install the full view in process
                # (epoch 1, so replies carry an epoch, clients read from
                # the R replicas of a fingerprint and policy-less
                # clients follow the advertised policy) before any
                # gossip agent announces itself.
                labels = [shard_label(server) for server in started]
                for server in started:
                    server.set_ring_view(
                        1, labels, args.replicas, read_policy=args.read_policy
                    )
            if shards > 1 or seeds:
                for server in started:
                    await server.join_ring(seeds)
                policy_note = (
                    f", read policy {args.read_policy}"
                    if args.read_policy
                    else ""
                )
                print(
                    f"ring view: epoch {started[0].placement.epoch}, "
                    f"{len(started[0].placement)} member(s), "
                    f"replicas {args.replicas}{policy_note}",
                    file=sys.stderr,
                )
            await asyncio.gather(*(server.serve_forever() for server in started))
        finally:
            for server in started:
                await server.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
        return 0
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return RUNTIME_ERROR
    return 0


def _print_merged_metrics(merged: dict) -> None:
    """Ring-wide counter totals and latency quantiles from a merged
    metrics snapshot (shared by ``metrics`` and ``ring-status --metrics``)."""
    from repro.obs.metrics import (
        counter_value,
        histogram_entries,
        histogram_quantile,
    )

    print(
        "ring: "
        f"requests={counter_value(merged, 'repro_requests_total'):.0f}, "
        f"batch items={counter_value(merged, 'repro_batch_items_total'):.0f}, "
        f"errors={counter_value(merged, 'repro_errors_total'):.0f}, "
        f"slow={counter_value(merged, 'repro_slow_requests_total'):.0f}"
    )

    def table(title: str, name: str, label_key: str) -> None:
        entries = [
            entry for entry in histogram_entries(merged, name)
            if entry["count"]
        ]
        if not entries:
            return
        print(title)
        for entry in entries:
            key = entry["labels"].get(label_key, "?")
            quantiles = ", ".join(
                f"p{int(q * 100)}={(histogram_quantile(entry, q) or 0.0) * 1000.0:.3f}ms"
                for q in (0.5, 0.9, 0.99)
            )
            print(f"  {key}: n={entry['count']}, {quantiles}")

    table("latency by op:", "repro_request_seconds", "op")
    table("verdict latency by backend:", "repro_verdict_seconds", "backend")


def _discover_members(seed_text: str, timeout: float) -> list:
    """Bootstrap the shard list from one live shard's view.

    Connects to *seed_text*, reads the ``health`` reply's ``members``
    (the live labels of the view the shard's gossip agent maintains),
    and parses each into an address.  The seed itself is included even
    when the view omits it, so a solo shard is still discoverable.
    Raises ``ValueError`` on an unparseable address and
    ``OSError``/server errors when the seed is dark.
    """
    from repro.server.client import ValidationClient
    from repro.server.ring import member_label, parse_member

    seed = parse_member(seed_text)
    with ValidationClient.connect(seed, timeout=timeout) as client:
        health = client.health()
    members = []
    seen: set[str] = set()
    for label in health.get("members") or []:
        if not isinstance(label, str) or not label:
            continue
        try:
            member = parse_member(label)
        except ValueError:
            continue
        if member_label(member) not in seen:
            seen.add(member_label(member))
            members.append(member)
    if member_label(seed) not in seen:
        members.insert(0, seed)
    return members


def _ring_members(args: argparse.Namespace, command: str) -> list | int:
    """The shard list of ``ring-status`` / ``metrics``: the positional
    ``ADDR[,ADDR...]``, or ``--discover ADDR`` via one live shard's
    view.  Returns the exit status instead of a list on failure."""
    from repro.server.ring import parse_member

    if args.members:
        try:
            members = [
                parse_member(text)
                for text in args.members.split(",")
                if text
            ]
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return USAGE_ERROR
        if members:
            return members
        print(f"error: {command} needs at least one ADDR", file=sys.stderr)
        return USAGE_ERROR
    if args.discover:
        try:
            return _discover_members(args.discover, args.timeout)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return USAGE_ERROR
        except Exception as error:  # noqa: BLE001 - the seed shard is dark
            print(
                f"error: cannot discover from {args.discover}: {error}",
                file=sys.stderr,
            )
            return RUNTIME_ERROR
    print(
        f"error: {command} needs ADDR[,ADDR...] or --discover ADDR",
        file=sys.stderr,
    )
    return USAGE_ERROR


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Scrape every shard's ``metrics`` op; print ring-wide aggregates."""
    from repro.obs.metrics import counter_value, merge_snapshots
    from repro.obs.promtext import render
    from repro.server.client import ValidationClient
    from repro.server.ring import member_label

    members = _ring_members(args, "metrics")
    if isinstance(members, int):
        return members
    all_up = True
    snapshots: list[tuple[str, dict]] = []
    for member in members:
        label = member_label(member)
        try:
            with ValidationClient.connect(member, timeout=args.timeout) as client:
                reply = client.metrics()
        except Exception as error:  # noqa: BLE001 - reported per shard
            all_up = False
            print(f"{label}: DOWN ({error})", file=sys.stderr)
            continue
        snapshots.append((label, reply.get("metrics") or {}))
    merged = merge_snapshots(snapshot for _label, snapshot in snapshots)
    if args.prometheus:
        print(render(merged), end="")
        return 0 if all_up else RUNTIME_ERROR
    for label, snapshot in snapshots:
        print(
            f"{label}: up, "
            f"requests={counter_value(snapshot, 'repro_requests_total'):.0f}, "
            f"errors={counter_value(snapshot, 'repro_errors_total'):.0f}"
        )
    _print_merged_metrics(merged)
    return 0 if all_up else RUNTIME_ERROR


def _cmd_ring_status(args: argparse.Namespace) -> int:
    """Probe every shard of a ring: liveness, epoch, traffic, registry."""
    from repro.server.client import ValidationClient
    from repro.server.ring import member_label

    members = _ring_members(args, "ring-status")
    if isinstance(members, int):
        return members
    all_up = True
    epochs: set[int] = set()
    metric_snapshots: list[dict] = []
    for member in members:
        label = member_label(member)
        try:
            with ValidationClient.connect(member, timeout=args.timeout) as client:
                health = client.health()
                stats = client.stats() if args.stats else None
                scraped = client.metrics() if args.metrics else None
        except Exception as error:  # noqa: BLE001 - reported per shard
            all_up = False
            print(f"{label}: DOWN ({error})")
            continue
        epoch = health.get("epoch")
        if isinstance(epoch, int):
            epochs.add(epoch)
        line = (
            f"{label}: up, epoch={epoch}, "
            f"uptime={health['uptime_seconds']:.1f}s, "
            f"requests={health['requests']}, "
            f"connections={health['connections']}"
        )
        print(line)
        if stats is not None:
            registry = stats["registry"]
            server = stats.get("server") or {}
            hot = stats.get("hot") or []
            # Inflight is the load signal the least-inflight read policy
            # balances on; hot is the per-fingerprint traffic top-N that
            # also feeds join prefetch.
            print(
                f"  registry: {registry['hits']} hit(s), "
                f"{registry['misses']} miss(es); "
                f"inflight: {server.get('inflight', 0)}; "
                f"hot schemas: "
                + (
                    ", ".join(f"{fp[:12]}...x{count}" for fp, count in hot[:5])
                    or "(none)"
                )
            )
        if scraped is not None:
            metric_snapshots.append(scraped.get("metrics") or {})
    if metric_snapshots:
        from repro.obs.metrics import merge_snapshots

        _print_merged_metrics(merge_snapshots(metric_snapshots))
    if len(epochs) > 1:
        print(
            f"warning: shards disagree on the ring epoch ({sorted(epochs)}) — "
            "a membership change is still propagating",
            file=sys.stderr,
        )
    return 0 if all_up else RUNTIME_ERROR


def _cmd_profile(args: argparse.Namespace) -> int:
    """Profile a check/batch workload; print the cumulative-time top-N."""
    import cProfile
    import pstats

    schema = DEFAULT_REGISTRY.get(_load_dtd(args.schema, args.root))
    texts = [Path(path).read_text() for path in args.documents]
    all_ok = True

    def run_check() -> None:
        nonlocal all_ok
        for _ in range(args.repeat):
            for text in texts:
                checked = check_text(schema, text, args.algorithm)
                if checked.error is not None:
                    raise ReproError(checked.error)
                if not checked.verdict.potentially_valid:
                    all_ok = False

    def run_batch() -> None:
        nonlocal all_ok
        checker = BatchChecker(schema, algorithm=args.algorithm)
        for _ in range(args.repeat):
            result = checker.check_texts(texts, labels=args.documents)
            if not result.all_ok:
                all_ok = False

    workload = run_batch if args.mode == "batch" else run_check
    profile = cProfile.Profile()
    profile.enable()
    try:
        workload()
    finally:
        profile.disable()
    runs = len(texts) * args.repeat
    print(
        f"profiled {args.mode} of {len(texts)} document(s) x {args.repeat} "
        f"repeat(s) = {runs} check(s), algorithm {args.algorithm}",
        file=sys.stderr,
    )
    stats = pstats.Stats(profile, stream=sys.stdout)
    stats.sort_stats("cumulative").print_stats(args.top)
    return 0 if all_ok else 1


def _cmd_complete(args: argparse.Namespace) -> int:
    dtd = _load_dtd(args.schema, args.root)
    document = _load_document(args.document)
    try:
        result = complete_document(dtd, document)
    except CompletionError as error:
        print(f"no completion exists: {error}", file=sys.stderr)
        return 1
    print(to_xml(result.document))
    print(f"-- inserted {result.inserted} element(s)", file=sys.stderr)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Potential validity of document-centric XML (ICDE 2006).",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {_version()}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    classify = sub.add_parser("classify", help="classify a DTD (Defs 6-8)")
    classify.add_argument("schema")
    classify.add_argument("--root", default=None, help="root element type")
    classify.set_defaults(handler=_cmd_classify)

    validate = sub.add_parser("validate", help="standard DTD validation")
    validate.add_argument("schema")
    validate.add_argument("document")
    validate.add_argument("--root", default=None)
    validate.set_defaults(handler=_cmd_validate)

    check = sub.add_parser("check", help="potential-validity check (Problem PV)")
    check.add_argument("schema")
    check.add_argument("document")
    check.add_argument("--root", default=None)
    check.add_argument(
        "--algorithm",
        choices=_ALGORITHMS,
        default="auto",
        help="checking backend (default: auto, the kernel)",
    )
    check.set_defaults(handler=_cmd_check)

    batch = sub.add_parser(
        "batch", help="compile once, check a corpus (optionally in parallel)"
    )
    batch.add_argument("schema")
    batch.add_argument("documents", nargs="+", metavar="document")
    batch.add_argument("--root", default=None)
    batch.add_argument(
        "--algorithm",
        choices=_ALGORITHMS,
        default=None,
        help=(
            "checking backend for every document (default: auto, the "
            "kernel; with --ring, the shards' default)"
        ),
    )
    batch.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes (1 = check inline, no pool)",
    )
    batch.add_argument(
        "--stats",
        action="store_true",
        help="also print schema-registry cache statistics",
    )
    batch.add_argument(
        "--ring",
        default=None,
        metavar="ADDR[,ADDR...]",
        help=(
            "stream the corpus to a validation-server ring instead of "
            "checking locally (ADDR is host:port or a unix socket path)"
        ),
    )
    batch.add_argument(
        "--replicas",
        type=int,
        default=1,
        metavar="R",
        help="replica-set size of the ring named by --ring (failover reads)",
    )
    batch.add_argument(
        "--read-policy",
        choices=_READ_POLICIES,
        default=None,
        help=(
            "how ring reads pick among a schema's live replicas "
            "(requires --ring; default: follow the ring's advertised "
            "policy, else primary-first)"
        ),
    )
    batch.add_argument(
        "--admission",
        choices=("on", "off"),
        default="off",
        help=(
            "with --ring: on answers documents the cached coarse summary "
            "decides definitely on the client, so only the rest cross "
            "the wire (default: off)"
        ),
    )
    batch.set_defaults(handler=_cmd_batch)

    profile = sub.add_parser(
        "profile", help="profile a check/batch workload with cProfile"
    )
    profile.add_argument("schema")
    profile.add_argument("documents", nargs="+", metavar="document")
    profile.add_argument("--root", default=None)
    profile.add_argument(
        "--mode",
        choices=("check", "batch"),
        default="check",
        help="workload shape: per-document checks or the batch pipeline",
    )
    profile.add_argument(
        "--algorithm",
        choices=_ALGORITHMS,
        default="auto",
        help="checking backend to profile (default: auto, the kernel)",
    )
    profile.add_argument(
        "--top",
        type=int,
        default=15,
        metavar="N",
        help="print the top N functions by cumulative time (default: 15)",
    )
    profile.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="R",
        help="run the workload R times for a stabler profile (default: 1)",
    )
    profile.set_defaults(handler=_cmd_profile)

    complete = sub.add_parser("complete", help="compute a valid extension")
    complete.add_argument("schema")
    complete.add_argument("document")
    complete.add_argument("--root", default=None)
    complete.set_defaults(handler=_cmd_complete)

    serve = sub.add_parser(
        "serve", help="run the long-lived NDJSON validation server"
    )
    serve.add_argument("--host", default="127.0.0.1", help="TCP bind address")
    serve.add_argument(
        "--port", type=int, default=8750, help="TCP port (0 = ephemeral)"
    )
    serve.add_argument(
        "--no-tcp",
        action="store_true",
        help="do not bind TCP (requires --unix)",
    )
    serve.add_argument(
        "--unix", default=None, metavar="PATH", help="also serve a Unix socket"
    )
    serve.add_argument(
        "--algorithm",
        choices=_ALGORITHMS,
        default="auto",
        help="backend for requests that name none (default: auto, the kernel)",
    )
    serve.add_argument(
        "--ring",
        type=int,
        default=1,
        metavar="N",
        help=(
            "start a local ring of N shard servers (consecutive ports, "
            "socket paths suffixed .0..N-1)"
        ),
    )
    serve.add_argument(
        "--replicas",
        type=int,
        default=1,
        metavar="R",
        help=(
            "replica-set size this shard advertises with its ring view: "
            "each schema fingerprint is owned by R shards (reads from any "
            "live one, artifacts fanned out to all R); every shard of a "
            "ring takes the same R; requires a ring (--ring N >= R or "
            "--gossip-seed)"
        ),
    )
    serve.add_argument(
        "--read-policy",
        choices=_READ_POLICIES,
        default=None,
        help=(
            "read policy this shard advertises with its ring view "
            "(requires --ring N >= 2 or --gossip-seed; every shard of a "
            "ring takes the same one): clients without an explicit "
            "policy follow it"
        ),
    )
    serve.add_argument(
        "--hot-limit",
        type=int,
        default=32,
        metavar="N",
        help=(
            "top-N hot fingerprints reported by the stats op and used "
            "for join prefetch (default: 32)"
        ),
    )
    serve.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        metavar="MS",
        help=(
            "count requests slower than MS milliseconds (and log a "
            "slow-request event when --events is set)"
        ),
    )
    serve.add_argument(
        "--events",
        default=None,
        metavar="PATH",
        help="append JSON-line observability events to PATH",
    )
    serve.add_argument(
        "--verdict-cache",
        type=int,
        default=0,
        metavar="N",
        help=(
            "memoize up to N verdicts per shard, keyed by (schema "
            "fingerprint, document digest, algorithm); repeat documents "
            "are answered without parsing (default: 0, disabled)"
        ),
    )
    serve.add_argument(
        "--gossip-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="seconds between gossip probe rounds (default: 1.0)",
    )
    serve.add_argument(
        "--gossip-seed",
        default=None,
        metavar="ADDR[,ADDR...]",
        help=(
            "join the running ring of these member(s): prefetch the "
            "hottest artifacts this shard will own, then announce it; "
            "the join propagates by gossip (multi-host scale-out)"
        ),
    )
    serve.set_defaults(handler=_cmd_serve)

    ring_status = sub.add_parser(
        "ring-status", help="probe the shards of a running validation ring"
    )
    ring_status.add_argument(
        "members",
        nargs="?",
        default=None,
        metavar="ADDR[,ADDR...]",
        help="shard addresses (host:port or unix socket paths)",
    )
    ring_status.add_argument(
        "--discover",
        default=None,
        metavar="ADDR",
        help=(
            "bootstrap the shard list from one live shard's view "
            "(instead of listing every ADDR)"
        ),
    )
    ring_status.add_argument(
        "--stats",
        action="store_true",
        help="also print each shard's registry and hot-schema statistics",
    )
    ring_status.add_argument(
        "--timeout",
        type=float,
        default=5.0,
        help="per-shard probe timeout, seconds",
    )
    ring_status.add_argument(
        "--metrics",
        action="store_true",
        help="also scrape each shard's metrics op and print the "
        "ring-wide aggregate",
    )
    ring_status.set_defaults(handler=_cmd_ring_status)

    metrics = sub.add_parser(
        "metrics", help="scrape and aggregate ring-wide metrics"
    )
    metrics.add_argument(
        "members",
        nargs="?",
        default=None,
        metavar="ADDR[,ADDR...]",
        help="shard addresses (host:port or unix socket paths)",
    )
    metrics.add_argument(
        "--discover",
        default=None,
        metavar="ADDR",
        help=(
            "bootstrap the shard list from one live shard's view "
            "(instead of listing every ADDR)"
        ),
    )
    metrics.add_argument(
        "--prometheus",
        action="store_true",
        help="print the merged snapshot as Prometheus text exposition",
    )
    metrics.add_argument(
        "--timeout",
        type=float,
        default=5.0,
        help="per-shard scrape timeout, seconds",
    )
    metrics.set_defaults(handler=_cmd_metrics)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:  # argparse exits on usage errors and --help
        if exit_.code is None or exit_.code == 0:
            return 0
        return exit_.code if isinstance(exit_.code, int) else USAGE_ERROR
    if args.handler is _cmd_batch and args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return USAGE_ERROR
    if args.handler is _cmd_batch and args.ring and args.workers != 1:
        print("error: --ring and --workers are mutually exclusive", file=sys.stderr)
        return USAGE_ERROR
    if args.handler is _cmd_batch and args.replicas < 1:
        print("error: --replicas must be >= 1", file=sys.stderr)
        return USAGE_ERROR
    if args.handler is _cmd_batch and args.read_policy and not args.ring:
        print("error: --read-policy requires --ring", file=sys.stderr)
        return USAGE_ERROR
    if args.handler is _cmd_batch and args.admission == "on" and not args.ring:
        print("error: --admission requires --ring", file=sys.stderr)
        return USAGE_ERROR
    if args.handler is _cmd_serve and args.ring < 1:
        print("error: --ring must be >= 1", file=sys.stderr)
        return USAGE_ERROR
    if args.handler is _cmd_serve and not (
        args.replicas >= 1
        and (args.replicas <= args.ring or (args.ring == 1 and args.gossip_seed))
    ):
        print(
            "error: --replicas must be between 1 and --ring N "
            "(a single shard joining with --gossip-seed takes any R >= 1)",
            file=sys.stderr,
        )
        return USAGE_ERROR
    if args.handler is _cmd_serve and args.read_policy and not (
        args.ring >= 2 or args.gossip_seed
    ):
        print(
            "error: --read-policy requires a ring (--ring N >= 2 or "
            "--gossip-seed)",
            file=sys.stderr,
        )
        return USAGE_ERROR
    if args.handler is _cmd_serve and args.verdict_cache < 0:
        print("error: --verdict-cache must be >= 0", file=sys.stderr)
        return USAGE_ERROR
    if args.handler is _cmd_profile and args.top < 1:
        print("error: --top must be >= 1", file=sys.stderr)
        return USAGE_ERROR
    if args.handler is _cmd_profile and args.repeat < 1:
        print("error: --repeat must be >= 1", file=sys.stderr)
        return USAGE_ERROR
    if args.handler is _cmd_serve and args.hot_limit < 1:
        print("error: --hot-limit must be >= 1", file=sys.stderr)
        return USAGE_ERROR
    if args.handler is _cmd_serve and args.slow_ms is not None and args.slow_ms < 0:
        print("error: --slow-ms must be >= 0", file=sys.stderr)
        return USAGE_ERROR
    if args.handler is _cmd_serve and args.gossip_interval <= 0:
        print("error: --gossip-interval must be > 0", file=sys.stderr)
        return USAGE_ERROR
    if args.handler is _cmd_serve and args.gossip_seed:
        from repro.server.placement import parse_member

        for part in args.gossip_seed.split(","):
            if not part.strip():
                continue
            try:
                parse_member(part.strip())
            except ValueError:
                print(
                    f"error: cannot parse --gossip-seed member: {part.strip()}",
                    file=sys.stderr,
                )
                return USAGE_ERROR
    if args.handler in (_cmd_ring_status, _cmd_metrics) and (
        args.members and args.discover
    ):
        print(
            "error: ADDR[,ADDR...] and --discover are mutually exclusive",
            file=sys.stderr,
        )
        return USAGE_ERROR
    try:
        return args.handler(args)
    except BrokenPipeError:
        # Downstream closed stdout (e.g. `... | head`): not a usage error.
        # 128 + SIGPIPE, the shell's own convention for the same event.
        return 141
    except OSError as error:
        # Unreadable schema/document paths (missing, permissions, directory).
        print(f"error: {error}", file=sys.stderr)
        return USAGE_ERROR
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
