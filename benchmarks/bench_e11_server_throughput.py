"""E11 — the serving front: warm server vs per-request cold compilation.

The async server's claim extends E10's amortization argument to a
long-running process: one warm in-memory registry answers every
connection's verdicts from the compiled artifact, so a served corpus
must beat an embedder that recompiles the schema per request —
*including* the server's JSON/socket overhead, which the cold arm does
not pay.  Three measured arms over the same mixed corpus:

* **cold** — per request: clear the process caches, re-parse the DTD,
  recompile the artifact, check (the naive embed-the-library service);
* **warm server** — one ``ValidationServer`` on a Unix socket, one
  persistent client connection, the corpus streamed through as NDJSON
  requests;
* **restarted server** — a brand-new server and registry, corpus
  replayed.  The registry is the one artifact cache, so its first
  request compiles the schema from the DTD text it carries.

Asserted: the warm server is at least 2× faster than cold per-request
compilation, every arm returns identical verdicts, and the restarted
server compiles the schema exactly once (``compile_schema`` is
instrumented, and the server's own stats must report one miss).  The
restarted server's first-request latency is printed beside the warm
server's per-request latency: that gap is what a restart costs.

``REPRO_BENCH_FAST=1`` shrinks the corpus for the CI smoke job.
"""

from __future__ import annotations

import os
import random
from time import perf_counter

import repro.service.registry as registry_module
from repro.bench.harness import Table, throughput, time_callable
from repro.core.pv import PVChecker
from repro.dtd.parser import parse_dtd
from repro.dtd.serialize import dtd_to_text
from repro.server.client import ValidationClient
from repro.server.server import ServerThread
from repro.service.compiled import clear_compile_caches, compile_schema
from repro.service.registry import SchemaRegistry
from repro.workloads.degrade import degrade
from repro.workloads.docgen import DocumentGenerator
from repro.xmlmodel.parser import parse_xml
from repro.xmlmodel.serialize import to_xml

FAST = bool(os.environ.get("REPRO_BENCH_FAST"))
#: Heavy-traffic shape: many small editorial documents, where per-request
#: schema work (which the warm server never repeats) dominates.
DOC_COUNT = 40 if FAST else 200
TARGET_NODES = 12
REPEAT = 2 if FAST else 3


def _corpus(dtd) -> list[str]:
    """Valid and Theorem-2-degraded documents, serialized for the wire."""
    rng = random.Random(11)
    generator = DocumentGenerator(dtd, seed=11)
    texts: list[str] = []
    for document in generator.documents(DOC_COUNT // 2, target_nodes=TARGET_NODES):
        texts.append(to_xml(document))
        degraded, _count = degrade(document, rng, fraction=0.5)
        texts.append(to_xml(degraded))
    return texts


def test_e11_server_throughput(benchmark, manuscript_dtd, tmp_path, monkeypatch):
    dtd_text = dtd_to_text(manuscript_dtd)
    root = manuscript_dtd.root
    texts = _corpus(manuscript_dtd)

    # -- arm 1: per-request cold compilation (no server, no cache) ---------
    def cold_run() -> list[bool]:
        verdicts = []
        for text in texts:
            clear_compile_caches()
            schema = compile_schema(parse_dtd(dtd_text, root=root))
            checker = PVChecker.from_compiled(schema)
            verdicts.append(checker.check_document(parse_xml(text)).potentially_valid)
        return verdicts

    cold_seconds = time_callable(cold_run, repeat=REPEAT, warmup=1)
    cold_verdicts = cold_run()

    # -- arm 2: one warm server, one persistent connection ------------------
    warm_registry = SchemaRegistry()
    with ServerThread(
        unix_path=str(tmp_path / "e11.sock"), registry=warm_registry
    ) as handle:
        with ValidationClient.connect_unix(handle.unix_path) as client:

            def server_run() -> list[bool]:
                return [
                    client.check(dtd_text, text, root=root)["potentially_valid"]
                    for text in texts
                ]

            warm_seconds = time_callable(server_run, repeat=REPEAT, warmup=1)
            warm_verdicts = server_run()
            benchmark(lambda: client.check(dtd_text, texts[0], root=root))

    # -- arm 3: a restarted server: fresh registry, first request compiles ---
    compile_calls: list[str] = []
    original_compile = registry_module.compile_schema

    def counting_compile(dtd, fingerprint=None):
        compile_calls.append(fingerprint or "?")
        return original_compile(dtd, fingerprint=fingerprint)

    monkeypatch.setattr(registry_module, "compile_schema", counting_compile)
    clear_compile_caches()
    restart_registry = SchemaRegistry()
    with ServerThread(
        unix_path=str(tmp_path / "e11-restart.sock"), registry=restart_registry
    ) as handle:
        with ValidationClient.connect_unix(handle.unix_path) as client:
            started = perf_counter()
            first = client.check(dtd_text, texts[0], root=root)
            first_request_ms = (perf_counter() - started) * 1000.0
            started_verdicts = [first["potentially_valid"]] + [
                client.check(dtd_text, text, root=root)["potentially_valid"]
                for text in texts[1:]
            ]
            restart_stats = client.stats()["registry"]
    monkeypatch.setattr(registry_module, "compile_schema", original_compile)

    table = Table(
        "E11: served checking throughput (manuscript DTD)",
        ["mode", "docs", "seconds", "docs/s", "speedup vs cold"],
    )
    table.add_row(
        "cold compile/request", len(texts), cold_seconds,
        throughput(len(texts), cold_seconds), 1.0,
    )
    table.add_row(
        "warm server (unix)", len(texts), warm_seconds,
        throughput(len(texts), warm_seconds), cold_seconds / warm_seconds,
    )
    table.print()
    print(f"warm registry: {warm_registry.stats}")
    print(f"restarted registry: {restart_stats}")
    print(
        f"restarted server, first request (compiles): {first_request_ms:.2f} ms; "
        f"warm server: {warm_seconds / len(texts) * 1000.0:.2f} ms per request"
    )

    # Every arm agrees, document by document.
    assert warm_verdicts == cold_verdicts
    assert started_verdicts == cold_verdicts

    # The acceptance bar: serving from the warm registry must amortize the
    # schema work past the wire overhead.
    assert cold_seconds / warm_seconds >= 2.0, (
        f"warm server only {cold_seconds / warm_seconds:.2f}x faster than "
        f"per-request cold compilation"
    )

    # A restarted server compiles the schema once, on its first request,
    # and answers every later request from its registry.
    assert len(compile_calls) == 1, (
        f"restarted server compiled {len(compile_calls)} artifact(s)"
    )
    assert restart_stats["misses"] == 1
    assert first["schema"]["registry"] == "miss"
