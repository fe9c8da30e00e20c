"""Traced-run instruments: the span recorder and in-process layer timing.

The benchmark times each layer from outside, through its public
functions, on the load generator's CPU and over the same documents the
servers were sent.  A function that a later change removes reads as
``0`` and is listed under ``missing`` instead of failing the run, so the
benchmark keeps measuring the layers that remain.
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from repro.server import protocol

#: Documents the in-process layer passes sample from a workload.
LAYER_SAMPLE = 120
#: Passes per layer; the fastest is kept (least disturbed).
LAYER_PASSES = 2


class Spans:
    """In-memory span records, written out once at the end of a run.

    A span is ``(name, start, end, parent, request)`` with times in
    seconds from the recorder's creation.  Spans of one request share
    its request id.
    """

    def __init__(self) -> None:
        self._origin = perf_counter()
        self.records: list[dict[str, Any]] = []

    def add(
        self, name: str, start: float, end: float,
        parent: int | None = None, request: str | None = None,
    ) -> int:
        self.records.append({
            "id": len(self.records),
            "name": name,
            "start": start - self._origin,
            "end": end - self._origin,
            "parent": parent,
            "request": request,
        })
        return len(self.records) - 1

    def extend(self, span_id: int, end: float) -> None:
        """Move the end of span *span_id* to *end*."""
        self.records[span_id]["end"] = end - self._origin

    def add_server(
        self, parent: int, start: float, request: str | None,
        span: dict[str, Any] | None, elapsed_ms: float | None,
        items: list[dict[str, Any]] = (),
    ) -> None:
        """Child spans from a reply: the server hop and its phases.

        *items* are a batch's per-item trace stubs, whose phases become
        children of the same hop.  Only durations cross the wire, so the
        hop is placed at the client span's start and its phases end to
        end inside it.
        """
        total = (span or {}).get("total_ms", elapsed_ms)
        if total is None:
            return
        hop = self.add("server", start, start + total / 1000.0, parent, request)
        cursor = start
        for stub in [span or {}, *items]:
            for phase in ("parse", "queue", "decide", "verdict", "artifact"):
                ms = stub.get(f"{phase}_ms")
                if ms is not None:
                    self.add(f"server.{phase}", cursor, cursor + ms / 1000.0,
                             hop, request)
                    cursor += ms / 1000.0

    def self_times_ms(self) -> dict[str, float]:
        """Total self time per name of the spans that belong to a
        request: duration minus the part its child spans cover."""
        children: dict[int, float] = {}
        for record in self.records:
            if record["parent"] is not None:
                children[record["parent"]] = children.get(
                    record["parent"], 0.0
                ) + record["end"] - record["start"]
        totals: dict[str, float] = {}
        for record in self.records:
            if record["request"] is None:
                continue
            own = record["end"] - record["start"] - children.get(
                record["id"], 0.0
            )
            totals[record["name"]] = totals.get(record["name"], 0.0) + own
        return {name: seconds * 1000.0 for name, seconds in totals.items()}

    def write(self, path: Path) -> None:
        with open(path, "w") as handle:
            for record in self.records:
                handle.write(json.dumps(record) + "\n")


def resolve(module: str, name: str) -> Any | None:
    """``module.name``, or ``None`` when a later change removed it."""
    try:
        return getattr(importlib.import_module(module), name)
    except (ImportError, AttributeError):
        return None


def _sample(items: list, limit: int) -> list:
    if len(items) <= limit:
        return list(items)
    step = len(items) / limit
    return [items[int(index * step)] for index in range(limit)]


class LayerTimer:
    """Times layer passes and records each pass as a span."""

    def __init__(self, spans: Spans) -> None:
        self.spans = spans
        self.root = spans.add("in-process layers", perf_counter(),
                              perf_counter())
        self.missing: list[str] = []

    def per_doc_ms(self, name: str, fn: Callable[[], Any], docs: int) -> float:
        best = float("inf")
        for _ in range(LAYER_PASSES):
            started = perf_counter()
            fn()
            ended = perf_counter()
            self.spans.add(name, started, ended, self.root)
            best = min(best, ended - started)
        self.spans.extend(self.root, ended)
        return best * 1000.0 / max(1, docs)


def time_layers(
    items: list[tuple[Any, str]], schemas: list[Any], spans: Spans,
    frames: list[tuple[dict, dict]],
) -> tuple[dict[str, float], list[str]]:
    """Per-layer figures over a sample of ``(schema, text)`` *items*.

    *schemas* are timed through ``compile_schema``; *frames* are the
    workload's ``(request payload, reply)`` pairs as sent and received,
    for the protocol codec figure.
    """
    from repro.core.pv import PVChecker
    from repro.service.compiled import compile_schema
    from repro.xmlmodel.parser import parse_xml

    timer = LayerTimer(spans)
    out: dict[str, float] = {}
    sample = _sample(items, LAYER_SAMPLE)
    count = len(sample)

    compiled: dict[str, Any] = {}

    def compile_all() -> None:
        for schema in schemas:
            compiled[schema.name] = compile_schema(schema.dtd)

    out["service.compile_ms_per_schema"] = timer.per_doc_ms(
        "service.compile_schema", compile_all, len(schemas)
    )
    texts = [text for _schema, text in sample]
    pairs = [(compiled[schema.name], text) for schema, text in sample]
    trees: list[Any] = []

    def parse_all() -> None:
        trees[:] = [parse_xml(text) for text in texts]

    out["xmlmodel.tree_ms_per_doc"] = timer.per_doc_ms(
        "xmlmodel.parse_xml", parse_all, count
    )
    with_trees = [
        (schema, tree) for (schema, _text), tree in zip(pairs, trees)
    ]

    scan_events = resolve("repro.xmlmodel.fastlex", "scan_events")
    if scan_events is None:
        timer.missing.append("xmlmodel.scan_events")
        out["xmlmodel.scan_ms_per_doc"] = 0.0
    else:
        def scan_all() -> None:
            for text in texts:
                for _event in scan_events(text):
                    pass

        out["xmlmodel.scan_ms_per_doc"] = timer.per_doc_ms(
            "xmlmodel.scan_events", scan_all, count
        )

    fused = resolve("repro.core.stream", "stream_check_document")
    if fused is None:
        timer.missing.append("core.stream_check_document")
        out["core.fused_ms_per_doc"] = 0.0
    else:
        out["core.fused_ms_per_doc"] = timer.per_doc_ms(
            "core.stream_check_document",
            lambda: [fused(schema, text) for schema, text in pairs], count,
        )

    for algorithm in ("kernel", "figure5"):
        checkers = {
            id(schema): PVChecker.from_compiled(schema, algorithm=algorithm)
            for schema, _tree in with_trees
        }
        out[f"core.{algorithm}_tree_ms_per_doc"] = timer.per_doc_ms(
            f"core.{algorithm}.check_document",
            lambda: [checkers[id(schema)].check_document(tree)
                     for schema, tree in with_trees],
            count,
        )

    coarse = resolve("repro.core.stream", "stream_coarse_check")
    definite: list[bool] = []
    if coarse is None:
        timer.missing.append("core.stream_coarse_check")
        out["core.coarse_ms_per_doc"] = 0.0
    else:
        def coarse_all() -> None:
            definite[:] = [
                coarse(schema.coarse, text).definite for schema, text in pairs
            ]

        out["core.coarse_ms_per_doc"] = timer.per_doc_ms(
            "core.stream_coarse_check", coarse_all, count
        )
    out["core.coarse_definite_frac"] = (
        sum(definite) / len(definite) if definite else 0.0
    )

    coarse_checker = resolve("repro.core.coarse", "CoarseChecker")
    if coarse_checker is None:
        timer.missing.append("core.CoarseChecker")
        out["ring.client_local_ms_per_doc"] = 0.0
    else:
        filters = {
            id(schema): coarse_checker(schema.coarse) for schema, _t in pairs
        }
        out["ring.client_local_ms_per_doc"] = timer.per_doc_ms(
            "ring.client_filter",
            lambda: [filters[id(schema)].check_document(parse_xml(text))
                     for schema, text in pairs],
            count,
        )

    measure_shape = resolve("repro.service.dispatch", "measure_shape")
    if measure_shape is None:
        timer.missing.append("service.measure_shape")
        out["service.shape_ms_per_doc"] = 0.0
    else:
        out["service.shape_ms_per_doc"] = timer.per_doc_ms(
            "service.measure_shape",
            lambda: [measure_shape(tree) for tree in trees], count,
        )

    dispatcher_cls = resolve("repro.service.dispatch", "BackendDispatcher")
    routes: list[str] = []
    if dispatcher_cls is None:
        timer.missing.append("service.BackendDispatcher")
        out["service.dispatch_ms_per_doc"] = 0.0
    else:
        dispatchers = {
            id(schema): dispatcher_cls(schema) for schema, _tree in with_trees
        }

        def dispatch_all() -> None:
            routes[:] = [
                dispatchers[id(schema)].check_document(tree).decision.algorithm
                for schema, tree in with_trees
            ]

        out["service.dispatch_ms_per_doc"] = timer.per_doc_ms(
            "service.BackendDispatcher.check_document", dispatch_all, count
        )
    out["service.route_figure5_frac"] = (
        routes.count("figure5") / len(routes) if routes else 0.0
    )

    frame_sample = [
        (payload, protocol.encode(payload), protocol.encode(reply))
        for payload, reply in _sample(frames, LAYER_SAMPLE * 4)
    ]

    def codec_all() -> None:
        for payload, request_line, reply_line in frame_sample:
            protocol.encode(payload)
            if "op" in payload:
                protocol.decode_request(request_line)
            else:  # a check-batch item line
                protocol.decode_batch_item(request_line)
            protocol.decode_reply(reply_line)

    out["server.frame_us_per_req"] = 1000.0 * timer.per_doc_ms(
        "server.protocol_codec", codec_all, len(frame_sample)
    )
    return out, timer.missing
