"""Served potential-validity benchmark: real ``repro serve`` processes.

Usage (from the repository root)::

    python3 servebench/run.py --workload bulk-unique --seed 1 \\
        --seconds 30 --trace 0

Workloads (``metrics.WORKLOADS`` says why each exists):

* ``bulk-unique`` -- one connection streams check-batch requests of
  unique manuscript documents to one server on default flags;
* ``editor-session`` -- one connection sends one closed-loop ``check``
  per state of replayed markup sessions to a server with
  ``--verdict-cache``;
* ``ring-tenants`` -- a ``ShardedClient`` (R=2, round-robin, client
  coarse filter) over two shard processes streams 40-document batches
  for Zipf-ranked tenant schemas.

A run builds its inputs from ``--seed``, computes every verdict in
process, then repeats rounds until ``--seconds`` have passed.  A round
starts fresh servers pinned to the generator's own CPU, warms them
(``setup_s``), sends the fixed request sequence with a calibration
slice per document sent, in blocks between requests (``hostspeed``),
and compares every verdict with the oracle.  Each timing is divided by
how much slower than the reference host the round's slices ran, so the
host's drift cancels; each metric is the median over rounds, and the
latency percentiles pool the rounds' requests.  ``--trace 0`` prints the
end-to-end metrics.  ``--trace 1`` spends half the time on untraced
rounds and half on rounds with a trace id on every request, then times
each layer's public functions in process over the same documents, and
prints the per-layer metrics; its spans go to
``.servebench/spans-<workload>-<seed>.jsonl``.

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  The exit code is
0 only when every verdict matched the oracle and no operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
RUNDIR = ROOT / ".servebench"
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit("error: no src/repro beside servebench/; run from a checkout")
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import layers  # noqa: E402
import metrics as catalog  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
import procs  # noqa: E402
import workloads  # noqa: E402

_UNITS = {m.name: m.unit for m in catalog.END_TO_END + catalog.PER_LAYER}


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def _per_doc(seconds: float, docs: int) -> float:
    return seconds * 1000.0 / max(1, docs)


def end_to_end(rounds: list[workloads.Round],
               raw: bool = False) -> dict[str, float]:
    """The end-to-end metrics at reference host speed (or, with *raw*,
    as timed): medians over *rounds*, percentiles over their pooled
    requests."""
    median = statistics.median
    views = [r.raw if raw else r.norm for r in rounds]
    latencies = [ms for v in views for ms in v.latencies_ms]
    return {
        "setup_s": median(v.setup_s for v in views),
        "docs_per_s": median(v.docs_per_s for v in views),
        "server_cpu_ms_per_doc": median(
            _per_doc(v.server_cpu_s, r.drive.verdicts)
            for v, r in zip(views, rounds)
        ),
        "client_cpu_ms_per_doc": median(
            _per_doc(v.client_cpu_s, r.drive.verdicts)
            for v, r in zip(views, rounds)
        ),
        # Percentiles pool every round's requests: a batch workload has
        # too few requests per round for a per-round p90 to hold still.
        "check_p50_ms": median(latencies),
        "check_p90_ms": _p90(latencies),
        "server_rss_mb": median(r.rss_mb for r in rounds),
    }


def _phase_delta(rounds: list[workloads.Round], phase: str,
                 whole_round: bool = False) -> tuple[float, int]:
    """Summed (seconds, observations) of one phase over *rounds*: the
    timed region, or since server start with *whole_round*."""
    total, count = 0.0, 0
    for r in rounds:
        end = r.phases_after.get(phase, (0.0, 0))
        start = (0.0, 0) if whole_round else r.phases_before.get(
            phase, (0.0, 0)
        )
        total += end[0] - start[0]
        count += end[1] - start[1]
    return total, count


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(
    workload: workloads.Workload,
    properties: dict,
    untraced: list[workloads.Round],
    traced: list[workloads.Round],
    in_process: dict[str, float],
) -> dict[str, float]:
    """The per-layer metrics of a traced run."""
    out = dict(in_process)
    drives = [r.drive for r in traced]
    verdicts = sum(d.verdicts for d in drives)
    served = verdicts - sum(d.filtered for d in drives)
    requests = sum(len(d.latencies_ms) for d in drives)
    elapsed = sum(sum(d.elapsed_ms) for d in drives)
    round_trips = sum(sum(d.latencies_ms) for d in drives)
    phase_ms = 0.0
    for phase in ("parse", "queue", "decide", "verdict"):
        seconds, _count = _phase_delta(traced, phase)
        phase_ms += seconds * 1000.0
        out[f"server.{phase}_ms_per_doc"] = _per_doc(seconds, served)
    seconds, count = _phase_delta(traced, "artifact", whole_round=True)
    out["server.artifact_ms_per_op"] = _per_doc(seconds, count) if count else 0.0
    artifact_timed, _count = _phase_delta(traced, "artifact")
    phase_ms += artifact_timed * 1000.0
    out["server.elapsed_ms_per_req"] = _ratio(elapsed, requests)
    out["server.outside_ms_per_req"] = _ratio(round_trips - elapsed, requests)
    out["server.self_ms_per_req"] = _ratio(elapsed - phase_ms, requests)
    out["server.busy_frac"] = statistics.median(
        r.server_cpu_s / r.wall_s for r in traced
    )

    hits = sum(r.timed["cache_hits"] for r in traced)
    misses = sum(r.timed["cache_misses"] for r in traced)
    out["service.cache_hit_frac"] = _ratio(hits, hits + misses)
    out["service.repeat_frac"] = properties["repeat_frac"]
    hits = sum(r.timed["registry_hits"] for r in traced)
    misses = sum(r.timed["registry_misses"] for r in traced)
    out["service.registry_hit_frac"] = _ratio(hits, hits + misses)
    counters = traced[0].counters
    out["service.recompiles"] = float(
        counters["registry_misses"] - len(workload.schemas)
    )

    ring = "handoffs" in counters
    by_member = list(counters.get("requests_by_member", {}).values())
    out["ring.filtered_frac"] = _ratio(verdicts - served, verdicts)
    out["ring.handoffs"] = float(counters.get("handoffs", 0))
    out["ring.handoff_kb"] = counters.get("handoff_bytes", 0) / 1024.0
    out["ring.compiles_observed"] = float(counters.get("compiles_observed", 0))
    out["ring.member_skew"] = (
        max(by_member) / statistics.fmean(by_member) if by_member else 0.0
    )
    out["ring.batch_ms_p50"] = (
        statistics.median(
            statistics.median(r.norm.latencies_ms) for r in traced
        ) if ring else 0.0
    )
    out["ring.retries"] = float(counters.get("retries", 0))
    if not ring:
        out["ring.client_local_ms_per_doc"] = 0.0

    untraced_rate = statistics.median(r.norm.docs_per_s for r in untraced)
    traced_rate = statistics.median(r.norm.docs_per_s for r in traced)
    out["trace.overhead_frac"] = 1.0 - traced_rate / untraced_rate
    return out


def _rounds(workload: workloads.Workload, layout: procs.Layout,
            until: float, spans: layers.Spans | None, speed: HostSpeed,
            label: str) -> list[workloads.Round]:
    """At least one round, then more while one is likely to end by
    *until* (perf_counter): a round starts only if half a mean round
    still fits, so a run overshoots its seconds by little."""
    done: list[workloads.Round] = []
    started = perf_counter()
    while not done or perf_counter() + (
        (perf_counter() - started) / len(done) / 2
    ) < until:
        r = workload.round(ROOT, RUNDIR, layout.cpu, spans, speed)
        done.append(r)
        print(
            f"round {len(done)} ({label}): raw setup {r.setup_s:.3f} s, "
            f"{r.drive.verdicts} verdicts in {r.wall_s:.3f} s "
            f"({r.raw.docs_per_s:.1f} docs/s), server cpu "
            f"{r.server_cpu_s:.3f} s, client cpu {r.client_cpu_s:.3f} s; "
            f"host slowdown wall {r.speed.wall_slowdown:.3f} cpu "
            f"{r.speed.cpu_slowdown:.3f}; failed {r.drive.failed}",
            flush=True,
        )
    return done


def _counters_repeat(rounds: list[workloads.Round]) -> bool:
    first = workloads.work_counters(rounds[0].counters)
    return all(workloads.work_counters(r.counters) == first for r in rounds)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    # SIGTERM unwinds like an exception, so every round's servers stop.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.chdir(ROOT)
    RUNDIR.mkdir(exist_ok=True)
    layout = procs.plan_layout()
    procs.pin_self(layout.cpu)
    print(f"layout: {json.dumps(layout.as_dict())}", flush=True)

    started = perf_counter()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workloads.cross_check(workload.layer_items(), workload.expected)
    properties = workload.properties()
    properties["coarse_definite_frac"] = workload.coarse_definite_frac()
    print(f"inputs of {args.workload} seed {args.seed} built and checked "
          f"in {perf_counter() - started:.2f} s", flush=True)

    traced: list[workloads.Round] = []
    spans = layers.Spans()
    speed = HostSpeed()
    begin = perf_counter()
    deadline = begin + args.seconds
    untraced = _rounds(
        workload, layout,
        begin + args.seconds / 2 if args.trace else deadline,
        None, speed, "untraced",
    )
    if args.trace:
        traced = _rounds(workload, layout, deadline, spans, speed, "traced")
    every = untraced + traced
    attempted = sum(len(r.drive.answers) for r in every)
    failed = sum(r.drive.failed for r in every)
    counters = every[0].counters
    routes = sum(counters["dispatch"].values())
    properties["registry_capacity"] = counters["registry_capacity"]
    properties["route_split"] = {
        backend: count / routes
        for backend, count in sorted(counters["dispatch"].items())
    }
    print(f"input properties: {json.dumps(properties)}")
    print(f"counters: {json.dumps(counters, sort_keys=True)}")
    print(f"counters repeat across {len(every)} rounds: "
          f"{_counters_repeat(every)}")

    if args.trace:
        frames = [frame for r in traced for frame in r.drive.frames]
        in_process, missing = layers.time_layers(
            workload.layer_items(), workload.schemas, spans, frames
        )
        values = per_layer(workload, properties, untraced, traced,
                           in_process)
        if missing:
            print(f"layers missing from the program (read as 0): {missing}")
        self_ms = spans.self_times_ms()
        requests = sum(len(r.drive.latencies_ms) for r in traced)
        print("self time per traced request (ms): " + json.dumps({
            name: round(total / max(1, requests), 4)
            for name, total in sorted(self_ms.items())
        }))
        spans_path = RUNDIR / f"spans-{args.workload}-{args.seed}.jsonl"
        spans.write(spans_path)
        print(f"spans: {len(spans.records)} written to "
              f"{spans_path.relative_to(ROOT)}")
        names = [m.name for m in catalog.PER_LAYER]
    else:
        values = end_to_end(untraced)
        samples = sum(len(r.drive.latencies_ms) for r in untraced)
        print(f"request latency samples: {samples} over {len(untraced)} "
              "rounds")
        print("median host slowdown over the reference: wall "
              f"{statistics.median(r.speed.wall_slowdown for r in untraced):.3f}"
              ", cpu "
              f"{statistics.median(r.speed.cpu_slowdown for r in untraced):.3f}")
        print("as timed, before dividing by the slowdown: " + json.dumps(
            end_to_end(untraced, raw=True)
        ))
        names = [m.name for m in catalog.END_TO_END]

    for name in names:
        print(f"  {name:32s} {values[name]:14.6f} {_UNITS[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": _UNITS[name]}
            for name in names
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
