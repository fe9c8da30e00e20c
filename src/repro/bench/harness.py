"""Benchmark harness utilities.

The paper publishes no measured tables (it argues complexity analytically),
so each benchmark in ``benchmarks/`` regenerates the corresponding *claim*
as a measured table: the helpers here time callables robustly, render
aligned tables the way the paper's prose states its results ("linear in
n", "O(1)", "general CFG parsing is impractical"), and fit power laws so
the claimed exponents are checked numerically rather than eyeballed.

Checkers used in benchmarks are sourced from the process-wide schema
registry via :func:`checker_for`, so timing loops measure *checking*, not
accidental per-iteration schema recompilation; the cold-compilation cost
itself is measured explicitly by the E10 batch-throughput benchmark.

The served benchmarks run real ``python -m repro serve`` processes:
:func:`spawn_server` starts one and returns once it accepts connections,
and :func:`stop_servers` ends them.
"""

from __future__ import annotations

import math
import os
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

__all__ = [
    "time_callable",
    "interleaved_best",
    "Table",
    "fit_power_law",
    "checker_for",
    "throughput",
    "spawn_server",
    "stop_servers",
]


def checker_for(dtd, algorithm: str = "machine"):
    """A :class:`~repro.core.pv.PVChecker` for *dtd* — the benchmark-facing
    name for plain construction, which already resolves through the default
    schema registry (so timing loops never recompile per iteration).
    """
    from repro.core.pv import PVChecker

    return PVChecker(dtd, algorithm=algorithm)


def throughput(count: int, seconds: float) -> float:
    """Documents (or tokens, nodes, ...) per second; inf for zero time."""
    return count / seconds if seconds > 0 else math.inf


def time_callable(
    fn: Callable[[], object],
    repeat: int = 5,
    warmup: int = 1,
) -> float:
    """Best-of-*repeat* wall time of ``fn()`` in seconds (after warmup runs)."""
    for _ in range(warmup):
        fn()
    best = math.inf
    for _ in range(repeat):
        started = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - started
        best = min(best, elapsed)
    return best


def interleaved_best(
    workloads: dict[str, Callable[[], object]], rounds: int
) -> dict[str, float]:
    """Best-of-*rounds* seconds per workload, alternating within each round.

    Interleaving means a slow patch on the box hits every workload of that
    round equally instead of biasing whichever happened to run then.
    """
    for fn in workloads.values():  # one untimed warmup apiece
        fn()
    best = {name: math.inf for name in workloads}
    for _ in range(rounds):
        for name, fn in workloads.items():
            started = time.perf_counter()
            fn()
            best[name] = min(best[name], time.perf_counter() - started)
    return best


def spawn_server(unix_path: str, *flags: str) -> subprocess.Popen:
    """One ``python -m repro serve`` subprocess on the Unix socket *unix_path*.

    *flags* are extra ``serve`` flags.  The child imports this checkout's
    ``repro``; output is discarded.  Returns once the socket accepts a
    connection; raises :class:`RuntimeError` if the process exits first
    or does not bind within 30 s.
    """
    env = dict(os.environ)
    src_dir = str(Path(__file__).resolve().parents[2])  # holds the repro package
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--no-tcp", "--unix", unix_path,
         *flags],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise RuntimeError(
                f"server exited with {process.returncode} before binding"
            )
        if os.path.exists(unix_path):
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.connect(unix_path)
                return process
            except OSError:
                pass
            finally:
                probe.close()
        time.sleep(0.02)
    process.terminate()
    process.wait(timeout=10)
    raise RuntimeError(f"server on {unix_path} did not come up in time")


def stop_servers(processes: Iterable[subprocess.Popen]) -> None:
    """Terminate every process still running, then reap them all."""
    processes = list(processes)
    for process in processes:
        if process.poll() is None:
            process.terminate()
    for process in processes:
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:  # pragma: no cover - last resort
            process.kill()
            process.wait(timeout=10)


@dataclass
class Table:
    """A fixed-column text table printed the way EXPERIMENTS.md records results."""

    title: str
    columns: Sequence[str]
    rows: list[Sequence[object]] = field(default_factory=list)

    def add_row(self, *values: object) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} values, got {len(values)}"
            )
        self.rows.append(values)

    def render(self) -> str:
        header = [str(column) for column in self.columns]
        body = [[_format(value) for value in row] for row in self.rows]
        widths = [
            max(len(header[i]), *(len(row[i]) for row in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        lines = [self.title, "-" * len(self.title)]
        lines.append("  ".join(header[i].ljust(widths[i]) for i in range(len(header))))
        lines.append("  ".join("-" * widths[i] for i in range(len(header))))
        for row in body:
            lines.append("  ".join(row[i].rjust(widths[i]) for i in range(len(row))))
        return "\n".join(lines)

    def print(self) -> None:
        print()
        print(self.render())
        print()


def _format(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 100 or magnitude < 0.001:
            return f"{value:.3e}"
        return f"{value:.4f}"
    return str(value)


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log(y) against log(x).

    An empirical scaling exponent: ~1.0 confirms "linear in n" (Theorem 4),
    ~0.0 confirms "O(1)" (Proposition 3), and the Earley baseline lands
    visibly above both.
    """
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two paired samples")
    log_x = [math.log(x) for x in xs]
    log_y = [math.log(max(y, 1e-12)) for y in ys]
    n = len(log_x)
    mean_x = sum(log_x) / n
    mean_y = sum(log_y) / n
    numerator = sum((lx - mean_x) * (ly - mean_y) for lx, ly in zip(log_x, log_y))
    denominator = sum((lx - mean_x) ** 2 for lx in log_x)
    return numerator / denominator
