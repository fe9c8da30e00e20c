"""Self-checks of the served benchmark.

Run from the repository root (the tier-1 suite does not collect them)::

    python -m pytest servebench -q

A short run of each workload, made twice with one seed, must fail no
operation and reproduce every work counter exactly: verdict-cache hits,
registry misses and evictions, hand-offs, ``coarse_filtered`` and the
dispatch counts.  Those are the counts a fixed request sequence against
fresh servers pins down; if one drifts, the workload stopped being
fixed work and its timings stopped being comparable.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import metrics  # noqa: E402
import workloads  # noqa: E402
from hostspeed import REFERENCE_SLICE_S, HostSpeed, Tally  # noqa: E402
from layers import Spans  # noqa: E402

RUN_TIMEOUT_S = 300
SEED = 3


def _run(cwd: Path, workload: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "servebench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )


def _work_counters(stdout: str) -> dict:
    for line in stdout.splitlines():
        if line.startswith("counters: "):
            return workloads.work_counters(json.loads(line[len("counters: "):]))
    raise AssertionError("no counters line in the benchmark output")


def test_benchmark_json_is_the_catalog():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == metrics.benchmark_json()


@pytest.mark.parametrize("workload", [w.name for w in metrics.WORKLOADS])
def test_short_runs_fail_nothing_and_repeat_their_counters(workload):
    results = [_run(ROOT, workload) for _ in range(2)]
    counters = []
    for result in results:
        assert result.returncode == 0, result.stdout[-2000:] + result.stderr
        summary = json.loads(result.stdout.strip().splitlines()[-1])
        assert summary["correct"] is True
        assert summary["failed"] == 0
        assert summary["attempted"] > 0
        assert set(summary["metrics"]) == {m.name for m in metrics.END_TO_END}
        assert all(entry["value"] > 0 for entry in summary["metrics"].values())
        counters.append(_work_counters(result.stdout))
    assert counters[0] == counters[1]


def test_run_without_the_program_fails_cleanly(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "servebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = _run(tmp_path, "bulk-unique")
    assert result.returncode != 0
    assert '"metrics"' not in result.stdout


def test_span_self_time_subtracts_child_cover():
    spans = Spans()
    origin = spans._origin
    parent = spans.add("client", origin, origin + 0.010, request="r")
    child = spans.add("server", origin + 0.001, origin + 0.007, parent, "r")
    spans.add("server.verdict", origin + 0.002, origin + 0.006, child, "r")
    spans.add("in-process layer", origin, origin + 0.5)
    self_ms = spans.self_times_ms()
    assert self_ms["client"] == pytest.approx(4.0)
    assert self_ms["server"] == pytest.approx(2.0)
    assert self_ms["server.verdict"] == pytest.approx(4.0)
    assert "in-process layer" not in self_ms


def test_round_figures_divide_by_the_host_slowdown():
    # Slices ran twice as long as on the reference host by the wall
    # clock, and 1.5 times as long in CPU time (the rest was steal).
    speed = Tally(10, 20 * REFERENCE_SLICE_S, 15 * REFERENCE_SLICE_S)
    drive = workloads.Drive(verdicts=100, latencies_ms=[4.0, 8.0])
    r = workloads.Round(
        setup_s=0.6, wall_s=0.5, server_cpu_s=0.3, client_cpu_s=0.03,
        rss_mb=30.0, drive=drive, counters={}, timed={}, speed=speed,
    )
    assert r.raw.docs_per_s == pytest.approx(200.0)
    assert r.norm.docs_per_s == pytest.approx(400.0)
    assert r.norm.setup_s == pytest.approx(0.3)
    assert r.norm.latencies_ms == pytest.approx([2.0, 4.0])
    assert r.norm.server_cpu_s == pytest.approx(0.2)
    assert r.norm.client_cpu_s == pytest.approx(0.02)


def test_host_speed_tallies_only_the_slices_since_a_mark():
    speed = HostSpeed()
    speed.sample(3)
    mark = speed.mark()
    speed.sample(5)
    since = speed.since(mark)
    assert since.slices == 5
    assert 0 < since.cpu_s and 0 < since.wall_s < speed.total.wall_s
    assert since.wall_slowdown > 0
