"""Tests for the benchmark harness utilities."""

from __future__ import annotations

import pytest

from repro.bench.harness import (
    Table,
    fit_power_law,
    interleaved_best,
    spawn_server,
    stop_servers,
    time_callable,
)
from repro.bench.scenarios import degraded_document, valid_document
from repro.dtd import catalog
from repro.validity.validator import DTDValidator


class TestTimeCallable:
    def test_returns_positive_time(self):
        elapsed = time_callable(lambda: sum(range(1000)), repeat=2, warmup=1)
        assert elapsed > 0

    def test_takes_best_of_repeats(self):
        calls = []

        def fn():
            calls.append(1)

        time_callable(fn, repeat=3, warmup=2)
        assert len(calls) == 5


class TestInterleavedBest:
    def test_one_warmup_then_alternating_rounds(self):
        calls: list[str] = []
        best = interleaved_best(
            {"a": lambda: calls.append("a"), "b": lambda: calls.append("b")},
            rounds=3,
        )
        assert calls == ["a", "b"] * 4
        assert set(best) == {"a", "b"}
        assert all(0 <= seconds < 1 for seconds in best.values())


class TestServeProcesses:
    def test_spawned_server_answers_until_stopped(self, tmp_path):
        from repro.server.client import ValidationClient

        path = str(tmp_path / "pv.sock")
        process = spawn_server(path, "--verdict-cache", "8")
        try:
            with ValidationClient.connect_unix(path) as client:
                stats = client.stats()["server"]
            assert stats["verdict_cache"] is not None  # the extra flag took
        finally:
            stop_servers([process])
        assert process.returncode is not None

    def test_server_that_exits_before_binding_raises(self, tmp_path):
        with pytest.raises(RuntimeError, match="exited with 2"):
            spawn_server(str(tmp_path / "pv.sock"), "--ring", "0")


class TestTable:
    def test_render_alignment(self):
        table = Table("Demo", ["name", "value"])
        table.add_row("alpha", 1.5)
        table.add_row("b", 20)
        rendered = table.render()
        lines = rendered.splitlines()
        assert lines[0] == "Demo"
        assert "name" in lines[2] and "value" in lines[2]
        assert len(lines) == 6

    def test_wrong_arity_rejected(self):
        table = Table("Demo", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_float_formatting(self):
        table = Table("Demo", ["x"])
        table.add_row(0.000001234)
        table.add_row(123456.0)
        rendered = table.render()
        assert "1.234e-06" in rendered
        assert "1.235e+05" in rendered or "1.234e+05" in rendered


class TestFitPowerLaw:
    def test_linear_series(self):
        xs = [10, 20, 40, 80]
        ys = [3.0 * x for x in xs]
        assert fit_power_law(xs, ys) == pytest.approx(1.0, abs=1e-9)

    def test_quadratic_series(self):
        xs = [10, 20, 40, 80]
        ys = [0.5 * x * x for x in xs]
        assert fit_power_law(xs, ys) == pytest.approx(2.0, abs=1e-9)

    def test_constant_series(self):
        xs = [10, 20, 40, 80]
        ys = [7.0] * 4
        assert fit_power_law(xs, ys) == pytest.approx(0.0, abs=1e-9)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_power_law([1], [1])


class TestScenarios:
    def test_valid_document_is_valid(self):
        dtd = catalog.play()
        document = valid_document(dtd, 30, seed=3)
        assert DTDValidator(dtd).is_valid(document)

    def test_degraded_document_is_pv_not_valid(self):
        from repro.core.pv import PVChecker

        dtd = catalog.manuscript()
        document = degraded_document(dtd, 40, seed=3, fraction=0.7)
        assert PVChecker(dtd).is_potentially_valid(document)
