"""Tests for the benchmark gates (``tools/bench_gate.py``).

The compiler gate compares a measured ``bench_compiler_speedup.py`` report
with the committed ``BENCH_compiler.json``.  It must be able to fail: a
regressed median fails, and so does a median that is committed but was
not measured — a benchmark that silently stops reporting a metric must
not pass by omission.  The ``--service-floor`` gate fails the same ways:
on a low throughput ratio, on an incorrect run and on a missing metric.
The ``--limits-smoke`` gate fails when a workload's charges per parse on
either engine differ from the pinned count.  The ``--staging-smoke`` gate
fails on whole-module staging and on an eager diagnosis or streaming
import.
"""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench_gate():
    spec = importlib.util.spec_from_file_location(
        "bench_gate", REPO_ROOT / "tools" / "bench_gate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def baseline(bench_gate):
    return {key: 4.0 for key, _ in bench_gate.GATED_MEDIANS}


def _run_gate(bench_gate, tmp_path, current, baseline, tolerance=0.30):
    current_path = tmp_path / "current.json"
    baseline_path = tmp_path / "baseline.json"
    current_path.write_text(json.dumps(current), encoding="utf-8")
    baseline_path.write_text(json.dumps(baseline), encoding="utf-8")
    return bench_gate.gate(str(current_path), str(baseline_path), tolerance)


def test_passes_at_the_baseline(bench_gate, baseline, tmp_path):
    assert _run_gate(bench_gate, tmp_path, dict(baseline), baseline) == 0


def test_fails_when_a_gated_median_is_below_the_floor(
    bench_gate, baseline, tmp_path, capsys
):
    current = dict(baseline, median_speedup=4.0 * 0.69)  # floor is 4.0 * 0.70
    assert _run_gate(bench_gate, tmp_path, current, baseline) == 1
    assert "REGRESSION" in capsys.readouterr().out


@pytest.mark.parametrize("key", ["median_speedup", "aot_median_speedup"])
def test_fails_when_a_committed_median_is_not_measured(
    bench_gate, baseline, tmp_path, capsys, key
):
    current = dict(baseline)
    del current[key]
    assert _run_gate(bench_gate, tmp_path, current, baseline) == 1
    assert "MISSING" in capsys.readouterr().out


def test_passes_when_the_baseline_lacks_a_measured_key(
    bench_gate, baseline, tmp_path
):
    trimmed = dict(baseline)
    del trimmed["streaming_median_speedup"]
    assert _run_gate(bench_gate, tmp_path, dict(baseline), trimmed) == 0


def test_every_gated_median_is_committed(bench_gate):
    committed = json.loads((REPO_ROOT / "BENCH_compiler.json").read_text())
    missing = [key for key, _ in bench_gate.GATED_MEDIANS if key not in committed]
    assert not missing, f"gated medians the gate could never check: {missing}"


# ---------------------------------------------------------------------------
# --service-floor: service-mixed docs/s against fig13-tree docs/s
# ---------------------------------------------------------------------------


def _result_line(docs_per_s, correct=True):
    metrics = {}
    if docs_per_s is not None:
        metrics["docs_per_s"] = {"value": docs_per_s, "unit": "1/s"}
    return json.dumps(
        {"correct": correct, "attempted": 10, "failed": 0, "metrics": metrics}
    )


def _run_floor(bench_gate, tmp_path, fig_line, svc_line):
    fig_path = tmp_path / "fig.json"
    svc_path = tmp_path / "svc.json"
    # The gate reads the last line: a whole saved run works as well.
    fig_path.write_text("# meta {}\n" + fig_line + "\n", encoding="utf-8")
    svc_path.write_text(svc_line + "\n", encoding="utf-8")
    return bench_gate.service_floor(str(fig_path), str(svc_path))


def test_service_floor_passes_above_the_floor(bench_gate, tmp_path, capsys):
    fig = 1000.0
    svc = fig * bench_gate.SERVICE_FLOOR * 1.01
    assert _run_floor(bench_gate, tmp_path, _result_line(fig), _result_line(svc)) == 0
    assert "service-floor: passed" in capsys.readouterr().out


def test_service_floor_fails_below_the_floor(bench_gate, tmp_path, capsys):
    fig = 1000.0
    svc = fig * bench_gate.SERVICE_FLOOR * 0.99
    assert _run_floor(bench_gate, tmp_path, _result_line(fig), _result_line(svc)) == 1
    assert "REGRESSION" in capsys.readouterr().out


@pytest.mark.parametrize("wrong", ["fig", "svc"])
def test_service_floor_fails_on_an_incorrect_run(bench_gate, tmp_path, wrong):
    fig = _result_line(1000.0, correct=wrong != "fig")
    svc = _result_line(900.0, correct=wrong != "svc")
    assert _run_floor(bench_gate, tmp_path, fig, svc) == 1


@pytest.mark.parametrize("missing", ["fig", "svc"])
def test_service_floor_fails_on_a_missing_metric(
    bench_gate, tmp_path, capsys, missing
):
    fig = _result_line(None if missing == "fig" else 1000.0)
    svc = _result_line(None if missing == "svc" else 900.0)
    assert _run_floor(bench_gate, tmp_path, fig, svc) == 1
    assert "MISSING" in capsys.readouterr().out


def test_limits_charges_are_pinned_on_both_engines(bench_gate, capsys):
    measured = {
        fmt: bench_gate.measure_charges(fmt, build())
        for fmt, build in bench_gate._limits_cases().items()
    }
    assert set(measured) == set(bench_gate.LIMITS_CHARGES)
    assert bench_gate.check_charges(measured) == []
    assert "CHANGED" not in capsys.readouterr().out


@pytest.mark.parametrize("engine", ["compiled", "interpreted"])
def test_limits_charges_fail_when_a_count_changes(bench_gate, capsys, engine):
    measured = {
        fmt: {"compiled": count, "interpreted": count}
        for fmt, count in bench_gate.LIMITS_CHARGES.items()
    }
    assert bench_gate.check_charges(measured) == []
    measured["pdf"][engine] -= 1
    assert bench_gate.check_charges(measured) == ["pdf"]
    assert "CHANGED" in capsys.readouterr().out
    del measured["dns"]
    assert bench_gate.check_charges(measured) == ["dns", "pdf"]


# ---------------------------------------------------------------------------
# --staging-smoke: what a fresh process compiles and imports
# ---------------------------------------------------------------------------


def _staging_docs(bench_gate):
    from engine_matrix import format_sample

    return {fmt: format_sample(fmt) for fmt in bench_gate.STAGING_SHARES}


def test_staging_smoke_passes(bench_gate, capsys):
    assert bench_gate.staging_smoke() == 0
    assert "REGRESSION" not in capsys.readouterr().out


def test_whole_module_staging_fails_the_staging_gate(
    bench_gate, monkeypatch, capsys
):
    # Stage every block up front, as parsers did before start-closure
    # staging: every format then exceeds its committed share.
    from repro.core.backends.closures import _GrammarCompiler

    def whole(compiler, start):
        source = "".join(text for _owner, text in compiler.blocks)
        return source, None, len(source)

    monkeypatch.setattr(_GrammarCompiler, "split", whole)
    report = bench_gate.measure_staging(_staging_docs(bench_gate))
    assert all(share == 1.0 for share in report["shares"].values())
    report["modules"] = []
    assert bench_gate.check_staging(report) == list(bench_gate.STAGING_SHARES)
    assert "REGRESSION" in capsys.readouterr().out


def test_an_eager_import_fails_the_staging_gate(bench_gate):
    report = bench_gate.measure_staging(_staging_docs(bench_gate))
    report["modules"] = ["repro.core.streaming"]
    assert bench_gate.check_staging(report) == ["repro.core.streaming"]
    del report["shares"]["pdf"]
    assert bench_gate.check_staging(report) == ["repro.core.streaming", "pdf"]
