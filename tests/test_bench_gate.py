"""Tests for the compiler benchmark gate (``tools/bench_gate.py``).

The gate compares a measured ``bench_compiler_speedup.py`` report with the
committed ``BENCH_compiler.json``.  It must be able to fail: a regressed
median fails, and so does a median that is committed but was not
measured — a benchmark that silently stops reporting a metric must not
pass by omission.
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
