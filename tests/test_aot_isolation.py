"""Emitted parsers import and parse with only the standard library.

Writes standalone DNS and ZIP modules and one parser package of both to a
temporary directory and runs them in a ``python -I`` subprocess, through
the same emitter and isolated runner as ``tools/aot_smoke.py``.  Inside
the subprocess ``repro`` must not be importable; every module must parse
its sample and reject a truncated one, the standalone DNS module must
give the batch tree when fed 7-byte chunks, and ZIP must parse with a
stdlib ``Inflate`` that returns a duck-typed result.
"""

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _aot_smoke():
    spec = importlib.util.spec_from_file_location(
        "aot_smoke", REPO_ROOT / "tools" / "aot_smoke.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_standalone_and_package_parse_without_repro(tmp_path):
    aot_smoke = _aot_smoke()
    aot_smoke.emit(str(tmp_path), formats=("dns", "zip"))
    completed = aot_smoke.run_isolated(
        str(tmp_path), capture_output=True, text=True, timeout=300
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    ok = [line for line in completed.stdout.splitlines() if line.startswith("ok ")]
    labels = {line.split(":")[0].split(None, 1)[1] for line in ok}
    assert labels == {
        "dns (dns_parser)",
        "dns (ipg_parsers.dns)",
        "zip (zip_parser)",
        "zip (ipg_parsers.zip)",
    }
    assert any(
        line.startswith("ok   dns (dns_parser)") and "streamed(" in line for line in ok
    )
