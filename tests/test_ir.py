"""Tests for ``explain_plan`` (``repro.core.ir``) and ``repro compile --explain``.

**Golden IR dumps** — ``explain_plan`` output for every bundled format is
pinned under ``tests/golden_ir/``.  A refactor that changes what the
analysis decides for a format (rule order, dispatch tables, fuel placement,
term sequences) fails here even when every engine still agrees at runtime.
The CLI path is pinned against the same files.  Regenerate after an
intentional change with::

    PYTHONPATH=src python -m pytest tests/test_ir.py --update-golden

**Dump facts** — every dumped ``rule …:`` line states exactly the memo
mode, fuel placement, right-chain loop, fixed-shape decoder and dispatch
table that ``analyze()`` decided for that rule, and the struct plans the dump shows
are exactly the ones the compiled engines decode with.
"""

import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.compiler import Optimizations, compile_grammar
from repro.core.interpreter import prepare_grammar
from repro.core.ir import analyze, explain_plan
from repro.formats import registry

GOLDEN_IR_DIR = Path(__file__).parent / "golden_ir"


def golden_ir_path(fmt: str) -> Path:
    return GOLDEN_IR_DIR / f"{fmt}.txt"


def format_analysis(fmt: str, optimizations=None):
    spec = registry[fmt]
    return analyze(prepare_grammar(spec.grammar_text), optimizations=optimizations)


def format_dump(fmt: str, optimizations=None) -> str:
    return explain_plan(format_analysis(fmt, optimizations))


# ---------------------------------------------------------------------------
# Golden IR dumps
# ---------------------------------------------------------------------------


class TestGoldenIR:
    @pytest.mark.parametrize("fmt", sorted(registry))
    def test_explain_matches_golden_artifact(self, fmt, update_golden):
        dump = format_dump(fmt).rstrip("\n")
        path = golden_ir_path(fmt)
        if update_golden:
            GOLDEN_IR_DIR.mkdir(exist_ok=True)
            path.write_text(dump + "\n", encoding="utf-8")
            pytest.skip(f"golden IR dump for {fmt} rewritten")
        assert path.exists(), (
            f"missing golden IR dump {path}; generate it with "
            f"`pytest tests/test_ir.py --update-golden`"
        )
        pinned = path.read_text(encoding="utf-8").rstrip("\n")
        assert dump == pinned, (
            f"{fmt}: explain dump diverged from the pinned dump; if the "
            f"change is intentional, re-run with --update-golden"
        )

    def test_explain_is_deterministic(self):
        assert format_dump("dns") == format_dump("dns")

    def test_explain_reflects_disabled_passes(self):
        full = format_dump("dns")
        bare = format_dump("dns", optimizations=Optimizations.none())
        assert full != bare
        assert "first_byte_dispatch=True" in full
        assert "first_byte_dispatch=False" in bare


class TestCliExplain:
    @pytest.mark.parametrize("fmt", sorted(registry))
    def test_cli_explain_matches_golden_artifact(self, fmt, capsys):
        assert main(["compile", "--format", fmt, "--explain"]) == 0
        pinned = golden_ir_path(fmt).read_text(encoding="utf-8")
        assert capsys.readouterr().out == pinned

    def test_cli_explain_no_optimize(self, capsys):
        assert main(["compile", "--format", "dns", "--explain", "--no-optimize"]) == 0
        lines = capsys.readouterr().out.splitlines()
        options = [line for line in lines if line.startswith("options:")]
        assert len(options) == 1
        assert "first_byte_dispatch=False" in options[0].split()


# ---------------------------------------------------------------------------
# Dump facts
# ---------------------------------------------------------------------------

_RULE_LINE = re.compile(r"^ *rule (\S+): (.*)$")


def _expected_rule_lines(analysis):
    """``(path, facts, dispatch)`` per rule, in dump order, from ``analyze()``."""

    def walk(rule, path, toplevel):
        if toplevel:
            facts = [
                f"memo={analysis.memo_modes[rule.name]}",
                "fuel=charged" if rule.name in analysis.recursive else "fuel=free",
            ]
            if rule.name in analysis.chains:
                facts.append("chain")
            shape = analysis.prefix_plans.get((rule.name, 0))
            if len(rule.alternatives) == 1 and shape is not None and shape.full:
                facts.append(f"decoder=struct[{shape.fmt!r}, {shape.needed}B]")
            dispatch = rule.name in analysis.dispatch_plans
        else:
            facts = [
                "memo=local",
                "fuel=charged" if id(rule) in analysis.charges.rules else "fuel=free",
            ]
            dispatch = id(rule) in analysis.local_plans
        yield path, " ".join(facts), dispatch
        for index, alternative in enumerate(rule.alternatives):
            for local in alternative.local_rules:
                yield from walk(local, f"{path}/a{index}/{local.name}", False)

    for name, rule in analysis.grammar.rules.items():
        yield from walk(rule, name, True)


def _dumped_rule_lines(dump: str):
    lines = dump.splitlines()
    for index, line in enumerate(lines):
        match = _RULE_LINE.match(line)
        if match:
            following = lines[index + 1] if index + 1 < len(lines) else ""
            dispatch = following.strip().startswith("dispatch:")
            yield match.group(1), match.group(2), dispatch


class TestPlanStructure:
    @pytest.mark.parametrize("fmt", sorted(registry))
    def test_plan_carries_its_grammar_and_analysis(self, fmt):
        grammar = prepare_grammar(registry[fmt].grammar_text)
        analysis = analyze(grammar)
        assert analysis.grammar is grammar
        dump = explain_plan(analysis)
        assert dump.splitlines()[0] == f"start: {grammar.start}"
        toplevel = [
            name for name, _, _ in _dumped_rule_lines(dump) if "/" not in name
        ]
        assert toplevel == list(grammar.rules)
        # The dump renders the caller's analysis, not a fresh default one.
        bare = analyze(grammar, optimizations=Optimizations.none())
        assert bare.grammar is grammar
        options = explain_plan(bare).splitlines()[1].split()
        assert "first_byte_dispatch=False" in options
        assert "bulk_fixed_shape=False" in options

    @pytest.mark.parametrize("fmt", sorted(registry))
    def test_rule_facts_follow_the_analysis(self, fmt):
        analysis = format_analysis(fmt)
        dump = explain_plan(analysis)
        assert dump.splitlines()[0] == f"start: {analysis.grammar.start}"
        assert list(_dumped_rule_lines(dump)) == list(_expected_rule_lines(analysis))

    @pytest.mark.parametrize("fmt", sorted(registry))
    def test_lowering_is_deterministic(self, fmt):
        # Two independent front-end runs (analysis, then rendering) produce
        # the same dump.
        assert format_dump(fmt) == format_dump(fmt)


def _dumped_struct_plans(dump: str):
    """Rules with a struct-plan ``alt`` line, and elements of ``bulk=`` arrays."""
    shaped, bulk = set(), set()
    rule = None
    for line in dump.splitlines():
        match = _RULE_LINE.match(line)
        if match:
            rule = match.group(1)
        elif line.lstrip().startswith("alt ") and ": struct " in line:
            shaped.add(rule)
        elif " bulk=" in line:
            bulk.add(line.split(" do ")[1].split()[0])
    return shaped, bulk


class TestStructPlans:
    @pytest.mark.parametrize("stream", [False, True], ids=["batch", "stream"])
    @pytest.mark.parametrize("fmt", sorted(registry))
    def test_explain_shows_the_engine_plans(self, fmt, stream):
        grammar = prepare_grammar(registry[fmt].grammar_text)
        engine = compile_grammar(grammar, stream=stream)
        dump = explain_plan(analyze(grammar, stream=stream))
        shaped, bulk = _dumped_struct_plans(dump)
        assert shaped == engine.shaped_rules
        assert bulk == engine.bulk_arrays
