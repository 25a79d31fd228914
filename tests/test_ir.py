"""Tests for the plan IR layer (``repro.core.ir``).

**Golden IR dumps** — ``explain_plan`` output for every bundled format is
pinned under ``tests/golden_ir/``.  A refactor that changes what the front
end lowers a format to (rule order, dispatch tables, fuel placement, op
sequences) fails here even when every engine still agrees at runtime.
Regenerate after an intentional change with::

    PYTHONPATH=src python -m pytest tests/test_ir.py --update-golden

**Plan structure** — a lowered plan always carries the grammar and the
analysis it came from, and every rule's memo/fuel/decoder/dispatch facts
are the analysis's.  ``explain_plan`` and the backends read those facts
straight from ``plan.analysis``.
"""

from pathlib import Path

import pytest

from repro.core.compiler import Optimizations
from repro.core.interpreter import prepare_grammar
from repro.core.ir import analyze, explain_plan, lower
from repro.formats import registry

GOLDEN_IR_DIR = Path(__file__).parent / "golden_ir"


def golden_ir_path(fmt: str) -> Path:
    return GOLDEN_IR_DIR / f"{fmt}.txt"


def format_plan(fmt: str, optimizations=None):
    spec = registry[fmt]
    return lower(prepare_grammar(spec.grammar_text), optimizations=optimizations)


# ---------------------------------------------------------------------------
# Golden IR dumps
# ---------------------------------------------------------------------------


class TestGoldenIR:
    @pytest.mark.parametrize("fmt", sorted(registry))
    def test_explain_matches_golden_artifact(self, fmt, update_golden):
        dump = explain_plan(format_plan(fmt)).rstrip("\n")
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
            f"{fmt}: lowered plan IR diverged from the pinned dump; if the "
            f"change is intentional, re-run with --update-golden"
        )

    def test_explain_is_deterministic(self):
        assert explain_plan(format_plan("dns")) == explain_plan(format_plan("dns"))

    def test_explain_reflects_disabled_passes(self):
        full = explain_plan(format_plan("dns"))
        bare = explain_plan(format_plan("dns", optimizations=Optimizations.none()))
        assert full != bare
        assert "first_byte_dispatch=True" in full
        assert "first_byte_dispatch=False" in bare


# ---------------------------------------------------------------------------
# Plan structure
# ---------------------------------------------------------------------------


def _walk_rules(rules):
    for rule in rules:
        yield rule
        for alt in rule.alts:
            yield from _walk_rules(alt.locals)


class TestPlanStructure:
    @pytest.mark.parametrize("fmt", sorted(registry))
    def test_plan_carries_its_grammar_and_analysis(self, fmt):
        grammar = prepare_grammar(registry[fmt].grammar_text)
        plan = lower(grammar)
        assert plan.grammar is grammar
        assert plan.analysis.grammar is grammar
        assert plan.start == grammar.start
        assert list(plan.rules) == list(grammar.rules)
        # A caller-supplied analysis is reused, not recomputed.
        analysis = analyze(grammar, optimizations=Optimizations.none())
        assert lower(grammar, analysis=analysis).analysis is analysis

    @pytest.mark.parametrize("fmt", sorted(registry))
    def test_rule_facts_follow_the_analysis(self, fmt):
        plan = format_plan(fmt)
        analysis = plan.analysis
        for name, rule in plan.rules.items():
            assert rule.memo == analysis.memo_modes[name]
            assert rule.fuel == (name in analysis.recursive)
            assert rule.decoder == (name in analysis.full_shapes)
            assert (rule.dispatch is not None) == (name in analysis.dispatch_plans)
        for rule in _walk_rules(plan.rules.values()):
            if rule.dispatch is not None:
                assert len(rule.dispatch.table) == 256
                assert rule.dispatch.alternatives == len(rule.alts)

    @pytest.mark.parametrize("fmt", sorted(registry))
    def test_lowering_is_deterministic(self, fmt):
        # Two independent front-end runs lower to the same dump.
        assert explain_plan(format_plan(fmt)) == explain_plan(format_plan(fmt))
