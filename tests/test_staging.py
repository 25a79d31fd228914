"""Staged code is complete: every global a staged function loads exists.

``compile_grammar`` compiles the module prelude plus the start rule's
closure and compiles the rest of the generated module on the first
request for another rule (:meth:`CompiledGrammar.stage_all`).  A rule
function missing from the closure would not crash: generated
alternatives map ``NameError`` to failure, so valid input would be
rejected silently.  These tests walk every staged code object, nested
ones included, and require each ``LOAD_GLOBAL`` name to resolve in the
engine's namespace (or among the builtins) for every registry format and
every engine variant a ``Parser`` stages — right after construction and
again after a parse from every top-level rule.
"""

import builtins
import dis
import inspect

import pytest

from engine_matrix import format_sample
from repro import Parser
from repro.core.backends.closures import _FILENAME
from repro.core.errors import BlackboxError
from repro.formats import registry

VARIANTS = ("tree", "elided", "stream", "record_spans")


def _engine(parser, variant):
    if variant == "record_spans":
        return parser._engine(spans=frozenset(parser.grammar.rules))
    return parser._engine(tree=variant != "elided", stream=variant == "stream")


def _codes(code):
    yield code
    for const in code.co_consts:
        if inspect.iscode(const):
            yield from _codes(const)


def unresolved_globals(engine) -> set:
    """``(function, name)`` of each global load the namespace cannot serve."""
    namespace = engine._new_state.__globals__
    missing = set()
    for value in list(namespace.values()):
        code = getattr(inspect.unwrap(value), "__code__", None)
        if code is None or code.co_filename != _FILENAME:
            continue
        for nested in _codes(code):
            for instruction in dis.get_instructions(nested):
                name = instruction.argval
                if (
                    instruction.opname == "LOAD_GLOBAL"
                    and name not in namespace
                    and not hasattr(builtins, name)
                ):
                    missing.add((nested.co_name, name))
    return missing


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("fmt", sorted(registry))
def test_staged_code_is_complete(fmt, variant):
    spec = registry[fmt]
    parser = spec.build_parser()
    engine = _engine(parser, variant)
    assert engine is not None
    assert unresolved_globals(engine) == set()
    sample = format_sample(fmt)
    for rule in parser.grammar.rules:
        try:
            if variant == "stream":
                engine.parse_nonterminal(sample, rule, 0, len(sample))
            elif variant == "record_spans":
                parser.try_parse(sample, start=rule, record_spans={rule})
            else:
                emit = "tree" if variant == "tree" else None
                parser.try_parse(sample, start=rule, emit=emit)
        except BlackboxError:
            pass  # ZIP's Inflate raising on a window that is not deflate data
        assert unresolved_globals(engine) == set(), rule
    assert engine.staged_bytes == len(engine.source)


def test_a_parse_from_the_start_symbol_stages_its_closure_only():
    parser = registry["elf"].build_parser()
    engine = parser._engine()
    assert parser.parse(format_sample("elf")) is not None
    assert engine.staged_bytes < len(engine.source)
    deferred = sorted(set(parser.grammar.rules) - set(engine._entry))
    assert deferred, "every ELF rule is reachable from the start rule"
    # The first request for any other rule stages the rest.
    assert parser.try_parse(b"", start=deferred[0]) is None
    assert engine.staged_bytes == len(engine.source)
    assert set(engine._entry) == set(parser.grammar.rules)


@pytest.mark.parametrize("backend", ["compiled", "interpreted"])
def test_record_spans_stages_everything_before_wrapping(backend):
    # B is unreachable from S: staged after the wrapping, its rule
    # function would record nothing.
    parser = Parser('S -> A[0, 1] ; A -> "a"[0, 1] ; B -> "b"[0, 1] ;', backend=backend)
    _tree, trail = parser.parse(b"b", start="B", record_spans={"B"})
    assert trail == [("B", 0, 1)]
