"""Right chains: the closure backend runs them as loops, not recursion.

A right chain (:func:`repro.core.ir.right_chains`) is a rule whose one
self-calling alternative ends in ``R[e, EOI]`` and provably advances:
PDF's ``ObjBody`` and ``Num``, DNS's ``Name``, GIF's ``Blocks`` and
``SubBlocks``.  Batch compilations with ``inline_single_use`` run each as
one forward loop over its levels plus one backward loop finishing them,
so their depth no longer costs Python frames.  This file checks

* that the loops need no frame per element: long PDF object bodies and
  DNS names parse under a recursion limit of 500 on the compiled tree and
  elided engines and the emitted module, with the interpreter's tree;
* the loop semantics against the interpreter on generated chain grammars:
  the step first, in the middle and last, advancing by a constant or by
  ``X.end``, attribute definitions and guards after the self-call,
  evaluation errors on both sides of it, a later alternative that
  succeeds only when the inner chain fails, memo hits in the middle of a
  chain, dense and ``(lo, hi)`` memo tables, memoization on and off,
  every ``Optimizations`` combination, tree and elided engines, truncated
  inputs and failure classes;
* that a step the analysis cannot prove advancing stays recursive.

Trees compare through :func:`_flat`, an iterative walk: ``Node.__eq__``
and nested ``dict`` equality recurse once per chain level.
"""

from __future__ import annotations

import itertools
import random
import sys

import pytest

from engine_matrix import load_aot_module
from repro import Parser, ParseFailure, samples
from repro.core.compiler import Optimizations, compile_grammar
from repro.core.interpreter import FAIL, prepare_grammar
from repro.core.ir import analyze, explain_plan
from repro.core.parsetree import tree_to_jsonable
from repro.core.runtime import _guarded
from repro.formats import registry

ALL_OPTIMIZATIONS = [
    Optimizations(*flags) for flags in itertools.product((False, True), repeat=3)
]


def _flat(tree):
    """The jsonable form of ``tree`` as a flat preorder list."""
    out, stack = [], [tree_to_jsonable(tree)]
    while stack:
        item = stack.pop()
        if "node" in item:
            out.append((item["node"], item["env"], len(item["children"])))
            stack.extend(reversed(item["children"]))
        elif "array" in item:
            out.append((item["array"], len(item["elements"])))
            stack.extend(reversed(item["elements"]))
        else:
            out.append(item["leaf"])
    return out


def _chain_rules(grammar_text, **kwargs):
    """Rules whose ``rule`` line in ``--explain`` carries the chain fact."""
    dump = explain_plan(analyze(prepare_grammar(grammar_text), **kwargs))
    return {
        line.split()[1].rstrip(":")
        for line in dump.splitlines()
        if line.startswith("rule ") and line.split()[-1] == "chain"
    }


# ---------------------------------------------------------------------------
# No Python frame per element
# ---------------------------------------------------------------------------


@pytest.fixture
def shallow_stack():
    """A caller recursion limit of 500: the parse guard never lowers it."""
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(500)
    try:
        yield 500
    finally:
        sys.setrecursionlimit(previous)


def _deep_documents():
    pdf = samples.build_pdf(object_count=1, body_padding=2000)[0]
    dns = samples.build_dns_query(".".join(["a"] * 1500))
    return [("pdf", pdf), ("dns", dns)]


@pytest.mark.parametrize("fmt,data", _deep_documents(), ids=["pdf", "dns"])
def test_long_chains_parse_without_a_frame_per_element(fmt, data, shallow_stack):
    spec = registry[fmt]
    reference = Parser(spec.grammar_text, backend="interpreted").parse(data)
    parser = Parser(spec.grammar_text, recursion_limit=shallow_stack)
    assert parser.backend == "compiled"
    module = load_aot_module(spec.grammar_text)
    module._RECURSION_LIMIT = shallow_stack
    assert _flat(parser.parse(data)) == _flat(reference)
    assert parser.parse(data, emit="spans").env == reference.env
    assert parser.parse(data, emit=None) is True
    assert _flat(module.parse(data)) == _flat(reference)
    # The chains really are that long: the recursion they replace needs
    # more frames than the limit allows.
    recursive = Parser(spec.grammar_text, recursion_limit=shallow_stack)
    recursive._engines[(True, False, None)] = compile_grammar(
        spec.grammar_text, optimizations=Optimizations(inline_single_use=False)
    )
    with pytest.raises(ParseFailure) as info:
        recursive.parse(data)
    assert info.value.limit == "recursion"


def test_bundled_chains():
    found = {fmt: _chain_rules(spec.grammar_text) for fmt, spec in registry.items()}
    assert found == {
        "dns": {"Name"},
        "elf": set(),
        "gif": {"Blocks", "SubBlocks"},
        "ipv4": set(),
        "pdf": {"Num", "ObjBody"},
        "pe": set(),
        "zip": set(),
        "zip-meta": set(),
    }


def test_stream_and_uninlined_compilations_keep_the_recursion():
    text = registry["pdf"].grammar_text
    assert _chain_rules(text, stream=True) == set()
    assert _chain_rules(text, optimizations=Optimizations.none()) == set()
    for engine in (
        compile_grammar(text, stream=True),
        compile_grammar(text, memoize=False, optimizations=Optimizations.none()),
    ):
        # Each level calls the rule function again.
        assert "_r13_ObjBody(st, data, lo + 1," in engine.source


# ---------------------------------------------------------------------------
# Generated chain grammars against the interpreter
# ---------------------------------------------------------------------------

#: Chain elements: ``E`` advances by the constant 1, ``I`` by ``I.end``
#: (a length byte 1-3 and that many bytes).
_ELEMENTS = """
E -> "a"[0, 1] {v = 1} / "b"[0, 1] {v = 2} / "c"[0, 1] {v = 3} ;
I -> U8[0, 1] {n = U8.val} guard(n > 0 && n < 4) Raw[1, 1 + n] {v = n} ;
"""


def _chain_grammar(position: str, advance: str, suffix: str, anchored: bool) -> str:
    """A chain rule ``R`` with its step first, in the middle or last."""
    if advance == "const":
        element, call = "E[0, 1]", "R[1, EOI]"
        single = "E[0, 1] {val = E.v}"
        name, lead = "E", "ab"
    else:
        element, call = "I[0, EOI]", "R[I.end, EOI]"
        single = "I[0, EOI] {val = I.v}"
        name, lead = "I", "\\x01a"
    # ``P`` matches the two bytes a step (or two) consumes, parses R after
    # them and then may fail: the step tried next meets R's memo entry.
    if suffix == "none":
        step = f"{element} {call}"
        reentry = f'P -> "{lead}"[0, 2] R[2, EOI] {{val = 5}} guard(R.end < 3) ;'
    else:
        reentry = f'P -> "{lead}"[0, 2] R[2, EOI] {{val = R.val + 5}} guard(val < 9) ;'
        # An evaluation error on each side of the self-call, then
        # attributes and a guard over the inner result.
        step = (
            f"{element} {{w = 6 / ({name}.v - 3)}} {call} "
            f"{{val = {name}.v + R.val}} guard(val < 9) {{q = 12 / (R.val - 4)}}"
        )
    dot = '"."[0, 1] {val = 0}'
    indirect = "P[0, EOI] {val = P.val}"
    alternatives = {
        # The later alternative is the step's own element alone: it
        # succeeds exactly where the inner chain (or the suffix) fails.
        "first": [step, single, dot],
        # ``P`` re-enters R two bytes on: the chain then meets a memo hit.
        "middle": [indirect, step, single, dot],
        "last": [dot, indirect, step],
    }[position]
    start = "" if anchored else 'S -> R[0, EOI - 1] "!"[EOI - 1, EOI] ;\n'
    rules = "R -> " + "\n   / ".join(alternatives) + " ;\n" + reentry
    return start + rules + _ELEMENTS


_CONFIGS = [
    (position, advance, suffix, anchored)
    for position in ("first", "middle", "last")
    for advance in ("const", "end")
    for suffix, anchored in (("none", True), ("guarded", False))
]


def _inputs(config_index: int, start: str):
    rng = random.Random(config_index)
    alphabet = b"abc.z\x01\x02\x03"
    # Two-step re-entries for ``P`` ("abab.", "\x01a\x01b.") and a mix.
    inputs = {b"", b".", b"aaa.", b"abc.", b"cba", b"abab.", b"\x01a\x01b."}
    inputs.add(b"\x01a\x02bc.")
    inputs |= {
        bytes(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
        for _ in range(30)
    }
    for text in sorted(inputs, key=len)[-4:]:
        inputs |= {text[:cut] for cut in range(len(text))}  # truncations
    if start == "S":
        inputs = {text + b"!" for text in inputs} | inputs
    return sorted(inputs)


def _outcome(engine, data, start, elided):
    result = _guarded(10_000, start, engine.run_nonterminal, data, start, 0, len(data))
    if result is FAIL:
        return None
    return dict(result.env) if elided else _flat(result)


@pytest.mark.parametrize(
    "index,config",
    list(enumerate(_CONFIGS)),
    ids=["-".join(map(str, config)) for config in _CONFIGS],
)
def test_chain_loops_match_the_interpreter(index, config):
    text = _chain_grammar(*config)
    start = "R" if config[3] else "S"
    assert _chain_rules(text) == {"R"}
    interpreter = Parser(text, backend="interpreted")
    compiled = Parser(text)
    inputs = _inputs(index, start)
    expected = {}
    for data in inputs:
        expected[data] = interpreter.try_parse(data, start)
        # Failure classes: both engines raise the diagnosed class at the
        # same offset.
        outcomes = []
        for parser in (interpreter, compiled):
            try:
                outcomes.append(_flat(parser.parse(data, start)))
            except ParseFailure as exc:
                outcomes.append((type(exc), exc.offset))
        assert outcomes[0] == outcomes[1], data
    accepted = sum(tree is not None for tree in expected.values())
    assert 0 < accepted < len(inputs)
    engines = [
        (memoize, options, elided)
        for memoize in (True, False)
        for options in ALL_OPTIMIZATIONS
        for elided in (False, True)
        if not elided or options == Optimizations()
    ]
    for memoize, options, elided in engines:
        engine = compile_grammar(
            text, memoize=memoize, optimizations=options, elide_tree=elided
        )
        looped = options.inline_single_use
        assert ("while _cf is not None:" in engine.source) == looped, (memoize, options)
        for data in inputs:
            tree = expected[data]
            want = None if tree is None else (dict(tree.env) if elided else _flat(tree))
            assert _outcome(engine, data, start, elided) == want, (
                data,
                memoize,
                options,
                elided,
            )
    module = load_aot_module(text)
    for data in inputs:
        got = module.try_parse(data, start)
        tree = expected[data]
        assert (None if got is None else _flat(got)) == (
            None if tree is None else _flat(tree)
        ), data


def _charges(engine, data, start):
    """Fuel one parse spends: read back from its state's fuel cell."""
    state = engine.new_state()
    _guarded(10_000, start, engine.run_nonterminal, data, start, 0, len(data), state)
    cell = state[engine.fuel_slot]
    return engine.limits.max_steps - (cell[0] + cell[1])


@pytest.mark.parametrize("memoize", [True, False], ids=["memo", "nomemo"])
def test_chain_loops_charge_what_the_recursion_charged(memoize):
    # Only recursive rules and element loops charge, so the compilation
    # that never inlines (nor loops) charges exactly the same: a level the
    # loop re-parses instead of replaying its memo entry would show here.
    for index, config in enumerate(_CONFIGS):
        text = _chain_grammar(*config)
        start = "R" if config[3] else "S"
        looped = compile_grammar(text, memoize=memoize)
        recursive = compile_grammar(
            text, memoize=memoize, optimizations=Optimizations(inline_single_use=False)
        )
        for data in _inputs(index, start):
            assert _charges(looped, data, start) == _charges(recursive, data, start), (
                config,
                data,
            )


#: ``O`` may match empty, so ``O.end`` does not prove the step advances:
#: the guard does, which the analysis does not read.
_NOT_ADVANCING = """
R -> O[0, EOI] guard(O.end > 0) R[O.end, EOI] {val = R.val + 1}
   / "."[0, 1] {val = 0} ;
O -> "a"[0, 1] / ""[0, 0] ;
"""


def test_a_step_not_proven_to_advance_stays_recursive():
    assert _chain_rules(_NOT_ADVANCING) == set()
    engine = compile_grammar(_NOT_ADVANCING)
    assert "while _cf is not None:" not in engine.source
    interpreter = Parser(_NOT_ADVANCING, backend="interpreted")
    compiled = Parser(_NOT_ADVANCING)
    for data in (b".", b"aaa.", b"aab.", b"", b"b."):
        want = interpreter.try_parse(data, "R")
        got = compiled.try_parse(data, "R")
        assert (got is None) == (want is None)
        if want is not None:
            assert _flat(got) == _flat(want)
