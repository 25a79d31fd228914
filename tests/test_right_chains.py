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
* that a step the analysis cannot prove advancing stays recursive;
* the levels the backward loop shifts in place and the subtrees it
  builds once per loop entry: callers entering a chain mid-way before
  and after the whole chain ran (generated grammars, and PDF objects
  overlapping through their xref table), fixed terms of array elements,
  and fixed subtrees that one tree shares but two parses never do.

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
from repro.samples.pdf import build_pdf_bytes
from repro.core.compiler import Optimizations, compile_grammar
from repro.core.interpreter import FAIL, prepare_grammar
from repro.core.ir import analyze, explain_plan
from repro.core.parsetree import Leaf, Node, tree_to_jsonable
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


# ---------------------------------------------------------------------------
# Levels shifted in place, fixed subtrees built once per loop entry
# ---------------------------------------------------------------------------

#: ``R`` is entered at 1 and, ``k`` bytes on, at ``1 + k``: ``S`` runs the
#: whole chain first, so the second call meets a level the loop shifted
#: in place; ``T`` runs the inner call first, so the outer loop meets the
#: inner call's first level.  ``X`` takes ``R`` at offset 0 (no copy).
#: ``A`` is fixed: the step builds its subtree once per loop entry.
_MIDWAY = """
S -> U8[0, 1] {k = U8.val} R[1, EOI] {a = R.val} X[1 + k, EOI] {b = X.val} {e = X.end} ;
T -> U8[0, 1] {k = U8.val} X[1 + k, EOI] {b = X.val} R[1, EOI] {a = R.val} {e = R.end} ;
X -> R[0, EOI] {val = R.val * 10 + R.start} {s = R.end} ;
R -> "."[0, 1] {val = 0} / STEP ;
"""

_STEPS = {
    # AnyByte-like: one fixed Raw byte per level.
    "raw": ("A[0, 1] R[1, EOI] {val = R.val + 1}", 'A -> Raw[0, 1] ;'),
    # A literal check, a constant attribute and an empty Raw per level.
    "literal": (
        "A[0, 1] R[1, EOI] {val = R.val + A.w}",
        'A -> "a"[0, 1] {w = 2} Raw[1, 1] ;',
    ),
    # Two fixed terms and a two-byte advance.
    "pair": (
        "A[0, 1] B[1, 2] R[2, EOI] {val = R.val + A.w + B.end}",
        'A -> "a"[0, 1] {w = 3} ;\nB -> Raw[0, 1] ;',
    ),
}


def _midway_grammar(step: str, start: str, anchored: bool) -> str:
    body, elements = _STEPS[step]
    text = _MIDWAY.replace("STEP", body) + elements + "\n"
    if not anchored:
        # The chain's memo table is keyed by (lo, hi).
        text = f'W -> {start}[0, EOI - 1] "!"[EOI - 1, EOI] ;\n' + text
    return text


def _midway_inputs(step: str, anchored: bool):
    rng = random.Random(step)
    bodies = [b".", b"a.", b"aa.", b"aaaa.", b"aaaaaaa.", b"abab.", b"aaa", b""]
    bodies += [
        bytes(rng.choice(b"ab.") for _ in range(rng.randint(1, 9))) for _ in range(12)
    ]
    inputs = sorted({bytes([k]) + body for body in bodies for k in range(0, 9)})
    return inputs if anchored else [data + b"!" for data in inputs] + inputs[:20]


_MIDWAY_CONFIGS = [
    (step, start, anchored)
    for step in _STEPS
    for start in ("S", "T")
    for anchored in (True, False)
]


@pytest.mark.parametrize(
    "step,start,anchored",
    _MIDWAY_CONFIGS,
    ids=["-".join(map(str, config)) for config in _MIDWAY_CONFIGS],
)
def test_a_second_caller_entering_a_chain_midway(step, start, anchored):
    text = _midway_grammar(step, start, anchored)
    entry = start if anchored else "W"
    assert _chain_rules(text) == {"R"}
    dump = explain_plan(analyze(prepare_grammar(text)))
    fixed = [line for line in dump.splitlines() if line.endswith(" fixed")]
    assert len(fixed) == (2 if step == "pair" else 1), fixed
    interpreter = Parser(text, backend="interpreted")
    inputs = _midway_inputs(step, anchored)
    expected = {data: interpreter.try_parse(data, entry) for data in inputs}
    accepted = sum(tree is not None for tree in expected.values())
    assert 0 < accepted < len(inputs)
    for memoize, elided in itertools.product((True, False), repeat=2):
        engine = compile_grammar(text, memoize=memoize, elide_tree=elided)
        assert "_own = _v" in engine.source
        for data in inputs:
            tree = expected[data]
            want = None if tree is None else (dict(tree.env) if elided else _flat(tree))
            got = _outcome(engine, data, entry, elided)
            assert got == want, (data, memoize, elided)
    module = load_aot_module(text)
    for data in inputs:
        got, tree = module.try_parse(data, entry), expected[data]
        assert (None if got is None else _flat(got)) == (
            None if tree is None else _flat(tree)
        ), data


def _overlapping_pdf(order):
    """A PDF whose object 2 starts inside object 1's body.

    Object 1's body holds ``2 0 obj`` and both objects end at the same
    ``endobj``.  ``order`` lists the xref entries: ``"outer"`` (object
    1) and ``"inner"`` (the embedded object 2), in parse order.
    """
    body = b"1 0 obj\n<< /Kids [ 2 0 obj\n(inner) ] >>\nendobj\n"
    header = b"%PDF-1.4\n"
    offsets = {"outer": len(header), "inner": len(header) + body.index(b"2 0 obj")}
    out = bytearray(header + body)
    xref = len(out)
    out += b"xref\n0 %d\n0000000000 65535 f \n" % (len(order) + 1)
    for which in order:
        out += b"%010d 00000 n \n" % offsets[which]
    out += b"trailer\n<< /Size %d >>\nstartxref\n%d\n%%%%EOF" % (len(order) + 1, xref)
    return bytes(out)


_PDF_ORDERS = [
    ("outer", "inner"),  # the inner chain meets a level shifted in place
    ("inner", "outer"),  # the outer chain meets the inner chain's first level
    ("outer", "outer"),  # a repeated entry
    ("inner", "outer", "inner", "outer"),
]


@pytest.mark.parametrize("order", _PDF_ORDERS, ids=["-".join(o) for o in _PDF_ORDERS])
def test_overlapping_pdf_objects_match_the_interpreter(order):
    text = registry["pdf"].grammar_text
    data = _overlapping_pdf(order)
    reference = Parser(text, backend="interpreted").parse(data)
    objects = reference.array("Obj").elements
    assert [obj["objnum"] for obj in objects] == [
        1 if which == "outer" else 2 for which in order
    ]
    parser = Parser(text)
    assert parser.backend == "compiled"
    assert _flat(parser.parse(data)) == _flat(reference)
    assert parser.parse(data) == reference
    assert parser.parse(data, emit="spans").env == reference.env
    assert parser.parse(data, emit=None) is True
    for memoize in (True, False):
        elided = compile_grammar(text, memoize=memoize, elide_tree=True)
        assert _outcome(elided, data, "PDF", True) == dict(reference.env)
        engine = compile_grammar(text, memoize=memoize)
        assert _outcome(engine, data, "PDF", False) == _flat(reference)
    assert load_aot_module(text).parse(data) == reference


#: ``E`` is inlined at its ``for`` and never bulk-decoded (its ``Bytes``
#: length depends on the data); ``T[0, EOI]`` keeps a struct prefix from
#: covering its ``P`` and ``Q`` terms, which are fixed.
_FIXED_ELEMENTS = """
S -> U8[0, 1] {n = U8.val} for i = 0 to n do E[1 + 5 * i, 6 + 5 * i] ;
E -> T[0, EOI] P[1, 2] Q[2, 3] U8[3, 4] {v = U8.val + P.w + Q.z}
     Bytes[4, 4 + U8.val % 2] ;
T -> "K"[0, 1] ;
P -> Raw[0, 1] {w = 5} ;
Q -> "Z"[0, 1] {z = 2} Raw[1, 1] ;
"""


def test_fixed_terms_of_array_elements_match_the_interpreter():
    dump = explain_plan(analyze(prepare_grammar(_FIXED_ELEMENTS)))
    fixed = [line.split()[1] for line in dump.splitlines() if line.endswith(" fixed")]
    assert fixed == ["P", "Q"]
    element = b"K?Z\x03x"
    inputs = [bytes([n]) + element * n for n in range(4)]
    inputs += [b"\x02" + element + b"K?Y\x03x", b"\x02" + element + b"K?Z\x02x"]
    inputs += [data[:cut] for data in inputs[:3] for cut in range(len(data))]
    interpreter = Parser(_FIXED_ELEMENTS, backend="interpreted")
    expected = {data: interpreter.try_parse(data) for data in inputs}
    assert 0 < sum(tree is not None for tree in expected.values()) < len(inputs)
    for memoize, options in itertools.product((True, False), ALL_OPTIMIZATIONS):
        for elided in (False, True):
            engine = compile_grammar(
                _FIXED_ELEMENTS,
                memoize=memoize,
                optimizations=options,
                elide_tree=elided,
            )
            assert ("_fe" in engine.source) == options.inline_single_use
            for data in inputs:
                tree = expected[data]
                if tree is None:
                    want = None
                else:
                    want = dict(tree.env) if elided else _flat(tree)
                assert _outcome(engine, data, "S", elided) == want, (data, options)
    module = load_aot_module(_FIXED_ELEMENTS)
    for data in inputs:
        got, tree = module.try_parse(data), expected[data]
        assert (None if got is None else _flat(got)) == (
            None if tree is None else _flat(tree)
        ), data


def _named(tree, name):
    """The ``name`` nodes of ``tree``, by an iterative preorder walk."""
    found, stack = [], [tree]
    while stack:
        item = stack.pop()
        if isinstance(item, Node):
            if item.name == name:
                found.append(item)
            stack.extend(item.children)
        elif not isinstance(item, Leaf):
            stack.extend(item.elements)
    return found


def test_fixed_subtrees_are_shared_within_a_tree_but_never_across_parses():
    text = registry["pdf"].grammar_text
    data = build_pdf_bytes(3)
    reference = tree_to_jsonable(Parser(text, backend="interpreted").parse(data))
    for parse in (Parser(text).parse, load_aot_module(text).parse):
        first = parse(data)
        anybytes = _named(first, "AnyByte")
        # One AnyByte subtree per object body, shared by all its levels.
        assert len({id(node) for node in anybytes}) == 3 < len(anybytes)
        anybytes[0].env["start"] = 99
        anybytes[0].children[0].env["len"] = 7
        anybytes[0].children.append(Leaf(b"x"))
        assert tree_to_jsonable(first) != reference
        assert tree_to_jsonable(parse(data)) == reference
