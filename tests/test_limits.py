"""Resource budgets (ParseLimits) and the structured error taxonomy.

Unit coverage for the robustness layer:

* :class:`~repro.core.limits.ParseLimits` — defaults, ``unlimited()``,
  the ``active``/``fuel`` helpers;
* budget enforcement per engine: interpreter depth/steps/memo/tree-node
  budgets, the compiled engines' shared fuel cell (compiled *out* under
  ``unlimited()``), the streaming buffer cap, AOT ``set_limits``;
* the taxonomy classes and their carried context (offset, rule stack,
  violated interval), ``render_explain``, and the CLI ``--explain-error``
  path;
* ``RecursionError``/``MemoryError`` wrapping at public entry points,
  and the caller's recursion limit and garbage-collector state coming
  back exactly after every kind of parse (the parse guard,
  :func:`repro.core.runtime._guarded`).

Cross-engine *agreement* on hostile inputs lives in
``test_hostile_corpus.py``; this file checks the mechanisms themselves.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import threading
import warnings

import pytest

from repro import (
    BlackboxError,
    BoundsViolation,
    GuardRejected,
    LimitExceeded,
    ParseFailure,
    ParseLimits,
    Parser,
    TruncatedInput,
    compile_grammar,
    render_explain,
)
from repro.core.limits import DEFAULT_LIMITS
from repro.formats import toy
from repro.samples.dns import build_dns_response
from repro.formats.dns import GRAMMAR as DNS_GRAMMAR


# ---------------------------------------------------------------------------
# ParseLimits itself
# ---------------------------------------------------------------------------


class TestParseLimits:
    def test_defaults_are_finite_and_active(self):
        limits = ParseLimits()
        assert limits.active
        assert limits.max_steps == 50_000_000
        assert limits.max_buffer_bytes == 64 * 1024 * 1024
        assert limits.fuel() == limits.max_steps

    def test_unlimited_is_inactive(self):
        limits = ParseLimits.unlimited()
        assert not limits.active
        assert limits.max_steps is None
        assert limits.fuel() == float("inf")
        assert limits.max_wall_ms is None
        assert limits.deadline() == float("inf")

    def test_wall_budget_off_by_default_but_activates(self):
        assert ParseLimits().max_wall_ms is None
        wall_only = ParseLimits(max_steps=None, max_buffer_bytes=None, max_wall_ms=50)
        assert wall_only.active
        assert wall_only.deadline() != float("inf")

    def test_default_limits_singleton_used_by_parser(self):
        assert Parser(toy.FIGURE_1).limits is DEFAULT_LIMITS

    def test_frozen(self):
        with pytest.raises(Exception):
            ParseLimits().max_steps = 1

    def test_three_keyword_only_budgets(self):
        from dataclasses import fields

        names = [field.name for field in fields(ParseLimits)]
        assert names == ["max_steps", "max_buffer_bytes", "max_wall_ms"]
        # A positional argument cannot land in a field it was not meant for.
        with pytest.raises(TypeError):
            ParseLimits(100)


# ---------------------------------------------------------------------------
# Budget enforcement
# ---------------------------------------------------------------------------


class TestInterpreterBudgets:
    def _parser(self, **kwargs):
        return Parser(
            toy.FIGURE_3, backend="interpreted", limits=ParseLimits(**kwargs)
        )

    def test_max_steps_trips(self):
        parser = self._parser(max_steps=3)
        with pytest.raises(LimitExceeded) as info:
            parser.parse(b"1" * 64, "Int")
        assert info.value.limit == "max_steps"
        assert info.value.offset is None
        assert info.value.rule_stack  # carries the active rules at abort

    def test_generous_budgets_leave_parses_alone(self):
        parser = self._parser()
        tree = parser.parse(b"101", "Int")
        assert tree["val"] == 0b101


class TestCompiledBudgets:
    def test_fuel_cell_trips(self):
        parser = Parser(toy.FIGURE_3, limits=ParseLimits(max_steps=3))
        assert parser.backend == "compiled"
        with pytest.raises(LimitExceeded) as info:
            parser.parse(b"1" * 64, "Int")
        assert info.value.limit == "max_steps"

    def test_unlimited_compiles_the_check_out(self):
        limited = compile_grammar(toy.FIGURE_3)
        unlimited = compile_grammar(toy.FIGURE_3, limits=ParseLimits.unlimited())
        assert limited.fuel_slot is not None
        assert "_limit_refill(_c)" in limited.source
        assert unlimited.fuel_slot is None
        assert "_limit_refill(_c)" not in unlimited.source

    def test_fresh_fuel_per_parse(self):
        parser = Parser(toy.FIGURE_3, limits=ParseLimits(max_steps=500))
        for _ in range(5):  # budget must not accumulate across parses
            assert parser.parse(b"101", "Int")["val"] == 0b101


#: A recursive where-rule that backtracks exponentially: each level tries
#: the first alternative's whole subtree before failing over to the second.
_BACKTRACKING_WHERE = """
S -> C[0, EOI] where {
  C -> "c"[0, 1] C[1, EOI] "z"[0, 0] / "c"[0, 1] C[1, EOI] / "c"[0, 1] ;
} ;
"""


class TestRecursiveWhereRules:
    """Recursive where-rules are charge points on every engine."""

    @staticmethod
    def _engines():
        parser = Parser(_BACKTRACKING_WHERE)
        assert parser.backend == "compiled"
        interpreted = Parser(_BACKTRACKING_WHERE, backend="interpreted")
        module = compile_grammar(_BACKTRACKING_WHERE).load_module("_fuel_aot_where")

        def on_module(data, steps):
            module.set_limits(steps)
            module.parse(data)

        return {
            "interpreted": TestExactFuelCharges._on(interpreted),
            "tree": TestExactFuelCharges._on(parser),
            "elided": TestExactFuelCharges._on(parser, emit=None),
            "emitted": on_module,
        }

    def test_exponential_backtracking_trips_the_step_budget(self):
        for engine, run in self._engines().items():
            with pytest.raises(Exception) as info:
                run(b"c" * 18, 20_000)
            assert type(info.value).__name__ == "LimitExceeded", engine
            assert info.value.limit == "max_steps", engine

    def test_threshold_is_equal_on_every_engine(self):
        thresholds = {
            engine: _threshold(run, b"c" * 6) for engine, run in self._engines().items()
        }
        assert len(set(thresholds.values())) == 1, thresholds


def _zip_variants(parser, data):
    """Run ``data`` through every engine variant a Parser stages."""
    return [
        parser.parse(data),
        parser.parse(data, emit="spans"),
        parser.parse(data, emit=None),
        parser.parse_stream([data], force=True, compact=False),
        parser.parse(data, record_spans={"LFH"}),
    ]


class TestReassignedLimits:
    """``parser.limits = ...`` reaches engines staged under other limits."""

    @pytest.mark.parametrize("backend", ["compiled", "interpreted"])
    def test_every_variant_enforces_the_current_limits(self, backend):
        from repro.formats import registry
        from repro.samples import build_zip

        parser = registry["zip"].build_parser(backend=backend)
        assert parser.backend == backend
        data = build_zip(member_count=50, member_size=64)
        expected = _zip_variants(parser, data)  # stages every variant
        parser.limits = ParseLimits(max_steps=5)
        for run in (
            lambda: parser.parse(data),
            lambda: parser.parse(data, emit="spans"),
            lambda: parser.parse(data, emit=None),
            lambda: parser.parse_stream([data], force=True, compact=False),
            lambda: parser.parse(data, record_spans={"LFH"}),
        ):
            with pytest.raises(LimitExceeded) as info:
                run()
            assert info.value.limit == "max_steps"
        parser.limits = DEFAULT_LIMITS
        assert _zip_variants(parser, data) == expected

    def test_rebinds_in_place_and_restages_only_for_a_missing_fuel_cell(self):
        parser = Parser(toy.FIGURE_3, limits=ParseLimits.unlimited())
        unfueled = parser._engine()
        assert unfueled.fuel_slot is None
        parser.limits = ParseLimits(max_steps=3)
        with pytest.raises(LimitExceeded):
            parser.parse(b"1" * 64, "Int")
        fueled = parser._engine()
        assert fueled is not unfueled and fueled.fuel_slot is not None
        # Lifting the budget keeps the fuel cell: a rebind, not a restage.
        parser.limits = ParseLimits.unlimited()
        assert parser.parse(b"1" * 64, "Int")["val"] == int("1" * 64, 2)
        assert parser._engine() is fueled


#: Recursion + a sleeping blackbox: the blackbox burns the wall budget up
#: front, then the recursive spine charges fuel, so the first amortized
#: refill (≤ 256 charges later) observes the expired deadline on every
#: engine — deterministic regardless of machine speed.
_WALL_GRAMMAR = """
blackbox Doze ;
S -> Doze[0, 0] R[0, EOI] ;
R -> U8 R[U8.end, EOI] / "" ;
"""


def _doze(data):
    import time

    time.sleep(0.05)
    return {}


class TestWallClockBudget:
    def _parser(self, backend, **kwargs):
        return Parser(
            _WALL_GRAMMAR,
            blackboxes={"Doze": _doze},
            backend=backend,
            limits=ParseLimits(**kwargs),
        )

    @pytest.mark.parametrize("backend", ["compiled", "interpreted"])
    def test_wall_trips_on_every_engine(self, backend):
        parser = self._parser(backend, max_wall_ms=10)
        with pytest.raises(LimitExceeded) as info:
            parser.parse(bytes(2000))
        assert info.value.limit == "wall"

    @pytest.mark.parametrize("backend", ["compiled", "interpreted"])
    def test_generous_wall_budget_leaves_parses_alone(self, backend):
        parser = self._parser(backend, max_wall_ms=60_000)
        assert parser.parse(bytes(64)) is not None

    def test_wall_only_limits_still_allocate_the_fuel_cell(self):
        # max_steps=None normally compiles the cell out; a wall budget
        # alone must keep it (with infinite step fuel) so refills happen.
        parser = self._parser("compiled", max_steps=None, max_wall_ms=10)
        with pytest.raises(LimitExceeded) as info:
            parser.parse(bytes(2000))
        assert info.value.limit == "wall"

    def test_no_wall_budget_means_no_deadline_in_cell(self):
        compiled = compile_grammar(toy.FIGURE_3)
        state = compiled.new_state()
        cell = state[compiled.fuel_slot]
        assert len(cell) == 3 and cell[2] is None

    def test_aot_module_wall_budget(self):
        module = compile_grammar(_WALL_GRAMMAR).load_module("_limits_aot_wall")
        module.register_blackbox("Doze", _doze)
        assert module.parse(bytes(64)) is not None
        module.set_limits(None, max_wall_ms=10)
        with pytest.raises(module.LimitExceeded):
            module.parse(bytes(2000))
        module.set_limits(None, max_wall_ms=None)
        assert module.parse(bytes(64)) is not None


class TestStreamingBudgets:
    def test_buffer_cap_trips_on_feed(self):
        # compact=False retains every byte, so the cap must fire; with
        # compaction on, decided prefixes are discarded and the same cap
        # rides the (bounded) high-water mark instead.
        parser = Parser(DNS_GRAMMAR, limits=ParseLimits(max_buffer_bytes=16))
        session = parser.stream(compact=False)
        with pytest.raises(LimitExceeded) as info:
            for _ in range(4):
                session.feed(b"\x00" * 8)
        assert info.value.limit == "max_buffer_bytes"

    def test_default_cap_does_not_disturb_streaming(self):
        parser = Parser(DNS_GRAMMAR)
        data = build_dns_response(answer_count=2, additional_count=1)
        assert parser.parse_stream([data[:7], data[7:]]) == parser.parse(data)


class TestAotBudgets:
    def test_set_limits_round_trip(self):
        module = compile_grammar(toy.FIGURE_3).load_module("_limits_aot_fig3")
        assert module.parse(b"101", "Int")["val"] == 0b101
        module.set_limits(2)
        with pytest.raises(module.LimitExceeded):
            module.parse(b"1" * 64, "Int")
        module.set_limits(None)
        assert module.parse(b"101", "Int")["val"] == 0b101

    def test_emitted_module_carries_budget_and_grammar(self):
        source = compile_grammar(toy.FIGURE_2).to_source()
        assert "_MAX_STEPS = 50000000" in source
        assert "GRAMMAR_SOURCE = " in source
        assert "def set_limits(" in source


#: The smallest ``max_steps`` every engine accepts the canonical sample of
#: a format with (``engine_matrix.format_sample``).  Charges are entries
#: of recursive rules plus iterations of count-driven loops whose element
#: is not bulk-eligible (``repro.core.ir.ChargePoints``); the right-chain
#: loops of PDF, DNS and GIF charge each level exactly like the recursion
#: they replace.
_FUEL_THRESHOLDS = {
    "pdf": 278,
    "dns": 14,
    "gif": 16,
    "elf": 13,
    "zip": 6,
    "pe": 2,
    "ipv4": 0,  # no recursive rule, no loop: nothing to charge
}


def _smallest_accepting(accepts):
    """Binary-search the least budget ``accepts`` (monotone) holds for."""
    low, high = -1, 0
    while not accepts(high):
        low, high = high, 2 * high + 1
    while low + 1 < high:
        middle = (low + high) // 2
        if accepts(middle):
            high = middle
        else:
            low = middle
    return high


def _threshold(run, data):
    """The exact step budget ``run`` needs for ``data``: ``n`` accepts,
    ``n - 1`` raises ``LimitExceeded(limit="max_steps")``."""

    def accepts(steps):
        try:
            run(data, steps)
        except Exception as exc:
            # The emitted module raises its own vendored class.
            assert type(exc).__name__ == "LimitExceeded", exc
            assert exc.limit == "max_steps"
            return False
        return True

    threshold = _smallest_accepting(accepts)
    if threshold:
        with pytest.raises(Exception) as info:
            run(data, threshold - 1)
        assert type(info.value).__name__ == "LimitExceeded"
        assert info.value.limit == "max_steps"
    return threshold


class TestExactFuelCharges:
    """The step budget is exact and the same on every engine."""

    @staticmethod
    def _on(parser, **kwargs):
        def run(data, steps):
            parser.limits = ParseLimits(max_steps=steps)
            parser.parse(data, **kwargs)

        return run

    @staticmethod
    def _streamed(parser):
        def run(data, steps):
            parser.limits = ParseLimits(max_steps=steps)
            parser.parse_stream([data])

        return run

    @classmethod
    def _engines(cls, fmt):
        from repro.formats import registry

        spec = registry[fmt]
        blackboxes = dict(spec.blackboxes)

        def parser(**kwargs):
            return Parser(spec.grammar_text, blackboxes=blackboxes, **kwargs)

        compiled = parser()
        assert compiled.backend == "compiled"
        interpreted = parser(backend="interpreted")
        module = compile_grammar(spec.grammar_text, blackboxes=blackboxes).load_module(
            f"_fuel_aot_{fmt}"
        )

        def on_module(data, steps):
            module.set_limits(steps)
            module.parse(data)

        engines = {
            "tree": cls._on(compiled),
            "elided": cls._on(compiled, emit=None),
            "emitted": on_module,
            "no-bulk": cls._on(parser(bulk_fixed_shape=False)),
            "no-dispatch": cls._on(parser(first_byte_dispatch=False)),
            "interpreted": cls._on(interpreted),
            "interpreted-elided": cls._on(interpreted, emit=None),
        }
        if compiled.streamability_report().streamable:
            engines["stream"] = cls._streamed(compiled)
            engines["interpreted-stream"] = cls._streamed(interpreted)
        return engines

    @pytest.mark.parametrize("fmt", sorted(_FUEL_THRESHOLDS))
    def test_threshold_is_pinned_on_every_engine(self, fmt):
        from engine_matrix import format_sample

        data = format_sample(fmt)
        engines = self._engines(fmt)
        if fmt in ("dns", "ipv4"):
            assert {"stream", "interpreted-stream"} <= set(engines)
        for engine, run in engines.items():
            assert _threshold(run, data) == _FUEL_THRESHOLDS[fmt], (fmt, engine)

    @pytest.mark.parametrize("fmt", sorted(_FUEL_THRESHOLDS))
    def test_unmemoized_and_recording_runs_agree_across_backends(self, fmt):
        from engine_matrix import format_sample
        from repro.formats import registry

        spec = registry[fmt]
        data = format_sample(fmt)
        for kwargs, emit in (({"memoize": False}, {}), ({}, None)):
            thresholds = set()
            for backend in Parser.BACKENDS:
                parser = Parser(
                    spec.grammar_text,
                    blackboxes=dict(spec.blackboxes),
                    backend=backend,
                    **kwargs,
                )
                assert parser.backend == backend
                if emit is None:
                    emit = {"record_spans": {parser.grammar.start}}
                thresholds.add(_threshold(self._on(parser, **emit), data))
            assert len(thresholds) == 1, (fmt, kwargs, emit, thresholds)


# ---------------------------------------------------------------------------
# The taxonomy and its carried context
# ---------------------------------------------------------------------------


class TestTaxonomy:
    def test_truncated_input(self):
        parser = Parser(toy.FIGURE_1)
        with pytest.raises(TruncatedInput) as info:
            parser.parse(b"a")  # "aa" needs a byte past the end
        assert info.value.offset == 1
        assert info.value.rule_stack[0] == "S"

    def test_bounds_violation_carries_interval(self):
        # H claims the data lives at [255, 259) of a 12-byte input.
        parser = Parser(toy.FIGURE_2)
        data = bytes([255, 0, 0, 0, 4, 0, 0, 0]) + b"zzzz"
        with pytest.raises(TruncatedInput) as truncated:
            parser.parse(data)
        assert truncated.value.offset == len(data)
        # An *inverted* interval (right < left) is a bounds violation.
        inverted = Parser("S -> U8[0,1] {n = U8.val} A[4, n] ; A -> Raw[0, EOI] ;")
        with pytest.raises(BoundsViolation) as info:
            inverted.parse(bytes([2, 0, 0, 0, 0, 0]))
        assert info.value.interval is not None

    def test_guard_rejected_at_first_differing_byte(self):
        parser = Parser(toy.FIGURE_1)
        with pytest.raises(GuardRejected) as info:
            parser.parse(b"aaxxxbq")  # 'q' breaks the trailing "bb"
        assert info.value.offset == 6

    def test_guard_expression_rejection(self):
        parser = Parser(toy.FIGURE_6)
        data = bytes([1, 0, 0, 0]) + bytes([99, 0, 0, 0])  # a0 = 99 > 10
        with pytest.raises(GuardRejected):
            parser.parse(data)

    def test_limit_exceeded_is_a_parse_failure(self):
        assert issubclass(LimitExceeded, ParseFailure)
        assert issubclass(TruncatedInput, ParseFailure)
        assert issubclass(BoundsViolation, ParseFailure)
        assert issubclass(GuardRejected, ParseFailure)


class TestRecursionWrapping:
    def test_interpreter_wraps_deep_recursion(self):
        # The parse guard's recursion limit is the one depth ceiling: a
        # left-recursive spine deeper than its 100,000 frames.
        parser = Parser(toy.FIGURE_3, backend="interpreted")
        with pytest.raises(LimitExceeded) as info:
            parser.parse(b"1" * 20_000, "Int")
        assert info.value.limit == "recursion"


    def test_deep_input_never_overflows_the_c_stack(self):
        # On CPython 3.10 the default limits let these inputs nest more C
        # frames than an 8 MiB stack holds: the interpreter segfaulted at
        # 3600 digits and the compiled engine at 11000.  The guard caps the
        # limit it installs there, so they fail structurally, in a thread
        # too; 3000 digits still parse.
        completed = subprocess.run(
            [sys.executable, "-c", _DEEP_INPUTS],
            capture_output=True,
            text=True,
            timeout=600,
            env=_child_env(),
        )
        assert completed.returncode == 0, completed.stderr[-3000:]
        outcomes = completed.stdout.split()
        assert outcomes[:2] == ["ok", "ok"]
        assert set(outcomes[2:]) <= {"ok", "LimitExceeded"}
        assert len(outcomes) == 6


#: Figure 3 ``Int`` parses, each in the main thread and then in a thread:
#: 3000 digits on the interpreter, the two 3.10 crash inputs.  Prints
#: ``ok`` or ``LimitExceeded`` per parse.
_DEEP_INPUTS = """
import threading
from repro import LimitExceeded, Parser
from repro.formats import toy

def attempt(backend, digits):
    try:
        Parser(toy.FIGURE_3, backend=backend).parse(b"1" * digits, "Int")
        print("ok")
    except LimitExceeded:
        print("LimitExceeded")

for backend, digits in (
    ("interpreted", 3000), ("interpreted", 4000), ("compiled", 20000)
):
    attempt(backend, digits)
    thread = threading.Thread(target=attempt, args=(backend, digits))
    thread.start()
    thread.join()
"""


def _child_env():
    paths = [os.path.join(os.path.dirname(__file__), "..", "src")]
    paths += [os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


# ---------------------------------------------------------------------------
# The parse guard gives the caller's recursion limit back exactly
# ---------------------------------------------------------------------------

#: A caller's recursion limit that no engine would choose.
_CALLER_LIMIT = 1234

#: Figure 3's ``Int`` whose innermost digit is a blackbox: a blackbox
#: that blocks holds a parse 3000 levels deep for as long as it likes.
_HELD_INT = """
blackbox Hold ;
Int -> Int[0, EOI - 1] Digit[EOI - 1, EOI] / Hold[0, 1] ;
Digit -> "1"[0, 1] ;
"""


@pytest.fixture
def caller_limit():
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(_CALLER_LIMIT)
    try:
        yield _CALLER_LIMIT
    finally:
        sys.setrecursionlimit(previous)


@pytest.mark.parametrize("backend", ["compiled", "interpreted"])
class TestCallerRecursionLimitRestored:
    def test_after_success(self, backend, caller_limit):
        parser = Parser(toy.FIGURE_3, backend=backend)
        assert parser.parse(b"1" * 3000, "Int")["val"] == 2**3000 - 1
        assert sys.getrecursionlimit() == caller_limit

    def test_after_parse_failure(self, backend, caller_limit):
        with pytest.raises(GuardRejected):  # the diagnosis run raised it
            Parser(toy.FIGURE_1, backend=backend).parse(b"aaxxxbq")
        assert sys.getrecursionlimit() == caller_limit

    def test_after_limit_exceeded(self, backend, caller_limit):
        budgeted = Parser(
            toy.FIGURE_3, backend=backend, limits=ParseLimits(max_steps=100)
        )
        with pytest.raises(LimitExceeded) as info:
            budgeted.parse(b"1" * 3000, "Int")
        assert info.value.limit == "max_steps"
        assert sys.getrecursionlimit() == caller_limit
        # A guard never lowers the limit: at 500 the parse overflows the
        # caller's 1234, and the RecursionError comes back as a limit.
        shallow = Parser(
            toy.FIGURE_3,
            backend=backend,
            recursion_limit=500,
            limits=ParseLimits.unlimited(),
        )
        with pytest.raises(LimitExceeded) as info:
            shallow.parse(b"1" * 3000, "Int")
        assert info.value.limit == "recursion"
        assert sys.getrecursionlimit() == caller_limit

    def test_after_a_raising_blackbox(self, backend, caller_limit):
        def boom(window):
            raise ValueError("corrupt")

        parser = Parser(_HELD_INT, blackboxes={"Hold": boom}, backend=backend)
        with pytest.raises(BlackboxError):
            parser.parse(b"1" * 3000, "Int")
        assert sys.getrecursionlimit() == caller_limit

    def test_after_a_parse_started_inside_a_blackbox(self, backend, caller_limit):
        inner = Parser(toy.FIGURE_3, backend=backend)
        seen = []

        def nested(window):
            inner.parse(b"1" * 3000, "Int")
            seen.append(sys.getrecursionlimit())
            return {}

        parser = Parser(_HELD_INT, blackboxes={"Hold": nested}, backend=backend)
        parser.parse(b"1" * 10, "Int")
        # The inner parse's exit left the outer one its headroom.
        assert seen == [parser.recursion_limit]
        assert sys.getrecursionlimit() == caller_limit

    def test_after_stream_lazy_and_recover(self, backend, caller_limit):
        data = build_dns_response(answer_count=8)
        parser = Parser(DNS_GRAMMAR, backend=backend)
        chunks = [data[i : i + 7] for i in range(0, len(data), 7)]
        assert parser.parse_stream(chunks) == parser.parse(data)
        assert sys.getrecursionlimit() == caller_limit
        root = parser.parse_lazy(data, lazy_threshold=0)
        assert sys.getrecursionlimit() == caller_limit
        assert root.size() == parser.parse(data).size()  # materializes all
        assert sys.getrecursionlimit() == caller_limit
        document = parser.parse_recover(data[:-5])
        assert document.errors
        assert sys.getrecursionlimit() == caller_limit


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_gets_the_caller_limit(caller_limit):
    """A child forked during another thread's deep parse starts clean."""
    entered, release = threading.Event(), threading.Event()

    def hold(window):
        entered.set()
        release.wait(60)
        return {}

    parser = Parser(_HELD_INT, blackboxes={"Hold": hold})
    thread = threading.Thread(target=parser.parse, args=(b"1" * 3000, "Int"))
    thread.start()
    try:
        assert entered.wait(60)
        assert sys.getrecursionlimit() == parser.recursion_limit
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # threaded fork
            pid = os.fork()
        if pid == 0:  # the child: only this thread exists here
            code = 1
            try:
                clean = sys.getrecursionlimit() == caller_limit
                Parser(toy.FIGURE_3).parse(b"1" * 3000, "Int")
                restored = sys.getrecursionlimit() == caller_limit
                code = 0 if clean and restored else 1
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
    finally:
        release.set()
        thread.join(60)
    assert not thread.is_alive()
    assert sys.getrecursionlimit() == caller_limit


# ---------------------------------------------------------------------------
# The parse guard pauses collection and gives the caller's state back
# ---------------------------------------------------------------------------


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def caller_gc(request):
    previous = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    try:
        yield request.param
    finally:
        (gc.enable if previous else gc.disable)()


@pytest.mark.parametrize("backend", ["compiled", "interpreted"])
class TestCallerCollectionStateRestored:
    def test_after_success(self, backend, caller_gc):
        seen = []

        def hold(window):
            seen.append(gc.isenabled())
            return {}

        parser = Parser(_HELD_INT, blackboxes={"Hold": hold}, backend=backend)
        parser.parse(b"1" * 3000, "Int")
        assert seen == [False]  # paused while the engine ran
        assert gc.isenabled() == caller_gc

    def test_after_parse_failure(self, backend, caller_gc):
        with pytest.raises(GuardRejected):  # the diagnosis run raised it
            Parser(toy.FIGURE_1, backend=backend).parse(b"aaxxxbq")
        assert gc.isenabled() == caller_gc

    def test_after_limit_exceeded(self, backend, caller_gc, caller_limit):
        budgeted = Parser(
            toy.FIGURE_3, backend=backend, limits=ParseLimits(max_steps=100)
        )
        with pytest.raises(LimitExceeded):
            budgeted.parse(b"1" * 3000, "Int")
        assert gc.isenabled() == caller_gc
        shallow = Parser(
            toy.FIGURE_3,
            backend=backend,
            recursion_limit=500,
            limits=ParseLimits.unlimited(),
        )
        with pytest.raises(LimitExceeded) as info:
            shallow.parse(b"1" * 3000, "Int")
        assert info.value.limit == "recursion"
        assert gc.isenabled() == caller_gc

    def test_after_a_raising_blackbox(self, backend, caller_gc):
        def boom(window):
            raise ValueError("corrupt")

        parser = Parser(_HELD_INT, blackboxes={"Hold": boom}, backend=backend)
        with pytest.raises(BlackboxError):
            parser.parse(b"1" * 3000, "Int")
        assert gc.isenabled() == caller_gc

    def test_after_a_parse_started_inside_a_blackbox(self, backend, caller_gc):
        inner = Parser(toy.FIGURE_3, backend=backend)
        seen = []

        def nested(window):
            inner.parse(b"1" * 3000, "Int")
            seen.append(gc.isenabled())
            return {}

        parser = Parser(_HELD_INT, blackboxes={"Hold": nested}, backend=backend)
        parser.parse(b"1" * 10, "Int")
        # The inner parse's exit left the outer one its pause.
        assert seen == [False]
        assert gc.isenabled() == caller_gc

    def test_after_stream_lazy_and_recover(self, backend, caller_gc):
        data = build_dns_response(answer_count=8)
        parser = Parser(DNS_GRAMMAR, backend=backend)
        chunks = [data[i : i + 7] for i in range(0, len(data), 7)]
        assert parser.parse_stream(chunks) == parser.parse(data)
        assert gc.isenabled() == caller_gc
        root = parser.parse_lazy(data, lazy_threshold=0)
        assert gc.isenabled() == caller_gc
        assert root.size() == parser.parse(data).size()  # materializes all
        assert gc.isenabled() == caller_gc
        document = parser.parse_recover(data[:-5])
        assert document.errors
        assert gc.isenabled() == caller_gc


def test_emitted_module_restores_the_caller_gc_state(caller_gc):
    seen = []

    def hold(window):
        seen.append(gc.isenabled())
        return {}

    module = compile_grammar(_HELD_INT).load_module("_gc_held_int")
    module.register_blackbox("Hold", hold)
    module.parse(b"1" * 3000, "Int")
    assert seen == [False]
    assert gc.isenabled() == caller_gc
    failing = compile_grammar(toy.FIGURE_1).load_module("_gc_figure_1")
    with pytest.raises(failing.GuardRejected):  # the diagnosis run raised it
        failing.parse(b"aaxxxbq")
    assert gc.isenabled() == caller_gc


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_gets_the_caller_gc_state(caller_gc):
    """A child forked while another thread holds the pause starts clean."""
    entered, release = threading.Event(), threading.Event()

    def hold(window):
        entered.set()
        release.wait(60)
        return {}

    parser = Parser(_HELD_INT, blackboxes={"Hold": hold})
    thread = threading.Thread(target=parser.parse, args=(b"1" * 3000, "Int"))
    thread.start()
    try:
        assert entered.wait(60)
        assert not gc.isenabled()  # the other thread's parse holds the pause
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # threaded fork
            pid = os.fork()
        if pid == 0:  # the child: only this thread exists here
            code = 1
            try:
                clean = gc.isenabled() == caller_gc
                Parser(toy.FIGURE_3).parse(b"1" * 3000, "Int")
                restored = gc.isenabled() == caller_gc
                code = 0 if clean and restored else 1
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
    finally:
        release.set()
        thread.join(60)
    assert not thread.is_alive()
    assert gc.isenabled() == caller_gc


def test_a_second_thread_ends_the_pause():
    """Two threads parsing at once collect as if no guard paused it."""
    previous = gc.isenabled()
    gc.enable()
    entered = [threading.Event(), threading.Event()]
    release = threading.Event()
    seen = []

    def hold_in(index):
        def hold(window):
            seen.append((index, gc.isenabled()))
            entered[index].set()
            release.wait(60)
            return {}

        return Parser(_HELD_INT, blackboxes={"Hold": hold})

    threads = [
        threading.Thread(target=hold_in(index).parse, args=(b"1" * 100, "Int"))
        for index in range(2)
    ]
    try:
        threads[0].start()
        assert entered[0].wait(60)
        assert not gc.isenabled()  # one live parse: paused
        threads[1].start()
        assert entered[1].wait(60)
        assert gc.isenabled()  # the second thread's guard ended the pause
    finally:
        release.set()
        for thread in threads:
            thread.join(60)
        assert not any(thread.is_alive() for thread in threads)
        assert gc.isenabled()
        (gc.enable if previous else gc.disable)()
    assert seen == [(0, False), (1, True)]


def test_no_collection_inside_a_tree_parse():
    """A 2000-member ZIP tree parse triggers no cyclic collection at all."""
    from repro.core import runtime
    from repro.formats import registry
    from repro.samples import build_zip

    parser = registry["zip"].build_parser()
    parser.parse(build_zip(member_count=2, member_size=200))  # stage first
    data = build_zip(member_count=2000, member_size=200)
    inside = []

    def count(phase, info):
        # Only collections while a guard is live, i.e. inside the parse.
        if phase == "start" and runtime._guard_live:
            inside.append(info["generation"])

    previous = gc.isenabled()
    gc.enable()
    gc.callbacks.append(count)
    try:
        parser.parse(data)
    finally:
        gc.callbacks.remove(count)
        (gc.enable if previous else gc.disable)()
    assert inside == []


# ---------------------------------------------------------------------------
# render_explain and the CLI
# ---------------------------------------------------------------------------


class TestRenderExplain:
    def test_full_rendering(self):
        parser = Parser(toy.FIGURE_1)
        data = b"aaxxxbq"
        with pytest.raises(GuardRejected) as info:
            parser.parse(data)
        text = render_explain(info.value, data)
        assert "GuardRejected" in text
        assert "offset:   6" in text
        assert "[71]" in text  # the offending 'q', bracketed in hex context
        assert "rules:" in text

    def test_limit_rendering_has_no_offset(self):
        error = LimitExceeded("budget gone", limit="max_steps", rule_stack=("S",))
        text = render_explain(error)
        assert "limit:    max_steps" in text
        assert "offset" not in text

    def test_long_rule_stack_is_trimmed(self):
        error = ParseFailure("nope", offset=0, rule_stack=tuple(f"R{i}" for i in range(40)))
        text = render_explain(error, b"x")
        assert "more" in text and "R39" in text

    def test_cli_explain_error(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.dns"
        bad.write_bytes(build_dns_response(answer_count=2)[:-4])
        code = main(["parse", "--format", "dns", "--explain-error", str(bad)])
        captured = capsys.readouterr()
        assert code == 10  # EXIT_TRUNCATED: the class is also the exit code
        assert "TruncatedInput" in captured.err
        assert "offset:" in captured.err

    def test_cli_explain_error_stream(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.dns"
        bad.write_bytes(build_dns_response(answer_count=2)[:-4])
        code = main(
            ["parse", "--format", "dns", "--stream", "--chunk-size", "7",
             "--explain-error", str(bad)]
        )
        captured = capsys.readouterr()
        # --explain-error streaming retains the full buffer, so the failure
        # classifies and the class exit code (EXIT_TRUNCATED) applies.
        assert code == 10
        assert "TruncatedInput" in captured.err
