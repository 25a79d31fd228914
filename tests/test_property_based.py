"""Property-based tests (hypothesis) for core invariants."""

from hypothesis import given, settings, strategies as st

from repro import Parser, samples
from repro.core.combinators import int_p
from repro.core.env import initial_env, upd_start_end, upd_start_end_in_place
from engine_matrix import load_aot_module
from repro.core.grammar_parser import parse_expression
from repro.formats import dns, ipv4, pdf, toy, zipfmt
from repro.solver import linearize

# Parsers are module-level so hypothesis examples reuse them.
_FIGURE3 = Parser(toy.FIGURE_3)
_FIGURE3_AOT = load_aot_module(toy.FIGURE_3)
_ANBNCN = Parser(toy.ANBNCN)
_BACKWARD = Parser(toy.BACKWARD_NUMBER)


class TestGrammarSemantics:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_binary_number_value(self, value):
        text = format(value, "b").encode()
        assert _FIGURE3.parse(text)["val"] == value

    @given(st.integers(min_value=0, max_value=2**20 - 1))
    @settings(max_examples=40, deadline=None)
    def test_generated_parser_agrees_with_interpreter(self, value):
        text = format(value, "b").encode()
        assert _FIGURE3_AOT.parse(text) == _FIGURE3.parse(text)

    @given(st.integers(min_value=0, max_value=2**24 - 1))
    @settings(max_examples=40, deadline=None)
    def test_combinator_binary_number_agrees(self, value):
        text = format(value, "b").encode()
        assert int_p().try_run(text) == value

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=40, deadline=None)
    def test_backward_number_value(self, value):
        assert _BACKWARD.parse(str(value).encode())["v"] == value

    @given(st.text(alphabet="abc", min_size=0, max_size=18))
    @settings(max_examples=120, deadline=None)
    def test_anbncn_membership(self, text):
        counts = (text.count("a"), text.count("b"), text.count("c"))
        in_language = (
            len(text) > 0
            and counts[0] == counts[1] == counts[2]
            and text == "a" * counts[0] + "b" * counts[1] + "c" * counts[2]
        )
        assert _ANBNCN.accepts(text.encode()) == in_language


class TestEnvironmentInvariants:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=50),
                st.integers(min_value=0, max_value=50),
                st.booleans(),
            ),
            max_size=20,
        ),
        st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=80, deadline=None)
    def test_in_place_update_matches_functional(self, updates, length):
        functional = initial_env(length)
        destructive = initial_env(length)
        for left, right, touched in updates:
            low, high = min(left, right), max(left, right)
            functional = upd_start_end(functional, low, high, touched)
            upd_start_end_in_place(destructive, low, high, touched)
        assert functional == destructive


class TestSolverInvariants:
    _expr_values = st.integers(min_value=0, max_value=40)

    @given(
        st.integers(min_value=-20, max_value=20),
        st.integers(min_value=-20, max_value=20),
        _expr_values,
        _expr_values,
    )
    @settings(max_examples=80, deadline=None)
    def test_linearize_agrees_with_evaluation(self, c1, c2, x, y):
        text = f"{c1} * x + {c2} * y + 7"
        expr = parse_expression(text)
        form = linearize(expr)
        assert form is not None
        from repro.core.env import EvalContext

        ctx = EvalContext({"x": x, "y": y, "EOI": 0})
        assert form.evaluate({"x": x, "y": y}) == expr.evaluate(ctx)


class TestFormatRoundTrips:
    @given(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=300))
    @settings(max_examples=20, deadline=None)
    def test_zip_member_count_round_trip(self, members, size):
        archive = samples.build_zip(member_count=members, member_size=size)
        tree = zipfmt.SPEC.parser().parse(archive)
        assert len(zipfmt.list_members(tree)) == members

    @given(st.integers(min_value=0, max_value=25), st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_dns_record_count_round_trip(self, answers, compress):
        packet = samples.build_dns_response(answer_count=answers, use_compression=compress)
        summary = dns.summarize(dns.SPEC.parser().parse(packet))
        assert len(summary.records) == answers

    @given(st.integers(min_value=0, max_value=1400), st.integers(min_value=0, max_value=10))
    @settings(max_examples=20, deadline=None)
    def test_ipv4_payload_round_trip(self, size, options):
        packet = samples.build_ipv4_udp_packet(payload_size=size, options_words=options)
        summary = ipv4.summarize(ipv4.SPEC.parser().parse(packet))
        assert summary.udp_length == 8 + size
        assert summary.header_length == 20 + 4 * options

    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=60))
    @settings(max_examples=15, deadline=None)
    def test_pdf_object_count_round_trip(self, objects, padding):
        document, offsets = samples.build_pdf(object_count=objects, body_padding=padding)
        summary = pdf.summarize(pdf.SPEC.parser().parse(document))
        assert [o.offset for o in summary.objects] == offsets
