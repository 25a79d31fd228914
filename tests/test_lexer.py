"""Unit tests for the IPG surface-syntax lexer."""

import pytest

from repro.core.errors import GrammarSyntaxError
from repro.core.lexer import Token, tokenize


def kinds(text):
    return [token.kind for token in tokenize(text)]


def values(text):
    return [token.value for token in tokenize(text)][:-1]  # drop EOF


class TestBasicTokens:
    def test_empty_input_yields_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind == "eof"

    def test_identifier(self):
        assert values("Hello") == ["Hello"]
        assert kinds("Hello")[:-1] == ["ident"]

    def test_identifier_with_underscores_and_digits(self):
        assert values("_abc123 x_y") == ["_abc123", "x_y"]

    def test_keywords_are_distinguished_from_identifiers(self):
        tokens = tokenize("for to do where switch guard exists blackbox")
        assert all(token.kind == "keyword" for token in tokens[:-1])
        assert tokenize("forx")[0].kind == "ident"

    def test_decimal_number(self):
        assert values("42 0 123456") == [42, 0, 123456]

    def test_hex_number(self):
        assert values("0x10 0xFF 0xdead") == [16, 255, 0xDEAD]

    def test_arrow_and_punctuation(self):
        assert values("A -> B ;") == ["A", "->", "B", ";"]

    def test_multi_character_operators_are_greedy(self):
        assert values("<< >> <= >= != && ||") == ["<<", ">>", "<=", ">=", "!=", "&&", "||"]

    def test_single_character_operators(self):
        assert values("+ - * / % & | < > = ? : . ,") == [
            "+", "-", "*", "/", "%", "&", "|", "<", ">", "=", "?", ":", ".", ",",
        ]

    def test_brackets_braces_parens(self):
        assert values("[ ] { } ( )") == ["[", "]", "{", "}", "(", ")"]


class TestStrings:
    def test_simple_string(self):
        assert values('"abc"') == [b"abc"]

    def test_empty_string(self):
        assert values('""') == [b""]

    def test_hex_escape(self):
        assert values(r'"\x7fELF"') == [b"\x7fELF"]

    def test_common_escapes(self):
        assert values(r'"\n\t\r\0\\\""') == [b'\n\t\r\0\\"']

    def test_unterminated_string_raises(self):
        with pytest.raises(GrammarSyntaxError):
            tokenize('"abc')

    def test_bad_escape_raises(self):
        with pytest.raises(GrammarSyntaxError):
            tokenize(r'"\q"')

    def test_truncated_hex_escape_raises(self):
        with pytest.raises(GrammarSyntaxError):
            tokenize(r'"\x1')

    def test_invalid_hex_digits_raise(self):
        with pytest.raises(GrammarSyntaxError):
            tokenize(r'"\xzz"')


class TestCommentsAndPositions:
    def test_line_comments_are_skipped(self):
        assert values("A // comment\nB # another\nC") == ["A", "B", "C"]

    def test_comment_at_end_of_input(self):
        assert values("A // trailing") == ["A"]

    def test_line_and_column_tracking(self):
        tokens = tokenize("A ->\n  B")
        token_b = tokens[2]
        assert isinstance(token_b, Token)
        assert (token_b.line, token_b.column) == (2, 3)

    def test_unknown_character_raises_with_position(self):
        with pytest.raises(GrammarSyntaxError) as excinfo:
            tokenize("A -> @")
        assert excinfo.value.line == 1


class TestMalformedNumbers:
    """Bad number literals are syntax errors with a position, never ValueError."""

    @pytest.mark.parametrize(
        "text, column",
        [
            ("A -> U8[0, 0x] ;", 12),
            ("0x", 1),
            ("0Xg", 1),
        ],
    )
    def test_hex_prefix_without_digits(self, text, column):
        with pytest.raises(GrammarSyntaxError) as excinfo:
            tokenize(text)
        assert (excinfo.value.line, excinfo.value.column) == (1, column)
        assert "0x" in str(excinfo.value)

    @pytest.mark.parametrize(
        "text, column",
        [
            ("A -> U8[0, ²] ;", 12),  # isdigit() accepts it, int() does not
            ("A -> U8[0, 1²] ;", 13),
            ("A -> U8[0, ٣] ;", 12),  # a digit int() accepts: still not IPG
        ],
    )
    def test_non_ascii_digits(self, text, column):
        with pytest.raises(GrammarSyntaxError) as excinfo:
            tokenize(text)
        assert (excinfo.value.line, excinfo.value.column) == (1, column)

    def test_grammar_check_reports_a_syntax_error(self):
        from repro import parse_grammar

        with pytest.raises(GrammarSyntaxError):
            parse_grammar("A -> U8[0, 0x] ;")


class TestRealisticGrammarText:
    def test_figure_1_tokenizes(self):
        text = 'S -> A[0, 2] B[EOI - 2, EOI] ;'
        assert values(text) == [
            "S", "->", "A", "[", 0, ",", 2, "]",
            "B", "[", "EOI", "-", 2, ",", "EOI", "]", ";",
        ]

    def test_attribute_definition_tokenizes(self):
        assert values("{offset = Int.val}") == ["{", "offset", "=", "Int", ".", "val", "}"]

    def test_for_term_tokenizes(self):
        text = "for i = 0 to H.num do A[i, i + 1]"
        toks = values(text)
        assert toks[0] == "for"
        assert toks.count("i") == 3
