"""Tokenizer for the IPG surface syntax.

The surface syntax follows the paper closely; the ASCII spellings of the
paper's notation are:

=====================  =====================================================
Paper                  Surface syntax
=====================  =====================================================
``A → alt1 / alt2``    ``A -> alt1 / alt2 ;``
``"aa"[0, 2]``         ``"aa"[0, 2]``
``{offset=Int.val}``   ``{offset = Int.val}``
``⟨e⟩`` (predicate)    ``guard(e)``
``for i=e1 to e2 do``  ``for i = e1 to e2 do``
``switch(...)``        ``switch(...)``
``∃ j . e1 ? e2 : e3`` ``exists j . e1 ? e2 : e3``
``where`` local rules  ``where { D -> ... ; }``
``∧`` / ``∨``          ``&&`` / ``||``
=====================  =====================================================

Comments start with ``//`` or ``#`` and run to the end of the line.
Terminal strings accept the escapes ``\\xNN``, ``\\n``, ``\\r``, ``\\t``,
``\\0``, ``\\\\`` and ``\\"`` and denote byte strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

from .errors import GrammarSyntaxError

#: Multi-character punctuation, longest first so the lexer is greedy.
_PUNCT = (
    "->",
    "<<",
    ">>",
    "<=",
    ">=",
    "!=",
    "&&",
    "||",
    "[",
    "]",
    "{",
    "}",
    "(",
    ")",
    ",",
    ";",
    "/",
    ".",
    ":",
    "?",
    "=",
    "<",
    ">",
    "+",
    "-",
    "*",
    "%",
    "&",
    "|",
)

#: Number literals are ASCII only: ``str.isdigit`` also accepts digits
#: such as ``²`` that ``int`` rejects.
_DIGITS = "0123456789"
_HEX_DIGITS = "0123456789abcdefABCDEF"

KEYWORDS = frozenset(
    {"for", "to", "do", "where", "switch", "guard", "exists", "blackbox"}
)


@dataclass(frozen=True)
class Token:
    """A single lexical token with its source position."""

    kind: str  # "ident", "keyword", "number", "string", "punct", "eof"
    value: object
    line: int
    column: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.value!r}, {self.line}:{self.column})"


class Lexer:
    """Convert IPG source text into a list of :class:`Token` objects."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.column = 1

    # -- public entry point ---------------------------------------------------
    def tokenize(self) -> List[Token]:
        tokens = list(self._iter_tokens())
        tokens.append(Token("eof", None, self.line, self.column))
        return tokens

    # -- internals ------------------------------------------------------------
    def _iter_tokens(self) -> Iterator[Token]:
        while True:
            self._skip_trivia()
            if self.pos >= len(self.text):
                return
            char = self.text[self.pos]
            if char == '"':
                yield self._lex_string()
            elif char in _DIGITS:
                yield self._lex_number()
            elif char.isalpha() or char == "_":
                yield self._lex_ident()
            else:
                yield self._lex_punct()

    def _skip_trivia(self) -> None:
        while self.pos < len(self.text):
            char = self.text[self.pos]
            if char in " \t\r\n":
                self._advance()
            elif char == "#" or self.text.startswith("//", self.pos):
                while self.pos < len(self.text) and self.text[self.pos] != "\n":
                    self._advance()
            else:
                return

    def _advance(self) -> str:
        char = self.text[self.pos]
        self.pos += 1
        if char == "\n":
            self.line += 1
            self.column = 1
        else:
            self.column += 1
        return char

    def _lex_string(self) -> Token:
        line, column = self.line, self.column
        self._advance()  # opening quote
        out = bytearray()
        while True:
            if self.pos >= len(self.text):
                raise GrammarSyntaxError("unterminated terminal string", line, column)
            char = self._advance()
            if char == '"':
                break
            if char == "\\":
                out.extend(self._lex_escape(line, column))
            else:
                code = ord(char)
                if code > 0xFF:
                    raise GrammarSyntaxError(
                        f"non-byte character {char!r} in terminal string", line, column
                    )
                out.append(code)
        return Token("string", bytes(out), line, column)

    def _lex_escape(self, line: int, column: int) -> bytes:
        if self.pos >= len(self.text):
            raise GrammarSyntaxError("unterminated escape sequence", line, column)
        char = self._advance()
        simple = {"n": b"\n", "t": b"\t", "r": b"\r", "0": b"\0", "\\": b"\\", '"': b'"'}
        if char in simple:
            return simple[char]
        if char == "x":
            if self.pos + 1 >= len(self.text):
                raise GrammarSyntaxError("truncated \\x escape", line, column)
            digits = self._advance() + self._advance()
            try:
                return bytes([int(digits, 16)])
            except ValueError as exc:
                raise GrammarSyntaxError(
                    f"invalid hex escape \\x{digits}", line, column
                ) from exc
        raise GrammarSyntaxError(f"unknown escape sequence \\{char}", line, column)

    def _lex_number(self) -> Token:
        line, column = self.line, self.column
        start = self.pos
        if self.text.startswith(("0x", "0X"), self.pos):
            self._advance()
            self._advance()
            while self.pos < len(self.text) and self.text[self.pos] in _HEX_DIGITS:
                self._advance()
            if self.pos == start + 2:
                raise GrammarSyntaxError(
                    "hexadecimal literal needs a digit after 0x", line, column
                )
            value = int(self.text[start : self.pos], 16)
        else:
            while self.pos < len(self.text) and self.text[self.pos] in _DIGITS:
                self._advance()
            value = int(self.text[start : self.pos])
        return Token("number", value, line, column)

    def _lex_ident(self) -> Token:
        line, column = self.line, self.column
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self._advance()
        name = self.text[start : self.pos]
        kind = "keyword" if name in KEYWORDS else "ident"
        return Token(kind, name, line, column)

    def _lex_punct(self) -> Token:
        line, column = self.line, self.column
        for punct in _PUNCT:
            if self.text.startswith(punct, self.pos):
                for _ in punct:
                    self._advance()
                return Token("punct", punct, line, column)
        raise GrammarSyntaxError(
            f"unexpected character {self.text[self.pos]!r}", line, column
        )


def tokenize(text: str) -> List[Token]:
    """Tokenize IPG source text."""
    return Lexer(text).tokenize()
