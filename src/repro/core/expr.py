"""The IPG expression language.

Expressions appear inside intervals (``A[e_l, e_r]``), attribute definitions
(``{id = e}``), predicates (``guard(e)``), switch conditions and array
bounds.  The core grammar (Figure 5 of the paper) is::

    e    ::= n | e1 bop e2 | e1 ? e2 : e3 | ref
    bop  ::= + | - | * | / | = | > | < | and | or
    ref  ::= id | A.id | A(e).id | EOI | A.start | A.end

The full language used by the case studies additionally needs ``%`` (modulo),
bit operations (``& | << >>``), the remaining comparisons, and the
existential ``exists j . e1 ? e2 : e3`` of section 3.4.  Every expression
evaluates to an integer; comparisons and boolean connectives produce 0/1,
and a predicate fails exactly when its expression evaluates to 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Set, Tuple

from .env import EvalContext
from .errors import EvaluationError
from .runtime import _int_div

# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class Expr:
    """Base class of expression AST nodes."""

    __slots__ = ()

    def evaluate(self, ctx: EvalContext) -> int:
        """Evaluate the expression to an integer under ``ctx``."""
        raise NotImplementedError

    def references(self) -> Set[Tuple[str, str]]:
        """Return the set of entities this expression references.

        Each element is a tag/name pair:

        * ``("name", id)`` — a plain identifier (attribute or loop variable),
        * ``("nt", A)``    — a nonterminal whose attribute is referenced via
          ``A.id`` or ``A(e).id``,
        * ``("special", x)`` — ``EOI`` (``start``/``end`` of the *current*
          nonterminal are also specials when referenced without a prefix).
        """
        refs: Set[Tuple[str, str]] = set()
        for node in self.walk():
            refs |= node._own_references()
        return refs

    def _own_references(self) -> Set[Tuple[str, str]]:
        return set()

    def walk(self) -> Iterator["Expr"]:
        """Yield this node and all sub-expressions (pre-order)."""
        yield self

    def to_source(self) -> str:
        """Render the expression in IPG surface syntax."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_source()})"

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.to_source() == other.to_source()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.to_source()))


@dataclass(frozen=True, repr=False, eq=False)
class Num(Expr):
    """An integer literal."""

    value: int

    def evaluate(self, ctx: EvalContext) -> int:
        return self.value

    def to_source(self) -> str:
        return str(self.value)


@dataclass(frozen=True, repr=False, eq=False)
class Name(Expr):
    """A plain identifier: a local attribute, a loop variable, or ``EOI``."""

    ident: str

    def evaluate(self, ctx: EvalContext) -> int:
        return ctx.lookup_name(self.ident)

    def _own_references(self) -> Set[Tuple[str, str]]:
        if self.ident == "EOI":
            return {("special", "EOI")}
        return {("name", self.ident)}

    def to_source(self) -> str:
        return self.ident


@dataclass(frozen=True, repr=False, eq=False)
class Dot(Expr):
    """``A.id`` — an attribute of a previously parsed nonterminal.

    ``A.start`` and ``A.end`` are represented with ``attr`` set to ``start``
    or ``end``; the interpreter stores those special attributes directly in
    the node environment, so no extra machinery is needed here.
    """

    nonterminal: str
    attr: str

    def evaluate(self, ctx: EvalContext) -> int:
        return ctx.lookup_dot(self.nonterminal, self.attr)

    def _own_references(self) -> Set[Tuple[str, str]]:
        return {("nt", self.nonterminal)}

    def to_source(self) -> str:
        return f"{self.nonterminal}.{self.attr}"


@dataclass(frozen=True, repr=False, eq=False)
class Index(Expr):
    """``A(e).id`` — an attribute of the ``e``-th element of array ``A``."""

    nonterminal: str
    index: Expr
    attr: str

    def evaluate(self, ctx: EvalContext) -> int:
        position = self.index.evaluate(ctx)
        return ctx.lookup_index(self.nonterminal, position, self.attr)

    def _own_references(self) -> Set[Tuple[str, str]]:
        return {("nt", self.nonterminal)}

    def walk(self) -> Iterator[Expr]:
        yield self
        yield from self.index.walk()

    def to_source(self) -> str:
        return f"{self.nonterminal}({self.index.to_source()}).{self.attr}"


#: Binary operators understood by the expression language, mapping the
#: surface spelling to an evaluation function over Python ints.
_BINOPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": None,  # handled specially (division by zero)
    "%": None,  # handled specially (modulo by zero)
    "=": lambda a, b: 1 if a == b else 0,
    "!=": lambda a, b: 1 if a != b else 0,
    "<": lambda a, b: 1 if a < b else 0,
    ">": lambda a, b: 1 if a > b else 0,
    "<=": lambda a, b: 1 if a <= b else 0,
    ">=": lambda a, b: 1 if a >= b else 0,
    "&&": lambda a, b: 1 if (a != 0 and b != 0) else 0,
    "||": lambda a, b: 1 if (a != 0 or b != 0) else 0,
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "<<": lambda a, b: a << b,
    ">>": lambda a, b: a >> b,
}

BINARY_OPERATORS = tuple(_BINOPS)


@dataclass(frozen=True, repr=False, eq=False)
class BinOp(Expr):
    """A binary operation ``e1 op e2``."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in _BINOPS:
            raise ValueError(f"unknown binary operator {self.op!r}")

    def evaluate(self, ctx: EvalContext) -> int:
        if self.op == "&&":
            return 1 if (self.left.evaluate(ctx) != 0 and self.right.evaluate(ctx) != 0) else 0
        if self.op == "||":
            return 1 if (self.left.evaluate(ctx) != 0 or self.right.evaluate(ctx) != 0) else 0
        lhs = self.left.evaluate(ctx)
        rhs = self.right.evaluate(ctx)
        if self.op == "/":
            if rhs == 0:
                raise EvaluationError(f"division by zero in {self.to_source()}")
            return _int_div(lhs, rhs)
        if self.op == "%":
            if rhs == 0:
                raise EvaluationError(f"modulo by zero in {self.to_source()}")
            return lhs - _int_div(lhs, rhs) * rhs
        if self.op in ("<<", ">>") and rhs < 0:
            raise EvaluationError(f"negative shift amount in {self.to_source()}")
        return _BINOPS[self.op](lhs, rhs)

    def walk(self) -> Iterator[Expr]:
        yield self
        yield from self.left.walk()
        yield from self.right.walk()

    def to_source(self) -> str:
        return f"({self.left.to_source()} {self.op} {self.right.to_source()})"


@dataclass(frozen=True, repr=False, eq=False)
class Cond(Expr):
    """A ternary conditional ``e1 ? e2 : e3``."""

    condition: Expr
    then: Expr
    otherwise: Expr

    def evaluate(self, ctx: EvalContext) -> int:
        if self.condition.evaluate(ctx) != 0:
            return self.then.evaluate(ctx)
        return self.otherwise.evaluate(ctx)

    def walk(self) -> Iterator[Expr]:
        yield self
        yield from self.condition.walk()
        yield from self.then.walk()
        yield from self.otherwise.walk()

    def to_source(self) -> str:
        return (
            f"({self.condition.to_source()} ? {self.then.to_source()}"
            f" : {self.otherwise.to_source()})"
        )


@dataclass(frozen=True, repr=False, eq=False)
class Exists(Expr):
    """The existential ``exists j . e1 ? e2 : e3`` of section 3.4.

    The expression loops over the array referenced inside ``e1`` (the first
    array reference indexed by the bound variable), binds ``var`` to the
    index of the first element for which ``e1`` is non-zero, and evaluates
    ``e2``; if no element satisfies ``e1``, it evaluates ``e3``.
    """

    var: str
    condition: Expr
    then: Expr
    otherwise: Expr

    def _target_array(self) -> Optional[str]:
        """Name of the array the existential quantifies over."""
        for node in self.condition.walk():
            if isinstance(node, Index):
                index_refs = node.index.references()
                if ("name", self.var) in index_refs:
                    return node.nonterminal
        return None

    def evaluate(self, ctx: EvalContext) -> int:
        array_name = self._target_array()
        if array_name is None:
            raise EvaluationError(
                f"existential over {self.var!r} does not reference any array "
                f"indexed by it: {self.to_source()}"
            )
        length = ctx.array_length(array_name)
        saved = ctx.env.get(self.var)
        had_binding = self.var in ctx.env
        try:
            for position in range(length):
                ctx.env[self.var] = position
                if self.condition.evaluate(ctx) != 0:
                    return self.then.evaluate(ctx)
            if had_binding:
                ctx.env[self.var] = saved  # restore before the else branch
            else:
                ctx.env.pop(self.var, None)
            return self.otherwise.evaluate(ctx)
        finally:
            if had_binding:
                ctx.env[self.var] = saved
            else:
                ctx.env.pop(self.var, None)

    def _own_references(self) -> Set[Tuple[str, str]]:
        return set()

    def references(self) -> Set[Tuple[str, str]]:
        refs: Set[Tuple[str, str]] = set()
        for part in (self.condition, self.then, self.otherwise):
            refs |= part.references()
        # The bound variable is not a free reference.
        refs.discard(("name", self.var))
        return refs

    def walk(self) -> Iterator[Expr]:
        yield self
        yield from self.condition.walk()
        yield from self.then.walk()
        yield from self.otherwise.walk()

    def to_source(self) -> str:
        return (
            f"(exists {self.var} . {self.condition.to_source()} ? "
            f"{self.then.to_source()} : {self.otherwise.to_source()})"
        )


# ---------------------------------------------------------------------------
# Convenience constructors (used heavily by auto-completion and tests)
# ---------------------------------------------------------------------------

EOI = Name("EOI")


def num(value: int) -> Num:
    """Shorthand for :class:`Num`."""
    return Num(value)


def add(left: Expr, right: Expr) -> Expr:
    """``left + right`` with constant folding for the common cases."""
    if isinstance(left, Num) and isinstance(right, Num):
        return Num(left.value + right.value)
    if isinstance(right, Num) and right.value == 0:
        return left
    if isinstance(left, Num) and left.value == 0:
        return right
    return BinOp("+", left, right)


def sub(left: Expr, right: Expr) -> Expr:
    """``left - right`` with constant folding for the common cases."""
    if isinstance(left, Num) and isinstance(right, Num):
        return Num(left.value - right.value)
    if isinstance(right, Num) and right.value == 0:
        return left
    return BinOp("-", left, right)


def dot_end(nonterminal: str) -> Dot:
    """``A.end`` — used by interval auto-completion."""
    return Dot(nonterminal, "end")
