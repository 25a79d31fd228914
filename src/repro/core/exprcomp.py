"""Staged compilation of IPG expressions to Python source.

This is the expression half of the compiled backend
(:mod:`repro.core.compiler`).  The tree-walking interpreter evaluates every
interval bound, guard and attribute definition by recursing over the
:class:`~repro.core.expr.Expr` AST and resolving names through the
:class:`~repro.core.env.EvalContext` chain at runtime.  Here the same
expressions are *staged*: each is rendered once, at grammar-compile time,
into a Python expression string in which

* integer literals and constant subtrees are folded into literals,
* attribute and loop-variable references become plain Python locals of the
  enclosing compiled alternative (the environment is slot-based: one local
  per attribute instead of per-term dict operations),
* ``A.attr`` references become a single dict indexing on the recorded
  node-environment local,
* ``A(e).attr`` references become a call to the bounds-checked
  :func:`repro.core.compiler._aidx` helper on the element-list local, and
* the special attributes ``EOI``/``start``/``end`` become the dedicated
  locals threaded by the compiled ``updStartEnd`` code.

Scoping is resolved statically through :class:`Scope`, which mirrors the
``EvalContext.outer`` chain of the interpreter.  Compiled ``where`` local
rules are module-level functions with explicit closure cells: each
declaring alternative allocates one cell list per invocation, mirrors its
locals into it as they are (re)bound, and passes it to the module-level
local-rule functions as an explicit ``_cells`` argument.  Slot ``0`` of
every cell list links to the enclosing scope's list, so a reference across
``k`` scope levels compiles to ``_cells[0]…[0][slot]`` — a static chain
walk with no per-invocation function construction.

Resolution is therefore *reader-aware*: the scope an expression occurs in
(``reader``) determines whether an entry of an enclosing scope is rendered
as a plain local (same function) or as a cell access (a where-rule reading
its declaring alternative's locals).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from .errors import CompilationError, EvaluationError
from .expr import BinOp, Cond, Dot, Exists, Expr, Index, Name, Num

#: The special attributes present in every environment (rule R-AltSucc).
SPECIALS = ("EOI", "start", "end")


class Namer:
    """Produces fresh, collision-free Python identifiers."""

    def __init__(self) -> None:
        self._counter = 0

    def fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"


class LoopVar:
    """A loop-variable binding whose liveness is checked at read time.

    Loop variables go out of scope after their array term (the interpreter
    pops the binding), but ``where`` local rules may be invoked both while
    the binding is live and after it died.  The compiled local is poisoned
    with ``_UB`` outside the loop; a read renders as a conditional that
    falls through to the binding an *enclosing* scope would provide — or
    fails — exactly like the interpreter's env chain after the pop.
    """

    __slots__ = ("local", "var")

    def __init__(self, local: str, var: str):
        self.local = local
        self.var = var


#: A scope's name binding: a plain Python local, or a loop variable.
NameEntry = Union[str, LoopVar]


class Scope:
    """Static model of one :class:`~repro.core.env.EvalContext`.

    One scope is created per compiled alternative; local (``where``) rule
    alternatives chain to the enclosing alternative's scope through
    ``parent``, exactly like ``EvalContext.outer``.  Every scope is also
    one compiled *function*, so crossing a ``parent`` link always crosses a
    function boundary.

    Attributes
    ----------
    fid:
        Unique suffix for this scope's Python locals (``_eoi{fid}`` etc.).
    names:
        Attribute / loop-variable name -> :data:`NameEntry`.
    node_envs:
        Nonterminal name -> ``(local, certain)``; ``local`` holds the
        recorded node environment dict.  ``certain`` is False when the
        record may not have happened (the name is a switch-case target), in
        which case the local is pre-initialised to ``None`` and reads fall
        through to the parent scope at runtime.
    arrays:
        Array element name -> Python local holding the element list.
    """

    def __init__(self, fid: str, parent: Optional["Scope"] = None):
        self.fid = fid
        self.parent = parent
        self.names: Dict[str, NameEntry] = {}
        self.node_envs: Dict[str, Tuple[str, bool]] = {}
        self.arrays: Dict[str, str] = {}
        #: True when the alternative declares where-rules.  Its locals are
        #: then mirrored into an explicit cell list that descendant scopes
        #: read via :func:`access`.  Those reads may happen *before* the
        #: recording term ran, so the record locals are pre-initialised to
        #: ``None`` and cross-scope reads compile to conditional
        #: fall-through.
        self.has_locals = False
        #: local variable name -> cell slot (slot 0 links to the parent's
        #: cell list; value slots start at 1).
        self.cell_slots: Dict[str, int] = {}

    # -- the slot-based specials -------------------------------------------
    def special(self, which: str) -> str:
        return f"_{which.lower()}{self.fid}"

    @property
    def eoi(self) -> str:
        return self.special("EOI")

    @property
    def start(self) -> str:
        return self.special("start")

    @property
    def end(self) -> str:
        return self.special("end")

    # -- explicit closure cells --------------------------------------------
    @property
    def cell_local(self) -> str:
        """The Python local holding this scope's cell list."""
        return f"_cl{self.fid}"

    def cell(self, local: str) -> int:
        """Slot index of ``local`` in the cell list (allocated on demand)."""
        slot = self.cell_slots.get(local)
        if slot is None:
            slot = len(self.cell_slots) + 1  # slot 0 links to the parent
            self.cell_slots[local] = slot
        return slot


# ---------------------------------------------------------------------------
# Cross-scope access
# ---------------------------------------------------------------------------


def cells_path(reader: Scope, owner: Scope) -> str:
    """Expression for ``owner``'s cell list, valid inside ``reader``'s function.

    Inside its own function the cell list is a local; from a descendant
    local-rule function it is reached through the explicit ``_cells``
    argument (the declaring scope's list) and slot-0 parent links.
    """
    if owner is reader:
        return reader.cell_local
    hops = 0
    current = reader.parent
    while current is not None and current is not owner:
        hops += 1
        current = current.parent
    if current is None:  # pragma: no cover - compiler invariant
        raise CompilationError("cell access to a scope outside the static chain")
    return "_cells" + "[0]" * hops


def access(reader: Scope, owner: Scope, local: str) -> str:
    """Render a read of ``owner``'s compiled local from ``reader``'s function.

    Same function: the plain local.  Across functions (a where-rule reading
    a declaring alternative's local): a cell access.
    """
    if owner is reader or not owner.has_locals:
        return local
    return f"{cells_path(reader, owner)}[{owner.cell(local)}]"


# ---------------------------------------------------------------------------
# Constant folding
# ---------------------------------------------------------------------------


def fold(expr: Expr) -> Expr:
    """Fold constant subtrees of ``expr`` into :class:`Num` literals.

    Folding never changes observable behaviour: subtrees whose evaluation
    would raise (division by zero, negative shifts) are left intact so the
    failure still happens at parse time, and short-circuit operators only
    fold when the left operand decides the result.
    """
    if isinstance(expr, Num):
        return expr
    if isinstance(expr, Name):
        return expr
    if isinstance(expr, Dot):
        return expr
    if isinstance(expr, Index):
        folded = fold(expr.index)
        return expr if folded is expr.index else Index(expr.nonterminal, folded, expr.attr)
    if isinstance(expr, BinOp):
        left = fold(expr.left)
        right = fold(expr.right)
        if isinstance(left, Num):
            # Short-circuit folds do not require a constant right operand.
            if expr.op == "&&" and left.value == 0:
                return Num(0)
            if expr.op == "||" and left.value != 0:
                return Num(1)
            if isinstance(right, Num):
                try:
                    return Num(BinOp(expr.op, left, right).evaluate(None))
                except EvaluationError:
                    pass
        if left is expr.left and right is expr.right:
            return expr
        return BinOp(expr.op, left, right)
    if isinstance(expr, Cond):
        condition = fold(expr.condition)
        if isinstance(condition, Num):
            return fold(expr.then) if condition.value != 0 else fold(expr.otherwise)
        then = fold(expr.then)
        otherwise = fold(expr.otherwise)
        if condition is expr.condition and then is expr.then and otherwise is expr.otherwise:
            return expr
        return Cond(condition, then, otherwise)
    if isinstance(expr, Exists):
        return Exists(expr.var, fold(expr.condition), fold(expr.then), fold(expr.otherwise))
    return expr


# ---------------------------------------------------------------------------
# Static name resolution
# ---------------------------------------------------------------------------


def resolve_name(scope: Scope, ident: str, reader: Optional[Scope] = None) -> str:
    """Compile a plain identifier reference to a Python expression.

    Mirrors ``EvalContext.lookup_name``: every environment contains the
    special attributes, so the innermost scope always resolves them.
    ``reader`` is the scope (function) the reference occurs in; it defaults
    to ``scope`` and stays fixed while the walk ascends the chain.
    """
    if reader is None:
        reader = scope
    current: Optional[Scope] = scope
    while current is not None:
        entry = current.names.get(ident)
        if entry is not None:
            return _render_name_entry(entry, current, reader)
        if ident in SPECIALS:
            return current.special(ident)
        current = current.parent
    # The interpreter raises EvaluationError at evaluation time (the
    # alternative fails); emit a call that does exactly that.
    return f"_undef({ident!r})"


def _render_name_entry(entry: NameEntry, owner: Scope, reader: Scope) -> str:
    if isinstance(entry, str):
        ref = access(reader, owner, entry)
        if ref is entry:
            # Same function (or closure): a read before the defining term
            # ran raises NameError, which the compiled alternative maps to
            # failure like the interpreter's EvaluationError.
            return ref
        # Cell reads cannot rely on NameError: the slot exists from the
        # start, poisoned with _UB until the defining term stores a value.
        return f"({ref} if {ref} is not _UB else _undef({entry!r}))"
    # Loop variable: live only while its loop runs; outside it the local
    # holds _UB and the read falls through to the enclosing chain.
    ref = access(reader, owner, entry.local)
    if owner.parent is not None:
        fallthrough = resolve_name(owner.parent, entry.var, reader)
    else:
        fallthrough = f"_undef({entry.var!r})"
    return f"({ref} if {ref} is not _UB else {fallthrough})"


def resolve_dot(scope: Scope, nonterminal: str, attr: str) -> str:
    """Compile ``A.attr``, mirroring ``EvalContext.lookup_dot``.

    In the scope the reference occurs in, position-aware certainty is exact:
    a certain record compiles to a single dict indexing.  Records in
    *ancestor* scopes may not have happened yet when a where-rule body runs
    (the recording term can execute after the call site), so they always
    read the local and fall through to the next scope while it is still
    ``None`` — preserving the interpreter's dynamic chain walk.  Switch-case
    targets are conditional even in their own scope.
    """
    conditionals: List[str] = []
    current: Optional[Scope] = scope
    terminal = None
    while current is not None:
        entry = current.node_envs.get(nonterminal)
        if entry is not None:
            local, certain = entry
            ref = access(scope, current, local)
            if certain and current is scope:
                terminal = f"{ref}[{attr!r}]"
                break
            conditionals.append(ref)
        current = current.parent
    if terminal is None:
        terminal = f"_nonode({nonterminal!r})"
    for ref in reversed(conditionals):
        terminal = f"({ref}[{attr!r}] if {ref} is not None else {terminal})"
    return terminal


def resolve_array_chain(scope: Scope, nonterminal: str) -> list:
    """Element-list references for array ``nonterminal``, innermost first.

    Each element is ``(ref, certain)``; like :func:`resolve_dot`, only a
    binding in the scope the reference occurs in is certain — ancestor
    bindings need a runtime ``is not None`` fall-through.  An empty list
    means the array is statically unknown.
    """
    chain = []
    current: Optional[Scope] = scope
    while current is not None:
        local = current.arrays.get(nonterminal)
        if local is not None:
            ref = access(scope, current, local)
            if current is scope:
                chain.append((ref, True))
                return chain
            chain.append((ref, False))
        current = current.parent
    return chain


# ---------------------------------------------------------------------------
# Expression -> Python source
# ---------------------------------------------------------------------------


def compile_expr(expr: Expr, scope: Scope, namer: Namer) -> str:
    """Render ``expr`` as a Python expression over the compiled locals."""
    return _compile(fold(expr), scope, namer)


def _compile(expr: Expr, scope: Scope, namer: Namer) -> str:
    if isinstance(expr, Num):
        return repr(expr.value)
    if isinstance(expr, Name):
        return resolve_name(scope, expr.ident)
    if isinstance(expr, Dot):
        return resolve_dot(scope, expr.nonterminal, expr.attr)
    if isinstance(expr, Index):
        chain = resolve_array_chain(scope, expr.nonterminal)
        index = _compile(expr.index, scope, namer)
        # An exhausted chain fails the alternative, exactly like
        # EvalContext.lookup_index on an unknown array.
        source = f"_noarr({expr.nonterminal!r})"
        for elements, certain in reversed(chain):
            call = f"_aidx({elements}, {index}, {expr.nonterminal!r}, {expr.attr!r})"
            source = (
                call
                if certain
                else f"({call} if {elements} is not None else {source})"
            )
        return source
    if isinstance(expr, BinOp):
        left = _compile(expr.left, scope, namer)
        return binop_source(expr.op, left, _compile(expr.right, scope, namer))
    if isinstance(expr, Cond):
        return cond_source(
            _compile(expr.condition, scope, namer),
            _compile(expr.then, scope, namer),
            _compile(expr.otherwise, scope, namer),
        )
    if isinstance(expr, Exists):
        return _compile_exists(expr, scope, namer)
    raise CompilationError(f"cannot compile expression {expr!r}")


def binop_source(op: str, left: str, right: str) -> str:
    """Python source of the IPG binary operator ``op`` over rendered operands.

    The one operator table of all generated code — engine expressions,
    fused struct plans (:mod:`repro.core.shapes`) and guard-narrowing
    programs (:mod:`repro.core.firstsets`).  ``/``, ``%`` and the shifts
    call the runtime helpers that raise :class:`EvaluationError` where the
    interpreter does; comparisons, ``&&`` and ``||`` yield 0 or 1.
    """
    if op in ("+", "-", "*", "&", "|"):
        return f"({left} {op} {right})"
    if op in ("<<", ">>"):
        return f"_shift_{'l' if op == '<<' else 'r'}({left}, {right})"
    if op == "/":
        return f"_div({left}, {right})"
    if op == "%":
        return f"_mod({left}, {right})"
    if op == "=":
        return f"(1 if {left} == {right} else 0)"
    if op in ("!=", "<", ">", "<=", ">="):
        return f"(1 if {left} {op} {right} else 0)"
    if op == "&&":
        return f"(1 if {left} != 0 and {right} != 0 else 0)"
    if op == "||":
        return f"(1 if {left} != 0 or {right} != 0 else 0)"
    raise CompilationError(f"cannot compile binary operator {op!r}")


def cond_source(condition: str, then: str, otherwise: str) -> str:
    """Python source of ``(condition ? then : otherwise)``."""
    return f"({then} if {condition} != 0 else {otherwise})"


def _compile_exists(expr: Exists, scope: Scope, namer: Namer) -> str:
    array_name = expr._target_array()
    if array_name is None:
        # The interpreter raises EvaluationError when it evaluates such an
        # existential; keep that behaviour rather than rejecting the grammar.
        return f"_badexists({expr.to_source()!r})"
    chain = resolve_array_chain(scope, array_name)
    length = f"_noarr({array_name!r})"
    for elements, certain in reversed(chain):
        length = (
            f"len({elements})"
            if certain
            else f"(len({elements}) if {elements} is not None else {length})"
        )
    param = namer.fresh("_q")
    saved = scope.names.get(expr.var)
    scope.names[expr.var] = param
    try:
        condition = _compile(expr.condition, scope, namer)
        then = _compile(expr.then, scope, namer)
    finally:
        if saved is None:
            scope.names.pop(expr.var, None)
        else:
            scope.names[expr.var] = saved
    # The else branch evaluates with the bound variable restored (removed),
    # like the interpreter; references inside it resolve to the outer binding
    # or fail.
    otherwise = _compile(expr.otherwise, scope, namer)
    return (
        f"_exists({length}, lambda {param}: {condition}, "
        f"lambda {param}: {then}, lambda: {otherwise})"
    )
