"""Fixed-shape static analysis: byte layouts of rules -> ``struct`` plans.

The Fig. 13 gap between the IPG engines and the handwritten/Kaitai-style
baselines is largely a *per-record tax*: ELF symbol tables, ZIP central
directory entries, PE section headers, DNS headers and IPv4 words are all
statically fixed-width, yet every record pays a rule invocation, an
environment, and one ``int.from_bytes`` (plus a slice) per field.  The
baselines decode the same records with one precompiled
:class:`struct.Struct` per layout.  This module computes, per
rule/alternative, whether the same move is sound for an IPG — and the plan
that makes it.

For every **top-level** rule alternative the analysis walks the (reordered,
i.e. execution-ordered) terms and tries to resolve each consuming term to a
constant offset/width relative to the alternative's window, symbolically
chasing the ``P.end`` chains interval auto-completion leaves behind:

* terminal strings with statically-constant intervals become literal fields
  (decoded as ``{n}s`` slots and compared against the expected bytes);
* fixed-width integer builtins (``U16LE``, ``U32BE``, ...) become integer
  slots with the matching struct code; a plan mixes at most one byte order;
* ``Raw``/``Bytes`` with constant width become pad/``{n}s`` fields;
* nonterminals that resolve to other single-alternative **fully** fixed
  rules at a constant-width window nest their plan (flattened into the same
  struct format);
* ``for`` arrays with constant bounds and constant per-element intervals
  over a fixed element nest one plan copy per element;
* attribute definitions and ``guard`` terms become *post-decode* steps over
  the unpacked tuple: their expressions are rewritten so that ``B.val``
  reads a tuple slot and earlier attributes read locals;
* anything interval-dependent — a width derived from a decoded value, an
  ``EOI``-relative right endpoint (when the window width is unknown), a
  switch, a blackbox, a ``where`` local rule — conservatively **stops** the
  walk.  The terms covered so far form a fixed *prefix* plan (ZIP's CDE and
  LFH records are a 46/30-byte fixed prefix followed by variable-length
  names); a plan covering every term is *full* and additionally enables
  bulk array decoding (one ``Struct.iter_unpack`` per array).

Soundness contract: executing a plan is observably identical to executing
the covered terms one by one.  The single ``window >= needed`` bounds check
subsumes every covered interval-validity check (all offsets are constants),
and every early-exit path of the covered terms — an interval check, a
literal mismatch, a failing guard, an :class:`EvaluationError` from an
attribute expression — produces the same clean ``FAIL`` regardless of
order, because covered terms can neither reach blackboxes nor raise
anything else.  Plans never change *which* inputs parse, only how fast.

Like :mod:`repro.core.firstsets`, parametric (window-width-independent)
analyses are cached on the prepared ``Grammar`` instance; width-known
instantiations (bulk array elements, nested rules) are built fresh per use
so their struct slots can be assigned per plan.

Consumers:

* :func:`repro.core.ir.analyze` (``Optimizations.bulk_fixed_shape``) takes
  every plan decision once: which top-level alternatives fuse their
  covered prefix, and which ``for`` arrays decode in bulk;
* the closure backend (:mod:`repro.core.backends.closures`) renders those
  plans with :func:`emit_plan_code` — fused prefixes in the generated
  alternatives and ``iter_unpack`` loops for the arrays, all as plain
  source, so the ahead-of-time emitter vendors the ``struct.Struct``
  constants for free;
* ``repro compile --explain`` prints each plan on its ``alt`` or
  ``array`` line (:func:`repro.core.ir.explain_plan`).
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, Optional, Tuple

from .ast import (
    Alternative,
    Grammar,
    TermArray,
    TermAttrDef,
    TermGuard,
    TermNonterminal,
    TermSwitch,
    TermTerminal,
)
from .builtins import BUILTINS
from .errors import EvaluationError
from .expr import BinOp, Cond, Dot, Expr, Name, Num
from .exprcomp import SPECIALS, binop_source, cond_source, fold

__all__ = [
    "AltShape",
    "PlanCode",
    "alternative_shape",
    "rule_shape",
    "linear_stride",
]

#: struct format codes of the fixed-width integer builtins.
_INT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}
_SIGNED_CODES = {4: "i", 8: "q"}

#: Caps keeping flattened plans (and the code generated from them) small.
_MAX_LEAVES = 256
_MAX_ARRAY_COUNT = 32

_UID = [0]


class _Stop(Exception):
    """The walk left the fixed fragment; the plan ends before this term."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class _NotConst(Exception):
    """A statically evaluated expression referenced a runtime value."""


def _rw_can_raise(rw) -> bool:
    """Whether a rewritten expression can raise EvaluationError at runtime."""
    kind = rw[0]
    if kind == "bin":
        if rw[1] in ("/", "%", "<<", ">>"):
            return True
        return _rw_can_raise(rw[2]) or _rw_can_raise(rw[3])
    if kind == "cond":
        return any(_rw_can_raise(part) for part in rw[1:])
    return False


# ---------------------------------------------------------------------------
# Plan pieces
# ---------------------------------------------------------------------------


class _Field:
    """One leaf of the flattened layout (a struct slot or pad range).

    ``offset`` is absolute within the *top* frame once the plan is
    finalized (nested frames are shifted during absorption); ``eoi`` is the
    field's own window length when constant, or ``None`` for the
    ``EOI - offset`` of a parametric frame.
    """

    __slots__ = ("kind", "offset", "width", "name", "value", "code", "eoi", "slot")

    def __init__(self, kind, offset, width, name=None, value=None, code=None, eoi=None):
        self.kind = kind  # "lit" | "int" | "raw" | "bytes"
        self.offset = offset
        self.width = width
        self.name = name  # builtin name for int/raw/bytes
        self.value = value  # expected bytes for "lit"
        self.code = code  # struct code ("H", "4s", ...); None = pad
        self.eoi = eoi
        self.slot = None  # tuple index, assigned at finalize


class _AttrStep:
    """``{name = e}``: bind an attribute from the decoded state."""

    __slots__ = ("name", "rw", "key")

    def __init__(self, name, rw, key):
        self.name = name
        self.rw = rw  # rewritten expression (see _Analyzer._rewrite)
        self.key = key  # unique local-name suffix within the top plan


class _GuardStep:
    """``guard(e)`` over the decoded state."""

    __slots__ = ("rw",)

    def __init__(self, rw):
        self.rw = rw


class _NestedStep:
    """A nonterminal term resolved to a fully fixed rule at a const window."""

    __slots__ = ("offset", "width", "name", "plan")

    def __init__(self, offset, width, name, plan):
        self.offset = offset  # absolute within the top frame after absorb
        self.width = width  # the nested window width (== nested EOI)
        self.name = name
        self.plan = plan  # AltShape analyzed at width=width


class _ArrayStep:
    """A ``for`` array with constant bounds and intervals."""

    __slots__ = ("name", "offsets", "width", "plans")

    def __init__(self, name, offsets, width, plans):
        self.name = name
        self.offsets = offsets  # per-element window offsets (absolute)
        self.width = width  # per-element window width
        self.plans = plans  # one fresh AltShape per element


class AltShape:
    """The fixed-layout prefix of one alternative.

    ``items`` lists the covered steps in execution order; ``covered`` counts
    the covered terms (``full`` when every term is covered).  ``fmt``/
    ``size`` describe the flattened struct layout spanning ``[0, size)`` of
    the window; ``needed`` is the minimal window length any successful parse
    of the covered terms requires.  ``start``/``end`` are the statically
    known touched-byte span (``touch`` is False when nothing is touched).
    """

    def __init__(self, rule_name: str, alt_index: int, width: Optional[int]):
        self.rule_name = rule_name
        self.alt_index = alt_index
        self.width = width  # window width when instantiated, else None
        self.items: list = []
        self.fields: List[_Field] = []  # every leaf, flattened, top-frame offsets
        self.attr_steps: List[_AttrStep] = []  # top-frame attribute bindings
        self.covered = 0
        self.total = 0
        self.full = False
        self.needed = 0
        self.touch = False
        self.start = 0
        self.end = 0
        self.byteorder: Optional[str] = None
        self.fmt = ""
        self.size = 0
        self.nslots = 0
        self.has_guards = False
        self.has_lits = False
        #: Whether any attribute step's expression can raise at decode time
        #: (division / modulo / shift): evaluating it is itself a check the
        #: engines must not skip, since EvaluationError fails the parse.
        self.has_raising_attrs = False
        self.stop_reason: Optional[str] = None
        _UID[0] += 1
        self.uid = _UID[0]

    # -- queries -----------------------------------------------------------
    @property
    def worthwhile(self) -> bool:
        """Whether fusing beats the per-term path (amortizes the C call)."""
        return self.nslots >= 3

    @property
    def checks_anything(self) -> bool:
        """Whether decoding can fail beyond the window bounds check."""
        return self.has_guards or self.has_lits or self.has_raising_attrs

    def recorded_names(self) -> List[str]:
        names = []
        for item in self.items:
            if isinstance(item, _Field) and item.kind in ("int", "raw", "bytes"):
                names.append(item.name)
            elif isinstance(item, _NestedStep):
                names.append(item.name)
        return names

    def array_names(self) -> List[str]:
        return [item.name for item in self.items if isinstance(item, _ArrayStep)]

    def describe(self) -> str:
        kind = "fixed" if self.full else "fixed prefix"
        parts = [f"{kind}, {self.needed} byte(s), {self.nslots} slot(s)"]
        if self.fmt:
            parts.append(f"fmt {self.fmt!r}")
        if not self.full:
            parts.append(f"covers {self.covered}/{self.total} terms")
            if self.stop_reason:
                parts.append(f"stops: {self.stop_reason}")
        return ", ".join(parts)


# ---------------------------------------------------------------------------
# Static evaluation of interval / bound expressions
# ---------------------------------------------------------------------------


class _StaticCtx:
    """Duck-typed ``EvalContext`` over the statically known values."""

    __slots__ = ("names", "records")

    def __init__(self):
        self.names: Dict[str, int] = {}
        self.records: Dict[str, Dict[str, int]] = {}

    def lookup_name(self, name: str) -> int:
        try:
            return self.names[name]
        except KeyError:
            raise _NotConst() from None

    def lookup_dot(self, nonterminal: str, attr: str) -> int:
        record = self.records.get(nonterminal)
        if record is None or attr not in record:
            raise _NotConst()
        return record[attr]

    def lookup_index(self, nonterminal, index, attr):
        raise _NotConst()

    def array_length(self, nonterminal):
        raise _NotConst()


# ---------------------------------------------------------------------------
# The analysis walk
# ---------------------------------------------------------------------------


class _Analyzer:
    def __init__(
        self,
        grammar: Grammar,
        width: Optional[int],
        in_progress: frozenset,
        flat_only: bool = False,
    ):
        self.grammar = grammar
        self.width = width
        self.in_progress = in_progress
        #: Refuse to absorb nested rules / arrays.  Streaming compilations
        #: fuse flat-only prefixes: absorbing a sub-*rule* would replace a
        #: memoized call with inline reads that re-execute on every stream
        #: re-entry, pinning the compaction watermark at the rule's window
        #: start (the same reason the streaming variant disables single-use
        #: inlining).
        self.flat_only = flat_only
        self.ctx = _StaticCtx()
        #: name -> ("int" | "raw" | "bytes", _Field) | ("nested", _NestedStep)
        self.records: Dict[str, tuple] = {}
        self.attrs_by_name: Dict[str, _AttrStep] = {}
        self.key_counter = [0]

    def analyze(
        self,
        rule_name: str,
        alt_index: int,
        alternative: Alternative,
    ) -> AltShape:
        plan = AltShape(rule_name, alt_index, self.width)
        terms = alternative.terms
        plan.total = len(terms)
        if alternative.local_rules:
            plan.stop_reason = "declares where-rules"
            return plan
        try:
            for term in terms:
                self._walk_term(term, plan)
                plan.covered += 1
        except _Stop as stop:
            plan.stop_reason = stop.reason
        plan.full = plan.covered == plan.total
        self._finalize(plan)
        return plan

    # -- helpers -----------------------------------------------------------
    def _static(self, expr: Expr) -> Optional[int]:
        folded = fold(expr)
        if isinstance(folded, Num):
            return folded.value
        try:
            return folded.evaluate(self.ctx)
        except _NotConst:
            return None
        except EvaluationError:
            # A constant expression that raises at parse time (div by zero):
            # let the ordinary term path produce the failure.
            raise _Stop("expression raises statically")

    def _interval(self, term, what: str) -> Tuple[int, object]:
        """Resolve a term's interval to ``(left, right)``; right may be "EOI"."""
        interval = term.interval
        if interval.left is None or interval.right is None:
            raise _Stop(f"{what}: interval not auto-completed")
        left = self._static(interval.left)
        if left is None:
            raise _Stop(f"{what}: left endpoint is not static")
        right = self._static(interval.right)
        if right is None:
            folded = fold(interval.right)
            if isinstance(folded, Name) and folded.ident == "EOI":
                if self.width is not None:
                    return left, self.width
                return left, "EOI"
            raise _Stop(f"{what}: right endpoint is not static")
        return left, right

    def _check_window(self, plan: AltShape, left: int, right, consumed: int, what: str) -> None:
        """Static part of the ``0 <= l <= r <= EOI`` / width validity checks."""
        if left < 0:
            raise _Stop(f"{what}: always fails (negative left endpoint)")
        if right == "EOI":
            plan.needed = max(plan.needed, left + consumed)
            return
        if right < left or right - left < consumed:
            raise _Stop(f"{what}: always fails (window narrower than content)")
        if self.width is not None and right > self.width:
            raise _Stop(f"{what}: always fails (window exceeds the frame)")
        plan.needed = max(plan.needed, right)

    def _register_field(self, plan: AltShape, field: _Field, what: str) -> None:
        """Add one leaf to the flattened layout (overlap- and cap-checked)."""
        if field.width > 0:
            for other in plan.fields:
                if (
                    field.offset < other.offset + other.width
                    and other.offset < field.offset + field.width
                ):
                    raise _Stop(f"{what}: overlaps an earlier field")
        if len(plan.fields) >= _MAX_LEAVES:
            raise _Stop("layout exceeds the flattened-field cap")
        plan.fields.append(field)

    def _touch_span(self, plan: AltShape, start: int, end: int) -> None:
        if not plan.touch:
            plan.touch, plan.start, plan.end = True, start, end
        else:
            plan.start = min(plan.start, start)
            plan.end = max(plan.end, end)

    def _merge_byteorder(self, plan: AltShape, order: Optional[str], what: str) -> None:
        if order is None:
            return
        if plan.byteorder is None:
            plan.byteorder = order
        elif plan.byteorder != order:
            raise _Stop(f"{what}: mixes byte orders")

    def _next_key(self) -> int:
        self.key_counter[0] += 1
        return self.key_counter[0]

    def _renumber(self, plan: AltShape) -> None:
        """Give an absorbed plan's attr steps top-plan-unique local keys."""
        for item in plan.items:
            if isinstance(item, _AttrStep):
                item.key = self._next_key()
            elif isinstance(item, _NestedStep):
                self._renumber(item.plan)
            elif isinstance(item, _ArrayStep):
                for inner in item.plans:
                    self._renumber(inner)

    # -- the expression rewriter -------------------------------------------
    def _rewrite(self, expr: Expr, plan: AltShape):
        """Rewrite an attr/guard expression over the decoded state.

        Returns a renderable tuple tree; raises :class:`_Stop` when the
        expression reads anything the plan does not know.
        """
        expr = fold(expr)
        if isinstance(expr, Num):
            return ("num", expr.value)
        if isinstance(expr, Name):
            ident = expr.ident
            if ident == "EOI":
                return ("num", self.width) if self.width is not None else ("eoi",)
            if ident == "end":
                return ("num", plan.end if plan.touch else 0)
            if ident == "start":
                if plan.touch:
                    return ("num", plan.start)
                if self.width is not None:
                    return ("num", self.width)
                return ("eoi",)
            step = self.attrs_by_name.get(ident)
            if step is None:
                raise _Stop(f"references unknown name {ident!r}")
            return ("attr", step)
        if isinstance(expr, Dot):
            return self._rewrite_dot(expr)
        if isinstance(expr, BinOp):
            return (
                "bin",
                expr.op,
                self._rewrite(expr.left, plan),
                self._rewrite(expr.right, plan),
            )
        if isinstance(expr, Cond):
            return (
                "cond",
                self._rewrite(expr.condition, plan),
                self._rewrite(expr.then, plan),
                self._rewrite(expr.otherwise, plan),
            )
        raise _Stop(f"unsupported expression {type(expr).__name__}")

    def _rewrite_dot(self, expr: Dot):
        record = self.records.get(expr.nonterminal)
        if record is None:
            raise _Stop(f"references unparsed nonterminal {expr.nonterminal!r}")
        kind, item = record
        attr = expr.attr
        if kind in ("int", "raw", "bytes"):
            offset, width = item.offset, item.width
            if attr == "start":
                # Every field rebases its start to its window offset — a
                # zero-width Raw included (callee start = its own length 0).
                return ("num", offset)
            if attr == "end":
                return ("num", offset + width)
            if attr == "EOI":
                if item.eoi is not None:
                    return ("num", item.eoi)
                return ("bin", "-", ("eoi",), ("num", offset))
            if kind == "int" and attr == "val":
                return ("slot", item)
            if kind in ("raw", "bytes") and attr in ("len", "val"):
                return ("num", width)
            raise _Stop(f"references unknown attribute {expr.to_source()}")
        # nested rule record
        step: _NestedStep = item
        nested = step.plan
        if attr == "EOI":
            return ("num", step.width)
        if attr == "start":
            return ("num", step.offset + (nested.start if nested.touch else step.width))
        if attr == "end":
            return ("num", step.offset + (nested.end if nested.touch else 0))
        for astep in nested.attr_steps:
            if astep.name == attr:
                return ("attr", astep)
        raise _Stop(f"references unknown attribute {expr.to_source()}")

    # -- term walkers ------------------------------------------------------
    def _walk_term(self, term, plan: AltShape) -> None:
        if isinstance(term, TermAttrDef):
            if term.name in SPECIALS:
                raise _Stop(f"rebinds special {term.name!r}")
            rw = self._rewrite(term.expr, plan)
            step = _AttrStep(term.name, rw, self._next_key())
            plan.items.append(step)
            plan.attr_steps.append(step)
            plan.has_raising_attrs = plan.has_raising_attrs or _rw_can_raise(rw)
            self.attrs_by_name[term.name] = step
            if rw[0] == "num":
                self.ctx.names[term.name] = rw[1]
            else:
                self.ctx.names.pop(term.name, None)
            return
        if isinstance(term, TermGuard):
            rw = self._rewrite(term.expr, plan)
            if rw[0] == "num":
                if rw[1] == 0:
                    raise _Stop("guard always fails")
                return  # statically true: no runtime step needed
            plan.items.append(_GuardStep(rw))
            plan.has_guards = True
            return
        if isinstance(term, TermTerminal):
            left, right = self._interval(term, "terminal")
            value = term.value
            self._check_window(plan, left, right, len(value), "terminal")
            if value:
                field = _Field(
                    "lit", left, len(value), value=value, code=f"{len(value)}s"
                )
                self._register_field(plan, field, "terminal")
                plan.items.append(field)
                plan.has_lits = True
                self._touch_span(plan, left, left + len(value))
            return
        if isinstance(term, TermNonterminal):
            self._walk_nonterminal(term, plan)
            return
        if isinstance(term, TermArray):
            self._walk_array(term, plan)
            return
        if isinstance(term, TermSwitch):
            raise _Stop("switch term")
        raise _Stop(f"term kind {type(term).__name__}")

    def _walk_nonterminal(self, term: TermNonterminal, plan: AltShape) -> None:
        name = term.name
        spec = BUILTINS.get(name) if not self.grammar.has_rule(name) else None
        left, right = self._interval(term, name)
        if spec is not None and spec.size is not None and spec.byteorder is not None:
            width = spec.size
            self._check_window(plan, left, right, width, name)
            code = (_SIGNED_CODES if spec.signed else _INT_CODES).get(width)
            if code is None:
                raise _Stop(f"{name}: no struct code for width {width}")
            if width > 1:
                self._merge_byteorder(
                    plan, "<" if spec.byteorder == "little" else ">", name
                )
            eoi = None if right == "EOI" else right - left
            field = _Field("int", left, width, name=name, code=code, eoi=eoi)
            self._register_field(plan, field, name)
            plan.items.append(field)
            self._touch_span(plan, left, left + width)
            self.records[name] = ("int", field)
            entry = {"start": left, "end": left + width}
            if eoi is not None:
                entry["EOI"] = eoi
            self.ctx.records[name] = entry
            return
        if spec is not None and name in ("Raw", "Bytes"):
            if right == "EOI":
                raise _Stop(f"{name}: width depends on the window")
            width = right - left
            self._check_window(plan, left, right, width, name)
            kind = "raw" if name == "Raw" else "bytes"
            code = f"{width}s" if (kind == "bytes" and width) else None
            field = _Field(kind, left, width, name=name, code=code, eoi=width)
            self._register_field(plan, field, name)
            plan.items.append(field)
            if width:
                self._touch_span(plan, left, left + width)
            self.records[name] = (kind, field)
            self.ctx.records[name] = {
                "start": left,
                "end": left + width,
                "EOI": width,
                "len": width,
                "val": width,
            }
            return
        if spec is not None:
            raise _Stop(f"{name}: variable-width builtin")
        if not self.grammar.has_rule(name):
            raise _Stop(f"{name}: blackbox or unresolved nonterminal")
        if self.flat_only:
            raise _Stop(f"{name}: nested rules not absorbed (flat-only plan)")
        if right == "EOI":
            raise _Stop(f"{name}: window depends on EOI")
        width = right - left
        if width < 0:
            raise _Stop(f"{name}: always fails (negative window)")
        nested = self._nested_plan(name, width)
        if nested is None:
            raise _Stop(f"{name}: not a fully fixed rule")
        self._check_window(plan, left, right, nested.needed, name)
        step = _NestedStep(left, width, name, nested)
        self._absorb(plan, step.plan, left, name)
        plan.items.append(step)
        self.records[name] = ("nested", step)
        entry = {
            "start": left + (nested.start if nested.touch else width),
            "end": left + (nested.end if nested.touch else 0),
            "EOI": width,
        }
        for astep in nested.attr_steps:
            if astep.rw[0] == "num":
                entry[astep.name] = astep.rw[1]
        self.ctx.records[name] = entry

    def _nested_plan(self, name: str, width: int) -> Optional[AltShape]:
        if name in self.in_progress:
            return None
        rule = self.grammar.rule(name)
        if len(rule.alternatives) != 1:
            return None
        nested = _analyze(
            self.grammar,
            name,
            0,
            rule.alternatives[0],
            width=width,
            in_progress=self.in_progress | {name},
        )
        if not nested.full or nested.needed > width:
            return None
        return nested

    def _absorb(self, plan: AltShape, nested: AltShape, base: int, what: str) -> None:
        """Flatten a (freshly built, uniquely owned) nested plan into ``plan``.

        Shifts the nested frame to its absolute base, merges leaves into the
        flattened layout, and renumbers attribute-step keys so generated
        locals stay unique across the whole top plan.  The nested plan's own
        ``start``/``end``/``needed`` stay frame-relative: emission rebases
        them through the step offsets.
        """
        self._merge_byteorder(plan, nested.byteorder, what)
        _shift_steps(nested.items, base)
        for inner in nested.fields:
            inner.offset += base
            self._register_field(plan, inner, what)
        plan.has_guards = plan.has_guards or nested.has_guards
        plan.has_lits = plan.has_lits or nested.has_lits
        plan.has_raising_attrs = plan.has_raising_attrs or nested.has_raising_attrs
        if nested.touch:
            self._touch_span(plan, base + nested.start, base + nested.end)
        self._renumber(nested)

    def _walk_array(self, term: TermArray, plan: AltShape) -> None:
        if self.flat_only:
            raise _Stop("arrays not absorbed (flat-only plan)")
        first = self._static(term.start)
        stop = self._static(term.stop)
        if first is None or stop is None:
            raise _Stop("array bounds are not static")
        count = max(0, stop - first)
        if count > _MAX_ARRAY_COUNT:
            raise _Stop(f"array count {count} exceeds the unroll cap")
        name = term.element.name
        if not self.grammar.has_rule(name) or name in self.in_progress:
            raise _Stop(f"array element {name!r} is not a fixed rule")
        offsets: List[int] = []
        width = 0
        for k in range(count):
            left = self._static_with(term.var, first + k, term.element.interval.left)
            right = self._static_with(term.var, first + k, term.element.interval.right)
            if left is None or right is None:
                raise _Stop("array element interval is not static")
            if k == 0:
                width = right - left
            elif right - left != width:
                raise _Stop("array element widths differ")
            offsets.append(left)
        if width < 0:
            raise _Stop("array element windows always fail")
        plans: List[AltShape] = []
        for offset in offsets:
            nested = self._nested_plan(name, width)
            if nested is None:
                raise _Stop(f"array element {name!r} is not a fully fixed rule")
            self._check_window(plan, offset, offset + width, nested.needed, name)
            self._absorb(plan, nested, offset, name)
            plans.append(nested)
        plan.items.append(_ArrayStep(name, offsets, width, plans))
        # An array rebinds the element name's record/array visibility in
        # ways later references would need indexed access for: drop both so
        # any later use stops the walk conservatively.
        self.records.pop(name, None)
        self.ctx.records.pop(name, None)

    def _static_with(self, var: str, value: int, expr: Expr) -> Optional[int]:
        had = var in self.ctx.names
        saved = self.ctx.names.get(var)
        self.ctx.names[var] = value
        try:
            return self._static(expr)
        finally:
            if had:
                self.ctx.names[var] = saved
            else:
                self.ctx.names.pop(var, None)

    # -- finalize ----------------------------------------------------------
    def _finalize(self, plan: AltShape) -> None:
        slot_fields = sorted(
            (f for f in plan.fields if f.code is not None), key=lambda f: f.offset
        )
        fmt = []
        position = 0
        for index, field in enumerate(slot_fields):
            if field.offset > position:
                fmt.append(f"{field.offset - position}x")
            field.slot = index
            fmt.append(field.code)
            position = field.offset + field.width
        # Pad-only coverage (Raw fields past the last slot) extends the span.
        span = max([position] + [f.offset + f.width for f in plan.fields])
        if span > position:
            fmt.append(f"{span - position}x")
        plan.nslots = len(slot_fields)
        plan.fmt = (plan.byteorder or "<") + "".join(fmt) if fmt else ""
        plan.size = span
        assert not plan.fmt or struct.calcsize(plan.fmt) == span


def _shift_steps(items, base: int) -> None:
    """Shift nested/array step offsets (not leaves) by ``base``, recursively."""
    for item in items:
        if isinstance(item, _NestedStep):
            item.offset += base
            _shift_steps(item.plan.items, base)
        elif isinstance(item, _ArrayStep):
            item.offsets = [offset + base for offset in item.offsets]
            for inner in item.plans:
                _shift_steps(inner.items, base)


def _analyze(grammar, rule_name, alt_index, alternative, width, in_progress,
             flat_only=False):
    return _Analyzer(grammar, width, in_progress, flat_only=flat_only).analyze(
        rule_name, alt_index, alternative
    )


# ---------------------------------------------------------------------------
# Linear stride detection (bulk arrays)
# ---------------------------------------------------------------------------


class _Lin:
    """``coeff * var + const + sum(mult_i * atom_i)`` over opaque atoms."""

    __slots__ = ("coeff", "const", "atoms")

    def __init__(self, coeff=0, const=0, atoms=None):
        self.coeff = coeff
        self.const = const
        self.atoms = atoms or {}


def _loop_variant(expr: Expr) -> bool:
    """Whether a var-free expression may still change across iterations.

    Bulk lowering evaluates the interval base once before the loop, so an
    "atom" must be loop-invariant.  ``exists``/``A(e).attr`` read array
    contents (possibly the very array being built) and the bare
    ``start``/``end`` specials track the running ``updStartEnd`` state —
    all of which the per-term path re-evaluates every iteration.
    """
    from .expr import Exists, Index

    for node in expr.walk():
        if isinstance(node, (Exists, Index)):
            return True
        if isinstance(node, Name) and node.ident in ("start", "end"):
            return True
    return False


def _linearize(expr: Expr, var: str) -> Optional[_Lin]:
    expr = fold(expr)
    if isinstance(expr, Num):
        return _Lin(const=expr.value)
    if isinstance(expr, Name) and expr.ident == var:
        return _Lin(coeff=1)
    if ("name", var) not in expr.references():
        if _loop_variant(expr):
            return None
        return _Lin(atoms={expr.to_source(): 1})
    if isinstance(expr, BinOp) and expr.op in ("+", "-"):
        left = _linearize(expr.left, var)
        right = _linearize(expr.right, var)
        if left is None or right is None:
            return None
        sign = 1 if expr.op == "+" else -1
        merged = dict(left.atoms)
        for key, mult in right.atoms.items():
            merged[key] = merged.get(key, 0) + sign * mult
        return _Lin(
            left.coeff + sign * right.coeff, left.const + sign * right.const, merged
        )
    if isinstance(expr, BinOp) and expr.op == "*":
        left = _linearize(expr.left, var)
        right = _linearize(expr.right, var)
        if left is None or right is None:
            return None
        for scale, other in ((left, right), (right, left)):
            if scale.coeff == 0 and not scale.atoms:
                factor = scale.const
                return _Lin(
                    other.coeff * factor,
                    other.const * factor,
                    {key: mult * factor for key, mult in other.atoms.items()},
                )
        return None
    return None


def linear_stride(left: Optional[Expr], right: Optional[Expr], var: str) -> Optional[int]:
    """Stride ``W`` when the interval is ``[c + W*var, c + W*(var+1))``.

    Returns ``None`` unless the left endpoint is linear in ``var`` with a
    positive constant coefficient ``W`` and the right endpoint exceeds it by
    exactly ``W`` (same coefficient, same opaque addends) — the contiguous
    fixed-stride shape bulk decoding requires.
    """
    if left is None or right is None:
        return None
    lhs = _linearize(left, var)
    rhs = _linearize(right, var)
    if lhs is None or rhs is None:
        return None
    stride = lhs.coeff
    if stride <= 0 or rhs.coeff != stride:
        return None
    if {k: m for k, m in lhs.atoms.items() if m} != {
        k: m for k, m in rhs.atoms.items() if m
    }:
        return None
    if rhs.const - lhs.const != stride:
        return None
    return stride


# ---------------------------------------------------------------------------
# Public analysis entry points (cached like firstsets)
# ---------------------------------------------------------------------------


def alternative_shape(
    grammar: Grammar,
    rule_name: str,
    alt_index: int,
    width: Optional[int] = None,
    flat_only: bool = False,
) -> AltShape:
    """The fixed-layout (prefix) plan of one top-level alternative.

    Parametric analyses (``width=None``) are cached on the grammar; a
    width-known instantiation is built fresh so its struct slots belong to
    the caller alone.  ``flat_only`` plans stop at nested rules and arrays
    (the streaming engines' compaction-safe variant).
    """
    if width is None:
        cache = getattr(grammar, "_shape_cache", None)
        if cache is None:
            cache = grammar._shape_cache = {}
        key = (rule_name, alt_index, flat_only)
        cached = cache.get(key)
        if cached is not None:
            return cached
    alternative = grammar.rule(rule_name).alternatives[alt_index]
    plan = _analyze(
        grammar,
        rule_name,
        alt_index,
        alternative,
        width,
        frozenset({rule_name}),
        flat_only=flat_only,
    )
    if width is None:
        cache[key] = plan
    return plan


def rule_shape(grammar: Grammar, name: str, width: Optional[int] = None) -> Optional[AltShape]:
    """The full fixed plan of a single-alternative rule, or ``None``."""
    if not grammar.has_rule(name):
        return None
    rule = grammar.rule(name)
    if len(rule.alternatives) != 1:
        return None
    plan = alternative_shape(grammar, name, 0, width=width)
    if not plan.full:
        return None
    if width is not None and plan.needed > width:
        return None
    return plan


# ---------------------------------------------------------------------------
# Plan -> Python source (the compiler's consumer)
# ---------------------------------------------------------------------------


class PlanCode:
    """Rendered decode code for one plan instantiation.

    ``lines`` holds the checks-and-values pass (literal compares, guards,
    attribute locals) in execution order; ``child_exprs`` the tree-children
    display expressions (empty when ``build=False``); ``attr_locals`` the
    top-frame attribute name -> Python local mapping, in binding order.
    """

    def __init__(self):
        self.lines: List[str] = []
        self.child_exprs: List[str] = []
        self.attr_locals: Dict[str, str] = {}
        self._env_srcs: Dict[str, str] = {}
        self._array_srcs: Dict[str, str] = {}

    def env_src(self, name: str) -> Optional[str]:
        """Env-dict display for a recorded nonterminal (for later Dot refs)."""
        return self._env_srcs.get(name)

    def array_src(self, name: str) -> Optional[str]:
        """Element list display for a plan array (for later Index refs)."""
        return self._array_srcs.get(name)


def _attr_local(step: _AttrStep, plan: AltShape) -> str:
    return f"_fa{plan.uid}_{step.key}"


def _render(rw, slot_src: Callable[[_Field], str], attr_src, eoi_src: str) -> str:
    kind = rw[0]
    if kind == "num":
        return repr(rw[1])
    if kind == "eoi":
        return eoi_src
    if kind == "slot":
        return slot_src(rw[1])
    if kind == "attr":
        return attr_src(rw[1])
    if kind == "cond":
        parts = [_render(part, slot_src, attr_src, eoi_src) for part in rw[1:]]
        return cond_source(*parts)
    assert kind == "bin"
    left = _render(rw[2], slot_src, attr_src, eoi_src)
    right = _render(rw[3], slot_src, attr_src, eoi_src)
    return binop_source(rw[1], left, right)


def _add_src(base: str, offset: int) -> str:
    if offset == 0:
        return base
    try:
        return repr(int(base) + offset)
    except ValueError:
        return f"{base} + {offset}"


def emit_plan_code(
    plan: AltShape,
    *,
    slot_var: str,
    eoi_src: str,
    abs_base: str,
    build: bool,
    leaf_const: Callable[[bytes], str],
    data_var: str = "data",
) -> PlanCode:
    """Render a plan instantiation as straight-line Python.

    ``slot_var`` names the unpacked tuple local; ``eoi_src`` the frame
    length source; ``abs_base`` the absolute data offset of the frame.
    Every env offset is a frame-relative constant: a caller that rebases
    the frame (bulk array elements) builds the top env itself from
    ``attr_locals`` and the plan's static span.  ``leaf_const`` interns
    literal leaves (the compiler's shared constants).  The caller is
    responsible for the ``window >= plan.needed`` bounds check and for the
    ``unpack``/``unpack_from`` call producing ``slot_var``.
    """
    code = PlanCode()

    def slot_src(field: _Field) -> str:
        return f"{slot_var}[{field.slot}]"

    def attr_src(step: _AttrStep) -> str:
        return _attr_local(step, plan)

    def int_env(field: _Field, rel, frame_eoi: str) -> str:
        if field.eoi is not None:
            eoi = repr(field.eoi)
        else:
            eoi = f"{frame_eoi} - {field.offset}" if field.offset else frame_eoi
        return (
            f"{{'EOI': {eoi}, 'start': {rel(field.offset)}, "
            f"'end': {rel(field.offset + field.width)}, "
            f"'val': {slot_src(field)}}}"
        )

    def raw_env(field: _Field, rel) -> str:
        width = field.width
        return (
            f"{{'EOI': {width}, 'start': {rel(field.offset)}, "
            f"'end': {rel(field.offset + width)}, "
            f"'len': {width}, 'val': {width}}}"
        )

    def field_node(field: _Field, rel, frame_eoi: str) -> str:
        if field.kind == "lit":
            return leaf_const(field.value)
        if field.kind == "int":
            window = (
                f"{data_var}[{_add_src(abs_base, field.offset)}:"
                f"{_add_src(abs_base, field.offset + field.width)}]"
            )
            return (
                f"_mk_node({field.name!r}, {int_env(field, rel, frame_eoi)}, "
                f"[_mk_leaf({window})])"
            )
        if field.kind == "bytes":
            payload = f"_mk_leaf({slot_src(field)})" if field.width else "_mk_leaf(b'')"
            return f"_mk_node({field.name!r}, {raw_env(field, rel)}, [{payload}])"
        assert field.kind == "raw"
        return f"_mk_node({field.name!r}, {raw_env(field, rel)}, [])"

    def nested_env_items(step: _NestedStep, rel) -> List[str]:
        nested = step.plan
        items = [f"'EOI': {step.width}"]
        if nested.touch:
            items.append(f"'start': {rel(step.offset + nested.start)}")
            items.append(f"'end': {rel(step.offset + nested.end)}")
        else:
            items.append(f"'start': {rel(step.offset + step.width)}")
            items.append(f"'end': {rel(step.offset)}")
        for astep in nested.attr_steps:
            items.append(f"{astep.name!r}: {_attr_local(astep, plan)}")
        return items

    def nested_node(step: _NestedStep, rel) -> str:
        def inner_rel(offset: int) -> str:
            return repr(offset - step.offset)

        children = []
        for item in step.plan.items:
            rendered = item_node(item, inner_rel)
            if rendered is not None:
                children.append(rendered)
        env = ", ".join(nested_env_items(step, rel))
        return f"_mk_node({step.name!r}, {{{env}}}, [{', '.join(children)}])"

    def item_node(item, rel) -> Optional[str]:
        if isinstance(item, _Field):
            return field_node(item, rel, eoi_src)
        if isinstance(item, _NestedStep):
            return nested_node(item, rel)
        if isinstance(item, _ArrayStep):
            elements = [
                nested_node(_NestedStep(offset, item.width, item.name, nested), rel)
                for offset, nested in zip(item.offsets, item.plans)
            ]
            return f"_mk_array({item.name!r}, [{', '.join(elements)}])"
        return None

    # -- pass 1: checks and values (execution order, frames flattened) -----
    def value_pass(items) -> None:
        for item in items:
            if isinstance(item, _Field):
                if item.kind == "lit":
                    code.lines.append(f"if {slot_src(item)} != {item.value!r}:")
                    code.lines.append("    return FAIL")
            elif isinstance(item, _AttrStep):
                rendered = _render(item.rw, slot_src, attr_src, eoi_src)
                code.lines.append(f"{_attr_local(item, plan)} = {rendered}")
            elif isinstance(item, _GuardStep):
                rendered = _render(item.rw, slot_src, attr_src, eoi_src)
                code.lines.append(f"if {rendered} == 0:")
                code.lines.append("    return FAIL")
            elif isinstance(item, _NestedStep):
                value_pass(item.plan.items)
            elif isinstance(item, _ArrayStep):
                for nested in item.plans:
                    value_pass(nested.items)

    value_pass(plan.items)

    for item in plan.items:
        if isinstance(item, _AttrStep):
            code.attr_locals[item.name] = _attr_local(item, plan)

    # -- pass 2: tree children / record envs / array element lists ---------
    if build:
        for item in plan.items:
            rendered = item_node(item, repr)
            if rendered is not None:
                code.child_exprs.append(rendered)
    for item in plan.items:
        if isinstance(item, _Field) and item.kind in ("int", "raw", "bytes"):
            env = (
                int_env(item, repr, eoi_src)
                if item.kind == "int"
                else raw_env(item, repr)
            )
            code._env_srcs[item.name] = env
        elif isinstance(item, _NestedStep):
            code._env_srcs[item.name] = (
                f"{{{', '.join(nested_env_items(item, repr))}}}"
            )
        elif isinstance(item, _ArrayStep):
            elements = []
            for offset, nested in zip(item.offsets, item.plans):
                step = _NestedStep(offset, item.width, item.name, nested)
                if build:
                    elements.append(nested_node(step, repr))
                else:
                    elements.append(f"{{{', '.join(nested_env_items(step, repr))}}}")
            code._array_srcs[item.name] = f"[{', '.join(elements)}]"
    return code
