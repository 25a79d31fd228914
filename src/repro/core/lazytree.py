"""Lazy random-access parse trees: index the file, pay only for what you touch.

IPG intervals are exactly the right metadata for *not* parsing: every
nonterminal invocation carries the absolute window ``(lo, hi)`` it is
confined to, and top-level rule parses are context-free (the engines
call them with no outer scope), so a subtree is fully determined by
``(rule, lo, hi)`` over the input buffer.  This module exploits that:

* :meth:`LazyDocument.parse` validates the input once through the
  tree-elision fast path (``emit="spans"`` machinery: no tree, no
  payload copies) and returns a :class:`LazyNode` root;
* accessing a :class:`LazyNode`'s children runs the **skeleton spine**:
  a reference-interpreter pass that decodes small windows eagerly but
  replaces every top-level-rule invocation whose window is at least
  ``lazy_threshold`` bytes with another stub — probing only the rule's
  attribute environment (elided fast path again) so parent attribute
  references like ``SH(i).offset`` keep working;
* a stub decodes on first access by re-entering the engines on its
  recorded window, with the decoded children cached on the shared slot
  (every re-based occurrence of the same ``(rule, lo, hi)`` parse sees
  the one decode) and the parser's :class:`~repro.core.limits.
  ParseLimits` charged per materialization run.

Combined with the zero-copy input contract (:mod:`repro.core.buffers`)
this turns ``parse the file`` into ``index the file``: over an mmap'd
multi-gigabyte input, touching one ELF section materializes that
section's bytes and nothing else.

``LazyNode`` subclasses :class:`~repro.core.parsetree.Node`, so the
entire navigation API (``child``/``array``/``find_all``/``walk``),
equality, and :func:`~repro.core.parsetree.tree_to_jsonable` work
unchanged — they simply trigger materialization on demand, and a fully
materialized lazy tree compares ``==`` to the eager parse (the golden
corpus locks this in).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .buffers import as_buffer
from .errors import BlackboxError, ParseFailure
from .interpreter import FAIL, _Run
from .parsetree import Node
from .runtime import _guarded

__all__ = ["LazyDocument", "LazyNode"]

#: Default laziness cut-off: top-level-rule windows smaller than this
#: decode eagerly during a spine run (stubbing a 24-byte symbol record
#: costs more than decoding it).
DEFAULT_LAZY_THRESHOLD = 4096

#: Member descriptor of the ``children`` slot Node allocates.  LazyNode
#: shadows the attribute with a property, so its methods reach the
#: underlying storage through the descriptor.
_NODE_CHILDREN = Node.children
_node_new = Node.__new__


class _LazySlot:
    """Shared decode state of one ``(rule, lo, hi)`` stub.

    Re-based :class:`LazyNode` wrappers of the same underlying parse all
    point at one slot, so the subtree decodes at most once.
    """

    __slots__ = ("doc", "rule", "lo", "hi", "children")

    def __init__(self, doc: "LazyDocument", rule: str, lo: int, hi: int):
        self.doc = doc
        self.rule = rule
        self.lo = lo
        self.hi = hi
        self.children: Optional[list] = None

    def materialize(self) -> list:
        if self.children is None:
            self.children = self.doc._materialize(self)
        return self.children


class LazyNode(Node):
    """A parse-tree node whose children decode on first access.

    Carries the full attribute environment of an ordinary
    :class:`~repro.core.parsetree.Node` (probed through the tree-elision
    fast path), so attribute reads, interval arithmetic and grammar-level
    references never force a decode; only touching ``children`` (directly
    or through the navigation API, equality, or serialization) does.
    """

    __slots__ = ("_slot",)

    def __init__(self, slot: _LazySlot, env: dict):
        # Node.__init__ would defensively copy children (and there are
        # none yet); set the slots directly.
        self.name = slot.rule
        self.env = env
        _NODE_CHILDREN.__set__(self, None)
        self._slot = slot

    # -- lazy machinery -----------------------------------------------------
    @property
    def children(self):  # shadows the inherited slot
        children = _NODE_CHILDREN.__get__(self, LazyNode)
        if children is None:
            children = self._slot.materialize()
            _NODE_CHILDREN.__set__(self, children)
        return children

    def rebased(self, offset: int) -> "LazyNode":
        """Re-based wrapper sharing this node's decode slot (T-NTSucc)."""
        env = dict(self.env)
        env["start"] = offset + self.env.get("start", 0)
        env["end"] = offset + self.env.get("end", 0)
        return LazyNode(self._slot, env)

    @property
    def is_materialized(self) -> bool:
        """Whether this subtree has been decoded (without triggering it)."""
        return self._slot.children is not None

    @property
    def interval(self) -> Tuple[int, int]:
        """The absolute input window ``(lo, hi)`` this subtree decodes from."""
        return (self._slot.lo, self._slot.hi)

    @property
    def document(self) -> "LazyDocument":
        """The owning :class:`LazyDocument` (decode log, buffer, parser)."""
        return self._slot.doc

    def __repr__(self) -> str:  # must not force a decode
        state = "materialized" if self.is_materialized else "lazy"
        return (
            f"LazyNode({self.name}, [{self._slot.lo}, {self._slot.hi}), {state})"
        )


class _LazyRun(_Run):
    """The skeleton spine: a reference-interpreter run that plants stubs.

    Identical to an ordinary tree-building run except that a top-level
    rule invocation whose window is at least the document's threshold —
    and is not this run's own entry — resolves to a :class:`LazyNode`
    stub instead of recursing.  Everything context-dependent (``where``
    locals, builtins, blackboxes) takes the normal path, so the committed
    derivation is byte-for-byte the eager one with subtrees elided.
    """

    __slots__ = ("doc", "threshold", "entry_key", "stub_windows")

    def __init__(self, doc: "LazyDocument", entry_key: tuple):
        super().__init__(doc.parser, doc.buffer, build_tree=True)
        self.doc = doc
        self.threshold = doc.lazy_threshold
        self.entry_key = entry_key
        #: Distinct stub windows planted by this run: (lo, hi) -> size.
        #: Subtracted from the run's window when charging decoded bytes.
        self.stub_windows = {}

    def parse_nonterminal(self, name, lo, hi, outer_ctx, local_rules):
        if (
            hi - lo >= self.threshold
            and (local_rules is None or local_rules.lookup(name) is None)
            and self.grammar.has_rule(name)
            and (name, lo, hi) != self.entry_key
        ):
            return self._stub(name, lo, hi)
        return super().parse_nonterminal(name, lo, hi, outer_ctx, local_rules)

    def _stub(self, name, lo, hi):
        key = (name, lo, hi)
        if self.memoize and key in self.memo:
            result = self.memo[key]
        else:
            env = self.doc._probe_env(name, lo, hi)
            if env is FAIL:
                result = FAIL
            else:
                result = LazyNode(
                    _LazySlot(self.doc, name, lo, hi), dict(env)
                )
            if self.memoize:
                self.memo[key] = result
        if result is not FAIL:
            self.stub_windows[(lo, hi)] = hi - lo
        return result


class LazyDocument:
    """One lazily parsed input: buffer, decode cache, materialization log.

    Construct through :meth:`repro.core.interpreter.Parser.parse_lazy`
    (which returns the root :class:`LazyNode`; the document hangs off it
    as ``root.document``).

    Attributes
    ----------
    decoded:
        Materialization log: ``(rule, lo, hi, charged_bytes)`` per engine
        run, in decode order.  ``charged_bytes`` is the run's window
        minus the windows of the stubs it planted — i.e. the bytes whose
        structure (and payload copies) this run actually decoded.
    decoded_bytes:
        Sum of the charges: how much of the input has been materialized.
    """

    def __init__(
        self,
        parser,
        data,
        lazy_threshold: int = DEFAULT_LAZY_THRESHOLD,
        recover: bool = False,
    ):
        self.parser = parser
        self.buffer = as_buffer(data)
        self.lazy_threshold = max(0, int(lazy_threshold))
        #: Degrade failed stub decodes to ErrorNode children instead of
        #: raising (see Parser.parse_lazy(recover=True)).
        self.recover = bool(recover)
        self.decoded: List[Tuple[str, int, int, int]] = []
        self.decoded_bytes = 0
        self.root: Optional[LazyNode] = None

    # -- entry point --------------------------------------------------------
    def parse(self, start: Optional[str] = None) -> LazyNode:
        """Validate the input and return the lazy root.

        Costs one tree-elision pass over the input (the ``--validate``
        fast path: no tree, no payload copies) — a non-matching input
        fails *here*, diagnosed to the identical structured error class
        and offset every eager entry point raises.
        """
        parser = self.parser
        start_name = start or parser.grammar.start
        parser._validate_blackboxes(start_name)
        # The document owns a memoryview export of the caller's buffer;
        # when validation fails (or blows up) nothing will ever decode, so
        # release it before raising — an unclosed view would keep the
        # caller's mmap pinned open.
        try:
            env = self._probe_env(start_name, 0, len(self.buffer))
            if env is FAIL:
                from .diagnose import diagnose_parser

                error = diagnose_parser(parser, self.buffer, start_name)
                raise error
        except BaseException:
            self.close()
            raise
        self.root = LazyNode(
            _LazySlot(self, start_name, 0, len(self.buffer)), dict(env)
        )
        return self.root

    # -- engine re-entry ----------------------------------------------------
    def _probe_env(self, name: str, lo: int, hi: int):
        """The rule's attribute environment over ``[lo, hi)``, or ``FAIL``.

        Runs the parser's fastest tree-elision engine (compiled, or the
        plain interpreter in elision mode) — top-level rules
        are context-free, so this is exactly the env the eager parse
        records for the same window.
        """
        result = self.parser._run_window(name, self.buffer, lo, hi, tree=False)
        return FAIL if result is FAIL else result.env

    def _materialize(self, slot: _LazySlot) -> list:
        """Decode a stub's children (one budgeted skeleton-spine run)."""
        run = _LazyRun(self, (slot.rule, slot.lo, slot.hi))
        try:
            result = _guarded(
                self.parser.recursion_limit, slot.rule, run.parse_nonterminal,
                slot.rule, slot.lo, slot.hi, None, None,
            )
        except (BlackboxError, OSError) as exc:
            # A raising blackbox or an I/O fault from the underlying
            # buffer (a page-in error on an mmap, an injected fault):
            # in recovery mode the stub degrades instead of raising.
            if not self.recover:
                raise
            return self._degraded_children(slot, exc)
        if result is FAIL:
            # The skeleton probe accepted this window; a failing re-parse
            # means the engines disagree (or the buffer's bytes changed
            # after validation).  Surface it rather than return a
            # half-decoded tree — or, in recovery mode, degrade to an
            # ErrorNode carrying the window's diagnosis.
            if self.recover:
                from .recover import diagnose_window

                return self._degraded_children(
                    slot,
                    diagnose_window(
                        self.parser, self.buffer, slot.rule, slot.lo, slot.hi
                    ),
                )
            raise ParseFailure(
                f"lazy materialization of {slot.rule!r} over "
                f"[{slot.lo}, {slot.hi}) failed although the skeleton "
                f"probe accepted it (engines out of sync?)",
                nonterminal=slot.rule,
            )
        charged = (slot.hi - slot.lo) - sum(run.stub_windows.values())
        if charged < 0:  # overlapping stub windows cannot overcharge
            charged = 0
        self.decoded.append((slot.rule, slot.lo, slot.hi, charged))
        self.decoded_bytes += charged
        return result.children

    def _degraded_children(self, slot: _LazySlot, error: Exception) -> list:
        """Recovery-mode stand-in for a stub that failed to decode."""
        from .recover import ErrorNode

        self.decoded.append((slot.rule, slot.lo, slot.hi, 0))
        return [ErrorNode(slot.rule, slot.lo, slot.hi, error)]

    def close(self) -> None:
        """Release the document's view of the input buffer.

        Materialized subtrees stay valid (their payloads are real
        ``bytes``), but un-materialized stubs can no longer decode.  Call
        this when done navigating so an underlying ``mmap`` can be
        closed — Python refuses to close a buffer with exported views.
        """
        buffer = self.buffer
        if isinstance(buffer, memoryview):
            buffer.release()
