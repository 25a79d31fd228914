"""Output oracle: what every benchmark reply must be, checked off the clock.

The reference interpreter (``backend="interpreted"`` with first-byte
dispatch and fixed-shape plans off, the canonical configuration that
``core.diagnose`` also uses) parses every corpus document once, before any
timing starts.  Its outcome is kept in compact form rather than as a
tree, so the oracle neither inflates the benchmark's peak memory nor gives
the garbage collector a large heap to walk:

* ``("tree", tree_digest, jsonable_blob)`` for an accepted document;
* ``("error", class_name, offset)`` for a rejected one.

``tree_digest`` hashes a walk of the parse tree written here,
independently of the library's serializer.  ``jsonable_blob`` (kept only
when ``replies`` is set, for the service) is the ``marshal`` image of
``tree_to_jsonable`` of the reference tree, which a service reply must
equal.

Committed hostile samples are also pinned to the class and offset in
``tests/hostile/expectations.json``; a reply must agree with both.  Every
``check_*`` returns ``True`` when the reply is right; the workloads count
each ``False`` as a failed operation.
"""

from __future__ import annotations

import marshal
from typing import Iterable, Optional


def _tree_digest(tree, Node, ArrayNode) -> int:
    """A structural hash of a parse tree, walked in preorder.

    Each node contributes its name, its environment as a set (engines
    differ in attribute order, not in content) and its child count; each
    leaf its bytes.  Python's ``hash`` is salted per process, so digests
    compare only within one run, which is all the oracle needs.
    """
    flat = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Node):
            flat += (node.name, frozenset(node.env.items()), len(node.children))
            stack.extend(reversed(node.children))
        elif isinstance(node, ArrayNode):
            flat += (None, node.name, len(node.elements))
            stack.extend(reversed(node.elements))
        else:
            flat.append(node.value)
    return hash(tuple(flat))


class Oracle:
    """Reference outcomes for a corpus, and the checks replies must pass."""

    def __init__(self, repro, formats: Iterable[str], replies: bool = False):
        from repro.formats import registry

        self._repro = repro
        self._replies = replies
        self._outcomes = {}  # (fmt, data) -> reference outcome
        self._Node = repro.Node
        self._ArrayNode = repro.ArrayNode
        self._tree_to_jsonable = repro.core.parsetree.tree_to_jsonable
        self.references = {
            fmt: registry[fmt].build_parser(
                backend="interpreted", first_byte_dispatch=False, bulk_fixed_shape=False
            )
            for fmt in formats
        }

    # -- reference outcomes -----------------------------------------------

    def tree_digest(self, tree) -> int:
        return _tree_digest(tree, self._Node, self._ArrayNode)

    def error_outcome(self, exc: BaseException) -> Optional[tuple]:
        """``("error", class, offset)`` for a verdict exception, else ``None``."""
        if isinstance(exc, self._repro.ParseFailure):
            return ("error", type(exc).__name__, exc.offset)
        if isinstance(exc, self._repro.BlackboxError):
            return ("error", "BlackboxError", None)
        return None

    def reference(self, fmt: str, data: bytes) -> tuple:
        key = (fmt, data)
        if key not in self._outcomes:
            self._outcomes[key] = self._reference(fmt, data)
        return self._outcomes[key]

    def _reference(self, fmt: str, data: bytes) -> tuple:
        try:
            tree = self.references[fmt].parse(data)
        except (self._repro.ParseFailure, self._repro.BlackboxError) as exc:
            return self.error_outcome(exc)
        return (
            "tree",
            self.tree_digest(tree),
            marshal.dumps(self._tree_to_jsonable(tree)) if self._replies else None,
        )

    def rejects(self, fmt: str, data: bytes) -> bool:
        return self.reference(fmt, data)[0] == "error"

    def annotate(self, docs) -> int:
        """Fill ``doc.expected``; returns how many pinned samples disagree.

        Also drops the outcomes remembered for mutations that were
        redrawn, which no document holds.
        """
        disagreements = 0
        for doc in docs:
            doc.expected = self.reference(doc.fmt, doc.data)
            if doc.pinned is not None and doc.pinned != doc.expected:
                disagreements += 1
        self._outcomes.clear()
        return disagreements

    # -- reply checks (never inside a timed region) ------------------------

    def _error_matches(self, doc, exc) -> bool:
        outcome = self.error_outcome(exc)
        if outcome is None or outcome != doc.expected:
            return False
        return doc.pinned is None or outcome == doc.pinned

    def check_tree(self, doc, tree, exc=None) -> bool:
        """A tree-mode ``parse`` reply: the tree, or the raised verdict."""
        if exc is not None:
            return self._error_matches(doc, exc)
        if doc.expected[0] != "tree" or not isinstance(tree, self._Node):
            return False
        try:
            return self.tree_digest(tree) == doc.expected[1]
        except TypeError:  # an unhashable attribute value: not a valid tree
            return False

    def check_validate(self, doc, result, exc=None) -> bool:
        """A validate-mode (``emit=None``) reply: ``True`` or the verdict."""
        if exc is not None:
            return self._error_matches(doc, exc)
        return doc.expected[0] == "tree" and result is True

    def check_service(self, doc, result) -> bool:
        """A ``ServiceResult``: the oracle tree's jsonable, or the verdict."""
        if result.error is not None:
            return self._error_matches(doc, result.error)
        if doc.expected[0] != "tree" or result.kind != "tree":
            return False
        return result.tree == marshal.loads(doc.expected[2])
