"""Parse trees produced by IPG parsing.

The paper defines (section 3.3)::

    Parse tree  Tr ::= Node(A, E, Tr...) | Array(Tr...) | Leaf(s)

``Node`` records the nonterminal, the final attribute environment of the
successful alternative, and the child trees of its terms.  ``Array`` is the
result of a ``for`` term.  ``Leaf`` matches a terminal string.

The classes below add a small navigation API on top (``child``,
``children_named``, ``attr``, ``walk``) because downstream code — the format
helpers, the examples, and the evaluation harness — constantly needs to pull
attributes and sub-structures out of parsed files.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional

#: Attribute names managed by the parsing semantics itself.
SPECIAL_ATTRS = ("EOI", "start", "end")


class ParseTree:
    """Common base class for :class:`Node`, :class:`ArrayNode`, :class:`Leaf`."""

    __slots__ = ()

    def walk(self) -> Iterator["ParseTree"]:
        """Yield this tree and every descendant in pre-order."""
        yield self

    def size(self) -> int:
        """Number of tree nodes (useful for memory/shape comparisons)."""
        return sum(1 for _ in self.walk())


class Leaf(ParseTree):
    """A matched terminal string."""

    __slots__ = ("value",)

    def __init__(self, value: bytes):
        self.value = bytes(value)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Leaf) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("Leaf", self.value))

    def __repr__(self) -> str:
        return f"Leaf({self.value!r})"


class ArrayNode(ParseTree):
    """The result of parsing a ``for`` (array) term."""

    __slots__ = ("name", "elements")

    def __init__(self, name: str, elements: Iterable[ParseTree]):
        self.name = name
        self.elements = list(elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __getitem__(self, index: int) -> ParseTree:
        return self.elements[index]

    def __iter__(self) -> Iterator[ParseTree]:
        return iter(self.elements)

    def walk(self) -> Iterator[ParseTree]:
        yield self
        for element in self.elements:
            yield from element.walk()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ArrayNode)
            and self.name == other.name
            and self.elements == other.elements
        )

    def __hash__(self) -> int:
        return hash(("Array", self.name, len(self.elements)))

    def __repr__(self) -> str:
        return f"Array({self.name}, {len(self.elements)} elements)"


class Node(ParseTree):
    """A successfully parsed nonterminal.

    Attributes
    ----------
    name:
        The nonterminal name.
    env:
        The attribute environment of the successful alternative, including
        the special attributes ``EOI``, ``start`` and ``end``.
    children:
        Parse trees of the alternative's terms, in execution order.
    """

    __slots__ = ("name", "env", "children")

    def __init__(self, name: str, env: Dict[str, int], children: Iterable[ParseTree]):
        self.name = name
        self.env = dict(env)
        self.children = list(children)

    # -- attribute access ---------------------------------------------------
    def attr(self, name: str, default: Any = None) -> Any:
        """Return the value of attribute ``name`` (or ``default``)."""
        return self.env.get(name, default)

    def __getitem__(self, name: str) -> Any:
        if name not in self.env:
            raise KeyError(f"nonterminal {self.name} has no attribute {name!r}")
        return self.env[name]

    @property
    def attrs(self) -> Dict[str, int]:
        """User attributes only (special attributes stripped)."""
        return {k: v for k, v in self.env.items() if k not in SPECIAL_ATTRS}

    @property
    def start(self) -> int:
        """Offset of the left-most byte touched, relative to the parent input."""
        return self.env.get("start", 0)

    @property
    def end(self) -> int:
        """One past the right-most byte touched, relative to the parent input."""
        return self.env.get("end", 0)

    # -- navigation ---------------------------------------------------------
    def child(self, name: str, index: int = 0) -> Optional["Node"]:
        """Return the ``index``-th direct child :class:`Node` named ``name``."""
        seen = 0
        for tree in self.children:
            if isinstance(tree, Node) and tree.name == name:
                if seen == index:
                    return tree
                seen += 1
        return None

    def children_named(self, name: str) -> List["Node"]:
        """Return all direct child nodes named ``name``."""
        return [t for t in self.children if isinstance(t, Node) and t.name == name]

    def array(self, name: str) -> Optional[ArrayNode]:
        """Return the direct :class:`ArrayNode` whose elements are ``name``."""
        for tree in self.children:
            if isinstance(tree, ArrayNode) and tree.name == name:
                return tree
        return None

    def find_all(self, name: str) -> List["Node"]:
        """Return every descendant node named ``name`` (pre-order)."""
        return [t for t in self.walk() if isinstance(t, Node) and t.name == name]

    def walk(self) -> Iterator[ParseTree]:
        yield self
        for child in self.children:
            yield from child.walk()

    # -- comparison / display ----------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Node)
            and self.name == other.name
            and self.env == other.env
            and self.children == other.children
        )

    def __hash__(self) -> int:
        return hash(("Node", self.name, len(self.children)))

    def __repr__(self) -> str:
        return f"Node({self.name}, attrs={self.attrs}, children={len(self.children)})"

    def pretty(self, indent: int = 0, max_leaf: int = 16) -> str:
        """Render the tree as an indented multi-line string."""
        pad = "  " * indent
        lines = [f"{pad}{self.name} {self.attrs}"]
        for child in self.children:
            lines.append(_pretty_tree(child, indent + 1, max_leaf))
        return "\n".join(lines)


def _pretty_tree(tree: ParseTree, indent: int, max_leaf: int) -> str:
    pad = "  " * indent
    if isinstance(tree, Node):
        return tree.pretty(indent, max_leaf)
    if isinstance(tree, ArrayNode):
        lines = [f"{pad}[{tree.name} x {len(tree)}]"]
        for element in tree.elements:
            lines.append(_pretty_tree(element, indent + 1, max_leaf))
        return "\n".join(lines)
    assert isinstance(tree, Leaf)
    shown = tree.value[:max_leaf]
    suffix = "..." if len(tree.value) > max_leaf else ""
    return f"{pad}Leaf({shown!r}{suffix})"


def tree_to_jsonable(tree: ParseTree) -> Dict[str, Any]:
    """Serialize a parse tree to a JSON-compatible structure.

    Used by the golden-tree regression corpus (``tests/golden/``): pinned
    expected trees diff engine refactors against checked-in artifacts
    instead of only against each other.  Leaf bytes are hex-encoded; node
    environments are integer-valued by construction.
    """
    if isinstance(tree, Leaf):
        return {"leaf": tree.value.hex()}
    if isinstance(tree, ArrayNode):
        return {
            "array": tree.name,
            "elements": [tree_to_jsonable(element) for element in tree.elements],
        }
    assert isinstance(tree, Node)
    return {
        "node": tree.name,
        "env": dict(tree.env),
        "children": [tree_to_jsonable(child) for child in tree.children],
    }


def tree_to_tape(tree: ParseTree) -> bytes:
    """Flatten a parse tree into a *tape*: a pickled postorder list.

    The parse service ships tree replies this way (one walk in the
    worker, no intermediate dicts).  Each record follows its children:

    * a :class:`Node` is ``name, env, child_count``;
    * an :class:`ArrayNode` is ``None, name, element_count``;
    * a :class:`Leaf` is its ``bytes`` value.

    Env values go through pickle unchanged, so a blackbox attribute that
    is a ``str``, ``tuple`` or ``None`` arrives as itself.  The walk is
    an explicit stack, not recursion: it emits the records of the mirror
    preorder (children right to left) and reverses them, which is the
    postorder.  :func:`tape_to_jsonable` decodes the tape.
    """
    tape: List[Any] = []
    emit = tape.append
    stack = [tree]
    pop, push_all = stack.pop, stack.extend
    while stack:
        tree = pop()
        kind = type(tree)
        if kind is not Node and kind is not Leaf and kind is not ArrayNode:
            kind = _tree_class(tree)  # a subclass, e.g. LazyNode
        if kind is Node:
            children = tree.children
            emit(len(children))
            emit(tree.env)
            emit(tree.name)
            push_all(children)
        elif kind is Leaf:
            emit(tree.value)
        else:
            elements = tree.elements
            emit(len(elements))
            emit(tree.name)
            emit(None)
            push_all(elements)
    tape.reverse()
    import pickle  # here, so in-process parsing never loads pickle

    return pickle.dumps(tape, pickle.HIGHEST_PROTOCOL)


def _tree_class(tree: object) -> type:
    for cls in (Node, Leaf, ArrayNode):
        if isinstance(tree, cls):
            return cls
    raise TypeError(f"not a parse tree: {type(tree).__name__}")


def tape_to_jsonable(blob: bytes) -> Dict[str, Any]:
    """Decode a :func:`tree_to_tape` tape; equals ``tree_to_jsonable(tree)``.

    One pass over the records with a stack of finished subtrees: a record
    pops its ``count`` children off the stack and pushes itself.
    """
    import pickle

    stack: List[Dict[str, Any]] = []
    push = stack.append
    records = iter(pickle.loads(blob))
    for record in records:
        if type(record) is bytes:
            push({"leaf": record.hex()})
            continue
        if record is None:
            name = next(records)
            count = next(records)
            split = len(stack) - count
            elements = stack[split:]
            del stack[split:]
            push({"array": name, "elements": elements})
            continue
        env = next(records)
        count = next(records)
        split = len(stack) - count
        children = stack[split:]
        del stack[split:]
        push({"node": record, "env": env, "children": children})
    if len(stack) != 1:
        raise ValueError(f"malformed tree tape: {len(stack)} roots")
    return stack[0]


def tree_from_jsonable(obj: Dict[str, Any]) -> ParseTree:
    """Inverse of :func:`tree_to_jsonable` (round-trips under ``==``)."""
    if "leaf" in obj:
        return Leaf(bytes.fromhex(obj["leaf"]))
    if "array" in obj:
        return ArrayNode(
            obj["array"], [tree_from_jsonable(element) for element in obj["elements"]]
        )
    return Node(
        obj["node"], obj["env"], [tree_from_jsonable(child) for child in obj["children"]]
    )


def tree_equal_modulo_specials(left: ParseTree, right: ParseTree) -> bool:
    """Structural equality that ignores the special attributes.

    Used when comparing trees produced by different execution engines
    (interpreter vs generated parser vs combinators) where user attributes
    and structure must agree but bookkeeping may differ.
    """
    if isinstance(left, Leaf) and isinstance(right, Leaf):
        return left.value == right.value
    if isinstance(left, ArrayNode) and isinstance(right, ArrayNode):
        return (
            left.name == right.name
            and len(left) == len(right)
            and all(
                tree_equal_modulo_specials(a, b)
                for a, b in zip(left.elements, right.elements)
            )
        )
    if isinstance(left, Node) and isinstance(right, Node):
        return (
            left.name == right.name
            and left.attrs == right.attrs
            and len(left.children) == len(right.children)
            and all(
                tree_equal_modulo_specials(a, b)
                for a, b in zip(left.children, right.children)
            )
        )
    return False
