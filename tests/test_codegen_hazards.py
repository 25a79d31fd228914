"""Escaping / identifier-collision hazards in the compiler's templates.

The closure backend and the AOT emitters build Python *source* by string
templating, which creates two classes of hazard this module pins down:

* **Identifier collisions** — grammar-level names (rules, ``where``
  locals, loop variables, attributes) are embedded into generated
  identifiers (``_r1_Name``, ``_alt_Name_3``, ``_fp_Name`` …) that share
  a module namespace with the vendored prelude helpers (``_aidx``,
  ``_bb``, ``FAIL``, ``_UB`` …) and the compiler's internal locals
  (``_c``, ``_m``, ``_cells`` …).  Every grammar name must survive being
  any of those strings: the sanitizer (``_token``) and the family
  prefixes must keep generated names disjoint from the runtime's.

* **Literal escaping** — terminal strings, attribute names and the
  caller-supplied ``module_doc`` are interpolated into source text and
  must be quoted so they can never break out of (or break) the emitted
  module.

Everything runs through the full cross-engine matrix, so the interpreter,
the closure compiler (all pass combinations) and the AOT module all chew
on the hostile names.
"""

import pytest

from engine_matrix import EngineMatrix, matrix_for
from repro.core import runtime
from repro.core.codegen import _PACKAGE_IMPORTS, render_package
from repro.core.compiler import compile_grammar

#: Names that shadow generated-code locals, the compiled calling
#: convention's parameter names, and per-module AOT names; every name of
#: the runtime's export list (and so of an emitted package's prelude
#: imports) joins them below.
_GENERATED_NAMES = (
    "st",
    "data",
    "lo",
    "hi",
    "_bb",
    "_c",
    "_m",
    "_v",
    "_cells",
    "_ENTRY",
    "_fp_S",
)
HOSTILE_NAMES = tuple(
    sorted(set(_GENERATED_NAMES) | set(runtime.__all__) | set(_PACKAGE_IMPORTS))
)


class TestHostileRuleNames:
    @pytest.mark.parametrize("name", HOSTILE_NAMES)
    def test_rule_named_like_an_internal(self, name):
        grammar = (
            f"S -> {name}[0, 1] {name}[1, EOI] {{ a = {name}.val }} ; "
            f"{name} -> U8[0, 1] {{ val = U8.val }} ;"
        )
        matrix = matrix_for(grammar)
        for data in (b"", b"\x03", b"\x03\x04", b"\x03\x04\x05"):
            matrix.assert_agree(data)

    def test_where_local_and_loop_var_named_like_internals(self):
        # `data` as a loop variable and `st` as a local attribute inside a
        # where-rule: both land in the compiled alternative's local slots
        # next to the real `data`/`st` parameters.
        grammar = """
            S -> U8[0, 1] {n = U8.val}
                 for data = 0 to n do E[1 + data, 2 + data]
                 where { E -> U8[0, 1] {st = U8.val + 10 * data} ; } ;
        """
        matrix = matrix_for(grammar)
        for data in (b"", b"\x00", b"\x02\x05\x06", b"\x03\x05\x06\x07"):
            matrix.assert_agree(data)

    def test_sanitizer_keeps_distinct_names_distinct(self):
        # A_B / A_B_2 / A_B_2_2: names chosen so naive suffixing of one
        # could produce another; the matrix fails if any two collapse to
        # the same generated function.
        grammar = (
            "S -> A_B[0, 1] A_B_2[1, 2] A_B_2_2[2, 3] "
            "{ x = A_B.v + 10 * A_B_2.v + 100 * A_B_2_2.v } ; "
            "A_B -> U8[0, 1] {v = U8.val} ; "
            "A_B_2 -> U8[0, 1] {v = U8.val + 1} ; "
            "A_B_2_2 -> U8[0, 1] {v = U8.val + 2} ;"
        )
        matrix = matrix_for(grammar)
        outcome = matrix.assert_agree(b"\x01\x02\x03")
        assert outcome[0] == "tree"
        assert outcome[1].env["x"] == 1 + 10 * 3 + 100 * 5


class TestLiteralEscaping:
    def test_terminal_with_quotes_and_high_bytes(self):
        grammar = r'S -> "a\"b"[0, 3] U8[3, 4] {v = U8.val} ;'
        matrix = matrix_for(grammar)
        matrix.assert_agree(bytes([97, 34, 98, 7]))
        matrix.assert_agree(b"a'b\x07")

    def test_attribute_names_are_data_not_code(self):
        # Attribute reads render as dict indexing on repr'd strings; an
        # attribute named like a helper must stay a plain key.
        grammar = (
            "S -> A[0, 1] { _aidx = A._bb + 1 } ; "
            "A -> U8[0, 1] { _bb = U8.val } ;"
        )
        matrix = matrix_for(grammar)
        outcome = matrix.assert_agree(b"\x09")
        assert outcome[1].env["_aidx"] == 10


HOSTILE_DOCS = (
    '"""\nimport os\nos.system("boom")\n"""',
    'ends with a quote"',
    "back\\slash \\n and \\x41",
    "plain benign doc",
)


class TestModuleDocEscaping:
    GRAMMAR = "S -> U8[0, 1] {v = U8.val} ;"

    @pytest.mark.parametrize("doc", HOSTILE_DOCS)
    def test_closure_module_doc_is_inert(self, doc):
        compiled = compile_grammar(self.GRAMMAR)
        namespace = {}
        exec(compile(compiled.to_source(module_doc=doc), "<doc>", "exec"), namespace)
        assert namespace["__doc__"].rstrip("\n") == doc
        assert namespace["try_parse"](b"\x05").env["v"] == 5

    @pytest.mark.parametrize("doc", HOSTILE_DOCS)
    def test_package_doc_is_inert(self, doc):
        files = render_package(
            {"fmt": compile_grammar(self.GRAMMAR)}, package_doc=doc
        )
        namespace = {}
        exec(compile(files["__init__.py"], "<init>", "exec"), namespace)
        assert namespace["__doc__"].rstrip("\n") == doc
