"""Tests for ``repro compile --package``: per-format modules + shared prelude."""

import importlib
import sys

import pytest

from engine_matrix import format_sample
from repro import Parser
from repro.cli import main as cli_main
from repro.core.codegen import render_package
from repro.core.compiler import compile_grammar
from repro.formats import registry


@pytest.fixture()
def package(tmp_path):
    """Emit a three-format package to disk and import it."""
    compiled = {
        name: compile_grammar(
            registry[name].grammar_text, blackboxes=dict(registry[name].blackboxes)
        )
        for name in ("dns", "gif", "zip")
    }
    files = render_package(compiled)
    pkg_dir = tmp_path / "ipg_parsers"
    pkg_dir.mkdir()
    for filename, source in files.items():
        (pkg_dir / filename).write_text(source, encoding="utf-8")
    sys.path.insert(0, str(tmp_path))
    try:
        module = importlib.import_module("ipg_parsers")
        yield module
    finally:
        sys.path.remove(str(tmp_path))
        for name in list(sys.modules):
            if name == "ipg_parsers" or name.startswith("ipg_parsers."):
                del sys.modules[name]


class TestRenderPackage:
    def test_file_set(self):
        compiled = {"dns": compile_grammar(registry["dns"].grammar_text)}
        files = render_package(compiled)
        assert set(files) == {"__init__.py", "_prelude.py", "dns.py"}

    def test_prelude_is_not_vendored_per_module(self):
        compiled = {
            name: compile_grammar(registry[name].grammar_text)
            for name in ("dns", "gif")
        }
        files = render_package(compiled)
        # The runtime lives once in _prelude.py; format modules only import.
        assert "class EvaluationError" in files["_prelude.py"]
        # The blackbox *registry* is per-format state: the shared prelude
        # must not offer a registration API nothing consults.
        assert "register_blackbox" not in files["_prelude.py"]
        for name in ("dns.py", "gif.py"):
            assert "class EvaluationError" not in files[name]
            assert "from ._prelude import" in files[name]
            assert "def register_blackbox" in files[name]
        # Substantial size win over two standalone emissions.
        standalone_total = sum(
            len(compile_grammar(registry[name].grammar_text).to_source())
            for name in ("dns", "gif")
        )
        package_total = sum(len(source) for source in files.values())
        assert package_total < standalone_total

    def test_hyphenated_format_names_are_sanitized(self):
        compiled = {"zip-meta": compile_grammar(registry["zip-meta"].grammar_text)}
        files = render_package(compiled)
        assert "zip_meta.py" in files


class TestImportedPackage:
    def test_modules_parse_like_the_engines(self, package):
        for fmt in ("dns", "gif"):
            module = importlib.import_module(f"ipg_parsers.{fmt}")
            data = format_sample(fmt)
            expected = Parser(
                registry[fmt].grammar_text, backend="interpreted"
            ).parse(data)
            assert module.parse(data) == expected
            assert module.try_parse(data[: len(data) // 2]) is None

    def test_blackbox_registries_are_module_local(self, package):
        zip_module = importlib.import_module("ipg_parsers.zip")
        dns_module = importlib.import_module("ipg_parsers.dns")
        spec = registry["zip"]
        for name, implementation in spec.blackboxes.items():
            zip_module.register_blackbox(name, implementation)
        assert dns_module.BLACKBOXES == {}
        data = format_sample("zip")
        expected = Parser(
            spec.grammar_text,
            blackboxes=dict(spec.blackboxes),
            backend="interpreted",
        ).parse(data)
        assert zip_module.parse(data) == expected

    def test_tree_elided_modules_import_and_parse(self, tmp_path):
        # Elided compilations rebind _aidx/_make_builtin_runner to their
        # elided runtime twins, which the format module must import.
        grammar = registry["dns"].grammar_text
        files = render_package({"dns": compile_grammar(grammar, elide_tree=True)})
        pkg_dir = tmp_path / "ipg_elided"
        pkg_dir.mkdir()
        for filename, source in files.items():
            (pkg_dir / filename).write_text(source, encoding="utf-8")
        sys.path.insert(0, str(tmp_path))
        try:
            module = importlib.import_module("ipg_elided.dns")
            data = format_sample("dns")
            root = module.parse(data)
            expected = Parser(grammar).parse(data, emit="spans")
            assert (root.name, root.env, root.children) == (
                expected.name,
                expected.env,
                (),
            )
            assert module.parse_nonterminal(b"abc", "Bytes", 0, 3).children == ()
        finally:
            sys.path.remove(str(tmp_path))
            for name in list(sys.modules):
                if name == "ipg_elided" or name.startswith("ipg_elided."):
                    del sys.modules[name]

    def test_init_lists_formats(self, package):
        assert set(package.FORMATS) == {"dns", "gif", "zip"}


class TestCliPackage:
    def test_single_format_package(self, tmp_path, capsys):
        out = tmp_path / "pkg"
        assert cli_main(["compile", "--package", str(out), "--format", "dns"]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["__init__.py", "_prelude.py", "dns.py"]
        assert "wrote 3 modules" in capsys.readouterr().out

    def test_all_formats_package(self, tmp_path, capsys):
        out = tmp_path / "pkg"
        assert cli_main(["compile", "--package", str(out)]) == 0
        emitted = {p.name for p in out.iterdir()}
        assert "_prelude.py" in emitted and "zip_meta.py" in emitted
        # every registry format got a module
        assert len(emitted) == len(registry) + 2
        # blackbox formats get a registration reminder
        assert "register_blackbox" in capsys.readouterr().out

    def test_compile_without_inputs_errors(self, capsys):
        assert cli_main(["compile"]) == 2
        assert "needs --format" in capsys.readouterr().err

    def test_package_rejects_grammar_file_and_output(self, tmp_path, capsys):
        # --package works off the format registry; silently ignoring a
        # grammar path (or -o) would emit parsers for the wrong grammars.
        grammar = tmp_path / "g.ipg"
        grammar.write_text('S -> "x"[0, 1] ;')
        out = tmp_path / "pkg"
        assert cli_main(["compile", str(grammar), "--package", str(out)]) == 2
        assert "cannot be combined" in capsys.readouterr().err
        assert not out.exists()
        assert (
            cli_main(
                ["compile", "--format", "dns", "--package", str(out), "-o", "x.py"]
            )
            == 2
        )
