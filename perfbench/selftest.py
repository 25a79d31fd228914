"""The benchmark's own tests: the oracle must catch a wrong answer.

Run from the root of a checkout::

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

They feed the workload loop parsers that return a wrong tree, no tree, a
wrong rejection class or a wrong rejection offset, and service replies
with a wrong tree or a service error, and assert that each is counted as
a failed operation while the untampered program counts none.  They check
that the bypass checks fire when a parse runs diagnosis or serialization
inside the ``fig13-tree`` loop.  They also pin the corpus to its seed and
check that the benchmark refuses to run, without printing a result, where
the program's sources are missing.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

sys.path.insert(0, run.SRC)

import repro  # noqa: E402
import repro.core.diagnose  # noqa: E402
from repro import samples  # noqa: E402
from repro.core.parsetree import tree_to_jsonable  # noqa: E402
from repro.service import ServiceResult  # noqa: E402

import layers  # noqa: E402
from corpus import FORMATS, hostile_documents, valid_documents  # noqa: E402
from oracle import Oracle  # noqa: E402

_ORACLE = Oracle(repro, FORMATS, replies=True)


def _corpus(seed=5):
    valid = valid_documents(samples, seed, 2)
    docs = valid + hostile_documents(valid, 1, seed, _ORACLE.rejects, len(valid))
    _ORACLE.annotate(docs)
    return docs


class _Tampered:
    """A parser whose replies are altered by ``change(result, exc)``."""

    def __init__(self, parser, change):
        self.parser, self.change = parser, change

    def parse(self, data):
        try:
            result = self.parser.parse(data)
        except (repro.ParseFailure, repro.BlackboxError) as exc:
            raise self.change(None, exc) from None
        return self.change(result, None)


def _failed(docs, change=None):
    parsers = run.build_parsers()
    if change is not None:
        parsers = {fmt: _Tampered(parser, change) for fmt, parser in parsers.items()}
    tally = run.Tally()
    run.inprocess_passes(docs, run.parse_main(parsers, _ORACLE), tally, 0, {})
    assert tally.attempted == len(docs)
    return tally.failed


def _bypass_checks(docs, change):
    counters = layers.bypass_counters()
    try:
        assert _failed(docs, change) == 0
    finally:
        for counter in counters.values():
            counter.close()
    return layers.bypass_checks(counters, wire_loaded=False)


def test_untampered_program_passes():
    assert _failed(_corpus()) == 0


def test_wrong_tree_is_failed():
    def change(tree, exc):
        if exc is not None:
            return exc
        tree.env["start"] = tree.env.get("start", 0) + 1
        return tree

    docs = [doc for doc in _corpus() if not doc.hostile]
    assert _failed(docs, change) == len(docs)


def test_missing_tree_is_failed():
    docs = [doc for doc in _corpus() if not doc.hostile]
    assert _failed(docs, lambda result, exc: exc or True) == len(docs)


def test_wrong_rejection_offset_is_failed():
    def change(result, exc):
        if isinstance(exc, repro.ParseFailure) and exc.offset is not None:
            exc.offset += 1
        return exc if exc is not None else result

    docs = [doc for doc in _corpus() if doc.hostile and doc.expected[2] is not None]
    assert docs
    assert _failed(docs, change) == len(docs)


def test_wrong_rejection_class_is_failed():
    def change(result, exc):
        if exc is None:
            return result
        guard = isinstance(exc, repro.GuardRejected)
        swap = repro.TruncatedInput if guard else repro.GuardRejected
        return swap("relabelled", offset=getattr(exc, "offset", None))

    docs = [doc for doc in _corpus() if doc.hostile]
    assert _failed(docs, change) == len(docs)


def test_bypass_checks_hold_for_the_untampered_program():
    docs = [doc for doc in _corpus() if not doc.hostile]
    assert _bypass_checks(docs, lambda result, exc: exc or result) == []


def test_diagnosis_in_an_accepting_parse_is_caught():
    dns = run.build_parsers()["dns"]

    def change(tree, exc):
        repro.core.diagnose.diagnose_parser(dns, b"", dns.grammar.start)
        return exc or tree

    docs = [doc for doc in _corpus() if not doc.hostile][:1]
    assert _bypass_checks(docs, change) == ["fig13-tree: diagnose ran 1 times"]


def test_serialization_in_a_tree_parse_is_caught():
    def change(tree, exc):
        if exc is None:
            repro.core.parsetree.tree_to_jsonable(tree)
        return exc or tree

    docs = [doc for doc in _corpus() if not doc.hostile]
    checks = _bypass_checks(docs, change)
    assert len(checks) == 1 and checks[0].startswith("fig13-tree: jsonable ran")


def test_service_replies_are_checked():
    docs = _corpus()
    parsers = run.build_parsers()
    for doc in docs:
        if doc.hostile:
            try:
                parsers[doc.fmt].parse(doc.data)
            except (repro.ParseFailure, repro.BlackboxError) as exc:
                assert _ORACLE.check_service(doc, ServiceResult(doc.id, "error", error=exc))
                if isinstance(exc, repro.ParseFailure) and exc.offset is not None:
                    exc.offset += 1
                    wrong = ServiceResult(doc.id, "error", error=exc)
                    assert not _ORACLE.check_service(doc, wrong)
            continue
        tree = tree_to_jsonable(parsers[doc.fmt].parse(doc.data))
        assert _ORACLE.check_service(doc, ServiceResult(doc.id, "tree", tree=tree))
        tree["env"]["start"] = tree["env"].get("start", 0) + 1
        assert not _ORACLE.check_service(doc, ServiceResult(doc.id, "tree", tree=tree))
        crash = repro.WorkerCrashed("worker died", exitcode=-9)
        assert not _ORACLE.check_service(doc, ServiceResult(doc.id, "error", error=crash))


def test_corpus_follows_the_seed():
    first = [doc.data for doc in valid_documents(samples, 7, 3)]
    again = [doc.data for doc in valid_documents(samples, 7, 3)]
    other = [doc.data for doc in valid_documents(samples, 8, 3)]
    assert first == again
    assert first != other
    assert len(first) == 3 * len(FORMATS)


def test_corpus_is_the_same_in_every_process():
    # String hashing is salted per process; the corpus must not depend on it.
    script = (
        "import hashlib, selftest; "
        "print(hashlib.sha256(b''.join(d.data for d in selftest._corpus())).hexdigest())"
    )
    digests = {
        subprocess.run(
            [sys.executable, "-c", script],
            cwd=HERE, capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONHASHSEED": str(salt)}, check=True,
        ).stdout
        for salt in (1, 2)
    }
    assert len(digests) == 1


def test_hostile_documents_are_rejected():
    for doc in _corpus():
        assert (doc.expected[0] == "error") == doc.hostile, doc.origin


def test_refuses_to_run_without_sources():
    bare = os.path.join(run.OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    try:
        for name in os.listdir(HERE):
            if name.endswith(".py"):
                shutil.copy(os.path.join(HERE, name), os.path.join(bare, "perfbench", name))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "fig13-tree",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok   {name}")
    print(f"{len(tests)} passed")
