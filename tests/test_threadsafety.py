"""Thread-safety regression test: one shared parser, many threads.

The parse service keeps exactly one :class:`~repro.Parser` per grammar
per worker *process*, but in-process embedders (and ``parse_many``
callers pre-dating the service) share a single parser across threads.
A parser's hot state — memo tables, staged-compilation namespaces, the
interpreter's run state — must therefore be per-parse, never per-parser:
this test hammers one shared parser per backend with 8 threads over the
Figure 13 evaluation corpus and requires every concurrent tree to be
byte-identical to the serial one.

A failure here means parser state leaked across concurrent parses —
historically the kind of bug that surfaces as a *rare* wrong tree, so
the corpus is parsed repeatedly per thread.

The recursion limit is the one piece of parse state that is
process-wide by nature.  ``test_concurrent_deep_parse_keeps_its_headroom``
races a deep parse against short ones in a child process, so that a
fatal stack overflow fails the test instead of killing pytest.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro import Parser, samples
from repro.core.parsetree import tree_to_jsonable
from repro.formats import registry

THREADS = 8
ROUNDS = 3  # corpus passes per thread; rare races need repetition

BACKENDS = ("compiled", "interpreted")

#: The Figure 13 size sweep (quick tier), one entry per format family.
_FIG13_BUILDERS = {
    "zip": lambda: [
        samples.build_zip(member_count=c, member_size=512) for c in (2, 8, 32)
    ],
    "gif": lambda: [
        samples.build_gif(frame_count=c, bytes_per_frame=512) for c in (1, 4, 16)
    ],
    "dns": lambda: [
        samples.build_dns_response(answer_count=c) for c in (1, 8, 32)
    ],
    "ipv4": lambda: [
        samples.build_ipv4_udp_packet(payload_size=s) for s in (16, 256, 1400)
    ],
}


@pytest.fixture(scope="module")
def fig13_corpus():
    return {fmt: build() for fmt, build in _FIG13_BUILDERS.items()}


@pytest.mark.parametrize("backend", BACKENDS)
def test_shared_parser_is_thread_safe(backend, fig13_corpus):
    for fmt, corpus in fig13_corpus.items():
        spec = registry[fmt]
        parser = Parser(
            spec.grammar_text, blackboxes=dict(spec.blackboxes), backend=backend
        )
        expected = [tree_to_jsonable(parser.parse(data)) for data in corpus]

        failures = []
        barrier = threading.Barrier(THREADS)

        def hammer(thread_index: int) -> None:
            try:
                barrier.wait()  # maximize overlap: everyone starts together
                for _ in range(ROUNDS):
                    for index, data in enumerate(corpus):
                        got = tree_to_jsonable(parser.parse(data))
                        if got != expected[index]:
                            failures.append(
                                f"{fmt}/{backend}: thread {thread_index} got a "
                                f"different tree for corpus[{index}]"
                            )
                            return
            except Exception as exc:  # noqa: BLE001 - report, don't deadlock
                failures.append(
                    f"{fmt}/{backend}: thread {thread_index} raised "
                    f"{type(exc).__name__}: {exc}"
                )

        threads = [
            threading.Thread(target=hammer, args=(index,), daemon=True)
            for index in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert not any(thread.is_alive() for thread in threads), (
            f"{fmt}/{backend}: threads still running (deadlock?)"
        )
        assert not failures, "\n".join(failures)


def test_deferred_rule_is_staged_once_under_contention(monkeypatch):
    """Threads asking a fresh parser for one deferred rule at once.

    A ``Parser`` compiles only its start rule's closure; the first request
    for any other rule compiles the rest.  Racing threads must compile it
    once and all get the tree a serial parse gets.
    """
    from repro.core.backends import closures

    spec = registry["elf"]
    sample = samples.build_elf(section_count=3, symbol_count=4, dynamic_entries=2)
    reference = spec.build_parser(backend="interpreted")
    _tree, trail = reference.parse(sample, record_spans={"Sym"})
    _rule, start, end = trail[0]
    window = sample[start:end]
    expected = tree_to_jsonable(reference.parse(window, start="Sym"))

    parser = spec.build_parser()
    engine = parser._engine()
    assert "Sym" not in engine._entry
    staged = []

    def counting_compile(source, filename, *args, **kwargs):
        staged.append(filename)
        return compile(source, filename, *args, **kwargs)

    monkeypatch.setattr(closures, "compile", counting_compile, raising=False)
    results = [None] * THREADS
    barrier = threading.Barrier(THREADS)

    def ask(index: int) -> None:
        barrier.wait()
        results[index] = tree_to_jsonable(parser.parse(window, start="Sym"))

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=ask, args=(index,), daemon=True)
            for index in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [expected] * THREADS
    assert staged == [closures._FILENAME]
    assert engine.staged_bytes == len(engine.source)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_stages_with_the_lock_held_at_the_fork():
    """A child forked while another thread stages can still stage."""
    from repro.core.backends import closures

    parser = registry["elf"].build_parser()
    with closures._STAGING:
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child reports by exit code
            signal.alarm(30)  # a deadlocked child dies instead of hanging
            staged = parser.try_parse(b"", start="Sym") is None
            os._exit(0 if staged and parser._engine()._deferred is None else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


def test_shared_parser_concurrent_failures_are_stable(fig13_corpus):
    """Concurrent *failing* parses must also agree with serial ones."""
    spec = registry["dns"]
    parser = Parser(spec.grammar_text, blackboxes=dict(spec.blackboxes))
    corpus = [data[:n] for data in fig13_corpus["dns"] for n in (5, 9, 17)]

    def verdict(data):
        try:
            parser.parse(data)
            return ("ok",)
        except Exception as exc:  # noqa: BLE001 - class+offset is the verdict
            return (type(exc).__name__, getattr(exc, "offset", None))

    expected = [verdict(data) for data in corpus]
    failures = []
    barrier = threading.Barrier(THREADS)

    def hammer() -> None:
        barrier.wait()
        for _ in range(ROUNDS):
            got = [verdict(data) for data in corpus]
            if got != expected:
                failures.append(f"verdicts diverged: {got} != {expected}")
                return

    threads = [threading.Thread(target=hammer, daemon=True) for _ in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    assert not failures, failures[0]


@pytest.mark.parametrize("backend", BACKENDS)
def test_concurrent_record_spans_keep_their_own_trail(backend):
    """Each ``record_spans`` parse gets its own trail, whatever else runs."""
    spec = registry["dns"]
    parser = Parser(spec.grammar_text, backend=backend)
    rules = {"Label", "RR"}
    corpus = [samples.build_dns_response(answer_count=c) for c in (1, 3, 5, 7)]
    expected = [parser.parse(data, record_spans=rules)[1] for data in corpus]
    assert len({len(trail) for trail in expected}) == len(corpus)

    failures = []
    barrier = threading.Barrier(len(corpus))

    def hammer(index: int) -> None:
        try:
            barrier.wait()
            for _ in range(30):
                _, trail = parser.parse(corpus[index], record_spans=rules)
                if trail != expected[index]:
                    failures.append(f"thread {index} got a foreign trail")
                    return
        except Exception as exc:  # noqa: BLE001 - report, don't deadlock
            failures.append(f"thread {index} raised {type(exc).__name__}: {exc}")

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=hammer, args=(index,), daemon=True)
            for index in range(len(corpus))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, "\n".join(failures)


#: One thread parses a 3000-digit Figure 3 ``Int`` 40 times while three
#: others loop on a 2-digit one, with a short switch interval.  When one
#: parse's exit restored the caller's limit under another's live deep
#: stack, CPython 3.10/3.11 aborted with "Cannot recover from stack
#: overflow" and 3.12 raised spurious LimitExceeded.  Prints deep
#: failures, shallow failures, threads left running, final limit.
_RACE = """
import sys, threading
from repro import LimitExceeded, Parser, compile_grammar
from repro.formats import toy

mode = sys.argv[1]
sys.setrecursionlimit(1234)
sys.setswitchinterval(1e-4)
backend = "interpreted" if mode == "interpreted" else "compiled"
shallow_parser = Parser(toy.FIGURE_3, backend=backend)
deep_parser = shallow_parser
if mode == "emitted":
    deep_parser = compile_grammar(toy.FIGURE_3).load_module("_race_figure_3")
stop = threading.Event()
failures = {"deep": 0, "shallow": 0}

def shallow():
    while not stop.is_set():
        try:
            shallow_parser.parse(b"12", "Int")
        except LimitExceeded:
            failures["shallow"] += 1

threads = [threading.Thread(target=shallow) for _ in range(3)]
for thread in threads:
    thread.start()
# An emitted module raises its own error classes.
deep_limit = getattr(deep_parser, "LimitExceeded", LimitExceeded)
try:
    for _ in range(40):
        try:
            deep_parser.parse(b"1" * 3000, "Int")
        except deep_limit:
            failures["deep"] += 1
finally:
    stop.set()
    for thread in threads:
        thread.join(60)
running = sum(thread.is_alive() for thread in threads)
print(failures["deep"], failures["shallow"], running, sys.getrecursionlimit())
"""


@pytest.mark.parametrize("mode", ["compiled", "interpreted", "emitted"])
def test_concurrent_deep_parse_keeps_its_headroom(mode):
    """A short parse finishing never drops the limit under a deep one.

    ``emitted`` races an emitted module's deep parses against a
    ``Parser``'s short ones: the two must share one live-guard count.
    """
    paths = [str(Path(__file__).resolve().parent.parent / "src")]
    paths += [os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    completed = subprocess.run(
        [sys.executable, "-c", _RACE, mode],
        capture_output=True,
        text=True,
        timeout=600,
        env=env,
    )
    assert completed.returncode == 0, completed.stderr[-3000:]
    assert completed.stdout.split() == ["0", "0", "0", "1234"]
