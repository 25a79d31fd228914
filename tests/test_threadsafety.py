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
"""

from __future__ import annotations

import threading

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
