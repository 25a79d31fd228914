#!/usr/bin/env python
"""Time-boxed mutation fuzzer for the bundled format parsers.

Run from a checkout with ``repro`` importable::

    PYTHONPATH=src python tools/fuzz_parsers.py --time-budget 60
    PYTHONPATH=src python tools/fuzz_parsers.py --format dns --seed 7

For each format this fuzzer mutates the canonical deterministic sample
(bit flips, byte splices, truncations, extensions, length-field-sized
integer overwrites, block duplication) with a seeded PRNG and feeds the
result to the default compiled engine under a *reduced*
:class:`~repro.core.limits.ParseLimits` step budget, so a pathological
input costs bounded time instead of minutes.

The contract under test is the robustness tentpole's: any input either
parses or raises the structured :class:`~repro.core.errors.IPGError`
taxonomy — never a bare ``IndexError``/``TypeError``/``RecursionError``,
and never a hang (the budget converts would-be hangs into
``LimitExceeded``).  Every ``--nth-agree`` inputs (default 199) the full
cross-engine matrix replays the mutant, asserting all engines surface
the same error class and offset.

``--recover`` additionally feeds every mutant to ``parse_recover``,
whose contract is stricter still: it must **never raise** for
input-shaped problems, its salvage accounting must balance
(``salvaged_bytes + error_bytes == len(input)``, every error window in
bounds), and every ``--nth-agree`` inputs the recovered documents from
the compiled and interpreted backends must be identical.

Crashing or disagreeing inputs are written to ``--crash-dir`` with a
replayable name (``<format>-<seed>-<iteration>.bin``) and the run exits
non-zero; CI uploads the directory as an artifact.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))

from repro import IPGError, Parser, ParseLimits  # noqa: E402
from repro.formats import registry  # noqa: E402

from hostile import FORMATS, SAMPLES  # noqa: E402

#: Keep pathological mutants cheap: plenty for every legitimate sample
#: (the canonical inputs parse in a few thousand steps), small enough
#: that a hostile one is cut off in well under a second.
FUZZ_LIMITS = ParseLimits(max_steps=2_000_000)

RECOVER_BACKENDS = ("compiled", "interpreted")


def check_recovered_document(document, data) -> None:
    """Salvage invariants every recovered mutant must satisfy."""
    n = len(data)
    assert document.salvaged_bytes + document.error_bytes == n, (
        f"salvage accounting off: {document.salvaged_bytes} + "
        f"{document.error_bytes} != {n}"
    )
    for error in document.errors:
        lo, hi = error.window
        assert 0 <= lo <= hi <= n, f"error window [{lo}, {hi}) out of bounds (n={n})"


def mutate(rng: random.Random, data: bytes) -> bytes:
    """One seeded mutation: structure-agnostic but length-field aware."""
    mutated = bytearray(data)
    for _ in range(rng.randint(1, 4)):
        choice = rng.random()
        if not mutated:
            mutated = bytearray(rng.randbytes(rng.randint(1, 64)))
            continue
        if choice < 0.35:  # flip bits in one byte
            pos = rng.randrange(len(mutated))
            mutated[pos] ^= 1 << rng.randrange(8)
        elif choice < 0.55:  # overwrite an integer-field-sized window
            width = rng.choice((1, 2, 2, 4, 8))
            pos = rng.randrange(len(mutated))
            lie = rng.choice((0, 1, 0xFF, len(mutated), len(mutated) * 2, 2**31 - 1))
            lie &= (1 << (8 * width)) - 1
            packed = lie.to_bytes(width, rng.choice(("little", "big")), signed=False)
            mutated[pos : pos + width] = packed
        elif choice < 0.7:  # truncate
            mutated = mutated[: rng.randrange(len(mutated))]
        elif choice < 0.8:  # extend with junk
            mutated += rng.randbytes(rng.randint(1, 64))
        elif choice < 0.9:  # splice a random window somewhere else
            n = len(mutated)
            length = rng.randint(1, max(1, n // 4))
            src = rng.randrange(n)
            dst = rng.randrange(n)
            mutated[dst : dst + length] = mutated[src : src + length]
        else:  # duplicate a block in place (count-field bait)
            n = len(mutated)
            length = rng.randint(1, max(1, n // 4))
            src = rng.randrange(n)
            block = mutated[src : src + length]
            mutated[src:src] = block
    return bytes(mutated)


def fuzz_format(
    fmt: str,
    time_budget: float,
    seed: int,
    crash_dir: str,
    nth_agree: int,
    recover: bool = False,
) -> tuple:
    """Fuzz one format; returns (iterations, crash_count)."""
    from engine_matrix import matrix_for

    rng = random.Random(seed)
    sample = SAMPLES[fmt]()
    spec = registry[fmt]
    parser = Parser(
        spec.grammar_text, blackboxes=dict(spec.blackboxes), limits=FUZZ_LIMITS
    )
    matrix = matrix_for(spec.grammar_text, blackboxes=dict(spec.blackboxes))
    recover_parsers = ()
    if recover:
        from repro.core.recover import document_to_jsonable, jsonables_equal

        recover_parsers = tuple(
            Parser(
                spec.grammar_text,
                blackboxes=dict(spec.blackboxes),
                limits=FUZZ_LIMITS,
                backend=backend,
            )
            for backend in RECOVER_BACKENDS
        )
    deadline = time.monotonic() + time_budget
    iterations = crashes = 0
    corpus = [sample]
    while time.monotonic() < deadline:
        iterations += 1
        parent = rng.choice(corpus)
        data = mutate(rng, parent)
        try:
            try:
                parser.parse(data)
            except IPGError:
                pass  # structured rejection: the contract held
            else:
                if len(corpus) < 64:
                    corpus.append(data)  # parsing mutants breed deeper ones
            if recover:
                # Recovery must not raise at all, and the books must
                # balance on every single mutant.
                check_recovered_document(
                    recover_parsers[0].parse_recover(data), data
                )
            if nth_agree and iterations % nth_agree == 0:
                matrix.assert_error_agree(data)
                if recover:
                    docs = [
                        document_to_jsonable(p.parse_recover(data))
                        for p in recover_parsers
                    ]
                    for backend, doc in zip(RECOVER_BACKENDS[1:], docs[1:]):
                        assert jsonables_equal(docs[0], doc), (
                            f"recovered documents diverge: "
                            f"{RECOVER_BACKENDS[0]} vs {backend}"
                        )
        except BaseException as exc:  # noqa: BLE001 - crash triage is the point
            crashes += 1
            os.makedirs(crash_dir, exist_ok=True)
            path = os.path.join(crash_dir, f"{fmt}-{seed}-{iterations}.bin")
            with open(path, "wb") as handle:
                handle.write(data)
            print(
                f"CRASH {fmt} iter={iterations}: {type(exc).__name__}: {exc}\n"
                f"  input saved to {path}",
                file=sys.stderr,
            )
    return iterations, crashes


def replay_quarantine(directory: str, deadline_ms: int = 10_000) -> dict:
    """Replay a parse-service crasher corpus against fresh services.

    Each quarantine entry's metadata (grammar, backend, blackbox
    provider, recover flag — see ``repro.service.quarantine``) rebuilds
    the service that originally quarantined it; the input bytes are
    re-submitted and the *service contract* is asserted: a structured
    reply arrives (the future resolves), never a hang, and the pool is
    back at full strength afterwards.  Returns a report dict; entries
    whose crash still reproduces are counted, not failed — a fixed
    crasher regressing to "reproduced" is the fuzzer's next regression
    test, and a *hang* (no reply) is the only hard failure.
    """
    from repro.core.errors import ServiceError
    from repro.service import ParseService, QuarantineCorpus, ServiceConfig

    corpus = QuarantineCorpus(directory)
    report = {"entries": 0, "reproduced": 0, "structured": 0, "hung": 0}
    for entry in corpus.entries():
        report["entries"] += 1
        meta = entry.metadata
        config = ServiceConfig(
            workers=1,
            default_deadline_ms=meta.get("deadline_ms") or deadline_ms,
            backend=meta.get("backend", "compiled"),
            blackbox_provider=meta.get("blackbox_provider"),
            retries=0,  # one attempt: did the crash reproduce or not?
        )
        submit_kwargs = {"recover": bool(meta.get("recover"))}
        if meta.get("grammar_kind") == "format":
            submit_kwargs["format"] = meta.get("format")
        else:
            submit_kwargs["grammar"] = meta.get("grammar_text")
        with ParseService(config) as service:
            future = service.submit(entry.read_data(), **submit_kwargs)
            try:
                result = future.result(timeout=(deadline_ms / 1000.0) * 4 + 30)
            except Exception:  # noqa: BLE001 - a stranded future is the failure
                report["hung"] += 1
                print(f"HUNG {entry.digest}: no reply", file=sys.stderr)
                continue
            if isinstance(result.error, ServiceError):
                report["reproduced"] += 1
                verdict = f"reproduced ({type(result.error).__name__})"
            else:
                report["structured"] += 1
                verdict = (
                    "no longer crashes "
                    f"({type(result.error).__name__ if result.error else result.kind})"
                )
        print(f"{entry.digest}  {verdict}")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--format", action="append", choices=FORMATS, help="restrict to FORMAT"
    )
    parser.add_argument(
        "--time-budget",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="wall-clock budget per format (default: 60)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="PRNG seed (default: 0)"
    )
    parser.add_argument(
        "--crash-dir",
        default="fuzz-crashes",
        metavar="DIR",
        help="where crashing inputs are saved (default: fuzz-crashes)",
    )
    parser.add_argument(
        "--nth-agree",
        type=int,
        default=199,
        metavar="N",
        help="replay every Nth mutant through the full cross-engine "
        "error-agreement matrix (0 disables; default: 199)",
    )
    parser.add_argument(
        "--recover",
        action="store_true",
        help="also run every mutant through parse_recover (never raises, "
        "salvage accounting balances; every Nth mutant compares the "
        "recovered documents across the tree backends)",
    )
    parser.add_argument(
        "--replay-quarantine",
        metavar="DIR",
        help="instead of fuzzing, replay a parse-service crasher corpus "
        "(see `repro serve --quarantine-dir`): rebuild a service per "
        "entry from its metadata, re-submit the bytes, and assert a "
        "structured reply arrives (exit non-zero only on a hang)",
    )
    args = parser.parse_args(argv)
    if args.replay_quarantine:
        report = replay_quarantine(args.replay_quarantine)
        print(
            f"replayed {report['entries']} entries: "
            f"{report['reproduced']} still crash, "
            f"{report['structured']} answer structurally, "
            f"{report['hung']} hung"
        )
        return 1 if report["hung"] else 0
    formats = tuple(args.format) if args.format else FORMATS
    total_crashes = 0
    for fmt in formats:
        iterations, crashes = fuzz_format(
            fmt,
            args.time_budget,
            args.seed,
            args.crash_dir,
            args.nth_agree,
            recover=args.recover,
        )
        total_crashes += crashes
        status = "ok" if crashes == 0 else f"{crashes} CRASHES"
        print(f"{fmt:<5} {iterations:>7} inputs in {args.time_budget:.0f}s  {status}")
    return 1 if total_crashes else 0


if __name__ == "__main__":
    sys.exit(main())
