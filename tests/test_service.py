"""Tests for the fault-tolerant parse service (``repro.service``).

The service's contract under test: every submitted request gets exactly
one reply — a tree byte-identical to an in-process parse, a recovered
document, a structured parse failure, or a structured
``ServiceError`` — and the worker pool repairs itself after crashes,
hangs, and poisonous inputs without leaking processes or spool files.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from engine_matrix import format_sample
from repro import samples
from repro.core.errors import (
    DeadlineExceeded,
    GrammarSyntaxError,
    IPGError,
    LimitExceeded,
    ServiceClosed,
    ServiceError,
    ServiceOverloaded,
    TruncatedInput,
    WorkerCrashed,
)
from repro.core.parsetree import tree_to_jsonable
from repro.core.recover import document_to_jsonable
from repro.formats import registry
from repro.service import (
    ParseService,
    QuarantineCorpus,
    ServiceConfig,
    ServiceResult,
    parse_many,
)
from repro.service import supervisor as supervisor_module

pytestmark = pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="parse service tests assume a fork-capable host",
)

DEADLINE = 30_000  # generous per-attempt budget for functional tests

TOOLS = str(Path(__file__).resolve().parent.parent / "tools")


@pytest.fixture(scope="module")
def dns_data() -> bytes:
    return samples.build_dns_response(answer_count=2, additional_count=1)


@pytest.fixture(scope="module")
def chaos():
    """``tools/chaos_blackboxes.py``: faults injected as blackbox inputs.

    Imported here, it is in ``sys.modules`` of every worker forked later.
    """
    sys.path.insert(0, TOOLS)
    try:
        import chaos_blackboxes

        yield chaos_blackboxes
    finally:
        sys.path.remove(TOOLS)


@pytest.fixture(scope="module")
def service(chaos):
    with ParseService(workers=2, blackbox_provider=chaos.PROVIDER, seed=7) as svc:
        yield svc


# ---------------------------------------------------------------------------
# Happy path: results match in-process parses exactly
# ---------------------------------------------------------------------------


def test_tree_matches_in_process(service, dns_data):
    expected = tree_to_jsonable(registry["dns"].build_parser().parse(dns_data))
    result = service.submit(dns_data, format="dns", deadline_ms=DEADLINE).result()
    assert result.ok
    assert result.kind == "tree"
    assert result.tree == expected
    assert result.worker_pid in service.audit()["worker_pids"]


def test_spans_and_validate_modes(service, dns_data):
    spans = service.submit(
        dns_data, format="dns", emit="spans", deadline_ms=DEADLINE
    ).result()
    assert spans.ok and spans.kind == "spans"
    assert spans.root == "DNS"
    assert "EOI" in spans.env

    verdict = service.submit(
        dns_data, format="dns", emit=None, deadline_ms=DEADLINE
    ).result()
    assert verdict.ok and verdict.kind == "ok"


def test_recover_matches_in_process(service, dns_data):
    hostile = dns_data[:20]
    expected = document_to_jsonable(
        registry["dns"].build_parser().parse_recover(hostile)
    )
    result = service.submit(
        hostile, format="dns", recover=True, deadline_ms=DEADLINE
    ).result()
    assert result.ok
    assert result.kind == "recovered"
    assert result.document == expected


def test_structured_failure_crosses_the_wire(service, dns_data):
    result = service.submit(dns_data[:5], format="dns", deadline_ms=DEADLINE).result()
    assert not result.ok
    assert isinstance(result.error, TruncatedInput)
    # Field parity with the in-process failure, not just the class.
    with pytest.raises(TruncatedInput) as excinfo:
        registry["dns"].build_parser().parse(dns_data[:5])
    assert result.error.offset == excinfo.value.offset
    assert result.error.nonterminal == excinfo.value.nonterminal
    with pytest.raises(TruncatedInput):
        result.raise_for_status()


def test_adhoc_grammar_and_unknown_format(service):
    grammar = "S -> U16BE {n = U16BE.val} Bytes[n] ;"
    ok = service.submit(
        b"\x00\x03abc", grammar=grammar, deadline_ms=DEADLINE
    ).result()
    assert ok.ok and ok.tree["env"]["n"] == 3

    unknown = service.submit(b"", format="nosuch", deadline_ms=DEADLINE).result()
    assert not unknown.ok
    assert "nosuch" in str(unknown.error)


def test_malformed_number_in_grammar_is_a_grammar_error(service):
    # The lexer used to let int() raise ValueError, a worker error.
    result = service.submit(
        b"", grammar="A -> U8[0, 0x] ;", deadline_ms=DEADLINE
    ).result()
    assert not result.ok
    assert isinstance(result.error, GrammarSyntaxError)


def test_spooled_large_input_roundtrip(dns_data):
    # Force the shared-memory spool path for every payload.
    with ParseService(workers=1, inline_bytes_max=1) as svc:
        expected = tree_to_jsonable(registry["dns"].build_parser().parse(dns_data))
        result = svc.submit(dns_data, format="dns", deadline_ms=DEADLINE).result()
        assert result.ok and result.tree == expected
        assert svc.audit()["spool_files"] == 0  # unlinked at resolution


def test_parse_many_preserves_input_order(dns_data):
    inputs = [dns_data, dns_data[:5], dns_data]
    results = parse_many(inputs, format="dns", deadline_ms=DEADLINE)
    assert [r.ok for r in results] == [True, False, True]
    assert [r.request_id for r in results] == sorted(r.request_id for r in results)


def test_submit_argument_validation(service):
    with pytest.raises(ValueError):
        service.submit(b"", deadline_ms=DEADLINE)  # neither format nor grammar
    with pytest.raises(ValueError):
        service.submit(b"", format="dns", grammar="S -> U8 ;")
    with pytest.raises(ValueError):
        service.submit(b"", format="dns", deadline_ms=0)
    with pytest.raises(ValueError):
        service.submit(b"", format="dns", emit="spans", recover=True)


@pytest.mark.parametrize("backend", ["tablvm", "tablevm"])
def test_unknown_backend_is_rejected_at_construction(backend):
    # A typo and the retired table VM both fail here, not per request.
    with pytest.raises(ValueError, match="unknown backend"):
        ServiceConfig(backend=backend)
    with pytest.raises(ValueError, match="unknown backend"):
        ServiceConfig().with_overrides(backend=backend)
    with pytest.raises(ValueError, match="unknown backend"):
        ParseService(backend=backend)
    assert ServiceConfig(backend="interpreted").backend == "interpreted"


# ---------------------------------------------------------------------------
# Tree replies: a tape the supervisor forwards and ``.tree`` decodes
# ---------------------------------------------------------------------------


@pytest.fixture
def decode_calls(monkeypatch):
    """Counts ``tape_to_jsonable`` calls made through ``ServiceResult.tree``."""
    calls = []
    original = supervisor_module.tape_to_jsonable

    def counting(blob):
        calls.append(len(blob))
        return original(blob)

    monkeypatch.setattr(supervisor_module, "tape_to_jsonable", counting)
    return calls


@pytest.mark.parametrize("spooled", [False, True], ids=["inline", "spooled"])
def test_every_format_tree_matches_in_process(spooled, monkeypatch):
    spools = []
    original_spool_write = supervisor_module.spool_write

    def counting_spool_write(*args):
        spools.append(args[1])
        return original_spool_write(*args)

    monkeypatch.setattr(supervisor_module, "spool_write", counting_spool_write)
    inline_bytes_max = 1 if spooled else 1 << 20
    fmts = sorted(registry)
    with ParseService(workers=2, inline_bytes_max=inline_bytes_max) as svc:
        futures = [
            svc.submit(format_sample(fmt), format=fmt, deadline_ms=DEADLINE)
            for fmt in fmts
        ]
        results = [future.result() for future in futures]
    assert len(spools) == (len(fmts) if spooled else 0)
    for fmt, result in zip(fmts, results):
        expected = tree_to_jsonable(registry[fmt].build_parser().parse(format_sample(fmt)))
        assert result.ok and result.kind == "tree", fmt
        assert result.tree == expected, fmt


def test_supervisor_forwards_the_tape_undecoded(service, dns_data, decode_calls):
    expected = tree_to_jsonable(registry["dns"].build_parser().parse(dns_data))
    result = service.submit(dns_data, format="dns", deadline_ms=DEADLINE).result()
    assert result.kind == "tree"
    assert decode_calls == []  # resolved, and nothing decoded yet
    tree = result.tree
    assert len(decode_calls) == 1
    assert tree == expected
    assert result.tree is tree and len(decode_calls) == 1  # cached


def test_concurrent_first_reads_get_one_tree(service, decode_calls, monkeypatch):
    data = samples.build_zip(member_count=40, member_size=64)
    expected = tree_to_jsonable(registry["zip"].build_parser().parse(data))
    result = service.submit(data, format="zip", deadline_ms=DEADLINE).result()
    counting = supervisor_module.tape_to_jsonable

    def slow_decode(blob):  # widen the window in which readers overlap
        time.sleep(0.05)
        return counting(blob)

    monkeypatch.setattr(supervisor_module, "tape_to_jsonable", slow_decode)
    readers = 8
    start = threading.Barrier(readers)
    trees = [None] * readers

    def read(index):
        start.wait()
        trees[index] = result.tree

    threads = [threading.Thread(target=read, args=(i,)) for i in range(readers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert all(tree == expected for tree in trees)
    assert len(decode_calls) == 1


def test_result_built_around_a_ready_tree():
    tree = {"node": "S", "env": {}, "children": []}
    result = ServiceResult(1, "tree", tree=tree)
    assert result.tree is tree
    assert ServiceResult(2, "ok").tree is None


def test_serve_cli_tree_lines_match_in_process(tmp_path):
    inputs = {
        str(tmp_path / "response.bin"): samples.build_dns_response(
            answer_count=2, additional_count=1
        ),
        str(tmp_path / "query.bin"): samples.build_dns_query(),
    }
    for path, data in inputs.items():
        Path(path).write_bytes(data)
    repo_root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(repo_root / "src"))
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--format", "dns", "--tree",
         "--workers", "1"],
        input="\n".join(inputs) + "\n",
        capture_output=True,
        text=True,
        timeout=240,
        env=env,
    )
    assert completed.returncode == 0, completed.stderr
    lines = [json.loads(line) for line in completed.stdout.splitlines()]
    assert sorted(line["path"] for line in lines) == sorted(inputs)
    parser = registry["dns"].build_parser()
    for line in lines:
        assert line["kind"] == "tree"
        assert line["tree"] == tree_to_jsonable(parser.parse(inputs[line["path"]]))


# ---------------------------------------------------------------------------
# Failure handling: crashes, deadlines, shedding, close
# ---------------------------------------------------------------------------


def test_worker_crash_is_isolated_and_pool_repairs(service, chaos, dns_data):
    before = service.stats()["respawns"]
    crashed = service.submit(b"exit", grammar=chaos.GRAMMAR).result()
    assert isinstance(crashed.error, WorkerCrashed)
    assert crashed.error.exitcode == 3
    # The pool keeps answering while (and after) it repairs itself.
    ok = service.submit(dns_data, format="dns", deadline_ms=DEADLINE).result()
    assert ok.ok
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        stats = service.stats()
        if stats["workers_alive"] == 2 and stats["respawns"] > before:
            break
        time.sleep(0.05)
    assert service.stats()["workers_alive"] == 2


def test_segfault_reports_signal_exitcode(service, chaos):
    crashed = service.submit(b"segv", grammar=chaos.GRAMMAR).result()
    assert isinstance(crashed.error, WorkerCrashed)
    assert crashed.error.exitcode == -11  # SIGSEGV


def test_hung_worker_is_killed_at_the_deadline(service, chaos, dns_data):
    begin = time.monotonic()
    result = service.submit(
        b"hang 60", grammar=chaos.GRAMMAR, deadline_ms=400, retries=0
    ).result()
    elapsed = time.monotonic() - begin
    assert isinstance(result.error, DeadlineExceeded)
    assert result.error.deadline_ms == 400
    assert elapsed < 30  # killed, not waited out
    assert service.submit(dns_data, format="dns", deadline_ms=DEADLINE).result().ok


@pytest.mark.parametrize("emit", ["tree", None])
@pytest.mark.parametrize("backend", ["compiled", "interpreted"])
def test_soft_deadline_degrades_to_wall_limit(backend, emit):
    # A near-zero in-worker wall budget fails the parse structurally
    # (LimitExceeded limit="wall") — no SIGKILL, no respawn burned.  The
    # compiled engines were staged under the warm request's budget, so
    # this also checks that a new soft deadline reaches them.  The
    # archive outlasts a 2 ms budget on the compiled engine too.
    big = samples.build_zip(member_count=2000, member_size=200)
    # The warm-up stages the zip grammar with a one-member archive under
    # a soft budget (10 s) the big archive parses well within, so an
    # engine still bound to it would not trip.
    small = samples.build_zip(member_count=1, member_size=200)
    with ParseService(
        workers=1, backend=backend, soft_deadline_fraction=0.001
    ) as svc:
        warm = svc.submit(
            small, format="zip", deadline_ms=10_000_000, emit=emit
        ).result()
        assert warm.ok
        tight = svc.submit(big, format="zip", deadline_ms=2_000, emit=emit).result()
        assert isinstance(tight.error, LimitExceeded)
        assert tight.error.limit == "wall"
        stats = svc.stats()
        assert stats["deadline_kills"] == 0
        assert stats["crashes"] == 0


def test_worker_parser_cache_is_bounded():
    # One parser per distinct grammar text, least recently used evicted.
    from repro.service.worker import _MAX_PARSERS, _WorkerState

    state = _WorkerState({"backend": "interpreted"})
    texts = [f'S -> "{i}" ;' for i in range(100)]
    for text in texts:
        state.parser_for(("text", text))
    assert len(state.parsers) == _MAX_PARSERS
    recent = state.parser_for(("text", texts[-1]))
    assert state.parser_for(("text", texts[-1])) is recent
    # A hit refreshes recency: the oldest survivor outlives one new text.
    survivor = texts[len(texts) - _MAX_PARSERS]
    oldest = state.parser_for(("text", survivor))
    state.parser_for(("text", 'S -> "new" ;'))
    assert state.parser_for(("text", survivor)) is oldest
    assert len(state.parsers) == _MAX_PARSERS


def test_overload_sheds_with_retry_after(chaos):
    with ParseService(
        workers=1,
        max_pending=2,
        blackbox_provider=chaos.PROVIDER,
        default_deadline_ms=10_000,
    ) as svc:
        blocker = svc.submit(b"hang 1.0", grammar=chaos.GRAMMAR, deadline_ms=20_000)
        time.sleep(0.2)  # let the hang dispatch so the queue is empty
        accepted, shed = [], None
        for _ in range(10):
            try:
                accepted.append(svc.submit(b"hang 0.0", grammar=chaos.GRAMMAR))
            except ServiceOverloaded as exc:
                shed = exc
        assert shed is not None
        assert shed.retry_after > 0
        assert svc.stats()["shed"] >= 1
        for future in [blocker, *accepted]:
            assert future.result() is not None  # shed or not, no one hangs
        assert blocker.result().kind == "tree"  # a finished hang parses


def test_close_resolves_everything_and_rejects_new_work(dns_data):
    svc = ParseService(workers=1, default_deadline_ms=DEADLINE)
    futures = [svc.submit(dns_data, format="dns") for _ in range(5)]
    svc.close()
    for future in futures:
        assert future.result(timeout=1) is not None  # drained, not stranded
    with pytest.raises(ServiceClosed):
        svc.submit(dns_data, format="dns")
    assert not os.path.isdir(svc.audit()["spool_dir"])
    svc.close()  # idempotent


def test_retry_runs_on_a_fresh_worker(service, chaos, dns_data):
    # A crash with a parse in flight on the *other* worker: both answer.
    crash = service.submit(b"exit", grammar=chaos.GRAMMAR)
    parse = service.submit(dns_data, format="dns", deadline_ms=DEADLINE)
    assert isinstance(crash.result().error, WorkerCrashed)
    assert crash.result().retried
    assert parse.result().ok


@pytest.mark.parametrize(
    "directive, exitcode", [(b"exit", 3), (b"segv", -11), (b"oom", 137)]
)
def test_crash_directive_is_retried_then_quarantined_once(
    tmp_path, chaos, directive, exitcode
):
    # The README failure matrix's crash row: input quarantined, retried
    # once on a fresh worker, then WorkerCrashed.
    qdir = str(tmp_path / "quarantine")
    with ParseService(
        workers=1,
        quarantine_dir=qdir,
        blackbox_provider=chaos.PROVIDER,
        default_deadline_ms=DEADLINE,
    ) as svc:
        first = svc.submit(directive, grammar=chaos.GRAMMAR).result()
        stats = svc.stats()
        assert isinstance(first.error, WorkerCrashed)
        assert first.error.exitcode == exitcode
        assert first.retried
        assert stats["crashes"] == 2 and stats["retries"] == 1
        assert stats["quarantined"] == 1
        again = svc.submit(directive, grammar=chaos.GRAMMAR).result()
        assert isinstance(again.error, WorkerCrashed) and again.retried
        assert svc.stats()["quarantined"] == 1
    (entry,) = QuarantineCorpus(qdir).entries()
    assert entry.read_data() == directive
    assert entry.metadata["reason"] == "crash"
    assert entry.metadata["exitcode"] == exitcode
    assert entry.metadata["grammar_text"] == chaos.GRAMMAR
    assert entry.metadata["blackbox_provider"] == chaos.PROVIDER


def test_leaked_spool_file_is_swept(chaos, monkeypatch):
    seen = []
    sweep = ParseService._sweep_spool_locked

    def recording_sweep(self):
        seen.extend(os.listdir(self._spool_dir))
        sweep(self)

    monkeypatch.setattr(ParseService, "_sweep_spool_locked", recording_sweep)
    with ParseService(workers=1, blackbox_provider=chaos.PROVIDER) as svc:
        spool_dir = svc.audit()["spool_dir"]
        directive = f"leak {spool_dir}".encode()
        result = svc.submit(directive, grammar=chaos.GRAMMAR).result()
        assert isinstance(result.error, WorkerCrashed)
        assert result.error.exitcode == 7
        assert svc.audit()["spool_files"] == 0
    # Both attempts stranded a file, and a sweep found each one.
    assert len({name for name in seen if name.startswith("leak-")}) == 2


# ---------------------------------------------------------------------------
# Satellite: crasher quarantine round-trip (deliberately crashing blackbox)
# ---------------------------------------------------------------------------

CRASHY_PROVIDER = textwrap.dedent(
    '''
    """Test-only blackbox provider: dies on a magic byte window."""
    import os

    def poison(data):
        if bytes(data).startswith(b"CRASH!"):
            os._exit(66)
        return {"n": len(data)}

    BLACKBOXES = {"Poison": poison}
    '''
)

CRASHY_GRAMMAR = """
S -> Hdr Body[Hdr.end, EOI] ;
Hdr -> U16BE {n = U16BE.val} ;
Body -> Poison ;
blackbox Poison ;
"""


@pytest.fixture()
def crashy_provider(tmp_path, monkeypatch):
    (tmp_path / "crashy_blackbox_mod.py").write_text(CRASHY_PROVIDER)
    monkeypatch.syspath_prepend(str(tmp_path))
    # Workers inherit sys.path via fork; spawn-start hosts are skipped above.
    return "crashy_blackbox_mod:BLACKBOXES"


def test_crasher_is_quarantined_and_replayable(tmp_path, crashy_provider):
    qdir = str(tmp_path / "quarantine")
    poison = b"\x00\x07" + b"CRASH!" + b"padding"
    benign = b"\x00\x07" + b"hello world"
    config = ServiceConfig(
        workers=2,
        quarantine_dir=qdir,
        blackbox_provider=crashy_provider,
        default_deadline_ms=DEADLINE,
    )
    with ParseService(config) as svc:
        assert svc.submit(benign, grammar=CRASHY_GRAMMAR).result().ok
        first = svc.submit(poison, grammar=CRASHY_GRAMMAR).result()
        assert isinstance(first.error, WorkerCrashed)
        assert first.retried  # one retry on a fresh worker before degrading
        # Resubmitting the same poison dedupes to one corpus entry.
        again = svc.submit(poison, grammar=CRASHY_GRAMMAR).result()
        assert isinstance(again.error, WorkerCrashed)

    corpus = QuarantineCorpus(qdir)
    assert len(corpus) == 1
    (entry,) = corpus.entries()
    assert entry.read_data() == poison
    assert entry.metadata["reason"] == "crash"
    assert entry.metadata["exitcode"] == 66
    assert entry.metadata["grammar_text"] == CRASHY_GRAMMAR
    assert entry.metadata["blackbox_provider"] == crashy_provider
    assert entry.metadata["input_length"] == len(poison)

    # The metadata alone rebuilds a service that reproduces the crash —
    # exactly what tools/fuzz_parsers.py --replay-quarantine does.
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))
    try:
        from fuzz_parsers import replay_quarantine

        report = replay_quarantine(qdir, deadline_ms=DEADLINE)
    finally:
        sys.path.pop(0)
    assert report["entries"] == 1
    assert report["reproduced"] == 1
    assert report["hung"] == 0


def test_quarantine_corpus_dedupes_by_content(tmp_path):
    corpus = QuarantineCorpus(str(tmp_path / "q"))
    assert corpus.add(b"poison", {"reason": "crash"}) is not None
    assert corpus.add(b"poison", {"reason": "deadline"}) is None  # dupe
    assert corpus.add(b"other", {"reason": "crash"}) is not None
    assert len(corpus) == 2
    digests = [entry.digest for entry in corpus.entries()]
    assert digests == sorted(digests)
    # Metadata JSON is valid and carries the enrichment fields.
    for entry in corpus.entries():
        with open(entry.bin_path[: -len(".bin")] + ".json") as handle:
            meta = json.load(handle)
        assert meta["sha256_prefix"] == entry.digest


# ---------------------------------------------------------------------------
# Satellite: an unresolvable blackbox_provider fails at construction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "spec, cause",
    [
        ("no_such_blackbox_module_xyz:BLACKBOXES", "ModuleNotFoundError"),
        ("crashy_blackbox_mod:NO_SUCH_ATTRIBUTE", "AttributeError"),
    ],
)
def test_unresolvable_provider_fails_at_construction(
    tmp_path, crashy_provider, dns_data, spec, cause
):
    qdir = tmp_path / "quarantine"
    with pytest.raises(IPGError, match=cause) as raised:
        ParseService(workers=1, quarantine_dir=str(qdir), blackbox_provider=spec)
    assert spec in str(raised.value)
    assert not qdir.exists() or not any(qdir.iterdir())


def test_serve_cli_reports_an_unresolvable_provider(capsys):
    from repro.cli import main as cli_main

    code = cli_main(
        ["serve", "--format", "dns", "--blackbox-provider", "no_such_module_xyz:X"]
    )
    assert code == 2
    assert "ModuleNotFoundError" in capsys.readouterr().err


WORKER_ONLY_FAILURE_PROVIDER = textwrap.dedent(
    '''
    """Test-only provider that resolves in the supervisor only."""
    import os

    _HOME = os.getpid()

    def blackboxes():
        if os.getpid() != _HOME:
            raise RuntimeError("provider refuses to load in a worker")
        return {}
    '''
)


def test_worker_initialization_failure_never_quarantines(
    tmp_path, monkeypatch, dns_data
):
    (tmp_path / "worker_only_failure_mod.py").write_text(
        WORKER_ONLY_FAILURE_PROVIDER
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    qdir = tmp_path / "quarantine"
    with ParseService(
        workers=1,
        quarantine_dir=str(qdir),
        blackbox_provider="worker_only_failure_mod:blackboxes",
        default_deadline_ms=DEADLINE,
    ) as svc:
        result = svc.submit(dns_data, format="dns").result(timeout=60)
        stats = svc.stats()
    assert type(result.error) is ServiceError
    assert "worker initialization failed" in str(result.error)
    assert "provider refuses to load in a worker" in str(result.error)
    assert not result.retried
    assert stats["quarantined"] == 0 and stats["retries"] == 0
    assert not qdir.exists() or not any(qdir.iterdir())


# ---------------------------------------------------------------------------
# The worker's collection policy: no automatic GC inside a request
# ---------------------------------------------------------------------------

GC_PROVIDER = textwrap.dedent(
    '''
    """Test-only blackboxes reporting the worker's collector state."""
    import gc

    CYCLES_PER_CALL = 1000
    COUNTS = {"created": 0, "finalized": 0}


    class Knot:
        def __init__(self):
            self.partner = self

        def __del__(self):
            COUNTS["finalized"] += 1


    def probe(data):
        return {"enabled": int(gc.isenabled()), "frozen": gc.get_freeze_count()}


    def litter(data):
        # Report first: the cycles made below are this call's garbage.
        seen = dict(COUNTS)
        for _ in range(CYCLES_PER_CALL):
            Knot()
        COUNTS["created"] += CYCLES_PER_CALL
        return seen


    BLACKBOXES = {"Probe": probe, "Litter": litter}
    '''
)

PROBE_GRAMMAR = """
S -> Probe {enabled = Probe.enabled} {frozen = Probe.frozen} ;
blackbox Probe ;
"""

LITTER_GRAMMAR = """
S -> Litter {created = Litter.created} {finalized = Litter.finalized} ;
blackbox Litter ;
"""


@pytest.fixture()
def gc_provider(tmp_path, monkeypatch):
    (tmp_path / "gc_probe_mod.py").write_text(GC_PROVIDER)
    monkeypatch.syspath_prepend(str(tmp_path))
    return "gc_probe_mod:BLACKBOXES"


def test_worker_requests_run_without_automatic_gc(gc_provider):
    with ParseService(workers=1, blackbox_provider=gc_provider) as svc:
        for _ in range(3):
            result = svc.submit(
                b"x", grammar=PROBE_GRAMMAR, emit="spans", deadline_ms=DEADLINE
            ).result()
            assert result.ok, result.error
            assert result.env["enabled"] == 0
            # The heap inherited through fork sits in the permanent generation.
            assert result.env["frozen"] > 0
        assert svc.stats()["respawns"] == 0


def test_worker_cyclic_garbage_is_reclaimed_between_requests(gc_provider):
    requests = 40
    with ParseService(workers=1, blackbox_provider=gc_provider) as svc:
        for _ in range(requests):
            result = svc.submit(
                b"x", grammar=LITTER_GRAMMAR, emit="spans", deadline_ms=DEADLINE
            ).result()
            assert result.ok, result.error
        assert svc.stats()["respawns"] == 0
    created, finalized = result.env["created"], result.env["finalized"]
    assert created == (requests - 1) * 1000
    # Every earlier request's cycles were collected before the last one
    # ran, except at most the previous request's: nothing piles up.
    assert finalized >= created - 1000


def test_collection_paused_restores_the_state_it_found():
    import gc

    from repro.service.worker import _collection_paused

    def failing_handler():
        with _collection_paused():
            assert not gc.isenabled()
            raise RuntimeError("handler failed")

    was_enabled = gc.isenabled()
    try:
        gc.enable()
        with pytest.raises(RuntimeError, match="handler failed"):
            failing_handler()
        assert gc.isenabled()
        # A process that inherited collection disabled keeps it disabled.
        gc.disable()
        with pytest.raises(RuntimeError, match="handler failed"):
            failing_handler()
        assert not gc.isenabled()
        with _collection_paused():
            pass
        assert not gc.isenabled()
    finally:
        if was_enabled:
            gc.enable()
