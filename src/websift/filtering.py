"""Corpus scoring, keep manifests, and corpus statistics.

score_corpus streams sharded JSONL through a trained classifier and splits
every document into a kept or rejected stream by thresholding the positive
class probability (kept means score >= threshold). score_documents is the
one scoring loop, for corpus shards and the pipeline's sample alike. It
tokenizes with the model's own tokenizer; score_corpus takes a tokenizer
only to check it against the model's. Over classifier.score_stream, it
tokenizes documents until their tokens fill a chunk of
classifier.CHUNK_TOKENS (each document counts one more than its tokens, and
a longer document is a chunk of its own), featurizes the chunk at once and
scores it by one positive_probs call over the model's logit table, which
sums each document's entries as a segment of its own. So no output byte
depends on where chunks split, and a scoring process holds one chunk of
tokens however long its documents are. Shards are independent units of work
that this process and forked workers, no more processes than the CPUs it
may run on, claim one at a time from a shared claim file. The claiming
process hashes the shard and reuses it if a completed-shard ledger names
that digest, so interrupted runs restart without rescoring finished
shards. The ledger is an ioutil log, so each line carries a check and an
edited line is damage: its shard, or every shard if the line is not the
last, is rescored. Unreadable shards (missing, truncated or corrupt .gz)
are reported and skipped so one bad file cannot sink a long run; malformed
records are skipped, counted and logged.

Each scored shard leaves three files, all durable before its ledger line:
its kept and rejected streams and ids/<shard>.kept_ids, its kept ids
sorted, one per line. setup.json names the threshold and model the ledger's
shards were scored with; a resume under any other setup rescores every
shard, and a shard missing any of its files is rescored.

Keep manifests record the sorted kept ids under a corpus fingerprint, which
intersect() checks before combining runs, so manifests from different
corpora never silently intersect. score_corpus writes its manifest by
sorting the completed shards' sidecars together, without reading a kept
document. Manifests are read MANIFEST_WINDOW lines at a time, and ids out
of order are refused on both write and read. intersect() merges the
manifests window by window, so a streamed intersection holds one window
per manifest whatever the corpus size.
"""

from __future__ import annotations

import bisect
import logging
import math
import operator
import os
import pickle
import select
import signal
import tempfile
import traceback
from collections import Counter
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, Optional, Sequence, TypeVar, Union

from .classifier import (
    ClassifierModel,
    check_tokenizer,
    model_sha256,
    predict_tokens,
    score_stream,
)
from .documents import (
    SHARD_READ_ERRORS,
    Document,
    MalformedRecord,
    corpus_fingerprint,
    decode_record,
    encode_line,
    iter_shard_lines,
    shard_digest,
    shard_name,
)
from .errors import WebsiftError
from .ioutil import (
    JsonRecord,
    LogCorrupt,
    append_record,
    atomic_open,
    atomic_write_text,
    canonical_json,
    make_dirs,
    read_log,
    record_line,
    remove_file,
)
from .tokenizers import Tokenizer

log = logging.getLogger(__name__)

SCORE_BINS = 100
DEFAULT_TOKEN_BIN_EDGES = (0, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192)
MANIFEST_HEADER_PREFIX = "# corpus_fingerprint: "
MANIFEST_WINDOW = 4096      # keep manifest lines read, or ids written, at a time


class ShardUnreadable(WebsiftError):
    def __init__(self, shard: str, reason: str):
        super().__init__(f"shard {shard} unreadable: {reason}")
        self.shard = shard
        self.reason = reason


class CorpusMismatch(WebsiftError):
    def __init__(self, fingerprints: Sequence[str]):
        super().__init__(
            "keep manifests come from different corpora: "
            + ", ".join(sorted(set(fingerprints)))
        )
        self.fingerprints = list(fingerprints)


@dataclass
class BinCounts(JsonRecord):
    """Histogram over integer values with explicit out-of-range buckets."""

    edges: tuple[int, ...]
    counts: list[int]
    underflow: int = 0
    overflow: int = 0

    def __post_init__(self):
        edges = self.edges
        if len(edges) < 2 or any(a >= b for a, b in zip(edges, edges[1:])):
            raise ValueError("bin edges must be strictly increasing, length >= 2")
        if len(self.counts) != len(edges) - 1:
            raise ValueError(f"{len(edges)} bin edges need {len(edges) - 1} counts, "
                             f"got {len(self.counts)}")

    @staticmethod
    def empty(edges: Sequence[int]) -> "BinCounts":
        edges = tuple(edges)
        return BinCounts(edges=edges, counts=[0] * (len(edges) - 1))

    def add(self, value: int, count: int = 1) -> None:
        if value < self.edges[0]:
            self.underflow += count
        elif value >= self.edges[-1]:
            self.overflow += count
        else:
            self.counts[bisect.bisect_right(self.edges, value) - 1] += count

    def total(self) -> int:
        return sum(self.counts) + self.underflow + self.overflow

    def merge(self, other: "BinCounts") -> None:
        if self.edges != other.edges:
            raise ValueError("cannot merge histograms with different edges")
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        self.underflow += other.underflow
        self.overflow += other.overflow


@dataclass
class FilterStats(JsonRecord):
    """Aggregate counters for one scoring run.

    documents_total counts every input record, malformed ones included, so
    totals reconcile against raw line counts. Histogram mass covers exactly
    the scored documents (total minus malformed).
    """

    DERIVED = ("documents_rejected",)

    documents_total: int = 0
    documents_kept: int = 0
    records_malformed: int = 0
    tokens_total: int = 0
    tokens_kept: int = 0
    score_histogram: list[int] = field(default_factory=lambda: [0] * SCORE_BINS)
    token_length_histogram: BinCounts = field(
        default_factory=lambda: BinCounts.empty(DEFAULT_TOKEN_BIN_EDGES)
    )

    def __post_init__(self):
        if len(self.score_histogram) != SCORE_BINS:
            raise ValueError(f"score_histogram needs {SCORE_BINS} bins, "
                             f"got {len(self.score_histogram)}")

    @property
    def documents_rejected(self) -> int:
        return self.documents_total - self.records_malformed - self.documents_kept

    def observe(self, score: float, n_tokens: int, kept: bool) -> None:
        self.documents_total += 1
        self.tokens_total += n_tokens
        self.score_histogram[min(int(score * SCORE_BINS), SCORE_BINS - 1)] += 1
        self.token_length_histogram.add(n_tokens)
        if kept:
            self.documents_kept += 1
            self.tokens_kept += n_tokens

    def observe_malformed(self) -> None:
        self.documents_total += 1
        self.records_malformed += 1

    def merge(self, other: "FilterStats") -> None:
        self.documents_total += other.documents_total
        self.documents_kept += other.documents_kept
        self.records_malformed += other.records_malformed
        self.tokens_total += other.tokens_total
        self.tokens_kept += other.tokens_kept
        self.score_histogram = [
            a + b for a, b in zip(self.score_histogram, other.score_histogram)
        ]
        self.token_length_histogram.merge(other.token_length_histogram)


# ---------------------------------------------------------------------------
# scoring

def score_tokens(model: ClassifierModel, tokens: Sequence[str]) -> float:
    """Positive class probability for pre-tokenized text.

    Each call pays a whole chunk's fixed numpy cost (about 240 us against
    about 50 us per document batched); batch through score_documents.
    """
    return float(predict_tokens(model, tokens)[1])


def score_documents(
    model: ClassifierModel, threshold: float, docs: Iterable[Document], stats: FilterStats,
) -> Iterator[tuple[Document, float, bool, bool]]:
    """Each of docs with its score, whether it is kept and whether it has no
    feature row (it then scores exactly 0.5), tallied into stats as it is
    yielded. Documents are tokenized as a chunk of classifier.CHUNK_TOKENS
    tokens fills and scored a chunk at a time, by classifier.score_stream."""
    scored = score_stream(model, docs, operator.attrgetter("text"))
    for doc, n_tokens, score, no_features in scored:
        kept = score >= threshold
        stats.observe(score, n_tokens, kept)
        yield doc, score, kept, no_features


@dataclass
class _ShardResult:
    stats: FilterStats
    zero_feature: int
    malformed: list[str]     # MalformedRecord messages, in line order
    digest: str = ""         # the shard's shard_digest, set by the claiming process


@dataclass
class ScoreRun:
    stats: FilterStats
    corpus_fingerprint: str
    keep_manifest_path: str
    out_dir: str
    completed_shards: list[str]
    skipped_shards: list[str]            # completed in an earlier run, reused
    failed_shards: list[tuple[str, str]]
    zero_feature_docs: int               # scored this run with no feature row

    @property
    def partial(self) -> bool:
        return bool(self.failed_shards)


class WorkerDied(WebsiftError):
    def __init__(self, shard: Optional[str], exitcode: int):
        where = f" while scoring shard {shard}" if shard else ""
        super().__init__(f"scoring worker process died{where} (exit code {exitcode})")
        self.shard = shard
        self.exitcode = exitcode


def _output_paths(out_dir: str, name: str) -> tuple[str, str, str]:
    """A shard's kept and rejected streams and its sorted kept-id sidecar."""
    return (
        os.path.join(out_dir, "kept", name + ".scored.jsonl"),
        os.path.join(out_dir, "rejected", name + ".scored.jsonl"),
        os.path.join(out_dir, "ids", name + ".kept_ids"),
    )


def _read_kept_ids(path: str) -> list[str]:
    """A sidecar's ids. Ids hold no "\n" but may hold other line breaks
    that str.splitlines would split on."""
    with open(path, "r", encoding="utf-8", newline="") as f:
        return f.read().split("\n")[:-1]


def _read_shard(path: str, on_malformed: Callable[[str], None]) -> Iterator[Document]:
    """A shard's documents in line order, blank lines skipped. Each malformed
    record's message goes to on_malformed instead, as it is read. Reads
    through this module's iter_shard_lines and decode_record names, which
    perfbench traces."""
    name = shard_name(path)
    for line_no, raw in iter_shard_lines(path):
        if raw.isspace():
            continue
        try:
            doc = decode_record(raw, name, line_no)
        except MalformedRecord as e:
            on_malformed(str(e))
            continue
        yield doc


def _score_shard(model: ClassifierModel, threshold: float, path: str, out_dir: str) -> _ShardResult:
    """Score one shard through score_documents. Logs nothing: it may run in
    a worker process, so the caller logs the result's malformed records and
    zero-feature count."""
    stats = FilterStats()
    zero_feature = 0
    malformed: list[str] = []
    kept_ids: list[str] = []
    docs = _read_shard(path, malformed.append)
    kept_path, rejected_path, ids_path = _output_paths(out_dir, shard_name(path))
    with atomic_open(kept_path) as kf, atomic_open(rejected_path) as rf, \
            atomic_open(ids_path) as idf:
        scored = score_documents(model, threshold, docs, stats)
        for doc, score, kept, no_features in scored:
            zero_feature += no_features
            obj = doc.to_json_obj()
            obj["score"] = score
            obj["kept"] = kept
            (kf if kept else rf).write(encode_line(obj) + "\n")
            if kept:
                kept_ids.append(doc.id)
        kept_ids.sort()
        idf.writelines(doc_id + "\n" for doc_id in kept_ids)
    for _ in malformed:
        stats.observe_malformed()
    return _ShardResult(stats, zero_feature, malformed)


# A shard's outcome: its result, why it could not be read, or None when an
# earlier run's outputs are reused.
_Outcome = Union[_ShardResult, str, None]


_T = TypeVar("_T")


def _attempt(read_one: Callable[[str], _T], path: str) -> Union[_T, str]:
    """read_one(path), or why the shard could not be read."""
    try:
        return read_one(path)
    except SHARD_READ_ERRORS as e:
        return str(e)


def _record_unreadable(failed: list[tuple[str, str]], name: str, reason: str) -> None:
    failed.append((name, reason))
    log.error("%s", ShardUnreadable(name, reason))


def _send(fd: int, obj: object) -> None:
    """Write obj to a pipe as one length-prefixed pickle frame."""
    data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    frame = memoryview(len(data).to_bytes(4, "little") + data)
    while frame:
        frame = frame[os.write(fd, frame):]


def _score_pending(
    score_one: Callable[[str], Optional[_ShardResult]],
    shards: Sequence[str],
    workers: int,
    settle: Callable[[int, _Outcome], None],
    claims_dir: str,
) -> None:
    """Run score_one on every shard in min(workers, shards, CPUs this process
    may run on) processes.

    Each process claims the next shard index with a 4-byte os.read of one
    shared, unlinked claim file; Linux moves a shared offset atomically on
    each read (read(2), since 3.14), so each shard is claimed once and uneven
    shards balance. A forked worker sends (index,) down its pipe as it
    claims a shard, then (index, outcome). settle(index, outcome) runs here,
    in index order, as each prefix of the shard list completes.
    """
    outcomes: dict[int, _Outcome] = {}
    forked: dict[int, list] = {}    # pipe fd -> [pid, unread bytes, claimed undelivered index]
    poller = select.poll()
    settled = 0

    def collect(timeout: Optional[int]) -> None:
        nonlocal settled
        for fd, _ in poller.poll(timeout):
            pid, buf, lost = worker = forked[fd]
            if not (data := os.read(fd, 1 << 16)):     # the worker has exited
                del forked[fd]
                poller.unregister(fd)
                os.close(fd)
                if exitcode := os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]):
                    raise WorkerDied(None if lost is None else shard_name(shards[lost]), exitcode)
                continue
            buf += data
            while len(buf) >= 4 and len(buf) >= 4 + (size := int.from_bytes(buf[:4], "little")):
                i, *outcome = pickle.loads(buf[4:4 + size])  # (index,) is a claim
                del buf[:4 + size]
                worker[2] = None if outcome else i
                if outcome:
                    outcomes[i] = outcome[0]
        while settled in outcomes:
            settle(settled, outcomes.pop(settled))
            settled += 1

    with tempfile.TemporaryFile(dir=claims_dir) as claims:
        claims.write(b"".join(i.to_bytes(4, "little") for i in range(len(shards))))
        claims.seek(0)      # flushes the indices and rewinds the shared offset

        def claimed() -> Iterator[int]:
            while raw := os.read(claims.fileno(), 4):
                yield int.from_bytes(raw, "little")

        try:
            for _ in range(min(workers, len(shards), len(os.sched_getaffinity(0))) - 1):
                reader, writer = os.pipe()
                if (pid := os.fork()) == 0:
                    try:
                        os.close(reader)
                        for i in claimed():
                            _send(writer, (i,))
                            _send(writer, (i, _attempt(score_one, shards[i])))
                        os._exit(0)
                    except BaseException:
                        os.write(2, traceback.format_exc().encode())
                    finally:    # a worker never returns into the caller's frames
                        os._exit(1)
                os.close(writer)
                forked[reader] = [pid, bytearray(), None]
                poller.register(reader, select.POLLIN)
            for i in claimed():
                outcomes[i] = _attempt(score_one, shards[i])
                collect(0)
            while forked:
                collect(None)
        finally:
            for fd, (pid, _, _) in forked.items():
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                os.close(fd)


@dataclass
class _LedgerEntry(JsonRecord):
    """One ledger line: a completed shard, its content digest and its stats."""

    shard: str
    digest: str
    stats: FilterStats


def _load_ledger(path: str) -> dict[str, _LedgerEntry]:
    """Completed-shard records keyed by shard name; last entry wins.

    A torn final entry is truncated away. A ledger damaged before its final
    line is removed, so every shard is rescored; scoring is deterministic,
    so the outputs come out the same.
    """
    try:
        entries = read_log(path, _LedgerEntry.from_json_obj, heal=True)
    except FileNotFoundError:
        return {}
    except LogCorrupt as e:
        log.warning("%s; removing the ledger and rescoring every shard", e)
        remove_file(path)
        return {}
    return {entry.shard: entry for entry in entries}


@dataclass
class _ScoringSetup(JsonRecord):
    """What a ledger's shards were scored with: the threshold and the SHA-256
    of the model's file (model_sha256). A resume reuses them only under the
    same setup."""

    threshold: float
    model_sha256: str


def score_corpus(
    model: ClassifierModel,
    shards: Sequence[str],
    threshold: float,
    tokenizer: Tokenizer,
    out_dir: str,
    workers: int = 1,
    resume: bool = False,
) -> ScoreRun:
    """Score a sharded corpus into kept/ and rejected/ under out_dir.

    With resume=True, shards recorded in the ledger with an unchanged content
    digest and all their output files are reused instead of rescored, provided
    setup.json names this threshold and model (otherwise every shard is
    rescored, with one warning); when a resume rescores a shard that the
    ledger named, the ledger is rewritten to one entry per completed shard,
    as a clean run leaves it. Every input document lands in exactly one
    output stream, in its shard's input order.

    Shards are claimed by min(workers, shards, CPUs this process may run on)
    processes: this one and forked workers, which share the model and ledger
    copy-on-write and claim shards from a claim file in out_dir; one process
    forks nothing. The claiming process hashes a shard and decides its
    reuse, so no shard is read before scoring starts. Forking is only safe
    while no other thread of the caller holds a lock. No ledger, log or
    output byte depends on the count.

    Raises TokenizerMismatch unless tokenizer is the one the model was
    trained with. Documents are tokenized with the model's tokenizer.
    """
    check_tokenizer(model, tokenizer)
    if not shards:
        raise ValueError("no shards to score")
    if not (0.0 <= threshold <= 1.0):
        raise ValueError("threshold must be in [0, 1]")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    names = [shard_name(p) for p in shards]
    if len(set(names)) != len(names):
        raise ValueError("shard basenames must be unique within a corpus")

    for sub in ("kept", "rejected", "ids"):
        make_dirs(os.path.join(out_dir, sub))
    ledger_path = os.path.join(out_dir, "ledger.jsonl")
    setup_path = os.path.join(out_dir, "setup.json")
    setup = _ScoringSetup(threshold, model_sha256(model))
    try:
        same_setup = _ScoringSetup.from_file(setup_path) == setup
    except (OSError, ValueError):
        same_setup = False
    if resume and not same_setup and os.path.exists(ledger_path):
        log.warning("%s is missing or names another threshold or model; "
                    "rescoring every shard", setup_path)
    if not (resume and same_setup):     # the removal is durable before the new setup
        remove_file(ledger_path)
    ledger = _load_ledger(ledger_path)
    if not same_setup:
        atomic_write_text(setup_path, canonical_json(setup.to_json_obj()) + "\n")

    def claim(path: str) -> Optional[_ShardResult]:
        """Score a shard, or None to reuse the ledger's entry for its digest."""
        name = shard_name(path)
        digest = shard_digest(path)
        prior = ledger.get(name)
        if prior and prior.digest == digest and all(map(os.path.exists, _output_paths(out_dir, name))):
            return None
        result = _score_shard(model, threshold, path, out_dir)
        result.digest = digest
        return result

    completed: list[str] = []
    skipped: list[str] = []
    failed: list[tuple[str, str]] = []
    zero_feature = 0
    superseded = False      # this run rescored a shard the ledger already named

    def settle(index: int, outcome: _Outcome) -> None:
        nonlocal zero_feature, superseded
        name = names[index]
        if isinstance(outcome, str):
            _record_unreadable(failed, name, outcome)
            return
        completed.append(name)
        if outcome is None:
            skipped.append(name)
            return
        for message in outcome.malformed:
            log.warning("skipping malformed record %s", message)
        if outcome.zero_feature:
            log.info("shard %s: %d documents had no tokens in the vocabulary and no "
                     "n-gram, scored 0.5", name, outcome.zero_feature)
        zero_feature += outcome.zero_feature
        entry = _LedgerEntry(name, outcome.digest, outcome.stats)
        append_record(ledger_path, entry.to_json_obj())
        superseded |= name in ledger
        ledger[name] = entry

    _score_pending(claim, shards, workers, settle, out_dir)

    stats = FilterStats()
    for name in completed:
        stats.merge(ledger[name].stats)
    if superseded:      # compact to one entry per shard, as a clean run writes
        with atomic_open(ledger_path) as f:
            f.writelines(record_line(ledger[name].to_json_obj()) + "\n" for name in completed)

    fingerprint = corpus_fingerprint(ledger[n].digest for n in completed)
    manifest_path = os.path.join(out_dir, "keep_manifest.txt")
    # each sidecar is read whole and closed, so no file stays open per shard;
    # sorting the concatenated sorted lists is faster in Python than merging them
    kept_ids = sorted(chain.from_iterable(
        _read_kept_ids(_output_paths(out_dir, n)[2]) for n in completed))
    if write_keep_manifest(manifest_path, fingerprint, kept_ids):
        log.warning("duplicate document ids in kept stream; manifest keeps duplicates")

    return ScoreRun(
        stats=stats,
        corpus_fingerprint=fingerprint,
        keep_manifest_path=manifest_path,
        out_dir=out_dir,
        completed_shards=completed,
        skipped_shards=skipped,
        failed_shards=failed,
        zero_feature_docs=zero_feature,
    )


# ---------------------------------------------------------------------------
# keep manifests

def write_keep_manifest(path: str, fingerprint: str, sorted_ids: Iterable[str]) -> int:
    """Stream ascending ids into a keep manifest under the corpus fingerprint
    header. Returns how many ids equal the one before them (duplicates).
    An id that sorts before the one before it raises ValueError and leaves
    path as it was, so no manifest is written that intersect would refuse."""
    duplicates = 0
    previous = None
    ids = iter(sorted_ids)
    with atomic_open(path) as f:
        f.write(MANIFEST_HEADER_PREFIX + fingerprint + "\n")
        while chunk := list(islice(ids, MANIFEST_WINDOW)):
            if _descends(previous, chunk):
                raise ValueError(f"{path}: keep manifest ids must be written in ascending order")
            duplicates += sum(map(operator.eq, [previous, *chunk], chunk))
            f.write("\n".join(chunk) + "\n")
            previous = chunk[-1]
    return duplicates


def _descends(previous: Optional[str], ids: list[str]) -> bool:
    """Whether non-empty ids, following previous (None at the start), break
    ascending order."""
    return (previous is not None and previous > ids[0]) or any(map(operator.gt, ids, ids[1:]))


def _open_manifest(path: str, stack: ExitStack) -> tuple[str, Iterator[list[str]]]:
    """Open a keep manifest on stack and check its header. Returns its
    fingerprint and its ids as ascending, non-empty windows read
    MANIFEST_WINDOW lines at a time, blank lines skipped; the windows raise
    ValueError at an id that sorts before the one before it."""
    f = stack.enter_context(open(path, "r", encoding="utf-8"))
    header = f.readline().rstrip("\n")
    if not header.startswith(MANIFEST_HEADER_PREFIX):
        raise ValueError(f"{path}: missing corpus fingerprint header")

    def windows() -> Iterator[list[str]]:
        previous = None
        while lines := list(islice(f, MANIFEST_WINDOW)):
            window = [line.rstrip("\n") for line in lines if not line.isspace()]
            del lines       # hold one copy of the window while it is merged
            if window:
                if _descends(previous, window):
                    raise ValueError(f"{path}: keep manifest ids are not in ascending order")
                previous = window[-1]
                yield window

    return header[len(MANIFEST_HEADER_PREFIX):], windows()


def read_keep_manifest(path: str) -> tuple[str, list[str]]:
    """A keep manifest's fingerprint and all its ids, ascending."""
    with ExitStack() as stack:
        fingerprint, windows = _open_manifest(path, stack)
        return fingerprint, list(chain.from_iterable(windows))


def _common_ids(streams: Sequence[Iterator[list[str]]]) -> Iterator[str]:
    """The ids that every stream holds, ascending and each once. A stream
    yields its ids in ascending, non-empty windows.

    Each round settles every id up to the smallest window tail (the bound)
    at once: one set intersection of the other streams' settled ids filters
    the first stream's, which are already in order, and dict.fromkeys drops
    repeats. The rest of each window carries to the next round, so memory
    is one window per stream. An id read later than its round can only
    equal that round's bound, and is dropped. Once one stream ends nothing
    more is common, but the others are still read to their ends, so a
    manifest out of order is refused wherever it is."""
    pending: list[list[str]] = [[] for _ in streams]
    bound = None
    while True:
        for i, stream in enumerate(streams):
            if not pending[i]:
                pending[i] = next(stream, [])
                if not pending[i]:
                    for _ in chain.from_iterable(streams):
                        pass
                    return
        settled_before, bound = bound, min(window[-1] for window in pending)
        cuts = [bisect.bisect_right(window, bound) for window in pending]
        first, *others = [window[:cut] for window, cut in zip(pending, cuts)]
        common = set(others[0]).intersection(*others[1:])
        settled = dict.fromkeys(filter(common.__contains__, first))
        settled.pop(settled_before, None)
        yield from settled
        pending = [window[cut:] for window, cut in zip(pending, cuts)]


def _windows(ids: list[str]) -> Iterator[list[str]]:
    return (ids[i:i + MANIFEST_WINDOW] for i in range(0, len(ids), MANIFEST_WINDOW))


def intersect_ids(id_sets: Sequence[set[str]]) -> list[str]:
    """The ids in every set, ascending: each set is sorted and the sorted
    lists merged as intersect merges manifests."""
    if len(id_sets) < 2:
        raise ValueError("intersect needs at least two keep manifests")
    return list(_common_ids([_windows(sorted(s)) for s in id_sets]))


@contextmanager
def open_intersection(manifest_paths: Sequence[str]) -> Iterator[tuple[str, Iterator[str]]]:
    """Open keep manifests of one corpus and yield their fingerprint and an
    iterator over the ids in every one, ascending and each once.

    The iterator streams a merge of the manifests, so memory is one window
    of MANIFEST_WINDOW lines per manifest whatever the corpus size. It
    raises ValueError, naming the file, at a manifest whose ids are out of
    order. Fingerprints that differ raise CorpusMismatch before any id is
    read."""
    if len(manifest_paths) < 2:
        raise ValueError("intersect needs at least two keep manifests")
    with ExitStack() as stack:
        opened = [_open_manifest(p, stack) for p in manifest_paths]
        fingerprints = [fp for fp, _ in opened]
        if len(set(fingerprints)) != 1:
            raise CorpusMismatch(fingerprints)
        yield fingerprints[0], _common_ids([windows for _, windows in opened])


def intersect(manifest_paths: Sequence[str]) -> tuple[str, list[str]]:
    """Intersect keep manifests of the same corpus: their fingerprint and
    the common ids, ascending and each once, collected from
    open_intersection's stream."""
    with open_intersection(manifest_paths) as (fingerprint, ids):
        return fingerprint, list(ids)


# ---------------------------------------------------------------------------
# token length statistics

@dataclass
class TokenLengthStats(JsonRecord):
    histogram: BinCounts
    documents: int
    tokens_total: int
    mean: float
    p50: int
    p90: int
    p99: int
    records_malformed: int
    failed_shards: list[tuple[str, str]]

    @property
    def partial(self) -> bool:
        return bool(self.failed_shards)


def _nearest_rank(length_counts: Counter[int], q: float) -> int:
    """Classic nearest-rank quantile: smallest value covering fraction q."""
    rank = max(1, math.ceil(q * length_counts.total()))
    covered = 0
    for value in sorted(length_counts):
        covered += length_counts[value]
        if covered >= rank:
            return value
    return 0


def token_length_histogram(shards: Sequence[str], tokenizer: Tokenizer) -> TokenLengthStats:
    """Token count distribution across a corpus.

    The mean is exact (integer accumulation); quantiles are nearest-rank over
    the exact per-document counts, kept as a count per distinct length so
    memory grows with the longest document, not the corpus. Every document
    of a readable shard is counted in exactly one bucket, out-of-range
    lengths in underflow/overflow. A shard that fails part way counts
    nothing and is listed in failed_shards, as score_corpus drops it.
    """
    length_counts: Counter[int] = Counter()
    malformed = shard_malformed = 0
    failed: list[tuple[str, str]] = []

    def skip(message: str) -> None:
        nonlocal shard_malformed
        shard_malformed += 1
        log.warning("skipping malformed record %s", message)

    def lengths(path: str) -> Counter[int]:
        return Counter(tokenizer.token_count(doc.text) for doc in _read_shard(path, skip))

    for path in shards:
        shard_malformed = 0
        outcome = _attempt(lengths, path)
        if isinstance(outcome, str):
            _record_unreadable(failed, shard_name(path), outcome)
            continue
        length_counts.update(outcome)
        malformed += shard_malformed
    hist = BinCounts.empty(DEFAULT_TOKEN_BIN_EDGES)
    for n, count in length_counts.items():
        hist.add(n, count)
    n_docs = length_counts.total()
    tokens_total = sum(n * c for n, c in length_counts.items())
    mean = tokens_total / n_docs if n_docs else 0.0
    return TokenLengthStats(
        histogram=hist,
        documents=n_docs,
        tokens_total=tokens_total,
        mean=mean,
        p50=_nearest_rank(length_counts, 0.50),
        p90=_nearest_rank(length_counts, 0.90),
        p99=_nearest_rank(length_counts, 0.99),
        records_malformed=malformed,
        failed_shards=failed,
    )
