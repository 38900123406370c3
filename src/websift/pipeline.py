"""Multi-round selection pipeline with a crash-safe journal.

A run lives in its own directory. Every state transition appends one
checksummed JSON line to journal.jsonl, and artifacts are written (and
fsynced) before the entry that references them, so the journal never points
at bytes that are not on disk; new run and round directories are fsynced
into their parent too. Re-running a step after a crash regenerates
identical artifacts because every stage is seeded and deterministic; resume
therefore converges to the same run regardless of where execution stopped.

The transition rules live in one table, _TRANSITIONS: each entry type with
the status it arrives in, the status it leaves and the verdict it records.
_apply folds an entry by it; _fold replays the journal through _apply, and
a step records its result with _commit, which appends the entry and applies
the same entry to the live state, so the state a write operation returns is
the state a replay rebuilds. run_round and ingest_report each read the
journal once (healing a torn tail), fold it and verify every journaled
artifact before they act. A step only sequences work: the seed pool builds
its own versions, and the eval report is its own JSON record.

Round flow: assemble a balanced training set from the seed pool, train a
classifier, score a fixed-size sample of the raw pool, emit an annealing
verification plan for the kept subset, then wait for benchmark results.
The sample is scored as corpus shards are, by filtering.score_documents,
and its scores stream to disk. An improved verdict before the round limit
folds the kept and rejected sample documents back into the pool as fresh
categories in the next pool version, for the next round; an improved
verdict at the limit promotes the classifier; anything else rejects the run.

Paths inside the config (pool, raw shards, default manifest) may be
relative; they resolve against the working directory, which keeps a run
directory plus its pool relocatable as a unit.
"""

from __future__ import annotations

import fcntl
import json
import logging
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import seedpool
from .classifier import (
    ClassifierConfig,
    load_labeled_examples,
    save_model,
    train,
)
from .documents import Document, expand_shards, iter_documents
from .errors import WebsiftError
# score_tokens is not called here; perfbench's tracer wraps
# pipeline.score_tokens by name, so the name stays importable.
from .filtering import FilterStats, score_documents, score_tokens  # noqa: F401
from .ioutil import (
    JsonRecord,
    LogCorrupt,
    append_line,
    canonical_json,
    make_dirs,
    read_log,
    sha256_file,
    sha256_text,
    write_lines,
)
from .seedpool import SeedPoolStore, assemble_training_set, write_training_set
from .tokenizers import TokenizerSpec, load_tokenizer
from .verify import (
    AnnealSettings,
    EvalScores,
    ManifestShard,
    MetricGrouping,
    TokenManifest,
    build_anneal_plan,
    eval_report,
)

log = logging.getLogger(__name__)

AWAITING_TRAINING_SET = "awaiting_training_set"
AWAITING_CLASSIFIER = "awaiting_classifier"
AWAITING_VERIFICATION = "awaiting_verification"
VERDICT_READY = "verdict_ready"
PROMOTED = "promoted"
REJECTED = "rejected"

TERMINAL = (PROMOTED, REJECTED)

JOURNAL_NAME = "journal.jsonl"
LOCK_NAME = "lock"


class JournalUnreadable(WebsiftError):
    pass


class StateCorrupt(WebsiftError):
    pass


class RunLocked(WebsiftError):
    pass


class NotReady(WebsiftError):
    pass


class RoundFailed(WebsiftError):
    """A round step failed; the original error is chained as __cause__."""

    def __init__(self, round_no: int, cause: Exception):
        super().__init__(f"round {round_no}: {cause}")
        self.round = round_no


# ---------------------------------------------------------------------------
# configuration

@dataclass(frozen=True)
class VerifySettings(AnnealSettings):
    """Each round's anneal settings and the default corpus its kept sample
    is mixed into."""

    default_manifest: str = field(kw_only=True)


@dataclass(frozen=True)
class PipelineConfig(JsonRecord):
    pool_dir: str
    raw_shards: tuple[str, ...]      # paths or globs
    sample_size: int
    verify: VerifySettings
    max_rounds: int = 2
    target_training_set: int = 600_000
    balance: float = 0.5
    threshold: float = 0.5
    seed: int = 17
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)
    tokenizer: TokenizerSpec = field(default_factory=TokenizerSpec)

    def __post_init__(self):
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if self.sample_size < 1:
            raise ValueError("sample_size must be >= 1")
        if not (0.0 <= self.threshold <= 1.0):
            raise ValueError("threshold must be in [0, 1]")
        seedpool.check_training_set_settings(self.target_training_set, self.balance)


# ---------------------------------------------------------------------------
# run state

@dataclass
class RoundState:
    round: int
    pool_version: int
    training_set: Optional[dict] = None
    classifier: Optional[dict] = None
    report: Optional[dict] = None
    verdict: Optional[str] = None


@dataclass
class RunState:
    run_id: str
    config: PipelineConfig
    status: str
    round: int
    pool_version: int
    rounds: dict[int, RoundState]
    next_seq: int = 1  # seq of the next journal entry: the count folded so far


# ---------------------------------------------------------------------------
# journal

def _journal_path(run_dir: str) -> str:
    return os.path.join(run_dir, JOURNAL_NAME)


def _entry_line(seq: int, kind: str, round_no: int, data: dict) -> str:
    entry = {"seq": seq, "type": kind, "round": round_no, "data": data}
    return canonical_json({"entry": entry, "check": sha256_text(canonical_json(entry))})


def _parse_entry(raw: bytes) -> dict:
    obj = json.loads(raw)
    entry = obj["entry"]
    if sha256_text(canonical_json(entry)) != obj["check"]:
        raise ValueError("checksum mismatch")
    return entry


def read_journal(run_dir: str, heal: bool = False) -> list[dict]:
    """Validated journal entries, none if a crash tore the first one.

    A torn final line is dropped; with heal=True it is also truncated away.
    Write paths heal before they append: an entry appended after an
    unterminated fragment would merge with it into one unreadable line that
    is no longer the tail. Any other malformed line is StateCorrupt.
    """
    try:
        entries = read_log(_journal_path(run_dir), _parse_entry, heal=heal)
    except LogCorrupt as e:
        raise StateCorrupt(f"journal damaged: {e}") from e
    except OSError as e:
        raise JournalUnreadable(f"cannot read journal: {e}") from e
    for i, entry in enumerate(entries):
        if entry["seq"] != i:
            raise StateCorrupt(f"journal entry {i} has seq {entry['seq']}")
    return entries


def _append_entry(run_dir: str, seq: int, kind: str, round_no: int, data: dict) -> None:
    append_line(_journal_path(run_dir), _entry_line(seq, kind, round_no, data))


def _fold(entries: list[dict]) -> RunState:
    if not entries:
        raise JournalUnreadable("journal holds no valid entries")
    first = entries[0]
    if first["type"] != "init":
        raise StateCorrupt("journal does not start with an init entry")
    try:
        config = PipelineConfig.from_json_obj(first["data"]["config"])
    except ValueError as e:
        raise JournalUnreadable(
            f"another websift build wrote this journal with run settings this build "
            f"refuses ({e}); start the run again in a new directory") from e
    state = RunState(
        run_id=first["data"]["run_id"],
        config=config,
        status=AWAITING_TRAINING_SET,
        round=1,
        pool_version=first["data"]["pool_version"],
        rounds={1: RoundState(round=1, pool_version=first["data"]["pool_version"])},
    )
    for entry in entries[1:]:
        _apply(state, entry)
    return state


# entry type -> (status it arrives in, status it leaves, verdict it records);
# an entry with no verdict is a step's result, kept in the RoundState field of its name
_TRANSITIONS = {
    "training_set": (AWAITING_TRAINING_SET, AWAITING_CLASSIFIER, None),
    "classifier": (AWAITING_CLASSIFIER, AWAITING_VERIFICATION, None),
    "report": (AWAITING_VERIFICATION, VERDICT_READY, None),
    "advance": (VERDICT_READY, AWAITING_TRAINING_SET, "improved"),
    "promoted": (VERDICT_READY, PROMOTED, "improved"),
    "rejected": (VERDICT_READY, REJECTED, "not_improved"),
}


def _apply(state: RunState, entry: dict) -> None:
    """Fold one post-init entry into state: the run's only transition rules."""
    kind, round_no, data = entry["type"], entry["round"], entry["data"]
    rs = state.rounds.get(round_no)
    if rs is None or round_no != state.round:
        raise StateCorrupt(f"entry for round {round_no} while in round {state.round}")
    if kind not in _TRANSITIONS:
        raise StateCorrupt(f"unknown journal entry type {kind!r}")
    arrives, leaves, verdict = _TRANSITIONS[kind]
    if state.status != arrives:
        raise StateCorrupt(
            f"entry {kind!r} arrived in status {state.status!r}, expected {arrives!r}"
        )
    if verdict is None:
        setattr(rs, kind, data)
    else:
        rs.verdict = verdict
    if kind == "advance":
        state.pool_version = data["next_pool_version"]
        state.round += 1
        state.rounds[state.round] = RoundState(round=state.round, pool_version=state.pool_version)
    state.status = leaves
    state.next_seq += 1


def _commit(run_dir: str, state: RunState, kind: str, data: dict) -> None:
    """Append an entry for the current round, then fold it into state."""
    entry = {"seq": state.next_seq, "type": kind, "round": state.round, "data": data}
    _append_entry(run_dir, entry["seq"], kind, entry["round"], data)
    _apply(state, entry)


# ---------------------------------------------------------------------------
# locking

class _RunLock:
    """An exclusive flock on the run's lock file. The kernel releases it when
    its holder dies, so a crashed writer leaves no run locked."""

    def __init__(self, run_dir: str):
        self.path = os.path.join(run_dir, LOCK_NAME)

    def __enter__(self) -> "_RunLock":
        self.fd = os.open(self.path, os.O_CREAT | os.O_RDWR)
        try:
            fcntl.flock(self.fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            # a holder unlinks the file before it unlocks; a lock on that
            # unlinked inode would exclude no one
            held = os.fstat(self.fd).st_ino == os.stat(self.path).st_ino
        except (BlockingIOError, FileNotFoundError):
            held = False
        if not held:
            os.close(self.fd)
            raise RunLocked("run is locked by another writer")
        return self

    def __exit__(self, *exc) -> None:
        os.remove(self.path)
        os.close(self.fd)


# ---------------------------------------------------------------------------
# artifact helpers

def _artifact(run_dir: str, round_no: int, name: str) -> tuple[str, str]:
    """(absolute path, journal-relative path), making the round directory."""
    rel = os.path.join("rounds", str(round_no), name)
    path = os.path.join(run_dir, rel)
    make_dirs(os.path.dirname(path))
    return path, rel


def _verify_artifact(run_dir: str, rel_path: str, expected: str) -> None:
    path = os.path.join(run_dir, rel_path)
    if not os.path.exists(path):
        raise StateCorrupt(f"journaled artifact missing: {rel_path}")
    actual = sha256_file(path)
    if actual != expected:
        raise StateCorrupt(
            f"artifact fingerprint mismatch for {rel_path}: "
            f"journal says {expected[:12]}, file is {actual[:12]}"
        )


def _derived_seed(seed: int, round_no: int, purpose: str) -> int:
    digest = sha256_text(f"{seed}/{round_no}/{purpose}")
    return int(digest[:16], 16)


# ---------------------------------------------------------------------------
# public operations

def init_run(run_dir: str, config: PipelineConfig) -> RunState:
    make_dirs(run_dir)
    if os.path.exists(_journal_path(run_dir)):
        if read_journal(run_dir):
            raise WebsiftError(f"run directory {run_dir} is already initialized")
        # A crash while writing the very first entry leaves a journal
        # holding no state; discard it so the run can start over.
        log.warning("discarding journal with no valid entries in %s", run_dir)
        os.remove(_journal_path(run_dir))
    store = SeedPoolStore(config.pool_dir)
    pool_version = store.latest_version()
    if pool_version is None:
        raise WebsiftError(f"seed pool {config.pool_dir} has no manifests")
    run_id = sha256_text(canonical_json(config.to_json_obj()) + f"@{pool_version}")[:12]
    with _RunLock(run_dir):
        _append_entry(
            run_dir,
            0,
            "init",
            0,
            {
                "run_id": run_id,
                "config": config.to_json_obj(),
                "pool_version": pool_version,
            },
        )
    return resume(run_dir)


def resume(run_dir: str) -> RunState:
    """Rebuild state from the journal and verify every referenced artifact.

    Read-only; `websift pipeline resume` runs this full check.
    """
    return _replay(run_dir)


def _replay(run_dir: str, heal: bool = False) -> RunState:
    """Fold the journal, truncating a torn tail when heal, and check every
    journaled artifact against its fingerprint (StateCorrupt otherwise)."""
    state = _fold(read_journal(run_dir, heal=heal))
    for rs in state.rounds.values():
        for block in (rs.training_set, rs.classifier, rs.report):
            if not block:
                continue
            for key, value in block.items():
                if key.endswith("_path"):
                    _verify_artifact(run_dir, value, block[key[:-5] + "_sha256"])
    return state


def run_status(run_dir: str) -> dict:
    """Lightweight view for the status subcommand; no artifact checks."""
    return status_view(_fold(read_journal(run_dir)))


def status_view(state: RunState) -> dict:
    """The status the CLI prints for a run state."""
    rs = state.rounds[state.round]
    return {
        "run_id": state.run_id,
        "status": state.status,
        "round": state.round,
        "max_rounds": state.config.max_rounds,
        "pool_version": state.pool_version,
        "artifacts": {
            "training_set": bool(rs.training_set),
            "classifier": bool(rs.classifier),
            "report": bool(rs.report),
        },
    }


def run_round(run_dir: str) -> RunState:
    """Advance until the run waits on verification or reaches a terminal state.

    Reads and verifies the run once, then commits each step through the fold;
    the returned state equals what resume(run_dir) rebuilds.
    """
    with _RunLock(run_dir):
        state = _replay(run_dir, heal=True)
        if state.status == AWAITING_VERIFICATION:
            raise NotReady("awaiting verification results; ingest an eval report")
        if state.status in TERMINAL:
            raise NotReady(f"run is terminal ({state.status})")
        while state.status in _STEPS:
            try:
                _STEPS[state.status](run_dir, state)
            except (RoundFailed, StateCorrupt):
                raise
            except WebsiftError as e:
                raise RoundFailed(state.round, e) from e
        return state


def ingest_report(
    run_dir: str,
    baseline: EvalScores,
    candidate: EvalScores,
    grouping: Optional[MetricGrouping] = None,
    margin: float = 0.1,
) -> RunState:
    """Record the eval report of the round awaiting verification.

    Reads and verifies the run once, writes eval_report.json and commits the
    report entry; the returned state equals what resume(run_dir) rebuilds.
    """
    with _RunLock(run_dir):
        state = _replay(run_dir, heal=True)
        if state.status != AWAITING_VERIFICATION:
            raise NotReady(f"cannot ingest a report in status {state.status!r}")
        report = eval_report(baseline, candidate, grouping=grouping, margin=margin)
        path, rel = _artifact(run_dir, state.round, "eval_report.json")
        digest = write_lines(path, [canonical_json(report.to_json_obj())])
        _commit(run_dir, state, "report", {
            "report_path": rel,
            "report_sha256": digest,
            "verdicts": report.verdicts,
            "improved": report.improved_everywhere,
        })
    return state


# ---------------------------------------------------------------------------
# round steps (called with the lock held)

def _do_training_set(run_dir: str, state: RunState) -> None:
    config = state.config
    store = SeedPoolStore(config.pool_dir)
    examples = assemble_training_set(
        store,
        target_size=config.target_training_set,
        balance=config.balance,
        seed=_derived_seed(config.seed, state.round, "assemble"),
        version=state.pool_version,
    )
    path, rel = _artifact(run_dir, state.round, "training_set")
    digest = write_training_set(path, examples, fmt="jsonl")
    positives = sum(1 for ex in examples if ex.label == seedpool.POSITIVE)
    _commit(run_dir, state, "training_set", {
        "training_set_path": rel,
        "training_set_sha256": digest,
        "examples": len(examples),
        "positives": positives,
        "negatives": len(examples) - positives,
        "pool_version": state.pool_version,
    })


def _reservoir_sample(config: PipelineConfig, round_no: int) -> list[Document]:
    rng = np.random.default_rng(_derived_seed(config.seed, round_no, "sample"))
    k = config.sample_size
    docs = (doc for path in expand_shards(config.raw_shards)
            for doc in iter_documents(path, strict=False))
    reservoir: list[tuple[int, Document]] = []
    for i, doc in enumerate(docs):
        if i < k:
            reservoir.append((i, doc))
        else:
            j = int(rng.integers(0, i + 1))
            if j < k:
                reservoir[j] = (i, doc)
    reservoir.sort(key=lambda pair: pair[0])
    return [doc for _, doc in reservoir]


def _do_classifier(run_dir: str, state: RunState) -> None:
    config = state.config
    tokenizer = load_tokenizer(config.tokenizer)
    examples = load_labeled_examples(
        os.path.join(run_dir, state.rounds[state.round].training_set["training_set_path"])
    )
    model = train(examples, config.classifier, tokenizer)
    for epoch, loss in enumerate(model.epoch_losses, start=1):
        log.info("round %d epoch %d mean loss %.6f", state.round, epoch, loss)
    model_path, model_rel = _artifact(run_dir, state.round, "model.ufwc")
    model_sha256 = save_model(model, model_path)

    sample = _reservoir_sample(config, state.round)
    if not sample:
        raise WebsiftError("raw pool produced no sample documents")
    stats = FilterStats()
    scores_path, scores_rel = _artifact(run_dir, state.round, "sample_scores")
    scores_sha256 = write_lines(scores_path, (
        canonical_json({"id": doc.id, "text": doc.text, "score": score, "kept": kept})
        for doc, score, kept, _ in score_documents(model, config.threshold, sample, stats)
    ))
    if stats.tokens_kept == 0:
        raise WebsiftError("no sample document cleared the threshold; nothing to verify")

    candidate = TokenManifest(
        name=f"{state.run_id}/round{state.round}/kept_sample",
        shards=(ManifestShard(id="kept_sample", tokens=stats.tokens_kept),),
    )
    default = TokenManifest.from_file(config.verify.default_manifest)
    plan = build_anneal_plan(
        candidate, default, config.verify, _derived_seed(config.seed, state.round, "mixture")
    )
    plan_path, plan_rel = _artifact(run_dir, state.round, "anneal_plan.json")
    plan_sha256 = write_lines(plan_path, [canonical_json(plan.to_json_obj())])

    _commit(run_dir, state, "classifier", {
        "model_path": model_rel,
        "model_sha256": model_sha256,
        "sample_scores_path": scores_rel,
        "sample_scores_sha256": scores_sha256,
        "anneal_plan_path": plan_rel,
        "anneal_plan_sha256": plan_sha256,
        "sample_total": stats.documents_total,
        "sample_kept": stats.documents_kept,
        "sample_rejected": stats.documents_rejected,
    })


def _do_verdict(run_dir: str, state: RunState) -> None:
    config = state.config
    rs = state.rounds[state.round]
    if not rs.report["improved"]:
        _commit(run_dir, state, "rejected", {"verdicts": rs.report["verdicts"]})
        return
    if state.round >= config.max_rounds:
        _commit(run_dir, state, "promoted", {"classifier_round": state.round})
        return

    # Improved with rounds to spare: fold the scored sample back into the
    # pool as inferred categories and start the next round from them.
    scores_path = os.path.join(run_dir, rs.classifier["sample_scores_path"])
    sample: dict[bool, list[Document]] = {True: [], False: []}     # by whether kept
    with open(scores_path, "r", encoding="utf-8") as f:    # hash-verified: every line is a record
        for obj in map(json.loads, f):
            sample[obj["kept"]].append(Document(id=obj["id"], text=obj["text"]))

    store = SeedPoolStore(config.pool_dir)
    manifest = store.load_manifest(state.pool_version)
    new_categories = []
    for kept, polarity, kind in ((True, seedpool.POSITIVE, "kept"),
                                 (False, seedpool.NEGATIVE, "rejected")):
        if not sample[kept]:
            log.info("round %d produced no %s sample documents to fold", state.round, polarity)
            continue
        new_categories.append(store.put_category(
            f"round{state.round}_{kind}", polarity,
            f"pipeline:{state.run_id}:round{state.round}", sample[kept]))
    next_manifest = store.commit_child(manifest, manifest.categories + tuple(new_categories))
    _commit(run_dir, state, "advance", {
        "next_pool_version": next_manifest.version,
        "added_categories": [c.name for c in new_categories],
    })


# status -> the step run_round takes in it
_STEPS = {AWAITING_TRAINING_SET: _do_training_set, AWAITING_CLASSIFIER: _do_classifier,
          VERDICT_READY: _do_verdict}
