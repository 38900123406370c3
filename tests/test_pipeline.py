"""Journaled multi-round runner: happy paths, crash recovery, corruption.

The recovery oracle is byte equality. A run that crashes at any journal
append and then resumes must finish with exactly the journal bytes of a
run that never crashed. Worlds are built with relative paths so two
directory trees with identical content produce identical run ids, journal
lines, and pool manifests, making that comparison meaningful.
"""

import builtins
import collections
import dataclasses
import fcntl
import json
import logging
import os
import shutil
import signal

import numpy as np
import pytest

from websift import pipeline
from websift.classifier import (
    ClassifierConfig,
    load_labeled_examples,
    load_model,
    predict_many,
    train,
)
from websift.documents import Document, write_documents
from websift.errors import WebsiftError
from websift.filtering import score_corpus
from websift.ioutil import canonical_json, sha256_file, sha256_text
from websift.pipeline import (
    AWAITING_CLASSIFIER,
    AWAITING_TRAINING_SET,
    AWAITING_VERIFICATION,
    PROMOTED,
    REJECTED,
    TERMINAL,
    VERDICT_READY,
    JournalUnreadable,
    NotReady,
    PipelineConfig,
    RoundFailed,
    RunLocked,
    StateCorrupt,
    VerifySettings,
    ingest_report,
    init_run,
    read_journal,
    resume,
    run_round,
    run_status,
)
from websift.seedpool import InsufficientSeedData, SeedCategory, SeedPoolManifest, SeedPoolStore
from websift.tokenizers import TokenizerSpec, load_tokenizer
from websift.verify import (
    CHINESE_METRICS,
    ENGLISH_METRICS,
    EvalScores,
    ManifestShard,
    TokenManifest,
)

ALL_METRICS = ENGLISH_METRICS + CHINESE_METRICS

GOOD_WORDS = tuple(f"signal{i}" for i in range(24))
BAD_WORDS = tuple(f"static{i}" for i in range(24))

NOMINAL_KINDS = [
    "init",
    "training_set",
    "classifier",
    "report",
    "advance",
    "training_set",
    "classifier",
    "report",
    "promoted",
]


def make_text(rng, words):
    n = int(rng.integers(25, 36))
    return " ".join(words[int(rng.integers(0, len(words)))] for _ in range(n))


def build_world(root, **overrides):
    """Seed pool, raw shards, and a default manifest under one root.

    The returned config references everything by relative path, so callers
    must chdir into root before driving a run.
    """
    root = str(root)
    rng = np.random.default_rng(4242)

    store = SeedPoolStore(os.path.join(root, "pool")).init()
    curated = [Document(id=f"curated:{i}", text=make_text(rng, GOOD_WORDS)) for i in range(120)]
    crawl = [Document(id=f"crawl:{i}", text=make_text(rng, BAD_WORDS)) for i in range(120)]
    store.add_category("curated", "positive", "editorial", curated)
    store.add_category("crawl", "negative", "dragnet", crawl)

    raw_dir = os.path.join(root, "raw")
    os.makedirs(raw_dir)
    doc_no = 0
    for shard in range(2):
        docs = []
        for _ in range(100):
            words = GOOD_WORDS if doc_no % 2 == 0 else BAD_WORDS
            docs.append(Document(id=f"raw:{doc_no:05d}", text=make_text(rng, words)))
            doc_no += 1
        write_documents(os.path.join(raw_dir, f"shard{shard:03d}.jsonl"), docs)

    default = TokenManifest(
        name="web-default",
        shards=tuple(ManifestShard(id=f"dflt{i:03d}", tokens=2000) for i in range(40)),
    )
    with open(os.path.join(root, "default.json"), "w", encoding="utf-8") as f:
        json.dump(default.to_json_obj(), f)

    settings = dict(
        pool_dir="pool",
        raw_shards=("raw/*.jsonl",),
        sample_size=180,
        verify=VerifySettings(
            default_manifest="default.json",
            global_batch_size=1,
            sequence_length=2,
        ),
        max_rounds=2,
        target_training_set=120,
        balance=0.5,
        seed=29,
        classifier=ClassifierConfig(dim=16, word_ngrams=2, min_count=1, bucket=4096, seed=3),
    )
    settings.update(overrides)
    return PipelineConfig(**settings)


def improved_pair():
    base = EvalScores("baseline", {m: 50.0 for m in ALL_METRICS})
    cand = EvalScores("candidate", {m: 51.0 for m in ALL_METRICS})
    return base, cand


def drive(run_dir, config):
    """Push a run to a terminal state, feeding improving eval reports."""
    base, cand = improved_pair()
    while True:
        try:
            status = run_status(run_dir)["status"]
        except JournalUnreadable:
            init_run(run_dir, config)
            continue
        if status in TERMINAL:
            return status
        if status == AWAITING_VERIFICATION:
            ingest_report(run_dir, base, cand)
        else:
            run_round(run_dir)


def journal_bytes(run_dir):
    with open(os.path.join(run_dir, pipeline.JOURNAL_NAME), "rb") as f:
        return f.read()


@pytest.fixture(scope="module")
def control(tmp_path_factory):
    """A crash-free promoted run. Tests treat the returned tree as read-only."""
    root = str(tmp_path_factory.mktemp("control"))
    config = build_world(root)
    prev = os.getcwd()
    os.chdir(root)
    try:
        status = drive("run", config)
        assert status == PROMOTED
        journal = journal_bytes("run")
        entries = read_journal("run")
        store = SeedPoolStore("pool")
        with open(store._manifest_path(3), "rb") as f:
            pool_v3 = f.read()
    finally:
        os.chdir(prev)
    return {
        "root": root,
        "run_dir": os.path.join(root, "run"),
        "config": config,
        "journal": journal,
        "entries": entries,
        "pool_v3": pool_v3,
    }


# ---------------------------------------------------------------------------
# configuration

class TestPipelineConfig:
    def test_json_round_trip(self, tmp_path):
        config = build_world(tmp_path)
        obj = config.to_json_obj()
        json.dumps(obj)  # must be plain JSON data
        assert PipelineConfig.from_json_obj(obj) == config

    def test_from_file(self, tmp_path):
        config = build_world(tmp_path)
        path = tmp_path / "pipeline.json"
        path.write_text(json.dumps(config.to_json_obj()), encoding="utf-8")
        assert PipelineConfig.from_file(str(path)) == config

    def test_encoded_bytes_are_pinned(self, tmp_path, monkeypatch):
        # Literals captured before settings moved to ioutil.JsonRecord: the
        # model file's config block, the journal init entry and run id, and
        # a pool manifest without a parent must keep these exact bytes.
        assert canonical_json(ClassifierConfig().to_json_obj()) == (
            '{"bucket":2000000,"dim":256,"epochs":3,"labels":["negative","positive"],'
            '"lr":0.1,"min_count":5,"seed":17,"word_ngrams":3}'
        )
        config = build_world(tmp_path)
        assert canonical_json(config.to_json_obj()) == (
            '{"balance":0.5,"classifier":{"bucket":4096,"dim":16,"epochs":3,'
            '"labels":["negative","positive"],"lr":0.1,"min_count":1,'
            '"seed":3,"word_ngrams":2},"max_rounds":2,"pool_dir":"pool",'
            '"raw_shards":["raw/*.jsonl"],"sample_size":180,"seed":29,'
            '"target_training_set":120,"threshold":0.5,"tokenizer":{"kind":"unicode_words",'
            '"preserve_structural":true,"vocab_path":null},"verify":{"candidate_weight":0.3,'
            '"default_manifest":"default.json","global_batch_size":1,"n_epoch":3,'
            '"rounding_mode":"as_written_max","sequence_length":2,"strata":100}}'
        )
        monkeypatch.chdir(tmp_path)
        assert init_run("run", config).run_id == "d9579e4355f3"
        manifest = SeedPoolManifest(version=1, parent_version=None, categories=(
            SeedCategory("curated", "positive", "editorial", ("ab" * 32,), doc_count=3),
        ))
        assert canonical_json(manifest.to_json_obj()) == (
            '{"categories":[{"doc_count":3,"name":"curated","objects":["' + "ab" * 32 + '"],'
            '"polarity":"positive","resample_factor":1,"source":"editorial"}],'
            '"parent_version":null,"version":1}'
        )

    def test_rejects_bad_values(self, tmp_path):
        config = build_world(tmp_path)
        with pytest.raises(ValueError):
            dataclasses.replace(config, max_rounds=0)
        with pytest.raises(ValueError):
            dataclasses.replace(config, sample_size=0)
        with pytest.raises(ValueError):
            dataclasses.replace(config, threshold=1.5)
        for bad in ({"balance": 1.0}, {"balance": float("nan")}, {"target_training_set": 0},
                    {"target_training_set": 121}):
            with pytest.raises(ValueError):
                dataclasses.replace(config, **bad)
        # an odd size is only refused at balance 0.5, where it cannot split evenly
        dataclasses.replace(config, target_training_set=121, balance=0.4)


# ---------------------------------------------------------------------------
# init and status

class TestInit:
    def test_first_entry_and_status(self, tmp_path, monkeypatch):
        config = build_world(tmp_path)
        monkeypatch.chdir(tmp_path)
        state = init_run("run", config)
        assert state.status == AWAITING_TRAINING_SET
        assert state.round == 1
        assert state.pool_version == 2  # one commit per seeded category
        assert len(state.run_id) == 12
        int(state.run_id, 16)

        entries = read_journal("run")
        assert [e["type"] for e in entries] == ["init"]
        assert entries[0]["data"]["config"] == config.to_json_obj()

        status = run_status("run")
        assert status["status"] == AWAITING_TRAINING_SET
        assert status["round"] == 1
        assert status["artifacts"] == {
            "training_set": False,
            "classifier": False,
            "report": False,
        }

    def test_refuses_initialized_run(self, tmp_path, monkeypatch):
        config = build_world(tmp_path)
        monkeypatch.chdir(tmp_path)
        init_run("run", config)
        with pytest.raises(WebsiftError, match="already initialized"):
            init_run("run", config)

    def test_discards_a_journal_torn_in_its_first_entry(self, tmp_path, monkeypatch):
        config = build_world(tmp_path)
        monkeypatch.chdir(tmp_path)
        os.makedirs("run")
        with open(os.path.join("run", pipeline.JOURNAL_NAME), "w", encoding="utf-8") as f:
            f.write('{"entry": {"seq": 0')
        assert read_journal("run") == []
        init_run("run", config)
        assert run_status("run")["round"] == 1

    def test_refuses_empty_pool(self, tmp_path, monkeypatch):
        config = build_world(tmp_path)
        monkeypatch.chdir(tmp_path)
        SeedPoolStore("bare_pool").init()
        bare = dataclasses.replace(config, pool_dir="bare_pool")
        with pytest.raises(WebsiftError, match="no manifests"):
            init_run("run", bare)

    def test_run_id_tracks_config_and_pool(self, tmp_path, monkeypatch):
        config = build_world(tmp_path)
        monkeypatch.chdir(tmp_path)
        a = init_run("runA", config)
        b = init_run("runB", config)
        assert a.run_id == b.run_id
        c = init_run("runC", dataclasses.replace(config, seed=30))
        assert c.run_id != a.run_id


# ---------------------------------------------------------------------------
# the nominal two-round promoted run

class TestNominalRun:
    def test_journal_shape(self, control):
        entries = control["entries"]
        assert [e["type"] for e in entries] == NOMINAL_KINDS
        assert [e["round"] for e in entries] == [0, 1, 1, 1, 1, 2, 2, 2, 2]

    def test_journal_lines_self_describe(self, control):
        # independent re-check of the line format: each line carries its own
        # checksum over the canonical entry, and seq equals the line index
        lines = control["journal"].decode("utf-8").splitlines()
        assert len(lines) == len(NOMINAL_KINDS)
        for i, line in enumerate(lines):
            obj = json.loads(line)
            assert set(obj) == {"entry", "check"}
            assert obj["check"] == sha256_text(canonical_json(obj["entry"]))
            assert obj["entry"]["seq"] == i

    def test_pool_version_chain(self, control):
        entries = control["entries"]
        advance = next(e for e in entries if e["type"] == "advance")
        assert advance["data"]["next_pool_version"] == 3
        assert advance["data"]["added_categories"] == ["round1_kept", "round1_rejected"]

        round2_ts = entries[5]
        assert round2_ts["data"]["pool_version"] == 3

        store = SeedPoolStore(os.path.join(control["root"], "pool"))
        v3 = store.load_manifest(3)
        assert v3.parent_version == 2
        names = {c.name: c for c in v3.categories}
        assert set(names) == {"curated", "crawl", "round1_kept", "round1_rejected"}

        run_id = entries[0]["data"]["run_id"]
        kept = names["round1_kept"]
        assert kept.polarity == "positive"
        assert kept.source == f"pipeline:{run_id}:round1"
        round1_clf = entries[2]["data"]
        assert kept.doc_count == round1_clf["sample_kept"]
        assert names["round1_rejected"].doc_count == round1_clf["sample_rejected"]
        assert round1_clf["sample_kept"] + round1_clf["sample_rejected"] == 180

    def test_promoted_fingerprint_unique(self, control):
        entries = control["entries"]
        promoted = entries[-1]
        assert promoted["data"] == {"classifier_round": 2}
        fp1 = entries[2]["data"]["model_sha256"]
        fp2 = entries[6]["data"]["model_sha256"]
        assert fp1 != fp2  # round 2 trains on a different pool
        holders = [e for e in entries if fp2 in canonical_json(e)]
        assert len(holders) == 1

    def test_artifacts_match_journal(self, control):
        run_dir = control["run_dir"]
        for entry in control["entries"]:
            for key, rel in entry["data"].items():
                if not key.endswith("_path"):
                    continue
                path = os.path.join(run_dir, rel)
                assert os.path.exists(path), rel
                assert sha256_file(path) == entry["data"][key[:-5] + "_sha256"]

    def test_sample_scores_artifact(self, control):
        clf = control["entries"][2]["data"]
        path = os.path.join(control["run_dir"], clf["sample_scores_path"])
        rows = []
        with open(path, "r", encoding="utf-8") as f:
            for line in f:
                obj = json.loads(line)
                assert line.rstrip("\n") == canonical_json(obj)
                rows.append(obj)
        assert len(rows) == clf["sample_total"] == 180
        assert len({r["id"] for r in rows}) == len(rows)
        threshold = control["config"].threshold
        for r in rows:
            assert r["kept"] == (r["score"] >= threshold)
        assert sum(r["kept"] for r in rows) == clf["sample_kept"]

    def test_sample_scores_equal_corpus_scores(self, control, tmp_path):
        """A round's sample is scored on the corpus path: every sample_scores
        score equals, bit for bit, what score_corpus writes for the same
        documents and what predict_many gives for them."""
        threshold = control["config"].threshold
        rounds = [e["data"] for e in control["entries"] if e["type"] == "classifier"]
        assert len(rounds) == 2
        for n, clf in enumerate(rounds):
            model = load_model(os.path.join(control["run_dir"], clf["model_path"]))
            tokenizer = model.tokenizer
            with open(os.path.join(control["run_dir"], clf["sample_scores_path"]),
                      encoding="utf-8") as f:
                rows = [json.loads(line) for line in f]
            shard = str(tmp_path / f"sample{n}.jsonl")
            write_documents(shard, [Document(id=r["id"], text=r["text"]) for r in rows])
            out = str(tmp_path / f"scored{n}")
            score_corpus(model, [shard], threshold, tokenizer, out)
            corpus = {}
            for stream in ("kept", "rejected"):
                with open(os.path.join(out, stream, f"sample{n}.jsonl.scored.jsonl"),
                          encoding="utf-8") as f:
                    corpus.update((obj["id"], obj["score"]) for obj in map(json.loads, f))
            preds = predict_many(model, [r["text"] for r in rows], tokenizer)
            assert [r["score"] for r in rows] == [corpus[r["id"]] for r in rows] \
                == [p.dist["positive"] for p in preds]

    def test_status_after_promotion(self, control):
        status = run_status(control["run_dir"])
        assert status == {
            "run_id": control["entries"][0]["data"]["run_id"],
            "status": PROMOTED,
            "round": 2,
            "max_rounds": 2,
            "pool_version": 3,
            "artifacts": {"training_set": True, "classifier": True, "report": True},
        }

    def test_fold_prefixes_walk_the_state_machine(self, control):
        entries = control["entries"]
        expect = {
            1: (AWAITING_TRAINING_SET, 1, 2),
            2: (AWAITING_CLASSIFIER, 1, 2),
            3: (AWAITING_VERIFICATION, 1, 2),
            4: (VERDICT_READY, 1, 2),
            5: (AWAITING_TRAINING_SET, 2, 3),
            8: (VERDICT_READY, 2, 3),
            9: (PROMOTED, 2, 3),
        }
        for n, (status, round_no, pool_version) in expect.items():
            state = pipeline._fold(entries[:n])
            assert state.status == status, n
            assert state.round == round_no, n
            assert state.pool_version == pool_version, n

    def test_resume_is_idempotent_and_readonly(self, control):
        before = journal_bytes(control["run_dir"])
        s1 = resume(control["run_dir"])
        s2 = resume(control["run_dir"])
        assert (s1.run_id, s1.status, s1.round, s1.pool_version) == (
            s2.run_id,
            s2.status,
            s2.round,
            s2.pool_version,
        )
        assert sorted(s1.rounds) == sorted(s2.rounds) == [1, 2]
        assert journal_bytes(control["run_dir"]) == before

    def test_terminal_run_refuses_more_work(self, control, monkeypatch):
        monkeypatch.chdir(control["root"])
        with pytest.raises(NotReady, match="terminal"):
            run_round("run")
        base, cand = improved_pair()
        with pytest.raises(NotReady):
            ingest_report("run", base, cand)


# ---------------------------------------------------------------------------
# transition rules

STATUSES = (AWAITING_TRAINING_SET, AWAITING_CLASSIFIER, AWAITING_VERIFICATION,
            VERDICT_READY, PROMOTED, REJECTED)
# entry type -> (the status it arrives in, the status it leaves, the verdict it records)
ARRIVAL = {
    "training_set": (AWAITING_TRAINING_SET, AWAITING_CLASSIFIER, None),
    "classifier": (AWAITING_CLASSIFIER, AWAITING_VERIFICATION, None),
    "report": (AWAITING_VERIFICATION, VERDICT_READY, None),
    "advance": (VERDICT_READY, AWAITING_TRAINING_SET, "improved"),
    "promoted": (VERDICT_READY, PROMOTED, "improved"),
    "rejected": (VERDICT_READY, REJECTED, "not_improved"),
}


@pytest.mark.parametrize("status", STATUSES)
@pytest.mark.parametrize("kind", sorted(ARRIVAL))
def test_apply_accepts_an_entry_only_in_its_arrival_status(kind, status):
    def state():
        return pipeline.RunState(run_id="r", config=None, status=status, round=1, pool_version=1,
                                 rounds={1: pipeline.RoundState(round=1, pool_version=1)})

    data = {"next_pool_version": 2}
    for other_round in (0, 2):
        s = state()
        with pytest.raises(StateCorrupt, match=f"entry for round {other_round} while in round 1"):
            pipeline._apply(s, {"type": kind, "round": other_round, "data": data})
        assert (s.status, s.next_seq) == (status, 1)
    arrives, leaves, verdict = ARRIVAL[kind]
    s = state()
    entry = {"type": kind, "round": 1, "data": data}
    if status != arrives:
        with pytest.raises(StateCorrupt) as err:
            pipeline._apply(s, entry)
        assert str(err.value) == f"entry {kind!r} arrived in status {status!r}, expected {arrives!r}"
        assert (s.status, s.next_seq, s.rounds[1]) == (status, 1, pipeline.RoundState(1, 1))
        return
    pipeline._apply(s, entry)
    assert (s.status, s.next_seq) == (leaves, 2)
    assert s.rounds[1].verdict == verdict
    if verdict is None:
        assert getattr(s.rounds[1], kind) is data
    if kind == "advance":
        assert (s.round, s.pool_version, s.rounds[2]) == (2, 2, pipeline.RoundState(2, 2))
    else:
        assert (s.round, s.pool_version, sorted(s.rounds)) == (1, 1, [1])


# ---------------------------------------------------------------------------
# verdicts

class TestVerdicts:
    def test_flat_report_rejects(self, tmp_path, monkeypatch):
        config = build_world(tmp_path)
        monkeypatch.chdir(tmp_path)
        init_run("run", config)
        run_round("run")
        flat = EvalScores("flat", {m: 50.0 for m in ALL_METRICS})
        state = ingest_report("run", flat, flat)
        assert state.status == VERDICT_READY
        state = run_round("run")
        assert state.status == REJECTED
        entries = read_journal("run")
        assert [e["type"] for e in entries] == [
            "init",
            "training_set",
            "classifier",
            "report",
            "rejected",
        ]
        verdicts = entries[-1]["data"]["verdicts"]
        assert set(verdicts) == {"English", "Chinese", "Overall"}
        assert set(verdicts.values()) == {"neutral"}
        assert SeedPoolStore("pool").latest_version() == 2  # nothing folded

    def test_single_round_configs_promote_without_folding(self, tmp_path, monkeypatch):
        config = build_world(tmp_path, max_rounds=1)
        monkeypatch.chdir(tmp_path)
        assert drive("run", config) == PROMOTED
        entries = read_journal("run")
        assert [e["type"] for e in entries] == [
            "init",
            "training_set",
            "classifier",
            "report",
            "promoted",
        ]
        assert entries[-1]["data"] == {"classifier_round": 1}
        assert SeedPoolStore("pool").latest_version() == 2

    def test_promoted_model_carries_the_run_tokenizer(self, tmp_path, monkeypatch):
        config = build_world(tmp_path, max_rounds=1,
                             tokenizer=TokenizerSpec(preserve_structural=False))
        monkeypatch.chdir(tmp_path)
        assert drive("run", config) == PROMOTED
        final = [e for e in read_journal("run") if e["type"] == "classifier"][-1]
        model = load_model(os.path.join("run", final["data"]["model_path"]))
        assert model.tokenizer.spec == config.tokenizer
        assert model.tokenizer.vocab is None

    def test_report_requires_waiting_run(self, tmp_path, monkeypatch):
        config = build_world(tmp_path)
        monkeypatch.chdir(tmp_path)
        init_run("run", config)
        base, cand = improved_pair()
        with pytest.raises(NotReady, match="ingest"):
            ingest_report("run", base, cand)

    def test_round_waits_for_report(self, tmp_path, monkeypatch):
        config = build_world(tmp_path)
        monkeypatch.chdir(tmp_path)
        init_run("run", config)
        run_round("run")
        with pytest.raises(NotReady, match="verification"):
            run_round("run")

    def test_round_logs_epoch_losses(self, tmp_path, monkeypatch, caplog):
        config = build_world(tmp_path)
        monkeypatch.chdir(tmp_path)
        init_run("run", config)
        with caplog.at_level(logging.INFO, logger="websift.pipeline"):
            run_round("run")
        entries = read_journal("run")
        examples = load_labeled_examples(
            os.path.join("run", entries[1]["data"]["training_set_path"])
        )
        model = train(examples, config.classifier, load_tokenizer(config.tokenizer))
        assert [r.getMessage() for r in caplog.records if "mean loss" in r.getMessage()] == [
            f"round 1 epoch {i} mean loss {loss:.6f}"
            for i, loss in enumerate(model.epoch_losses, start=1)
        ]
        assert "loss" not in journal_bytes("run").decode("utf-8")


# ---------------------------------------------------------------------------
# locking and failure wrapping

class TestLockingAndFailure:
    def test_lock_excludes_writers(self, tmp_path, monkeypatch):
        config = build_world(tmp_path)
        monkeypatch.chdir(tmp_path)
        init_run("run", config)
        lock = os.path.join("run", pipeline.LOCK_NAME)
        held = os.open(lock, os.O_CREAT | os.O_RDWR)
        fcntl.flock(held, fcntl.LOCK_EX)
        with pytest.raises(RunLocked):
            run_round("run")
        base, cand = improved_pair()
        with pytest.raises(RunLocked):
            ingest_report("run", base, cand)
        os.makedirs("run2")
        held2 = os.open(os.path.join("run2", pipeline.LOCK_NAME), os.O_CREAT | os.O_RDWR)
        fcntl.flock(held2, fcntl.LOCK_EX)
        with pytest.raises(RunLocked):
            init_run("run2", config)
        os.close(held2)

        os.close(held)      # unlocked; the file stays
        state = run_round("run")
        assert state.status == AWAITING_VERIFICATION
        assert not os.path.exists(lock)

    def test_a_killed_writer_leaves_the_run_unlocked(self, tmp_path, monkeypatch):
        config = build_world(tmp_path)
        monkeypatch.chdir(tmp_path)
        init_run("run", config)
        ready_r, ready_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                pipeline._RunLock("run").__enter__()
                os.write(ready_w, b"x")
                signal.pause()
            finally:
                os._exit(1)
        try:
            os.close(ready_w)
            assert os.read(ready_r, 1) == b"x"
            with pytest.raises(RunLocked):
                run_round("run")
        finally:
            os.close(ready_r)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert os.path.exists(os.path.join("run", pipeline.LOCK_NAME))
        assert run_round("run").status == AWAITING_VERIFICATION
        assert not os.path.exists(os.path.join("run", pipeline.LOCK_NAME))

    def test_a_lock_taken_on_an_unlinked_lock_file_is_refused(self, tmp_path, monkeypatch):
        config = build_world(tmp_path)
        monkeypatch.chdir(tmp_path)
        init_run("run", config)
        lock = os.path.join("run", pipeline.LOCK_NAME)
        flock = fcntl.flock

        def holder_leaves_first(fd, operation):
            # between this writer's open and its flock, the holder unlinks
            # the file and another writer creates a new one
            os.remove(lock)
            open(lock, "w").close()
            flock(fd, operation)

        monkeypatch.setattr(fcntl, "flock", holder_leaves_first)
        with pytest.raises(RunLocked):
            run_round("run")
        monkeypatch.setattr(fcntl, "flock", flock)
        assert run_round("run").status == AWAITING_VERIFICATION

    def test_round_failure_names_round_and_cause(self, tmp_path, monkeypatch):
        # quota of 300 positives against a 120 document category
        config = build_world(tmp_path, target_training_set=600)
        monkeypatch.chdir(tmp_path)
        init_run("run", config)
        with pytest.raises(RoundFailed) as err:
            run_round("run")
        assert err.value.round == 1
        assert isinstance(err.value.__cause__, InsufficientSeedData)
        assert [e["type"] for e in read_journal("run")] == ["init"]
        assert run_status("run")["status"] == AWAITING_TRAINING_SET


# ---------------------------------------------------------------------------
# corruption and healing

class TestCorruption:
    def test_tampered_artifact_detected(self, tmp_path, monkeypatch):
        config = build_world(tmp_path)
        monkeypatch.chdir(tmp_path)
        init_run("run", config)
        run_round("run")
        clf = read_journal("run")[2]["data"]
        model_path = os.path.join("run", clf["model_path"])
        with open(model_path, "rb") as f:
            original = f.read()
        with open(model_path, "wb") as f:
            f.write(b"not a model")
        with pytest.raises(StateCorrupt, match="model.ufwc"):
            resume("run")

        with open(model_path, "wb") as f:
            f.write(original)
        resume("run")  # healthy again

        os.remove(os.path.join("run", clf["sample_scores_path"]))
        with pytest.raises(StateCorrupt, match="missing"):
            resume("run")

    def test_tampered_artifact_stops_every_write(self, tmp_path, monkeypatch):
        config = build_world(tmp_path)
        monkeypatch.chdir(tmp_path)
        init_run("run", config)
        run_round("run")
        model_path = os.path.join("run", read_journal("run")[2]["data"]["model_path"])
        with open(model_path, "rb") as f:
            original = f.read()

        def tamper_then_expect_refusal(step):
            with open(model_path, "wb") as f:
                f.write(b"not a model")
            before = journal_bytes("run")
            with pytest.raises(StateCorrupt, match="model.ufwc"):
                step()
            assert journal_bytes("run") == before
            with open(model_path, "wb") as f:
                f.write(original)

        base, cand = improved_pair()
        tamper_then_expect_refusal(lambda: ingest_report("run", base, cand))
        ingest_report("run", base, cand)
        tamper_then_expect_refusal(lambda: run_round("run"))
        assert SeedPoolStore("pool").latest_version() == 2

    def test_midfile_damage_is_fatal(self, tmp_path, control):
        run_dir = str(tmp_path / "copy")
        shutil.copytree(control["run_dir"], run_dir)
        lines = journal_bytes(run_dir).splitlines(keepends=True)

        flipped = bytearray(lines[1])
        flipped[10] ^= 0x01
        damaged = b"".join([lines[0], bytes(flipped)] + lines[2:])
        with open(os.path.join(run_dir, pipeline.JOURNAL_NAME), "wb") as f:
            f.write(damaged)
        with pytest.raises(StateCorrupt):
            read_journal(run_dir)

    def test_reordered_entries_are_fatal(self, tmp_path, control):
        run_dir = str(tmp_path / "copy")
        shutil.copytree(control["run_dir"], run_dir)
        lines = journal_bytes(run_dir).splitlines(keepends=True)
        swapped = b"".join([lines[0], lines[2], lines[1]] + lines[3:])
        with open(os.path.join(run_dir, pipeline.JOURNAL_NAME), "wb") as f:
            f.write(swapped)
        with pytest.raises(StateCorrupt):
            read_journal(run_dir)

    def test_unknown_entry_type_is_fatal(self, tmp_path, control):
        run_dir = str(tmp_path / "copy")
        shutil.copytree(control["run_dir"], run_dir)
        rogue = pipeline._entry_line(len(NOMINAL_KINDS), "mystery", 2, {})
        with open(os.path.join(run_dir, pipeline.JOURNAL_NAME), "a", encoding="utf-8") as f:
            f.write(rogue + "\n")
        with pytest.raises(StateCorrupt, match="mystery"):
            run_status(run_dir)

    def test_missing_journal_is_unreadable(self, tmp_path):
        with pytest.raises(JournalUnreadable):
            read_journal(str(tmp_path / "nowhere"))

    def test_torn_tail_is_dropped_then_healed(self, tmp_path, monkeypatch, caplog):
        config = build_world(tmp_path)
        monkeypatch.chdir(tmp_path)
        init_run("run", config)
        run_round("run")
        clean = journal_bytes("run")

        journal = os.path.join("run", pipeline.JOURNAL_NAME)
        with open(journal, "ab") as f:
            f.write(b'{"entry": {"seq": 3, "ty')

        with caplog.at_level(logging.WARNING, logger="websift.pipeline"):
            state = resume("run")  # read path: fragment ignored, not removed
        assert state.status == AWAITING_VERIFICATION
        assert any("torn" in r.message for r in caplog.records)
        assert journal_bytes("run") != clean

        base, cand = improved_pair()
        ingest_report("run", base, cand)  # write path: fragment truncated
        lines = journal_bytes("run").decode("utf-8").splitlines()
        assert len(lines) == 4
        for i, line in enumerate(lines):
            assert json.loads(line)["entry"]["seq"] == i
        assert journal_bytes("run").startswith(clean)

    def test_relocated_run_resumes(self, tmp_path, monkeypatch):
        old_root = tmp_path / "a"
        old_root.mkdir()
        config = build_world(old_root)
        monkeypatch.chdir(old_root)
        init_run("run", config)
        run_round("run")

        monkeypatch.chdir(tmp_path)
        shutil.move(str(old_root), str(tmp_path / "b"))
        monkeypatch.chdir(tmp_path / "b")
        assert resume("run").status == AWAITING_VERIFICATION
        base, cand = improved_pair()
        ingest_report("run", base, cand)
        state = run_round("run")
        assert state.round == 2
        assert state.status == AWAITING_VERIFICATION


# ---------------------------------------------------------------------------
# live state and verification per operation

def two_round_steps(config):
    base, cand = improved_pair()
    return [
        lambda: init_run("run", config),
        lambda: run_round("run"),
        lambda: ingest_report("run", base, cand),
        lambda: run_round("run"),
        lambda: ingest_report("run", base, cand),
        lambda: run_round("run"),
    ]


def journaled_paths(run_dir):
    return {
        os.path.normpath(os.path.join(run_dir, v))
        for e in read_journal(run_dir)
        for k, v in e["data"].items()
        if k.endswith("_path")
    }


class TestLiveState:
    def test_returned_state_equals_replayed_state(self, tmp_path, monkeypatch):
        config = build_world(tmp_path)
        monkeypatch.chdir(tmp_path)
        for step in two_round_steps(config):
            live = step()
            assert dataclasses.asdict(live) == dataclasses.asdict(resume("run"))
        assert live.status == PROMOTED

    def test_each_write_verifies_every_artifact_once(self, tmp_path, monkeypatch):
        config = build_world(tmp_path)
        monkeypatch.chdir(tmp_path)
        real = pipeline.sha256_file
        hashed = []

        def counting(path):
            hashed.append(os.path.normpath(path))
            return real(path)

        monkeypatch.setattr(pipeline, "sha256_file", counting)
        init_run("run", config)
        for step in two_round_steps(config)[1:]:
            journaled = journaled_paths("run")
            hashed.clear()
            step()
            # each journaled artifact is verified once; nothing written in
            # the step is read back to be hashed
            assert collections.Counter(hashed) == collections.Counter(journaled)


# ---------------------------------------------------------------------------
# sampling

class TestReservoirSample:
    def test_deterministic_and_stream_ordered(self, tmp_path, monkeypatch):
        config = build_world(tmp_path)
        monkeypatch.chdir(tmp_path)
        first = pipeline._reservoir_sample(config, 1)
        second = pipeline._reservoir_sample(config, 1)
        ids = [d.id for d in first]
        assert [d.id for d in second] == ids
        assert len(ids) == 180
        assert len(set(ids)) == 180
        assert ids == sorted(ids)  # raw ids are zero padded stream indexes

    def test_small_corpus_returns_everything(self, tmp_path, monkeypatch):
        config = build_world(tmp_path, sample_size=500)
        monkeypatch.chdir(tmp_path)
        sample = pipeline._reservoir_sample(config, 1)
        assert [d.id for d in sample] == [f"raw:{i:05d}" for i in range(200)]


# ---------------------------------------------------------------------------
# crash recovery

class Boom(RuntimeError):
    """Simulated crash between artifact writes and the journal append."""


def install_crash(monkeypatch, at, torn):
    real = pipeline._append_entry
    hits = {"seen": 0, "fired": False}

    def crashing(run_dir, seq, kind, round_no, data):
        if hits["seen"] == at and not hits["fired"]:
            hits["fired"] = True
            if torn:
                line = pipeline._entry_line(seq, kind, round_no, data)
                with open(pipeline._journal_path(run_dir), "a", encoding="utf-8") as f:
                    f.write(line[: len(line) // 2])
            raise Boom(f"crash at append {at}")
        hits["seen"] += 1
        return real(run_dir, seq, kind, round_no, data)

    monkeypatch.setattr(pipeline, "_append_entry", crashing)
    return hits


class _TearingFile:
    """A file whose first write stores half its bytes and then crashes."""

    def __init__(self, f):
        self._f = f

    def write(self, data):
        self._f.write(data[: len(data) // 2])
        self._f.flush()
        raise Boom("crash mid-write")

    def __getattr__(self, attr):
        return getattr(self._f, attr)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()


def install_torn_write(monkeypatch, name):
    """Tear the first write to a file whose name starts with name."""
    real_open = builtins.open
    torn = {"path": None, "real_open": real_open}

    def tearing_open(file, mode="r", *args, **kwargs):
        f = real_open(file, mode, *args, **kwargs)
        if torn["path"] is None and "w" in mode and os.path.basename(str(file)).startswith(name):
            torn["path"] = os.path.abspath(file)
            return _TearingFile(f)
        return f

    monkeypatch.setattr(builtins, "open", tearing_open)
    return torn


class TestCrashRecovery:
    @pytest.mark.parametrize("torn", [False, True], ids=["clean", "torn"])
    @pytest.mark.parametrize("at", range(len(NOMINAL_KINDS)))
    def test_recovery_converges_to_control(self, tmp_path, monkeypatch, control, at, torn):
        config = build_world(tmp_path)
        monkeypatch.chdir(tmp_path)
        hits = install_crash(monkeypatch, at, torn)

        with pytest.raises(Boom):
            drive("run", config)
        assert hits["fired"]
        assert not os.path.exists(os.path.join("run", pipeline.LOCK_NAME))

        assert drive("run", config) == PROMOTED
        assert journal_bytes("run") == control["journal"]

        store = SeedPoolStore("pool")
        with open(store._manifest_path(3), "rb") as f:
            assert f.read() == control["pool_v3"]

        # idempotent once terminal
        assert drive("run", config) == PROMOTED
        assert journal_bytes("run") == control["journal"]

    @pytest.mark.parametrize("name", ["v000003.json", "model.ufwc"], ids=["pool", "model"])
    def test_crash_mid_write_leaves_no_partial_file(self, tmp_path, monkeypatch, control, name):
        config = build_world(tmp_path)
        monkeypatch.chdir(tmp_path)
        torn = install_torn_write(monkeypatch, name)

        with pytest.raises(Boom):
            drive("run", config)
        assert torn["path"]
        final = torn["path"].removesuffix(".tmp")
        assert not os.path.exists(final)
        assert [n for n in os.listdir(os.path.dirname(final)) if n.endswith(".tmp")] == []

        monkeypatch.setattr(builtins, "open", torn["real_open"])
        assert drive("run", config) == PROMOTED
        assert journal_bytes("run") == control["journal"]
        with open(SeedPoolStore("pool")._manifest_path(3), "rb") as f:
            assert f.read() == control["pool_v3"]

    def test_artifacts_are_durable_before_their_entry(
        self, tmp_path, monkeypatch, durability_trace
    ):
        config = build_world(tmp_path)
        monkeypatch.chdir(tmp_path)
        init_run("run", config)
        run_round("run")
        ingest_report("run", *improved_pair())
        run_round("run")  # advance into round 2, which makes run/rounds/2
        durability_trace.assert_artifacts_durable_before_appends(
            pipeline._journal_path("run"),
            [
                [os.path.join("run", v) for k, v in e["data"].items() if k.endswith("_path")]
                for e in read_journal("run")
            ],
        )

    def test_crash_free_worlds_agree(self, tmp_path, monkeypatch, control):
        # same content at a different path gives identical journal bytes
        config = build_world(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert drive("run", config) == PROMOTED
        assert journal_bytes("run") == control["journal"]
