import dataclasses
import gzip
import json
import logging
import math
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import time
import tracemalloc
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from websift import classifier, filtering
from websift.classifier import (
    CHUNK_TOKENS,
    ClassifierConfig,
    LabeledExample,
    TokenizerMismatch,
    predict_many,
    save_model,
    train,
)
from websift.documents import Document, encode_line, shard_name, write_documents
from websift.errors import WebsiftError
from websift.filtering import (
    DEFAULT_TOKEN_BIN_EDGES,
    BinCounts,
    CorpusMismatch,
    FilterStats,
    WorkerDied,
    read_keep_manifest,
    score_corpus,
    score_documents,
    score_tokens,
    intersect,
    intersect_ids,
    token_length_histogram,
    write_keep_manifest,
)
from websift.ioutil import sha256_file
from websift.tokenizers import Tokenizer, TokenizerSpec, load_tokenizer

POS_WORDS = [f"good{i}" for i in range(20)]
NEG_WORDS = [f"bad{i}" for i in range(20)]


@pytest.fixture(scope="module")
def model(tokenizer):
    import numpy as np

    rng = np.random.default_rng(0)
    dataset = []
    for _ in range(20):
        dataset.append(LabeledExample("positive", " ".join(rng.choice(POS_WORDS, 20))))
        dataset.append(LabeledExample("negative", " ".join(rng.choice(NEG_WORDS, 20))))
    return train(dataset, ClassifierConfig(dim=8, bucket=64, min_count=1), tokenizer)


def make_corpus(dirpath, n_shards=3, docs_per_shard=20):
    """Alternating clearly-positive / clearly-negative documents."""
    os.makedirs(dirpath, exist_ok=True)
    paths, all_docs = [], []
    k = 0
    for s in range(n_shards):
        docs = []
        for i in range(docs_per_shard):
            words = POS_WORDS if k % 2 == 0 else NEG_WORDS
            text = " ".join(words[(k + j) % len(words)] for j in range(12))
            docs.append(Document(id=f"s{s:03d}:{i}", text=text))
            k += 1
        path = os.path.join(dirpath, f"s{s:03d}.jsonl")
        write_documents(path, docs)
        paths.append(path)
        all_docs.extend(docs)
    return paths, all_docs


def read_stream(out_dir, stream):
    """All (shard, id, score, kept) rows of kept/ or rejected/, in file order."""
    rows = []
    d = os.path.join(out_dir, stream)
    for name in sorted(os.listdir(d)):
        with open(os.path.join(d, name), encoding="utf-8") as f:
            for line in f:
                obj = json.loads(line)
                rows.append((name, obj["id"], obj["score"], obj["kept"]))
    return rows


# -- BinCounts ---------------------------------------------------------------------

def test_bin_counts_validation():
    with pytest.raises(ValueError):
        BinCounts.empty([5])
    with pytest.raises(ValueError):
        BinCounts.empty([0, 10, 10])
    with pytest.raises(ValueError, match="need 2 counts"):
        BinCounts((0, 10, 20), [0])
    # a decoded histogram of the wrong length is rejected, not zip-truncated by merge
    obj = BinCounts.empty([0, 10, 20]).to_json_obj()
    with pytest.raises(ValueError, match="need 2 counts"):
        BinCounts.from_json_obj({**obj, "counts": [1, 2, 3]})
    with pytest.raises(ValueError, match="strictly increasing"):
        BinCounts.from_json_obj({**obj, "edges": [0, 20, 10]})


def test_bin_counts_boundaries():
    h = BinCounts.empty([0, 16, 32])
    for v in (-1, 0, 15, 16, 31, 32, 100):
        h.add(v)
    assert h.underflow == 1          # -1
    assert h.counts == [2, 2]        # {0, 15}, {16, 31}
    assert h.overflow == 2           # {32, 100}
    assert h.total() == 7


@given(st.lists(st.integers(-10, 120), max_size=60))
def test_bin_counts_matches_reference(values):
    edges = (0, 10, 50, 100)
    h = BinCounts.empty(edges)
    for v in values:
        h.add(v)
    expected = [0, 0, 0]
    under = over = 0
    for v in values:
        if v < 0:
            under += 1
        elif v >= 100:
            over += 1
        else:
            for b in range(3):
                if edges[b] <= v < edges[b + 1]:
                    expected[b] += 1
    assert (h.underflow, h.counts, h.overflow) == (under, expected, over)
    assert h.total() == len(values)


def test_bin_counts_merge_and_round_trip():
    a = BinCounts.empty([0, 10])
    b = BinCounts.empty([0, 10])
    a.add(5)
    b.add(5)
    b.add(50)
    a.merge(b)
    assert a.counts == [2]
    assert a.overflow == 1
    assert BinCounts.from_json_obj(a.to_json_obj()) == a
    with pytest.raises(ValueError):
        a.merge(BinCounts.empty([0, 99]))


# -- FilterStats ---------------------------------------------------------------------

def test_filter_stats_arithmetic():
    s = FilterStats()
    s.observe(0.9, 10, kept=True)
    s.observe(0.2, 5, kept=False)
    s.observe_malformed()
    assert s.documents_total == 3
    assert s.documents_kept == 1
    assert s.records_malformed == 1
    assert s.documents_rejected == 1
    assert s.tokens_total == 15
    assert s.tokens_kept == 10
    assert sum(s.score_histogram) == 2


def test_filter_stats_score_bins():
    s = FilterStats()
    s.observe(0.0, 1, kept=False)
    s.observe(0.999, 1, kept=True)
    s.observe(1.0, 1, kept=True)  # top bin, not out of range
    assert s.score_histogram[0] == 1
    assert s.score_histogram[99] == 2


def test_filter_stats_merge_equals_union():
    a, b, u = FilterStats(), FilterStats(), FilterStats()
    obs = [(0.1, 3, False), (0.8, 7, True), (0.5, 2, True)]
    for i, (score, n, kept) in enumerate(obs):
        (a if i % 2 == 0 else b).observe(score, n, kept)
        u.observe(score, n, kept)
    b.observe_malformed()
    u.observe_malformed()
    a.merge(b)
    assert a.to_json_obj() == u.to_json_obj()


def test_filter_stats_json_round_trip():
    s = FilterStats()
    s.observe(0.7, 42, kept=True)
    s.observe_malformed()
    assert FilterStats.from_json_obj(s.to_json_obj()).to_json_obj() == s.to_json_obj()
    obj = s.to_json_obj()
    assert obj["documents_rejected"] == 0
    with pytest.raises(ValueError, match="'documents_rejected'"):
        FilterStats.from_json_obj({**obj, "documents_rejected": 1})
    with pytest.raises(ValueError, match="score_histogram"):
        FilterStats.from_json_obj({**obj, "score_histogram": [0] * 99})


# -- scoring -----------------------------------------------------------------------

def test_score_corpus_partitions_exactly(tmp_path, model, tokenizer):
    shards, docs = make_corpus(tmp_path / "corpus")
    run = score_corpus(model, shards, 0.5, tokenizer, str(tmp_path / "out"))
    kept = read_stream(run.out_dir, "kept")
    rejected = read_stream(run.out_dir, "rejected")
    seen = [r[1] for r in kept] + [r[1] for r in rejected]
    assert sorted(seen) == sorted(d.id for d in docs)
    assert len(seen) == len(docs)
    # per-shard input order survives in each stream
    for stream in (kept, rejected):
        for name in {r[0] for r in stream}:
            ids = [r[1] for r in stream if r[0] == name]
            assert ids == sorted(ids, key=lambda i: int(i.split(":")[1]))
    assert run.stats.documents_total == len(docs)
    assert run.stats.documents_kept == len(kept)
    assert run.stats.documents_rejected == len(rejected)
    assert not run.partial
    tokens = sum(len(tokenizer.tokenize(d.text)) for d in docs)
    assert run.stats.tokens_total == tokens


def test_score_corpus_kept_flags_match_threshold(tmp_path, model, tokenizer):
    shards, docs = make_corpus(tmp_path / "corpus", n_shards=1)
    run = score_corpus(model, shards, 0.5, tokenizer, str(tmp_path / "out"))
    kept = read_stream(run.out_dir, "kept")
    rejected = read_stream(run.out_dir, "rejected")
    assert kept and rejected
    for _, _, score, flag in kept:
        assert flag and score >= 0.5
    for _, _, score, flag in rejected:
        assert not flag and score < 0.5
    texts = {d.id: d.text for d in docs}
    for _, doc_id, score, _ in kept + rejected:
        assert score == score_tokens(model, tokenizer.tokenize(texts[doc_id]))


def test_score_corpus_threshold_monotonicity(tmp_path, model, tokenizer):
    shards, _ = make_corpus(tmp_path / "corpus")
    low = score_corpus(model, shards, 0.3, tokenizer, str(tmp_path / "low"))
    high = score_corpus(model, shards, 0.7, tokenizer, str(tmp_path / "high"))
    _, low_ids = read_keep_manifest(low.keep_manifest_path)
    _, high_ids = read_keep_manifest(high.keep_manifest_path)
    assert set(high_ids) <= set(low_ids)
    assert low.corpus_fingerprint == high.corpus_fingerprint


@pytest.mark.parametrize("workers", [4, 16])
def test_score_corpus_parallel_matches_serial(tmp_path, model, tokenizer, workers):
    shards, _ = make_corpus(tmp_path / "corpus", n_shards=5, docs_per_shard=8)
    serial = score_corpus(model, shards, 0.5, tokenizer, str(tmp_path / "serial"), workers=1)
    parallel = score_corpus(
        model, shards, 0.5, tokenizer, str(tmp_path / f"par{workers}"), workers=workers
    )
    assert serial.stats.to_json_obj() == parallel.stats.to_json_obj()
    assert serial.corpus_fingerprint == parallel.corpus_fingerprint
    with open(serial.keep_manifest_path, "rb") as a, open(parallel.keep_manifest_path, "rb") as b:
        assert a.read() == b.read()
    assert read_stream(serial.out_dir, "kept") == read_stream(parallel.out_dir, "kept")
    assert read_stream(serial.out_dir, "rejected") == read_stream(parallel.out_dir, "rejected")


def run_bytes(out_dir):
    """Every output file of a scoring run, by relative path."""
    files = {}
    for rel in ("ledger.jsonl", "keep_manifest.txt"):
        with open(os.path.join(out_dir, rel), "rb") as f:
            files[rel] = f.read()
    for stream in ("kept", "rejected"):
        for name in sorted(os.listdir(os.path.join(out_dir, stream))):
            with open(os.path.join(out_dir, stream, name), "rb") as f:
                files[f"{stream}/{name}"] = f.read()
    return files


@pytest.mark.parametrize("workers", [2, 6])   # 6: more processes than cores contend for shards
def test_forked_scoring_matches_serial_bytes_and_logs(
    tmp_path, model, tokenizer, monkeypatch, caplog, workers
):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))
    shards, _ = make_corpus(tmp_path / "corpus", n_shards=7, docs_per_shard=8)
    for path in shards:
        with open(path, "a", encoding="utf-8") as f:
            f.write("{not json\n")
            f.write(json.dumps({"text": ""}) + "\n")              # no tokens
            f.write(json.dumps({"text": "unseenword"}) + "\n")    # no feature row
    results = []
    for n in (1, workers):
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="websift.filtering"):
            run = score_corpus(model, shards, 0.5, tokenizer, str(tmp_path / f"w{n}"), workers=n)
        messages = [r.getMessage() for r in caplog.records if r.name == "websift.filtering"]
        results.append((run_bytes(run.out_dir), messages, run.zero_feature_docs))
    assert results[0] == results[1]
    _, messages, zero_feature = results[0]
    assert zero_feature == 2 * len(shards)
    names = [os.path.basename(p) for p in shards]
    assert messages == [
        m
        for name in names
        for m in (
            f"skipping malformed record {name}:9: invalid JSON: Expecting property name "
            "enclosed in double quotes",
            f"shard {name}: 2 documents had no tokens in the vocabulary and no n-gram, "
            "scored 0.5",
        )
    ]


def test_forked_scoring_reports_truncated_gzip_shard(tmp_path, model, tokenizer, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(2)))
    shards, docs = make_corpus(tmp_path / "corpus", n_shards=4)
    with open(shards[0], "rb") as f:
        packed = gzip.compress(f.read())
    truncated = str(tmp_path / "corpus" / "s002x.jsonl.gz")
    with open(truncated, "wb") as f:
        f.write(packed[: len(packed) // 2])
    listed = shards[:2] + [truncated] + shards[2:]
    run = score_corpus(model, listed, 0.5, tokenizer, str(tmp_path / "out"), workers=2)
    assert [name for name, _ in run.failed_shards] == ["s002x.jsonl.gz"]
    for stream in ("kept", "rejected", "ids"):  # the failed shard's partial outputs are removed
        leftovers = os.listdir(os.path.join(run.out_dir, stream))
        assert not any(n.startswith("s002x") for n in leftovers)
        assert not any(n.endswith(".tmp") for n in leftovers)
    names = [os.path.basename(p) for p in shards]
    assert run.completed_shards == names
    assert run.stats.documents_total == len(docs)
    with open(os.path.join(run.out_dir, "ledger.jsonl"), encoding="utf-8") as f:
        assert [json.loads(line)["shard"] for line in f] == names


def test_scoring_bytes_do_not_depend_on_chunks_or_workers(
    tmp_path, model, tokenizer, monkeypatch, caplog
):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(2)))
    shards, _ = make_corpus(tmp_path / "corpus", n_shards=3, docs_per_shard=8)
    for path in shards:   # a malformed line and a zero-feature document mid-shard
        with open(path, encoding="utf-8") as f:
            lines = f.readlines()
        name = os.path.basename(path)
        lines[3:3] = ["{not json\n", json.dumps({"id": f"{name}:z", "text": "unseenword"}) + "\n"]
        with open(path, "w", encoding="utf-8") as f:
            f.writelines(lines)
    results = []
    # a budget of 1 puts each document in a chunk of its own, every 12-token
    # document longer than the budget; at 30 a chunk holds two of them
    for budget in (1, 14, 30, classifier.CHUNK_TOKENS):
        monkeypatch.setattr(classifier, "CHUNK_TOKENS", budget)
        for workers in (1, 2):
            caplog.clear()
            out = str(tmp_path / f"c{budget}w{workers}")
            with caplog.at_level(logging.INFO, logger="websift.filtering"):
                run = score_corpus(model, shards, 0.5, tokenizer, out, workers=workers)
            messages = [r.getMessage() for r in caplog.records if r.name == "websift.filtering"]
            results.append((run_bytes(run.out_dir), messages, run.zero_feature_docs))
    assert all(r == results[0] for r in results)
    _, messages, zero_feature = results[0]
    assert zero_feature == len(shards)
    assert messages == [
        m
        for name in (os.path.basename(p) for p in shards)
        for m in (
            f"skipping malformed record {name}:4: invalid JSON: Expecting property name "
            "enclosed in double quotes",
            f"shard {name}: 1 documents had no tokens in the vocabulary and no n-gram, "
            "scored 0.5",
        )
    ]


def write_corrupt_gzip(path):
    """A .gz shard whose deflate data has 60 flipped bytes, so reading it
    raises zlib.error rather than OSError or EOFError."""
    rng = random.Random(0)
    docs = [
        Document(id=f"bad:{i}", text=" ".join(f"w{rng.randrange(10**6)}" for _ in range(30)))
        for i in range(40)
    ]
    plain = "".join(json.dumps(d.to_json_obj()) + "\n" for d in docs).encode("utf-8")
    data = bytearray(gzip.compress(plain))
    data[200:260] = bytes(b ^ 0x55 for b in data[200:260])
    with pytest.raises(zlib.error):
        gzip.decompress(bytes(data))
    with open(path, "wb") as f:
        f.write(data)


@pytest.mark.parametrize("workers", [1, 2])
def test_corrupt_gzip_shard_is_reported_not_raised(tmp_path, model, tokenizer, monkeypatch, workers):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(2)))
    shards, _ = make_corpus(tmp_path / "corpus", n_shards=3)
    corrupt = str(tmp_path / "corpus" / "s001x.jsonl.gz")
    write_corrupt_gzip(corrupt)
    clean = score_corpus(model, shards, 0.5, tokenizer, str(tmp_path / "clean"), workers=workers)
    listed = shards[:2] + [corrupt] + shards[2:]
    run = score_corpus(model, listed, 0.5, tokenizer, str(tmp_path / "out"), workers=workers)
    assert [name for name, _ in run.failed_shards] == ["s001x.jsonl.gz"]
    assert run.completed_shards == clean.completed_shards
    assert run_bytes(run.out_dir) == run_bytes(clean.out_dir)   # healthy outputs intact


def test_token_length_stats_reports_corrupt_gzip_shard(tmp_path, tokenizer):
    shards, _ = make_corpus(tmp_path / "corpus", n_shards=2)
    corrupt = str(tmp_path / "corpus" / "s000x.jsonl.gz")
    write_corrupt_gzip(corrupt)
    stats = token_length_histogram([shards[0], corrupt, shards[1]], tokenizer)
    assert [name for name, _ in stats.failed_shards] == ["s000x.jsonl.gz"]
    clean = token_length_histogram(shards, tokenizer)
    assert (stats.documents, stats.tokens_total) == (clean.documents, clean.tokens_total)


def test_token_length_stats_count_nothing_from_a_shard_that_fails_part_way(tmp_path, tokenizer):
    shards, _ = make_corpus(tmp_path / "corpus", n_shards=2)
    lines = [b"{not json\n"] + [
        encode_line({"id": f"t:{i}", "text": " ".join(["w"] * (i % 70))}).encode() + b"\n"
        for i in range(3000)
    ]
    packed = gzip.compress(b"".join(lines))
    truncated = str(tmp_path / "corpus" / "s000x.jsonl.gz")
    with open(truncated, "wb") as f:
        f.write(packed[: len(packed) // 2])
    stats = token_length_histogram([shards[0], truncated, shards[1]], tokenizer)
    assert [name for name, _ in stats.failed_shards] == ["s000x.jsonl.gz"]
    clean = token_length_histogram(shards, tokenizer)
    clean_obj, stats_obj = clean.to_json_obj(), stats.to_json_obj()
    for key in ("documents", "tokens_total", "records_malformed", "histogram", "p50", "p99"):
        assert stats_obj[key] == clean_obj[key], key


def test_score_corpus_raises_when_a_worker_dies(tmp_path, model, tokenizer, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(2)))
    shards, _ = make_corpus(tmp_path / "corpus", n_shards=4)
    out = str(tmp_path / "out")
    parent = os.getpid()
    started = tmp_path / "worker-started"
    real_score_shard = filtering._score_shard

    def dies_in_worker(*args):
        if os.getpid() != parent:
            started.write_text("")
            os._exit(3)
        # let the forked worker claim a shard before this process takes more
        deadline = time.monotonic() + 30
        while not started.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        return real_score_shard(*args)

    monkeypatch.setattr(filtering, "_score_shard", dies_in_worker)
    began = time.monotonic()
    with pytest.raises(WorkerDied) as info:
        score_corpus(model, shards, 0.5, tokenizer, out, workers=2)
    assert time.monotonic() - began < 30
    assert isinstance(info.value, WebsiftError)
    assert info.value.exitcode == 3
    names = [os.path.basename(p) for p in shards]
    assert info.value.shard in names
    ledger = os.path.join(out, "ledger.jsonl")
    recorded = []
    if os.path.exists(ledger):
        with open(ledger, encoding="utf-8") as f:
            recorded = [json.loads(line)["shard"] for line in f]
    assert info.value.shard not in recorded
    assert recorded == names[: len(recorded)]


def fail_in_worker(monkeypatch, tmp_path, fail):
    """Patch _score_shard so that a forked worker writes its shard's name to
    the returned marker and calls fail() instead of scoring; this process
    waits for the marker before it scores a shard of its own."""
    parent = os.getpid()
    started = tmp_path / "worker-started"
    real_score_shard = filtering._score_shard

    def score_shard(*args):
        if os.getpid() != parent:
            started.write_text(os.path.basename(args[2]))
            fail()
        deadline = time.monotonic() + 30
        while not started.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        return real_score_shard(*args)

    monkeypatch.setattr(filtering, "_score_shard", score_shard)
    return started


def ledger_shards(out_dir):
    ledger = os.path.join(out_dir, "ledger.jsonl")
    if not os.path.exists(ledger):
        return []
    with open(ledger, encoding="utf-8") as f:
        return [json.loads(line)["shard"] for line in f]


def test_an_exception_in_a_worker_raises_worker_died(
    tmp_path, model, tokenizer, monkeypatch, capfd
):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(2)))
    shards, _ = make_corpus(tmp_path / "corpus", n_shards=4)
    out = str(tmp_path / "out")

    def fail():
        raise RuntimeError("raised in the worker only")

    started = fail_in_worker(monkeypatch, tmp_path, fail)
    with pytest.raises(WorkerDied) as info:
        score_corpus(model, shards, 0.5, tokenizer, out, workers=2)
    assert info.value.exitcode == 1
    assert info.value.shard == started.read_text()
    err = capfd.readouterr().err
    assert "Traceback" in err and "RuntimeError: raised in the worker only" in err
    names = [os.path.basename(p) for p in shards]
    recorded = ledger_shards(out)
    assert info.value.shard not in recorded
    assert recorded == names[: len(recorded)]


def test_no_worker_outlives_score_corpus(tmp_path, model, tokenizer, monkeypatch):
    shards, _ = make_corpus(tmp_path / "corpus", n_shards=4)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(2)))
    score_corpus(model, shards, 0.5, tokenizer, str(tmp_path / "clean"), workers=2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)

    def die_or_hang():
        try:
            os.close(os.open(tmp_path / "died", os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            time.sleep(60)      # a hung worker, which score_corpus must kill
        os._exit(3)

    started = fail_in_worker(monkeypatch, tmp_path, die_or_hang)
    for processes in (2, 3):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(processes)))
        began = time.monotonic()
        with pytest.raises(WorkerDied):
            score_corpus(model, shards, 0.5, tokenizer, str(tmp_path / f"w{processes}"),
                         workers=processes)
        assert time.monotonic() - began < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        started.unlink()
        os.remove(tmp_path / "died")


def test_scoring_forks_no_more_processes_than_the_cpus_it_may_run_on(
    tmp_path, model, tokenizer, monkeypatch
):
    shards, _ = make_corpus(tmp_path / "corpus", n_shards=3, docs_per_shard=4)
    serial = score_corpus(model, shards, 0.5, tokenizer, str(tmp_path / "w1"), workers=1)

    def no_fork():
        raise AssertionError("forked on a process pinned to one CPU")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", no_fork)
    pinned = score_corpus(model, shards, 0.5, tokenizer, str(tmp_path / "w2"), workers=2)
    assert pinned.completed_shards == serial.completed_shards
    assert run_bytes(pinned.out_dir) == run_bytes(serial.out_dir)


def test_forked_workers_score_each_shard_exactly_once(tmp_path, model, tokenizer, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(6)))
    shards, _ = make_corpus(tmp_path / "corpus", n_shards=20, docs_per_shard=4)
    serial = score_corpus(model, shards, 0.5, tokenizer, str(tmp_path / "w1"), workers=1)
    real_score_shard = filtering._score_shard
    real_digest = filtering.shard_digest

    def mark_once(path, suffix):
        # a second call for a shard fails here, in whichever process makes it
        marker = tmp_path / f"{os.path.basename(path)}.{suffix}"
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))

    def score_once(model, threshold, path, out_dir):
        mark_once(path, "claimed")
        return real_score_shard(model, threshold, path, out_dir)

    def digest_once(path):
        mark_once(path, "hashed")
        return real_digest(path)

    monkeypatch.setattr(filtering, "_score_shard", score_once)
    monkeypatch.setattr(filtering, "shard_digest", digest_once)
    run = score_corpus(model, shards, 0.5, tokenizer, str(tmp_path / "w6"), workers=6)
    assert len(list(tmp_path.glob("*.claimed"))) == 20
    assert len(list(tmp_path.glob("*.hashed"))) == 20
    assert run.failed_shards == []
    assert run_bytes(run.out_dir) == run_bytes(serial.out_dir)


def test_score_corpus_digests_each_shard_once(tmp_path, model, tokenizer, monkeypatch):
    calls = []
    real_digest = filtering.shard_digest

    def counting_digest(path):
        calls.append(path)
        return real_digest(path)

    monkeypatch.setattr(filtering, "shard_digest", counting_digest)
    shards, _ = make_corpus(tmp_path / "corpus")
    score_corpus(model, shards, 0.5, tokenizer, str(tmp_path / "out"))
    assert calls == shards


def test_no_shard_is_read_before_scoring_starts(tmp_path, model, tokenizer, monkeypatch):
    started = []
    real_score_pending = filtering._score_pending

    def score_pending(*args):
        started.append(True)
        return real_score_pending(*args)

    def after_start(read):
        def checked(*args):
            assert started, f"{read.__name__} ran before scoring started"
            return read(*args)
        return checked

    monkeypatch.setattr(filtering, "_score_pending", score_pending)
    monkeypatch.setattr(filtering, "shard_digest", after_start(filtering.shard_digest))
    monkeypatch.setattr(filtering, "iter_shard_lines", after_start(filtering.iter_shard_lines))
    shards, _ = make_corpus(tmp_path / "corpus")
    out = str(tmp_path / "out")
    first = score_corpus(model, shards, 0.5, tokenizer, out)
    started.clear()
    second = score_corpus(model, shards, 0.5, tokenizer, out, resume=True)
    assert second.skipped_shards == first.completed_shards


@pytest.mark.parametrize("workers", [1, 2])
def test_score_corpus_resume_skips_unchanged(tmp_path, model, tokenizer, monkeypatch, workers):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(2)))
    shards, _ = make_corpus(tmp_path / "corpus")
    out = str(tmp_path / "out")
    first = score_corpus(model, shards, 0.5, tokenizer, out, workers=workers)
    assert first.skipped_shards == []
    second = score_corpus(model, shards, 0.5, tokenizer, out, workers=workers, resume=True)
    assert sorted(second.skipped_shards) == sorted(first.completed_shards)
    assert second.stats.to_json_obj() == first.stats.to_json_obj()
    with open(first.keep_manifest_path, "rb") as f:
        again = f.read()
    assert again.startswith(b"# corpus_fingerprint: ")


@pytest.mark.parametrize("workers", [1, 2])
def test_score_corpus_resume_rescans_changed_shard(tmp_path, model, tokenizer, monkeypatch, workers):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(2)))
    shards, docs = make_corpus(tmp_path / "corpus")
    out = str(tmp_path / "out")
    score_corpus(model, shards, 0.5, tokenizer, out, workers=workers)
    with open(shards[1], "a", encoding="utf-8") as f:
        f.write(json.dumps({"id": "s001:99", "text": " ".join(POS_WORDS[:8])}) + "\n")
    second = score_corpus(model, shards, 0.5, tokenizer, out, workers=workers, resume=True)
    changed = os.path.basename(shards[1])
    assert changed not in second.skipped_shards
    assert changed in second.completed_shards
    assert len(second.skipped_shards) == 2
    assert second.stats.documents_total == len(docs) + 1
    _, kept_ids = read_keep_manifest(second.keep_manifest_path)
    assert "s001:99" in kept_ids


def test_score_corpus_resume_after_torn_ledger(tmp_path, model, tokenizer):
    shards, _ = make_corpus(tmp_path / "corpus")
    out = str(tmp_path / "out")
    first = score_corpus(model, shards, 0.5, tokenizer, out)
    ledger = os.path.join(out, "ledger.jsonl")
    with open(ledger, encoding="utf-8") as f:
        lines = f.readlines()
    # crash after one shard: one full entry plus a torn fragment
    with open(ledger, "w", encoding="utf-8") as f:
        f.write(lines[0])
        f.write(lines[1][: len(lines[1]) // 2])
    second = score_corpus(model, shards, 0.5, tokenizer, out, resume=True)
    assert len(second.skipped_shards) == 1
    assert second.stats.to_json_obj() == first.stats.to_json_obj()
    # the fragment is truncated away, not kept as a junk line
    with open(ledger, encoding="utf-8") as f:
        assert f.readlines() == lines
    with open(first.keep_manifest_path, "rb") as f:
        manifest_bytes = f.read()
    third = score_corpus(model, shards, 0.5, tokenizer, out, resume=True)
    assert len(third.skipped_shards) == 3
    with open(third.keep_manifest_path, "rb") as f:
        assert f.read() == manifest_bytes


@pytest.mark.parametrize("stream", ["kept", "rejected", "ids"])
def test_score_corpus_resume_rescores_a_shard_whose_output_is_gone(
    tmp_path, model, tokenizer, stream
):
    shards, _ = make_corpus(tmp_path / "corpus", n_shards=2)
    clean = str(tmp_path / "clean")
    score_corpus(model, shards, 0.5, tokenizer, clean)
    out = str(tmp_path / "out")
    score_corpus(model, shards, 0.5, tokenizer, out)
    gone = os.path.basename(shards[0])
    os.remove(filtering._output_paths(out, gone)[("kept", "rejected", "ids").index(stream)])
    run = score_corpus(model, shards, 0.5, tokenizer, out, resume=True)
    assert run.completed_shards == [os.path.basename(p) for p in shards]
    assert run.skipped_shards == [os.path.basename(shards[1])]
    # kept, rejected, the keep manifest and the compacted ledger
    assert _scored_bytes(out) == _scored_bytes(clean)


@pytest.mark.parametrize("removed", [("ids",), ("ids", "setup.json")])
def test_score_corpus_resume_rescores_an_older_output_dir_once(
    tmp_path, model, tokenizer, caplog, removed
):
    # an older version left no ids/ sidecars and no setup.json
    shards, _ = make_corpus(tmp_path / "corpus", n_shards=2)
    clean = str(tmp_path / "clean")
    score_corpus(model, shards, 0.5, tokenizer, clean)
    out = str(tmp_path / "out")
    score_corpus(model, shards, 0.5, tokenizer, out)
    for name in removed:
        path = os.path.join(out, name)
        shutil.rmtree(path) if os.path.isdir(path) else os.remove(path)
    with caplog.at_level(logging.WARNING, logger="websift.filtering"):
        run = score_corpus(model, shards, 0.5, tokenizer, out, resume=True)
    warned = [r for r in caplog.records if "rescoring every shard" in r.getMessage()]
    assert len(warned) == ("setup.json" in removed)
    assert run.skipped_shards == []
    assert _scored_bytes(out) == _scored_bytes(clean)
    again = score_corpus(model, shards, 0.5, tokenizer, out, resume=True)
    assert again.skipped_shards == run.completed_shards
    assert _scored_bytes(out) == _scored_bytes(clean)


def test_setup_names_the_model_by_the_sha256_of_its_file(tmp_path, model, tokenizer):
    # the model was never saved; setup.json names it by the file a save writes
    shards, _ = make_corpus(tmp_path / "corpus", n_shards=1)
    run = score_corpus(model, shards, 0.5, tokenizer, str(tmp_path / "out"))
    with open(os.path.join(run.out_dir, "setup.json"), encoding="utf-8") as f:
        setup = json.load(f)
    path = str(tmp_path / "model.ufwc")
    assert setup == {"threshold": 0.5, "model_sha256": save_model(model, path)}
    assert setup["model_sha256"] == sha256_file(path)


def test_score_corpus_resume_under_another_model_digest_rescores_once(
    tmp_path, model, tokenizer, caplog
):
    # as after an older build, which named the model by another digest
    shards, _ = make_corpus(tmp_path / "corpus", n_shards=2)
    clean = str(tmp_path / "clean")
    score_corpus(model, shards, 0.5, tokenizer, clean)
    out = str(tmp_path / "out")
    score_corpus(model, shards, 0.5, tokenizer, out)
    setup = os.path.join(out, "setup.json")
    with open(setup, "w", encoding="utf-8") as f:
        json.dump({"threshold": 0.5, "model_sha256": "0" * 64}, f)
    with caplog.at_level(logging.WARNING, logger="websift.filtering"):
        run = score_corpus(model, shards, 0.5, tokenizer, out, resume=True)
    warned = [r for r in caplog.records if "rescoring every shard" in r.getMessage()]
    assert len(warned) == 1
    assert (run.completed_shards, run.skipped_shards) == ([shard_name(p) for p in shards], [])
    assert _scored_bytes(out) == _scored_bytes(clean)
    again = score_corpus(model, shards, 0.5, tokenizer, out, resume=True)
    assert again.skipped_shards == run.completed_shards


@pytest.mark.parametrize("change", ["threshold", "model"])
def test_score_corpus_resume_rescores_everything_under_another_setup(
    tmp_path, model, tokenizer, caplog, change
):
    shards, _ = make_corpus(tmp_path / "corpus", n_shards=2)
    threshold, other = 0.5, model
    if change == "threshold":
        threshold = 0.99
    else:
        other = dataclasses.replace(model, table=model.table + 1.0)
    clean = str(tmp_path / "clean")
    expected = score_corpus(other, shards, threshold, tokenizer, clean)
    out = str(tmp_path / "out")
    first = score_corpus(model, shards, 0.5, tokenizer, out)
    assert first.stats.documents_kept != expected.stats.documents_kept
    with caplog.at_level(logging.WARNING, logger="websift.filtering"):
        run = score_corpus(other, shards, threshold, tokenizer, out, resume=True)
    warned = [r for r in caplog.records if "rescoring every shard" in r.getMessage()]
    assert len(warned) == 1
    assert run.skipped_shards == []
    assert run.stats.to_json_obj() == expected.stats.to_json_obj()
    assert _scored_bytes(out) == _scored_bytes(clean)


def _scored_bytes(out: str) -> dict[str, bytes]:
    found = {}
    for root, _, files in os.walk(out):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as f:
                found[os.path.relpath(path, out)] = f.read()
    return found


def test_score_corpus_rescores_everything_after_midfile_ledger_damage(
    tmp_path, model, tokenizer, caplog
):
    shards, _ = make_corpus(tmp_path / "corpus")
    clean = str(tmp_path / "clean")
    score_corpus(model, shards, 0.5, tokenizer, clean)
    out = str(tmp_path / "out")
    score_corpus(model, shards, 0.5, tokenizer, out)
    ledger = os.path.join(out, "ledger.jsonl")
    with open(ledger, encoding="utf-8") as f:
        lines = f.readlines()
    # a torn fragment terminated in place and then appended after, as an
    # older resume left it
    with open(ledger, "w", encoding="utf-8") as f:
        f.write(lines[0] + lines[1][: len(lines[1]) // 2] + "\n" + lines[2])
    with caplog.at_level(logging.WARNING, logger="websift.filtering"):
        run = score_corpus(model, shards, 0.5, tokenizer, out, resume=True)
    assert any("rescoring every shard" in r.message for r in caplog.records)
    assert run.skipped_shards == []
    assert _scored_bytes(out) == _scored_bytes(clean)


def _damage_ledger_line(out: str, index: int, damage) -> None:
    """Rewrite one ledger line as damage(its JSON object) leaves it."""
    ledger = os.path.join(out, "ledger.jsonl")
    with open(ledger, encoding="utf-8") as f:
        lines = f.readlines()
    obj = json.loads(lines[index])
    damage(obj)
    lines[index] = json.dumps(obj) + "\n"
    with open(ledger, "w", encoding="utf-8") as f:
        f.writelines(lines)


def test_score_corpus_resume_treats_a_ledger_line_with_bad_stats_as_damage(
    tmp_path, model, tokenizer, caplog
):
    shards, _ = make_corpus(tmp_path / "corpus", n_shards=2)
    names = [os.path.basename(p) for p in shards]
    clean = str(tmp_path / "clean")
    score_corpus(model, shards, 0.5, tokenizer, clean)

    # a first line whose stats lost their keys: the ledger goes, every shard is rescored
    out = str(tmp_path / "first")
    score_corpus(model, shards, 0.5, tokenizer, out)
    _damage_ledger_line(out, 0, lambda obj: obj.update(stats={"documents_total": 1}))
    with caplog.at_level(logging.WARNING, logger="websift.filtering"):
        run = score_corpus(model, shards, 0.5, tokenizer, out, resume=True)
    assert any("rescoring every shard" in r.message for r in caplog.records)
    assert run.skipped_shards == []
    assert run.completed_shards == names
    assert _scored_bytes(out) == _scored_bytes(clean)

    # a final line with a mistyped histogram is a torn tail: only its shard is rescored
    out = str(tmp_path / "last")
    score_corpus(model, shards, 0.5, tokenizer, out)
    _damage_ledger_line(out, 1, lambda obj: obj["stats"].update(score_histogram="x"))
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="websift.ioutil"):
        run = score_corpus(model, shards, 0.5, tokenizer, out, resume=True)
    assert any("truncating torn tail" in r.message for r in caplog.records)
    assert run.skipped_shards == names[:1]
    assert run.completed_shards == names
    assert _scored_bytes(out) == _scored_bytes(clean)


def test_score_corpus_resume_refuses_a_ledger_line_with_a_changed_number(
    tmp_path, model, tokenizer, caplog
):
    # the line still decodes to valid stats; only its check catches the edit
    shards, _ = make_corpus(tmp_path / "corpus")
    clean = str(tmp_path / "clean")
    first = score_corpus(model, shards, 0.5, tokenizer, clean)
    out = str(tmp_path / "out")
    score_corpus(model, shards, 0.5, tokenizer, out)
    _damage_ledger_line(out, 0, lambda obj: obj["stats"].update(
        tokens_kept=obj["stats"]["tokens_kept"] + 900))
    with caplog.at_level(logging.WARNING, logger="websift.filtering"):
        run = score_corpus(model, shards, 0.5, tokenizer, out, resume=True)
    assert any("rescoring every shard" in r.message for r in caplog.records)
    assert run.skipped_shards == []
    assert run.stats.to_json_obj() == first.stats.to_json_obj()
    assert _scored_bytes(out) == _scored_bytes(clean)


def test_score_corpus_resume_rescores_a_ledger_without_checks_once(
    tmp_path, model, tokenizer, caplog
):
    shards, _ = make_corpus(tmp_path / "corpus")
    names = [os.path.basename(p) for p in shards]
    clean = str(tmp_path / "clean")
    score_corpus(model, shards, 0.5, tokenizer, clean)
    out = str(tmp_path / "out")
    score_corpus(model, shards, 0.5, tokenizer, out)
    for i in range(len(shards)):    # as an older version wrote its lines
        _damage_ledger_line(out, i, lambda obj: obj.pop("check"))
    with caplog.at_level(logging.WARNING, logger="websift.filtering"):
        run = score_corpus(model, shards, 0.5, tokenizer, out, resume=True)
    assert any("rescoring every shard" in r.message for r in caplog.records)
    assert run.skipped_shards == []
    assert _scored_bytes(out) == _scored_bytes(clean)
    again = score_corpus(model, shards, 0.5, tokenizer, out, resume=True)
    assert again.skipped_shards == names


def test_filter_score_resume_over_damaged_ledger_stats_exits_cleanly(tmp_path, model):
    shards, _ = make_corpus(tmp_path / "corpus", n_shards=2)
    model_path = str(tmp_path / "model.ufwc")
    save_model(model, model_path)
    out = str(tmp_path / "out")
    argv = [sys.executable, "-m", "websift.cli", "filter", "score",
            "--model", model_path, "--shards", *shards, "--out", out]
    subprocess.run(argv, check=True, capture_output=True)
    _damage_ledger_line(out, 0, lambda obj: obj.update(stats={"documents_total": 1}))
    proc = subprocess.run(argv + ["--resume"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    summary = json.loads(proc.stdout)
    assert (summary["completed_shards"], summary["skipped_shards"]) == (2, 0)


def test_score_corpus_makes_outputs_durable_before_their_ledger_entry(
    tmp_path, model, tokenizer, durability_trace
):
    shards, _ = make_corpus(tmp_path / "corpus")
    run = score_corpus(model, shards, 0.5, tokenizer, str(tmp_path / "out"))
    setup = os.path.join(run.out_dir, "setup.json")
    named = [(setup, *filtering._output_paths(run.out_dir, name)) for name in run.completed_shards]
    assert all(os.path.join(run.out_dir, "ids", name + ".kept_ids") in paths
               for name, paths in zip(run.completed_shards, named))
    durability_trace.assert_artifacts_durable_before_appends(
        os.path.join(run.out_dir, "ledger.jsonl"), named
    )


@pytest.mark.parametrize("workers", [1, 2])
def test_score_corpus_reports_failed_shards(tmp_path, model, tokenizer, monkeypatch, caplog, workers):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(2)))
    shards, docs = make_corpus(tmp_path / "corpus", n_shards=2)
    with open(shards[0], "rb") as f:
        packed = gzip.compress(f.read())
    truncated = str(tmp_path / "corpus" / "s000x.jsonl.gz")
    with open(truncated, "wb") as f:
        f.write(packed[: len(packed) // 2])
    missing = str(tmp_path / "corpus" / "nope.jsonl")
    listed = shards[:1] + [truncated, missing] + shards[1:]
    run = score_corpus(model, listed, 0.5, tokenizer, str(tmp_path / "out"), workers=workers)
    assert run.partial
    # in shard order, although the missing shard fails on its digest and the
    # truncated one part way through scoring
    assert [name for name, _ in run.failed_shards] == ["s000x.jsonl.gz", "nope.jsonl"]
    logged = [r.getMessage().split()[1] for r in caplog.records if "unreadable" in r.getMessage()]
    assert logged == ["s000x.jsonl.gz", "nope.jsonl"]
    assert sorted(run.completed_shards) == [os.path.basename(p) for p in shards]
    assert run.stats.documents_total == len(docs)


def test_score_corpus_counts_malformed_records(tmp_path, model, tokenizer):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    path = corpus / "s000.jsonl"
    good = json.dumps({"id": "s000:0", "text": " ".join(POS_WORDS[:6])})
    path.write_text(good + "\n" + "{not json\n" + '{"id": "s000:2"}\n', encoding="utf-8")
    run = score_corpus(model, [str(path)], 0.5, tokenizer, str(tmp_path / "out"))
    assert run.stats.documents_total == 3
    assert run.stats.records_malformed == 2
    assert run.stats.documents_kept == 1
    assert not run.partial


@pytest.mark.parametrize("workers", [1, 2])
def test_score_corpus_counts_a_lone_surrogate_record_as_malformed(
    tmp_path, model, tokenizer, monkeypatch, workers
):
    # valid JSON whose text cannot be encoded as UTF-8
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(2)))
    shards, docs = make_corpus(tmp_path / "corpus", n_shards=1)
    text = " ".join(POS_WORDS[:6])
    path = tmp_path / "corpus" / "s001.jsonl"
    path.write_text(json.dumps({"id": "a", "text": text}) + "\n"
                    + '{"id": "b", "text": "bad \\ud800 surrogate"}\n'
                    + json.dumps({"id": "c", "text": text}) + "\n", encoding="utf-8")
    run = score_corpus(model, shards + [str(path)], 0.5, tokenizer, str(tmp_path / "out"),
                       workers=workers)
    assert not run.partial
    assert run.stats.records_malformed == 1
    assert run.stats.documents_total == len(docs) + 3
    with open(tmp_path / "out" / "kept" / "s001.jsonl.scored.jsonl", encoding="utf-8") as f:
        assert [json.loads(line)["id"] for line in f] == ["a", "c"]


def test_keep_manifest_holds_exactly_the_kept_ids(tmp_path, model, tokenizer):
    # ids that are blank or span lines would not read back one per line
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    path = corpus / "s000.jsonl"
    text = " ".join(POS_WORDS[:6])
    path.write_text("".join(json.dumps({"id": i, "text": text}) + "\n"
                            for i in ("b\nz", "a\rq", " ", "c")), encoding="utf-8")
    run = score_corpus(model, [str(path)], 0.5, tokenizer, str(tmp_path / "out"))
    assert run.stats.records_malformed == 3
    assert run.stats.documents_kept == 1
    assert read_keep_manifest(run.keep_manifest_path)[1] == ["c"]


# ids whose characters str.splitlines would split on, or that sort past ASCII
_ID_CHARS = ["a", "b", ":", "é", "中", "😀", "\u2028", "\x85", "\x0c", "\x1c"]
_ids = st.text(st.sampled_from(_ID_CHARS), min_size=1, max_size=4).filter(str.strip)


@settings(suppress_health_check=[*settings.default.suppress_health_check,
                                 HealthCheck.function_scoped_fixture])
@given(
    layout=st.lists(st.lists(st.tuples(_ids, st.booleans()), max_size=6), min_size=1, max_size=4),
    shared=st.booleans(),
)
def test_kept_id_sidecars_merge_into_the_manifest(
    model, tokenizer, monkeypatch, caplog, layout, shared
):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(2)))
    if shared and len(layout) > 1:    # one id kept in two shards
        layout[0].append(("dup\u2028é", True))
        layout[-1].insert(0, ("dup\u2028é", True))
    with tempfile.TemporaryDirectory() as tmp:
        shards = []
        for s, docs in enumerate(layout):
            path = os.path.join(tmp, f"s{s}.jsonl")
            write_documents(path, [
                Document(id=doc_id, text=" ".join((POS_WORDS if good else NEG_WORDS)[:12]))
                for doc_id, good in docs
            ])
            shards.append(path)
        manifests = []
        for workers in (1, 2):
            out = os.path.join(tmp, f"w{workers}")
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="websift.filtering"):
                run = score_corpus(model, shards, 0.5, tokenizer, out, workers=workers)
            kept_ids = []
            for name in run.completed_shards:
                kept_path, _, ids_path = filtering._output_paths(out, name)
                with open(kept_path, encoding="utf-8") as f:
                    shard_ids = [json.loads(line)["id"] for line in f]
                with open(ids_path, "rb") as f:
                    assert f.read() == "".join(i + "\n" for i in sorted(shard_ids)).encode()
                kept_ids += shard_ids
            assert read_keep_manifest(run.keep_manifest_path)[1] == sorted(kept_ids)
            duplicated = len(set(kept_ids)) != len(kept_ids)
            assert [r.getMessage() for r in caplog.records] == \
                ["duplicate document ids in kept stream; manifest keeps duplicates"] * duplicated
            with open(run.keep_manifest_path, "rb") as f:
                manifests.append(f.read())
        assert manifests[0] == manifests[1]


def test_score_corpus_empty_text_scores_half(tmp_path, model, tokenizer):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    path = corpus / "s000.jsonl"
    write_documents(str(path), [Document(id="s000:0", text="")])
    run = score_corpus(model, [str(path)], 0.5, tokenizer, str(tmp_path / "out"))
    rows = read_stream(run.out_dir, "kept")
    assert len(rows) == 1
    assert rows[0][2] == 0.5  # no tokens: exactly uniform, kept at the default cut


def test_score_documents_matches_predict_many_and_tallies_stats(model, tokenizer):
    words = POS_WORDS + NEG_WORDS
    texts = ["", "unseen", "unseen words"] + [
        # about 5 tokens a document counted against the budget: two chunks
        " ".join(words[(i * j) % len(words)] for j in range(i % 9))
        for i in range(CHUNK_TOKENS // 4 + 40)
    ]
    docs = [Document(id=f"d{i}", text=t) for i, t in enumerate(texts)]
    stats = FilterStats()
    got = list(score_documents(model, 0.5, iter(docs), stats))
    probs = [p.dist["positive"] for p in predict_many(model, texts, tokenizer)]
    assert [doc for doc, *_ in got] == docs
    assert [score for _, score, _, _ in got] == probs
    assert [kept for *_, kept, _ in got] == [p >= 0.5 for p in probs]
    # no token, or one unknown token, leaves no feature row; two unknown
    # tokens still make a hashed bigram row
    assert [bare for *_, bare in got[:3]] == [True, True, False]
    expected = FilterStats()
    for text, p in zip(texts, probs):
        expected.observe(p, len(tokenizer.tokenize(text)), p >= 0.5)
    assert stats == expected


def test_score_documents_memory_does_not_grow_with_the_stream(model, monkeypatch):
    """A lazily generated stream is scored a chunk at a time: the tracemalloc
    peak over 8N documents stays within 1.5x of that over N. That holds for
    documents of common words, N filling four chunks, and for documents whose
    every token is new and too long for the numpy hash, N being the fewest
    whose tokens outnumber the 4,096 entries of the token_hash cache, so that
    cache cannot grow with the stream either."""
    words = POS_WORDS + NEG_WORDS

    def common(i: int) -> str:
        return " ".join(words[(i + j) % len(words)] for j in range(170))

    def distinct_long(i: int) -> str:
        return " ".join(f"{i:08d}{j:03d}".ljust(classifier.HASH_BYTE_CAP + 1, "x")
                        for j in range(170))

    def peak(text, n: int) -> int:
        docs = (Document(id=f"d{i}", text=text(i)) for i in range(n))
        stats = FilterStats()
        tracemalloc.start()
        try:
            for _ in score_documents(model, 0.5, docs, stats):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stats.documents_total == n
        return peak

    # holding the 8N documents themselves would about double the larger peak
    per_chunk = CHUNK_TOKENS // 171     # 170 tokens and one
    small, large = peak(common, 4 * per_chunk), peak(common, 32 * per_chunk)
    assert large <= 1.5 * small, ("common", small, large)
    # long tokens hash a byte at a time, so N is kept small: 25 documents of
    # 170 tokens outnumber the cache, and a budget of 12 documents a chunk
    # makes the N run's chunks as full as the 8N run's
    monkeypatch.setattr(classifier, "CHUNK_TOKENS", 12 * 171)
    small, large = peak(distinct_long, 25), peak(distinct_long, 8 * 25)
    assert large <= 1.5 * small, ("distinct_long", small, large)


def test_score_documents_memory_does_not_grow_with_document_length(model):
    """Chunks are cut by tokens, not documents: the tracemalloc peak over
    documents ten times longer stays within 1.5x of that over short ones,
    the same number of documents each."""
    words = POS_WORDS + NEG_WORDS

    def peak(length: int) -> int:
        docs = (Document(id=f"d{i}", text=" ".join(words[(i + j) % len(words)]
                                                   for j in range(length)))
                for i in range(300))
        stats = FilterStats()
        tracemalloc.start()
        try:
            for _ in score_documents(model, 0.5, docs, stats):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stats.tokens_total == 300 * length
        return peak

    short, long = peak(100), peak(1000)
    assert long <= 1.5 * short, (short, long)


def test_score_corpus_argument_validation(tmp_path, model, tokenizer):
    shards, _ = make_corpus(tmp_path / "corpus", n_shards=1)
    with pytest.raises(ValueError):
        score_corpus(model, [], 0.5, tokenizer, str(tmp_path / "o1"))
    with pytest.raises(ValueError):
        score_corpus(model, shards, 1.5, tokenizer, str(tmp_path / "o2"))
    with pytest.raises(ValueError):
        score_corpus(model, shards, 0.5, tokenizer, str(tmp_path / "o3"), workers=0)
    dupe = [shards[0], os.path.join(str(tmp_path / "corpus"), "..", "corpus", "s000.jsonl")]
    with pytest.raises(ValueError):
        score_corpus(model, dupe, 0.5, tokenizer, str(tmp_path / "o4"))


def test_score_corpus_refuses_a_tokenizer_the_model_was_not_trained_with(tmp_path, model):
    shards, _ = make_corpus(tmp_path / "corpus", n_shards=1)
    other = load_tokenizer(TokenizerSpec(preserve_structural=False))
    with pytest.raises(TokenizerMismatch, match="preserve_structural"):
        score_corpus(model, shards, 0.5, other, str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()


def test_a_copied_vocabulary_file_is_the_model_tokenizer(tmp_path):
    # the model carries its vocabulary, so where the file lies does not matter
    vocab_file = tmp_path / "vocab.txt"
    vocab_file.write_text("\n".join(POS_WORDS + NEG_WORDS) + "\n", encoding="utf-8")
    greedy = load_tokenizer(TokenizerSpec(kind="vocab_greedy", vocab_path=str(vocab_file)))
    dataset = [LabeledExample(label, " ".join(words[i:] + words[:i]))
               for label, words in (("positive", POS_WORDS), ("negative", NEG_WORDS))
               for i in range(4)]
    model = train(dataset, ClassifierConfig(dim=8, bucket=64, min_count=1), greedy)
    shards, _ = make_corpus(tmp_path / "corpus", n_shards=1)
    texts = [" ".join(POS_WORDS[:5]), " ".join(NEG_WORDS[:5])]
    copy = tmp_path / "copy.txt"
    shutil.copyfile(vocab_file, copy)
    copied = load_tokenizer(TokenizerSpec(kind="vocab_greedy", vocab_path=str(copy)))
    assert predict_many(model, texts, copied) == predict_many(model, texts, greedy)
    run = score_corpus(model, shards, 0.5, copied, str(tmp_path / "copied"))
    clean = score_corpus(model, shards, 0.5, greedy, str(tmp_path / "clean"))
    assert run_bytes(run.out_dir) == run_bytes(clean.out_dir)

    unstructured = load_tokenizer(TokenizerSpec(kind="vocab_greedy", vocab_path=str(copy),
                                                preserve_structural=False))
    with open(copy, "a", encoding="utf-8") as f:
        f.write("ugly\n")
    extended = load_tokenizer(TokenizerSpec(kind="vocab_greedy", vocab_path=str(copy)))
    for other, match in ((unstructured, "preserve_structural"),
                         (extended, "1 tokens the model's lacks and lacks 0")):
        with pytest.raises(TokenizerMismatch, match=match):
            predict_many(model, texts, other)
        with pytest.raises(TokenizerMismatch, match=match):
            score_corpus(model, shards, 0.5, other, str(tmp_path / "refused"))
        assert not (tmp_path / "refused").exists()


class UnusedTokenizer(Tokenizer):
    """A tokenizer that check_tokenizer accepts but that must never run."""

    def tokenize(self, text):
        raise AssertionError("scoring tokenized with the tokenizer argument")


@pytest.mark.parametrize("kind", ["unicode_words", "vocab_greedy"])
def test_scoring_runs_the_tokenizer_the_model_carries(tmp_path, model, tokenizer, kind, monkeypatch):
    """A tokenizer argument is only checked against the model's: scoring
    runs model.tokenizer, so a checked tokenizer that cannot tokenize still
    gives the bytes and predictions of a run given the model's tokenizer."""
    if kind == "vocab_greedy":
        vocab_file = tmp_path / "vocab.txt"
        vocab_file.write_text("\n".join(POS_WORDS + NEG_WORDS) + "\n", encoding="utf-8")
        tokenizer = load_tokenizer(TokenizerSpec(kind="vocab_greedy", vocab_path=str(vocab_file)))
        dataset = [LabeledExample(label, " ".join(words[i:] + words[:i]))
                   for label, words in (("positive", POS_WORDS), ("negative", NEG_WORDS))
                   for i in range(4)]
        model = train(dataset, ClassifierConfig(dim=8, bucket=64, min_count=1), tokenizer)
    unused = UnusedTokenizer(tokenizer.spec, tokenizer.vocab)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(2)))
    shards, docs = make_corpus(tmp_path / "corpus", n_shards=3)
    for workers in (1, 2):
        clean = score_corpus(model, shards, 0.5, tokenizer, str(tmp_path / f"clean{workers}"),
                             workers=workers)
        run = score_corpus(model, shards, 0.5, unused, str(tmp_path / f"unused{workers}"),
                           workers=workers)
        assert run_bytes(run.out_dir) == run_bytes(clean.out_dir)
    texts = [doc.text for doc in docs]
    assert predict_many(model, texts, unused) == predict_many(model, texts, tokenizer)


# -- keep manifests -------------------------------------------------------------------

def test_keep_manifest_round_trip(tmp_path):
    path = str(tmp_path / "keep.txt")
    write_keep_manifest(path, "f" * 64, ["a:1", "b:2"])
    fp, ids = read_keep_manifest(path)
    assert fp == "f" * 64
    assert ids == ["a:1", "b:2"]
    with open(path, encoding="utf-8") as f:
        assert f.readline() == "# corpus_fingerprint: " + "f" * 64 + "\n"


def test_keep_manifest_streams_ids_and_counts_adjacent_duplicates(tmp_path):
    path = str(tmp_path / "keep.txt")
    ids = iter(["a", "a", "b\u2028x", "c", "c", "c"])
    assert write_keep_manifest(path, "f" * 64, ids) == 3
    with open(path, "rb") as f:
        assert f.read() == ("# corpus_fingerprint: " + "f" * 64 + "\n"
                            + "a\na\nb\u2028x\nc\nc\nc\n").encode()
    assert write_keep_manifest(path, "f" * 64, iter([])) == 0
    assert read_keep_manifest(path) == ("f" * 64, [])


def test_keep_manifest_missing_header(tmp_path):
    path = tmp_path / "keep.txt"
    path.write_text("a:1\nb:2\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_keep_manifest(str(path))


def test_intersect_matches_brute_force(tmp_path, model, tokenizer):
    shards, _ = make_corpus(tmp_path / "corpus")
    low = score_corpus(model, shards, 0.3, tokenizer, str(tmp_path / "low"))
    high = score_corpus(model, shards, 0.7, tokenizer, str(tmp_path / "high"))
    fp, ids = intersect([low.keep_manifest_path, high.keep_manifest_path])
    _, low_ids = read_keep_manifest(low.keep_manifest_path)
    _, high_ids = read_keep_manifest(high.keep_manifest_path)
    assert ids == sorted(set(low_ids) & set(high_ids))
    assert ids == sorted(high_ids)  # monotone thresholds: high is the subset
    assert fp == low.corpus_fingerprint


def test_intersect_rejects_mixed_corpora(tmp_path):
    a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    write_keep_manifest(a, "a" * 64, ["x"])
    write_keep_manifest(b, "b" * 64, ["x"])
    with pytest.raises(CorpusMismatch):
        intersect([a, b])


def test_intersect_needs_two_inputs(tmp_path):
    path = str(tmp_path / "a.txt")
    write_keep_manifest(path, "a" * 64, ["x"])
    with pytest.raises(ValueError):
        intersect([path])
    with pytest.raises(ValueError):
        intersect_ids([{"x"}])


def test_write_keep_manifest_refuses_descending_ids(tmp_path, monkeypatch):
    path = tmp_path / "keep.txt"
    # within one written chunk, then across two
    for window, ids in ((filtering.MANIFEST_WINDOW, ["a", "c", "b"]), (2, ["a", "b", "a"])):
        monkeypatch.setattr(filtering, "MANIFEST_WINDOW", window)
        with pytest.raises(ValueError, match="ascending"):
            write_keep_manifest(str(path), "f" * 64, iter(ids))
        assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("window", [1, filtering.MANIFEST_WINDOW])
def test_out_of_order_manifest_is_refused(tmp_path, monkeypatch, window):
    monkeypatch.setattr(filtering, "MANIFEST_WINDOW", window)
    unsorted, other = tmp_path / "unsorted.txt", str(tmp_path / "other.txt")
    unsorted.write_text(filtering.MANIFEST_HEADER_PREFIX + "f" * 64 + "\nx\nz\ny\n", encoding="utf-8")
    write_keep_manifest(other, "f" * 64, ["x"])
    names_path = re.escape(str(unsorted))
    with pytest.raises(ValueError, match=names_path):
        read_keep_manifest(str(unsorted))
    # other ends at x, before the disorder: the rest is still read and refused
    with pytest.raises(ValueError, match=names_path):
        intersect([other, str(unsorted)])


# one manifest's lines: an int is an id (the ids are sorted into place), a str a blank line
_manifest_entries = st.lists(st.one_of(st.integers(0, 30), st.sampled_from(["", " ", "\t"])),
                             max_size=12)


@pytest.mark.parametrize("window", [1, 2, 3, filtering.MANIFEST_WINDOW])
def test_streamed_intersection_matches_set_intersection(tmp_path, monkeypatch, window):
    # small windows put duplicate ids on both sides of a window boundary
    monkeypatch.setattr(filtering, "MANIFEST_WINDOW", window)
    fp = "f" * 64

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.lists(st.tuples(_manifest_entries, st.booleans()), min_size=2, max_size=5))
    def matches(manifests):
        lists, paths = [], []
        for n, (entries, crlf) in enumerate(manifests):
            ids = sorted(f"id{e:02d}" for e in entries if isinstance(e, int))
            placed = iter(ids)
            lines = [next(placed) if isinstance(e, int) else e for e in entries]
            path = tmp_path / f"m{n}.txt"
            path.write_text("".join(line + "\n" for line in [filtering.MANIFEST_HEADER_PREFIX + fp, *lines]),
                            encoding="utf-8", newline="\r\n" if crlf else "\n")
            lists.append(ids)
            paths.append(str(path))
        want = sorted(set.intersection(*map(set, lists)))
        assert intersect(paths) == (fp, want)
        assert intersect_ids([set(ids) for ids in lists]) == want
        assert read_keep_manifest(paths[0]) == (fp, lists[0])

    matches()


def test_streamed_intersection_memory_is_flat_in_manifest_size(tmp_path):
    # the same peak for a corpus and one ten times its size
    def peak(n):
        paths = [str(tmp_path / f"every{step}-{n}.txt") for step in (1, 2)]
        for step, path in zip((1, 2), paths):
            write_keep_manifest(path, "f" * 64, (f"doc{i:09d}" for i in range(0, n * step, step)))
        with filtering.open_intersection(paths) as (_, common):
            tracemalloc.start()
            try:
                kept = sum(1 for _ in common)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert kept == (n + 1) // 2
        return peak

    small, large = peak(35_000), peak(350_000)
    assert large <= small + 64 * 1024, (small, large)


# -- token length stats ----------------------------------------------------------------

def test_token_length_stats_exact(tmp_path, tokenizer):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    # every default bucket edge (0, 16, 32, ..., 8192) and the overflow bucket
    lengths = [9000, 0, 3, 15, 16, 31, 32, 40, 63, 64, 130, 300, 600, 1100, 2100, 5000]
    docs = [Document(id=f"s:{i}", text=" ".join(["w"] * n)) for i, n in enumerate(lengths)]
    path = str(corpus / "s.jsonl")
    write_documents(path, docs)
    stats = token_length_histogram([path], tokenizer)
    assert stats.documents == 16
    assert stats.tokens_total == sum(lengths)
    assert stats.mean == pytest.approx(sum(lengths) / 16)
    # nearest-rank: smallest value covering the quantile
    ordered = sorted(lengths)
    assert stats.p50 == ordered[math.ceil(0.5 * 16) - 1] == 63
    assert stats.p90 == ordered[math.ceil(0.9 * 16) - 1] == 5000
    assert stats.p99 == ordered[math.ceil(0.99 * 16) - 1] == 9000
    assert stats.histogram.edges == DEFAULT_TOKEN_BIN_EDGES
    # {0,3,15}, {16,31}, {32,40,63}, then one length in each wider bucket
    assert stats.histogram.counts == [3, 2, 3, 1, 1, 1, 1, 1, 1, 1]
    assert (stats.histogram.underflow, stats.histogram.overflow) == (0, 1)
    assert stats.histogram.total() == 16
    assert not stats.partial


def test_token_length_stats_memory_does_not_grow_with_the_corpus(tmp_path, tokenizer):
    # 20,000 documents of 0-4 tokens: one list entry per document would
    # alone take 160 KB; a count per distinct length takes a few hundred bytes
    path = str(tmp_path / "s.jsonl")
    n = 20_000
    write_documents(path, (Document(id=f"d{i}", text=" ".join(["w"] * (i % 5))) for i in range(n)))
    tracemalloc.start()
    try:
        stats = token_length_histogram([path], tokenizer)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stats.documents == n
    assert (stats.p50, stats.p90, stats.p99) == (2, 4, 4)
    assert peak < 64 * 1024


def test_token_length_stats_memory_does_not_grow_with_malformed_records(
    tmp_path, tokenizer, monkeypatch
):
    # each skipped record is logged as it is read, not held until its shard ends
    monkeypatch.setattr(filtering.log, "disabled", True)
    path = tmp_path / "s.jsonl"
    n = 20_000
    path.write_text("{not json\n" * n, encoding="utf-8")
    tracemalloc.start()
    try:
        stats = token_length_histogram([str(path)], tokenizer)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stats.records_malformed == n
    assert peak < 64 * 1024


def test_token_length_stats_malformed_and_failed(tmp_path, tokenizer):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    path = corpus / "s.jsonl"
    path.write_text('{"id": "s:0", "text": "a b"}\nnot json\n', encoding="utf-8")
    stats = token_length_histogram(
        [str(path), str(corpus / "missing.jsonl")], tokenizer
    )
    assert stats.documents == 1
    assert stats.records_malformed == 1
    assert stats.partial
    assert [name for name, _ in stats.failed_shards] == ["missing.jsonl"]


def test_token_length_stats_empty_corpus(tmp_path, tokenizer):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    path = str(corpus / "s.jsonl")
    write_documents(path, [])
    stats = token_length_histogram([path], tokenizer)
    assert stats.documents == 0
    assert stats.mean == 0.0
    assert stats.p50 == stats.p90 == stats.p99 == 0


@pytest.mark.parametrize("workers", [1, 2])
def test_token_length_stats_agree_with_score_corpus(
    tmp_path, model, tokenizer, monkeypatch, caplog, workers
):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(2)))
    shards, _ = make_corpus(tmp_path / "corpus", n_shards=3, docs_per_shard=8)
    for k, path in enumerate(shards):   # blank lines, malformed lines, an empty text
        with open(path, encoding="utf-8") as f:
            lines = f.readlines()
        lines[2:2] = ["\n", "{not json\n", json.dumps({"text": ""}) + "\n", "  \n"]
        lines.append(json.dumps({"id": k}) + "\n")
        with open(path, "w", encoding="utf-8") as f:
            f.writelines(lines)
    with open(shards[1], "rb") as f:
        packed = gzip.compress(f.read())
    os.remove(shards[1])
    shards[1] += ".gz"
    with open(shards[1], "wb") as f:
        f.write(packed)

    def warnings() -> list[str]:
        return [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]

    with caplog.at_level(logging.WARNING, logger="websift.filtering"):
        stats = token_length_histogram(shards, tokenizer)
        stats_warnings = warnings()
        caplog.clear()
        run = score_corpus(model, shards, 0.5, tokenizer, str(tmp_path / "out"), workers=workers)
        score_warnings = warnings()
    assert stats.records_malformed == run.stats.records_malformed == 2 * len(shards)
    assert stats.documents + stats.records_malformed == run.stats.documents_total
    assert stats.tokens_total == run.stats.tokens_total
    assert stats.histogram == run.stats.token_length_histogram
    assert stats_warnings == score_warnings
    assert len(stats_warnings) == 2 * len(shards)
