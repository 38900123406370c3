import dataclasses
import hashlib
import logging
import math
import os
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from websift.classifier import (
    BadMagic,
    ClassifierConfig,
    ClassifierModel,
    CorruptPayload,
    EmptyVocabulary,
    LabeledExample,
    MODEL_FORMAT_VERSION,
    MODEL_MAGIC,
    NGRAM_MULTIPLIER,
    TokenizerMismatch,
    UnsupportedVersion,
    Vocabulary,
    build_vocab,
    example_grads,
    HASH_BYTE_CAP,
    featurize,
    featurize_many,
    load_labeled_examples,
    load_model,
    parse_labeled_line,
    positive_probs,
    predict,
    predict_tokens,
    save_model,
    token_hash,
    token_hashes,
    train,
)
from websift import classifier
from websift.filtering import score_tokens
from websift.ioutil import canonical_json, sha256_file
from websift.tokenizers import Tokenizer, TokenizerSpec, load_tokenizer

# -- reference implementations used as oracles ---------------------------------

def fnv1a32(data: bytes) -> int:
    h = 2166136261
    for b in data:
        h = ((h ^ b) * 16777619) % (1 << 32)
    return h


def reference_ids(tokens, vocab_tokens, config) -> list[int]:
    """Featurization restated with plain python integers."""
    index = {t: i for i, t in enumerate(vocab_tokens)}
    v = len(vocab_tokens)
    ids = [index[t] for t in tokens if t in index]
    hashes = [fnv1a32(t.encode("utf-8")) for t in tokens]
    for n in range(2, config.word_ngrams + 1):
        for i in range(len(tokens) - n + 1):
            h = hashes[i]
            for k in range(1, n):
                h = (h * NGRAM_MULTIPLIER + hashes[i + k]) % (1 << 64)
            ids.append(h % config.bucket + v)
    return ids


def featurize_loop(tokens, vocab, config) -> np.ndarray:
    """featurize as one numpy loop per document, before featurize_many."""
    index = vocab.index
    v = len(vocab)
    parts = []
    uni = [i for i in map(index.get, tokens) if i is not None]
    parts.append(np.asarray(uni, dtype=np.int64))
    n_tokens = len(tokens)
    if config.word_ngrams > 1 and n_tokens > 1:
        hashes = np.fromiter(map(token_hash, tokens), dtype=np.uint64, count=n_tokens)
        bucket = np.uint64(config.bucket)
        for n in range(2, config.word_ngrams + 1):
            if n_tokens < n:
                break
            width = n_tokens - n + 1
            h = hashes[:width].copy()
            for k in range(1, n):
                h *= np.uint64(NGRAM_MULTIPLIER)
                h += hashes[k : k + width]
            parts.append((h % bucket).astype(np.int64) + v)
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts)


# -- hashing --------------------------------------------------------------------

def test_token_hash_published_vectors():
    # Standard FNV-1a 32-bit test values.
    assert token_hash("") == 0x811C9DC5
    assert token_hash("a") == 0xE40C292C
    assert token_hash("b") == 0xE70C2DE5
    assert token_hash("foobar") == 0xBF9CF968


@given(st.text(max_size=30))
def test_token_hash_matches_reference(s):
    assert token_hash(s) == fnv1a32(s.encode("utf-8"))


def test_token_hashes_published_vectors():
    got = token_hashes(["", "a", "b", "foobar"])
    assert got.dtype == np.uint64
    assert got.tolist() == [0x811C9DC5, 0xE40C292C, 0xE70C2DE5, 0xBF9CF968]


@given(st.lists(st.text(max_size=2 * HASH_BYTE_CAP), max_size=12))
def test_token_hashes_match_reference(tokens):
    got = token_hashes(tokens).tolist()
    assert got == [fnv1a32(t.encode("utf-8")) for t in tokens]
    assert got == [token_hash(t) for t in tokens]


# -- featurization ---------------------------------------------------------------

def small_config(**kw):
    base = dict(dim=4, bucket=97, word_ngrams=2, min_count=1)
    base.update(kw)
    return ClassifierConfig(**base)


def test_featurize_structure():
    config = small_config(bucket=10)
    vocab = Vocabulary(["a", "b", "c"])
    ids = featurize(["a", "b", "d", "c"], vocab, config)
    # unigrams first, unknown "d" skipped; then one id per bigram window
    assert ids[:3].tolist() == [0, 1, 2]
    assert len(ids) == 3 + 3
    assert all(3 <= i < 13 for i in ids[3:].tolist())
    assert ids.dtype == np.int64


def test_featurize_unknown_token_feeds_ngrams():
    config = small_config(bucket=10)
    vocab = Vocabulary(["a", "b"])
    with_d = featurize(["a", "d", "b"], vocab, config)
    with_e = featurize(["a", "e", "b"], vocab, config)
    # different unknown middle tokens must change the bigram hashes
    assert with_d[:2].tolist() == with_e[:2].tolist() == [0, 1]
    assert with_d[2:].tolist() != with_e[2:].tolist()


def test_featurize_empty():
    config = small_config()
    vocab = Vocabulary(["a"])
    assert featurize([], vocab, config).size == 0


@given(
    tokens=st.lists(st.sampled_from(["a", "b", "cc", "dd", "e"]), max_size=12),
    ngrams=st.integers(1, 4),
)
def test_featurize_matches_reference(tokens, ngrams):
    config = ClassifierConfig(dim=4, bucket=97, word_ngrams=ngrams, min_count=1)
    vocab = Vocabulary(["a", "b", "cc"])
    got = featurize(tokens, vocab, config)
    assert got.tolist() == reference_ids(tokens, ["a", "b", "cc"], config)


# Short and long, ASCII and multi-byte tokens; "x" * 33 and "é" * 17 are
# longer than HASH_BYTE_CAP bytes, "y" * 32 is exactly at it.
TOKENS = ["a", "b", "cc", "dd", "", "é", "日本語", "🙂", "x" * 33, "é" * 17, "y" * 32]


def compositions(n):
    """Every way to cut range(n) into consecutive non-empty runs."""
    for cuts in range(1 << max(n - 1, 0)):
        bounds = [0] + [i + 1 for i in range(n - 1) if cuts >> i & 1] + [n]
        yield list(zip(bounds, bounds[1:]))


@given(
    docs=st.lists(st.lists(st.sampled_from(TOKENS), max_size=7), max_size=5),
    vocab_tokens=st.lists(st.sampled_from(TOKENS), unique=True, max_size=6),
    ngrams=st.integers(1, 4),
)
def test_featurize_many_matches_per_document_loop(docs, vocab_tokens, ngrams):
    config = ClassifierConfig(dim=4, bucket=97, word_ngrams=ngrams, min_count=1)
    vocab = Vocabulary(vocab_tokens)
    expected = [featurize_loop(tokens, vocab, config).tolist() for tokens in docs]
    for runs in compositions(len(docs)):
        got = [ids for a, b in runs for ids in featurize_many(docs[a:b], vocab, config)]
        assert [ids.tolist() for ids in got] == expected
        assert all(ids.dtype == np.int64 for ids in got)
    assert featurize_many([], vocab, config) == []


def test_featurize_many_edge_documents():
    config = ClassifierConfig(dim=4, bucket=97, word_ngrams=3, min_count=1)
    vocab = Vocabulary(["a", "b"])
    docs = [[], ["a"], ["zz"], ["zz", "yy"], ["a", "zz", "b"], ["日本語"]]
    got = featurize_many(docs, vocab, config)
    assert [ids.tolist() for ids in got] == [reference_ids(d, ["a", "b"], config) for d in docs]
    assert [ids.size for ids in got] == [0, 1, 0, 1, 2 + 2 + 1, 0]


def test_featurize_many_chunks_internally(monkeypatch):
    config = ClassifierConfig(dim=4, bucket=97, word_ngrams=3, min_count=1)
    vocab = Vocabulary(["a", "cc"])
    docs = [["a", "b", "cc"], [], ["b"], ["cc", "a", "cc", "a"], ["é", "a"]]
    whole = [ids.tolist() for ids in featurize_many(docs, vocab, config)]
    # a budget of 1 puts each document in a chunk of its own; at 4 the
    # four-token document is longer than the budget
    for budget in (1, 4, 6):
        monkeypatch.setattr(classifier, "CHUNK_TOKENS", budget)
        assert [ids.tolist() for ids in featurize_many(docs, vocab, config)] == whole
        assert [ids.tolist() for ids in featurize_many(iter(docs), vocab, config)] == whole
    assert whole == [reference_ids(d, ["a", "cc"], config) for d in docs]


def test_token_chunks_fill_the_token_budget(monkeypatch):
    monkeypatch.setattr(classifier, "CHUNK_TOKENS", 6)
    docs = [["a"] * n for n in (0, 2, 1, 9, 0, 5, 0, 0, 3, 2)]
    chunks = [[len(d) for d in chunk] for chunk in classifier.token_chunks(docs)]
    # each document counts its tokens plus one; the nine-token one and the
    # five-token one (6 with its one) each fill a chunk alone
    assert chunks == [[0, 2, 1], [9], [0], [5], [0, 0, 3], [2]]
    assert list(classifier.token_chunks([])) == []
    drawn = []
    lazy = classifier.token_chunks(drawn.append(d) or d for d in docs)
    assert len(next(lazy)) == 3 and len(drawn) == 4     # the chunk and the item after it


def test_build_vocab_first_occurrence_order(tokenizer):
    seqs = [tokenizer.tokenize("b a"), tokenizer.tokenize("a c b")]
    vocab = build_vocab(seqs, small_config())
    assert vocab.tokens == ["b", "a", "c"]
    assert vocab.index == {"b": 0, "a": 1, "c": 2}


def test_build_vocab_min_count_filter(tokenizer):
    seqs = [tokenizer.tokenize("a a b")]
    vocab = build_vocab(seqs, small_config(min_count=2))
    assert vocab.tokens == ["a"]


def test_build_vocab_empty_raises(tokenizer):
    with pytest.raises(EmptyVocabulary):
        build_vocab([tokenizer.tokenize("a b c")], small_config(min_count=5))


# -- gradients -------------------------------------------------------------------

def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(1e-8, abs(a) + abs(b))


def central_diff(input_matrix, w, ids, y, which, index, h=1e-5):
    """Central difference of example_grads' loss in one weight:
    input_matrix[index] when which is "input", else w[index]."""
    im, wv = input_matrix.copy(), w.copy()
    m = im if which == "input" else wv
    orig = m[index]
    m[index] = orig + h
    hi = example_grads(im, wv, ids, y)[0]
    m[index] = orig - h
    lo = example_grads(im, wv, ids, y)[0]
    return (hi - lo) / (2 * h)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    dim = 8
    config = ClassifierConfig(dim=dim, bucket=16, min_count=1, word_ngrams=2)
    vocab = Vocabulary(["a", "b", "c"])
    rows = len(vocab) + config.bucket
    input_matrix = rng.uniform(-1.0 / dim, 1.0 / dim, size=(rows, dim))
    w = rng.normal(0.0, 0.5, size=dim)
    checks = 0
    # repeated "a" exercises rows hit more than once per example
    for tokens, y in [(["a", "b", "a", "c"], 0), (["b", "b"], 1), (["a"], 1), (["c", "b"], 0)]:
        ids = featurize(tokens, vocab, config)
        _, grad_w, grad_row = example_grads(input_matrix, w, ids, y)
        for j in range(dim):
            num = central_diff(input_matrix, w, ids, y, "w", j)
            assert rel_err(grad_w[j], num) < 1e-4
            checks += 1
        for r in sorted(set(ids.tolist())):
            mult = int(np.count_nonzero(ids == r))
            for j in range(dim):
                num = central_diff(input_matrix, w, ids, y, "input", (r, j))
                assert rel_err(mult * grad_row[j], num) < 1e-4
                checks += 1
    assert checks >= 100


def test_grads_without_features():
    w = np.random.default_rng(0).normal(size=4)
    ids = np.zeros(0, dtype=np.int64)
    loss, grad_w, grad_row = example_grads(np.zeros((1, 4)), w, ids, 0)
    assert loss == pytest.approx(math.log(2))
    assert np.all(grad_w == 0.0)
    assert grad_row.size == 0


@pytest.mark.parametrize("y", [0, 1])
@pytest.mark.parametrize("s", [1e4, -1e4])
def test_grads_saturate_without_warnings(s, y):
    # hidden = [1, 1], so the logit w . hidden is s
    w = np.array([s / 2, s / 2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loss, grad_w, grad_row = example_grads(np.ones((1, 2)), w, np.array([0]), y)
    d = float(s > 0) - y        # p - y with p saturated at exactly 0 or 1
    assert grad_w.tolist() == [d, d]
    assert grad_row.tolist() == (d * w).tolist()
    assert math.isfinite(loss)
    assert loss == (abs(s) if d else 0.0)


# -- training --------------------------------------------------------------------

def make_dataset(seed=0, n_per_class=15, words_per_doc=25):
    rng = np.random.default_rng(seed)
    pos_words = [f"good{i}" for i in range(30)]
    neg_words = [f"bad{i}" for i in range(30)]
    out = []
    for _ in range(n_per_class):
        out.append(LabeledExample("positive", " ".join(rng.choice(pos_words, words_per_doc))))
        out.append(LabeledExample("negative", " ".join(rng.choice(neg_words, words_per_doc))))
    return out


def f32(x: float) -> float:
    """x rounded to the nearest float32."""
    return float(np.float32(x))


def python_train(dataset, config, tokenizer):
    """The same SGD restated with scalar python floats.

    Independent of the numpy code paths except for drawing the initial
    input matrix from the identical generator. The input rows are float32
    values: rounded once at init, and each update is rounded to float32
    before it is subtracted and after. (The difference of two float32
    values, taken in float64 and rounded to float32, is the float32
    difference.)
    """
    counts: dict[str, int] = {}
    for ex in dataset:
        for t in tokenizer.tokenize(ex.text):
            counts[t] = counts.get(t, 0) + 1
    vocab_tokens = [t for t, c in counts.items() if c >= config.min_count]
    rows = len(vocab_tokens) + config.bucket
    rng = np.random.default_rng(config.seed)
    A = [[f32(x) for x in row]
         for row in rng.uniform(-1.0 / config.dim, 1.0 / config.dim, size=(rows, config.dim))]
    B = [[0.0] * config.dim for _ in range(2)]
    label_index = {name: i for i, name in enumerate(config.labels)}
    total = config.epochs * len(dataset)
    step = 0
    losses = []
    for _ in range(config.epochs):
        loss_sum = 0.0
        for ex in dataset:
            lr = config.lr * (1.0 - step / total)
            step += 1
            ids = reference_ids(tokenizer.tokenize(ex.text), vocab_tokens, config)
            y = label_index[ex.label]
            if ids:
                hidden = [sum(A[r][j] for r in ids) / len(ids) for j in range(config.dim)]
            else:
                hidden = [0.0] * config.dim
            logits = [sum(B[i][j] * hidden[j] for j in range(config.dim)) for i in range(2)]
            m = max(logits)
            exps = [math.exp(l - m) for l in logits]
            z = sum(exps)
            loss_sum += math.log(z) + m - logits[y]
            g = [exps[i] / z - (1.0 if i == y else 0.0) for i in range(2)]
            grad_row = [sum(B[i][j] * g[i] for i in range(2)) / max(len(ids), 1)
                        for j in range(config.dim)]
            for i in range(2):
                for j in range(config.dim):
                    B[i][j] -= lr * g[i] * hidden[j]
            for r in ids:
                for j in range(config.dim):
                    A[r][j] = f32(A[r][j] - f32(lr * grad_row[j]))
        losses.append(loss_sum / len(dataset))
    return vocab_tokens, A, B, losses


def test_train_matches_python_reference(tokenizer):
    dataset = [
        LabeledExample("positive", "good day good food"),
        LabeledExample("negative", "bad day bad food"),
        LabeledExample("positive", "good good night"),
        LabeledExample("negative", "bad night bad"),
    ]
    config = ClassifierConfig(dim=3, bucket=5, word_ngrams=2, min_count=1, epochs=2, lr=0.5)
    # the one-vector trainer against fastText's two-row softmax: w is B[1] - B[0]
    vocab, input_matrix, w, epoch_losses = classifier._sgd(dataset, config, tokenizer)
    vocab_tokens, A, B, losses = python_train(dataset, config, tokenizer)
    assert vocab.tokens == vocab_tokens
    np.testing.assert_allclose(input_matrix, np.array(A), rtol=0, atol=1e-12)
    np.testing.assert_allclose(w, np.array(B[1]) - np.array(B[0]), rtol=0, atol=1e-12)
    np.testing.assert_allclose(epoch_losses, losses, rtol=0, atol=1e-12)


def numpy_loop_train(dataset, config, tokenizer):
    """The per-epoch numpy loop train replaced, kept as a bit-exact oracle.

    Every step tokenizes and featurizes its example again and applies the
    row update, rounded to float32, with np.subtract.at on float32 rows.
    """
    vocab = build_vocab((tokenizer.tokenize(ex.text) for ex in dataset), config)
    rng = np.random.default_rng(config.seed)
    rows = len(vocab) + config.bucket
    input_matrix = rng.uniform(-1.0 / config.dim, 1.0 / config.dim,
                               size=(rows, config.dim)).astype(np.float32)
    w = np.zeros(config.dim)
    label_index = {name: i for i, name in enumerate(config.labels)}
    total = config.epochs * len(dataset)
    t = 0
    losses = []
    for _ in range(config.epochs):
        loss_sum = 0.0
        for ex in dataset:
            lr_t = config.lr * (1.0 - t / total)
            t += 1
            ids = featurize(tokenizer.tokenize(ex.text), vocab, config)
            loss, grad_w, grad_row = example_grads(input_matrix, w, ids, label_index[ex.label])
            loss_sum += loss
            w -= 2.0 * lr_t * grad_w
            if ids.size:
                np.subtract.at(input_matrix, ids, (lr_t * grad_row).astype(np.float32))
        losses.append(loss_sum / len(dataset))
    return input_matrix, w, losses


def test_train_is_bit_identical_to_per_occurrence_updates(tokenizer):
    # Repeated words and repeated bigram/trigram windows make feature ids
    # occur 3+ times within one example; "zzz" alone has no feature at all.
    dataset = [
        LabeledExample("positive", "good good good good day good day good day"),
        LabeledExample("negative", "bad food bad food bad food bad food bad"),
        LabeledExample("positive", "la la la la la la good"),
        LabeledExample("negative", "zzz"),
        LabeledExample("negative", "bad bad bad night bad bad bad night"),
        LabeledExample("positive", "good night good night good night day"),
    ]
    config = ClassifierConfig(dim=5, bucket=7, word_ngrams=3, min_count=2, epochs=3, lr=0.3)
    vocab = build_vocab((tokenizer.tokenize(ex.text) for ex in dataset), config)
    assert "zzz" not in vocab.index
    repeats = [np.unique(featurize(tokenizer.tokenize(ex.text), vocab, config),
                         return_counts=True)[1].max(initial=0) for ex in dataset]
    assert max(repeats) >= 3 and min(repeats) == 0

    # at lr 1.0 some rows end differently unless each update is rounded to float32
    for lr in (config.lr, 1.0):
        run = dataclasses.replace(config, lr=lr)
        _, trained_input, trained_w, epoch_losses = classifier._sgd(dataset, run, tokenizer)
        input_matrix, w, losses = numpy_loop_train(dataset, run, tokenizer)
        assert np.array_equal(trained_input, input_matrix)
        assert np.array_equal(trained_w, w)
        assert list(epoch_losses) == losses


def test_model_bytes_do_not_depend_on_draw_blocks_or_chunk_cuts(monkeypatch, tmp_path, tokenizer):
    """_sgd draws the matrix _BLOCK_ELEMS values at a time and featurizes a
    CHUNK_TOKENS chunk at a time. Every cut matches the oracle, which draws
    the matrix in one block and featurizes each step alone, bit for bit, and
    every model saves to the same bytes."""
    dataset = make_dataset(n_per_class=6, words_per_doc=9) + [
        LabeledExample("positive", " ".join(["good1", "good2"] * 20)),
        LabeledExample("negative", ""),
    ]
    config = ClassifierConfig(dim=5, bucket=7, word_ngrams=3, min_count=1, epochs=2, lr=0.3)
    input_matrix, w, losses = numpy_loop_train(dataset, config, tokenizer)
    rows = input_matrix.shape[0]
    # 3, 5 and 9 rows a block, each leaving a partial last block
    cases = [(n * config.dim + 1, classifier.CHUNK_TOKENS) for n in (3, 5, 9)]
    assert all(rows % (block_elems // config.dim) for block_elems, _ in cases)
    # one example a chunk; two examples a chunk, and the 40-token example
    # over the budget; several examples a chunk, cut across chunks
    cases += [(classifier._BLOCK_ELEMS, budget) for budget in (1, 25, 64)]
    digests = set()
    for block_elems, budget in cases:
        monkeypatch.setattr(classifier, "_BLOCK_ELEMS", block_elems)
        monkeypatch.setattr(classifier, "CHUNK_TOKENS", budget)
        _, trained_input, trained_w, epoch_losses = classifier._sgd(dataset, config, tokenizer)
        assert np.array_equal(trained_input, input_matrix)
        assert np.array_equal(trained_w, w)
        assert list(epoch_losses) == losses
        digests.add(save_model(train(dataset, config, tokenizer), str(tmp_path / "model.bin")))
    assert len(digests) == 1


def test_training_memory_grows_with_the_int32_ids_only(tokenizer):
    """What training holds per example is its int32 feature ids, its int32
    distinct rows (no more than its ids) and a few offsets: the tracemalloc
    peak grows by under 10 bytes per added feature id. int64 ids and a
    separate array, tuple and list per example held about 15 bytes."""
    rng = np.random.default_rng(5)
    words = [f"w{i}" for i in range(1000)]
    dataset = [LabeledExample(label, " ".join(rng.choice(words, 100)))
               for label in ("negative", "positive") * 1200]
    config = ClassifierConfig(dim=4, bucket=1000, word_ngrams=3, min_count=1, epochs=1)
    peaks = []
    for n in (600, 2400):
        tracemalloc.start()
        try:
            train(dataset[:n], config, tokenizer)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    vocab = build_vocab((tokenizer.tokenize(ex.text) for ex in dataset), config)
    added_ids = sum(map(len, featurize_many(
        (tokenizer.tokenize(ex.text) for ex in dataset[600:]), vocab, config)))
    assert added_ids >= 1800 * 290      # about 300 ids an example
    assert (peaks[1] - peaks[0]) / added_ids < 10, peaks


def test_sgd_holds_one_float32_matrix(tokenizer):
    config = ClassifierConfig(dim=64, bucket=200_000, min_count=1, epochs=1)
    dataset = make_dataset(n_per_class=2)
    tracemalloc.start()
    try:
        _, input_matrix, w, _ = classifier._sgd(dataset, config, tokenizer)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert input_matrix.dtype == np.float32 and input_matrix.flags.c_contiguous
    assert w.dtype == np.float64
    # a float64 copy of the matrix, even a passing one, would double the peak
    assert peak <= 1.1 * input_matrix.nbytes


def test_example_grads_on_float32_rows_match_their_float64_copy():
    rng = np.random.default_rng(8)
    for probe in range(200):
        dim = int(rng.choice([1, 2, 7, 64, 256]))
        rows = int(rng.integers(1, 40))
        a32 = rng.uniform(-1.0 / dim, 1.0 / dim, size=(rows, dim)).astype(np.float32)
        ids = rng.integers(0, rows, size=int(rng.integers(0, 600)))
        w = rng.normal(0.0, 2.0, size=dim)
        y = probe % 2
        loss32, grad_w32, grad_row32 = example_grads(a32, w, ids, y)
        loss64, grad_w64, grad_row64 = example_grads(a32.astype(np.float64), w, ids, y)
        assert loss32 == loss64
        assert grad_w32.dtype == np.float64 and grad_w32.tobytes() == grad_w64.tobytes()
        assert grad_row32.tobytes() == grad_row64.tobytes()


def test_train_counts_each_zero_feature_example_once(tokenizer, caplog):
    dataset = make_dataset(n_per_class=5) + [LabeledExample("negative", "")]
    config = ClassifierConfig(dim=4, bucket=31, word_ngrams=2, min_count=1, epochs=3)
    with caplog.at_level(logging.INFO, logger="websift.classifier"):
        train(dataset, config, tokenizer)
    messages = [r.getMessage() for r in caplog.records if "zero-feature" in r.getMessage()]
    assert messages == ["training saw 1 zero-feature examples"]


def test_train_is_deterministic(tmp_path, tokenizer):
    dataset = make_dataset()
    config = ClassifierConfig(dim=8, bucket=64, min_count=1)
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    save_model(train(dataset, config, tokenizer), str(a))
    save_model(train(dataset, config, tokenizer), str(b))
    assert a.read_bytes() == b.read_bytes()


def test_train_holds_one_chunk_of_token_lists(monkeypatch, tokenizer):
    """train tokenizes as it goes: while the vocabulary is counted, and while
    each chunk is featurized, no token lists are alive but that chunk's and
    the one that closed it. The model does not depend on the budget."""
    dataset = make_dataset(n_per_class=20, words_per_doc=9)
    config = ClassifierConfig(dim=8, bucket=64, min_count=1)
    expected = classifier.model_sha256(train(dataset, config, tokenizer))

    live = [0]      # token lists alive

    class TokenList(list):
        def __del__(self):
            live[0] -= 1

    class Tracking(Tokenizer):
        def tokenize(self, text):
            live[0] += 1
            return TokenList(super().tokenize(text))

    counted, featurized = [], []
    real_build_vocab, real_featurize_chunk = classifier.build_vocab, classifier._featurize_chunk

    def build_vocab(token_seqs, config):
        def drawn():
            for tokens in token_seqs:
                counted.append(live[0])
                yield tokens
        return real_build_vocab(drawn(), config)

    def featurize_chunk(token_lists, vocab, config):
        featurized.append((live[0], len(token_lists)))
        return real_featurize_chunk(token_lists, vocab, config)

    monkeypatch.setattr(classifier, "build_vocab", build_vocab)
    monkeypatch.setattr(classifier, "_featurize_chunk", featurize_chunk)
    monkeypatch.setattr(classifier, "CHUNK_TOKENS", 30)     # three examples a chunk
    model = train(dataset, config, Tracking(tokenizer.spec))
    assert classifier.model_sha256(model) == expected
    assert len(counted) == len(dataset) and max(counted) <= 2
    assert len(featurized) > 10 and all(alive <= n + 1 for alive, n in featurized), featurized
    assert live == [0]


def test_train_loss_decreases_and_separates(tokenizer):
    dataset = make_dataset(words_per_doc=40)
    config = ClassifierConfig(dim=16, bucket=1000, min_count=1)
    model = train(dataset, config, tokenizer)
    assert len(model.epoch_losses) == config.epochs
    assert list(model.epoch_losses) == sorted(model.epoch_losses, reverse=True)
    assert model.epoch_losses[-1] < model.epoch_losses[0]
    holdout = make_dataset(seed=99, n_per_class=10, words_per_doc=40)
    for ex in holdout:
        assert predict(model, ex.text, tokenizer).label == ex.label


def test_train_rejects_bad_input(tokenizer):
    with pytest.raises(ValueError):
        train([], small_config(), tokenizer)
    with pytest.raises(ValueError):
        train([LabeledExample("weird", "a b c")], small_config(), tokenizer)


# -- prediction ------------------------------------------------------------------

@pytest.fixture(scope="module")
def toy_model(tokenizer):
    config = ClassifierConfig(dim=8, bucket=64, min_count=1)
    return train(make_dataset(), config, tokenizer)


def test_predict_distribution(toy_model, tokenizer):
    pred = predict(toy_model, "good0 good1 good2 good3 good4 good5", tokenizer)
    assert pred.label == "positive"
    assert set(pred.dist) == {"negative", "positive"}
    assert sum(pred.dist.values()) == pytest.approx(1.0)
    assert pred.prob == pytest.approx(max(pred.dist.values()))


def test_score_is_positive_probability(toy_model, tokenizer):
    text = "good0 bad3 good2"
    s = predict(toy_model, text, tokenizer).dist["positive"]
    assert 0.0 <= s <= 1.0
    assert s == float(predict_tokens(toy_model, tokenizer.tokenize(text))[1])


def test_predict_no_content_is_uniform(toy_model, tokenizer):
    assert predict_tokens(toy_model, []).tolist() == [0.5, 0.5]
    assert predict(toy_model, "", tokenizer).dist["positive"] == 0.5
    # argmax tie resolves to the first configured label
    assert predict(toy_model, "", tokenizer).label == "negative"


@pytest.fixture(scope="module")
def toy_matrices(tokenizer):
    """The toy model's training run before its weights are folded into the table."""
    config = ClassifierConfig(dim=8, bucket=64, min_count=1)
    return classifier._sgd(make_dataset(), config, tokenizer)


def softmax_positive(input_matrix, w, ids) -> float:
    """The scoring formula before the logit table: the two-label softmax's
    positive probability, sigmoid(w . mean(A[ids]))."""
    if not ids.size:
        return 0.5
    return float(1.0 / (1.0 + np.exp(-(w @ input_matrix[ids].mean(axis=0, dtype=np.float64)))))


# in-vocabulary words, out-of-vocabulary words and repeats of both
SCORE_WORDS = ["good1", "good2", "bad1", "bad2", "unseen", "zz"]


@pytest.fixture(scope="module")
def wide_model(toy_model):
    """The toy model with a table of wide, mixed-sign entries: a different
    summation order changes a document's logit in its last bits, and with
    logits near 1 that shows in the probability."""
    table = np.random.default_rng(7).normal(1.0, 4.0, size=toy_model.table.shape)
    return dataclasses.replace(toy_model, table=table)


@given(docs=st.lists(st.lists(st.sampled_from(SCORE_WORDS), max_size=6), max_size=3))
def test_table_scores_do_not_depend_on_chunking(docs, toy_model, wide_model, toy_matrices,
                                                tokenizer):
    docs += [[], ["unseen"], ["good1"] * 4]
    single = [score_tokens(toy_model, d) for d in docs]
    with pytest.MonkeyPatch.context() as mp:
        for model in (toy_model, wide_model):
            expected = [score_tokens(model, d) for d in docs]
            # a budget of 1 puts each document in a chunk of its own, and at
            # 5 the document of four "good1" tokens is longer than the budget
            for budget in (1, 5, classifier.CHUNK_TOKENS):
                mp.setattr(classifier, "CHUNK_TOKENS", budget)
                for runs in compositions(len(docs)):
                    got = [s for a, b in runs for s in positive_probs(
                        model, featurize_many(docs[a:b], model.vocab, model.config)).tolist()]
                    assert got == expected
    vocab, input_matrix, w, _ = toy_matrices
    assert vocab.tokens == toy_model.vocab.tokens
    for tokens, score in zip(docs, single):
        ids = featurize(tokens, toy_model.vocab, toy_model.config)
        pred = predict(toy_model, " ".join(tokens), tokenizer)
        assert pred.dist["positive"] == score
        assert abs(score - softmax_positive(input_matrix, w, ids)) <= 1e-12
        if not ids.size:
            assert predict_tokens(toy_model, tokens).tolist() == [0.5, 0.5]
            assert pred.label == "negative"


def test_logit_table_adds_columns_in_order(monkeypatch, toy_model, toy_matrices):
    _, input_matrix, w, _ = toy_matrices
    assert input_matrix.dtype == np.float32
    assert np.array_equal(toy_model.table, classifier._logit_table(input_matrix, w))
    # dim 16: numpy sums a lone row of 8 or more values pairwise, in another order
    rng = np.random.default_rng(4)
    dim = 16
    a, w = rng.normal(size=(23, dim)), rng.normal(size=dim)
    a[0] = -abs(a[0])  # under w = 0 every term is -0.0, and the sum must still be +0.0
    for rows, weights in [(a, w), (a.astype(np.float32), w), (a, np.zeros(dim))]:
        expected = []
        for row in rows.tolist():
            s = 0.0
            for x, wk in zip(row, weights.tolist()):
                s += x * wk
            expected.append(s)
        # two rows, five rows with a remainder, eleven rows with one row over, all rows
        for block_elems in (dim, 5 * dim, 11 * dim, 1 << 18):
            monkeypatch.setattr(classifier, "_BLOCK_ELEMS", block_elems)
            got = classifier._logit_table(rows, weights)
            assert got.tobytes() == np.array(expected).tobytes()


def test_positive_probs_saturates_without_warnings():
    config = ClassifierConfig(dim=1, bucket=1, min_count=1)
    model = ClassifierModel(config, Vocabulary(["a"]), np.array([-1e4, 1e4]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = positive_probs(model, [np.array([0]), np.array([1]), np.array([], dtype=np.int64)])
    assert got.tolist() == [0.0, 1.0, 0.5]


# -- model file format -----------------------------------------------------------

def test_model_round_trip(tmp_path, toy_model, tokenizer):
    path = str(tmp_path / "model.bin")
    save_model(toy_model, path)
    loaded = load_model(path)
    assert loaded.config == toy_model.config
    assert loaded.vocab == toy_model.vocab
    assert loaded.tokenizer == toy_model.tokenizer
    assert np.array_equal(loaded.table, toy_model.table)
    for text in ["good1 good2", "bad1 bad2", "good1 bad2"]:
        assert predict(loaded, text, tokenizer) == predict(toy_model, text, tokenizer)
    again = str(tmp_path / "again.bin")
    save_model(loaded, again)
    assert sha256_file(again) == sha256_file(path)


def test_save_model_returns_file_sha256(tmp_path, toy_model):
    path = str(tmp_path / "model.bin")
    assert save_model(toy_model, path) == sha256_file(path)


def test_model_file_starts_with_magic(tmp_path, toy_model):
    path = tmp_path / "model.bin"
    save_model(toy_model, str(path))
    assert path.read_bytes()[:4] == MODEL_MAGIC == b"UFWC"


def test_load_rejects_bad_magic(tmp_path, toy_model):
    path = tmp_path / "model.bin"
    save_model(toy_model, str(path))
    data = path.read_bytes()
    path.write_bytes(b"X" + data[1:])
    with pytest.raises(BadMagic):
        load_model(str(path))
    path.write_bytes(b"")
    with pytest.raises(BadMagic):
        load_model(str(path))


def test_load_rejects_unsupported_version(tmp_path, toy_model):
    path = tmp_path / "model.bin"
    save_model(toy_model, str(path))
    data = path.read_bytes()
    assert MODEL_FORMAT_VERSION == 4
    # versions 1 and 2 named a vocabulary file instead of holding the
    # vocabulary, and version 3 framed each vocabulary token with its count
    for version in (1, 2, 3, 5):
        body = bytearray(data[:-8])
        body[4:8] = struct.pack("<I", version)
        # keep the checksum valid so only the version trips
        path.write_bytes(bytes(body) + hashlib.sha256(bytes(body)).digest()[:8])
        with pytest.raises(UnsupportedVersion, match="reads version 4 only; retrain") as err:
            load_model(str(path))
        assert err.value.version == version


def with_json_block(data: bytes, n: int, block) -> bytes:
    """A model file's bytes with its n-th JSON block (0 config, 1 tokenizer,
    2 vocabulary) replaced by block's canonical JSON, under a valid checksum."""
    at = 8
    for _ in range(n):
        at += 4 + struct.unpack_from("<I", data, at)[0]
    end = at + 4 + struct.unpack_from("<I", data, at)[0]
    new = canonical_json(block).encode("utf-8")
    body = data[:at] + struct.pack("<I", len(new)) + new + data[end:-8]
    return body + hashlib.sha256(body).digest()[:8]


UNICODE_SPEC = TokenizerSpec().to_json_obj()
GREEDY_SPEC = TokenizerSpec(kind="vocab_greedy", vocab_path="vocab.txt").to_json_obj()


@pytest.mark.parametrize("block, reason", [
    ({"spec": UNICODE_SPEC, "vocab": ["a"]}, "unicode_words tokenizer has no vocabulary"),
    ({"spec": GREEDY_SPEC, "vocab": None}, "vocab_greedy tokenizer needs its vocabulary"),
    ({"spec": GREEDY_SPEC}, "vocab_greedy tokenizer needs its vocabulary"),
    ({"spec": GREEDY_SPEC, "vocab": ["", "a"]}, "must be non-empty, sorted and distinct"),
    ({"spec": GREEDY_SPEC, "vocab": ["b", "a"]}, "must be non-empty, sorted and distinct"),
    ({"spec": GREEDY_SPEC, "vocab": ["a", "a"]}, "must be non-empty, sorted and distinct"),
    ({"spec": GREEDY_SPEC, "vocab": ["a", 1]}, "must be a JSON string"),
], ids=["vocab-on-unicode-words", "null-vocab-on-greedy", "no-vocab-on-greedy", "empty-token",
        "unsorted", "duplicated", "non-string"])
def test_load_rejects_a_malformed_tokenizer_block(tmp_path, toy_model, block, reason):
    path = tmp_path / "model.bin"
    save_model(toy_model, str(path))
    path.write_bytes(with_json_block(path.read_bytes(), 1, block))
    with pytest.raises(CorruptPayload, match=f"bad tokenizer block: .*{reason}"):
        load_model(str(path))


@pytest.mark.parametrize("block, reason", [
    ({"tokens": ["a"]}, "expected a JSON array of strings"),
    (["a", 1], "expected a JSON array of strings"),
    (["a", None], "expected a JSON array of strings"),
    (["a", ["b"]], "expected a JSON array of strings"),
    (["a", "b", "a"], "duplicate tokens"),
], ids=["object", "number", "null", "nested", "repeated"])
def test_load_rejects_a_malformed_vocabulary_block(tmp_path, toy_model, block, reason):
    path = tmp_path / "model.bin"
    save_model(toy_model, str(path))
    path.write_bytes(with_json_block(path.read_bytes(), 2, block))
    with pytest.raises(CorruptPayload, match=f"bad vocabulary block: {reason}"):
        load_model(str(path))


def test_load_rejects_bit_flip(tmp_path, toy_model):
    path = tmp_path / "model.bin"
    save_model(toy_model, str(path))
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(CorruptPayload):
        load_model(str(path))


def test_load_rejects_truncation(tmp_path, toy_model):
    path = tmp_path / "model.bin"
    save_model(toy_model, str(path))
    data = path.read_bytes()
    for cut in (len(data) - 1, len(data) // 2, 10):
        path.write_bytes(data[:cut])
        with pytest.raises(CorruptPayload):
            load_model(str(path))


def test_load_rejects_trailing_garbage(tmp_path, toy_model):
    path = tmp_path / "model.bin"
    save_model(toy_model, str(path))
    path.write_bytes(path.read_bytes() + b"extra")
    with pytest.raises(CorruptPayload):
        load_model(str(path))


def test_load_rejects_every_byte_flip(tmp_path, toy_model):
    path = tmp_path / "model.bin"
    save_model(toy_model, str(path))
    data = path.read_bytes()
    with open(path, "r+b", buffering=0) as f:
        for pos, byte in enumerate(data):
            os.pwrite(f.fileno(), bytes([byte ^ 0xFF]), pos)
            with pytest.raises((BadMagic, UnsupportedVersion, CorruptPayload)):
                load_model(str(path))
            os.pwrite(f.fileno(), bytes([byte]), pos)


def _length_fields(data: bytes) -> dict[str, tuple[int, str]]:
    """Offset and struct format of each length field of a version 4 model file."""
    tokenizer_at = 12 + struct.unpack_from("<I", data, 8)[0]
    vocab_at = tokenizer_at + 4 + struct.unpack_from("<I", data, tokenizer_at)[0]
    table_at = vocab_at + 4 + struct.unpack_from("<I", data, vocab_at)[0]
    return {
        "config length": (8, "<I"),
        "tokenizer length": (tokenizer_at, "<I"),
        "vocabulary length": (vocab_at, "<I"),
        "table length": (table_at, "<Q"),
    }


def test_load_checks_each_length_before_allocating(tmp_path, toy_model):
    path = tmp_path / "model.bin"
    save_model(toy_model, str(path))
    data = path.read_bytes()
    for field, (offset, fmt) in _length_fields(data).items():
        for value in (2**32 - 1, 2**63):
            if value >= 1 << (8 * struct.calcsize(fmt)):
                continue
            body = bytearray(data[:-8])
            struct.pack_into(fmt, body, offset, value)
            # a valid checksum, so only the length field can stop the load
            path.write_bytes(bytes(body) + hashlib.sha256(body).digest()[:8])
            tracemalloc.start()
            try:
                with pytest.raises(CorruptPayload):
                    load_model(str(path))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, (field, value, peak)


def test_load_peaks_near_the_file_size_and_resaves_its_bytes(tmp_path, zero_model_file):
    size = os.path.getsize(zero_model_file)
    assert size >= 8_000_000
    tracemalloc.start()
    try:
        model = load_model(zero_model_file)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * size
    again = str(tmp_path / "again.bin")
    save_model(model, again)
    with open(zero_model_file, "rb") as a, open(again, "rb") as b:
        assert a.read() == b.read()


def test_model_records_its_tokenizer(tmp_path, tokenizer):
    vocab_file = tmp_path / "vocab.txt"
    vocab_file.write_text("good\nbad\n", encoding="utf-8")
    spec = TokenizerSpec(kind="vocab_greedy", vocab_path=str(vocab_file))
    greedy = load_tokenizer(spec)
    model = train(make_dataset(n_per_class=4), ClassifierConfig(dim=4, bucket=32, min_count=1),
                  greedy)
    assert model.tokenizer == Tokenizer(spec, ("bad", "good"))
    path = str(tmp_path / "model.bin")
    save_model(model, path)
    vocab_file.unlink()     # the model file holds the vocabulary
    loaded = load_model(path)
    assert loaded.tokenizer == model.tokenizer
    assert loaded.tokenizer == greedy
    assert predict(loaded, "good bad", greedy) == predict(model, "good bad", greedy)
    with pytest.raises(TokenizerMismatch, match="unicode_words"):
        predict(loaded, "good bad", tokenizer)
    edited = Tokenizer(spec, tuple(sorted(greedy.vocab + ("ugly",))))
    with pytest.raises(TokenizerMismatch, match="1 tokens the model's lacks and lacks 0"):
        predict(loaded, "good bad", edited)


# -- config ----------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        ClassifierConfig(dim=0)
    for lr in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="lr must be positive and finite"):
            ClassifierConfig(lr=lr)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        ClassifierConfig(seed=-1)
    assert ClassifierConfig(seed=0).seed == 0
    with pytest.raises(ValueError):
        ClassifierConfig(labels=("same", "same"))
    with pytest.raises(ValueError):
        ClassifierConfig(labels=("only",))
    # character n-grams are gone, and so are their reserved fields
    with pytest.raises(ValueError, match="ClassifierConfig: unknown key 'maxn', 'minn'"):
        ClassifierConfig.from_json_obj({"minn": 0, "maxn": 0})


def test_config_json_round_trip():
    config = ClassifierConfig(dim=32, labels=("drop", "keep"))
    obj = {
        "dim": 32, "lr": 0.1, "word_ngrams": 3, "min_count": 5, "epochs": 3,
        "bucket": 2_000_000, "seed": 17, "labels": ["drop", "keep"],
    }
    assert ClassifierConfig.from_json_obj(obj) == config
    assert config.to_json_obj() == obj


# -- labeled data loading ----------------------------------------------------------

def test_parse_labeled_line_fasttext_form():
    ex = parse_labeled_line("__label__positive the text here", 1, "f")
    assert ex == LabeledExample("positive", "the text here")


def test_parse_labeled_line_json_form():
    ex = parse_labeled_line('{"label": "negative", "text": "spam spam"}', 1, "f")
    assert ex == LabeledExample("negative", "spam spam")


@pytest.mark.parametrize("line", [
    "__label__ missing name",
    "not a labeled line",
    '{"label": "x"}',
    '{"text": "x"}',
    '{"label": 3, "text": "x"}',
    "[1, 2]",
])
def test_parse_labeled_line_rejects(line):
    with pytest.raises(ValueError):
        parse_labeled_line(line, 7, "f")


@pytest.mark.parametrize("line", [
    '{"label": "positive", "text": "bad \\ud800 surrogate"}',
    '{"label": "\\udfff", "text": "x"}',
])
def test_parse_labeled_line_rejects_a_lone_surrogate_escape(line):
    with pytest.raises(ValueError, match="^f:7: 'label' or 'text' holds a lone surrogate escape$"):
        parse_labeled_line(line, 7, "f")


def test_load_labeled_examples(tmp_path):
    path = tmp_path / "train.txt"
    path.write_text(
        "__label__positive alpha beta\n"
        "\n"
        '{"label": "negative", "text": "gamma"}\n',
        encoding="utf-8",
    )
    assert load_labeled_examples(str(path)) == [
        LabeledExample("positive", "alpha beta"),
        LabeledExample("negative", "gamma"),
    ]


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
def test_load_labeled_examples_reads_lf_crlf_and_cr_lines_alike(tmp_path, newline):
    # each ends a line, as in text mode's universal newlines
    path = tmp_path / "train.txt"
    lines = ["__label__positive alpha  beta\t", "", '{"label": "negative", "text": "gamma é"}']
    path.write_bytes(newline.join(line.encode("utf-8") for line in lines) + newline)
    with open(path, "r", encoding="utf-8") as f:
        assert [line.rstrip("\n") for line in f] == lines
    assert load_labeled_examples(str(path)) == [
        LabeledExample("positive", "alpha  beta\t"),
        LabeledExample("negative", "gamma é"),
    ]


@pytest.mark.parametrize("newline", [b"\n", b"\r\n"])
def test_load_labeled_examples_names_the_line_of_invalid_utf8(tmp_path, newline):
    path = tmp_path / "train.txt"
    path.write_bytes(b"__label__positive ok" + newline + newline
                     + b"__label__negative caf\xc3 \xff" + newline)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: invalid UTF-8 at byte 21$"):
        load_labeled_examples(str(path))
