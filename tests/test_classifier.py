import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from websift.classifier import (
    BadMagic,
    ClassifierConfig,
    CorruptPayload,
    EmptyVocabulary,
    LabeledExample,
    MODEL_MAGIC,
    NGRAM_MULTIPLIER,
    UnsupportedVersion,
    Vocabulary,
    build_vocab,
    example_grads,
    example_loss,
    featurize,
    has_no_features,
    load_labeled_examples,
    load_model,
    model_fingerprint,
    ngram_hash,
    parse_labeled_line,
    predict,
    predict_tokens,
    save_model,
    score_text,
    token_hash,
    train,
)

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


@given(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=5))
def test_ngram_hash_matches_bigint_reference(hs):
    h = hs[0]
    for t in hs[1:]:
        h = (h * NGRAM_MULTIPLIER + t) % (1 << 64)
    assert ngram_hash(hs) == h


def test_ngram_hash_wraps_64_bits():
    big = 2**32 - 1
    assert ngram_hash([big, big, big, big]) < 2**64


# -- featurization ---------------------------------------------------------------

def small_config(**kw):
    base = dict(dim=4, bucket=97, word_ngrams=2, min_count=1)
    base.update(kw)
    return ClassifierConfig(**base)


def test_featurize_structure():
    config = small_config(bucket=10)
    vocab = Vocabulary.from_rows(["a", "b", "c"], [1, 1, 1])
    ids = featurize(["a", "b", "d", "c"], vocab, config)
    # unigrams first, unknown "d" skipped; then one id per bigram window
    assert ids[:3].tolist() == [0, 1, 2]
    assert len(ids) == 3 + 3
    assert all(3 <= i < 13 for i in ids[3:].tolist())
    assert ids.dtype == np.int64


def test_featurize_unknown_token_feeds_ngrams():
    config = small_config(bucket=10)
    vocab = Vocabulary.from_rows(["a", "b"], [1, 1])
    with_d = featurize(["a", "d", "b"], vocab, config)
    with_e = featurize(["a", "e", "b"], vocab, config)
    # different unknown middle tokens must change the bigram hashes
    assert with_d[:2].tolist() == with_e[:2].tolist() == [0, 1]
    assert with_d[2:].tolist() != with_e[2:].tolist()


def test_featurize_empty():
    config = small_config()
    vocab = Vocabulary.from_rows(["a"], [1])
    assert featurize([], vocab, config).size == 0


@given(
    tokens=st.lists(st.sampled_from(["a", "b", "cc", "dd", "e"]), max_size=12),
    ngrams=st.integers(1, 4),
)
def test_featurize_matches_reference(tokens, ngrams):
    config = ClassifierConfig(dim=4, bucket=97, word_ngrams=ngrams, min_count=1)
    vocab = Vocabulary.from_rows(["a", "b", "cc"], [3, 3, 3])
    got = featurize(tokens, vocab, config)
    assert got.tolist() == reference_ids(tokens, ["a", "b", "cc"], config)


@given(
    tokens=st.lists(st.sampled_from(["a", "b", "x", "y"]), max_size=4),
    vocab_tokens=st.lists(st.sampled_from(["a", "b", "c"]), unique=True, max_size=3),
    ngrams=st.integers(1, 3),
)
def test_has_no_features_matches_featurize(tokens, vocab_tokens, ngrams):
    config = ClassifierConfig(dim=4, bucket=97, word_ngrams=ngrams, min_count=1)
    vocab = Vocabulary.from_rows(vocab_tokens, [1] * len(vocab_tokens))
    assert has_no_features(tokens, vocab, config) == (featurize(tokens, vocab, config).size == 0)


def test_build_vocab_first_occurrence_order(tokenizer):
    seqs = [tokenizer.tokenize("b a"), tokenizer.tokenize("a c b")]
    vocab = build_vocab(seqs, small_config())
    assert vocab.tokens == ["b", "a", "c"]
    assert vocab.counts == [2, 2, 1]
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


def central_diff(input_matrix, output_matrix, ids, y, which, r, c, h=1e-5):
    im, om = input_matrix.copy(), output_matrix.copy()
    m = im if which == "input" else om
    orig = m[r, c]
    m[r, c] = orig + h
    hi = example_loss(im, om, ids, y)
    m[r, c] = orig - h
    lo = example_loss(im, om, ids, y)
    return (hi - lo) / (2 * h)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    dim = 8
    config = ClassifierConfig(dim=dim, bucket=16, min_count=1, word_ngrams=2)
    vocab = Vocabulary.from_rows(["a", "b", "c"], [2, 2, 2])
    rows = len(vocab) + config.bucket
    input_matrix = rng.uniform(-1.0 / dim, 1.0 / dim, size=(rows, dim))
    output_matrix = rng.normal(0.0, 0.5, size=(2, dim))
    checks = 0
    # repeated "a" exercises rows hit more than once per example
    for tokens, y in [(["a", "b", "a", "c"], 0), (["b", "b"], 1), (["a"], 1)]:
        ids = featurize(tokens, vocab, config)
        loss, grad_out, grad_row = example_grads(input_matrix, output_matrix, ids, y)
        assert loss == pytest.approx(example_loss(input_matrix, output_matrix, ids, y))
        for i in range(2):
            for j in range(dim):
                num = central_diff(input_matrix, output_matrix, ids, y, "output", i, j)
                assert rel_err(grad_out[i, j], num) < 1e-4
                checks += 1
        for r in sorted(set(ids.tolist())):
            mult = int(np.count_nonzero(ids == r))
            for j in range(dim):
                num = central_diff(input_matrix, output_matrix, ids, y, "input", r, j)
                assert rel_err(mult * grad_row[j], num) < 1e-4
                checks += 1
    assert checks >= 100


def test_grads_without_features():
    output_matrix = np.random.default_rng(0).normal(size=(2, 4))
    ids = np.zeros(0, dtype=np.int64)
    loss, grad_out, grad_row = example_grads(np.zeros((1, 4)), output_matrix, ids, 0)
    assert loss == pytest.approx(math.log(2))
    assert np.all(grad_out == 0.0)
    assert grad_row.size == 0


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


def python_train(dataset, config, tokenizer):
    """The same SGD restated with scalar python floats.

    Independent of the numpy code paths except for drawing the initial
    input matrix from the identical generator.
    """
    counts: dict[str, int] = {}
    for ex in dataset:
        for t in tokenizer.tokenize(ex.text):
            counts[t] = counts.get(t, 0) + 1
    vocab_tokens = [t for t, c in counts.items() if c >= config.min_count]
    rows = len(vocab_tokens) + config.bucket
    rng = np.random.default_rng(config.seed)
    A = [[float(x) for x in row]
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
                    A[r][j] -= lr * grad_row[j]
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
    model = train(dataset, config, tokenizer)
    vocab_tokens, A, B, losses = python_train(dataset, config, tokenizer)
    assert model.vocab.tokens == vocab_tokens
    np.testing.assert_allclose(model.input_matrix, np.array(A), rtol=0, atol=1e-12)
    np.testing.assert_allclose(model.output_matrix, np.array(B), rtol=0, atol=1e-12)
    np.testing.assert_allclose(model.epoch_losses, losses, rtol=0, atol=1e-12)


def test_train_is_deterministic(tmp_path, tokenizer):
    dataset = make_dataset()
    config = ClassifierConfig(dim=8, bucket=64, min_count=1)
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    save_model(train(dataset, config, tokenizer), str(a))
    save_model(train(dataset, config, tokenizer), str(b))
    assert a.read_bytes() == b.read_bytes()
    assert model_fingerprint(str(a)) == model_fingerprint(str(b))


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
    s = score_text(toy_model, text, tokenizer)
    assert 0.0 <= s <= 1.0
    assert s == pytest.approx(predict(toy_model, text, tokenizer).dist["positive"])


def test_predict_no_content_is_uniform(toy_model, tokenizer):
    assert predict_tokens(toy_model, []).tolist() == [0.5, 0.5]
    assert score_text(toy_model, "", tokenizer) == 0.5
    # argmax tie resolves to the first configured label
    assert predict(toy_model, "", tokenizer).label == "negative"


# -- model file format -----------------------------------------------------------

def test_model_round_trip(tmp_path, toy_model, tokenizer):
    path = str(tmp_path / "model.bin")
    save_model(toy_model, path)
    loaded = load_model(path)
    assert loaded.config == toy_model.config
    assert loaded.vocab.tokens == toy_model.vocab.tokens
    assert loaded.vocab.counts == toy_model.vocab.counts
    assert np.array_equal(loaded.input_matrix, toy_model.input_matrix)
    assert np.array_equal(loaded.output_matrix, toy_model.output_matrix)
    for text in ["good1 good2", "bad1 bad2", "good1 bad2"]:
        assert predict(loaded, text, tokenizer) == predict(toy_model, text, tokenizer)


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
    import hashlib

    path = tmp_path / "model.bin"
    save_model(toy_model, str(path))
    body = bytearray(path.read_bytes()[:-8])
    body[4:8] = struct.pack("<I", 2)
    # keep the checksum valid so only the version trips
    path.write_bytes(bytes(body) + hashlib.sha256(bytes(body)).digest()[:8])
    with pytest.raises(UnsupportedVersion) as err:
        load_model(str(path))
    assert err.value.version == 2


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


# -- config ----------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        ClassifierConfig(dim=0)
    with pytest.raises(ValueError):
        ClassifierConfig(lr=0.0)
    with pytest.raises(ValueError):
        ClassifierConfig(labels=("same", "same"))
    with pytest.raises(ValueError):
        ClassifierConfig(labels=("only",))
    with pytest.raises(ValueError):
        ClassifierConfig(minn=2, maxn=3)


def test_config_json_round_trip():
    config = ClassifierConfig(dim=32, labels=("drop", "keep"))
    obj = {
        "dim": 32, "lr": 0.1, "word_ngrams": 3, "min_count": 5, "epochs": 3,
        "bucket": 2_000_000, "seed": 17, "labels": ["drop", "keep"],
        "minn": 0, "maxn": 0,
    }
    assert ClassifierConfig.from_json_obj(obj) == config
    assert config.positive_label == "keep"


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
