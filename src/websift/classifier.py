"""Fast linear quality classifier over hashed bag-of-n-gram features.

The model is intentionally simple so that training over hundreds of
thousands of seed documents stays cheap on CPUs:

  * every in-vocabulary unigram owns a dense embedding row,
  * word n-grams (lengths 2..word_ngrams) are hashed into `bucket`
    additional rows,
  * a document's hidden state is the mean of its feature rows,
  * one logistic weight vector w over the hidden state is trained with
    plain sequential SGD, learning rate decaying linearly to zero.

With two labels fastText's softmax is exactly this logistic: w is the
difference of its two output rows, and the positive probability is
sigmoid(w . hidden). That is linear in the hidden state, so training folds
w into a logit table with one float per feature row (row . w), and scoring
reads only that table: the logistic of the mean of the document's table
entries. The model file holds the table, not the weights, and the tokenizer
the model was trained with, vocabulary included, so a model file is all
that scoring reads.

Training is single threaded and bit-for-bit deterministic for a fixed
(config, dataset order) pair, which lets callers fingerprint model files and
reproduce any published artifact exactly. That holds across BLAS kernels and
numpy SIMD levels too: training calls no BLAS product, sums w . hidden with
math.fsum (correctly rounded) and the table in a fixed column order. It does
not hold across C math libraries, whose exp may differ per CPU in the last
bit; and scoring's np.exp can differ by an ulp between numpy SIMD levels.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import operator
import os
import struct
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain, count, repeat
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import WebsiftError
from .ioutil import JsonRecord, atomic_open, canonical_json
from .tokenizers import Tokenizer, TokenizerSpec

log = logging.getLogger(__name__)

# ---------------------------------------------------------------------------
# errors

class EmptyVocabulary(WebsiftError):
    def __init__(self):
        super().__init__("no token reached min_count; vocabulary is empty")


class BadMagic(WebsiftError):
    def __init__(self, got: bytes):
        super().__init__(f"not a model file (magic {got!r})")


class UnsupportedVersion(WebsiftError):
    def __init__(self, version: int):
        super().__init__(
            f"unsupported model format version {version}: this build reads version "
            f"{MODEL_FORMAT_VERSION} only; retrain the model"
        )
        self.version = version


class CorruptPayload(WebsiftError):
    pass


class TokenizerMismatch(WebsiftError):
    pass


# ---------------------------------------------------------------------------
# config

@dataclass(frozen=True)
class ClassifierConfig(JsonRecord):
    """Training setup. Defaults match the production filtering runs.

    minn/maxn are reserved for character n-grams and must stay 0; they are
    carried in the model file so older files keep loading if that feature
    ever lands.
    """

    dim: int = 256
    lr: float = 0.1
    word_ngrams: int = 3
    min_count: int = 5
    epochs: int = 3
    bucket: int = 2_000_000
    seed: int = 17
    labels: tuple[str, str] = ("negative", "positive")
    minn: int = 0
    maxn: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not 0 < self.lr < math.inf:
            raise ValueError("lr must be positive and finite")
        if self.word_ngrams < 1:
            raise ValueError("word_ngrams must be >= 1")
        if self.min_count < 1:
            raise ValueError("min_count must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.bucket < 1:
            raise ValueError("bucket must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if len(labels) != 2 or len(set(labels)) != 2:
            raise ValueError("exactly two distinct labels required")
        if not all(isinstance(l, str) and l for l in labels):
            raise ValueError("labels must be non-empty strings")
        if self.minn != 0 or self.maxn != 0:
            raise ValueError("character n-grams are not supported; minn/maxn must be 0")

    @property
    def positive_label(self) -> str:
        """Second label is the kept class by convention."""
        return self.labels[1]


@dataclass(frozen=True)
class LabeledExample:
    label: str
    text: str


# ---------------------------------------------------------------------------
# hashing

FNV_OFFSET = 2166136261
FNV_PRIME = 16777619
NGRAM_MULTIPLIER = 116049371
_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_NGRAM_MULT_U64 = np.uint64(NGRAM_MULTIPLIER)
_FNV_PRIME_U32 = np.uint32(FNV_PRIME)
# token_hashes hashes tokens up to this many UTF-8 bytes in numpy, one byte
# position per step; almost every word is shorter.
HASH_BYTE_CAP = 32
# _FNV_PADDED_START[k]: the state that k zero bytes take to FNV_OFFSET
_FNV_PADDED_START = np.array(
    [FNV_OFFSET * pow(FNV_PRIME, -k, 1 << 32) % (1 << 32) for k in range(HASH_BYTE_CAP + 1)],
    dtype=np.uint32,
)
# Documents featurize_many featurizes together. Larger chunks share more of
# the fixed numpy cost per chunk; memory grows with the chunk's token count.
CHUNK_DOCS = 256


@lru_cache(maxsize=1 << 20)
def token_hash(token: str) -> int:
    """FNV-1a over the token's UTF-8 bytes, 32-bit, zero-extended to 64."""
    h = FNV_OFFSET
    for b in token.encode("utf-8"):
        h = ((h ^ b) * FNV_PRIME) & _MASK32
    return h


def ngram_hash(token_hashes: Sequence[int]) -> int:
    """Combine per-token hashes into one wrapping 64-bit value."""
    h = token_hashes[0] & _MASK64
    for t in token_hashes[1:]:
        h = (h * NGRAM_MULTIPLIER + t) & _MASK64
    return h


# ---------------------------------------------------------------------------
# vocabulary and featurization

@dataclass
class Vocabulary:
    tokens: list[str]          # row order
    counts: list[int]
    index: dict[str, int] = field(repr=False)

    def __len__(self) -> int:
        return len(self.tokens)

    @staticmethod
    def from_rows(tokens: list[str], counts: list[int]) -> "Vocabulary":
        return Vocabulary(tokens, counts, {t: i for i, t in enumerate(tokens)})


def build_vocab(token_seqs: Iterable[Sequence[str]], config: ClassifierConfig) -> Vocabulary:
    """Count tokens and keep those with count >= min_count.

    Row ids follow first occurrence order in the stream, so the same corpus
    in the same order always yields the same embedding layout.
    """
    counts: dict[str, int] = {}
    for seq in token_seqs:
        for tok in seq:
            counts[tok] = counts.get(tok, 0) + 1
    tokens = [t for t, c in counts.items() if c >= config.min_count]
    if not tokens:
        raise EmptyVocabulary()
    kept_counts = [counts[t] for t in tokens]
    return Vocabulary.from_rows(tokens, kept_counts)


def token_hashes(tokens: Sequence[str]) -> np.ndarray:
    """token_hash of every token (uint64), computed together in numpy.

    The tokens' UTF-8 bytes go right-aligned into a matrix with one row per
    byte position and one column per token, zero-padded on the left. Each
    byte position then costs two numpy calls however many tokens there are.
    A zero byte multiplies the state by FNV_PRIME, so a token of length L in
    a matrix of width W starts from FNV_OFFSET times the inverse prime to the
    power W - L, and comes out of the padding at FNV_OFFSET. Tokens longer
    than HASH_BYTE_CAP bytes go through token_hash, so one long token cannot
    widen the matrix.
    """
    n = len(tokens)
    encoded = [t.encode("utf-8") for t in tokens]
    lengths = np.fromiter(map(len, encoded), dtype=np.intp, count=n)
    longest = int(lengths.max(initial=0))
    if longest > HASH_BYTE_CAP:
        out = np.empty(n, dtype=np.uint64)
        long = lengths > HASH_BYTE_CAP
        out[~long] = token_hashes([t for t, x in zip(tokens, long.tolist()) if not x])
        out[long] = [token_hash(t) for t, x in zip(tokens, long.tolist()) if x]
        return out
    h = _FNV_PADDED_START[longest - lengths]
    blob = np.frombuffer(b"".join(encoded), dtype=np.uint8)
    by_position = np.zeros((longest, n), dtype=np.uint8)
    row = np.arange(blob.size) + np.repeat(longest - np.cumsum(lengths), lengths)
    by_position[row, np.repeat(np.arange(n), lengths)] = blob
    for byte in by_position:
        h ^= byte
        h *= _FNV_PRIME_U32
    return h.astype(np.uint64)


def featurize_many(
    token_lists: Sequence[Sequence[str]], vocab: Vocabulary, config: ClassifierConfig
) -> list[np.ndarray]:
    """Map each document's tokens to its feature row ids (int64).

    A document's ids are its in-vocabulary unigram rows in token order, then
    hashed n-gram rows for each window length 2..word_ngrams, windows left
    to right. Unknown unigrams contribute no row of their own but their
    token hash still feeds the n-grams they sit in. A document with no ids
    predicts the uniform distribution.

    Documents are featurized CHUNK_DOCS at a time: each distinct token of a
    chunk is looked up and hashed once, and the n-gram windows run over all
    the chunk's tokens at once, dropping the windows that cross a document
    boundary. A chunk's ids are views into one array. The ids do not depend
    on how the documents are split into calls or chunks.
    """
    out: list[np.ndarray] = []
    for start in range(0, len(token_lists), CHUNK_DOCS):
        out += _featurize_chunk(token_lists[start : start + CHUNK_DOCS], vocab, config)
    return out


def _featurize_chunk(
    token_lists: Sequence[Sequence[str]], vocab: Vocabulary, config: ClassifierConfig
) -> list[np.ndarray]:
    n_docs = len(token_lists)
    lengths = np.fromiter(map(len, token_lists), dtype=np.intp, count=n_docs)
    flat = list(chain.from_iterable(token_lists))
    distinct = dict(zip(dict.fromkeys(flat), count()))
    inverse = np.fromiter(map(distinct.__getitem__, flat), dtype=np.intp, count=len(flat))
    # grid[0, t]: the unigram row of token t; grid[n - 1, t]: the n-gram row
    # of the window starting at token t. valid marks the ids that exist.
    grid = np.zeros((config.word_ngrams, len(flat)), dtype=np.int64)
    grid[0] = np.fromiter(map(vocab.index.get, distinct, repeat(-1)), dtype=np.int64,
                          count=len(distinct))[inverse]
    valid = np.empty(grid.shape, dtype=bool)
    np.greater_equal(grid[0], 0, out=valid[0])
    if config.word_ngrams > 1:
        hashes = token_hashes(list(distinct))[inverse]
        bucket = np.uint64(config.bucket)
        h = hashes.copy()
        for n in range(2, min(config.word_ngrams, len(flat)) + 1):
            h *= _NGRAM_MULT_U64
            h[: len(flat) - n + 1] += hashes[n - 1 :]
            grid[n - 1] = h % bucket
        grid[1:] += len(vocab)
        # a window fits when its document has n tokens left from its start
        left = np.repeat(np.cumsum(lengths), lengths) - np.arange(len(flat))
        np.greater_equal(left, np.arange(2, config.word_ngrams + 1)[:, None], out=valid[1:])
    # grid[valid] runs part by part; a stable sort by document keeps that
    # order within each document: unigrams, then n-grams by length.
    owner = np.broadcast_to(np.repeat(np.arange(n_docs), lengths), grid.shape)[valid]
    out = grid[valid][np.argsort(owner, kind="stable")]
    bounds = np.cumsum(np.bincount(owner, minlength=n_docs)).tolist()
    return [out[a:b] for a, b in zip([0] + bounds, bounds)]


def featurize(tokens: Sequence[str], vocab: Vocabulary, config: ClassifierConfig) -> np.ndarray:
    """featurize_many for one document.

    Each call pays a whole chunk's fixed numpy cost (about 240 us against
    about 50 us per document batched); featurize many documents through
    featurize_many.
    """
    return featurize_many([tokens], vocab, config)[0]


# ---------------------------------------------------------------------------
# model

@dataclass(frozen=True)
class TokenizerStamp(JsonRecord):
    """The tokenizer a model was trained with: its spec and, for
    vocab_greedy, its vocabulary, sorted in Python string order."""

    spec: TokenizerSpec = field(default_factory=TokenizerSpec)
    vocab: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        if self.spec.kind == "unicode_words":
            if self.vocab is not None:
                raise ValueError("a unicode_words tokenizer has no vocabulary")
        elif self.vocab is None:
            raise ValueError("a vocab_greedy tokenizer needs its vocabulary")
        elif not all(map(operator.lt, ("",) + self.vocab, self.vocab)):  # "" sorts first
            raise ValueError("vocabulary tokens must be non-empty, sorted and distinct")

    @staticmethod
    def of(tokenizer: Tokenizer) -> "TokenizerStamp":
        vocab = None if tokenizer.vocab is None else tuple(sorted(tokenizer.vocab))
        return TokenizerStamp(tokenizer.spec, vocab)

    @cached_property
    def built(self) -> Tokenizer:
        """The Tokenizer this stamp describes, built once."""
        return Tokenizer(self.spec, None if self.vocab is None else frozenset(self.vocab))


@dataclass
class ClassifierModel:
    config: ClassifierConfig
    vocab: Vocabulary
    table: np.ndarray           # (len(vocab) + bucket,) float64: each row's logit difference
    tokenizer: TokenizerStamp = field(default_factory=TokenizerStamp)
    epoch_losses: tuple[float, ...] = ()  # training metadata, not serialized


@dataclass(frozen=True)
class Prediction:
    label: str
    prob: float
    dist: dict[str, float]


def example_grads(
    input_matrix: np.ndarray, w: np.ndarray, ids: np.ndarray, y: int
) -> tuple[float, np.ndarray, np.ndarray]:
    """Log loss of one example plus its analytic gradients.

    With h the mean of the example's rows and s = w . h, the positive
    probability is p = sigmoid(s) and the loss is softplus(-s) for y = 1,
    softplus(s) for y = 0. Returns (loss, grad_w, grad_row): grad_w is
    (p - y) h, and grad_row is the gradient of every contributing input row,
    (p - y) w / feature_count. With no features the row gradient is
    zero-length.

    s is summed by math.fsum, which rounds correctly, and math.exp only sees
    arguments <= 0, so a saturated logit neither overflows nor warns.
    """
    if ids.size:
        hidden = input_matrix.take(ids, axis=0).mean(axis=0)
    else:
        hidden = np.zeros(input_matrix.shape[1])
    s = math.fsum((hidden * w).tolist())
    e = math.exp(-abs(s))
    p = 1.0 / (1.0 + e) if s >= 0 else e / (1.0 + e)
    loss = max(s if y == 0 else -s, 0.0) + math.log1p(e)
    d = p - y
    grad_row = (d / ids.size) * w if ids.size else np.zeros(0)
    return loss, d * hidden, grad_row


def example_loss(input_matrix: np.ndarray, w: np.ndarray, ids: np.ndarray, y: int) -> float:
    """Log loss of one example at the given parameters."""
    return example_grads(input_matrix, w, ids, y)[0]


def _row_update_plan(ids: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Distinct rows of `ids`, most repeated first, and the update prefixes.

    Subtracting one vector from the first n of those rows, for each n in the
    prefixes in turn, gives every row one subtraction per occurrence in
    `ids`, in sequence: the same float operations as
    `np.subtract.at(matrix, ids, vector)`, so the result is bit-identical.
    (A single `counts * vector` subtraction would round differently.)
    """
    uniq, counts = np.unique(ids, return_counts=True)
    order = np.argsort(-counts, kind="stable")
    return uniq[order], [int((counts > r).sum()) for r in range(counts.max(initial=0))]


# _logit_table multiplies at most this many weights per numpy call.
_TABLE_BLOCK_ELEMS = 1 << 18


def _logit_table(input_matrix: np.ndarray, w: np.ndarray) -> np.ndarray:
    """table[r] = sum over k of input_matrix[r, k] * w[k], added in column
    order k = 0, 1, ... for every row.

    Not a matrix product: BLAS may split and reorder that sum depending on
    its threads, and the table's bits must not depend on the machine.
    """
    rows, dim = input_matrix.shape
    table = np.zeros(rows)
    step = max(1, _TABLE_BLOCK_ELEMS // dim)
    terms = np.empty((dim, min(step, rows)))
    for start in range(0, rows, step):
        block = input_matrix[start : start + step]
        block_terms = terms[:, : len(block)]
        np.multiply(block.T, w[:, None], out=block_terms)
        sums = table[start : start + len(block)]
        for column in block_terms:
            sums += column
    return table


def _sgd(
    dataset: Sequence[LabeledExample], config: ClassifierConfig, tokenizer: Tokenizer
) -> tuple[Vocabulary, np.ndarray, np.ndarray, tuple[float, ...]]:
    """The training loop of train: (vocab, input_matrix, w, epoch_losses).

    w is the difference of the two output rows of fastText's two-label
    softmax, trained on its own: each of those rows would move by
    lr_t * grad_w, so w moves by twice that.
    """
    if not dataset:
        raise ValueError("empty training dataset")
    label_index = {name: i for i, name in enumerate(config.labels)}
    for ex in dataset:
        if ex.label not in label_index:
            raise ValueError(f"label {ex.label!r} not in configured labels {config.labels}")

    token_seqs = [tokenizer.tokenize(ex.text) for ex in dataset]
    vocab = build_vocab(token_seqs, config)
    steps = [
        (ids, *_row_update_plan(ids), label_index[ex.label])
        for ex, ids in zip(dataset, featurize_many(token_seqs, vocab, config))
    ]
    del token_seqs
    zero_feature = sum(1 for ids, *_ in steps if not ids.size)

    rng = np.random.default_rng(config.seed)
    rows = len(vocab) + config.bucket
    bound = 1.0 / config.dim
    input_matrix = rng.uniform(-bound, bound, size=(rows, config.dim))
    w = np.zeros(config.dim)

    total = config.epochs * len(dataset)
    t = 0
    epoch_losses = []
    for epoch in range(config.epochs):
        loss_sum = 0.0
        for ids, distinct, prefixes, y in steps:
            lr_t = config.lr * (1.0 - t / total)
            t += 1
            loss, grad_w, grad_row = example_grads(input_matrix, w, ids, y)
            loss_sum += loss
            w -= 2.0 * lr_t * grad_w
            if prefixes:
                update = lr_t * grad_row
                block = input_matrix[distinct]
                for n in prefixes:
                    block[:n] -= update
                input_matrix[distinct] = block
        epoch_losses.append(loss_sum / len(dataset))
        log.debug("epoch %d mean loss %.6f", epoch + 1, epoch_losses[-1])
    if zero_feature:
        log.info("training saw %d zero-feature examples", zero_feature)
    return vocab, input_matrix, w, tuple(epoch_losses)


def train(
    dataset: Sequence[LabeledExample], config: ClassifierConfig, tokenizer: Tokenizer
) -> ClassifierModel:
    """Sequential SGD over the dataset in its given order, folded into the
    logit table. The model records the tokenizer it was trained with.

    The caller owns example order (training sets come pre-shuffled from the
    seed pool assembler); train never reorders, so identical inputs produce
    an identical model.

    Each example is tokenized and featurized once, before the first epoch.
    A step updates each distinct feature row once per occurrence of that row
    in the example, in sequence, so a repeated row receives exactly the
    updates a per-occurrence loop would give it.
    """
    vocab, input_matrix, w, epoch_losses = _sgd(dataset, config, tokenizer)
    table = _logit_table(input_matrix, w)
    return ClassifierModel(config, vocab, table, TokenizerStamp.of(tokenizer), epoch_losses)


def check_tokenizer(model: ClassifierModel, tokenizer: Tokenizer) -> None:
    """Raise TokenizerMismatch unless tokenizer is the one model was trained
    with: the same kind, preserve_structural and vocabulary. The vocabulary
    file's path is not compared; the model carries the vocabulary."""
    want = model_tokenizer(model)
    if tokenizer is want:
        return
    got, spec = tokenizer.spec, want.spec
    if (got.kind, got.preserve_structural) != (spec.kind, spec.preserve_structural):
        raise TokenizerMismatch(
            f"tokenizer {canonical_json(got.to_json_obj())} is not the model's "
            f"{canonical_json(spec.to_json_obj())}"
        )
    if tokenizer.vocab != want.vocab:
        extra, missing = len(tokenizer.vocab - want.vocab), len(want.vocab - tokenizer.vocab)
        raise TokenizerMismatch(f"tokenizer vocabulary {got.vocab_path} has {extra} "
                                f"tokens the model's lacks and lacks {missing} of the model's")


def model_tokenizer(model: ClassifierModel) -> Tokenizer:
    """The tokenizer model was trained with, built from the model alone."""
    return model.tokenizer.built


def positive_probs(model: ClassifierModel, id_lists: Sequence[np.ndarray]) -> np.ndarray:
    """The positive-label probability of each document from its feature ids:
    the logistic of the mean of its logit-table entries. A document without
    ids scores exactly 0.5.

    Each document's entries are summed as their own np.add.reduceat segment,
    so a score does not depend on the other documents in the call.
    """
    lengths = np.fromiter(map(len, id_lists), dtype=np.intp, count=len(id_lists))
    logits = np.zeros(len(id_lists))
    filled = lengths > 0
    if filled.any():
        entries = model.table[np.concatenate(id_lists)]
        starts = np.cumsum(lengths) - lengths
        logits[filled] = np.add.reduceat(entries, starts[filled]) / lengths[filled]
    with np.errstate(over="ignore"):    # exp overflows to inf: the probability is 0
        return 1.0 / (1.0 + np.exp(-logits))


def predict_tokens(model: ClassifierModel, tokens: Sequence[str]) -> np.ndarray:
    """Probability distribution over labels for pre-tokenized text.

    Featurizes one document per call, paying a whole chunk's fixed numpy
    cost (about 240 us against about 50 us per document batched); batch
    through featurize_many or predict_many.
    """
    p = positive_probs(model, [featurize(tokens, model.vocab, model.config)])[0]
    return np.array([1.0 - p, p])


def predict_many(model: ClassifierModel, texts: Sequence[str], tokenizer: Tokenizer) -> list[Prediction]:
    """predict for each text, featurized together by featurize_many. Raises
    TokenizerMismatch unless tokenizer is the model's."""
    check_tokenizer(model, tokenizer)
    token_lists = [tokenizer.tokenize(text) for text in texts]
    ids = featurize_many(token_lists, model.vocab, model.config)
    negative, positive = model.config.labels
    out = []
    for p in positive_probs(model, ids).tolist():
        dist = {negative: 1.0 - p, positive: p}
        label = positive if p > dist[negative] else negative  # a tie goes to the first label
        out.append(Prediction(label=label, prob=dist[label], dist=dist))
    return out


def predict(model: ClassifierModel, text: str, tokenizer: Tokenizer) -> Prediction:
    """predict_many for one text. Each call pays a whole chunk's fixed numpy
    cost (about 240 us against about 50 us per document batched); batch
    through predict_many."""
    return predict_many(model, [text], tokenizer)[0]


# ---------------------------------------------------------------------------
# model file format
#
#   magic   b"UFWC"
#   u32     format version (currently 3)
#   u32     config JSON length, then that many bytes (canonical JSON)
#   u32     tokenizer JSON length, then that many bytes (canonical JSON of
#           the TokenizerStamp: {"spec": {...}, "vocab": [...] or null}, the
#           vocab_greedy vocabulary sorted in Python string order)
#   u64     vocabulary size V, then V entries of (u32 len, token bytes, u64 count)
#   u64     logit table length (V + bucket), then that many little-endian float64
#   u64     checksum: first 8 bytes of SHA-256 over all preceding bytes
#
# All integers little-endian. The checksum makes truncation and bit rot a
# load-time error instead of silently wrong scores. Versions 1 and 2, which
# named a vocabulary file instead of holding the vocabulary, do not load.

MODEL_MAGIC = b"UFWC"
MODEL_FORMAT_VERSION = 3


class _ModelFile:
    """An open model file and the SHA-256 of every byte written to it or read
    from it so far. A read checks its length against the bytes left in the
    file before it reads or allocates anything."""

    def __init__(self, f):
        self.f = f
        self.h = hashlib.sha256()
        self.left = os.fstat(f.fileno()).st_size - f.tell()

    def write(self, data) -> None:
        self.f.write(data)
        self.h.update(data)

    def _claim(self, n: int) -> None:
        if n > self.left:
            raise CorruptPayload("model file truncated")
        self.left -= n

    def read(self, n: int) -> bytes:
        self._claim(n)
        data = self.f.read(n)
        if len(data) != n:
            raise CorruptPayload("model file truncated")
        self.h.update(data)
        return data

    def u32(self) -> int:
        return struct.unpack("<I", self.read(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.read(8))[0]

    def read_floats(self, *shape: int) -> np.ndarray:
        """A little-endian float64 array of the given shape, read straight
        into its array and hashed in place."""
        self._claim(math.prod(shape) * 8)
        arr = np.empty(shape, dtype="<f8")
        if self.f.readinto(arr) != arr.nbytes:
            raise CorruptPayload("model file truncated")
        self.h.update(arr)
        return arr


def save_model(model: ClassifierModel, path: str) -> str:
    """Write the model file and return the hex SHA-256 of the whole file.

    The digest comes from the hash already kept for the checksum trailer, so
    callers need not read the file back to fingerprint it.
    """
    blocks = (model.config.to_json_obj(), model.tokenizer.to_json_obj())
    with atomic_open(path, "wb") as f:
        w = _ModelFile(f)
        w.write(MODEL_MAGIC)
        w.write(struct.pack("<I", MODEL_FORMAT_VERSION))
        for block in blocks:
            data = canonical_json(block).encode("utf-8")
            w.write(struct.pack("<I", len(data)))
            w.write(data)
        w.write(struct.pack("<Q", len(model.vocab)))
        for token, count in zip(model.vocab.tokens, model.vocab.counts):
            tb = token.encode("utf-8")
            w.write(struct.pack("<I", len(tb)) + tb + struct.pack("<Q", count))
        w.write(struct.pack("<Q", len(model.table)))
        w.write(np.ascontiguousarray(model.table, dtype="<f8"))
        w.write(w.h.digest()[:8])
    return w.h.hexdigest()


def _read_json_block(r: _ModelFile, record: type, name: str):
    try:
        return record.from_json_obj(json.loads(r.read(r.u32()).decode("utf-8")))
    except (ValueError, TypeError) as e:
        raise CorruptPayload(f"bad {name} block: {e}") from e


def load_model(path: str) -> ClassifierModel:
    """Read a model file in one pass, hashing it as it streams. A model is
    returned only if the checksum trailer matches and ends the file."""
    with open(path, "rb") as f:
        r = _ModelFile(f)
        magic = r.read(min(4, r.left))
        if magic != MODEL_MAGIC:
            raise BadMagic(magic)
        version = r.u32()
        if version != MODEL_FORMAT_VERSION:
            raise UnsupportedVersion(version)
        config = _read_json_block(r, ClassifierConfig, "config")
        stamp = _read_json_block(r, TokenizerStamp, "tokenizer")
        v = r.u64()
        if v * 12 > r.left:  # each entry holds at least its two integers
            raise CorruptPayload("model file truncated")
        tokens: list[str] = []
        counts: list[int] = []
        for _ in range(v):
            try:
                tokens.append(r.read(r.u32()).decode("utf-8"))
            except UnicodeDecodeError as e:
                raise CorruptPayload("bad vocab token encoding") from e
            counts.append(r.u64())
        rows = v + config.bucket
        if r.u64() != rows:
            raise CorruptPayload("logit table length does not match config")
        table = r.read_floats(rows)
        digest = r.h.digest()[:8]
        if r.read(8) != digest:
            raise CorruptPayload("checksum mismatch")
        if r.left:
            raise CorruptPayload("trailing bytes after the checksum")
    if len(set(tokens)) != len(tokens):
        raise CorruptPayload("duplicate vocab tokens")
    return ClassifierModel(config, Vocabulary.from_rows(tokens, counts), table, stamp)


# ---------------------------------------------------------------------------
# training data loading

def parse_labeled_line(line: str, line_no: int, path: str) -> LabeledExample:
    if line.startswith("__label__"):
        head, _, text = line.partition(" ")
        label = head[len("__label__"):]
        if not label:
            raise ValueError(f"{path}:{line_no}: empty label")
        return LabeledExample(label=label, text=text)
    try:
        obj = json.loads(line)
    except json.JSONDecodeError:
        raise ValueError(f"{path}:{line_no}: neither a __label__ line nor JSON") from None
    if not isinstance(obj, dict) or not isinstance(obj.get("label"), str) \
            or not isinstance(obj.get("text"), str):
        raise ValueError(f"{path}:{line_no}: JSON record needs string 'label' and 'text'")
    return LabeledExample(label=obj["label"], text=obj["text"])


def load_labeled_examples(path: str) -> list[LabeledExample]:
    """Read training data: __label__<name> <text> lines or JSONL with a label field."""
    out = []
    with open(path, "r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            out.append(parse_labeled_line(line, line_no, path))
    return out
