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
the model was trained with, vocabulary included, as a tokenizers.Tokenizer
record: a model file is all that scoring reads, and scoring always
tokenizes with model.tokenizer. predict and predict_many take a tokenizer
only to check it against the model's (check_tokenizer).

Training is single threaded and bit-for-bit deterministic for a fixed
(config, dataset order) pair, which lets callers fingerprint model files and
reproduce any published artifact exactly. That holds across BLAS kernels and
numpy SIMD levels too: training calls no BLAS product, sums w . hidden with
math.fsum (correctly rounded) and the table in a fixed column order. It does
not hold across C math libraries, whose exp may differ per CPU in the last
bit; and scoring's np.exp can differ by an ulp between numpy SIMD levels.

As in fastText, training holds the feature rows as float32, 4 bytes per
value: each initial value is the float64 draw rounded to float32, and each
step's row update is rounded to float32 once, then subtracted in float32.
Everything else (w, the hidden state, the logistic and the table) is
float64, and every float32 value widens exactly wherever it meets one.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import struct
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, count, repeat
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .documents import holds_lone_surrogate
from .errors import WebsiftError
from .ioutil import JsonRecord, atomic_open, canonical_json
from .tokenizers import Tokenizer

log = logging.getLogger(__name__)

_T = TypeVar("_T")

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
    """Training setup. Defaults match the production filtering runs."""

    dim: int = 256
    lr: float = 0.1
    word_ngrams: int = 3
    min_count: int = 5
    epochs: int = 3
    bucket: int = 2_000_000
    seed: int = 17
    labels: tuple[str, str] = ("negative", "positive")

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
# The token budget of a chunk: scoring, featurize_many and training take
# their documents a chunk at a time, each document counting its tokens plus
# one, and a document over the budget is a chunk of its own. Larger chunks
# share more of the fixed numpy cost per chunk; a chunk's memory grows with
# its tokens, so the budget bounds it however long the documents are.
CHUNK_TOKENS = 8192


# Only tokens over HASH_BYTE_CAP bytes come here (URLs, hashes, base64). The
# cache holds half a chunk's tokens, so it grows no larger than one chunk; a
# recurring set of more long tokens misses and pays the per-byte loop.
@lru_cache(maxsize=1 << 12)
def token_hash(token: str) -> int:
    """FNV-1a over the token's UTF-8 bytes, 32-bit, zero-extended to 64."""
    h = FNV_OFFSET
    for b in token.encode("utf-8"):
        h = ((h ^ b) * FNV_PRIME) & _MASK32
    return h


# ---------------------------------------------------------------------------
# vocabulary and featurization

@dataclass
class Vocabulary:
    tokens: list[str]          # row order
    index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.index = {t: i for i, t in enumerate(self.tokens)}

    def __len__(self) -> int:
        return len(self.tokens)

    @staticmethod
    def from_json_obj(obj) -> "Vocabulary":
        """The vocabulary a JSON array of distinct strings lists in row order."""
        if not isinstance(obj, list) or not set(map(type, obj)) <= {str}:
            raise ValueError("expected a JSON array of strings")
        vocab = Vocabulary(obj)
        if len(vocab.index) != len(obj):
            raise ValueError("duplicate tokens")
        return vocab


def build_vocab(token_seqs: Iterable[Sequence[str]], config: ClassifierConfig) -> Vocabulary:
    """The tokens that occur at least min_count times.

    Row ids follow first occurrence order in the stream, so the same corpus
    in the same order always yields the same embedding layout.
    """
    counts = Counter(chain.from_iterable(token_seqs))
    tokens = [t for t, c in counts.items() if c >= config.min_count]
    if not tokens:
        raise EmptyVocabulary()
    return Vocabulary(tokens)


def token_hashes(tokens: Sequence[str]) -> np.ndarray:
    """token_hash of every token (uint64), computed together in numpy.

    The tokens' UTF-8 bytes go right-aligned into a matrix with one row per
    token and one column per byte position, zero-padded on the left. Each
    byte position then costs two numpy calls however many tokens there are.
    A zero byte multiplies the state by FNV_PRIME, so a token of length L in
    a matrix of width W starts from FNV_OFFSET times the inverse prime to the
    power W - L, and comes out of the padding at FNV_OFFSET. Tokens longer
    than HASH_BYTE_CAP bytes go through token_hash, so one long token cannot
    widen the matrix.
    """
    n = len(tokens)
    encoded = list(map(str.encode, tokens))     # UTF-8
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
    # token i's bytes end at (i + 1) * longest in the flattened matrix
    ends = np.arange(1, n + 1) * longest
    by_token = np.zeros(n * longest, dtype=np.uint8)
    by_token[np.arange(blob.size) + np.repeat(ends - np.cumsum(lengths), lengths)] = blob
    for byte in by_token.reshape(n, longest).T:
        h ^= byte
        h *= _FNV_PRIME_U32
    return h.astype(np.uint64)


def token_chunks(items: Iterable[_T], size: Callable[[_T], int] = len) -> Iterator[list[_T]]:
    """items in order, cut into chunks of CHUNK_TOKENS: an item counts
    size(item) + 1, a chunk holds items while their counts fit the budget,
    and an item over the budget is a chunk of its own. items are drawn as
    the chunk fills, so at most one chunk and the item after it are held."""
    chunk: list[_T] = []
    room = CHUNK_TOKENS
    for item in items:
        cost = size(item) + 1
        if cost > room and chunk:
            yield chunk
            chunk, room = [], CHUNK_TOKENS
        chunk.append(item)
        room -= cost
    if chunk:
        yield chunk


def featurize_many(
    token_lists: Iterable[Sequence[str]], vocab: Vocabulary, config: ClassifierConfig
) -> list[np.ndarray]:
    """Map each document's tokens to its feature row ids (int64).

    A document's ids are its in-vocabulary unigram rows in token order, then
    hashed n-gram rows for each window length 2..word_ngrams, windows left
    to right. Unknown unigrams contribute no row of their own but their
    token hash still feeds the n-grams they sit in. A document with no ids
    predicts the uniform distribution.

    Documents are featurized a token_chunks chunk at a time, and a lazy
    token_lists is drawn one chunk at a time. One dict.setdefault pass over
    a chunk's tokens finds its distinct tokens and where each token first
    occurs; each distinct token is looked up and hashed once, and the n-gram
    windows run over all the chunk's tokens at once, dropping the windows
    that cross a document boundary. A chunk's ids are views into one array.
    The ids do not depend on how the documents are split into calls or
    chunks.
    """
    chunks = token_chunks(token_lists)
    return list(chain.from_iterable(map(_featurize_chunk, chunks, repeat(vocab), repeat(config))))


def _featurize_chunk(
    token_lists: Sequence[Sequence[str]], vocab: Vocabulary, config: ClassifierConfig
) -> list[np.ndarray]:
    n_docs = len(token_lists)
    lengths = np.fromiter(map(len, token_lists), dtype=np.intp, count=n_docs)
    n_tokens = int(lengths.sum())
    # One pass indexes the chunk: first maps each distinct token, in
    # first-occurrence order, to where it first occurs, and first_at[t] is
    # that position for token t. inverse[t] is the rank of token t in first.
    first: dict[str, int] = {}
    first_at = np.fromiter(map(first.setdefault, chain.from_iterable(token_lists), count()),
                           dtype=np.intp, count=n_tokens)
    rank = np.empty(n_tokens, dtype=np.intp)
    rank[np.fromiter(first.values(), dtype=np.intp, count=len(first))] = np.arange(len(first))
    inverse = rank[first_at]
    # grid[0, t]: the unigram row of token t; grid[n - 1, t]: the n-gram row
    # of the window starting at token t. valid marks the ids that exist.
    grid = np.zeros((config.word_ngrams, n_tokens), dtype=np.int64)
    grid[0] = np.fromiter(map(vocab.index.get, first, repeat(-1)), dtype=np.int64,
                          count=len(first))[inverse]
    valid = np.empty(grid.shape, dtype=bool)
    np.greater_equal(grid[0], 0, out=valid[0])
    if config.word_ngrams > 1:
        hashes = token_hashes(list(first))[inverse]
        bucket = np.uint64(config.bucket)
        h = hashes.copy()
        for n in range(2, min(config.word_ngrams, n_tokens) + 1):
            h *= _NGRAM_MULT_U64
            h[: n_tokens - n + 1] += hashes[n - 1 :]
            grid[n - 1] = h % bucket
        grid[1:] += len(vocab)
        # a window fits when its document has n tokens left from its start
        left = np.repeat(np.cumsum(lengths), lengths) - np.arange(n_tokens)
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

@dataclass
class ClassifierModel:
    config: ClassifierConfig
    vocab: Vocabulary
    table: np.ndarray           # (len(vocab) + bucket,) float64: each row's logit difference
    tokenizer: Tokenizer = field(default_factory=Tokenizer)
    epoch_losses: tuple[float, ...] = ()  # training metadata, not serialized


@dataclass(frozen=True)
class Prediction:
    label: str
    prob: float
    dist: dict[str, float]

    @staticmethod
    def of(config: ClassifierConfig, p: float) -> "Prediction":
        """The prediction for positive-label probability p; a tie goes to
        the first label."""
        negative, positive = config.labels
        dist = {negative: 1.0 - p, positive: p}
        label = positive if p > dist[negative] else negative
        return Prediction(label=label, prob=dist[label], dist=dist)


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

    The rows may be float32 or float64; h is summed in float64 either way, so
    float32 rows give the same bits as their float64 copy.

    s is summed by math.fsum, which rounds correctly, and math.exp only sees
    arguments <= 0, so a saturated logit neither overflows nor warns.
    """
    if ids.size:
        hidden = input_matrix.take(ids, axis=0).mean(axis=0, dtype=np.float64)
    else:
        hidden = np.zeros(input_matrix.shape[1])
    s = math.fsum((hidden * w).tolist())
    e = math.exp(-abs(s))
    p = 1.0 / (1.0 + e) if s >= 0 else e / (1.0 + e)
    loss = max(s if y == 0 else -s, 0.0) + math.log1p(e)
    d = p - y
    grad_row = (d / ids.size) * w if ids.size else np.zeros(0)
    return loss, d * hidden, grad_row


def _row_update_plan(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of `ids`, most repeated first, and the update prefixes.

    Subtracting one vector from the first n of those rows, for each n in the
    prefixes in turn, gives every row one subtraction per occurrence in
    `ids`, in sequence: the same float operations as
    `np.subtract.at(matrix, ids, vector)`, so the result is bit-identical.
    (A single `counts * vector` subtraction would round differently.)
    """
    uniq, counts = np.unique(ids, return_counts=True)
    order = np.argsort(-counts, kind="stable")
    # prefix r is the number of rows that occur more than r times
    return uniq[order], len(counts) - np.bincount(counts).cumsum()[:-1]


def _training_chunk(chunk: list, vocab: Vocabulary, config: ClassifierConfig, index: type) -> tuple:
    """A token_chunks chunk of (label, tokens) examples as three flat `index`
    buffers (the examples' feature ids, then the distinct rows and the update
    prefixes of their _row_update_plan), the bounds (row i: where example i
    starts in each buffer; the last row: their ends) and the labels."""
    id_lists = _featurize_chunk([tokens for _, tokens in chunk], vocab, config)
    parts = (id_lists, *zip(*map(_row_update_plan, id_lists)))
    bounds = np.zeros((len(chunk) + 1, 3), dtype=np.int64)
    bounds[1:] = np.cumsum([[len(a) for a in part] for part in parts], axis=1).T
    buffers = tuple(np.concatenate(part, dtype=index) for part in parts)
    return buffers, bounds, bytes(label for label, _ in chunk)


def _training_steps(chunks: Iterable[tuple]) -> Iterator[tuple[np.ndarray, np.ndarray, list, int]]:
    """Each example's (ids, distinct rows, update prefixes, label), in order,
    sliced from its _training_chunk."""
    for (ids, distinct, prefixes), bounds, labels in chunks:
        for (a, c, e), (b, d, f), y in zip(bounds[:-1].tolist(), bounds[1:].tolist(), labels):
            yield ids[a:b], distinct[c:d], prefixes[e:f].tolist(), y


# _sgd draws and _logit_table multiplies at most this many values per numpy
# call: their float64 blocks take 0.5 MB beside the float32 matrix.
_BLOCK_ELEMS = 1 << 16


def _logit_table(input_matrix: np.ndarray, w: np.ndarray) -> np.ndarray:
    """table[r] = sum over k of input_matrix[r, k] * w[k] in float64, added
    in column order k = 0, 1, ... for every row, starting from +0.0.

    Not a matrix product: BLAS may split and reorder that sum depending on
    its threads, and the table's bits must not depend on the machine.
    """
    rows, dim = input_matrix.shape
    table = np.zeros(rows)
    # numpy sums a one-row block pairwise, not in column order, so every
    # block holds at least two rows: a last block of one row starts a row early.
    step = max(2, _BLOCK_ELEMS // dim)
    terms = np.empty((dim, min(step, rows)))
    for start in range(0, rows, step):
        start = max(0, min(start, rows - 2))
        block = input_matrix[start : start + step]
        block_terms = terms[:, : len(block)]
        np.multiply(block.T, w[:, None], out=block_terms)
        np.add.reduce(block_terms, axis=0, initial=0.0, out=table[start : start + len(block)])
    return table


def _sgd(
    dataset: Sequence[LabeledExample], config: ClassifierConfig, tokenizer: Tokenizer
) -> tuple[Vocabulary, np.ndarray, np.ndarray, tuple[float, ...]]:
    """The training loop of train: (vocab, input_matrix, w, epoch_losses),
    input_matrix being float32 and w float64.

    w is the difference of the two output rows of fastText's two-label
    softmax, trained on its own: each of those rows would move by
    lr_t * grad_w, so w moves by twice that.

    Two passes tokenize the examples, so at most one chunk of token lists is
    held: one counts the vocabulary, one featurizes a chunk at a time into
    the int32 (int64 only past 2^31 rows) buffers the epochs slice.
    """
    if not dataset:
        raise ValueError("empty training dataset")
    label_index = {name: i for i, name in enumerate(config.labels)}
    for ex in dataset:
        if ex.label not in label_index:
            raise ValueError(f"label {ex.label!r} not in configured labels {config.labels}")

    vocab = build_vocab((tokenizer.tokenize(ex.text) for ex in dataset), config)
    rows = len(vocab) + config.bucket
    index = np.int32 if rows <= 1 << 31 else np.int64
    tokenized = ((label_index[ex.label], tokenizer.tokenize(ex.text)) for ex in dataset)
    chunks = [_training_chunk(chunk, vocab, config, index)
              for chunk in token_chunks(tokenized, _token_count)]
    zero_feature = sum(int((np.diff(bounds[:, 0]) == 0).sum()) for _, bounds, _ in chunks)

    rng = np.random.default_rng(config.seed)
    bound = 1.0 / config.dim
    input_matrix = np.empty((rows, config.dim), dtype=np.float32)
    step = max(1, _BLOCK_ELEMS // config.dim)
    for start in range(0, rows, step):
        block = input_matrix[start : start + step]
        block[...] = rng.uniform(-bound, bound, size=block.shape)
    w = np.zeros(config.dim)

    total = config.epochs * len(dataset)
    t = 0
    epoch_losses = []
    for epoch in range(config.epochs):
        loss_sum = 0.0
        for ids, distinct, prefixes, y in _training_steps(chunks):
            lr_t = config.lr * (1.0 - t / total)
            t += 1
            loss, grad_w, grad_row = example_grads(input_matrix, w, ids, y)
            loss_sum += loss
            w -= 2.0 * lr_t * grad_w
            if prefixes:
                update = (lr_t * grad_row).astype(np.float32)
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

    Each example is featurized once, before the first epoch, from two
    streamed tokenize passes: one counts the vocabulary, and one featurizes
    a chunk at a time into int32 buffers. The epochs keep under 10 bytes a
    feature id of each example: about 2.3 KB for an example of 300 ids.
    A step updates each distinct feature row once per occurrence of that row
    in the example, in sequence, so a repeated row receives exactly the
    updates a per-occurrence loop would give it.
    """
    vocab, input_matrix, w, epoch_losses = _sgd(dataset, config, tokenizer)
    table = _logit_table(input_matrix, w)
    return ClassifierModel(config, vocab, table, tokenizer, epoch_losses)


def check_tokenizer(model: ClassifierModel, tokenizer: Tokenizer) -> None:
    """Raise TokenizerMismatch unless tokenizer is the one model was trained
    with: the same kind, preserve_structural and vocabulary. The vocabulary
    file's path is not compared; the model carries the vocabulary."""
    want = model.tokenizer
    if tokenizer is want:
        return
    got, spec = tokenizer.spec, want.spec
    if (got.kind, got.preserve_structural) != (spec.kind, spec.preserve_structural):
        raise TokenizerMismatch(
            f"tokenizer {canonical_json(got.to_json_obj())} is not the model's "
            f"{canonical_json(spec.to_json_obj())}"
        )
    if tokenizer.vocab != want.vocab:
        got_vocab, want_vocab = set(tokenizer.vocab), set(want.vocab)
        extra, missing = len(got_vocab - want_vocab), len(want_vocab - got_vocab)
        raise TokenizerMismatch(f"tokenizer vocabulary {got.vocab_path} has {extra} "
                                f"tokens the model's lacks and lacks {missing} of the model's")


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


def score_stream(
    model: ClassifierModel, items: Iterable[_T], text: Callable[[_T], str] = str,
) -> Iterator[tuple[_T, int, float, bool]]:
    """Each of items, in order, with its text's token count, its positive
    probability and whether it has no feature row (it then scores exactly
    0.5). items are texts, or text(item) is the item's text; each is
    tokenized with the model's tokenizer.

    Items are tokenized as a token_chunks chunk fills, and each chunk is
    featurized and scored at once, so memory is one chunk's however many
    items there are. Its feature ids are dropped before the chunk is
    yielded. No score depends on where chunks split.
    """
    tokenize = model.tokenizer.tokenize
    tokenized = ((item, tokenize(text(item))) for item in items)
    for chunk in token_chunks(tokenized, _token_count):
        ids = _featurize_chunk([tokens for _, tokens in chunk], model.vocab, model.config)
        probs = positive_probs(model, ids).tolist()
        bare = [not row.size for row in ids]
        del ids
        for (item, tokens), p, no_features in zip(chunk, probs, bare):
            yield item, len(tokens), p, no_features


def _token_count(item_tokens: tuple[object, list[str]]) -> int:
    return len(item_tokens[1])


def predict_many(model: ClassifierModel, texts: Iterable[str], tokenizer: Tokenizer) -> list[Prediction]:
    """predict for each text, scored a chunk at a time by score_stream.
    Raises TokenizerMismatch unless tokenizer is the model's; the texts are
    tokenized with the model's tokenizer either way."""
    check_tokenizer(model, tokenizer)
    return [Prediction.of(model.config, p) for _, _, p, _ in score_stream(model, texts)]


def predict(model: ClassifierModel, text: str, tokenizer: Tokenizer) -> Prediction:
    """predict_many for one text. Each call pays a whole chunk's fixed numpy
    cost (about 240 us against about 50 us per document batched); batch
    through predict_many."""
    return predict_many(model, [text], tokenizer)[0]


# ---------------------------------------------------------------------------
# model file format
#
#   magic   b"UFWC"
#   u32     format version (currently 4)
#   three blocks, each a u32 length and then that many bytes of canonical JSON:
#     config      the ClassifierConfig
#     tokenizer   the Tokenizer record: {"spec": {...}, "vocab": [...] or null},
#                 the vocab_greedy vocabulary sorted in Python string order
#     vocabulary  the feature vocabulary's V tokens, in row order
#   u64     logit table length (V + bucket), then that many little-endian float64
#   u64     checksum: first 8 bytes of SHA-256 over all preceding bytes
#
# All integers little-endian. The checksum makes truncation and bit rot a
# load-time error instead of silently wrong scores. The SHA-256 of the whole
# file, model_sha256, names the model. Versions 1 to 3 do not load.

MODEL_MAGIC = b"UFWC"
MODEL_FORMAT_VERSION = 4


def _write_model(model: ClassifierModel, write: Callable[[bytes], object]) -> str:
    """Pass the bytes of model's file to write, in order, and return the hex
    SHA-256 of the whole file."""
    h = hashlib.sha256()
    chunks = [MODEL_MAGIC, struct.pack("<I", MODEL_FORMAT_VERSION)]
    for block in (model.config.to_json_obj(), model.tokenizer.to_json_obj(), model.vocab.tokens):
        data = canonical_json(block).encode("utf-8")
        chunks += [struct.pack("<I", len(data)), data]
    chunks += [struct.pack("<Q", len(model.table)), np.ascontiguousarray(model.table, dtype="<f8")]
    for data in chunks:
        write(data)
        h.update(data)
    checksum = h.digest()[:8]
    write(checksum)
    h.update(checksum)
    return h.hexdigest()


def save_model(model: ClassifierModel, path: str) -> str:
    """Write the model file and return its hex SHA-256, model_sha256(model)."""
    with atomic_open(path, "wb") as f:
        return _write_model(model, f.write)


def model_sha256(model: ClassifierModel) -> str:
    """The hex SHA-256 of the file save_model writes for model, without
    writing it."""
    return _write_model(model, lambda data: None)


class _ModelReader:
    """An open model file and the SHA-256 of every byte read from it so far.
    A read checks its length against the bytes left in the file before it
    reads or allocates anything."""

    def __init__(self, f):
        self.f = f
        self.h = hashlib.sha256()
        self.left = os.fstat(f.fileno()).st_size - f.tell()

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


def _read_json_block(r: _ModelReader, name: str, decode: Callable):
    try:
        return decode(json.loads(r.read(r.u32()).decode("utf-8")))
    except (ValueError, TypeError) as e:
        raise CorruptPayload(f"bad {name} block: {e}") from e


def load_model(path: str) -> ClassifierModel:
    """Read a model file in one pass, hashing it as it streams. A model is
    returned only if the checksum trailer matches and ends the file."""
    with open(path, "rb") as f:
        r = _ModelReader(f)
        magic = r.read(min(4, r.left))
        if magic != MODEL_MAGIC:
            raise BadMagic(magic)
        version = r.u32()
        if version != MODEL_FORMAT_VERSION:
            raise UnsupportedVersion(version)
        config = _read_json_block(r, "config", ClassifierConfig.from_json_obj)
        tokenizer = _read_json_block(r, "tokenizer", Tokenizer.from_json_obj)
        vocab = _read_json_block(r, "vocabulary", Vocabulary.from_json_obj)
        rows = len(vocab) + config.bucket
        if r.u64() != rows:
            raise CorruptPayload("logit table length does not match config")
        table = r.read_floats(rows)
        digest = r.h.digest()[:8]
        if r.read(8) != digest:
            raise CorruptPayload("checksum mismatch")
        if r.left:
            raise CorruptPayload("trailing bytes after the checksum")
    return ClassifierModel(config, vocab, table, tokenizer)


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
    if holds_lone_surrogate((obj["label"], obj["text"])):
        raise ValueError(f"{path}:{line_no}: 'label' or 'text' holds a lone surrogate escape")
    return LabeledExample(label=obj["label"], text=obj["text"])


def load_labeled_examples(path: str) -> list[LabeledExample]:
    """Read training data: __label__<name> <text> lines or JSONL with a label field.

    Lines end at \\n, \\r\\n or \\r, as in text mode's universal newlines,
    and each is decoded alone, so invalid UTF-8 is reported with its line."""
    out = []
    line_no = 0
    with open(path, "rb") as f:
        for raw in f:
            for line in raw.splitlines():
                line_no += 1
                if not line:
                    continue
                try:
                    text = line.decode("utf-8")
                except UnicodeDecodeError as e:
                    raise ValueError(f"{path}:{line_no}: invalid UTF-8 at byte {e.start}") from None
                out.append(parse_labeled_line(text, line_no, path))
    return out
