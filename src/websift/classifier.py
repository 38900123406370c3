"""Fast linear quality classifier over hashed bag-of-n-gram features.

The model is intentionally simple so that training over hundreds of
thousands of seed documents stays cheap on CPUs:

  * every in-vocabulary unigram owns a dense embedding row,
  * word n-grams (lengths 2..word_ngrams) are hashed into `bucket`
    additional rows,
  * a document's hidden state is the mean of its feature rows,
  * a softmax over the two labels is trained with plain sequential SGD,
    learning rate decaying linearly to zero.

Training is single threaded and bit-for-bit deterministic for a fixed
(config, dataset order) pair, which lets callers fingerprint model files and
reproduce any published artifact exactly.
"""

from __future__ import annotations

import hashlib
import json
import logging
import struct
from dataclasses import dataclass, field, asdict
from functools import lru_cache
from itertools import chain, count, repeat
from typing import Iterable, Sequence

import numpy as np

from .errors import WebsiftError
from .ioutil import atomic_open, canonical_json
from .tokenizers import Tokenizer

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
        super().__init__(f"unsupported model format version {version}")
        self.version = version


class CorruptPayload(WebsiftError):
    pass


# ---------------------------------------------------------------------------
# config

@dataclass(frozen=True)
class ClassifierConfig:
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
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.word_ngrams < 1:
            raise ValueError("word_ngrams must be >= 1")
        if self.min_count < 1:
            raise ValueError("min_count must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.bucket < 1:
            raise ValueError("bucket must be >= 1")
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

    @staticmethod
    def from_json_obj(obj: dict) -> "ClassifierConfig":
        obj = dict(obj)
        if "labels" in obj:
            obj["labels"] = tuple(obj["labels"])
        return ClassifierConfig(**obj)


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
    """featurize_many for one document."""
    return featurize_many([tokens], vocab, config)[0]


# ---------------------------------------------------------------------------
# model

@dataclass
class ClassifierModel:
    config: ClassifierConfig
    vocab: Vocabulary
    input_matrix: np.ndarray    # (len(vocab) + bucket, dim) float64
    output_matrix: np.ndarray   # (2, dim) float64
    epoch_losses: tuple[float, ...] = ()  # training metadata, not serialized

    def rows(self) -> int:
        return len(self.vocab) + self.config.bucket


@dataclass(frozen=True)
class Prediction:
    label: str
    prob: float
    dist: dict[str, float]


def _softmax_and_logloss(logits: np.ndarray, y: int) -> tuple[np.ndarray, float]:
    m = logits.max()
    e = np.exp(logits - m)
    z = e.sum()
    p = e / z
    loss = float(np.log(z) + m - logits[y])
    return p, loss


def example_loss(
    input_matrix: np.ndarray, output_matrix: np.ndarray, ids: np.ndarray, y: int
) -> float:
    """Softmax log loss of one example at the given parameters."""
    if ids.size:
        hidden = input_matrix.take(ids, axis=0).mean(axis=0)
    else:
        hidden = np.zeros(input_matrix.shape[1])
    _, loss = _softmax_and_logloss(output_matrix @ hidden, y)
    return loss


def example_grads(
    input_matrix: np.ndarray, output_matrix: np.ndarray, ids: np.ndarray, y: int
) -> tuple[float, np.ndarray, np.ndarray]:
    """Loss plus analytic gradients for one example.

    Returns (loss, grad_output, grad_row) where grad_output has the
    output matrix shape and grad_row is the gradient of every contributing
    input row (already scaled by 1/feature_count). With no features the row
    gradient is zero-length.
    """
    dim = input_matrix.shape[1]
    if ids.size:
        hidden = input_matrix.take(ids, axis=0).mean(axis=0)
    else:
        hidden = np.zeros(dim)
    p, loss = _softmax_and_logloss(output_matrix @ hidden, y)
    g = p.copy()
    g[y] -= 1.0
    grad_output = np.outer(g, hidden)
    if ids.size:
        grad_row = (output_matrix.T @ g) / ids.size
    else:
        grad_row = np.zeros(0)
    return loss, grad_output, grad_row


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


def train(
    dataset: Sequence[LabeledExample], config: ClassifierConfig, tokenizer: Tokenizer
) -> ClassifierModel:
    """Sequential SGD over the dataset in its given order.

    The caller owns example order (training sets come pre-shuffled from the
    seed pool assembler); train never reorders, so identical inputs produce
    an identical model.

    Each example is tokenized and featurized once, before the first epoch.
    A step updates each distinct feature row once per occurrence of that row
    in the example, in sequence, so a repeated row receives exactly the
    updates a per-occurrence loop would give it.
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
    output_matrix = np.zeros((len(config.labels), config.dim))

    total = config.epochs * len(dataset)
    t = 0
    epoch_losses = []
    for epoch in range(config.epochs):
        loss_sum = 0.0
        for ids, distinct, prefixes, y in steps:
            lr_t = config.lr * (1.0 - t / total)
            t += 1
            loss, grad_output, grad_row = example_grads(input_matrix, output_matrix, ids, y)
            loss_sum += loss
            output_matrix -= lr_t * grad_output
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

    return ClassifierModel(
        config=config,
        vocab=vocab,
        input_matrix=input_matrix,
        output_matrix=output_matrix,
        epoch_losses=tuple(epoch_losses),
    )


def predict_ids(model: ClassifierModel, ids: np.ndarray) -> np.ndarray:
    """Probability distribution over labels for a document's feature ids."""
    if ids.size:
        hidden = model.input_matrix.take(ids, axis=0).mean(axis=0)
        logits = model.output_matrix @ hidden
        m = logits.max()
        e = np.exp(logits - m)
        return e / e.sum()
    # No recognizable content: exactly uniform, caller may want to log it.
    n = len(model.config.labels)
    return np.full(n, 1.0 / n)


def predict_tokens(model: ClassifierModel, tokens: Sequence[str]) -> np.ndarray:
    """Probability distribution over labels for pre-tokenized text."""
    return predict_ids(model, featurize(tokens, model.vocab, model.config))


def predict_many(model: ClassifierModel, texts: Sequence[str], tokenizer: Tokenizer) -> list[Prediction]:
    """predict for each text, featurized together by featurize_many."""
    token_lists = [tokenizer.tokenize(text) for text in texts]
    labels = model.config.labels
    out = []
    for ids in featurize_many(token_lists, model.vocab, model.config):
        p = predict_ids(model, ids)
        i = int(np.argmax(p))  # ties resolve to the earlier label
        out.append(Prediction(
            label=labels[i],
            prob=float(p[i]),
            dist={name: float(p[j]) for j, name in enumerate(labels)},
        ))
    return out


def predict(model: ClassifierModel, text: str, tokenizer: Tokenizer) -> Prediction:
    return predict_many(model, [text], tokenizer)[0]


# ---------------------------------------------------------------------------
# model file format
#
#   magic   b"UFWC"
#   u32     format version (currently 1)
#   u32     config JSON length, then that many bytes (canonical JSON)
#   u64     vocabulary size V, then V entries of (u32 len, token bytes, u64 count)
#   u64 x2  input matrix shape, then rows*cols little-endian float64
#   u64 x2  output matrix shape, then rows*cols little-endian float64
#   u64     checksum: first 8 bytes of SHA-256 over all preceding bytes
#
# All integers little-endian. The checksum makes truncation and bit rot a
# load-time error instead of silently wrong scores.

MODEL_MAGIC = b"UFWC"
MODEL_FORMAT_VERSION = 1
_CHUNK_ELEMS = 1 << 20


class _HashingWriter:
    def __init__(self, f):
        self.f = f
        self.h = hashlib.sha256()

    def write(self, data: bytes) -> None:
        self.f.write(data)
        self.h.update(data)


def _matrix_bytes_iter(arr: np.ndarray):
    flat = np.ascontiguousarray(arr, dtype="<f8").reshape(-1)
    for start in range(0, flat.size, _CHUNK_ELEMS):
        yield flat[start : start + _CHUNK_ELEMS].tobytes()


def save_model(model: ClassifierModel, path: str) -> str:
    """Write the model file and return the hex SHA-256 of the whole file.

    The digest comes from the hash already kept for the checksum trailer, so
    callers need not read the file back to fingerprint it.
    """
    cfg = asdict(model.config)
    cfg["labels"] = list(model.config.labels)
    cfg_bytes = canonical_json(cfg).encode("utf-8")
    with atomic_open(path, "wb") as raw:
        w = _HashingWriter(raw)
        w.write(MODEL_MAGIC)
        w.write(struct.pack("<I", MODEL_FORMAT_VERSION))
        w.write(struct.pack("<I", len(cfg_bytes)))
        w.write(cfg_bytes)
        w.write(struct.pack("<Q", len(model.vocab)))
        for token, count in zip(model.vocab.tokens, model.vocab.counts):
            tb = token.encode("utf-8")
            w.write(struct.pack("<I", len(tb)))
            w.write(tb)
            w.write(struct.pack("<Q", count))
        for arr in (model.input_matrix, model.output_matrix):
            w.write(struct.pack("<QQ", arr.shape[0], arr.shape[1]))
            for chunk in _matrix_bytes_iter(arr):
                w.write(chunk)
        w.write(w.h.digest()[:8])
    return w.h.hexdigest()


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CorruptPayload("model file truncated")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]


def load_model(path: str) -> ClassifierModel:
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < 4 or data[:4] != MODEL_MAGIC:
        raise BadMagic(data[:4])
    if len(data) < 16:
        raise CorruptPayload("model file truncated")
    body, trailer = data[:-8], data[-8:]
    if hashlib.sha256(body).digest()[:8] != trailer:
        raise CorruptPayload("checksum mismatch")
    r = _Reader(body)
    r.take(4)  # magic, checked above
    version = r.u32()
    if version != MODEL_FORMAT_VERSION:
        raise UnsupportedVersion(version)
    try:
        cfg_obj = json.loads(r.take(r.u32()).decode("utf-8"))
        config = ClassifierConfig.from_json_obj(cfg_obj)
    except (ValueError, TypeError) as e:
        raise CorruptPayload(f"bad config block: {e}") from e
    v = r.u64()
    tokens: list[str] = []
    counts: list[int] = []
    for _ in range(v):
        tl = r.u32()
        try:
            tokens.append(r.take(tl).decode("utf-8"))
        except UnicodeDecodeError as e:
            raise CorruptPayload("bad vocab token encoding") from e
        counts.append(r.u64())
    matrices = []
    for _ in range(2):
        rows, cols = r.u64(), r.u64()
        n = rows * cols
        arr = np.frombuffer(r.take(n * 8), dtype="<f8").reshape(rows, cols).copy()
        matrices.append(arr)
    if r.pos != len(body):
        raise CorruptPayload("trailing bytes after matrices")
    input_matrix, output_matrix = matrices
    if len(set(tokens)) != len(tokens):
        raise CorruptPayload("duplicate vocab tokens")
    if input_matrix.shape != (v + config.bucket, config.dim):
        raise CorruptPayload("input matrix shape does not match config")
    if output_matrix.shape != (len(config.labels), config.dim):
        raise CorruptPayload("output matrix shape does not match config")
    return ClassifierModel(
        config=config,
        vocab=Vocabulary.from_rows(tokens, counts),
        input_matrix=input_matrix,
        output_matrix=output_matrix,
    )


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
