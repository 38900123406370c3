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
from typing import Iterable, Sequence

import numpy as np

from .errors import WebsiftError
from .ioutil import canonical_json
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


def featurize(tokens: Sequence[str], vocab: Vocabulary, config: ClassifierConfig) -> np.ndarray:
    """Map tokens to feature row ids (int64).

    Emits in-vocabulary unigram rows in token order, then hashed n-gram rows
    for each window length 2..word_ngrams, windows left to right. Unknown
    unigrams contribute no row of their own but their token hash still feeds
    the n-grams they sit in.
    """
    index = vocab.index
    v = len(vocab)
    parts: list[np.ndarray] = []
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
                h *= _NGRAM_MULT_U64
                h += hashes[k : k + width]
            parts.append((h % bucket).astype(np.int64) + v)
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts)


def has_no_features(tokens: Sequence[str], vocab: Vocabulary, config: ClassifierConfig) -> bool:
    """True exactly when featurize(tokens, vocab, config) is empty.

    That takes no in-vocabulary token and no n-gram window, so the tokens
    are only scanned when they are too few to form a window. Such a document
    predicts the uniform distribution.
    """
    if config.word_ngrams > 1 and len(tokens) > 1:
        return False
    index = vocab.index
    return not any(t in index for t in tokens)


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


def train(
    dataset: Sequence[LabeledExample], config: ClassifierConfig, tokenizer: Tokenizer
) -> ClassifierModel:
    """Sequential SGD over the dataset in its given order.

    The caller owns example order (training sets come pre-shuffled from the
    seed pool assembler); train never reorders, so identical inputs produce
    an identical model.
    """
    if not dataset:
        raise ValueError("empty training dataset")
    label_index = {name: i for i, name in enumerate(config.labels)}
    for ex in dataset:
        if ex.label not in label_index:
            raise ValueError(f"label {ex.label!r} not in configured labels {config.labels}")

    vocab = build_vocab((tokenizer.tokenize(ex.text) for ex in dataset), config)
    rng = np.random.default_rng(config.seed)
    rows = len(vocab) + config.bucket
    bound = 1.0 / config.dim
    input_matrix = rng.uniform(-bound, bound, size=(rows, config.dim))
    output_matrix = np.zeros((len(config.labels), config.dim))

    total = config.epochs * len(dataset)
    t = 0
    epoch_losses = []
    zero_feature_seen = 0
    for epoch in range(config.epochs):
        loss_sum = 0.0
        for ex in dataset:
            lr_t = config.lr * (1.0 - t / total)
            t += 1
            ids = featurize(tokenizer.tokenize(ex.text), vocab, config)
            y = label_index[ex.label]
            loss, grad_output, grad_row = example_grads(input_matrix, output_matrix, ids, y)
            loss_sum += loss
            output_matrix -= lr_t * grad_output
            if ids.size:
                np.subtract.at(input_matrix, ids, lr_t * grad_row)
            else:
                zero_feature_seen += 1
        epoch_losses.append(loss_sum / len(dataset))
        log.debug("epoch %d mean loss %.6f", epoch + 1, epoch_losses[-1])
    if zero_feature_seen:
        log.info("training saw %d zero-feature examples", zero_feature_seen)

    return ClassifierModel(
        config=config,
        vocab=vocab,
        input_matrix=input_matrix,
        output_matrix=output_matrix,
        epoch_losses=tuple(epoch_losses),
    )


def predict_tokens(model: ClassifierModel, tokens: Sequence[str]) -> np.ndarray:
    """Probability distribution over labels for pre-tokenized text."""
    ids = featurize(tokens, model.vocab, model.config)
    if ids.size:
        hidden = model.input_matrix.take(ids, axis=0).mean(axis=0)
        logits = model.output_matrix @ hidden
        m = logits.max()
        e = np.exp(logits - m)
        return e / e.sum()
    # No recognizable content: exactly uniform, caller may want to log it.
    n = len(model.config.labels)
    return np.full(n, 1.0 / n)


def predict(model: ClassifierModel, text: str, tokenizer: Tokenizer) -> Prediction:
    p = predict_tokens(model, tokenizer.tokenize(text))
    i = int(np.argmax(p))  # ties resolve to the earlier label
    labels = model.config.labels
    return Prediction(
        label=labels[i],
        prob=float(p[i]),
        dist={name: float(p[j]) for j, name in enumerate(labels)},
    )


def score_text(model: ClassifierModel, text: str, tokenizer: Tokenizer) -> float:
    """Probability of the positive (kept) label."""
    return float(predict_tokens(model, tokenizer.tokenize(text))[1])


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


def save_model(model: ClassifierModel, path: str) -> None:
    cfg = asdict(model.config)
    cfg["labels"] = list(model.config.labels)
    cfg_bytes = canonical_json(cfg).encode("utf-8")
    with open(path, "wb") as raw:
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
        raw.write(w.h.digest()[:8])


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


def model_fingerprint(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


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
