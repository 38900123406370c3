"""Deterministic input generation for the websift benchmark.

Corpora, seed pools and manifests are a pure function of the seed: the same
seed writes the same bytes. Models and the interrupted prior run are made by
websift's own train, save_model and score_corpus, so they are a function of
the seed and of the program's sources; inputs are therefore cached per
generator version, workload, seed and hash of src/ (see ensure_inputs), and
are never timed. Documents are drawn from a Zipfian, long-tailed vocabulary:
a shared common lexicon plus one lexicon per quality class, so a classifier
trained on seed examples keeps about half of a corpus, and most token types
are rare, so many are out of vocabulary at scoring time.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import numpy as np

# Bump when anything below changes the generated bytes, so stale caches are
# never reused.
GEN_VERSION = 4

# score_fresh model: dim and word_ngrams are the production defaults; bucket
# is cut so that load_model's ~4x peak stays far inside a 7 GB machine (the
# file is ~110 MB).
MODEL = dict(dim=256, word_ngrams=3, bucket=50_000, min_count=5, epochs=3, lr=0.1, seed=17)
# score_resume re-reads far more than it scores, so a small model keeps both
# the prior run's generation and each repetition's set-up cheap. It trains on
# enough examples to classify every document correctly, so the kept share,
# which sets how much a resume re-reads, does not vary from seed to seed.
RESUME_MODEL = dict(dim=16, word_ngrams=1, bucket=1_000, min_count=5, epochs=3, lr=0.1, seed=19)
TRAIN_PER_CLASS = 200
RESUME_TRAIN_PER_CLASS = 1000
TRAIN_TOKENS = (60, 100)

DOC_TOKENS = (80, 125)           # about 1 KB of text per document
# The vocabulary's shape is assumed, not measured. Zipf's law puts the rank
# exponent of word frequencies near 1 in natural-language text (Zipf 1949),
# hence ZIPF_S (with a Zipf-Mandelbrot rank offset of 2.7); the exponent,
# the offset, the common-word share and both type counts were set by hand
# and have not been fitted to any web corpus. They set the token_hash hit
# ratio and the feature rows per document, so those per-layer figures
# describe this synthetic corpus, not real web text.
COMMON_SHARE = 0.55              # tokens drawn from the shared lexicon
COMMON_TYPES = 3_000
CLASS_TYPES = 40_000
ZIPF_S = 1.07
ZIPF_OFFSET = 2.7

# score_fresh corpus
FRESH_SHARDS = 8
FRESH_DOCS_PER_SHARD = 800
FRESH_EMPTY = 20                 # documents with empty text
FRESH_ONE_OOV = 20               # one token, never seen in training
FRESH_MALFORMED = 8              # lines that are not JSON objects

# score_resume corpus and the interrupted prior run
RESUME_SHARDS = 120
RESUME_DOCS_PER_SHARD = 600
RESUME_PENDING = 3               # shards the prior run did not finish ...
RESUME_PENDING_DOCS = 40         # ... small ones, so re-reading dominates
OTHER_NOISE = 0.1                # label noise of the second manifest

# pipeline_rounds world
POOL_DOCS_PER_CLASS = 300
RAW_SHARDS = 4
RAW_DOCS_PER_SHARD = 600
PIPELINE = dict(
    sample_size=300,
    max_rounds=2,
    target_training_set=240,
    balance=0.5,
    threshold=0.5,
)
PIPELINE_CLASSIFIER = dict(dim=256, word_ngrams=3, bucket=30_000, min_count=5, epochs=3,
                           lr=0.1, seed=23)
DEFAULT_MANIFEST_SHARDS = 200
DEFAULT_MANIFEST_TOKENS = 20_000

_ONSETS = ["", "b", "c", "d", "f", "g", "h", "k", "l", "m", "n", "p", "r", "s", "t",
           "v", "w", "z", "br", "ch", "cr", "dr", "fl", "gr", "pl", "pr", "sh", "st",
           "str", "th", "tr"]
_VOWELS = ["a", "e", "i", "o", "u", "ai", "ea", "ou", "io", "é", "ü"]
_CODAS = ["", "", "", "n", "r", "s", "t", "l", "m", "nd", "st", "ng"]


def _words(rng: np.random.Generator, n: int, taken: set[str]) -> list[str]:
    out: list[str] = []
    while len(out) < n:
        m = 2 * (n - len(out))
        syllables = rng.integers(1, 4, size=m).tolist()
        parts = zip(rng.integers(len(_ONSETS), size=(m, 3)).tolist(),
                    rng.integers(len(_VOWELS), size=(m, 3)).tolist(),
                    rng.integers(len(_CODAS), size=(m, 3)).tolist())
        for k, (on, vo, co) in zip(syllables, parts):
            w = "".join(_ONSETS[on[j]] + _VOWELS[vo[j]] + _CODAS[co[j]] for j in range(k))
            if w not in taken and len(out) < n:
                taken.add(w)
                out.append(w)
    return out


class Lexicon:
    """Three Zipfian lexicons: shared, positive class, negative class."""

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        taken: set[str] = set()
        self.common = _words(rng, COMMON_TYPES, taken)
        self.classes = (_words(rng, CLASS_TYPES, taken), _words(rng, CLASS_TYPES, taken))
        self.all_words = self.common + self.classes[0] + self.classes[1]
        self.seen = np.zeros(len(self.all_words), dtype=bool)   # types drawn so far
        self.cdf_common = self._cdf(COMMON_TYPES)
        self.cdf_class = self._cdf(CLASS_TYPES)

    @staticmethod
    def _cdf(n: int) -> np.ndarray:
        w = 1.0 / np.power(np.arange(1, n + 1) + ZIPF_OFFSET, ZIPF_S)
        c = np.cumsum(w)
        return c / c[-1]

    def texts(self, rng: np.random.Generator, classes: list[int], lengths: list[int]) -> list[str]:
        """One text per (class, length), all drawn in one vectorized pass."""
        total = sum(lengths)
        u = rng.random(total)
        from_common = rng.random(total) < COMMON_SHARE
        owner = np.repeat(np.asarray(classes, dtype=np.int64), lengths)
        idx = COMMON_TYPES + owner * CLASS_TYPES + np.searchsorted(self.cdf_class, u)
        idx[from_common] = np.searchsorted(self.cdf_common, u[from_common])
        self.seen[idx] = True
        words = self.all_words
        tokens = [words[i] for i in idx.tolist()]
        # one paragraph break per text, so structural tokens appear as on real pages
        cuts = rng.integers(1, np.maximum(np.asarray(lengths), 2)).tolist()
        out, at = [], 0
        for n, cut in zip(lengths, cuts):
            out.append(" ".join(tokens[at:at + cut]) + "\n\n" + " ".join(tokens[at + cut:at + n]))
            at += n
        return out

    def text(self, rng: np.random.Generator, cls: int, n_tokens: int) -> str:
        return self.texts(rng, [cls], [n_tokens])[0]


def _doc_id(seed: int, n: int) -> str:
    # a bijection on 64-bit ints, so ids are unique and unsorted like URL hashes
    return f"{((n + 1) * 0x9E3779B97F4A7C15 ^ seed * 0xBF58476D1CE4E5B9) & (2**64 - 1):016x}"


def _doc_line(doc_id: str, text: str, source: str) -> str:
    return json.dumps({"id": doc_id, "source": source, "text": text},
                      ensure_ascii=False, sort_keys=True)


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def _corpus(seed: int, stream: int, lex: Lexicon, sizes: list[int], out_dir: str,
            plant: bool) -> dict:
    """Write one shard per entry of sizes; return the corpus shape."""
    rng = np.random.default_rng([seed, stream])
    os.makedirs(out_dir, exist_ok=True)
    total = sum(sizes)
    special = {}
    if plant:
        slots = rng.choice(total, FRESH_EMPTY + FRESH_ONE_OOV + FRESH_MALFORMED, replace=False)
        kinds = ["empty"] * FRESH_EMPTY + ["one_oov"] * FRESH_ONE_OOV + ["malformed"] * FRESH_MALFORMED
        special = {int(s): k for s, k in zip(slots, kinds)}
    labels: dict[str, int] = {}
    n_bytes = 0
    lex.seen[:] = False
    n = -1
    for s, size in enumerate(sizes):
        classes = (rng.random(size) < 0.5).astype(int).tolist()
        lengths = rng.integers(*DOC_TOKENS, size=size).tolist()
        sources = rng.integers(16, size=size).tolist()
        texts = lex.texts(rng, classes, lengths)
        lines = []
        for cls, text, source in zip(classes, texts, sources):
            n += 1
            doc_id = _doc_id(seed * 7 + stream, n)
            kind = special.get(n)
            if kind == "malformed":
                lines.append('{"id": "' + doc_id + '", "text": ')
                continue
            if kind == "empty":
                text = ""
            elif kind == "one_oov":
                text = f"oov{seed}x{n}"
            labels[doc_id] = cls
            lines.append(_doc_line(doc_id, text, f"crawl-{source:02d}"))
        path = os.path.join(out_dir, f"shard-{s:03d}.jsonl")
        _write_lines(path, lines)
        n_bytes += os.path.getsize(path)
    return {
        "shards": [os.path.join(os.path.basename(out_dir), f"shard-{s:03d}.jsonl")
                   for s in range(len(sizes))],
        "lines": total,
        "bytes": n_bytes,
        "token_types": int(lex.seen.sum()) + (FRESH_ONE_OOV if plant else 0),
        "planted_zero_feature": FRESH_EMPTY + FRESH_ONE_OOV if plant else 0,
        "planted_malformed": FRESH_MALFORMED if plant else 0,
        "labels": labels,
    }


def _train_model(seed: int, lex: Lexicon, path: str, config: dict, per_class: int) -> None:
    from websift.classifier import ClassifierConfig, LabeledExample, save_model, train
    from websift.tokenizers import TokenizerSpec, load_tokenizer

    rng = np.random.default_rng([seed, 2])
    dataset = []
    for _ in range(per_class):
        for cls, label in ((0, "negative"), (1, "positive")):
            dataset.append(LabeledExample(label, lex.text(rng, cls, int(rng.integers(*TRAIN_TOKENS)))))
    model = train(dataset, ClassifierConfig(**config), load_tokenizer(TokenizerSpec()))
    save_model(model, path)


def _fresh(seed: int, lex: Lexicon, d: str) -> dict:
    _train_model(seed, lex, os.path.join(d, "model.ufwc"), MODEL, TRAIN_PER_CLASS)
    meta = _corpus(seed, 3, lex, [FRESH_DOCS_PER_SHARD] * FRESH_SHARDS,
                   os.path.join(d, "corpus"), plant=True)
    meta["model"] = "model.ufwc"
    return meta


def _resume(seed: int, lex: Lexicon, d: str) -> dict:
    from websift.classifier import load_model
    from websift.documents import corpus_fingerprint, shard_digest
    from websift.filtering import score_corpus, write_keep_manifest
    from websift.tokenizers import TokenizerSpec, load_tokenizer

    sizes = [RESUME_DOCS_PER_SHARD] * (RESUME_SHARDS - RESUME_PENDING)
    meta = _corpus(seed, 4, lex, sizes + [RESUME_PENDING_DOCS] * RESUME_PENDING,
                   os.path.join(d, "corpus"), plant=False)
    # The interrupted prior run: score everything, then forget the last
    # RESUME_PENDING shards as a crash before their ledger entries would do,
    # leaving their half-written temp files behind.
    prior = os.path.join(d, "prior")
    model_path = os.path.join(d, "model.ufwc")
    _train_model(seed, lex, model_path, RESUME_MODEL, RESUME_TRAIN_PER_CLASS)
    shards = [os.path.join(d, p) for p in meta["shards"]]
    score_corpus(load_model(model_path), shards, 0.5,
                 load_tokenizer(TokenizerSpec()), prior, workers=1)
    pending = [os.path.basename(p) for p in shards[-RESUME_PENDING:]]
    ledger = os.path.join(prior, "ledger.jsonl")
    with open(ledger, "r", encoding="utf-8") as f:
        kept_lines = [ln for ln in f if json.loads(ln)["shard"] not in pending]
    with open(ledger, "w", encoding="utf-8") as f:
        f.writelines(kept_lines)
    for name in pending:
        for stream in ("kept", "rejected"):
            out = os.path.join(prior, stream, name + ".scored.jsonl")
            with open(out, "rb") as f:
                head = f.read(os.path.getsize(out) // 3)
            os.remove(out)
            with open(out + ".tmp", "wb") as f:
                f.write(head)
    os.remove(os.path.join(prior, "keep_manifest.txt"))

    # A second manifest over the same corpus, standing in for a second
    # classifier: the generator's class labels with label noise.
    rng = np.random.default_rng([seed, 5])
    other = sorted(i for i, cls in meta["labels"].items() if (rng.random() < OTHER_NOISE) != bool(cls))
    fingerprint = corpus_fingerprint(shard_digest(p) for p in shards)
    write_keep_manifest(os.path.join(d, "other_manifest.txt"), fingerprint, other)
    meta["pending"] = pending
    meta["model"] = "model.ufwc"
    return meta


def _pipeline(seed: int, lex: Lexicon, d: str) -> dict:
    from websift.documents import Document
    from websift.seedpool import SeedPoolStore
    from websift.verify import ManifestShard, TokenManifest

    rng = np.random.default_rng([seed, 6])
    store = SeedPoolStore(os.path.join(d, "pool")).init()
    for name, polarity, cls in (("curated", "positive", 1), ("crawl", "negative", 0)):
        docs = [Document(id=f"{name}-{i:05d}", text=lex.text(rng, cls, int(rng.integers(*DOC_TOKENS))))
                for i in range(POOL_DOCS_PER_CLASS)]
        store.add_category(name, polarity, "benchmark", docs)
    meta = _corpus(seed, 7, lex, [RAW_DOCS_PER_SHARD] * RAW_SHARDS, os.path.join(d, "raw"),
                   plant=False)
    default = TokenManifest(
        name="web-default",
        shards=tuple(ManifestShard(id=f"dflt{i:04d}", tokens=DEFAULT_MANIFEST_TOKENS)
                     for i in range(DEFAULT_MANIFEST_SHARDS)),
    )
    with open(os.path.join(d, "default.json"), "w", encoding="utf-8") as f:
        json.dump(default.to_json_obj(), f)
    meta["model"] = None
    return meta


def src_digest(src: str) -> str:
    """sha256 over (relative path, bytes) of the program's sources under src/."""
    h = hashlib.sha256()
    for dp, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__" and not d.endswith(".egg-info"))
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(dp, name)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def ensure_inputs(cache_root: str, seed: int, workload: str, src: str) -> tuple[str, dict]:
    """Generate (or reuse) the inputs of one workload; return (dir, meta).

    The cache key holds a hash of src/: models and the prior run are the
    program's own output, and the reference output digest of the
    deterministic check is stored next to them, so a revision of the
    program never reuses what another revision made.
    """
    d = os.path.join(cache_root, f"v{GEN_VERSION}-{workload}-seed-{seed}-src-{src_digest(src)[:16]}")
    meta_path = os.path.join(d, "meta.json")
    if os.path.exists(meta_path):
        with open(meta_path, "r", encoding="utf-8") as f:
            return d, _resolve(d, json.load(f))
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    lex = Lexicon(seed)
    make = {"score_fresh": _fresh, "score_resume": _resume, "pipeline_rounds": _pipeline}
    meta = make[workload](seed, lex, d)
    meta.pop("labels")
    # written last: its presence marks a complete input set
    with open(meta_path + ".tmp", "w", encoding="utf-8") as f:
        json.dump(meta, f, sort_keys=True)
    os.replace(meta_path + ".tmp", meta_path)
    return d, _resolve(d, meta)


def _resolve(d: str, meta: dict) -> dict:
    """Cached meta holds relative paths, so a cache survives a moved checkout."""
    meta = dict(meta)
    meta["shards"] = [os.path.join(d, p) for p in meta["shards"]]
    if meta["model"]:
        meta["model"] = os.path.join(d, meta["model"])
    return meta
