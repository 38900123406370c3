import hashlib
import os
from collections import Counter

import pytest

from websift.classifier import load_labeled_examples
from websift.documents import Document
from websift.errors import WebsiftError
from websift.ioutil import sha256_file
from websift.seedpool import (
    FactorOutOfRange,
    InsufficientSeedData,
    NoCategories,
    SeedCategory,
    SeedPoolManifest,
    SeedPoolStore,
    UnknownCategory,
    VersionConflict,
    _quotas,
    assemble_training_set,
    write_training_set,
)


def make_docs(prefix: str, n: int) -> list[Document]:
    return [Document(id=f"{prefix}:{i}", text=f"{prefix} doc {i}") for i in range(n)]


@pytest.fixture
def store(tmp_path):
    return SeedPoolStore(str(tmp_path / "pool")).init()


@pytest.fixture
def pool(store):
    """Two positive and one negative category."""
    store.add_category("wiki", "positive", "curated", make_docs("wiki", 40))
    store.add_category("books", "positive", "curated", make_docs("books", 40))
    store.add_category("crawl", "negative", "raw", make_docs("crawl", 80))
    return store


# -- category and manifest -------------------------------------------------------

def test_category_validation():
    with pytest.raises(ValueError):
        SeedCategory("x", "neutral", "s", (), 0)
    with pytest.raises(ValueError):
        SeedCategory("x", "positive", "s", (), 0, resample_factor=0)
    with pytest.raises(ValueError):
        SeedCategory("x", "positive", "s", (), 0, resample_factor=6)


def test_effective_size():
    cat = SeedCategory("x", "positive", "s", (), doc_count=7, resample_factor=3)
    assert cat.effective_size == 21


def test_manifest_json_round_trip():
    cat = SeedCategory("x", "negative", "s", ("d1", "d2"), 9, resample_factor=2)
    manifest = SeedPoolManifest(version=4, parent_version=3, categories=(cat,))
    assert SeedPoolManifest.from_json_obj(manifest.to_json_obj()) == manifest


def test_manifest_lookup():
    cat = SeedCategory("x", "positive", "s", (), 0)
    manifest = SeedPoolManifest(1, None, (cat,))
    assert manifest.category("x") is cat
    with pytest.raises(UnknownCategory):
        manifest.category("y")
    assert manifest.by_polarity("positive") == [cat]
    assert manifest.by_polarity("negative") == []


# -- store -----------------------------------------------------------------------

def test_empty_store(store):
    assert store.versions() == []
    assert store.latest_version() is None
    with pytest.raises(FileNotFoundError):
        store.load_manifest()


def test_add_category_builds_version_chain(store):
    m1 = store.add_category("a", "positive", "s", make_docs("a", 3))
    assert (m1.version, m1.parent_version) == (1, None)
    m2 = store.add_category("b", "negative", "s", make_docs("b", 3))
    assert (m2.version, m2.parent_version) == (2, 1)
    assert store.versions() == [1, 2]
    assert [c.name for c in store.load_manifest().categories] == ["a", "b"]
    # earlier versions stay readable
    assert [c.name for c in store.load_manifest(1).categories] == ["a"]


def test_add_category_rejects_duplicate_name(store):
    store.add_category("a", "positive", "s", make_docs("a", 3))
    with pytest.raises(WebsiftError):
        store.add_category("a", "positive", "s", make_docs("a", 3))


def test_put_object_is_content_addressed(store):
    docs = make_docs("x", 5)
    d1 = store.put_object(docs)
    d2 = store.put_object(docs)
    assert d1 == d2
    with open(store.object_path(d1), "rb") as f:
        assert hashlib.sha256(f.read()).hexdigest() == d1


def test_category_documents_round_trip(store):
    docs = make_docs("a", 7)
    store.add_category("a", "positive", "s", docs)
    cat = store.load_manifest().category("a")
    assert store.category_documents(cat) == docs


def test_category_documents_detects_count_mismatch(store):
    store.add_category("a", "positive", "s", make_docs("a", 3))
    cat = store.load_manifest().category("a")
    bad = SeedCategory(cat.name, cat.polarity, cat.source, cat.objects, doc_count=99)
    with pytest.raises(WebsiftError):
        store.category_documents(bad)


def test_commit_is_idempotent(store):
    m = store.add_category("a", "positive", "s", make_docs("a", 3))
    assert store.commit(m) == m
    assert store.versions() == [1]


def test_commit_conflict_on_divergent_content(store):
    store.add_category("a", "positive", "s", make_docs("a", 3))
    other = SeedPoolManifest(version=1, parent_version=None, categories=())
    with pytest.raises(VersionConflict):
        store.commit(other)


def test_mark_underrepresented(store):
    store.add_category("a", "positive", "s", make_docs("a", 3))
    m = store.mark_underrepresented("a", 4)
    assert m.version == 2
    assert m.parent_version == 1
    assert m.category("a").resample_factor == 4
    # original version untouched
    assert store.load_manifest(1).category("a").resample_factor == 1


@pytest.mark.parametrize("factor", [0, 1, 2, 6])
def test_mark_rejects_factor_outside_window(store, factor):
    store.add_category("a", "positive", "s", make_docs("a", 3))
    with pytest.raises(FactorOutOfRange):
        store.mark_underrepresented("a", factor)


def test_mark_unknown_category(store):
    store.add_category("a", "positive", "s", make_docs("a", 3))
    with pytest.raises(UnknownCategory):
        store.mark_underrepresented("b", 3)


# -- quotas ------------------------------------------------------------------------

def test_quota_split_with_remainder():
    cats = [SeedCategory(n, "positive", "s", (), 100) for n in ("c", "a", "b")]
    # 11 = 3+3+3 with 2 left over, handed to the first names alphabetically
    assert _quotas(cats, 11) == {"a": 4, "b": 4, "c": 3}
    assert _quotas(cats, 9) == {"a": 3, "b": 3, "c": 3}
    assert _quotas(cats[:1], 5) == {"c": 5}


# -- assembly ----------------------------------------------------------------------

def by_category(examples):
    return Counter(ex.text.split()[0] for ex in examples)


def test_assemble_sizes_and_balance(pool):
    examples = assemble_training_set(pool, target_size=60, balance=0.5, seed=3)
    assert len(examples) == 60
    labels = Counter(ex.label for ex in examples)
    assert labels == {"positive": 30, "negative": 30}
    # 30 positives split evenly over two categories
    assert by_category(examples) == {"wiki": 15, "books": 15, "crawl": 30}


def test_assemble_uneven_balance(pool):
    examples = assemble_training_set(pool, target_size=50, balance=0.4, seed=3)
    labels = Counter(ex.label for ex in examples)
    assert labels == {"positive": 20, "negative": 30}


def test_assemble_quota_remainder_goes_to_first_name(pool):
    examples = assemble_training_set(pool, target_size=50, balance=0.5, seed=3)
    counts = by_category(examples)
    # positives: 25 over {books, wiki} -> books (first alphabetically) gets 13
    assert counts["books"] == 13
    assert counts["wiki"] == 12


def test_assemble_is_deterministic(pool):
    a = assemble_training_set(pool, 40, 0.5, seed=11)
    b = assemble_training_set(pool, 40, 0.5, seed=11)
    c = assemble_training_set(pool, 40, 0.5, seed=12)
    assert a == b
    assert a != c


def test_assemble_shuffles_labels_together(pool):
    examples = assemble_training_set(pool, 60, 0.5, seed=7)
    labels = [ex.label for ex in examples]
    # a seeded shuffle must interleave; sorted-by-label output would be a bug
    assert labels != sorted(labels)
    assert labels != sorted(labels, reverse=True)


def test_assemble_no_replacement_at_factor_one(pool):
    examples = assemble_training_set(pool, 80, 0.5, seed=5)
    positives = [ex.text for ex in examples if ex.label == "positive"]
    assert len(positives) == len(set(positives))


def test_assemble_resampling_caps_repeats(store):
    store.add_category("tiny", "positive", "s", make_docs("tiny", 5), resample_factor=3)
    store.add_category("crawl", "negative", "s", make_docs("crawl", 30))
    examples = assemble_training_set(store, 24, 0.5, seed=1)
    positives = Counter(ex.text for ex in examples if ex.label == "positive")
    assert sum(positives.values()) == 12
    assert max(positives.values()) <= 3


def test_assemble_insufficient_data_is_exact(store):
    store.add_category("tiny", "positive", "s", make_docs("tiny", 5), resample_factor=2)
    store.add_category("crawl", "negative", "s", make_docs("crawl", 30))
    # quota 11 > effective 10
    with pytest.raises(InsufficientSeedData) as err:
        assemble_training_set(store, 22, 0.5, seed=1)
    assert err.value.needed == 11
    assert err.value.available == 10
    assert err.value.category == "tiny"
    # exactly at capacity is fine
    examples = assemble_training_set(store, 20, 0.5, seed=1)
    assert sum(1 for ex in examples if ex.label == "positive") == 10


def test_assemble_requires_both_polarities(store):
    store.add_category("only", "positive", "s", make_docs("only", 10))
    with pytest.raises(NoCategories):
        assemble_training_set(store, 10, 0.5, seed=1)


def test_assemble_respects_pinned_version(store):
    store.add_category("a", "positive", "s", make_docs("a", 5))
    store.add_category("crawl", "negative", "s", make_docs("crawl", 30))
    store.mark_underrepresented("a", 3)
    # v2 lacks the mark, so 10 positives exceed the unmarked capacity
    with pytest.raises(InsufficientSeedData):
        assemble_training_set(store, 20, 0.5, seed=1, version=2)
    examples = assemble_training_set(store, 20, 0.5, seed=1, version=3)
    assert len(examples) == 20


def test_assemble_argument_validation(pool):
    with pytest.raises(ValueError):
        assemble_training_set(pool, 0, 0.5, seed=1)
    with pytest.raises(ValueError):
        assemble_training_set(pool, 10, 0.0, seed=1)
    with pytest.raises(ValueError):
        assemble_training_set(pool, 10, 1.0, seed=1)
    with pytest.raises(ValueError):
        assemble_training_set(pool, 11, 0.5, seed=1)


# -- training set files --------------------------------------------------------------

def test_write_training_set_jsonl_round_trip(tmp_path, pool):
    examples = assemble_training_set(pool, 20, 0.5, seed=2)
    path = str(tmp_path / "train.jsonl")
    write_training_set(path, examples, fmt="jsonl")
    assert load_labeled_examples(path) == examples


def test_write_training_set_labels_round_trip(tmp_path, pool):
    examples = assemble_training_set(pool, 20, 0.5, seed=2)
    path = str(tmp_path / "train.txt")
    write_training_set(path, examples, fmt="labels")
    with open(path, encoding="utf-8") as f:
        assert all(line.startswith("__label__") for line in f)
    assert load_labeled_examples(path) == examples


@pytest.mark.parametrize("fmt", ["jsonl", "labels"])
def test_write_training_set_returns_digest_of_the_file(tmp_path, pool, fmt):
    examples = assemble_training_set(pool, 20, 0.5, seed=2)
    path = str(tmp_path / "train")
    assert write_training_set(path, examples, fmt=fmt) == sha256_file(path)


def test_write_training_set_labels_rejects_newlines(tmp_path):
    from websift.classifier import LabeledExample

    bad = [LabeledExample("positive", "ok"), LabeledExample("positive", "two\nlines")]
    path = tmp_path / "t.txt"
    with pytest.raises(ValueError):
        write_training_set(str(path), bad, fmt="labels")
    assert os.listdir(tmp_path) == []  # no truncated file, no temp file

    path.write_text("earlier set\n", encoding="utf-8")
    with pytest.raises(ValueError):
        write_training_set(str(path), bad, fmt="labels")
    assert path.read_text(encoding="utf-8") == "earlier set\n"


def test_write_training_set_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        write_training_set(str(tmp_path / "t"), [], fmt="csv")
    assert os.listdir(tmp_path) == []
