"""Versioned seed pools and balanced training set assembly.

A pool is a directory holding append-only manifest versions plus
content-addressed document objects. Categories carry a polarity (positive
means high quality) and an optional resample factor for sources known to be
underrepresented. Assembly draws a uniform per-category quota for each
polarity, samples without replacement up to each category's effective size
(documents repeat at most resample_factor times), and shuffles the combined
set with a seeded RNG so downstream training sees a reproducible order.
"""

from __future__ import annotations

import hashlib
import logging
import os
import re
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .classifier import LabeledExample
from .documents import Document, encode_line, iter_documents
from .errors import WebsiftError
from .ioutil import JsonRecord, atomic_open, atomic_write_text, canonical_json, make_dirs

log = logging.getLogger(__name__)

POSITIVE = "positive"
NEGATIVE = "negative"
POLARITIES = (POSITIVE, NEGATIVE)

MIN_RESAMPLE = 1
MAX_RESAMPLE = 5
MARK_MIN = 3  # mark_underrepresented only hands out factors in [MARK_MIN, MAX_RESAMPLE]

_MANIFEST_RE = re.compile(r"^v(\d{6})\.json$")


class UnknownCategory(WebsiftError):
    def __init__(self, name: str):
        super().__init__(f"no category named {name!r}")
        self.name = name


class FactorOutOfRange(WebsiftError):
    def __init__(self, factor: int):
        super().__init__(
            f"resample factor {factor} outside [{MARK_MIN}, {MAX_RESAMPLE}]"
        )
        self.factor = factor


class InsufficientSeedData(WebsiftError):
    def __init__(self, polarity: str, category: str, needed: int, available: int):
        super().__init__(
            f"{polarity} category {category!r} can supply {available} documents "
            f"(with resampling) but {needed} are required"
        )
        self.polarity = polarity
        self.category = category
        self.needed = needed
        self.available = available


class NoCategories(WebsiftError):
    def __init__(self, polarity: str):
        super().__init__(f"pool has no {polarity} categories")
        self.polarity = polarity


class VersionConflict(WebsiftError):
    pass


@dataclass(frozen=True)
class SeedCategory(JsonRecord):
    name: str
    polarity: str
    source: str
    objects: tuple[str, ...]  # content digests of document shards, in order
    doc_count: int
    resample_factor: int = 1

    def __post_init__(self):
        if self.polarity not in POLARITIES:
            raise ValueError(f"polarity must be one of {POLARITIES}")
        if not (MIN_RESAMPLE <= self.resample_factor <= MAX_RESAMPLE):
            raise ValueError(
                f"resample_factor {self.resample_factor} outside "
                f"[{MIN_RESAMPLE}, {MAX_RESAMPLE}]"
            )

    @property
    def effective_size(self) -> int:
        return self.doc_count * self.resample_factor


@dataclass(frozen=True)
class SeedPoolManifest(JsonRecord):
    version: int
    parent_version: Optional[int]
    categories: tuple[SeedCategory, ...]

    def category(self, name: str) -> SeedCategory:
        for cat in self.categories:
            if cat.name == name:
                return cat
        raise UnknownCategory(name)

    def by_polarity(self, polarity: str) -> list[SeedCategory]:
        return [c for c in self.categories if c.polarity == polarity]


class SeedPoolStore:
    """Directory layout:

    pool/
      manifests/v000001.json, v000002.json, ...
      objects/<sha256>.jsonl
    """

    def __init__(self, root: str):
        self.root = root
        self.manifest_dir = os.path.join(root, "manifests")
        self.object_dir = os.path.join(root, "objects")

    def init(self) -> "SeedPoolStore":
        make_dirs(self.manifest_dir)
        make_dirs(self.object_dir)
        return self

    # -- versions ----------------------------------------------------------

    def versions(self) -> list[int]:
        if not os.path.isdir(self.manifest_dir):
            return []
        found = []
        for name in os.listdir(self.manifest_dir):
            m = _MANIFEST_RE.match(name)
            if m:
                found.append(int(m.group(1)))
        return sorted(found)

    def latest_version(self) -> Optional[int]:
        versions = self.versions()
        return versions[-1] if versions else None

    def _manifest_path(self, version: int) -> str:
        return os.path.join(self.manifest_dir, f"v{version:06d}.json")

    def load_manifest(self, version: Optional[int] = None) -> SeedPoolManifest:
        if version is None:
            version = self.latest_version()
            if version is None:
                raise FileNotFoundError(f"pool {self.root} has no manifests")
        return SeedPoolManifest.from_file(self._manifest_path(version))

    def commit(self, manifest: SeedPoolManifest) -> SeedPoolManifest:
        """Write a manifest version, idempotently.

        Re-committing identical content at an existing version is a no-op so
        deterministic replays (pipeline crash recovery) converge instead of
        forking the version history. Divergent content at the same version is
        a hard error.
        """
        path = self._manifest_path(manifest.version)
        payload = canonical_json(manifest.to_json_obj())
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as f:
                existing = f.read()
            if existing == payload:
                return manifest
            raise VersionConflict(
                f"version {manifest.version} already exists with different content"
            )
        atomic_write_text(path, payload)
        return manifest

    # -- objects -----------------------------------------------------------

    def put_object(self, docs: list[Document]) -> str:
        data = "".join(encode_line(d.to_json_obj()) + "\n" for d in docs).encode("utf-8")
        digest = hashlib.sha256(data).hexdigest()
        path = os.path.join(self.object_dir, f"{digest}.jsonl")
        if not os.path.exists(path):
            with atomic_open(path, "wb") as f:
                f.write(data)
        return digest

    def object_path(self, digest: str) -> str:
        return os.path.join(self.object_dir, f"{digest}.jsonl")

    def category_documents(self, category: SeedCategory) -> list[Document]:
        docs: list[Document] = []
        for digest in category.objects:
            docs.extend(iter_documents(self.object_path(digest)))
        if len(docs) != category.doc_count:
            raise WebsiftError(
                f"category {category.name!r} manifest says {category.doc_count} "
                f"documents but objects hold {len(docs)}"
            )
        return docs

    # -- pool editing ------------------------------------------------------

    def add_category(
        self,
        name: str,
        polarity: str,
        source: str,
        docs: list[Document],
        resample_factor: int = 1,
        parent_version: Optional[int] = None,
    ) -> SeedPoolManifest:
        if parent_version is None:
            parent_version = self.latest_version()
        if parent_version is None:
            parent = SeedPoolManifest(version=0, parent_version=None, categories=())
        else:
            parent = self.load_manifest(parent_version)
        for cat in parent.categories:
            if cat.name == name:
                raise WebsiftError(f"category {name!r} already exists")
        digest = self.put_object(docs)
        new_cat = SeedCategory(
            name=name,
            polarity=polarity,
            source=source,
            objects=(digest,),
            doc_count=len(docs),
            resample_factor=resample_factor,
        )
        manifest = SeedPoolManifest(
            version=parent.version + 1,
            parent_version=parent.version if parent.version > 0 else None,
            categories=parent.categories + (new_cat,),
        )
        return self.commit(manifest)

    def mark_underrepresented(
        self, name: str, factor: int, version: Optional[int] = None
    ) -> SeedPoolManifest:
        if not (MARK_MIN <= factor <= MAX_RESAMPLE):
            raise FactorOutOfRange(factor)
        parent = self.load_manifest(version)
        parent.category(name)  # raises UnknownCategory
        cats = tuple(
            replace(c, resample_factor=factor) if c.name == name else c
            for c in parent.categories
        )
        manifest = SeedPoolManifest(
            version=parent.version + 1, parent_version=parent.version, categories=cats
        )
        return self.commit(manifest)


# ---------------------------------------------------------------------------
# assembly

def _category_rng(seed: int, polarity: str, name: str) -> np.random.Generator:
    digest = hashlib.sha256(f"{polarity}/{name}".encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    return np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, *words])


def _quotas(categories: list[SeedCategory], total: int) -> dict[str, int]:
    """Uniform split; leftover goes one each to the first categories in name order."""
    names = sorted(c.name for c in categories)
    k = len(names)
    base, rem = divmod(total, k)
    return {name: base + (1 if i < rem else 0) for i, name in enumerate(names)}


def assemble_training_set(
    store: SeedPoolStore,
    target_size: int,
    balance: float,
    seed: int,
    version: Optional[int] = None,
) -> list[LabeledExample]:
    """Draw a balanced labeled training set from the pool.

    Exactly floor(target_size * balance) positives. Within a polarity every
    category contributes an equal quota (remainder assigned in name order).
    Deterministic for a fixed (pool version, target_size, balance, seed).
    """
    if target_size < 1:
        raise ValueError("target_size must be >= 1")
    if not (0.0 < balance < 1.0):
        raise ValueError("balance must be in (0, 1)")
    if balance == 0.5 and target_size % 2 != 0:
        raise ValueError("target_size must be even when balance is 0.5")
    manifest = store.load_manifest(version)

    n_positive = int(target_size * balance)
    goal = {POSITIVE: n_positive, NEGATIVE: target_size - n_positive}
    examples: list[LabeledExample] = []
    for polarity in POLARITIES:
        cats = manifest.by_polarity(polarity)
        if not cats:
            raise NoCategories(polarity)
        quotas = _quotas(cats, goal[polarity])
        for cat in sorted(cats, key=lambda c: c.name):
            quota = quotas[cat.name]
            if quota > cat.effective_size:
                raise InsufficientSeedData(polarity, cat.name, quota, cat.effective_size)
            docs = store.category_documents(cat)
            rng = _category_rng(seed, polarity, cat.name)
            virtual = rng.permutation(cat.effective_size)[:quota]
            for idx in virtual:
                examples.append(
                    LabeledExample(label=polarity, text=docs[int(idx) % cat.doc_count].text)
                )
    order = np.random.default_rng(seed).permutation(len(examples))
    return [examples[int(i)] for i in order]


def write_training_set(path: str, examples: list[LabeledExample], fmt: str = "jsonl") -> str:
    """Write examples for the classifier trainer and return the hex SHA-256
    of the bytes written, so callers need not read the file back.

    fmt="jsonl" writes {"label": ..., "text": ...} records and handles any
    text. fmt="labels" writes __label__<name> <text> lines, which is the
    interchange form other tooling expects, but refuses texts containing
    newlines since the format has no escaping. A refused write leaves path
    as it was.
    """
    if fmt not in ("jsonl", "labels"):
        raise ValueError(f"unknown training set format {fmt!r}")
    h = hashlib.sha256()
    with atomic_open(path, "wb") as f:
        for i, ex in enumerate(examples):
            if fmt == "jsonl":
                line = encode_line({"label": ex.label, "text": ex.text})
            elif "\n" in ex.text:
                raise ValueError(f"example {i} contains a newline; use fmt='jsonl'")
            else:
                line = f"__label__{ex.label} {ex.text}"
            data = (line + "\n").encode("utf-8")
            f.write(data)
            h.update(data)
    return h.hexdigest()
