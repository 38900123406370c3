"""Document records and sharded JSONL corpus IO.

A corpus is a set of JSONL shards, one JSON object per line. The only
required key is "text"; "id", "source" and "meta" are optional. Documents
without an explicit id get a synthesized one of the form
"<shard-name>:<line-number>" (1-based) so every record stays addressable.
Shards ending in .gz are read through gzip. Unknown keys are ignored so
scored output files remain readable as plain corpora.
"""

from __future__ import annotations

import glob
import hashlib
import json
import logging
import os
import zlib
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import WebsiftError
from .ioutil import atomic_open, open_maybe_gzip, sha256_file

log = logging.getLogger(__name__)


class MalformedRecord(WebsiftError):
    """A corpus line that is not a valid document record."""

    def __init__(self, shard: str, line_no: int, reason: str):
        super().__init__(f"{shard}:{line_no}: {reason}")
        self.shard = shard
        self.line_no = line_no
        self.reason = reason


@dataclass
class Document:
    id: str
    text: str
    source: str = ""
    meta: dict[str, str] = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        obj: dict = {"id": self.id, "text": self.text}
        if self.source:
            obj["source"] = self.source
        if self.meta:
            obj["meta"] = self.meta
        return obj


def shard_name(path: str) -> str:
    return os.path.basename(path)


def expand_shards(patterns: Iterable[str]) -> list[str]:
    """Each pattern's sorted glob matches, or the pattern itself if none match."""
    paths: list[str] = []
    for pattern in patterns:
        matched = sorted(glob.glob(pattern))
        paths.extend(matched if matched else [pattern])
    return paths


def parse_document(obj: object, shard: str, line_no: int) -> Document:
    """Validate one decoded JSONL object. Raises MalformedRecord."""
    if not isinstance(obj, dict):
        raise MalformedRecord(shard, line_no, "record is not a JSON object")
    text = obj.get("text")
    if not isinstance(text, str):
        raise MalformedRecord(shard, line_no, "missing or non-string 'text'")
    doc_id = obj.get("id")
    if doc_id is None:
        doc_id = f"{shard}:{line_no}"
    elif not isinstance(doc_id, str):
        raise MalformedRecord(shard, line_no, "non-string 'id'")
    elif not doc_id.strip() or "\n" in doc_id or "\r" in doc_id:
        # keep manifests hold one id per line
        raise MalformedRecord(shard, line_no, "blank 'id' or 'id' with a line break")
    source = obj.get("source", "")
    if not isinstance(source, str):
        raise MalformedRecord(shard, line_no, "non-string 'source'")
    meta = obj.get("meta", {})
    if not isinstance(meta, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in meta.items()
    ):
        raise MalformedRecord(shard, line_no, "'meta' is not a flat string map")
    return Document(id=doc_id, text=text, source=source, meta=dict(meta))


# What opening or reading a missing, truncated or corrupt plain or .gz shard
# raises.
SHARD_READ_ERRORS = (OSError, EOFError, zlib.error)


def iter_shard_lines(path: str) -> Iterator[tuple[int, bytes]]:
    """Yield (line_no, raw line) pairs, line numbers 1-based."""
    with open_maybe_gzip(path, "rb") as f:
        for line_no, raw in enumerate(f, start=1):
            yield line_no, raw


def iter_documents(path: str, strict: bool = True) -> Iterator[Document]:
    """Stream documents from one shard (plain or .gz).

    With strict=True a malformed line raises MalformedRecord; with
    strict=False it is logged and skipped. score_corpus and
    token_length_histogram, which count skips, read through
    filtering._read_shard instead: perfbench traces the iter_shard_lines and
    decode_record names that the filtering module binds, so those two passes
    cannot move onto decode_documents until the benchmark traces this module.
    """
    with open_maybe_gzip(path, "rb") as f:
        yield from decode_documents(f, shard_name(path), strict)


def decode_documents(lines: Iterable[bytes], name: str, strict: bool) -> Iterator[Document]:
    """The decode loop of iter_documents over any binary line stream (such
    as stdin), naming records and id-less documents after name. Lines are
    as a binary file yields them, never empty."""
    for line_no, raw in enumerate(lines, start=1):
        if raw.isspace():
            continue
        try:
            yield decode_record(raw, name, line_no)
        except MalformedRecord as e:
            if strict:
                raise
            log.warning("skipping malformed record: %s", e)


def holds_lone_surrogate(strings: Iterable[str]) -> bool:
    """Whether a string holds a lone surrogate, which a \\u escape can put
    into decoded JSON and which cannot be written as UTF-8."""
    try:
        for s in strings:
            s.encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


def decode_record(raw: bytes, shard: str, line_no: int) -> Document:
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise MalformedRecord(shard, line_no, f"invalid UTF-8 at byte {e.start}") from e
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise MalformedRecord(shard, line_no, f"invalid JSON: {e.msg}") from e
    doc = parse_document(obj, shard, line_no)
    if holds_lone_surrogate((doc.id, doc.text, doc.source, *doc.meta, *doc.meta.values())):
        raise MalformedRecord(shard, line_no, "a string holds a lone surrogate escape")
    return doc


# The one JSONL line encoder: json.dumps(obj, ensure_ascii=False,
# sort_keys=True) without a new encoder per call. No trailing newline.
encode_line = json.JSONEncoder(ensure_ascii=False, sort_keys=True).encode


def write_documents(path: str, docs: Iterable[Document]) -> int:
    n = 0
    with atomic_open(path) as f:
        for doc in docs:
            f.write(encode_line(doc.to_json_obj()) + "\n")
            n += 1
    return n


# Corpus identity. The fingerprint must not depend on the order shards are
# listed in, only on their contents, so runs over the same data agree even
# when globs expand differently.

shard_digest = sha256_file


def corpus_fingerprint(digests: Iterable[str]) -> str:
    joined = "".join(sorted(digests))
    return hashlib.sha256(joined.encode("ascii")).hexdigest()
