"""Small IO helpers shared across modules.

Every file the package writes reaches disk one of two ways. Whole files
(models, training sets, pool manifests and objects, scored shards, plans,
the CLI's --out files) go through atomic_open: a reader sees the old file
or the complete new one, never a partial one, and the new one is durable
once the call returns. Logs that record progress
(the scoring ledger, the pipeline journal) go through append_line and are
read back by read_log, which owns the rule for what a crash mid-append
leaves behind. Directories are made with make_dirs, so a new directory's
entry in its parent is durable before anything inside it is, and a file
whose absence later writes rely on is removed with remove_file.

The records the package writes as JSON (settings, pool manifests,
scoring-ledger entries and their stats, step plans, eval reports) and the token manifests
and eval scores that other tools write are dataclasses that inherit
JsonRecord, the one codec between such a record and its JSON form.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gzip
import hashlib
import json
import logging
import os
import typing
from typing import IO, Any, BinaryIO, Callable, ClassVar, Iterable, Iterator

from .errors import WebsiftError

log = logging.getLogger(__name__)


class LogCorrupt(WebsiftError):
    """An append log holds a bad line before its final one."""


def canonical_json(obj: Any) -> str:
    """Serialize with sorted keys and fixed separators.

    Used wherever bytes must be reproducible: manifests, journal entries,
    fingerprinted artifacts.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


_JSON_TYPES = {
    bool: "boolean", int: "integer", float: "number", str: "string",
    list: "array", tuple: "array", dict: "object", type(None): "null",
}


class JsonRecord:
    """Mixin giving a dataclass one JSON codec, driven by its fields' type hints.

    Anything but an object holding exactly the fields is a ValueError naming
    the class and the key: a non-object, an unknown key, a missing key with
    no default, or a wrong JSON type. A bool is never an int; an int is a
    valid float and is kept as written, so the bytes re-encode unchanged.
    Arrays become the declared tuple or list; nested records decode in turn.

    DERIVED names properties that to_json_obj writes after the fields; a
    decode accepts them and rejects one that differs from what the fields
    give. IGNORE_UNKNOWN drops unknown keys instead of rejecting them, for
    files that other tools write.
    """

    DERIVED: ClassVar[tuple[str, ...]] = ()
    IGNORE_UNKNOWN: ClassVar[bool] = False

    @classmethod
    def from_json_obj(cls, obj: Any):
        name = cls.__name__
        if not isinstance(obj, dict):
            raise ValueError(f"{name}: expected a JSON object, got {_json_type(obj)}")
        hints, required = _record_fields(cls)
        unknown = obj.keys() - hints.keys() - set(cls.DERIVED)
        if unknown and not cls.IGNORE_UNKNOWN:
            raise ValueError(f"{name}: unknown key {', '.join(map(repr, sorted(unknown)))}")
        missing = required - obj.keys()
        if missing:
            raise ValueError(f"{name}: missing key {', '.join(map(repr, sorted(missing)))}")
        record = cls(**{
            key: _decode(value, hints[key], name, key)
            for key, value in obj.items() if key in hints
        })
        for key in cls.DERIVED:
            want = getattr(record, key)
            if key in obj and not (type(obj[key]) is type(want) and obj[key] == want):
                raise ValueError(
                    f"{name}: {key!r} is {obj[key]!r} but the other keys give {want!r}"
                )
        return record

    @classmethod
    def from_file(cls, path: str):
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_json_obj(json.load(f))

    def to_json_obj(self) -> dict:
        obj = {f.name: _encode(getattr(self, f.name)) for f in dataclasses.fields(self)}
        obj.update((key, getattr(self, key)) for key in self.DERIVED)
        return obj


@functools.cache
def _record_fields(cls: type) -> tuple[dict[str, Any], set[str]]:
    """A dataclass's resolved type hints by field, and its fields without a default."""
    fields = dataclasses.fields(cls)
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields}, {
        f.name for f in fields
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    }


def _json_type(value: Any) -> str:
    return _JSON_TYPES.get(type(value), type(value).__name__)


def _decode(value: Any, hint: Any, name: str, key: str) -> Any:
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union and value is None and type(None) in args:
        return None
    if origin is typing.Union:  # Optional[X]
        hint = args[0]
        origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hasattr(hint, "from_json_obj"):
        try:
            return hint.from_json_obj(value)
        except ValueError as e:
            raise ValueError(f"{name}.{key}: {e}") from None
    if origin in (tuple, list) and isinstance(value, list):
        # tuple[X, ...] and tuple[X, X] alike; a class checks its own lengths
        item = args[0]
        if item in (int, str) and {item}.issuperset(map(type, value)):
            return origin(value)    # the common case, without a call per element
        return origin(_decode(v, item, name, key) for v in value)
    expected = origin or hint
    if type(value) is not expected and not (expected is float and type(value) is int):
        raise ValueError(
            f"{name}: {key!r} must be a JSON {_JSON_TYPES[expected]}, got {_json_type(value)}"
        )
    return value


_SCALARS = frozenset({bool, int, float, str, type(None)})


def _encode(value: Any) -> Any:
    if hasattr(value, "to_json_obj"):
        return value.to_json_obj()
    if isinstance(value, (list, tuple)):
        if _SCALARS.issuperset(map(type, value)):
            return list(value)
        return [_encode(v) for v in value]
    return value


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def open_maybe_gzip(path: str, mode: str = "rb") -> BinaryIO:
    """Open a shard file, transparently handling a .gz suffix."""
    if path.endswith(".gz"):
        return gzip.open(path, mode)
    return open(path, mode)


def _fsync_dir(path: str) -> None:
    """Fsync the directory holding path, making a new or renamed entry durable."""
    fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def make_dirs(path: str) -> None:
    """os.makedirs(path, exist_ok=True) that fsyncs the parent of each
    directory it creates, so the new entry survives a crash."""
    path = os.path.normpath(path)
    if os.path.isdir(path):
        return
    make_dirs(os.path.dirname(path))
    try:
        os.mkdir(path)
    except FileExistsError:
        if not os.path.isdir(path):
            raise
        return
    _fsync_dir(path)


@contextlib.contextmanager
def atomic_open(path: str, mode: str = "w") -> Iterator[IO]:
    """Open path for a whole-file write ("w" text as UTF-8, or "wb").

    Writes go to path + ".tmp". On a clean exit the temp file is fsynced,
    renamed over path and the directory fsynced, so path then holds the new
    bytes durably. If the block raises, the temp file is removed and path is
    left as it was.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
    _fsync_dir(path)


def atomic_write_text(path: str, text: str) -> None:
    with atomic_open(path) as f:
        f.write(text)


def write_lines(path: str, lines: Iterable[str]) -> str:
    """Write each line and a newline to path through atomic_open, and return
    the hex SHA-256 of the bytes as they are written, so callers need not
    read the file back. If lines raises, path is left as it was."""
    h = hashlib.sha256()
    with atomic_open(path, "wb") as f:
        for line in lines:
            data = (line + "\n").encode("utf-8")
            f.write(data)
            h.update(data)
    return h.hexdigest()


def remove_file(path: str) -> None:
    """Remove path if it exists, then fsync its directory so the removal
    is durable before anything written after it."""
    try:
        os.remove(path)
    except FileNotFoundError:
        return
    _fsync_dir(path)


def append_line(path: str, line: str) -> None:
    """Append line (which holds no newline) to a log, durably.

    The directory is fsynced too when this append creates the file.
    """
    created = not os.path.exists(path)
    with open(path, "a", encoding="utf-8") as f:
        f.write(line + "\n")
        f.flush()
        os.fsync(f.fileno())
    if created:
        _fsync_dir(path)


def read_log(path: str, parse: Callable[[bytes], Any], heal: bool = False) -> list:
    """Parse every line of an append log, in order.

    A line counts once its newline is on disk. parse gets each line without
    its newline and raises ValueError, KeyError or TypeError on a bad one.
    An unterminated or unparseable final line is a torn append: it is
    dropped with a warning and, with heal=True, truncated away so the next
    append starts on a fresh line. A bad line before the final one raises
    LogCorrupt. A missing file raises FileNotFoundError.
    """
    with open(path, "rb") as f:
        data = f.read()
    records = []
    start = 0
    while start < len(data):
        end = data.find(b"\n", start)
        final = end < 0 or end + 1 == len(data)
        try:
            if end < 0:
                raise ValueError("no terminating newline")
            records.append(parse(data[start:end]))
        except (ValueError, KeyError, TypeError) as e:
            line_no = len(records) + 1
            if not final:
                raise LogCorrupt(f"{path}: line {line_no} is invalid: {e}") from e
            if heal:
                log.warning("truncating torn tail of %s at line %d", path, line_no)
                _truncate(path, start)
            else:
                log.warning("dropping torn tail of %s at line %d", path, line_no)
            break
        start = end + 1
    return records


def _truncate(path: str, size: int) -> None:
    fd = os.open(path, os.O_WRONLY)
    try:
        os.ftruncate(fd, size)
        os.fsync(fd)
    finally:
        os.close(fd)
