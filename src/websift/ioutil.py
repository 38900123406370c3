"""Small IO helpers shared across modules.

Every file the package writes reaches disk one of two ways. Whole files
(models, training sets, pool manifests and objects, scored shards, plans,
the CLI's --out files) go through atomic_open: a reader sees the old file
or the complete new one, never a partial one, and the new one is durable
once the call returns. Logs that record progress
(the scoring ledger, the pipeline journal) go through append_line and are
read back by read_log, which owns the rule for what a crash mid-append
leaves behind. Directories are made with make_dirs, so a new directory's
entry in its parent is durable before anything inside it is.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import json
import logging
import os
from typing import IO, Any, BinaryIO, Callable, Iterator

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
