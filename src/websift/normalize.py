"""Text normalization, run by the `websift normalize` command.

Classifier training and corpus scoring tokenize text as given and never
call it. The transform is small and deterministic: NFD decomposition with
combining-mark removal, full Unicode lowercasing, space-run collapsing,
and a cap on consecutive newlines. Tabs and carriage returns pass through
untouched because they carry document structure downstream tokenizers rely
on. The transform is a fixed point: applying it twice equals applying it
once.
"""

from __future__ import annotations

import functools
import re
import unicodedata
from dataclasses import dataclass

from .errors import WebsiftError
from .ioutil import JsonRecord


class InvalidUtf8(WebsiftError):
    def __init__(self, position: int):
        super().__init__(f"invalid UTF-8 sequence at byte {position}")
        self.position = position


@dataclass(frozen=True)
class NormalizePolicy(JsonRecord):
    lowercase: bool = True
    strip_diacritics: bool = True
    collapse_spaces: bool = True
    max_consecutive_newlines: int = 2

    def __post_init__(self):
        if self.max_consecutive_newlines < 1:
            raise ValueError("max_consecutive_newlines must be >= 1")


_SPACE_RUN = re.compile(" {2,}")


@functools.lru_cache(maxsize=32)
def _newline_run(cap: int) -> re.Pattern:
    return re.compile(r"\n{%d,}" % (cap + 1))


def _strip_marks(text: str) -> str:
    # NFD first so precomposed characters expose their marks, then drop
    # nonspacing marks (category Mn) only. Mc/Me are kept: removing them
    # changes visible text rather than diacritics.
    decomposed = unicodedata.normalize("NFD", text)
    return "".join(c for c in decomposed if unicodedata.category(c) != "Mn")


def normalize_text(raw: str | bytes, policy: NormalizePolicy = NormalizePolicy()) -> str:
    """Normalize one document's text under the given policy.

    Accepts str or UTF-8 bytes. Bytes that do not decode, or str input that
    is not encodable UTF-8 (lone surrogates), raise InvalidUtf8 with the
    offending byte position.
    """
    if isinstance(raw, bytes):
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise InvalidUtf8(e.start) from e
    else:
        text = raw
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as e:
            raise InvalidUtf8(e.start) from e

    if policy.strip_diacritics and not text.isascii():
        text = _strip_marks(text)
    if policy.lowercase:
        text = text.lower()
    if policy.collapse_spaces:
        text = _SPACE_RUN.sub(" ", text)
    cap = policy.max_consecutive_newlines
    text = _newline_run(cap).sub("\n" * cap, text)
    return text
