"""Tokenization with a declared, hashable setup.

Two kinds are supported:

  unicode_words   split on runs of Unicode whitespace
  vocab_greedy    greedy longest-match against a fixed vocabulary, with a
                  single-codepoint fallback for anything not covered

Both can emit \\n, \\t and \\r as standalone single-character tokens
(preserve_structural, on by default) so structural layout survives into
feature space. A text holding no \\t or \\r is split into lines with
str.split; any other text goes through one regex split on \\n, \\t and \\r.
The pieces between structural characters are tokenized by kind.
vocab_greedy guarantees exact reconstruction: concatenating the tokens
reproduces the input byte for byte.

A TokenizerSpec declares the setup; load_tokenizer reads its vocabulary
file into a Tokenizer, the one record of a tokenizer: its spec and sorted
vocabulary. A model file stores that record, so the model carries the
tokenizer that scoring runs.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from typing import Optional

from .errors import WebsiftError
from .ioutil import JsonRecord

KINDS = ("unicode_words", "vocab_greedy")

_STRUCTURAL = ("\n", "\t", "\r")
_STRUCTURAL_SPLIT = re.compile(r"([\n\t\r])")


class VocabNotFound(WebsiftError):
    def __init__(self, path: str):
        super().__init__(f"vocabulary file not found: {path}")
        self.path = path


class VocabMalformed(WebsiftError):
    def __init__(self, path: str, line_no: int, reason: str):
        super().__init__(f"{path}:{line_no}: {reason}")
        self.path = path
        self.line_no = line_no


@dataclass(frozen=True)
class TokenizerSpec(JsonRecord):
    kind: str = "unicode_words"
    vocab_path: Optional[str] = None
    preserve_structural: bool = True

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown tokenizer kind {self.kind!r}, expected one of {KINDS}")
        if self.kind == "vocab_greedy" and not self.vocab_path:
            raise ValueError("vocab_greedy requires vocab_path")
        if self.kind == "unicode_words" and self.vocab_path:
            raise ValueError("unicode_words does not take a vocab_path")


@dataclass(frozen=True)
class Tokenizer(JsonRecord):
    """A ready-to-run tokenizer: its spec and, for vocab_greedy, its
    vocabulary, sorted in Python string order. It is the tokenizer block of
    a model file as written."""

    spec: TokenizerSpec = field(default_factory=TokenizerSpec)
    vocab: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        if self.spec.kind == "unicode_words":
            if self.vocab is not None:
                raise ValueError("a unicode_words tokenizer has no vocabulary")
        elif self.vocab is None:
            raise ValueError("a vocab_greedy tokenizer needs its vocabulary")
        elif not all(map(operator.lt, ("",) + self.vocab, self.vocab)):  # "" sorts first
            raise ValueError("vocabulary tokens must be non-empty, sorted and distinct")
        vocab = self.vocab or ()
        object.__setattr__(self, "_known", frozenset(vocab))
        object.__setattr__(self, "_lengths", sorted({len(t) for t in vocab}, reverse=True))

    def tokenize(self, text: str) -> list[str]:
        out: list[str] = []
        if not self.spec.preserve_structural:
            self._tokenize_flat(text, out)
        elif "\t" in text or "\r" in text:
            for part in _STRUCTURAL_SPLIT.split(text):
                if part in _STRUCTURAL:
                    out.append(part)
                elif part:
                    self._tokenize_flat(part, out)
        else:
            # Most texts hold no \t or \r: they skip the regex.
            for line in text.split("\n"):
                if line:
                    self._tokenize_flat(line, out)
                out.append("\n")
            out.pop()   # no "\n" follows the last line
        return out

    def token_count(self, text: str) -> int:
        return len(self.tokenize(text))

    def _tokenize_flat(self, text: str, out: list[str]) -> None:
        if self.spec.kind == "unicode_words":
            out.extend(text.split())
        else:
            self._greedy(text, out)

    def _greedy(self, text: str, out: list[str]) -> None:
        known = self._known
        n = len(text)
        i = 0
        while i < n:
            remaining = n - i
            for length in self._lengths:
                if length > remaining:
                    continue
                piece = text[i : i + length]
                if piece in known:
                    out.append(piece)
                    i += length
                    break
            else:
                # Unknown character: fall back to one codepoint.
                out.append(text[i])
                i += 1


def load_vocab(path: str) -> tuple[str, ...]:
    """Load a vocabulary file: one non-empty UTF-8 token per line, no
    duplicates. Returns its tokens sorted in Python string order.

    Lines end at \\n, \\r\\n or \\r, as in text mode's universal newlines,
    so a file saved with CRLF line ends loads the same tokens; a newline at
    the end of the file ends the last line and adds no entry."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except FileNotFoundError:
        raise VocabNotFound(path) from None
    tokens: set[str] = set()
    for line_no, raw in enumerate(data.splitlines(), start=1):
        try:
            token = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise VocabMalformed(path, line_no, "invalid UTF-8") from None
        if token == "":
            raise VocabMalformed(path, line_no, "empty entry")
        if token in tokens:
            raise VocabMalformed(path, line_no, f"duplicate entry {token!r}")
        tokens.add(token)
    return tuple(sorted(tokens))


def load_tokenizer(spec: TokenizerSpec) -> Tokenizer:
    if spec.kind == "unicode_words":
        return Tokenizer(spec)
    return Tokenizer(spec, load_vocab(spec.vocab_path))
