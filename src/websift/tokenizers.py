"""Tokenization with a declared, hashable setup.

Two kinds are supported:

  unicode_words   split on runs of Unicode whitespace
  vocab_greedy    greedy longest-match against a fixed vocabulary, with a
                  single-codepoint fallback for anything not covered

Both can emit \\n, \\t and \\r as standalone single-character tokens
(preserve_structural, on by default) so structural layout survives into
feature space. vocab_greedy guarantees exact reconstruction: concatenating
the tokens reproduces the input byte for byte.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
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


class Tokenizer:
    """A loaded, ready-to-run tokenizer: its spec and, for vocab_greedy, its
    vocabulary."""

    def __init__(self, spec: TokenizerSpec, vocab: Optional[frozenset[str]] = None):
        self.spec = spec
        self.vocab = vocab
        if vocab:
            self._lengths = sorted({len(t) for t in vocab}, reverse=True)
        else:
            self._lengths = []

    def tokenize(self, text: str) -> list[str]:
        if self.spec.preserve_structural:
            out: list[str] = []
            for part in _STRUCTURAL_SPLIT.split(text):
                if not part:
                    continue
                if part in _STRUCTURAL:
                    out.append(part)
                else:
                    self._tokenize_flat(part, out)
            return out
        out = []
        self._tokenize_flat(text, out)
        return out

    def token_count(self, text: str) -> int:
        return len(self.tokenize(text))

    def _tokenize_flat(self, text: str, out: list[str]) -> None:
        if self.spec.kind == "unicode_words":
            out.extend(text.split())
        else:
            self._greedy(text, out)

    def _greedy(self, text: str, out: list[str]) -> None:
        vocab = self.vocab
        n = len(text)
        i = 0
        while i < n:
            remaining = n - i
            for length in self._lengths:
                if length > remaining:
                    continue
                piece = text[i : i + length]
                if piece in vocab:
                    out.append(piece)
                    i += length
                    break
            else:
                # Unknown character: fall back to one codepoint.
                out.append(text[i])
                i += 1


def load_vocab(path: str) -> frozenset[str]:
    """Load a vocabulary file: one non-empty UTF-8 token per line, no duplicates."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except FileNotFoundError:
        raise VocabNotFound(path) from None
    lines = data.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()  # trailing newline at EOF, not an entry
    tokens: set[str] = set()
    for line_no, raw in enumerate(lines, start=1):
        try:
            token = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise VocabMalformed(path, line_no, "invalid UTF-8") from None
        if token == "":
            raise VocabMalformed(path, line_no, "empty entry")
        if token in tokens:
            raise VocabMalformed(path, line_no, f"duplicate entry {token!r}")
        tokens.add(token)
    return frozenset(tokens)


def load_tokenizer(spec: TokenizerSpec) -> Tokenizer:
    if spec.kind == "unicode_words":
        return Tokenizer(spec)
    return Tokenizer(spec, load_vocab(spec.vocab_path))
