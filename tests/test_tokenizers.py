import json
import re
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from websift.tokenizers import (
    Tokenizer,
    TokenizerSpec,
    VocabMalformed,
    VocabNotFound,
    load_tokenizer,
    load_vocab,
)


def test_unicode_words_splits_on_whitespace(tokenizer):
    assert tokenizer.tokenize("the quick  brown\tfox") == ["the", "quick", "brown", "\t", "fox"]


def test_structural_characters_become_single_tokens(tokenizer):
    assert tokenizer.tokenize("a\nb") == ["a", "\n", "b"]
    assert tokenizer.tokenize("a\r\nb") == ["a", "\r", "\n", "b"]


def test_structural_preservation_can_be_disabled():
    tok = load_tokenizer(TokenizerSpec(preserve_structural=False))
    assert tok.tokenize("a\nb\tc") == ["a", "b", "c"]


def test_empty_and_whitespace_only(tokenizer):
    assert tokenizer.tokenize("") == []
    assert tokenizer.tokenize("   ") == []
    assert tokenizer.tokenize(" \n ") == ["\n"]


def test_token_count_matches_tokenize(tokenizer):
    text = "a b\nc d  e"
    assert tokenizer.token_count(text) == len(tokenizer.tokenize(text))


# -- vocab-greedy mode ---------------------------------------------------------

def write_vocab(tmp_path, entries):
    path = tmp_path / "vocab.txt"
    path.write_bytes(b"".join(e.encode("utf-8") + b"\n" for e in entries))
    return str(path)


def greedy_reference(text: str, vocab: set[str]) -> list[str]:
    """Independent longest-match-first segmentation."""
    lengths = sorted({len(v) for v in vocab}, reverse=True)
    out = []
    i = 0
    while i < len(text):
        for n in lengths:
            piece = text[i : i + n]
            if len(piece) == n and piece in vocab:
                out.append(piece)
                i += n
                break
        else:
            out.append(text[i])
            i += 1
    return out


GREEDY_ENTRIES = ["ab", "abc", "cd", "e", "de"]


@pytest.fixture(scope="module")
def greedy_tok(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("vocab")
    path = tmp / "v.txt"
    path.write_bytes(b"".join(e.encode() + b"\n" for e in GREEDY_ENTRIES))
    return load_tokenizer(TokenizerSpec(kind="vocab_greedy", vocab_path=str(path)))


def test_vocab_greedy_longest_match(tmp_path):
    vocab_path = write_vocab(tmp_path, ["ab", "abc", "c", "d"])
    tok = load_tokenizer(TokenizerSpec(kind="vocab_greedy", vocab_path=vocab_path))
    # "abc" wins over "ab" + "c"
    assert tok.tokenize("abcd") == ["abc", "d"]
    # unknown codepoints fall back to single characters
    assert tok.tokenize("abzc") == ["ab", "z", "c"]


def test_vocab_greedy_reconstructs_exactly(tmp_path):
    vocab_path = write_vocab(tmp_path, ["he", "hell", "hello", "lo", "o"])
    tok = load_tokenizer(TokenizerSpec(kind="vocab_greedy", vocab_path=vocab_path))
    for text in ["hellohello", "hehello", "xhellox", ""]:
        assert "".join(tok.tokenize(text)) == text


@given(st.text(alphabet="abcde", max_size=40))
def test_vocab_greedy_matches_reference(greedy_tok, text):
    assert greedy_tok.tokenize(text) == greedy_reference(text, set(GREEDY_ENTRIES))


_STRUCTURAL_SPLIT = re.compile(r"([\n\t\r])")


def tokenize_reference(text: str, preserve_structural: bool, flat) -> list[str]:
    """Tokenize by one regex split on \\n, \\t and \\r, each kept as a token,
    with flat tokenizing the text between them."""
    if not preserve_structural:
        return flat(text)
    out = []
    for part in _STRUCTURAL_SPLIT.split(text):
        if part in ("\n", "\t", "\r"):
            out.append(part)
        elif part:
            out += flat(part)
    return out


# Letters, structural characters, CRLF and every str.isspace() code point
# (\x0b, \x1c, \x85, \u2028, \u3000, ...): the characters where line splitting
# and whitespace splitting could disagree.
TEXT_PIECES = sorted(set("abcdeé\n\t\r") | {"\r\n"}
                     | {chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()})
TEXT = st.lists(st.sampled_from(TEXT_PIECES), max_size=40).map("".join)


@pytest.mark.parametrize("preserve_structural", [True, False])
@pytest.mark.parametrize("kind", ["unicode_words", "vocab_greedy"])
@given(text=TEXT)
def test_tokenize_matches_regex_reference(kind, preserve_structural, text):
    if kind == "unicode_words":
        tok = Tokenizer(TokenizerSpec(preserve_structural=preserve_structural))
        flat = str.split
    else:
        spec = TokenizerSpec(kind, "v.txt", preserve_structural)
        tok = Tokenizer(spec, tuple(sorted(GREEDY_ENTRIES)))
        flat = lambda part: greedy_reference(part, set(GREEDY_ENTRIES))
    assert tok.tokenize(text) == tokenize_reference(text, preserve_structural, flat)


def test_vocab_greedy_structural_split(tmp_path):
    vocab_path = write_vocab(tmp_path, ["ab", "a", "b"])
    tok = load_tokenizer(TokenizerSpec(kind="vocab_greedy", vocab_path=vocab_path))
    # structural chars split first; greedy only sees the fragments between them
    assert tok.tokenize("ab") == ["ab"]
    assert tok.tokenize("a\tb") == ["a", "\t", "b"]


# -- vocab file handling -------------------------------------------------------

def test_load_vocab_missing_file():
    with pytest.raises(VocabNotFound):
        load_vocab("/nonexistent/vocab.txt")


def test_load_vocab_rejects_duplicates(tmp_path):
    path = tmp_path / "v.txt"
    path.write_bytes(b"a\nb\na\n")
    with pytest.raises(VocabMalformed) as err:
        load_vocab(str(path))
    assert err.value.line_no == 3


def test_load_vocab_rejects_empty_line(tmp_path):
    path = tmp_path / "v.txt"
    path.write_bytes(b"a\n\nb\n")
    with pytest.raises(VocabMalformed) as err:
        load_vocab(str(path))
    assert err.value.line_no == 2


def test_load_vocab_rejects_invalid_utf8(tmp_path):
    path = tmp_path / "v.txt"
    path.write_bytes(b"a\n\xff\n")
    with pytest.raises(VocabMalformed) as err:
        load_vocab(str(path))
    assert err.value.line_no == 2


def test_load_vocab_accepts_missing_trailing_newline(tmp_path):
    path = tmp_path / "v.txt"
    path.write_bytes(b"b\na")
    assert load_vocab(str(path)) == ("a", "b")     # sorted, as a Tokenizer stores it


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
def test_load_vocab_reads_crlf_and_cr_files_as_lf(tmp_path, newline):
    entries = [b"ab", b"cd", "été".encode("utf-8")]
    lf, other = tmp_path / "lf.txt", tmp_path / "other.txt"
    lf.write_bytes(b"\n".join(entries) + b"\n")
    other.write_bytes(newline.join(entries) + newline)
    assert load_vocab(str(other)) == load_vocab(str(lf)) == ("ab", "cd", "été")
    text = "abcd étéx\r\ncdab"
    tokens = [load_tokenizer(TokenizerSpec(kind="vocab_greedy", vocab_path=str(p))).tokenize(text)
              for p in (lf, other)]
    assert tokens[0] == tokens[1] == ["ab", "cd", " ", "été", "x", "\r", "\n", "cd", "ab"]
    # a blank line is still an empty entry, counted by its line ends
    other.write_bytes(newline.join([b"a", b"", b"b"]))
    with pytest.raises(VocabMalformed) as err:
        load_vocab(str(other))
    assert err.value.line_no == 2


# -- spec validation -----------------------------------------------------------

def test_spec_requires_vocab_for_greedy():
    with pytest.raises(ValueError):
        TokenizerSpec(kind="vocab_greedy")


def test_spec_rejects_vocab_for_words():
    with pytest.raises(ValueError):
        TokenizerSpec(kind="unicode_words", vocab_path="x")


def test_spec_rejects_unknown_kind():
    with pytest.raises(ValueError):
        TokenizerSpec(kind="bpe")


def test_spec_json_round_trip(tmp_path):
    spec = TokenizerSpec(preserve_structural=False)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_json_obj()))
    assert TokenizerSpec.from_file(str(path)) == spec


GREEDY = TokenizerSpec(kind="vocab_greedy", vocab_path="v.txt")


@pytest.mark.parametrize("spec, vocab, reason", [
    (TokenizerSpec(), ("a",), "unicode_words tokenizer has no vocabulary"),
    (GREEDY, None, "vocab_greedy tokenizer needs its vocabulary"),
    (GREEDY, ("", "a"), "must be non-empty, sorted and distinct"),
    (GREEDY, ("b", "a"), "must be non-empty, sorted and distinct"),
    (GREEDY, ("a", "a"), "must be non-empty, sorted and distinct"),
], ids=["vocab-on-unicode-words", "no-vocab-on-greedy", "empty-token", "unsorted", "duplicated"])
def test_tokenizer_rejects_a_malformed_vocabulary(spec, vocab, reason):
    with pytest.raises(ValueError, match=reason):
        Tokenizer(spec, vocab)
