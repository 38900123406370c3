import gzip
import hashlib
import json

import pytest

from websift.documents import (
    Document,
    MalformedRecord,
    corpus_fingerprint,
    decode_record,
    expand_shards,
    iter_documents,
    parse_document,
    shard_digest,
    shard_name,
    write_documents,
)


def test_parse_document_minimal():
    doc = parse_document({"text": "hi"}, "shard-000", 3)
    assert doc.text == "hi"
    assert doc.id == "shard-000:3"
    assert doc.source == ""
    assert doc.meta == {}


def test_parse_document_full_round_trip():
    obj = {"id": "a1", "text": "body", "source": "crawl", "meta": {"lang": "en"}}
    doc = parse_document(dict(obj), "s", 1)
    assert doc.to_json_obj() == obj


@pytest.mark.parametrize(
    "obj",
    [
        {},
        {"text": 5},
        {"text": "ok", "id": 7},
        {"text": "ok", "id": ""},
        {"text": "ok", "id": " \t"},
        {"text": "ok", "id": "b\nz"},
        {"text": "ok", "id": "a\rq"},
        {"text": "ok", "source": 1},
        {"text": "ok", "meta": []},
        [],
        "just a string",
    ],
)
def test_parse_document_rejects_bad_shapes(obj):
    with pytest.raises(MalformedRecord):
        parse_document(obj, "s", 2)


def test_decode_record_reports_positions():
    with pytest.raises(MalformedRecord) as err:
        decode_record(b"\xff\xfe", "s", 4)
    assert "byte 0" in str(err.value)
    with pytest.raises(MalformedRecord):
        decode_record(b"{not json", "s", 4)


@pytest.mark.parametrize("field", [
    '"id": "a\\ud800", "text": "ok"',
    '"text": "bad \\ud800 surrogate"',
    '"text": "ok", "source": "\\udfff"',
    '"text": "ok", "meta": {"lang": "\\udc00x"}',
    '"text": "ok", "meta": {"\\ud83d": "en"}',
], ids=["id", "text", "source", "meta-value", "meta-key"])
def test_decode_record_refuses_a_lone_surrogate_escape(field):
    with pytest.raises(MalformedRecord, match="s:4: a string holds a lone surrogate escape"):
        decode_record(("{" + field + "}").encode(), "s", 4)


def test_decode_record_accepts_an_escaped_surrogate_pair():
    doc = decode_record(b'{"id": "a", "text": "smile \\ud83d\\ude00"}', "s", 1)
    assert doc.text == "smile \U0001f600"
    assert doc.text.encode("utf-8")


def test_iter_documents_strict_and_lenient(tmp_path):
    shard = tmp_path / "x.jsonl"
    shard.write_text('{"text": "one"}\nnot json\n{"text": "two"}\n')
    with pytest.raises(MalformedRecord):
        list(iter_documents(str(shard)))
    docs = list(iter_documents(str(shard), strict=False))
    assert [d.text for d in docs] == ["one", "two"]


def test_iter_documents_skips_blank_lines(tmp_path):
    shard = tmp_path / "x.jsonl"
    shard.write_text('{"text": "one"}\n\n   \n{"text": "two"}\n')
    assert len(list(iter_documents(str(shard)))) == 2


def test_gzip_shards_read_transparently(tmp_path):
    shard = tmp_path / "x.jsonl.gz"
    with gzip.open(shard, "wt", encoding="utf-8") as f:
        f.write('{"text": "zipped"}\n')
    docs = list(iter_documents(str(shard)))
    assert docs[0].text == "zipped"


def test_write_documents_round_trip(tmp_path):
    docs = [Document(id="a", text="x"), Document(id="b", text="y", source="s")]
    path = tmp_path / "out.jsonl"
    n = write_documents(str(path), docs)
    assert n == 2
    assert list(iter_documents(str(path))) == docs


def test_shard_globs_expand_sorted_and_unmatched_patterns_kept(tmp_path):
    for name in ("b.jsonl", "a.jsonl", "c.txt"):
        (tmp_path / name).write_text("")
    missing = str(tmp_path / "none-*.jsonl")
    assert expand_shards([str(tmp_path / "*.jsonl"), missing, str(tmp_path / "c.txt")]) == [
        str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl"), missing, str(tmp_path / "c.txt"),
    ]


def test_shard_digest_matches_hashlib(tmp_path):
    shard = tmp_path / "x.jsonl"
    shard.write_bytes(b'{"text": "one"}\n')
    assert shard_digest(str(shard)) == hashlib.sha256(b'{"text": "one"}\n').hexdigest()


def test_corpus_fingerprint_is_order_independent():
    a = hashlib.sha256(b"a").hexdigest()
    b = hashlib.sha256(b"b").hexdigest()
    assert corpus_fingerprint([a, b]) == corpus_fingerprint([b, a])
    # oracle: sha256 over the sorted digests, concatenated
    expected = hashlib.sha256((min(a, b) + max(a, b)).encode("ascii")).hexdigest()
    assert corpus_fingerprint([a, b]) == expected


def test_shard_name_strips_directories_only():
    # the .gz suffix stays so compressed and plain shards never collide
    assert shard_name("/data/shard-001.jsonl") == "shard-001.jsonl"
    assert shard_name("/data/shard-001.jsonl.gz") == "shard-001.jsonl.gz"
