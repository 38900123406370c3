import ast
import gzip
import hashlib
import json
import logging
import os
import tempfile

import pytest
from hypothesis import given
from hypothesis import strategies as st

from websift.classifier import ClassifierConfig
from websift.ioutil import (
    LogCorrupt,
    append_record,
    atomic_open,
    atomic_write_text,
    canonical_json,
    open_maybe_gzip,
    read_log,
    record_line,
    remove_file,
    sha256_file,
    sha256_text,
    write_lines,
)
from websift.seedpool import SeedPoolManifest

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**9), 10**9) | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


@given(json_values)
def test_canonical_json_is_stable_and_parseable(value):
    a = canonical_json(value)
    assert a == canonical_json(json.loads(a))
    assert json.loads(a) == value


def test_canonical_json_sorts_keys_and_strips_spaces():
    assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


def test_canonical_json_keeps_unicode():
    # ensure_ascii is off so fingerprints cover the real bytes
    assert canonical_json({"t": "café"}) == '{"t":"café"}'


def test_sha256_text_matches_hashlib(tmp_path):
    text = "hello websift\n"
    assert sha256_text(text) == hashlib.sha256(text.encode()).hexdigest()
    p = tmp_path / "f.txt"
    p.write_text(text)
    assert sha256_file(str(p)) == sha256_text(text)


def test_atomic_writes_leave_no_droppings(tmp_path):
    target = tmp_path / "out.bin"
    with atomic_open(str(target), "wb") as f:
        f.write(b"abc")
    assert target.read_bytes() == b"abc"
    atomic_write_text(str(target), "xyz")
    assert target.read_text() == "xyz"
    assert os.listdir(tmp_path) == ["out.bin"]


def test_atomic_open_failure_keeps_old_file_and_removes_temp(tmp_path):
    target = tmp_path / "out.txt"
    with pytest.raises(RuntimeError):
        with atomic_open(str(target)) as f:
            f.write("partial")
            raise RuntimeError("crash mid-write")
    assert os.listdir(tmp_path) == []

    atomic_write_text(str(target), "old")
    with pytest.raises(RuntimeError):
        with atomic_open(str(target)) as f:
            f.write("new")
            raise RuntimeError("crash mid-write")
    assert os.listdir(tmp_path) == ["out.txt"]
    assert target.read_text() == "old"


def test_write_lines_returns_the_digest_of_what_it_wrote(tmp_path):
    target = str(tmp_path / "out.txt")
    assert write_lines(target, iter(["a", "café", ""])) == sha256_file(target)
    with open(target, "rb") as f:
        assert f.read() == "a\ncafé\n\n".encode("utf-8")

    def failing():
        yield "new"
        raise ValueError("refused mid-stream")

    with pytest.raises(ValueError):
        write_lines(target, failing())
    assert os.listdir(tmp_path) == ["out.txt"]
    assert sha256_file(target) == sha256_text("a\ncafé\n\n")


def test_atomic_open_overwrites_a_stale_temp_file(tmp_path):
    target = tmp_path / "out.txt"
    (tmp_path / "out.txt.tmp").write_text("left by a crashed writer, and longer")
    atomic_write_text(str(target), "fresh")
    assert target.read_text() == "fresh"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_atomic_open_fsyncs_file_before_rename_and_directory_after(tmp_path, monkeypatch):
    events = []
    real_fsync, real_replace = os.fsync, os.replace
    monkeypatch.setattr(os, "fsync", lambda fd: (events.append(("fsync", os.fstat(fd).st_ino)),
                                                  real_fsync(fd)))
    monkeypatch.setattr(os, "replace", lambda a, b: (events.append(("replace", b)),
                                                      real_replace(a, b)))
    target = str(tmp_path / "out.txt")
    atomic_write_text(target, "x")
    assert events == [
        ("fsync", os.stat(target).st_ino),
        ("replace", target),
        ("fsync", os.stat(tmp_path).st_ino),
    ]


def test_remove_file_fsyncs_the_directory_only_when_it_removed_something(tmp_path, monkeypatch):
    events = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: (events.append(os.fstat(fd).st_ino),
                                                  real_fsync(fd)))
    target = tmp_path / "ledger.jsonl"
    target.write_text("x\n", encoding="utf-8")
    remove_file(str(target))
    assert not target.exists()
    assert events == [os.stat(tmp_path).st_ino]
    remove_file(str(target))
    assert events == [os.stat(tmp_path).st_ino]


def _lines(*entries: dict) -> bytes:
    return "".join(record_line(e) + "\n" for e in entries).encode("utf-8")


def test_record_line_puts_the_check_beside_the_entry_keys():
    line = record_line({"i": 0, "z": [1]})
    check = sha256_text('{"i":0,"z":[1]}')
    assert line == '{"check":"%s","i":0,"z":[1]}' % check


def test_append_record_then_read_log_round_trips(tmp_path):
    path = str(tmp_path / "log.jsonl")
    for i in range(3):
        append_record(path, {"i": i})
    with open(path, "rb") as f:
        assert f.read() == _lines({"i": 0}, {"i": 1}, {"i": 2})
    assert read_log(path, dict) == [{"i": 0}, {"i": 1}, {"i": 2}]


@pytest.mark.parametrize("tail", [
    _lines({"i": 2})[:9], _lines({"i": 2})[:-1], b"{not json\n", b'{"i":2}\n',
], ids=["torn", "unterminated", "unparseable", "unchecked"])
def test_read_log_drops_a_bad_final_line_and_heal_truncates_it(tmp_path, caplog, tail):
    path = tmp_path / "log.jsonl"
    clean = _lines({"i": 0}, {"i": 1})
    path.write_bytes(clean + tail)
    with caplog.at_level(logging.WARNING, logger="websift.ioutil"):
        assert read_log(str(path), dict) == [{"i": 0}, {"i": 1}]
    assert any("torn" in r.message for r in caplog.records)
    assert path.read_bytes() == clean + tail  # a plain read changes nothing

    assert read_log(str(path), dict, heal=True) == [{"i": 0}, {"i": 1}]
    assert path.read_bytes() == clean
    append_record(str(path), {"i": 2})
    assert read_log(str(path), dict) == [{"i": 0}, {"i": 1}, {"i": 2}]


@pytest.mark.parametrize("heal", [False, True])
def test_read_log_raises_on_a_bad_line_before_the_last(tmp_path, heal):
    path = tmp_path / "log.jsonl"
    damaged = _lines({"i": 0}) + b'{"i"\n' + _lines({"i": 2})
    path.write_bytes(damaged)
    with pytest.raises(LogCorrupt, match="line 2"):
        read_log(str(path), dict, heal=heal)
    assert path.read_bytes() == damaged


@pytest.mark.parametrize("line", [b"[]", b"3", b'"shard"', b"null"])
def test_a_log_line_that_is_not_an_object_is_refused(tmp_path, line):
    # parse never sees it, so no parser meets a list or a string as an entry
    def parse(entry):
        raise AssertionError(f"parse got {entry!r}")

    path = tmp_path / "log.jsonl"
    path.write_bytes(line + b"\n" + _lines({"i": 1}))
    with pytest.raises(LogCorrupt, match="line 1 is invalid: not a JSON object") as caught:
        read_log(str(path), parse)
    assert isinstance(caught.value.__cause__, ValueError)


def test_read_log_of_an_empty_or_missing_log(tmp_path):
    path = tmp_path / "log.jsonl"
    with pytest.raises(FileNotFoundError):
        read_log(str(path), dict)
    path.write_bytes(b"")
    assert read_log(str(path), dict) == []


# No control characters: canonical JSON writes them as \u escapes, whose hex
# digits can change case without changing the entry.
_log_text = st.text(st.characters(exclude_categories=("Cc", "Cs")), max_size=12)
_log_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**9), 10**9) | _log_text,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(_log_text, children, max_size=3),
    max_leaves=8,
)
log_entries = st.lists(
    st.dictionaries(_log_text.filter(lambda k: k != "check"), _log_values, max_size=4),
    min_size=1, max_size=4,
)


@given(log_entries)
def test_entries_round_trip_through_append_record_and_read_log(entries):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "log.jsonl")
        for entry in entries:
            append_record(path, entry)
        assert read_log(path, dict) == entries
        with open(path, "rb") as f:
            assert f.read() == _lines(*entries)


def _edit_one_byte(data: bytes, lo: int, hi: int, draw) -> bytes:
    """data with one byte in [lo, hi) changed to another byte, never a newline."""
    at = draw(st.integers(lo, hi - 1))
    byte = draw(st.integers(0, 255).filter(lambda b: b not in (data[at], 0x0A)))
    return data[:at] + bytes([byte]) + data[at + 1:]


@given(log_entries.filter(lambda entries: len(entries) > 1), st.data())
def test_an_edited_line_before_the_last_is_log_corrupt(entries, data):
    clean = _lines(*entries)
    line = data.draw(st.integers(0, len(entries) - 2))
    start = len(_lines(*entries[:line]))
    end = start + len(record_line(entries[line]).encode("utf-8"))
    edited = _edit_one_byte(clean, start, end, data.draw)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "log.jsonl")
        with open(path, "wb") as f:
            f.write(edited)
        for heal in (False, True):
            with pytest.raises(LogCorrupt, match=f"line {line + 1} is invalid"):
                read_log(path, dict, heal=heal)
        with open(path, "rb") as f:
            assert f.read() == edited


@given(log_entries, st.data())
def test_an_edited_final_line_is_dropped_and_heal_truncates_it(entries, data):
    kept = _lines(*entries[:-1])
    clean = _lines(*entries)
    edited = _edit_one_byte(clean, len(kept), len(clean), data.draw)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "log.jsonl")
        with open(path, "wb") as f:
            f.write(edited)
        assert read_log(path, dict) == entries[:-1]
        with open(path, "rb") as f:
            assert f.read() == edited
        assert read_log(path, dict, heal=True) == entries[:-1]
        with open(path, "rb") as f:
            assert f.read() == kept


def test_open_maybe_gzip_detects_suffix(tmp_path):
    plain = tmp_path / "a.jsonl"
    plain.write_bytes(b"plain\n")
    zipped = tmp_path / "a.jsonl.gz"
    with gzip.open(zipped, "wb") as f:
        f.write(b"zipped\n")
    with open_maybe_gzip(str(plain), "rb") as f:
        assert f.read() == b"plain\n"
    with open_maybe_gzip(str(zipped), "rb") as f:
        assert f.read() == b"zipped\n"


def test_json_record_keeps_ints_as_written_and_names_nested_records():
    config = ClassifierConfig.from_json_obj({"lr": 1, "labels": ["drop", "keep"]})
    assert (config.lr, config.labels) == (1, ("drop", "keep"))
    assert '"lr":1,' in canonical_json(config.to_json_obj())
    manifest = {"version": 2, "parent_version": None, "categories": [
        {"name": "x", "polarity": "positive", "source": "s", "objects": []},
    ]}
    with pytest.raises(ValueError, match=r"^SeedPoolManifest\.categories: SeedCategory: "
                                         r"missing key 'doc_count'$"):
        SeedPoolManifest.from_json_obj(manifest)
    manifest["categories"][0]["doc_count"] = 3
    assert SeedPoolManifest.from_json_obj(manifest).categories[0].objects == ()
    with pytest.raises(ValueError, match=r"^SeedPoolManifest: 'parent_version' must be a "
                                         r"JSON integer, got string$"):
        SeedPoolManifest.from_json_obj({**manifest, "parent_version": "1"})


def _write_opens(source: str) -> list[tuple[int, str]]:
    """(line, call) for each builtin open(...) or gzip.open(...) call whose
    mode is not a read-only literal."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            call = "open"
        elif (isinstance(func, ast.Attribute) and func.attr == "open"
              and isinstance(func.value, ast.Name) and func.value.id == "gzip"):
            call = "gzip.open"
        else:
            continue
        mode = node.args[1] if len(node.args) > 1 else next(
            (kw.value for kw in node.keywords if kw.arg == "mode"), ast.Constant("r"))
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+")):
            found.append((node.lineno, call))
    return found


def test_only_ioutil_opens_files_for_writing():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src", "websift")
    offenders = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py") and name != "ioutil.py":
            with open(os.path.join(src, name), encoding="utf-8") as f:
                offenders += [(name, *hit) for hit in _write_opens(f.read())]
    assert offenders == []


def test_write_open_guard_sees_every_spelling():
    source = (
        'open(p, "w")\nopen(p, mode="ab")\ngzip.open(p, "wb")\nopen(p, "r+")\n'
        'open(p, m)\nopen(p)\nopen(p, "rb")\ngzip.open(p, mode="rt")\nos.open(p, flags)\n'
    )
    assert _write_opens(source) == [
        (1, "open"), (2, "open"), (3, "gzip.open"), (4, "open"), (5, "open")
    ]
