"""Command-line contract: argument wiring, exit codes, output formats.

Subcommand logic is covered by the module test files; here each command is
exercised end to end through dispatch(), asserting against the same module
functions as oracles. Two subprocess tests check the installed entry point.
"""

import contextlib
import gzip
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from websift import cli
from websift import classifier as clf
from websift import filtering, pipeline, verify
from websift.documents import Document, iter_documents, write_documents
from websift.classifier import load_labeled_examples
from websift.ioutil import canonical_json, sha256_file, sha256_text
from websift.normalize import NormalizePolicy, normalize_text
from websift.tokenizers import TokenizerSpec, load_tokenizer

from test_filtering import write_corrupt_gzip
from test_pipeline import ALL_METRICS, build_world

POS_WORDS = tuple(f"fresh{i}" for i in range(12))
NEG_WORDS = tuple(f"stale{i}" for i in range(12))


def run(capsys, *args):
    code = cli.dispatch(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_labels(path, n=60):
    rng = np.random.default_rng(5)
    lines = []
    for i in range(n):
        words = POS_WORDS if i % 2 == 0 else NEG_WORDS
        label = "positive" if i % 2 == 0 else "negative"
        text = " ".join(words[int(rng.integers(0, len(words)))] for _ in range(30))
        lines.append(f"__label__{label} {text}")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def write_corpus(dirpath, n_shards=2, per_shard=20):
    os.makedirs(dirpath, exist_ok=True)
    rng = np.random.default_rng(11)
    doc_no = 0
    for s in range(n_shards):
        docs = []
        for _ in range(per_shard):
            words = POS_WORDS if doc_no % 2 == 0 else NEG_WORDS
            text = " ".join(words[int(rng.integers(0, len(words)))] for _ in range(30))
            docs.append(Document(id=f"doc:{doc_no:05d}", text=text))
            doc_no += 1
        write_documents(os.path.join(dirpath, f"shard{s:03d}.jsonl"), docs)


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    root = tmp_path_factory.mktemp("clfcli")
    labels = os.path.join(str(root), "train.txt")
    write_labels(labels)
    out = os.path.join(str(root), "model.ufwc")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.dispatch(
            [
                "classifier", "train",
                "--data", labels,
                "--out", out,
                "--dim", "8",
                "--bucket", "512",
                "--min-count", "1",
                "--word-ngrams", "2",
            ]
        )
    assert code == 0
    return {"path": out, "summary": json.loads(buf.getvalue())}


# ---------------------------------------------------------------------------
# top level

class TestTopLevel:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.dispatch(["--help"])
        assert err.value.code == 0
        assert "websift" in capsys.readouterr().out

    def test_no_command(self, capsys):
        code, _, err = run(capsys, *[])
        assert code == 1
        assert "a command is required" in err

    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "transmogrify")
        assert code == 1
        assert "usage" in err

    def test_missing_subcommand(self, capsys):
        code, _, err = run(capsys, "seedpool")
        assert code == 1
        assert "seedpool" in err

    def test_bad_log_level_flag(self, capsys, tmp_path):
        code, _, err = run(capsys, "--log-level", "noisy", "seedpool", "init", "--pool", str(tmp_path / "p"))
        assert code == 1
        assert "unknown log level" in err

    def test_bad_log_level_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("UFW_LOG", "noisy")
        code, _, err = run(capsys, "seedpool", "init", "--pool", str(tmp_path / "p"))
        assert code == 1
        assert "unknown log level" in err

    def test_env_log_level_accepted(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("UFW_LOG", "debug")
        code, _, _ = run(capsys, "seedpool", "init", "--pool", str(tmp_path / "p"))
        assert code == 0


# ---------------------------------------------------------------------------
# normalize and tokenize

class TestTextCommands:
    def test_normalize_matches_library(self, capsys, tmp_path):
        docs = [
            {"id": "a", "text": "Café  du monde\r\nsecond  line"},
            {"id": "b", "text": "plain"},
        ]
        infile = tmp_path / "in.jsonl"
        infile.write_text("".join(json.dumps(d) + "\n" for d in docs), encoding="utf-8")
        outfile = tmp_path / "out.jsonl"

        code, _, _ = run(capsys, "normalize", "--in", str(infile), "--out", str(outfile))
        assert code == 0
        policy = NormalizePolicy()
        rows = [json.loads(line) for line in outfile.read_text(encoding="utf-8").splitlines()]
        assert [r["id"] for r in rows] == ["a", "b"]
        for original, row in zip(docs, rows):
            assert row["text"] == normalize_text(original["text"], policy)

    def test_normalize_rejects_bad_json(self, capsys, tmp_path):
        infile = tmp_path / "in.jsonl"
        infile.write_text('{"id": "a", "text": "x"}\nnot json\n', encoding="utf-8")
        code, _, err = run(capsys, "normalize", "--in", str(infile), "--out", str(tmp_path / "o"))
        assert code == 1
        assert "invalid JSON" in err

    def test_tokenize_tokens_and_counts(self, capsys, tmp_path):
        text = "alpha beta\tgamma  delta"
        infile = tmp_path / "in.jsonl"
        infile.write_text(json.dumps({"id": "a", "text": text}) + "\n", encoding="utf-8")
        tokenizer = load_tokenizer(TokenizerSpec())

        code, out, _ = run(capsys, "tokenize", "--in", str(infile))
        assert code == 0
        assert json.loads(out) == {"id": "a", "tokens": tokenizer.tokenize(text)}

        code, out, _ = run(capsys, "tokenize", "--in", str(infile), "--stats")
        assert code == 0
        assert json.loads(out) == {"id": "a", "tokens": tokenizer.token_count(text)}


# ---------------------------------------------------------------------------
# classifier

class TestClassifierCommands:
    def test_train_summary(self, model_file):
        summary = model_file["summary"]
        assert summary["examples"] == 60
        assert summary["vocab"] > 0
        assert len(summary["epoch_losses"]) == 3
        assert summary["sha256"] == sha256_file(model_file["path"])

    def test_train_refuses_a_lone_surrogate_escape(self, capsys, tmp_path):
        # valid JSON whose text cannot be encoded as UTF-8
        data = tmp_path / "train.jsonl"
        data.write_text('{"label": "positive", "text": "fresh1 fresh2"}\n'
                        '{"label": "negative", "text": "bad \\ud800 surrogate"}\n', encoding="utf-8")
        code, _, err = run(capsys, "classifier", "train", "--data", str(data),
                           "--out", str(tmp_path / "model.ufwc"), "--min-count", "1")
        assert code == 1
        assert err.splitlines() == [
            f"error: {data}:2: 'label' or 'text' holds a lone surrogate escape"
        ]
        assert sorted(os.listdir(tmp_path)) == ["train.jsonl"]

    def test_train_names_the_line_of_invalid_utf8(self, capsys, tmp_path):
        data = tmp_path / "train.txt"
        data.write_bytes(b"__label__positive fresh1 fresh2\r\n__label__negative bad \xff\r\n")
        code, _, err = run(capsys, "classifier", "train", "--data", str(data),
                           "--out", str(tmp_path / "model.ufwc"), "--min-count", "1")
        assert code == 1
        assert err.splitlines() == [f"error: {data}:2: invalid UTF-8 at byte 22"]
        assert sorted(os.listdir(tmp_path)) == ["train.txt"]

    def test_predict_labels_split_cleanly(self, capsys, tmp_path, model_file):
        docs = [
            {"id": "good", "text": " ".join(POS_WORDS)},
            {"id": "bad", "text": " ".join(NEG_WORDS)},
        ]
        infile = tmp_path / "in.jsonl"
        infile.write_text("".join(json.dumps(d) + "\n" for d in docs), encoding="utf-8")
        code, out, _ = run(capsys, "classifier", "predict", "--model", model_file["path"], "--in", str(infile))
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        by_id = {r["id"]: r for r in rows}
        assert by_id["good"]["label"] == "positive"
        assert by_id["good"]["score"] > 0.5
        assert by_id["bad"]["label"] == "negative"
        assert by_id["bad"]["score"] < 0.5
        for r in rows:
            assert 0.5 <= r["prob"] <= 1.0

    def test_flag_overrides_config_file(self, capsys, tmp_path):
        labels = tmp_path / "train.txt"
        write_labels(str(labels), n=20)
        config = tmp_path / "clf.json"
        config.write_text(
            json.dumps({"dim": 8, "bucket": 256, "min_count": 1, "word_ngrams": 2}),
            encoding="utf-8",
        )
        out = tmp_path / "model.ufwc"
        code, _, _ = run(
            capsys,
            "classifier", "train",
            "--data", str(labels),
            "--out", str(out),
            "--config", str(config),
            "--dim", "12",
        )
        assert code == 0
        assert clf.load_model(str(out)).config.dim == 12

    def test_bad_config_value_is_fatal(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "classifier", "train",
            "--data", str(tmp_path / "absent.txt"),
            "--out", str(tmp_path / "m"),
            "--dim", "0",
        )
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("flag", [("--lr", "nan"), ("--lr", "inf"), ("--seed", "-1")])
    def test_bad_training_flag_is_fatal(self, capsys, tmp_path, flag):
        labels = tmp_path / "train.txt"
        write_labels(str(labels))
        out = tmp_path / "model.ufwc"
        code, _, err = run(capsys, "classifier", "train", "--data", str(labels),
                           "--out", str(out), *flag)
        assert code == 1
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err
        assert not out.exists()

    def test_predict_matches_library_across_chunks(self, capsys, tmp_path, model_file, monkeypatch):
        # a budget of 2 puts each document in a chunk of its own, every
        # non-empty one longer than the budget
        monkeypatch.setattr(clf, "CHUNK_TOKENS", 2)
        texts = [" ".join(POS_WORDS[:i]) + " " + " ".join(NEG_WORDS[i:]) for i in range(5)] + [""]
        infile = tmp_path / "in.jsonl"
        infile.write_text(
            "".join(json.dumps({"id": f"d{i}", "text": t}) + "\n" for i, t in enumerate(texts)),
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "classifier", "predict", "--model", model_file["path"], "--in", str(infile))
        assert code == 0
        model = clf.load_model(model_file["path"])
        tokenizer = load_tokenizer(TokenizerSpec())
        expected = []
        for i, text in enumerate(texts):
            pred = clf.predict(model, text, tokenizer)
            expected.append({"id": f"d{i}", "label": pred.label, "prob": pred.prob,
                             "score": pred.dist["positive"]})
        assert [json.loads(line) for line in out.splitlines()] == expected

    def test_predict_missing_model(self, capsys, tmp_path):
        code, _, err = run(capsys, "classifier", "predict", "--model", str(tmp_path / "nope"))
        assert code == 1
        assert "error:" in err


# ---------------------------------------------------------------------------
# document inputs and --out files, shared by normalize, tokenize and predict

DOCS = [{"id": "a", "text": "Café  du monde"}, {"text": "no  id here"}]


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as f:
        f.write("".join(json.dumps(r) + "\n" for r in rows))


class TestDocumentStreams:
    def test_normalize_in_place(self, capsys, tmp_path):
        path = tmp_path / "docs.jsonl"
        write_jsonl(path, DOCS)
        code, _, _ = run(capsys, "normalize", "--in", str(path), "--out", str(tmp_path / "copy.jsonl"))
        assert code == 0
        code, _, _ = run(capsys, "normalize", "--in", str(path), "--out", str(path))
        assert code == 0
        assert path.read_bytes() == (tmp_path / "copy.jsonl").read_bytes()
        assert len(path.read_bytes().splitlines()) == 2
        assert sorted(os.listdir(tmp_path)) == ["copy.jsonl", "docs.jsonl"]

    @pytest.mark.parametrize("command", ["normalize", "predict"])
    def test_failed_command_keeps_existing_out(self, capsys, tmp_path, model_file, command):
        infile = tmp_path / "in.jsonl"
        infile.write_text(json.dumps(DOCS[0]) + "\nnot json\n", encoding="utf-8")
        out = tmp_path / "out.jsonl"
        out.write_bytes(b"earlier output\n")
        argv = {
            "normalize": ["normalize"],
            "predict": ["classifier", "predict", "--model", model_file["path"]],
        }[command]
        code, _, err = run(capsys, *argv, "--in", str(infile), "--out", str(out))
        assert code == 1
        assert "in.jsonl:2: invalid JSON" in err
        assert out.read_bytes() == b"earlier output\n"
        assert sorted(os.listdir(tmp_path)) == ["in.jsonl", "out.jsonl"]

    def test_gzipped_input(self, capsys, tmp_path):
        write_jsonl(tmp_path / "docs.jsonl", DOCS)
        with gzip.open(tmp_path / "docs.jsonl.gz", "wb") as f:
            f.write((tmp_path / "docs.jsonl").read_bytes())
        _, plain, _ = run(capsys, "tokenize", "--in", str(tmp_path / "docs.jsonl"))
        code, zipped, _ = run(capsys, "tokenize", "--in", str(tmp_path / "docs.jsonl.gz"))
        assert code == 0
        assert [json.loads(line)["tokens"] for line in zipped.splitlines()] == [
            json.loads(line)["tokens"] for line in plain.splitlines()
        ]

    def test_bad_utf8_names_file_and_line(self, capsys, tmp_path):
        infile = tmp_path / "in.jsonl"
        infile.write_bytes(b'{"id": "a", "text": "ok"}\n{"id": "b", "text": "\xff"}\n')
        code, _, err = run(capsys, "tokenize", "--in", str(infile))
        assert code == 1
        assert "error: in.jsonl:2: invalid UTF-8" in err

    def test_a_lone_surrogate_escape_names_its_line(self, capsys, tmp_path):
        # valid JSON whose text cannot be encoded as UTF-8
        infile = tmp_path / "in.jsonl"
        infile.write_text(json.dumps(DOCS[0]) + '\n{"id": "b", "text": "bad \\ud800 surrogate"}\n'
                          + json.dumps(DOCS[1]) + "\n", encoding="utf-8")
        code, _, err = run(capsys, "tokenize", "--in", str(infile),
                           "--out", str(tmp_path / "out.jsonl"))
        assert code == 1
        assert err.splitlines() == ["error: in.jsonl:2: a string holds a lone surrogate escape"]
        assert sorted(os.listdir(tmp_path)) == ["in.jsonl"]

    @pytest.mark.parametrize("damage", ["truncated", "corrupt"])
    def test_damaged_gzip_is_an_error_not_a_traceback(self, capsys, tmp_path, damage):
        rows = [{"id": f"d{i}", "text": f"word{i} " * 40} for i in range(200)]
        data = bytearray(gzip.compress("".join(json.dumps(r) + "\n" for r in rows).encode("utf-8")))
        if damage == "truncated":
            del data[len(data) // 2:]
        else:
            data[200:260] = bytes(b ^ 0x55 for b in data[200:260])
        infile = tmp_path / "in.jsonl.gz"
        infile.write_bytes(bytes(data))
        code, _, err = run(capsys, "normalize", "--in", str(infile), "--out", str(tmp_path / "out.jsonl"))
        assert code == 1
        assert err.startswith("error: ") and "utf-8" not in err
        assert sorted(os.listdir(tmp_path)) == ["in.jsonl.gz"]

    def test_idless_record_named_after_the_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        os.mkdir("corpus")
        write_jsonl(os.path.join("corpus", "x.jsonl"), DOCS)
        for spelling in ("corpus/x.jsonl", "./corpus/x.jsonl", str(tmp_path / "corpus" / "x.jsonl")):
            code, out, _ = run(capsys, "tokenize", "--stats", "--in", spelling)
            assert code == 0
            assert [json.loads(line)["id"] for line in out.splitlines()] == ["a", "x.jsonl:2"]
        assert [d.id for d in iter_documents(os.path.join("corpus", "x.jsonl"))] == ["a", "x.jsonl:2"]


# ---------------------------------------------------------------------------
# seedpool

class TestSeedpoolCommands:
    def test_full_workflow(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rng = np.random.default_rng(23)

        def dump_docs(path, words, prefix):
            docs = [
                Document(
                    id=f"{prefix}:{i}",
                    text=" ".join(words[int(rng.integers(0, len(words)))] for _ in range(20)),
                )
                for i in range(30)
            ]
            write_documents(path, docs)

        dump_docs("pos.jsonl", POS_WORDS, "pos")
        dump_docs("neg.jsonl", NEG_WORDS, "neg")

        code, out, _ = run(capsys, "seedpool", "init", "--pool", "pool")
        assert code == 0
        assert json.loads(out) == {"initialized": True, "pool": "pool"}

        code, out, _ = run(
            capsys,
            "seedpool", "add", "--pool", "pool", "--name", "books",
            "--polarity", "positive", "--source", "library", "--docs", "pos.jsonl",
        )
        assert code == 0
        assert json.loads(out)["version"] == 1

        code, out, _ = run(
            capsys,
            "seedpool", "add", "--pool", "pool", "--name", "crawl",
            "--polarity", "negative", "--source", "dragnet", "--docs", "neg.jsonl",
        )
        assert code == 0
        assert json.loads(out)["version"] == 2

        code, out, _ = run(capsys, "seedpool", "mark", "--pool", "pool", "--name", "books", "--factor", "3")
        assert code == 0
        assert json.loads(out)["version"] == 3

        code, out, _ = run(
            capsys,
            "seedpool", "assemble", "--pool", "pool", "--size", "40", "--out", "train.jsonl",
        )
        assert code == 0
        counts = json.loads(out)
        assert counts["examples"] == 40
        assert counts["positives"] == 20
        assert counts["negatives"] == 20
        assert len(load_labeled_examples("train.jsonl")) == 40

        code, out, _ = run(capsys, "seedpool", "show", "--pool", "pool", "--version", "3")
        assert code == 0
        manifest = json.loads(out)
        assert manifest["version"] == 3
        books = next(c for c in manifest["categories"] if c["name"] == "books")
        assert books["resample_factor"] == 3

    def test_bad_polarity_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "seedpool", "add", "--pool", str(tmp_path / "pool"), "--name", "x",
            "--polarity", "sideways", "--source", "s", "--docs", "nope.jsonl",
        )
        assert code == 1
        assert "usage" in err

    def test_refused_labels_assembly_leaves_no_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_documents("pos.jsonl", [Document(id="a", text="ok")])
        write_documents("neg.jsonl", [Document(id="b", text="two\nlines")])
        run(capsys, "seedpool", "init", "--pool", "pool")
        for name, polarity in (("pos", "positive"), ("neg", "negative")):
            run(
                capsys,
                "seedpool", "add", "--pool", "pool", "--name", name,
                "--polarity", polarity, "--source", "s", "--docs", f"{name}.jsonl",
            )
        code, _, err = run(
            capsys,
            "seedpool", "assemble", "--pool", "pool", "--size", "2", "--format", "labels",
            "--out", "train.txt",
        )
        assert code == 1
        assert "newline" in err
        assert not os.path.exists("train.txt")
        assert not os.path.exists("train.txt.tmp")

    def test_factor_out_of_range_is_fatal(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_documents("pos.jsonl", [Document(id="a", text="hello world")])
        run(capsys, "seedpool", "init", "--pool", "pool")
        run(
            capsys,
            "seedpool", "add", "--pool", "pool", "--name", "x",
            "--polarity", "positive", "--source", "s", "--docs", "pos.jsonl",
        )
        code, _, err = run(capsys, "seedpool", "mark", "--pool", "pool", "--name", "x", "--factor", "9")
        assert code == 1
        assert "error:" in err


# ---------------------------------------------------------------------------
# filter

class TestFilterCommands:
    def test_score_then_resume(self, capsys, tmp_path, model_file):
        corpus = tmp_path / "corpus"
        write_corpus(str(corpus))
        out_dir = tmp_path / "scored"

        code, out, _ = run(
            capsys,
            "filter", "score",
            "--model", model_file["path"],
            "--shards", str(corpus / "*.jsonl"),
            "--out", str(out_dir),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["completed_shards"] == 2
        assert summary["skipped_shards"] == 0
        assert summary["failed_shards"] == []
        assert summary["zero_feature_docs"] == 0
        assert summary["stats"]["documents_total"] == 40
        assert os.path.exists(summary["keep_manifest"])
        int(summary["corpus_fingerprint"], 16)

        code, out, _ = run(
            capsys,
            "filter", "score",
            "--model", model_file["path"],
            "--shards", str(corpus / "*.jsonl"),
            "--out", str(out_dir),
            "--resume",
        )
        assert code == 0
        again = json.loads(out)
        assert again["completed_shards"] == 2
        assert again["skipped_shards"] == 2  # nothing rescored
        assert again["corpus_fingerprint"] == summary["corpus_fingerprint"]

    def test_setup_names_the_model_by_its_file_sha256(self, capsys, tmp_path, model_file):
        write_corpus(str(tmp_path / "corpus"), n_shards=1)
        code, _, err = run(capsys, "filter", "score", "--model", model_file["path"],
                           "--shards", str(tmp_path / "corpus" / "*.jsonl"),
                           "--out", str(tmp_path / "scored"))
        assert code == 0, err
        with open(tmp_path / "scored" / "setup.json", encoding="utf-8") as f:
            named = json.load(f)["model_sha256"]
        assert named == sha256_file(model_file["path"]) == model_file["summary"]["sha256"]

    def test_score_partial_exit(self, capsys, tmp_path, model_file):
        corpus = tmp_path / "corpus"
        write_corpus(str(corpus), n_shards=1)
        code, out, _ = run(
            capsys,
            "filter", "score",
            "--model", model_file["path"],
            "--shards", str(corpus / "shard000.jsonl"), str(tmp_path / "missing.jsonl"),
            "--out", str(tmp_path / "scored"),
        )
        assert code == 2
        summary = json.loads(out)
        assert len(summary["failed_shards"]) == 1

    def test_score_reports_corrupt_gzip_shard(self, capsys, tmp_path, model_file):
        corpus = tmp_path / "corpus"
        write_corpus(str(corpus), n_shards=1)
        write_corrupt_gzip(str(corpus / "shard001.jsonl.gz"))
        code, out, err = run(
            capsys,
            "filter", "score",
            "--model", model_file["path"],
            "--shards", str(corpus / "shard000.jsonl"), str(corpus / "shard001.jsonl.gz"),
            "--out", str(tmp_path / "scored"),
        )
        assert code == 2
        assert "error:" not in err
        summary = json.loads(out)
        assert [f["shard"] for f in summary["failed_shards"]] == ["shard001.jsonl.gz"]
        assert summary["completed_shards"] == 1

    def test_bad_workers_value(self, capsys, tmp_path, model_file):
        code, _, err = run(
            capsys,
            "filter", "score",
            "--model", model_file["path"],
            "--shards", str(tmp_path / "x.jsonl"),
            "--out", str(tmp_path / "scored"),
            "--workers", "0",
        )
        assert code == 1
        assert "workers" in err

    def test_intersect_stdout_and_file(self, capsys, tmp_path):
        fp = "f" * 64
        filtering.write_keep_manifest(str(tmp_path / "a.txt"), fp, ["d1", "d2", "d3"])
        filtering.write_keep_manifest(str(tmp_path / "b.txt"), fp, ["d2", "d3", "d4"])

        code, out, _ = run(capsys, "filter", "intersect", str(tmp_path / "a.txt"), str(tmp_path / "b.txt"))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == filtering.MANIFEST_HEADER_PREFIX + fp
        assert lines[1:] == ["d2", "d3"]

        code, out, _ = run(
            capsys,
            "filter", "intersect",
            str(tmp_path / "a.txt"), str(tmp_path / "b.txt"),
            "--out", str(tmp_path / "both.txt"),
        )
        assert code == 0
        assert json.loads(out) == {"kept": 2, "out": str(tmp_path / "both.txt")}
        header, ids = filtering.read_keep_manifest(str(tmp_path / "both.txt"))
        assert header == fp
        assert sorted(ids) == ["d2", "d3"]

    def test_intersect_out_may_overwrite_an_input(self, capsys, tmp_path):
        fp = "f" * 64
        a, b, both = (str(tmp_path / name) for name in ("a.txt", "b.txt", "both.txt"))
        filtering.write_keep_manifest(a, fp, [f"d{i:03d}" for i in range(0, 300, 2)])
        filtering.write_keep_manifest(b, fp, [f"d{i:03d}" for i in range(0, 300, 3)])
        assert run(capsys, "filter", "intersect", a, b, "--out", both)[0] == 0
        assert run(capsys, "filter", "intersect", a, b, "--out", a)[0] == 0
        with open(a, "rb") as fa, open(both, "rb") as fb:
            assert fa.read() == fb.read()

    def test_intersect_refuses_unsorted_manifest(self, capsys, tmp_path):
        fp = "f" * 64
        a, b = tmp_path / "a.txt", str(tmp_path / "b.txt")
        a.write_text(filtering.MANIFEST_HEADER_PREFIX + fp + "\nd1\nd3\nd2\n", encoding="utf-8")
        filtering.write_keep_manifest(b, fp, ["d1", "d2", "d3"])
        out = tmp_path / "both.txt"
        code, _, err = run(capsys, "filter", "intersect", str(a), b, "--out", str(out))
        assert code == 1
        assert err.startswith("error: ") and str(a) in err and len(err.splitlines()) == 1
        assert not out.exists() and not (tmp_path / "both.txt.tmp").exists()
        code, _, err = run(capsys, "filter", "intersect", b, str(a))
        assert code == 1 and err.startswith("error: ")

    def test_intersect_mismatched_corpora(self, capsys, tmp_path):
        filtering.write_keep_manifest(str(tmp_path / "a.txt"), "a" * 64, ["d1"])
        filtering.write_keep_manifest(str(tmp_path / "b.txt"), "b" * 64, ["d1"])
        code, _, err = run(capsys, "filter", "intersect", str(tmp_path / "a.txt"), str(tmp_path / "b.txt"))
        assert code == 1
        assert "error:" in err

    def test_stats_matches_library(self, capsys, tmp_path):
        corpus = tmp_path / "corpus"
        write_corpus(str(corpus), n_shards=1)
        shard = str(corpus / "shard000.jsonl")
        code, out, _ = run(capsys, "filter", "stats", "--shards", shard)
        assert code == 0
        expected = filtering.token_length_histogram([shard], load_tokenizer(TokenizerSpec()))
        assert json.loads(out) == expected.to_json_obj()


# ---------------------------------------------------------------------------
# verify

class TestVerifyCommands:
    def test_plan_steps_only(self, capsys):
        code, out, _ = run(capsys, "verify", "plan", "--candidate-tokens", "1000000000")
        assert code == 0
        plan = json.loads(out)
        assert plan["total_tokens"] == 10_000_000_000
        assert plan["raw_steps"] == 4769
        assert plan["computed_steps"] == 5000

    def test_plan_full_mixture(self, capsys, tmp_path):
        candidate = verify.TokenManifest(
            name="kept", shards=(verify.ManifestShard(id="s0", tokens=3000),)
        )
        default = verify.TokenManifest(
            name="base",
            shards=tuple(verify.ManifestShard(id=f"d{i}", tokens=2000) for i in range(40)),
        )
        cpath, dpath = tmp_path / "cand.json", tmp_path / "default.json"
        cpath.write_text(json.dumps(candidate.to_json_obj()), encoding="utf-8")
        dpath.write_text(json.dumps(default.to_json_obj()), encoding="utf-8")

        out_path = tmp_path / "plan.json"
        code, out, _ = run(
            capsys,
            "verify", "plan",
            "--candidate-manifest", str(cpath),
            "--default-manifest", str(dpath),
            "--batch-size", "1",
            "--seq-len", "2",
            "--out", str(out_path),
        )
        assert code == 0
        assert json.loads(out) == {"out": str(out_path)}
        plan = json.loads(out_path.read_text(encoding="utf-8"))
        assert plan["hyperparameters"]["candidate_weight"] == 0.3
        assert plan["steps"]["computed_steps"] == 15000
        assert plan["provenance"]["candidate_fingerprint"] == candidate.fingerprint()
        kept_tokens = sum(s["tokens"] for s in plan["schedule"] if s["source"] == "candidate")
        assert kept_tokens == 9000

    def test_plan_requires_token_source(self, capsys):
        code, _, err = run(capsys, "verify", "plan")
        assert code == 1
        assert "candidate" in err

    def test_plan_manifest_needs_default(self, capsys, tmp_path):
        cpath = tmp_path / "cand.json"
        cpath.write_text(
            json.dumps({"name": "kept", "shards": [{"id": "s0", "tokens": 10}]}),
            encoding="utf-8",
        )
        code, _, err = run(capsys, "verify", "plan", "--candidate-manifest", str(cpath))
        assert code == 1
        assert "--default-manifest" in err

    @pytest.mark.parametrize("weight", ["nan", "inf", "0", "1"])
    def test_plan_weight_outside_open_unit_interval_is_fatal(self, capsys, weight):
        code, out, err = run(
            capsys, "verify", "plan", "--candidate-tokens", "1000", "--weight", weight
        )
        assert code == 1
        assert out == ""
        assert err == "error: candidate_weight must be in (0, 1)\n"

    @pytest.mark.parametrize("strata", ["0", "-7"])
    def test_plan_strata_below_one_is_fatal(self, capsys, strata):
        code, out, err = run(
            capsys, "verify", "plan", "--candidate-tokens", "1000", "--strata", strata
        )
        assert code == 1
        assert out == ""
        assert err == f"error: strata must be >= 1, got {strata}\n"

    @pytest.fixture()
    def score_files(self, tmp_path):
        base = {"run_label": "base", "scores": {m: 50.0 for m in ALL_METRICS}}
        cand = {"run_label": "cand", "scores": {m: 51.0 for m in ALL_METRICS}}
        bpath, cpath = tmp_path / "base.json", tmp_path / "cand.json"
        bpath.write_text(json.dumps(base), encoding="utf-8")
        cpath.write_text(json.dumps(cand), encoding="utf-8")
        return str(bpath), str(cpath)

    def test_report_formats(self, capsys, score_files):
        bpath, cpath = score_files
        code, out, _ = run(capsys, "verify", "report", "--baseline", bpath, "--candidate", cpath)
        assert code == 0
        assert "Overall avg" in out
        assert "+1.000" in out

        code, out, _ = run(
            capsys, "verify", "report", "--baseline", bpath, "--candidate", cpath, "--format", "json"
        )
        assert code == 0
        report = verify.eval_report(
            verify.EvalScores.from_file(bpath), verify.EvalScores.from_file(cpath)
        )
        assert json.loads(out) == report.to_json_obj()

        code, out, _ = run(
            capsys, "verify", "report", "--baseline", bpath, "--candidate", cpath, "--format", "markdown"
        )
        assert code == 0
        assert out.startswith("| Metric |")

    def test_report_negative_margin_is_fatal(self, capsys, score_files):
        bpath, cpath = score_files
        code, _, err = run(
            capsys,
            "verify", "report", "--baseline", bpath, "--candidate", cpath, "--margin", "-0.5",
        )
        assert code == 1
        assert "error:" in err


# ---------------------------------------------------------------------------
# pipeline

class TestPipelineCommands:
    def test_full_run(self, capsys, tmp_path, monkeypatch):
        config = build_world(tmp_path)
        monkeypatch.chdir(tmp_path)
        with open("pipeline.json", "w", encoding="utf-8") as f:
            json.dump(config.to_json_obj(), f)
        base = {"run_label": "base", "scores": {m: 50.0 for m in ALL_METRICS}}
        cand = {"run_label": "cand", "scores": {m: 51.0 for m in ALL_METRICS}}
        with open("base.json", "w", encoding="utf-8") as f:
            json.dump(base, f)
        with open("cand.json", "w", encoding="utf-8") as f:
            json.dump(cand, f)

        code, out, _ = run(capsys, "pipeline", "init", "--run", "run", "--config", "pipeline.json")
        assert code == 0
        assert json.loads(out)["status"] == "awaiting_training_set"

        for round_no in (1, 2):
            code, out, _ = run(capsys, "pipeline", "advance", "--run", "run")
            assert code == 0
            status = json.loads(out)
            assert status["status"] == "awaiting_verification"
            assert status["round"] == round_no
            code, out, _ = run(
                capsys,
                "pipeline", "ingest-report", "--run", "run",
                "--baseline", "base.json", "--candidate", "cand.json",
            )
            assert code == 0
            assert json.loads(out)["status"] == "verdict_ready"

        code, out, _ = run(capsys, "pipeline", "advance", "--run", "run")
        assert code == 0
        assert json.loads(out)["status"] == "promoted"

        code, out, _ = run(capsys, "pipeline", "status", "--run", "run")
        assert code == 0
        assert json.loads(out)["status"] == "promoted"

        code, out, _ = run(capsys, "pipeline", "resume", "--run", "run")
        assert code == 0

        # terminal runs refuse further work
        code, _, err = run(capsys, "pipeline", "advance", "--run", "run")
        assert code == 1
        assert "terminal" in err

    def test_each_command_reads_the_journal_once(self, capsys, tmp_path, monkeypatch):
        config = build_world(tmp_path)
        monkeypatch.chdir(tmp_path)
        with open("pipeline.json", "w", encoding="utf-8") as f:
            json.dump(config.to_json_obj(), f)
        for label, score in (("base", 50.0), ("cand", 51.0)):
            with open(f"{label}.json", "w", encoding="utf-8") as f:
                json.dump({"run_label": label, "scores": {m: score for m in ALL_METRICS}}, f)
        reads = []
        read_journal = pipeline.read_journal

        def counting(*args, **kwargs):
            reads.append(args[0])
            return read_journal(*args, **kwargs)

        commands = [
            ["init", "--run", "run", "--config", "pipeline.json"],
            ["advance", "--run", "run"],
            ["ingest-report", "--run", "run", "--baseline", "base.json", "--candidate", "cand.json"],
            ["resume", "--run", "run"],
            ["status", "--run", "run"],
        ]
        for argv in commands:
            monkeypatch.setattr(pipeline, "read_journal", counting)
            reads.clear()
            code, out, _ = run(capsys, "pipeline", *argv)
            assert code == 0
            assert reads == ["run"], argv[0]
            monkeypatch.setattr(pipeline, "read_journal", read_journal)
            assert json.loads(out) == pipeline.run_status("run")

    def test_init_twice_is_fatal(self, capsys, tmp_path, monkeypatch):
        config = build_world(tmp_path)
        monkeypatch.chdir(tmp_path)
        with open("pipeline.json", "w", encoding="utf-8") as f:
            json.dump(config.to_json_obj(), f)
        code, _, _ = run(capsys, "pipeline", "init", "--run", "run", "--config", "pipeline.json")
        assert code == 0
        code, _, err = run(capsys, "pipeline", "init", "--run", "run", "--config", "pipeline.json")
        assert code == 1
        assert "already initialized" in err

    @pytest.mark.parametrize("bad", [
        {"n_epoch": 9},
        {"n_epoch": 2},
        {"rounding_mode": "nope"},
        {"candidate_weight": 1.5},
        {"candidate_weight": 0},
        {"candidate_weight": float("nan")},
        {"global_batch_size": 0},
        {"sequence_length": 0},
        {"strata": 0},
    ])
    def test_init_refuses_bad_verify_settings(self, capsys, tmp_path, monkeypatch, bad):
        self.check_init_refuses(capsys, tmp_path, monkeypatch, "verify", bad)

    @pytest.mark.parametrize("bad", [
        {"lr": float("nan")},
        {"lr": float("inf")},
        {"lr": 0},
        {"seed": -1},
    ])
    def test_init_refuses_bad_classifier_settings(self, capsys, tmp_path, monkeypatch, bad):
        self.check_init_refuses(capsys, tmp_path, monkeypatch, "classifier", bad)

    @pytest.mark.parametrize("bad", [
        {"balance": 1.5},
        {"balance": float("nan")},
        {"target_training_set": 0},
        {"target_training_set": 121},   # odd at balance 0.5
    ])
    def test_init_refuses_bad_training_set_settings(self, capsys, tmp_path, monkeypatch, bad):
        self.check_init_refuses(capsys, tmp_path, monkeypatch, None, bad)

    @staticmethod
    def check_init_refuses(capsys, tmp_path, monkeypatch, block, bad):
        """pipeline init with bad merged into the config's block (its top
        level when block is None) exits 1 with one error line, naming the
        block if there is one, and writes no journal."""
        config = build_world(tmp_path).to_json_obj()
        (config[block] if block else config).update(bad)
        monkeypatch.chdir(tmp_path)
        with open("pipeline.json", "w", encoding="utf-8") as f:
            json.dump(config, f)
        code, _, err = run(capsys, "pipeline", "init", "--run", "run", "--config", "pipeline.json")
        assert code == 1
        assert "Traceback" not in err
        lines = err.splitlines()
        prefix = f"error: PipelineConfig.{block}:" if block else "error: "
        assert len(lines) == 1 and lines[0].startswith(prefix), err
        assert not os.path.exists(os.path.join("run", pipeline.JOURNAL_NAME))

    def test_status_missing_run(self, capsys, tmp_path):
        code, _, err = run(capsys, "pipeline", "status", "--run", str(tmp_path / "nowhere"))
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("block, refused", [
        ("classifier", {"minn": 0, "maxn": 0}),    # fields of builds before model format 4
        ("verify", {"strata": 0}),                 # accepted by builds before AnnealSettings
    ], ids=["minn-maxn", "strata-0"])
    def test_a_journal_with_refused_settings_is_one_error_line(
        self, capsys, tmp_path, monkeypatch, block, refused
    ):
        config = build_world(tmp_path)
        monkeypatch.chdir(tmp_path)
        pipeline.init_run("run", config)
        path = os.path.join("run", pipeline.JOURNAL_NAME)
        with open(path, encoding="utf-8") as f:
            entry = json.loads(f.readline())["entry"]
        # the init entry another build would have written, its check recomputed
        entry["data"]["config"][block].update(refused)
        with open(path, "w", encoding="utf-8") as f:
            f.write(canonical_json({"entry": entry, "check": sha256_text(canonical_json(entry))})
                    + "\n")
        with open(path, "rb") as f:
            journal = f.read()
        for command in ("status", "resume", "advance"):
            code, out, err = run(capsys, "pipeline", command, "--run", "run")
            assert (code, out) == (1, ""), command
            lines = err.splitlines()
            assert len(lines) == 1 and "Traceback" not in err, err
            assert lines[0].startswith(
                "error: another websift build wrote this journal with run settings this "
                f"build refuses (PipelineConfig.{block}: "
            ), err
            assert lines[0].endswith("); start the run again in a new directory"), err
        # init keeps another build's run history and does not start over
        with open("pipeline.json", "w", encoding="utf-8") as f:
            json.dump(config.to_json_obj(), f)
        code, _, err = run(capsys, "pipeline", "init", "--run", "run", "--config", "pipeline.json")
        assert code == 1 and "already initialized" in err, err
        with open(path, "rb") as f:
            assert f.read() == journal


# ---------------------------------------------------------------------------
# settings files

# Each settings file the CLI reads, as (block within the file or None, the
# class it decodes to, its fields for the type cases). A pipeline config
# holds the verify, classifier and tokenizer blocks.
SETTINGS_TARGETS = {
    "pipeline": (None, "PipelineConfig",
                 {"missing": "sample_size", "int": "max_rounds", "float": "threshold"}),
    "pipeline.verify": ("verify", "VerifySettings",
                        {"missing": "default_manifest", "int": "n_epoch", "float": "candidate_weight"}),
    "pipeline.classifier": ("classifier", "ClassifierConfig", {"int": "dim", "float": "lr"}),
    "pipeline.tokenizer": ("tokenizer", "TokenizerSpec", {"bool": "preserve_structural"}),
    "classifier": (None, "ClassifierConfig", {"int": "dim", "float": "lr"}),
    "tokenize": (None, "TokenizerSpec", {"bool": "preserve_structural"}),
    "normalize": (None, "NormalizePolicy", {"int": "max_consecutive_newlines"}),
}
BAD_VALUES = {"int": True, "float": "0.5", "bool": "yes"}


def settings_cases():
    for target, (_, _, fields) in SETTINGS_TARGETS.items():
        yield target, "unknown", "shout"
        yield target, "non_object", None
        for case, key in fields.items():
            yield target, case, key


def settings_argv(target, path, tmp_path):
    absent = str(tmp_path / "absent")
    if target.startswith("pipeline"):
        return ["pipeline", "init", "--run", str(tmp_path / "run"), "--config", path]
    if target == "classifier":
        return ["classifier", "train", "--data", absent, "--out", absent, "--config", path]
    if target == "tokenize":
        return ["tokenize", "--in", absent, "--spec", path]
    return ["normalize", "--in", absent, "--policy", path]


@pytest.mark.parametrize("target,case,key", list(settings_cases()))
def test_malformed_settings_file_is_one_error_line(capsys, tmp_path, target, case, key):
    block, cls_name, _ = SETTINGS_TARGETS[target]
    settings = {}
    if target.startswith("pipeline"):
        settings = {
            "pool_dir": "pool", "raw_shards": ["raw/*.jsonl"], "sample_size": 10,
            "verify": {"default_manifest": "default.json"}, "classifier": {}, "tokenizer": {},
        }
    obj = settings[block] if block else settings
    if case == "unknown":
        obj[key] = 1
    elif case == "missing":
        del obj[key]
    elif case != "non_object":
        obj[key] = BAD_VALUES[case]
    if case == "non_object":
        if block:
            settings[block] = []
        else:
            settings = []
    path = tmp_path / "settings.json"
    path.write_text(json.dumps(settings), encoding="utf-8")
    code, _, err = run(capsys, *settings_argv(target, str(path), tmp_path))
    assert code == 1
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    assert cls_name in lines[0]
    for name in (block, key):
        if name:
            assert repr(name) in lines[0] or f".{name}:" in lines[0], lines[0]


def test_token_manifest_missing_key_is_one_error_line(capsys, tmp_path):
    cpath = tmp_path / "candidate.json"
    cpath.write_text(json.dumps({"shards": [{"id": "a", "tokens": 10}]}), encoding="utf-8")
    dpath = tmp_path / "default.json"
    dpath.write_text(
        json.dumps({"name": "d", "shards": [{"id": "b", "tokens": "many"}], "source": "x"}),
        encoding="utf-8",
    )
    idpath = tmp_path / "id.json"
    idpath.write_text(json.dumps({"name": "i", "shards": [{"id": 7, "tokens": 10}]}), encoding="utf-8")
    for candidate, default, named in (
        (cpath, dpath, "'name'"), (dpath, dpath, "integer"), (idpath, idpath, "'id'"),
    ):
        code, _, err = run(
            capsys, "verify", "plan",
            "--candidate-manifest", str(candidate), "--default-manifest", str(default),
        )
        assert code == 1
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and named in lines[0], err
    # keys beyond the ones read are ignored, inside a shard entry too
    for name, tokens in (("c", 10), ("d", 70)):
        (tmp_path / f"{name}.json").write_text(json.dumps(
            {"name": name, "shards": [{"id": "a", "tokens": tokens, "path": "a.bin"}], "source": "x"}
        ), encoding="utf-8")
    code, out, err = run(
        capsys, "verify", "plan",
        "--candidate-manifest", str(tmp_path / "c.json"), "--default-manifest", str(tmp_path / "d.json"),
        "--batch-size", "1", "--seq-len", "1", "--rounding-mode", "nearest_canonical",
    )
    assert code == 0, err
    plan = json.loads(out)["provenance"]
    assert plan["candidate_fingerprint"] == verify.TokenManifest(
        "c", (verify.ManifestShard("a", 10),)
    ).fingerprint()


@pytest.mark.parametrize("command", [["verify", "report"], ["pipeline", "ingest-report", "--run", "run"]])
@pytest.mark.parametrize("flag,content,named", [
    ("--baseline", ["x"], "EvalScores"),
    ("--baseline", "scores", "EvalScores"),
    ("--grouping", ["English"], "MetricGrouping"),
    ("--grouping", {"English": 5}, "MetricGrouping"),
    ("--grouping", {"English": "ARC"}, "MetricGrouping"),
    ("--grouping", {"English": ["ARC", 1]}, "MetricGrouping"),
    ("--grouping", {"English": [], "Chinese": ["ARC"]}, "'English'"),
])
def test_malformed_eval_file_is_one_error_line(capsys, tmp_path, command, flag, content, named):
    files = {
        "--baseline": {"run_label": "base", "scores": {"ARC": 50.0}},
        "--candidate": {"run_label": "cand", "scores": {"ARC": 51.0}},
        "--grouping": {"English": ["ARC"]},
    }
    files[flag] = content
    argv = list(command)
    for name, obj in files.items():
        path = tmp_path / (name[2:] + ".json")
        path.write_text(json.dumps(obj), encoding="utf-8")
        argv += [name, str(path)]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and named in lines[0], err


def test_eval_files_keep_accepting_extra_keys(tmp_path):
    scores = verify.EvalScores.from_json_obj(
        {"run_label": "r", "scores": {"ARC": 50.0}, "harness": "x"}
    )
    assert scores.scores == {"ARC": 50.0}
    grouping = verify.MetricGrouping.from_json_obj({"English": ["ARC", "MMLU"], "Chinese": ["C-Eval"]})
    assert grouping.groups == (("English", ("ARC", "MMLU")), ("Chinese", ("C-Eval",)))


# ---------------------------------------------------------------------------
# installed entry point

class TestEntryPoint:
    def test_module_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "websift.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "websift" in proc.stdout

    def test_stdin_to_stdout(self):
        proc = subprocess.run(
            [sys.executable, "-m", "websift.cli", "tokenize", "--stats"],
            input='{"id": "a", "text": "alpha beta"}\n\n{"text": "gamma"}\n',
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == '{"id": "a", "tokens": 2}\n{"id": "<stdin>:3", "tokens": 1}\n'

    def test_env_log_level_in_subprocess(self, tmp_path):
        env = dict(os.environ, UFW_LOG="noisy")
        proc = subprocess.run(
            [sys.executable, "-m", "websift.cli", "seedpool", "init", "--pool", str(tmp_path / "p")],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 1
        assert "unknown log level" in proc.stderr


# ---------------------------------------------------------------------------
# the model names its tokenizer

def train_with_greedy_tokenizer(capsys, tmp_path, vocab_path=None):
    """Train through the CLI with a vocab_greedy tokenizer whose spec names
    vocab_path (by default the vocabulary's absolute path); returns (model
    path, vocab path, spec, the same model trained in memory)."""
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("fresh\nstale\n1\n2\n", encoding="utf-8")
    spec = TokenizerSpec(kind="vocab_greedy", vocab_path=vocab_path or str(vocab))
    spec_file = tmp_path / "tokenizer.json"
    spec_file.write_text(json.dumps(spec.to_json_obj()), encoding="utf-8")
    labels = tmp_path / "train.txt"
    write_labels(str(labels))
    out = tmp_path / "model.ufwc"
    code, _, _ = run(capsys, "classifier", "train", "--data", str(labels), "--out", str(out),
                     "--tokenizer", str(spec_file), "--dim", "8", "--bucket", "512",
                     "--min-count", "1", "--word-ngrams", "2")
    assert code == 0
    config = clf.ClassifierConfig(dim=8, bucket=512, min_count=1, word_ngrams=2)
    in_memory = clf.train(load_labeled_examples(str(labels)), config, load_tokenizer(spec))
    return str(out), vocab, spec, in_memory


def test_scoring_commands_use_the_model_tokenizer(capsys, tmp_path):
    model_path, _, spec, in_memory = train_with_greedy_tokenizer(capsys, tmp_path)
    tokenizer = load_tokenizer(spec)
    assert clf.load_model(model_path).tokenizer == tokenizer
    corpus = tmp_path / "corpus"
    write_corpus(str(corpus), n_shards=1)
    docs = list(iter_documents(str(corpus / "shard000.jsonl")))

    code, out, _ = run(capsys, "classifier", "predict", "--model", model_path,
                       "--in", str(corpus / "shard000.jsonl"))
    assert code == 0
    preds = clf.predict_many(in_memory, [d.text for d in docs], tokenizer)
    assert [json.loads(line)["score"] for line in out.splitlines()] == \
        [p.dist["positive"] for p in preds]

    code, out, _ = run(capsys, "filter", "score", "--model", model_path,
                       "--shards", str(corpus / "shard000.jsonl"), "--out", str(tmp_path / "scored"))
    assert code == 0
    scores = {}
    for stream in ("kept", "rejected"):
        with open(tmp_path / "scored" / stream / "shard000.jsonl.scored.jsonl", encoding="utf-8") as f:
            scores.update((obj["id"], obj["score"]) for obj in map(json.loads, f))
    assert [scores[d.id] for d in docs] == [p.dist["positive"] for p in preds]


def test_vocab_greedy_model_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("fresh\nstale\n1\n2\n日本\n", encoding="utf-8")
    spec_file = tmp_path / "tokenizer.json"
    spec = TokenizerSpec(kind="vocab_greedy", vocab_path=str(vocab))
    spec_file.write_text(json.dumps(spec.to_json_obj()), encoding="utf-8")
    labels = tmp_path / "train.txt"
    write_labels(str(labels))
    models = [tmp_path / f"model-{seed}.ufwc" for seed in (1, 2)]
    for seed, out in zip((1, 2), models):
        # the vocabulary's set order differs between hash seeds
        subprocess.run(
            [sys.executable, "-m", "websift.cli", "classifier", "train", "--data", str(labels),
             "--out", str(out), "--tokenizer", str(spec_file), "--dim", "4", "--bucket", "64",
             "--min-count", "1"],
            env=dict(os.environ, PYTHONHASHSEED=str(seed)), capture_output=True, check=True,
        )
    again = tmp_path / "again.ufwc"
    clf.save_model(clf.load_model(str(models[0])), str(again))
    assert models[0].read_bytes() == models[1].read_bytes() == again.read_bytes()


def numpy_dispatch_features() -> list[str]:
    """The SIMD features numpy dispatches to at run time on this CPU, above
    its compiled baseline; their names depend on the numpy version."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]


def test_model_bytes_do_not_depend_on_the_blas_kernel_or_numpy_simd_level(tmp_path):
    labels = tmp_path / "train.txt"
    write_labels(str(labels))
    # On a CPU without AVX-512 or AVX2 some settings change nothing; they still run.
    settings = {
        "default": {},
        "haswell-kernel": {"OPENBLAS_CORETYPE": "Haswell"},
        "numpy-baseline": {"NPY_DISABLE_CPU_FEATURES": " ".join(numpy_dispatch_features())},
    }
    digests = {}
    for name, extra in settings.items():
        out = tmp_path / f"{name}.ufwc"
        subprocess.run(
            [sys.executable, "-m", "websift.cli", "classifier", "train", "--data", str(labels),
             "--out", str(out), "--dim", "64", "--bucket", "512", "--min-count", "1",
             "--word-ngrams", "2"],
            env=dict(os.environ, **extra), capture_output=True, check=True,
        )
        digests[name] = sha256_file(str(out))
    assert len(set(digests.values())) == 1, digests


def test_a_model_scores_from_another_directory_without_its_vocabulary_file(
    capsys, tmp_path, monkeypatch
):
    trained_in = tmp_path / "a"
    trained_in.mkdir()
    monkeypatch.chdir(trained_in)
    _, vocab, spec, in_memory = train_with_greedy_tokenizer(capsys, trained_in, "vocab.txt")
    tokenizer = load_tokenizer(spec)
    vocab.unlink()
    (tmp_path / "b").mkdir()
    monkeypatch.chdir(tmp_path / "b")
    write_corpus("corpus", n_shards=1)
    shard = os.path.join("corpus", "shard000.jsonl")
    docs = list(iter_documents(shard))
    model_path = os.path.join("..", "a", "model.ufwc")

    code, out, err = run(capsys, "classifier", "predict", "--model", model_path, "--in", shard)
    assert code == 0, err
    preds = clf.predict_many(in_memory, [d.text for d in docs], tokenizer)
    assert [json.loads(line)["score"] for line in out.splitlines()] == \
        [p.dist["positive"] for p in preds]

    code, _, err = run(capsys, "filter", "score", "--model", model_path, "--shards", shard,
                       "--out", "scored")
    assert code == 0, err
    scores = {}
    for stream in ("kept", "rejected"):
        with open(os.path.join("scored", stream, "shard000.jsonl.scored.jsonl"),
                  encoding="utf-8") as f:
            scores.update((obj["id"], obj["score"]) for obj in map(json.loads, f))
    assert [scores[d.id] for d in docs] == [p.dist["positive"] for p in preds]
