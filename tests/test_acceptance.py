"""Acceptance suite: one test per shipped guarantee, each at its stated
tolerance and wall-clock budget.

Covered, in order: report arithmetic against the published benchmark tables,
step-budget planning, classifier accuracy and retrain determinism, gradient
correctness, filtering laws on generated corpora, balanced seed assembly,
normalization invariants, anneal mixture pacing, crash recovery, and scoring
throughput. Every test finishes through _finish, which enforces the budget
and prints a one-line summary with the measured numbers (visible under
pytest -rA or -s).
"""

import filecmp
import json
import os
import re
import shutil
import tempfile
import time
import unicodedata
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from websift import pipeline
from websift.classifier import (
    ClassifierConfig,
    LabeledExample,
    example_grads,
    predict,
    save_model,
    train,
)
from websift.documents import Document, write_documents
from websift.filtering import intersect_ids, score_corpus
from websift.ioutil import sha256_file
from websift.normalize import normalize_text
from websift.pipeline import PROMOTED, read_journal
from websift.seedpool import InsufficientSeedData, SeedPoolStore, assemble_training_set
from websift.verify import (
    CHINESE_METRICS,
    ENGLISH_METRICS,
    AnnealSettings,
    EvalScores,
    ManifestShard,
    MetricGrouping,
    TokenManifest,
    build_anneal_plan,
    eval_report,
    plan_steps,
)

from test_classifier import central_diff, rel_err
from test_pipeline import Boom, NOMINAL_KINDS, build_world, drive, install_crash, journal_bytes
from test_verify import candidate_flags, check_tape_contiguity, max_window_deviation


def _finish(tag: str, t0: float, budget: float, detail: str) -> None:
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"{tag} took {elapsed:.2f}s, budget is {budget:.0f}s"
    print(f"[{tag}] {detail} ({elapsed:.2f}s, budget {budget:.0f}s)")


def _scratch_dir(prefix: str) -> str:
    # tmpfs keeps io out of the measured path where it is available
    base = "/dev/shm" if os.access("/dev/shm", os.W_OK) else None
    return tempfile.mkdtemp(prefix=prefix, dir=base)


# -- published per-metric scores and the averages printed beside them -----------
#
# Three runs per table: the unfiltered baseline, an edu-style filtered
# reference, and the candidate this toolkit's recipe produces. Averages are
# the published three-decimal figures; they were printed from rounded
# per-metric scores, so comparisons allow one unit in the third decimal.

EN_TABLE = {
    "baseline": (28.84, 25.17, 59.18, 34.32, 42.91, 22.20, 73.29, 38.95, 55.64),
    "reference": (31.80, 34.56, 69.95, 31.53, 42.17, 25.20, 72.14, 38.13, 55.56),
    "candidate": (32.24, 35.67, 70.62, 36.45, 42.76, 26.20, 73.67, 39.61, 55.80),
}
EN_AVG = {"baseline": 42.278, "reference": 44.560, "candidate": 45.891}

ZH_TABLE = {
    "baseline": (33.95, 32.41),
    "reference": (34.17, 34.93),
    "candidate": (34.26, 36.06),
}
ZH_AVG = {"baseline": 33.18, "reference": 34.55, "candidate": 35.16}

MIX_TABLE = {  # nine English metrics, then two Chinese
    "baseline": (28.50, 24.15, 55.60, 36.20, 40.28, 21.60, 71.11, 39.76, 55.09, 33.79, 30.23),
    "reference": (30.95, 32.34, 67.13, 35.79, 40.21, 23.80, 71.22, 39.20, 52.96, 34.32, 33.18),
    "candidate": (30.94, 33.36, 67.97, 37.18, 39.65, 24.40, 70.08, 40.48, 54.38, 34.10, 33.35),
}
MIX_AVG = {
    "baseline": {"English": 41.366, "Chinese": 32.010, "Overall": 39.665},
    "reference": {"English": 43.733, "Chinese": 33.750, "Overall": 41.918},
    "candidate": {"English": 44.271, "Chinese": 33.725, "Overall": 42.354},
}


def test_c01_report_reproduces_published_averages():
    t0 = time.perf_counter()
    checked = 0

    def check(table, metrics, grouping, expected):
        nonlocal checked
        runs = {k: EvalScores(k, dict(zip(metrics, v))) for k, v in table.items()}
        for label in ("reference", "candidate"):
            report = eval_report(runs["baseline"], runs[label], grouping=grouping)
            for g in report.groups:
                want_base = expected["baseline"][g.group] if isinstance(expected["baseline"], dict) else expected["baseline"]
                want_cand = expected[label][g.group] if isinstance(expected[label], dict) else expected[label]
                assert g.baseline_avg == pytest.approx(want_base, abs=1e-3)
                assert g.candidate_avg == pytest.approx(want_cand, abs=1e-3)
                checked += 2

    check(EN_TABLE, ENGLISH_METRICS,
          MetricGrouping(groups=(("English", ENGLISH_METRICS),)), EN_AVG)
    check(ZH_TABLE, CHINESE_METRICS,
          MetricGrouping(groups=(("Chinese", CHINESE_METRICS),)), ZH_AVG)
    check(MIX_TABLE, ENGLISH_METRICS + CHINESE_METRICS, None, MIX_AVG)

    # the margin rule on the published numbers: the candidate clears the
    # baseline everywhere, while against the reference Chinese is a tie
    runs = {k: EvalScores(k, dict(zip(ENGLISH_METRICS + CHINESE_METRICS, v)))
            for k, v in MIX_TABLE.items()}
    assert eval_report(runs["baseline"], runs["candidate"]).improved_everywhere
    near_tie = eval_report(runs["reference"], runs["candidate"])
    assert near_tie.verdicts == {"English": "improved", "Chinese": "neutral", "Overall": "improved"}

    _finish("C01", t0, 1.0, f"{checked} published group averages reproduced within 0.001")


def test_c02_step_plans_match_published_budgets():
    t0 = time.perf_counter()
    plan = plan_steps(1_000_000_000, AnnealSettings())
    assert plan.tokens_per_step == 2_097_152
    assert plan.total_tokens == 10_000_000_000
    assert plan.raw_steps == 4769
    assert plan.computed_steps == 5000
    assert plan.plan_tokens == 5000 * 2_097_152

    small = plan_steps(120_000_000, AnnealSettings(rounding_mode="nearest_canonical"))
    assert small.total_tokens == 1_200_000_000
    assert small.raw_steps == 573
    assert small.computed_steps == 500
    _finish("C02", t0, 1.0, "1e9-token plan -> 5000 steps, 1.2e8-token plan -> 500 steps, exact")


# -- classifier quality ----------------------------------------------------------

POS_VOCAB = tuple(f"bright{i:03d}" for i in range(500))
NEG_VOCAB = tuple(f"murk{i:03d}" for i in range(500))


def _two_class_split():
    """200 train + 100 held-out docs per class over disjoint 500-word vocabularies."""
    rng = np.random.default_rng(314)

    def make(vocab):
        return [" ".join(rng.choice(vocab, int(rng.integers(150, 251)))) for _ in range(300)]

    pos, neg = make(POS_VOCAB), make(NEG_VOCAB)
    training = []
    for p, n in zip(pos[:200], neg[:200]):
        training.append(LabeledExample("positive", p))
        training.append(LabeledExample("negative", n))
    held_out = [(t, "positive") for t in pos[200:]] + [(t, "negative") for t in neg[200:]]
    return training, held_out


def test_c03_classifier_accuracy_and_retrain_determinism(tokenizer, tmp_path):
    t0 = time.perf_counter()
    config = ClassifierConfig(dim=256, lr=0.1, epochs=3, bucket=100_000)
    training, held_out = _two_class_split()
    model = train(training, config, tokenizer)

    correct = sum(predict(model, text, tokenizer).label == label for text, label in held_out)
    accuracy = correct / len(held_out)
    assert accuracy >= 0.99

    retrained = train(_two_class_split()[0], config, tokenizer)
    first, second = str(tmp_path / "first.ufwc"), str(tmp_path / "second.ufwc")
    save_model(model, first)
    save_model(retrained, second)
    assert filecmp.cmp(first, second, shallow=False)
    fp = sha256_file(first)
    assert fp == sha256_file(second)
    _finish("C03", t0, 30.0,
            f"held-out accuracy {accuracy:.3f} on {len(held_out)} docs; retrain byte-identical ({fp[:12]})")


def test_c04_gradients_match_finite_differences_on_random_probes():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    n_rows, dim, n_labels = 48, 8, 2
    worst = 0.0
    for probe in range(100):
        input_matrix = rng.normal(0.0, 0.6, size=(n_rows, dim))
        output_matrix = rng.normal(0.0, 0.6, size=(n_labels, dim))
        ids = np.asarray(rng.integers(0, n_rows, size=int(rng.integers(1, 10))), dtype=np.int64)
        y = int(rng.integers(0, n_labels))
        _, grad_out, grad_row = example_grads(input_matrix, output_matrix, ids, y)
        col = int(rng.integers(0, dim))
        if probe % 2 == 0:
            row = int(rng.integers(0, n_labels))
            analytic = grad_out[row, col]
            numeric = central_diff(input_matrix, output_matrix, ids, y, "output", row, col)
        else:
            row = int(ids[int(rng.integers(0, ids.size))])
            # a row hit k times in one example accumulates k shared-row gradients
            analytic = int(np.count_nonzero(ids == row)) * grad_row[col]
            numeric = central_diff(input_matrix, output_matrix, ids, y, "input", row, col)
        err = rel_err(float(analytic), numeric)
        worst = max(worst, err)
        assert err < 1e-4, f"probe {probe}: analytic {analytic} vs central diff {numeric}"
    _finish("C04", t0, 10.0, f"100 random probes at h=1e-5, worst relative error {worst:.2e}")


# -- filtering laws ---------------------------------------------------------------

KEEP_WORDS = tuple(f"clear{i}" for i in range(12))
DROP_WORDS = tuple(f"noise{i}" for i in range(12))


@pytest.fixture(scope="module")
def quality_model(tokenizer):
    rng = np.random.default_rng(8)
    dataset = []
    for _ in range(30):
        dataset.append(LabeledExample("positive", " ".join(rng.choice(KEEP_WORDS, 14))))
        dataset.append(LabeledExample("negative", " ".join(rng.choice(DROP_WORDS, 14))))
    config = ClassifierConfig(dim=8, bucket=512, min_count=1, word_ngrams=2, seed=5)
    return train(dataset, config, tokenizer)


def test_c05_filtering_laws_hold_on_generated_corpora(tokenizer, quality_model):
    t0 = time.perf_counter()
    model = quality_model
    scratch = _scratch_dir("websift-c05-")

    texts = st.lists(st.sampled_from(KEEP_WORDS + DROP_WORDS), min_size=0, max_size=8).map(" ".join)
    docs_strategy = st.lists(texts, min_size=1, max_size=10).map(
        lambda ts: [Document(id=f"d{i:03d}", text=t) for i, t in enumerate(ts)]
    )
    thresholds = st.floats(min_value=0.0, max_value=1.0)

    # Each case is the only shard of one reused work dir: every call rewrites
    # the shard and all of score_corpus's outputs for it.
    case_dir = tempfile.mkdtemp(dir=scratch)
    case_path = os.path.join(case_dir, "case.jsonl")

    def score_streams(docs, threshold, out):
        """score_corpus over docs as one shard; its kept and rejected (id, score, kept) rows."""
        write_documents(case_path, docs)
        out_dir = os.path.join(case_dir, out)
        run = score_corpus(model, [case_path], threshold, tokenizer, out_dir)
        assert not run.partial
        streams = []
        for stream in ("kept", "rejected"):
            with open(os.path.join(out_dir, stream, "case.jsonl.scored.jsonl"), encoding="utf-8") as f:
                rows = [json.loads(line) for line in f]
            streams.append([(r["id"], r["score"], r["kept"]) for r in rows])
        return streams

    @settings(max_examples=1000, derandomize=True)
    @given(docs=docs_strategy, threshold=thresholds)
    def partition_is_exact(docs, threshold):
        kept, rejected = score_streams(docs, threshold, "out")
        ids = [d.id for d in docs]
        kept_ids, rejected_ids = [r[0] for r in kept], [r[0] for r in rejected]
        assert sorted(kept_ids + rejected_ids) == sorted(ids)   # each id in exactly one stream
        # each stream keeps input order
        assert kept_ids == [i for i in ids if i in set(kept_ids)]
        assert rejected_ids == [i for i in ids if i in set(rejected_ids)]
        assert all(flag and score >= threshold for _, score, flag in kept)
        assert all(not flag and score < threshold for _, score, flag in rejected)

    @settings(max_examples=1000, derandomize=True)
    @given(docs=docs_strategy, pair=st.tuples(thresholds, thresholds))
    def raising_threshold_only_shrinks_the_kept_set(docs, pair):
        low, high = sorted(pair)
        kept_low, _ = score_streams(docs, low, "low")
        kept_high, _ = score_streams(docs, high, "high")
        assert {r[0] for r in kept_high} <= {r[0] for r in kept_low}

    shard_layouts = st.lists(st.lists(texts, min_size=1, max_size=3), min_size=1, max_size=3)

    @settings(max_examples=1000, derandomize=True)
    @given(layout=shard_layouts)
    def parallel_equals_serial(layout):
        work = tempfile.mkdtemp(dir=scratch)
        try:
            paths, doc_no = [], 0
            for s, shard_texts in enumerate(layout):
                docs = [Document(id=f"d{doc_no + i:04d}", text=t) for i, t in enumerate(shard_texts)]
                doc_no += len(shard_texts)
                path = os.path.join(work, f"s{s}.jsonl")
                write_documents(path, docs)
                paths.append(path)
            results = []
            for workers in (1, 4, 16):
                out_dir = os.path.join(work, f"out{workers}")
                run = score_corpus(model, paths, 0.5, tokenizer, out_dir, workers=workers)
                assert not run.partial
                with open(run.keep_manifest_path, "rb") as f:
                    manifest = f.read()
                streams = {}
                for stream in ("kept", "rejected"):
                    stream_dir = os.path.join(out_dir, stream)
                    for name in sorted(os.listdir(stream_dir)):
                        with open(os.path.join(stream_dir, name), "rb") as f:
                            streams[(stream, name)] = f.read()
                results.append((manifest, run.stats.to_json_obj(), streams))
            assert results[0] == results[1] == results[2]
        finally:
            shutil.rmtree(work, ignore_errors=True)

    id_sets = st.lists(st.integers(0, 30).map(lambda i: f"id{i:02d}"), max_size=12).map(set)

    @settings(max_examples=1000, derandomize=True)
    @given(sets=st.lists(id_sets, min_size=2, max_size=5))
    def intersection_matches_brute_force(sets):
        assert intersect_ids(sets) == sorted(set.intersection(*sets))

    try:
        partition_is_exact()
        raising_threshold_only_shrinks_the_kept_set()
        parallel_equals_serial()
        intersection_matches_brute_force()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    _finish("C05", t0, 60.0,
            "partition, monotonicity, parallel-equals-serial, intersection: 1000 cases each")


def test_c06_balanced_assembly_quotas_and_limits(tmp_path):
    t0 = time.perf_counter()

    def docs(prefix, n):
        return [Document(id=f"{prefix}:{i}", text=f"{prefix} {i:06d}") for i in range(n)]

    store = SeedPoolStore(str(tmp_path / "pool")).init()
    for name in ("atlas", "codex", "primer"):
        store.add_category(name, "positive", "curated", docs(name, 120_000))
    store.add_category("dragnet", "negative", "crawl", docs("dragnet", 100_000), resample_factor=3)

    examples = assemble_training_set(store, 600_000, balance=0.5, seed=11)
    assert len(examples) == 600_000
    labels = Counter(e.label for e in examples)
    assert labels == {"positive": 300_000, "negative": 300_000}

    positives = [e.text for e in examples if e.label == "positive"]
    negatives = [e.text for e in examples if e.label == "negative"]
    per_category = Counter(text.split()[0] for text in positives)
    assert per_category == {"atlas": 100_000, "codex": 100_000, "primer": 100_000}
    assert max(Counter(positives).values()) == 1  # factor 1: no positive repeats
    negative_multiplicity = Counter(negatives)
    assert len(negative_multiplicity) == 100_000
    assert set(negative_multiplicity.values()) == {3}  # factor 3, met exactly, never exceeded

    # quota remainder lands on the alphabetically earliest categories
    micro = SeedPoolStore(str(tmp_path / "micro")).init()
    for name in ("alpha", "beta", "gamma"):
        micro.add_category(name, "positive", "curated", docs(name, 10))
    micro.add_category("noise", "negative", "crawl", docs("noise", 20))
    drawn = assemble_training_set(micro, 22, balance=0.5, seed=7)
    micro_counts = Counter(e.text.split()[0] for e in drawn if e.label == "positive")
    assert micro_counts == {"alpha": 4, "beta": 4, "gamma": 3}

    # one document past the pool's effective supply must refuse loudly
    with pytest.raises(InsufficientSeedData) as exc_info:
        assemble_training_set(store, 600_002, balance=0.5, seed=11)
    err = exc_info.value
    assert (err.polarity, err.category) == ("negative", "dragnet")
    assert (err.needed, err.available) == (300_001, 300_000)

    _finish("C06", t0, 30.0,
            "600,000 drawn as 300,000/300,000; quotas exact; factor-3 resampling never exceeded")


# -- normalization ---------------------------------------------------------------

FUZZ_ATOMS = (
    list("abcdefghij KLMNOPQRST.,;!?'\"()-0123456789")
    + ["\t", "\r", "\n", " ", "  ", "\n\n", "\n\n\n\n", "\t\t", "\r\n", "   \n "]
    + ["é", "Ñ", "ü", "Å", "ç", "İ", "ß", "Æ", "Ω", "Ж", "щ", "λ", "Σ",
       "中", "文", "綜", "합", "あ", "カ",
       "́", "̈", "̧", "ݙ́", "का",
       "é", "à̖", "ﬁ", "ǅ", "K"]
)


def test_c07_normalization_is_idempotent_and_structure_preserving():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    atoms = np.array(FUZZ_ATOMS, dtype=object)
    newline_cap = 2
    for case in range(10_000):
        n = int(rng.integers(0, 40))
        text = "".join(rng.choice(atoms, n)) if n else ""
        out = normalize_text(text)

        assert normalize_text(out) == out, f"case {case} is not a fixed point"
        assert out == out.lower()
        assert "  " not in out
        assert "\n" * (newline_cap + 1) not in out
        assert out.count("\t") == text.count("\t")
        assert out.count("\r") == text.count("\r")
        assert out.count("ा") == text.count("ा")  # spacing marks survive
        assert not any(unicodedata.category(ch) == "Mn" for ch in out)

        out_runs = [len(r) for r in re.findall("\n+", out)]
        in_runs = [len(r) for r in re.findall("\n+", text)]
        assert sum(out_runs) <= sum(in_runs)
        decomposed = unicodedata.normalize("NFD", text)
        if not any(unicodedata.category(ch) == "Mn" for ch in decomposed):
            # nothing gets dropped, so runs map one to one onto capped runs
            assert out_runs == [min(r, newline_cap) for r in in_runs]
    _finish("C07", t0, 10.0, "10,000 fuzz cases: idempotent, casefolded, runs capped, marks handled")


def test_c08_anneal_mixture_fraction_within_tolerance():
    t0 = time.perf_counter()

    def split_tokens(rng, total, parts):
        if parts == 1:
            return [total]
        cuts = sorted(rng.choice(np.arange(1, total), size=parts - 1, replace=False))
        bounds = [0, *map(int, cuts), total]
        return [bounds[i + 1] - bounds[i] for i in range(parts)]

    worst_global = worst_window = 0.0
    for trial in range(50):
        rng = np.random.default_rng(1000 + trial)
        seq = int(rng.choice([1, 2]))
        n_epoch = int(rng.integers(3, 6))
        candidate_tokens = int(rng.integers(1200, 4001)) * seq
        candidate = TokenManifest(
            name=f"cand{trial}",
            shards=tuple(
                ManifestShard(id=f"c{i}", tokens=t)
                for i, t in enumerate(split_tokens(rng, candidate_tokens, int(rng.integers(1, 5))))
            ),
        )
        default = TokenManifest(
            name=f"dflt{trial}",
            shards=tuple(
                ManifestShard(id=f"d{i}", tokens=t)
                for i, t in enumerate(
                    split_tokens(rng, 3 * n_epoch * candidate_tokens, int(rng.integers(2, 7)))
                )
            ),
        )
        plan = build_anneal_plan(candidate, default, AnnealSettings(
            n_epoch=n_epoch, global_batch_size=1, sequence_length=seq, strata=100), trial)

        flags = candidate_flags(plan.schedule)
        assert flags.size == plan.step_plan.plan_tokens
        global_dev = abs(float(flags.mean()) - 0.3)
        window_dev = max_window_deviation(flags, max(1, flags.size // 10), 0.3)
        assert global_dev <= 0.005, f"trial {trial}: global fraction off by {global_dev:.4f}"
        assert window_dev <= 0.02, f"trial {trial}: window fraction off by {window_dev:.4f}"
        progress = check_tape_contiguity(plan.schedule, candidate, default)
        assert max(p for (src, _, p) in progress if src == "candidate") <= n_epoch - 1
        worst_global = max(worst_global, global_dev)
        worst_window = max(worst_window, window_dev)
    _finish("C08", t0, 30.0,
            f"50 manifests: worst global deviation {worst_global:.4f} (cap 0.005), "
            f"worst 10%-window deviation {worst_window:.4f} (cap 0.02)")


def test_c09_crash_recovery_converges_to_control_run(tmp_path):
    t0 = time.perf_counter()
    previous_cwd = os.getcwd()

    control_root = str(tmp_path / "control")
    os.makedirs(control_root)
    config = build_world(control_root)
    os.chdir(control_root)
    try:
        assert drive("run", config) == PROMOTED
        control_journal = journal_bytes("run")
        entries = read_journal("run")
    finally:
        os.chdir(previous_cwd)
    assert [e["type"] for e in entries] == NOMINAL_KINDS
    model_shas = [e["data"]["model_sha256"] for e in entries if e["type"] == "classifier"]
    assert len(set(model_shas)) == len(model_shas)  # no two classifiers share a fingerprint

    scenarios = [(at, torn) for at in range(len(NOMINAL_KINDS)) for torn in (False, True)]
    for at, torn in scenarios:
        label = f"append {at}, {'torn tail' if torn else 'clean'}"
        root = str(tmp_path / f"crash_{at}_{int(torn)}")
        os.makedirs(root)
        crashed_config = build_world(root)
        os.chdir(root)
        try:
            with pytest.MonkeyPatch.context() as mp:
                install_crash(mp, at, torn)
                with pytest.raises(Boom):
                    drive("run", crashed_config)
            assert not os.path.exists(os.path.join("run", pipeline.LOCK_NAME)), label
            assert drive("run", crashed_config) == PROMOTED, label
            assert journal_bytes("run") == control_journal, label
        finally:
            os.chdir(previous_cwd)
    _finish("C09", t0, 60.0,
            f"{len(scenarios)} crash points recovered to the control journal "
            f"({len(control_journal)} bytes) with unique classifier fingerprints")


def test_c10_scoring_throughput_floor(tokenizer):
    t0 = time.perf_counter()
    total_docs, shards, per_shard = 100_000, 20, 5_000
    work = _scratch_dir("websift-c10-")
    try:
        rng = np.random.default_rng(2025)
        words = [f"w{i:04d}" for i in range(2000)]
        dataset = []
        for _ in range(30):
            dataset.append(LabeledExample("positive", " ".join(rng.choice(words[:1000], 40))))
            dataset.append(LabeledExample("negative", " ".join(rng.choice(words[1000:], 40))))
        config = ClassifierConfig(dim=16, bucket=50_000, min_count=1, word_ngrams=2, seed=9)
        model = train(dataset, config, tokenizer)

        # 200 distinct ~1 KB texts cycled over 100,000 document ids
        pool = []
        for _ in range(200):
            text = " ".join(rng.choice(words, 170))
            pool.append(text[:1024].rsplit(" ", 1)[0])
        paths, doc_no = [], 0
        for s in range(shards):
            docs = [
                Document(id=f"d{doc_no + i:07d}", text=pool[(doc_no + i) % len(pool)])
                for i in range(per_shard)
            ]
            doc_no += per_shard
            path = os.path.join(work, f"shard{s:02d}.jsonl")
            write_documents(path, docs)
            paths.append(path)

        started = time.perf_counter()
        run = score_corpus(model, paths, 0.5, tokenizer, os.path.join(work, "scored"), workers=1)
        elapsed = time.perf_counter() - started
        assert not run.partial
        assert run.stats.documents_total == total_docs
        assert run.stats.records_malformed == 0
        rate = total_docs / elapsed
        assert rate >= 5_000.0, f"measured {rate:,.0f} docs/sec/worker, floor is 5,000"
    finally:
        shutil.rmtree(work, ignore_errors=True)
    _finish("C10", t0, 60.0,
            f"measured {rate:,.0f} docs/sec/worker on {total_docs:,} one-KB docs "
            f"({elapsed:.2f}s scoring, floor 5,000)")
