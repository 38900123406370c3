"""Output checks, tracing and per-layer figures of one benchmark repetition.

child.py imports this module only once set-up has been timed: everything
here, and the standard modules it pulls in, stays out of setup_s.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import os
import time
import tracemalloc

import spans as sp

POSITIVE = "positive"
THRESHOLD = 0.5
SAMPLES = 32               # scored lines re-predicted per repetition
SCORE_ATOL = 1e-9
NORMALIZE_DOCS = 1000


# ---------------------------------------------------------------------------
# output checks, shared with selftest.py


def tree_digest(root: str, names: list[str]) -> str:
    """sha256 over (relative path, bytes) of every file under the named entries."""
    h = hashlib.sha256()
    for name in names:
        path = os.path.join(root, name)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(dp, f) for dp, _, fs in os.walk(path) for f in fs
        )
        for p in files:
            h.update(os.path.relpath(p, root).encode() + b"\0")
            with open(p, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def fingerprint_of(shards: list[str]) -> str:
    """Corpus fingerprint recomputed from the shard bytes, without websift's code."""
    digests = []
    for p in shards:
        with open(p, "rb") as f:
            digests.append(hashlib.sha256(f.read()).hexdigest())
    return hashlib.sha256("".join(sorted(digests)).encode("ascii")).hexdigest()


def read_manifest(path: str) -> tuple[str, list[str]]:
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().split("\n")
    return lines[0].partition(": ")[2], [ln for ln in lines[1:] if ln]


def check_scored(out_dir: str, meta: dict, stats, predict_score) -> list[tuple[str, bool, str]]:
    """Checks on a finished score_corpus out_dir; (name, ok, detail) each.

    predict_score(text) -> positive-class probability from classifier.predict.
    """
    checks = []
    kept_ids, counts, bad_lines, flag_errors, mismatches, sampled = [], {}, 0, 0, 0, 0
    line_no = 0
    every = max(1, meta["lines"] // SAMPLES)
    for stream in ("kept", "rejected"):
        counts[stream] = 0
        for name in sorted(os.listdir(os.path.join(out_dir, stream))):
            with open(os.path.join(out_dir, stream, name), "r", encoding="utf-8") as f:
                for line in f:
                    try:
                        obj = json.loads(line)
                        doc_id, score, kept = obj["id"], obj["score"], obj["kept"]
                    except (ValueError, KeyError, TypeError):
                        bad_lines += 1
                        continue
                    counts[stream] += 1
                    if kept != (stream == "kept"):
                        flag_errors += 1
                    if stream == "kept":
                        kept_ids.append(doc_id)
                    line_no += 1
                    if line_no % every == 0:
                        sampled += 1
                        if abs(predict_score(obj["text"]) - score) > SCORE_ATOL:
                            mismatches += 1
    malformed = stats.records_malformed
    total = counts["kept"] + counts["rejected"] + malformed
    checks.append(("partition", bad_lines == 0 and total == meta["lines"]
                   and malformed == meta["planted_malformed"]
                   and stats.documents_kept == counts["kept"],
                   f"kept {counts['kept']} + rejected {counts['rejected']} + malformed "
                   f"{malformed} = {total} of {meta['lines']}; unparseable {bad_lines}"))
    checks.append(("stream_flags", flag_errors == 0, f"{flag_errors} lines in the wrong stream"))
    fingerprint, manifest_ids = read_manifest(os.path.join(out_dir, "keep_manifest.txt"))
    checks.append(("manifest", manifest_ids == sorted(kept_ids),
                   f"{len(manifest_ids)} manifest ids, {len(kept_ids)} kept lines"))
    checks.append(("fingerprint", fingerprint == fingerprint_of(meta["shards"]), fingerprint[:12]))
    checks.append(("sample_scores", sampled > 0 and mismatches == 0,
                   f"{mismatches} of {sampled} sampled scores differ from classifier.predict"))
    return checks


def scored_digest(out_dir: str) -> str:
    return tree_digest(out_dir, ["kept", "rejected", "keep_manifest.txt", "ledger.jsonl"])


def check_pipeline(pipeline_config: dict) -> list:
    from websift import pipeline
    from websift.classifier import load_model, predict
    from websift.tokenizers import TokenizerSpec, load_tokenizer
    checks = []
    tokenizer = load_tokenizer(TokenizerSpec())
    # resume() re-hashes every artifact against the journal, so a journal
    # that is byte-identical across runs pins every artifact's bytes too.
    rounds = pipeline.resume("run").rounds
    target = pipeline_config["target_training_set"]
    bad_sets = sum(1 for rs in rounds.values() if rs.training_set and (
        rs.training_set["examples"] != target
        or rs.training_set["positives"] != rs.training_set["negatives"]))
    checks.append(("training_sets", bad_sets == 0, f"{bad_sets} unbalanced training sets"))
    final = rounds[max(rounds)].classifier
    model = load_model(os.path.join("run", final["model_path"]))
    mismatches = sampled = 0
    with open(os.path.join("run", final["sample_scores_path"]), encoding="utf-8") as f:
        lines = f.readlines()
    for line in lines[:: max(1, len(lines) // SAMPLES)]:
        obj = json.loads(line)
        sampled += 1
        if abs(predict(model, obj["text"], tokenizer).dist[POSITIVE] - obj["score"]) > SCORE_ATOL:
            mismatches += 1
    checks.append(("sample_scores", sampled > 0 and mismatches == 0,
                   f"{mismatches} of {sampled} sample scores differ from classifier.predict"))
    return checks


# ---------------------------------------------------------------------------
# tracing


def install_tracer(trace: bool):
    if not trace:
        return None
    from websift import classifier, filtering, pipeline, seedpool, tokenizers

    tracer = sp.Tracer()
    p = tracer.patch
    p(filtering, "decode_record", "documents.decode_record")
    p(filtering, "iter_shard_lines", "documents.iter_shard_lines", gen=True)
    p(filtering, "shard_digest", "documents.shard_digest",
      observe=lambda a, out: os.path.getsize(a[0]))
    p(filtering, "predict_tokens", "classifier.predict_tokens")
    p(classifier, "featurize", "classifier.featurize", observe=lambda a, out: out.size)
    p(tokenizers.Tokenizer, "tokenize", "tokenizers.tokenize", observe=lambda a, out: len(out))
    p(pipeline, "train", "classifier.train",
      observe=lambda a, out: len(a[0]) * a[1].epochs)
    p(pipeline, "save_model", "classifier.save_model",
      observe=lambda a, out: os.path.getsize(a[1]))
    p(pipeline, "assemble_training_set", "seedpool.assemble_training_set")
    p(pipeline, "write_training_set", "seedpool.write_training_set")
    p(pipeline, "build_anneal_plan", "verify.build_anneal_plan",
      observe=lambda a, out: len(out.schedule))
    p(pipeline, "iter_documents", "documents.iter_documents", gen=True)
    p(pipeline, "score_tokens", "filtering.score_tokens")
    p(seedpool.SeedPoolStore, "commit", "seedpool.commit")
    p(os, "fsync", "os.fsync")
    return tracer


def root_span(tracer, name: str):
    return tracer.root(name) if tracer else contextlib.nullcontext()


def peak_rss() -> float:
    """Peak resident set of this process so far, in MB.

    Read from VmHWM rather than ru_maxrss: on Linux ru_maxrss survives
    fork+exec, so it would report the parent's size whenever that is larger.
    """
    with open("/proc/self/status", "r", encoding="ascii") as f:
        kb = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
    return kb * 1024 / 1e6


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def classifier_layers(ix, hash_info) -> dict:
    lookups = hash_info.hits + hash_info.misses
    feats = ix.by_name.get("classifier.featurize", ())
    return {
        "tokenizers.tokenize_us": 1e6 * _per(ix.cpu("tokenizers.tokenize"), ix.calls("tokenizers.tokenize")),
        "tokenizers.tokens_per_doc": _per(ix.count("tokenizers.tokenize"), ix.calls("tokenizers.tokenize")),
        "classifier.featurize_us": 1e6 * _per(ix.cpu("classifier.featurize"), len(feats)),
        "classifier.features_per_doc": _per(ix.count("classifier.featurize"), len(feats)),
        "classifier.predict_us": 1e6 * _per(ix.self_cpu("classifier.predict_tokens"),
                                           ix.calls("classifier.predict_tokens")),
        "classifier.hash_cache_hit_ratio": _per(hash_info.hits, lookups),
        "classifier.hash_cache_lookups": lookups,
        "classifier.zero_feature_docs": sum(1 for s in feats if s[sp.COUNT] == 0),
    }


def normalize_us(texts: list[str]) -> float:
    """normalize_text is on no scoring path today; this prices wiring it in."""
    from websift.normalize import normalize_text
    c0 = time.thread_time()
    for t in texts:
        normalize_text(t)
    return 1e6 * _per(time.thread_time() - c0, len(texts))


def traced_load(path: str):
    """load_model under tracemalloc: (model, seconds, peak bytes over file bytes)."""
    from websift.classifier import load_model
    tracemalloc.start()
    t = time.perf_counter()
    model = load_model(path)
    elapsed = time.perf_counter() - t
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return model, elapsed, peak / os.path.getsize(path)


def timed_save(model, path: str, reference: str) -> tuple[float, bool]:
    """save_model throughput, and whether the bytes equal the loaded file."""
    from websift.classifier import save_model
    t = time.perf_counter()
    save_model(model, path)
    elapsed = time.perf_counter() - t
    with open(path, "rb") as a, open(reference, "rb") as b:
        same = hashlib.sha256(a.read()).digest() == hashlib.sha256(b.read()).digest()
    mb = os.path.getsize(path) / 1e6
    os.remove(path)
    return mb / elapsed, same


def intersect_peak_mb(manifests: list[str]) -> float:
    from websift.filtering import intersect
    tracemalloc.start()
    intersect(manifests)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak / 1e6


class ZeroFeatureLog(logging.Handler):
    """Sums the program's own zero-feature counter from its log records."""

    def __init__(self):
        super().__init__(logging.INFO)
        self.total = 0

    def emit(self, record):
        if isinstance(record.msg, str) and "had no tokens" in record.msg:
            self.total += record.args[1]


def capture_filtering_log() -> ZeroFeatureLog:
    handler = ZeroFeatureLog()
    flog = logging.getLogger("websift.filtering")
    flog.addHandler(handler)
    flog.setLevel(logging.INFO)
    flog.propagate = False      # keep per-record warnings off the console
    return handler


def head_texts(shards: list[str], n: int) -> list[str]:
    """The first n document texts of a corpus, skipping malformed lines."""
    out = []
    for p in shards:
        with open(p, "r", encoding="utf-8") as f:
            for line in f:
                if len(out) == n:
                    return out
                try:
                    out.append(json.loads(line)["text"])
                except ValueError:
                    continue
    return out


def score_layers(tracer, hash_info, meta: dict, zero_logged: int) -> dict:
    ix = sp.SpanIndex(tracer.spans)
    root = ix.by_name["filtering.score_corpus"][0]
    main = root[sp.THREAD]
    docs = meta["lines"]
    n_shards = len(meta["shards"])
    decodes = ix.calls("documents.decode_record")
    top = ix.children[root[sp.ID]]
    in_workers = [s for s in top if s[sp.THREAD] != main]
    worker_wall = sum(s[sp.END] - s[sp.START] for s in in_workers)
    worker_cpu = sum(s[sp.CPU] for s in in_workers)
    last_shard_end = max((s[sp.END] for s in in_workers), default=root[sp.START])
    fsyncs = ix.within(root, "os.fsync")
    out = {
        "documents.decode_us": 1e6 * _per(ix.cpu("documents.decode_record"), decodes),
        "documents.read_us": 1e6 * _per(ix.cpu("documents.iter_shard_lines"), decodes),
        "documents.digest_mb_per_s": _per(ix.count("documents.shard_digest") / 1e6,
                                          ix.wall("documents.shard_digest")),
        "documents.digest_calls": _per(ix.calls("documents.shard_digest"), n_shards),
        "filtering.self_us": 1e6 * _per(
            tracer.root_cpu[root[sp.ID]] - sum(s[sp.CPU] for s in top), docs),
        "filtering.wait_ratio": _per(worker_wall - worker_cpu, worker_wall),
        "filtering.finalize_s": root[sp.END] - last_shard_end,
        "filtering.intersect_s": ix.wall("filtering.intersect"),
        "filtering.fsyncs": len(fsyncs),
        "filtering.zero_feature_logged": zero_logged,
        "classifier.zero_feature_planted": meta["planted_zero_feature"],
    }
    out.update(classifier_layers(ix, hash_info))
    return out


def pipeline_layers(tracer, hash_info) -> dict:
    ix = sp.SpanIndex(tracer.spans)
    roots = ix.by_name["pipeline.run_round"] + ix.by_name["pipeline.ingest_report"]
    fsyncs = [s for r in roots for s in ix.within(r, "os.fsync")]
    scores = ix.by_name.get("filtering.score_tokens", ())
    out = {
        "classifier.train_examples_per_s": _per(ix.count("classifier.train"), ix.wall("classifier.train")),
        "classifier.save_mb_per_s": _per(ix.count("classifier.save_model") / 1e6,
                                         ix.wall("classifier.save_model")),
        "seedpool.assemble_s": ix.wall("seedpool.assemble_training_set"),
        "seedpool.write_training_set_s": ix.wall("seedpool.write_training_set"),
        "seedpool.commit_s": ix.wall("seedpool.commit"),
        "verify.plan_s": ix.wall("verify.build_anneal_plan"),
        "verify.schedule_slices": ix.count("verify.build_anneal_plan"),
        "pipeline.self_s": sum(ix.self_wall(n) for n in ("pipeline.run_round", "pipeline.ingest_report")),
        "pipeline.fsyncs": len(fsyncs),
        "pipeline.fsync_s": sum(s[sp.END] - s[sp.START] for s in fsyncs),
        "pipeline.sample_score_us": 1e6 * _per(sum(s[sp.END] - s[sp.START] for s in scores), len(scores)),
    }
    out.update(classifier_layers(ix, hash_info))
    return out
