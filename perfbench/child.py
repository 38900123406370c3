"""One timed websift process: set up, run one workload, check its outputs.

Usage: python3 perfbench/child.py SPEC.json

The spec names the workload, the generated inputs, a scratch directory and
whether to trace. Each repetition is a fresh process, as each websift CLI
invocation is, so import costs and the token_hash cache start cold. The
result (timings, peak RSS, check outcomes, output digest and, when traced,
per-layer figures) is written to the spec's "result" path as JSON.

setup_s starts before anything but os, sys and time is imported: websift
pulls in numpy, json, hashlib, logging and more, and each of them must be
paid inside setup_s, as it is by a websift invocation. The benchmark's own
modules (measure.py, spans.py) are imported only after set-up is timed.
"""

from __future__ import annotations

import os
import sys
import time


def run_score(spec: dict, t0: float) -> dict:
    meta, work, trace = spec["meta"], spec["work"], spec["trace"]
    resume = spec["workload"] == "score_resume"
    out_dir = os.path.join(work, "scored")

    from websift import classifier, filtering
    from websift.tokenizers import TokenizerSpec, load_tokenizer
    tokenizer = load_tokenizer(TokenizerSpec())
    layers = {}
    if trace:
        import measure
        model, layers["classifier.load_s"], layers["classifier.load_peak_ratio"] = \
            measure.traced_load(meta["model"])
    else:
        model = classifier.load_model(meta["model"])
    setup_s = time.perf_counter() - t0

    import measure
    zero_log = measure.capture_filtering_log()
    tracer = measure.install_tracer(trace)
    other = os.path.join(spec["inputs"], "other_manifest.txt")

    t1 = time.perf_counter()
    with measure.root_span(tracer, "filtering.score_corpus"):
        run = filtering.score_corpus(model, meta["shards"], measure.THRESHOLD, tokenizer, out_dir,
                                     workers=spec["workers"], resume=resume)
    if resume:
        with measure.root_span(tracer, "filtering.intersect"):
            fingerprint, common = filtering.intersect([run.keep_manifest_path, other])
    wall_s = time.perf_counter() - t1
    peak_rss_mb = measure.peak_rss()
    hash_info = classifier.token_hash.cache_info()

    if tracer:
        tracer.unpatch()
        layers.update(measure.score_layers(tracer, hash_info, meta, zero_log.total))
        if resume:
            layers["filtering.intersect_peak_mb"] = measure.intersect_peak_mb(
                [run.keep_manifest_path, other])
        layers["normalize.normalize_us"] = measure.normalize_us(
            measure.head_texts(meta["shards"], measure.NORMALIZE_DOCS))
        layers["classifier.save_mb_per_s"], same = measure.timed_save(
            model, os.path.join(work, "resaved.ufwc"), meta["model"])
        tracer.dump(os.path.join(work, "spans.jsonl"))

    def predict_score(text: str) -> float:
        return classifier.predict(model, text, tokenizer).dist[measure.POSITIVE]

    checks = []
    if spec["full_checks"]:
        checks = measure.check_scored(out_dir, meta, run.stats, predict_score)
    checks.append(("shards", not run.failed_shards
                   and len(run.completed_shards) == len(meta["shards"]),
                   f"{len(run.failed_shards)} failed shards"))
    if resume and spec["full_checks"]:
        reused = len(meta["shards"]) - len(meta["pending"])
        checks.append(("resume_reuse", len(run.skipped_shards) == reused,
                       f"{len(run.skipped_shards)} shards reused, expected {reused}"))
        want = sorted(set(measure.read_manifest(run.keep_manifest_path)[1])
                      & set(measure.read_manifest(other)[1]))
        checks.append(("intersect", common == want and fingerprint == run.corpus_fingerprint,
                       f"{len(common)} common ids, expected {len(want)}"))
    if trace:
        checks.append(("model_resave", same, "save_model(load_model(f)) reproduces f"))
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "docs": meta["lines"],
        "attempted": len(meta["shards"]),
        "failed": len(run.failed_shards),
        "checks": checks,
        "digest": measure.scored_digest(out_dir),
        "layers": layers,
    }


def run_pipeline(spec: dict, t0: float) -> dict:
    os.chdir(spec["work"])
    P = spec["pipeline"]["config"]
    from websift import pipeline
    from websift.classifier import ClassifierConfig
    from websift.tokenizers import TokenizerSpec
    from websift.verify import CHINESE_METRICS, ENGLISH_METRICS, EvalScores
    config = pipeline.PipelineConfig(
        pool_dir="pool",
        raw_shards=("raw/*.jsonl",),
        verify=pipeline.VerifySettings(default_manifest="default.json",
                                       global_batch_size=1, sequence_length=2),
        classifier=ClassifierConfig(**spec["pipeline"]["classifier"]),
        tokenizer=TokenizerSpec(),
        seed=spec["seed"],
        **P,
    )
    pipeline.init_run("run", config)
    setup_s = time.perf_counter() - t0

    import measure
    metrics = ENGLISH_METRICS + CHINESE_METRICS
    baseline = EvalScores("baseline", {m: 50.0 for m in metrics})
    tracer = measure.install_tracer(spec["trace"])
    steps = 1

    def step(name, fn, *args):
        with measure.root_span(tracer, "pipeline." + name):
            return fn(*args)

    t1 = time.perf_counter()
    state = step("run_round", pipeline.run_round, "run")
    while state.status not in pipeline.TERMINAL:
        improved = EvalScores(f"candidate-{state.round}", {m: 50.0 + state.round for m in metrics})
        step("ingest_report", pipeline.ingest_report, "run", baseline, improved)
        state = step("run_round", pipeline.run_round, "run")
        steps += 2
    wall_s = time.perf_counter() - t1
    peak_rss_mb = measure.peak_rss()

    layers = {}
    from websift.classifier import token_hash
    if tracer:
        tracer.unpatch()
        layers.update(measure.pipeline_layers(tracer, token_hash.cache_info()))
        tracer.dump(os.path.join(spec["work"], "spans.jsonl"))

    entries = pipeline.read_journal("run")
    if tracer:
        final = [e["data"]["model_path"] for e in entries if e["type"] == "classifier"][-1]
        _, layers["classifier.load_s"], layers["classifier.load_peak_ratio"] = \
            measure.traced_load(os.path.join("run", final))
    kinds = [e["type"] for e in entries]
    want = ["init", "training_set", "classifier", "report", "advance",
            "training_set", "classifier", "report", "promoted"]
    checks = [("promoted", state.status == pipeline.PROMOTED and kinds == want, " ".join(kinds))]
    if spec["full_checks"]:
        checks += measure.check_pipeline(P)
    # each round reservoir-samples the whole raw pool and trains on a full set
    docs_per_round = spec["meta"]["lines"] + P["target_training_set"]
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "docs": docs_per_round * P["max_rounds"],
        "attempted": steps,
        "failed": 0 if state.status == pipeline.PROMOTED else 1,
        "checks": checks,
        "digest": measure.tree_digest("run", ["journal.jsonl"]),
        "layers": layers,
    }


def main() -> int:
    t0 = time.perf_counter()
    import json     # websift imports json as well, so it is paid inside setup_s
    with open(sys.argv[1], "r", encoding="utf-8") as f:
        spec = json.load(f)
    sys.path.insert(0, spec["src"])
    run = run_pipeline if spec["workload"] == "pipeline_rounds" else run_score
    result = run(spec, t0)
    with open(spec["result"], "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
