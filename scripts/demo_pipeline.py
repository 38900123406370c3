#!/usr/bin/env python3
"""Run a complete two-round pipeline demo in a scratch directory.

Builds a synthetic seed pool and raw corpus, runs round 1 to the
verification pause, ingests a synthetic improved eval report, lets the
verdict fold the scored sample into the pool, runs round 2, and promotes.
Prints the journal at the end. Everything is seeded, so repeated runs
produce identical journals.
"""

import argparse
import json
import os
import random
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from websift import pipeline
from websift.classifier import ClassifierConfig
from websift.documents import Document
from websift.ioutil import canonical_json
from websift.seedpool import SeedPoolStore
from websift.tokenizers import TokenizerSpec
from websift.verify import CHINESE_METRICS, ENGLISH_METRICS, EvalScores

ALL_METRICS = ENGLISH_METRICS + CHINESE_METRICS


def build_world(root: str, seed: int) -> pipeline.PipelineConfig:
    rng = random.Random(seed)
    clean = [f"clean{i:04d}" for i in range(300)]
    noisy = [f"noisy{i:04d}" for i in range(300)]

    def doc(prefix: str, i: int, words) -> Document:
        text = " ".join(rng.choice(words) for _ in range(30))
        return Document(id=f"{prefix}{i:05d}", text=text)

    store = SeedPoolStore(os.path.join(root, "pool")).init()
    store.add_category("curated", "positive", "demo", [doc("p", i, clean) for i in range(120)])
    store.add_category("crawl", "negative", "demo", [doc("n", i, noisy) for i in range(120)])

    raw_dir = os.path.join(root, "raw")
    os.makedirs(raw_dir)
    with open(os.path.join(raw_dir, "shard-000.jsonl"), "w", encoding="utf-8") as f:
        for i in range(200):
            words = clean if i % 2 == 0 else noisy
            f.write(json.dumps({"id": f"raw{i}", "text": " ".join(rng.choice(words) for _ in range(30))}) + "\n")

    manifest_path = os.path.join(root, "default_manifest.json")
    with open(manifest_path, "w", encoding="utf-8") as f:
        f.write(canonical_json({
            "name": "default-mix",
            "shards": [{"id": f"dm{i}", "tokens": 2000} for i in range(40)],
        }))

    return pipeline.PipelineConfig(
        pool_dir=os.path.join(root, "pool"),
        raw_shards=(os.path.join(raw_dir, "*.jsonl"),),
        sample_size=200,
        max_rounds=2,
        target_training_set=200,
        balance=0.5,
        threshold=0.5,
        seed=seed,
        classifier=ClassifierConfig(dim=16, min_count=1, word_ngrams=2, bucket=5000, seed=3),
        tokenizer=TokenizerSpec(),
        verify=pipeline.VerifySettings(
            default_manifest=manifest_path,
            global_batch_size=1,
            sequence_length=2,
        ),
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--keep", action="store_true", help="keep the scratch directory")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    root = tempfile.mkdtemp(prefix="websift-demo-")
    run_dir = os.path.join(root, "run")
    baseline = EvalScores(run_label="baseline", scores={m: 50.0 for m in ALL_METRICS})
    candidate = EvalScores(run_label="candidate", scores={m: 51.0 for m in ALL_METRICS})
    try:
        config = build_world(root, args.seed)
        pipeline.init_run(run_dir, config)
        state = pipeline.run_round(run_dir)
        while state.status not in pipeline.TERMINAL:
            print(f"round {state.round}: paused at {state.status}")
            pipeline.ingest_report(run_dir, baseline, candidate)
            state = pipeline.run_round(run_dir)
        print(f"final status: {state.status}")
        print("journal:")
        for entry in pipeline.read_journal(run_dir):
            print(f"  {entry['seq']}: {entry['type']} (round {entry['round']})")
    finally:
        if args.keep:
            print(f"scratch kept at {root}")
        else:
            shutil.rmtree(root, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
