"""Smoke tests for the runnable scripts under scripts/."""

import json
import os
import subprocess
import sys

from websift.seedpool import SeedPoolStore

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, name), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_demo_pipeline_promotes_and_repeats_exactly():
    first = run_script("demo_pipeline.py")
    assert first.returncode == 0, first.stderr
    assert any(line.strip().endswith("promoted (round 2)") for line in first.stdout.splitlines())
    second = run_script("demo_pipeline.py")
    assert second.returncode == 0, second.stderr
    assert second.stdout == first.stdout


def test_make_synthetic_corpus_writes_shards_and_a_seed_pool(tmp_path):
    out, pool = tmp_path / "corpus", tmp_path / "pool"
    result = run_script("make_synthetic_corpus.py", "--out-dir", str(out), "--docs", "50",
                        "--shards", "2", "--vocab", "30", "--pool", str(pool), "--pool-docs", "20")
    assert result.returncode == 0, result.stderr
    shards = sorted(out.iterdir())
    assert [p.name for p in shards] == ["shard-000.jsonl", "shard-001.jsonl"]
    ids = []
    for shard in shards:
        lines = shard.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 50
        ids += [json.loads(line)["id"] for line in lines]
    assert len(set(ids)) == len(ids) == 100
    store = SeedPoolStore(str(pool))
    manifest = store.load_manifest()
    assert store.versions() == [1, 2] and manifest.version == 2
    for polarity in ("positive", "negative"):
        (category,) = manifest.by_polarity(polarity)
        assert category.doc_count == 20
        assert len(store.category_documents(category)) == 20
