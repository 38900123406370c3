#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

Scores the score_fresh inputs of one seed in-process, runs the same checks
a benchmark repetition runs, then corrupts a single kept line (one character
of its document id) and runs them again. Exits 0 only if the clean outputs
pass every check and the corrupted ones raise fail_ratio above zero.

    python3 perfbench/selftest.py [--seed N]
"""

from __future__ import annotations

import argparse
import logging
import os
import shutil
import sys

import gen
import measure
from run import CACHE, SRC


def fail_ratio(out_dir: str, meta: dict, stats, predict_score, reference: str) -> tuple[float, list]:
    checks = measure.check_scored(out_dir, meta, stats, predict_score)
    checks.append(("deterministic", measure.scored_digest(out_dir) == reference, "output digest"))
    failed = [name for name, ok, _ in checks if not ok]
    return len(failed) / len(checks), failed


def corrupt_one_kept_line(out_dir: str) -> str:
    kept_dir = os.path.join(out_dir, "kept")
    path = os.path.join(kept_dir, sorted(os.listdir(kept_dir))[0])
    with open(path, "r", encoding="utf-8") as f:
        lines = f.readlines()
    marker = '"id": "'
    at = lines[0].index(marker) + len(marker)
    flipped = "0" if lines[0][at] != "0" else "1"
    lines[0] = lines[0][:at] + flipped + lines[0][at + 1:]
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(lines)
    return f"{os.path.basename(path)} line 1"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "websift", "__init__.py")):
        print(f"no websift sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    logging.getLogger("websift").setLevel(logging.ERROR)   # planted malformed lines
    from websift.classifier import load_model, predict
    from websift.filtering import score_corpus
    from websift.tokenizers import TokenizerSpec, load_tokenizer

    os.makedirs(os.path.join(CACHE, "inputs"), exist_ok=True)
    _, meta = gen.ensure_inputs(os.path.join(CACHE, "inputs"), args.seed, "score_fresh", SRC)
    out_dir = os.path.join(CACHE, "selftest")
    shutil.rmtree(out_dir, ignore_errors=True)
    model = load_model(meta["model"])
    tokenizer = load_tokenizer(TokenizerSpec())
    run = score_corpus(model, meta["shards"], measure.THRESHOLD, tokenizer, out_dir, workers=1)
    reference = measure.scored_digest(out_dir)

    def predict_score(text: str) -> float:
        return predict(model, text, tokenizer).dist[measure.POSITIVE]

    clean, failed = fail_ratio(out_dir, meta, run.stats, predict_score, reference)
    print(f"clean outputs: fail_ratio {clean:.3f} {failed}")
    where = corrupt_one_kept_line(out_dir)
    dirty, failed = fail_ratio(out_dir, meta, run.stats, predict_score, reference)
    print(f"one corrupted kept line ({where}): fail_ratio {dirty:.3f} {failed}")
    shutil.rmtree(out_dir, ignore_errors=True)
    ok = clean == 0 and dirty > 0
    print("selftest passed" if ok else "selftest FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
