#!/usr/bin/env python3
"""websift benchmark: three workloads, end-to-end metrics, a traced per-layer run.

Run from the root of a websift checkout:

    python3 perfbench/run.py --workload score_fresh --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0   # every workload

Inputs are generated from --seed into .perfbench/ (cached per seed and
hash of src/, never timed). Each repetition then runs in a fresh child process (perfbench/child.py)
until --seconds have been spent measuring; figures are medians over the
repetitions. With --trace 0 the run reports the end-to-end metrics; with
--trace 1 it interleaves traced and untraced repetitions (and, on
score_fresh, single-worker ones) and reports the per-layer metrics. Every
repetition's outputs are checked; a failed check counts as a failed
operation. Human-readable lines go first; the last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import gen

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(ROOT, ".perfbench")

# Workload and metric names and units live in BENCHMARK.json alone.
with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _f:
    _BENCHMARK = json.load(_f)
WORKLOADS = tuple(w["name"] for w in _BENCHMARK["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in _BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _BENCHMARK["per_layer"]}

MIN_REPS = 3             # per kind of repetition
DEADLINE_S = 165         # never start a repetition that could end past this
INPUTS_KEPT = 6          # generated input sets (seed x workload) kept on disk


class Repetitions:
    """Outcomes of one kind of repetition (e.g. traced, untraced, one worker)."""

    def __init__(self, kind: str, trace: bool, workers: int):
        self.kind, self.trace, self.workers = kind, trace, workers
        self.results: list[dict] = []
        self.attempted = self.failed = 0
        self.spent = 0.0

    def median(self, key: str) -> float:
        return statistics.median(r[key] for r in self.results)

    def median_layer(self, key: str) -> float:
        values = [r["layers"][key] for r in self.results if key in r["layers"]]
        return statistics.median(values) if values else 0.0


def prepare_work(work: str, workload: str, inputs: str) -> None:
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    if workload == "score_resume":
        shutil.copytree(os.path.join(inputs, "prior"), os.path.join(work, "scored"),
                        copy_function=_link_or_copy)
    elif workload == "pipeline_rounds":
        for name in ("pool", "raw"):
            shutil.copytree(os.path.join(inputs, name), os.path.join(work, name))
        shutil.copy(os.path.join(inputs, "default.json"), work)


def _link_or_copy(src: str, dst: str) -> None:
    """Completed outputs are only read, so hard links do. The ledger is appended
    to and the pending shards' temp files are rewritten in place, so they are
    copied: the cached prior run must stay as the generator left it."""
    if src.endswith(".tmp") or os.path.basename(src) == "ledger.jsonl":
        shutil.copy2(src, dst)
    else:
        os.link(src, dst)


def run_child(workload: str, seed: int, inputs: str, meta: dict, reps: Repetitions,
              timeout: float) -> None:
    """One fresh-process repetition; records its result and check outcomes."""
    work = os.path.join(CACHE, "work")
    prepare_work(work, workload, inputs)
    spec = {
        "workload": workload, "seed": seed, "src": SRC, "inputs": inputs, "meta": meta,
        "work": work, "workers": reps.workers, "trace": reps.trace,
        "result": os.path.join(CACHE, "result.json"),
        # Every check on the first repetition of each kind; later ones must
        # reproduce its output digest, which checks them just as well.
        "full_checks": not reps.results,
    }
    if workload == "pipeline_rounds":
        spec["pipeline"] = {"config": gen.PIPELINE, "classifier": gen.PIPELINE_CLASSIFIER}
    spec_path = os.path.join(CACHE, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as f:
        json.dump(spec, f)
    if os.path.exists(spec["result"]):
        os.remove(spec["result"])
    log_path = os.path.join(CACHE, "child.log")
    started = time.perf_counter()
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), spec_path],
                                stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
        try:
            code = proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = None
    reps.spent += time.perf_counter() - started
    if code != 0 or not os.path.exists(spec["result"]):
        reps.attempted += 1
        reps.failed += 1
        with open(log_path, "r", encoding="utf-8", errors="replace") as f:
            tail = f.read()[-2000:]
        why = "timed out" if code is None else f"exited with {code}"
        print(f"[{workload}/{reps.kind}] child {why}:\n{tail}", file=sys.stderr)
        return
    with open(spec["result"], "r", encoding="utf-8") as f:
        result = json.load(f)

    # Byte-identical outputs for one seed and revision: every repetition,
    # whatever its worker count or tracing, and in every run, must reproduce
    # the first one's digest. It is kept in the input directory, which is
    # keyed by the hash of src/, so another revision keeps its own.
    ref_path = os.path.join(inputs, "expected_digest")
    if not os.path.exists(ref_path):
        with open(ref_path, "w", encoding="utf-8") as f:
            f.write(result["digest"])
    with open(ref_path, "r", encoding="utf-8") as f:
        expected = f.read()
    result["checks"].append(["deterministic", result["digest"] == expected,
                             f"output digest {result['digest'][:12]}, expected {expected[:12]}"])

    bad = [c for c in result["checks"] if not c[1]]
    for name, _, detail in bad:
        print(f"[{workload}/{reps.kind}] check {name} failed: {detail}", file=sys.stderr)
    reps.attempted += result["attempted"] + len(result["checks"])
    reps.failed += result["failed"] + len(bad)
    reps.results.append(result)


def prune_cache(keep: str) -> None:
    inputs = os.path.join(CACHE, "inputs")
    dirs = sorted((os.path.join(inputs, d) for d in os.listdir(inputs)), key=os.path.getmtime)
    for d in dirs[:-INPUTS_KEPT]:
        if d != keep:
            shutil.rmtree(d, ignore_errors=True)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    t_start = time.perf_counter()
    inputs, meta = gen.ensure_inputs(os.path.join(CACHE, "inputs"), seed, workload, SRC)
    prune_cache(inputs)
    workers = os.cpu_count() or 1      # the websift CLI's --workers default
    if workload == "pipeline_rounds":
        workers = 1                    # unused: the pipeline scores in-process
    kinds = [Repetitions("untraced", False, workers)]
    if trace:
        kinds.append(Repetitions("traced", True, workers))
        if workload == "score_fresh":
            kinds.append(Repetitions("one_worker", False, 1))

    # Interleave the kinds so drift on a shared machine hits them alike.
    i = 0
    measure_start = time.perf_counter()
    while True:
        reps = kinds[i % len(kinds)]
        i += 1
        done = time.perf_counter() - measure_start >= seconds
        if done and all(len(k.results) + k.failed >= MIN_REPS for k in kinds):
            break
        elapsed = time.perf_counter() - t_start
        longest = max((r.spent / max(1, len(r.results)) for r in kinds), default=0.0)
        if elapsed + 1.5 * longest > DEADLINE_S:
            break
        run_child(workload, seed, inputs, meta, reps, DEADLINE_S + 10 - elapsed)
        if reps.failed and not reps.results:
            break
    return summarize(workload, kinds, meta)


def summarize(workload: str, kinds: list[Repetitions], meta: dict) -> dict:
    base = kinds[0]
    attempted = sum(k.attempted for k in kinds)
    failed = sum(k.failed for k in kinds)
    correct = failed == 0 and all(k.results for k in kinds)
    metrics: dict[str, tuple[float, str]] = {}
    if base.results:
        for r in base.results:
            r["docs_per_s"] = r["docs"] / r["wall_s"]
        metrics = {name: (base.median(name), unit) for name, unit in END_TO_END.items()}
    layers: dict[str, tuple[float, str]] = {}
    traced = next((k for k in kinds if k.trace), None)
    if traced and traced.results and base.results:
        for name, unit in PER_LAYER.items():
            layers[name] = (traced.median_layer(name), unit)
        overhead = traced.median("wall_s") - base.median("wall_s")
        layers["trace.overhead_s"] = (overhead, "s")
        layers["trace.overhead_ratio"] = (overhead / base.median("wall_s"), "ratio")
        serial = next((k for k in kinds if k.kind == "one_worker"), None)
        if serial and serial.results:
            rate_1 = meta["lines"] / serial.median("wall_s")
            rate_n = meta["lines"] / base.median("wall_s")
            layers["filtering.parallel_efficiency"] = (rate_n / (base.workers * rate_1), "ratio")
            layers["filtering.one_worker_docs_per_s"] = (rate_1, "docs/s")
    return {
        "workload": workload, "correct": correct, "attempted": attempted, "failed": failed,
        "reps": {k.kind: len(k.results) for k in kinds},
        "per_rep": {k.kind: k.results for k in kinds},
        "end_to_end": metrics, "layers": layers, "shape": meta,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "websift", "__init__.py")):
        print(f"no websift sources under {SRC}: run from a websift checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(os.path.join(CACHE, "inputs"), exist_ok=True)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        r = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        fail_ratio = r["failed"] / r["attempted"] if r["attempted"] else 1.0
        for kind, reps in r["per_rep"].items():
            for key in ("wall_s", "peak_rss_mb"):
                print(f"[{workload}] {kind} {key} per repetition: "
                      + " ".join(f"{rep[key]:.4g}" for rep in reps))
        print(f"[{workload}] seed {args.seed}, repetitions {r['reps']}, "
              f"{r['shape']['lines']} docs, {r['shape']['bytes'] / 1e6:.1f} MB, "
              f"{r['shape']['token_types']} token types")
        shown = dict(r["end_to_end"])
        shown["fail_ratio"] = (fail_ratio, f"ratio ({r['failed']}/{r['attempted']})")
        if args.trace:
            shown.update(r["layers"])
        for name, (value, unit) in shown.items():
            print(f"{workload:16s} {name:34s} {value:14.6g} {unit}")
        chosen = r["layers"] if args.trace else r["end_to_end"]
        prefix = f"{workload}." if args.workload == "all" else ""
        for name, (value, unit) in chosen.items():
            out["metrics"][prefix + name] = {"value": value, "unit": unit}
        out["correct"] = out["correct"] and r["correct"]
        out["attempted"] += r["attempted"]
        out["failed"] += r["failed"]
    out["attempted"] = max(out["attempted"], 1)
    expected = PER_LAYER if args.trace else END_TO_END
    if args.workload != "all" and set(out["metrics"]) != set(expected):
        out["correct"] = False
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
