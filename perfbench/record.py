#!/usr/bin/env python3
"""Record a baseline: every workload, untraced and traced, plus the machine.

    python3 perfbench/record.py --seed 1 --seconds 30 --out perfbench/baseline.json

Writes one JSON file with the git revision, nproc, RAM, the filesystem the
checkout is on, Python and numpy versions, and for each workload its corpus
shape, end-to-end metrics, fail ratio and traced per-layer metrics. Later
changes cite before/after figures against such a record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

import run


def machine() -> dict:
    with open("/proc/meminfo", "r", encoding="ascii") as f:
        mem_kb = int(next(ln for ln in f if ln.startswith("MemTotal")).split()[1])
    fs, best = "unknown", ""
    with open("/proc/mounts", "r", encoding="ascii") as f:
        for line in f:
            _, mount, kind = line.split()[:3]
            if run.ROOT.startswith(mount) and len(mount) > len(best):
                fs, best = kind, mount
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "unknown"
    import numpy
    return {
        "git_rev": rev,
        "nproc": os.cpu_count(),
        "ram_gb": round(mem_kb / 1024**2, 1),
        "filesystem": fs,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    sys.path.insert(0, run.SRC)
    os.makedirs(os.path.join(run.CACHE, "inputs"), exist_ok=True)

    record = {"machine": machine(), "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for workload in run.WORKLOADS:
        plain = run.run_workload(workload, args.seed, args.seconds, trace=False)
        traced = run.run_workload(workload, args.seed, args.seconds, trace=True)
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        shape = {k: v for k, v in plain["shape"].items() if k not in ("shards", "model", "pending")}
        shape["shards"] = len(plain["shape"]["shards"])
        record["workloads"][workload] = {
            "shape": shape,
            "repetitions": {"untraced": plain["reps"], "traced": traced["reps"]},
            "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in plain["end_to_end"].items()},
            "fail_ratio": failed / attempted,
            "attempted": attempted,
            "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in traced["layers"].items()},
        }
        print(f"recorded {workload}", flush=True)
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
