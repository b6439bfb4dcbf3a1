"""Benchmark entry point: runs each workload in its own process.

    python3 bench/run.py --workload fem-deep --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10

Run from the root of a source checkout; the library is imported from
``src/``.  The workload's process gets one BLAS thread (``nproc`` is 2 on the
reference machine, and one thread keeps timings steady) and a fixed hash
seed.  Its stdout is passed through; the last line is the result JSON.  With
``--workload all`` a last line combining the three results follows.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fem-deep", "fem-shallow", "pieces")
CHILD_TIMEOUT_S = 170
BLAS_THREADS = "1"


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict | None:
    env = dict(os.environ, PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    cmd = [sys.executable, str(HERE / "harness.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"{workload}: no result within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    sys.stdout.write(out)
    if proc.returncode != 0:
        print(f"{workload}: exit code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "cpwlrelu" / "__init__.py").is_file():
        print(f"no library source at {ROOT / 'src' / 'cpwlrelu'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        res = run_one(name, args.seed, args.seconds, args.trace)
        if res is None:
            return 1
        results[name] = res
    if args.workload == "all":
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
