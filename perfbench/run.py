"""Benchmark launcher for maxlinbn.

    python3 perfbench/run.py --workload {learn,fit,separation} --seed N \\
        --seconds S --trace {0,1}
    python3 perfbench/run.py --report [--seed N] [--seconds S] [--smoke]

Run from the root of a source checkout.  Each run starts ``bench.py`` in a
process of its own, so that its peak memory belongs to one workload, with
``src`` on ``PYTHONPATH``, BLAS and OpenMP pinned to one thread and hash
randomisation fixed.  The run's standard output passes through; its last
line is the JSON result.  ``--report`` runs every workload untraced and
traced and prints every metric by name, with unit and sample count.
``--smoke`` shrinks every input to a size that runs in seconds.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench", "bench.py")
WORKLOADS = ("learn", "fit", "separation")
TIMEOUT_S = 170

PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
}


def run_one(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> int:
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    argv = [sys.executable, BENCH, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        argv.append("--smoke")
    try:
        return subprocess.run(argv, env=env, cwd=ROOT, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"error: {workload} run exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true", help="every workload, both modes")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "maxlinbn", "__init__.py")):
        print(f"error: no maxlinbn sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.report:
        codes = [
            run_one(w, args.seed, args.seconds, trace, args.smoke)
            for w in WORKLOADS
            for trace in (0, 1)
        ]
        return max(codes)
    if args.workload is None:
        parser.error("--workload is required unless --report is given")
    return run_one(args.workload, args.seed, args.seconds, args.trace, args.smoke)


if __name__ == "__main__":
    sys.exit(main())
