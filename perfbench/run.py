"""Benchmark of the lrsdcut solve path; see README.md next to this file.

    python3 perfbench/run.py --workload grid-10k --seed 5 --seconds 30 --trace 0

Builds the package from the ``src/`` tree of the checkout this file sits
in, pins BLAS to one thread, and ends its output with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  Exits with code 2,
printing no result, when the checkout has no package source.
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("grid-10k", "multilabel", "general-mu")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=5,
                        help="draws the variable order of every instance")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="length of the measured closed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--scene", type=int, default=5,
                        help="generator seed of the instances (held-out scenes)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.scene < 0:
        parser.error("--seed and --scene must be non-negative")
    return args


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "lrsdcut" / "__init__.py").is_file():
        print(f"error: no lrsdcut package source under {src}", file=sys.stderr)
        return 2
    # one BLAS thread, set before numpy is first imported (by harness)
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(src))
    import harness
    return harness.main(args, ROOT)


if __name__ == "__main__":
    sys.exit(main())
