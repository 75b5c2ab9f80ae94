"""Per-iteration cost versus problem size.

Each solver iteration costs one partial eigendecomposition driven by
O(N)-cost matvecs or shifted solves, plus rounding; nothing materializes
an N x N matrix.  This script times grid instances that sample the same
synthetic scene at increasing resolution and prints the median
per-iteration wall time.
Growth is roughly proportional: an inertia count gives the exact number
p of positive eigenvalues in O(N), so each iteration makes one Lanczos
request for exactly p pairs, which runs in shift-invert mode on O(N)
solves with the shifted operator, never on surplus pairs from the slowly
converging cluster just below zero, and stops as soon as those p pairs
converge.  Run on one core for stable numbers.
"""

import numpy as np

try:
    from threadpoolctl import threadpool_limits
except ImportError:
    threadpool_limits = None

from lrsdcut.crf import build_problem
from lrsdcut.generate import gen_grid
from lrsdcut.sdp import lr_sdcut_solve

SIZES = [(50, 25, 1.0), (50, 50, 1.0), (100, 50, 0.5), (100, 100, 0.5)]


def bench():
    rows = []
    for width, height, pitch in SIZES:
        instance = gen_grid(width, height, 2, seed=5, theta_pos=16.0,
                            spacing_x=pitch,
                            spacing_y=1.0 if height <= 50 else 0.5)
        problem = build_problem(instance)
        report = lr_sdcut_solve(problem, seed=1, k_max=5, tau=0.0)
        med = float(np.median([rec.ms for rec in report.trajectory[1:]]))
        rows.append((problem.n_vars, med))
        base_n, base_ms = rows[0]
        print(f"  N={problem.n_vars:6d}: median {med:7.1f} ms/iteration   "
              f"(x{med / base_ms:4.1f} for x{problem.n_vars / base_n:.0f} size)")


if threadpool_limits is not None:
    with threadpool_limits(limits=1):
        print("single BLAS thread:")
        bench()
else:
    bench()
