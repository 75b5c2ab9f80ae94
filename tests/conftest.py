"""Shared builders for seeded random test problems."""

import os

# One BLAS thread, set before numpy loads, so timing criteria such as the
# linear-scaling test measure the solver rather than thread scheduling even
# where threadpoolctl is not installed.
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import numpy as np
import pytest

from lrsdcut.crf import CrfProblem
from lrsdcut.kernels import LowRankFactor, LowRankKernel


def random_potts_problem(n, n_labels, seed, kernel_rank=3, weight=1.0):
    """Potts problem with i.i.d. unaries and a random low-rank PSD kernel."""
    rng = np.random.default_rng(seed)
    unary = rng.standard_normal((n, n_labels))
    phi = rng.standard_normal((n, kernel_rank)) / np.sqrt(kernel_rank)
    return CrfProblem(unary, [LowRankKernel(LowRankFactor(phi), weight)])


def random_general_problem(n, n_labels, seed, kernel_rank=3, weight=1.0):
    """Random problem with a symmetric label-compatibility matrix."""
    rng = np.random.default_rng(seed)
    mu = rng.uniform(0.0, 1.0, (n_labels, n_labels))
    mu = 0.5 * (mu + mu.T)
    np.fill_diagonal(mu, 0.0)
    unary = rng.standard_normal((n, n_labels))
    phi = rng.standard_normal((n, kernel_rank)) / np.sqrt(kernel_rank)
    return CrfProblem(unary, [LowRankKernel(LowRankFactor(phi), weight)], mu=mu)


@pytest.fixture
def rng():
    return np.random.default_rng(20240801)
