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
from scipy.linalg import lu_factor, lu_solve
from scipy.special import softmax

from lrsdcut.crf import CrfProblem
from lrsdcut.eig import EIG_TOL, PsdFactor
from lrsdcut.kernels import (CenteredDiscriminativeKernel, LowRankFactor,
                             LowRankKernel)


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


def mixed_kernel_problem(n, n_labels, seed, general=False):
    """Random problem over a stack of every kernel form: block-diagonal
    low-rank, plain low-rank and centered discriminative."""
    rng = np.random.default_rng(seed)
    fp = LowRankFactor(rng.standard_normal((n, 3)) / np.sqrt(3))
    fc = LowRankFactor(rng.standard_normal((n, 2)) / np.sqrt(2))
    blocks = [0, n // 3, n]
    kernels = [LowRankKernel(fp, 1.2, blocks=blocks),
               LowRankKernel(fc, 0.8),
               CenteredDiscriminativeKernel(fc, kappa=0.5, weight=0.6)]
    mu = None
    if general:
        mu = rng.uniform(0.0, 1.0, (n_labels, n_labels))
        mu = 0.5 * (mu + mu.T)
        np.fill_diagonal(mu, 0.0)
    return CrfProblem(rng.standard_normal((n, n_labels)), kernels, mu=mu)


def per_column_kernel_product(problem, x):
    """K X formed one label column at a time: the reference for block products."""
    return np.column_stack([problem.kernel_matvec(x[:, l].copy())
                            for l in range(x.shape[1])])


def primal_objective(sdp, psd):
    """<Y, A> = -<Y, C(0)> for Y = gamma (C(u))_+, one C(0) product per
    eigenpair."""
    neg_a = sdp.operator(np.zeros(sdp.q))
    total = 0.0
    for r in range(psd.rank):
        v = psd.vectors[:, r]
        total -= psd.values[r] * (v @ neg_a.matvec(v))
    return sdp.gamma * total


def reconstruct(factor):
    """The dense matrix ``vectors @ diag(values) @ vectors.T`` of a
    :class:`lrsdcut.eig.PsdFactor`."""
    return (factor.vectors * factor.values) @ factor.vectors.T


def dense_inertia(matrix, vals=None):
    """An ``inertia`` for :func:`lrsdcut.eig.leading_psd_part` from a dense
    symmetric matrix: ``inertia(t)`` is the number of its eigenvalues
    ``vals`` (from ``eigh`` when not given) above t, with an LU solve with
    ``matrix - t I``."""
    vals = np.linalg.eigvalsh(matrix) if vals is None else vals

    def inertia(t):
        factored = lu_factor(matrix - t * np.eye(len(matrix)))
        return int(np.count_nonzero(vals > t)), lambda b: lu_solve(factored, b)
    return inertia


def exact_factor(sdp, u):
    """C(u)'s positive part from a dense ``eigh`` of its n matvecs, as the
    solver counts it: eigenvalues above ``EIG_TOL``, descending."""
    op = sdp.operator(u)
    dense = np.column_stack([op.matvec(col) for col in np.eye(sdp.n)])
    vals, vecs = np.linalg.eigh(0.5 * (dense + dense.T))
    keep = vals > EIG_TOL
    return PsdFactor(vecs[:, keep][:, ::-1], vals[keep][::-1])


def mf_site_update(problem, marginals, site):
    """Exact mean-field coordinate update of one site's marginal, which
    never increases the variational free energy; returns a new matrix.

    Costs one factored matvec (the kernel column through a basis vector,
    whose entry at ``site`` is K_ii), so a sweep over all sites is O(N)
    matvecs; intended for small N.
    """
    basis = np.zeros(problem.n_vars)
    basis[site] = 1.0
    k_col = problem.kernel_matvec(basis)
    incoming = marginals.T @ k_col - k_col[site] * marginals[site]
    out = marginals.copy()
    out[site] = softmax(-(problem.unary[site] + problem.mu_matrix() @ incoming))
    return out


def constraint_values(sdp, psd):
    """<Y, B_i> for Y = gamma (C(u))_+, ordered like the dual vector."""
    return sdp.dual_gradient(np.zeros(sdp.q), psd) + sdp.b


@pytest.fixture
def rng():
    return np.random.default_rng(20240801)
