"""Brute-force and dense reference computations for desk-scale verification.

Everything here materializes matrices and enumerates labelings; nothing
calls the factored matvec paths, so agreement between this module and the
fast code is evidence, not tautology.  Dense kernels are built from the
same factors the solvers use (the approximated kernel is the one
objective everything refers to).
"""

import itertools

import numpy as np
from scipy.linalg import block_diag

from .kernels import CenteredDiscriminativeKernel, LowRankKernel

MAX_BRUTE_LABELINGS = 10 ** 6


class BruteForceSizeError(ValueError):
    """The label space is too large to enumerate."""


def dense_kernel(kernel):
    """Materialize the weighted PSD matrix a kernel object represents."""
    if isinstance(kernel, LowRankKernel):
        phi = kernel.factor.phi
        mat = phi @ phi.T
        if kernel.blocks is not None:
            mat = mat * block_diag(*(np.ones((m, m)) for m in np.diff(kernel.blocks)))
        return kernel.weight * mat
    if isinstance(kernel, CenteredDiscriminativeKernel):
        n = kernel.n
        phi = kernel.factor.phi
        omega = np.eye(n) - np.full((n, n), 1.0 / n)
        return kernel.weight * kernel.scale * (omega - phi @ phi.T)
    raise TypeError(f"cannot densify kernel of type {type(kernel).__name__}")


def dense_problem_kernel(problem):
    """Sum of the densified weighted kernels of a problem."""
    return sum(map(dense_kernel, problem.kernels), np.zeros((problem.n_vars,) * 2))


def direct_energy(problem, labels, kernel_matrix=None):
    """Pair-by-pair energy evaluation straight from the definition."""
    labels = np.asarray(labels, dtype=np.int64)
    if kernel_matrix is None:
        kernel_matrix = dense_problem_kernel(problem)
    mu = problem.mu_matrix()
    total = float(problem.unary[np.arange(problem.n_vars), labels].sum())
    rows, cols = np.triu_indices(problem.n_vars, 1)
    total += float(mu[labels[rows], labels[cols]] @ kernel_matrix[rows, cols])
    return total


def brute_force_map(problem):
    """Exact MAP by enumerating every labeling with the direct energy.

    Ties go to the lexicographically smallest labeling.  Refuses label
    spaces beyond 10^6 assignments.
    """
    n, L = problem.n_vars, problem.n_labels
    if L ** n > MAX_BRUTE_LABELINGS:
        raise BruteForceSizeError(
            f"label space has {L}^{n} = {L ** n} assignments, above the "
            f"enumeration limit {MAX_BRUTE_LABELINGS}")
    kernel_matrix = dense_problem_kernel(problem)
    mu = problem.mu_matrix()
    rows, cols = np.triu_indices(n, 1)
    pair_weights = kernel_matrix[rows, cols]
    var_index = np.arange(n)
    best_labels = None
    best_energy = np.inf
    for assignment in itertools.product(range(L), repeat=n):
        labels = np.asarray(assignment, dtype=np.int64)
        value = (problem.unary[var_index, labels].sum()
                 + mu[labels[rows], labels[cols]] @ pair_weights)
        if value < best_energy:
            best_energy = value
            best_labels = labels
    return best_labels, float(best_energy)


def potts_constraint_matrices(n_vars, n_labels):
    """Dense (B_i, b_i) pairs of the compact Potts lifting, in the dual
    packing order: label diagonal, label off-diagonal pairs (lower-triangle
    order), row-sum couplings, variable diagonal."""
    n = n_vars + n_labels
    out = []
    for l in range(n_labels):
        mat = np.zeros((n, n))
        mat[l, l] = 1.0
        out.append((mat, 1.0))
    for a, c in zip(*np.tril_indices(n_labels, -1)):
        mat = np.zeros((n, n))
        mat[a, c] = mat[c, a] = 0.5
        out.append((mat, 0.0))
    for i in range(n_vars):
        mat = np.zeros((n, n))
        mat[n_labels + i, :n_labels] = 0.5
        mat[:n_labels, n_labels + i] = 0.5
        out.append((mat, 1.0))
    for i in range(n_vars):
        mat = np.zeros((n, n))
        mat[n_labels + i, n_labels + i] = 1.0
        out.append((mat, 1.0))
    return out


def general_constraint_matrices(n_vars, n_labels):
    """Dense (B_i, b_i) pairs of the general lifting: per-variable diagonal
    block trace, then per-variable off-diagonal pairs."""
    n = n_vars * n_labels
    out = []
    for i in range(n_vars):
        mat = np.zeros((n, n))
        for l in range(n_labels):
            mat[i * n_labels + l, i * n_labels + l] = 1.0
        out.append((mat, 1.0))
    for i in range(n_vars):
        for a, c in zip(*np.tril_indices(n_labels, -1)):
            mat = np.zeros((n, n))
            mat[i * n_labels + a, i * n_labels + c] = 0.5
            mat[i * n_labels + c, i * n_labels + a] = 0.5
            out.append((mat, 0.0))
    return out


def dense_sdp_pieces(sdp, u):
    """Dense realization of one dual evaluation: builds A and every B_i
    literally from the constraint definitions, eigendecomposes C(u), and
    evaluates the dual value and gradient with exact projectors.

    Returns a dict with keys 'A', 'B', 'b', 'C', 'C_plus', 'dual', 'grad'.
    Guarded to n <= 200.
    """
    n = sdp.n
    if n > 200:
        raise ValueError(f"dense oracle limited to n <= 200, got {n}")
    problem = sdp.problem
    kernel_matrix = dense_problem_kernel(problem)
    n_vars, n_labels = problem.n_vars, problem.n_labels
    if problem.is_potts:
        a_mat = np.zeros((n, n))
        a_mat[n_labels:, :n_labels] = 0.5 * problem.unary
        a_mat[:n_labels, n_labels:] = 0.5 * problem.unary.T
        a_mat[n_labels:, n_labels:] = -0.5 * kernel_matrix
        constraints = potts_constraint_matrices(n_vars, n_labels)
    else:
        u_mat = problem.mu - 1.0
        a_mat = np.diag(problem.unary.reshape(-1)) + 0.5 * np.kron(kernel_matrix,
                                                                   u_mat)
        constraints = general_constraint_matrices(n_vars, n_labels)

    u = np.asarray(u, dtype=np.float64)
    c_mat = -a_mat - sum(ui * bi for ui, (bi, _) in zip(u, constraints))
    vals, vecs = np.linalg.eigh(c_mat)
    pos = np.clip(vals, 0.0, None)
    c_plus = (vecs * pos) @ vecs.T
    b_vec = np.asarray([rhs for _, rhs in constraints])
    dual = (-0.5 * sdp.gamma * float(np.sum(pos ** 2)) - float(u @ b_vec)
            - sdp.eta ** 2 / (2.0 * sdp.gamma))
    grad = np.asarray([sdp.gamma * float(np.sum(c_plus * bi)) - rhs
                       for bi, rhs in constraints])
    return {"A": a_mat, "B": [bi for bi, _ in constraints], "b": b_vec,
            "C": c_mat, "C_plus": c_plus, "dual": dual, "grad": grad}
