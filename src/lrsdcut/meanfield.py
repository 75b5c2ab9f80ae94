"""Mean-field inference sharing the factored kernel layer.

The fully factorized variational distribution Q minimizes the KL
divergence to the Gibbs distribution; the stationarity condition per site
is

    Q_i(l)  propto  exp(-psi_i(l) - sum_{j != i} sum_{l'} Q_j(l') mu(l, l') K_ij),

i.e. a softmax of the negated unary plus incoming messages.  The message
bottleneck ``K Q`` runs through one factored block product over all label
columns; the j = i self-interaction is removed explicitly with diag(K)
(row norms of the factors), which keeps the sequential schedule an exact
coordinate descent on the variational free energy.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.special import xlogy

from .crf import energy


def _softmax_rows(scores):
    scores = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(scores)
    return e / e.sum(axis=1, keepdims=True)


def _messages(problem, marginals):
    """Incoming pairwise messages: ((K Q) - diag(K) o Q) mu, shape N x L."""
    passed = problem.kernel_matvec(marginals)
    passed -= problem.kernel_diag()[:, None] * marginals
    return passed @ problem.mu_matrix()


def mf_init(problem, seed=0, mode="unary"):
    """Initial marginals: softmax of the negated unaries ('unary'), the
    uniform distribution ('uniform'), or seeded Dirichlet(1) rows ('random')."""
    n, L = problem.n_vars, problem.n_labels
    if mode == "unary":
        return _softmax_rows(-problem.unary)
    if mode == "uniform":
        return np.full((n, L), 1.0 / L)
    if mode == "random":
        rng = np.random.default_rng(seed)
        return rng.dirichlet(np.ones(L), size=n)
    raise ValueError(f"unknown init mode {mode!r}")


def mf_site_update(problem, marginals, site):
    """Exact coordinate update of one site's marginal; returns a new matrix.

    Costs one factored matvec (the kernel column through a basis vector,
    whose entry at ``site`` is K_ii), so a full sequential sweep is O(N)
    matvecs; intended for small N.
    """
    n = problem.n_vars
    basis = np.zeros(n)
    basis[site] = 1.0
    k_col = problem.kernel_matvec(basis)
    incoming = marginals.T @ k_col - k_col[site] * marginals[site]
    row = _softmax_rows((-(problem.unary[site] + problem.mu_matrix() @ incoming))[None, :])
    out = marginals.copy()
    out[site] = row[0]
    return out


def mf_update(problem, marginals, schedule="parallel"):
    """One mean-field update.

    'parallel' recomputes every row simultaneously from the current
    marginals (the large-scale default; no monotonicity guarantee).
    'sequential' sweeps sites in order with immediate updates, which is
    coordinate descent and never increases the free energy.
    """
    if schedule == "parallel":
        return _softmax_rows(-(problem.unary + _messages(problem, marginals)))
    if schedule == "sequential":
        out = marginals
        for site in range(problem.n_vars):
            out = mf_site_update(problem, out, site)
        return out
    raise ValueError(f"unknown schedule {schedule!r}")


def mf_free_energy(problem, marginals):
    """Variational free energy: entropy term plus expected unary and
    pairwise energy under the factorized distribution (0 log 0 = 0)."""
    q = np.asarray(marginals, dtype=np.float64)
    entropy_term = float(xlogy(q, q).sum())
    unary_term = float(np.sum(problem.unary * q))
    mu = problem.mu_matrix()
    gram = q.T @ problem.kernel_matvec(q)
    self_term = np.einsum("i,il,lm,im->", problem.kernel_diag(), q, mu, q)
    pair_term = 0.5 * (float(np.sum(mu * gram)) - float(self_term))
    return entropy_term + unary_term + pair_term


@dataclass
class MeanFieldResult:
    labels: np.ndarray
    energy: float
    free_energies: np.ndarray
    restart_energies: list = field(default_factory=list)
    n_iterations: int = 0


def mf_solve(problem, max_iters=100, restarts=1, seed=0, tol=1e-6):
    """Run parallel-schedule mean field with restarts, return the best decode.

    The first restart starts from the unary softmax; later restarts use
    seeded random marginals (mean field is sensitive to initialization).
    Each run iterates to ``max_iters`` or a fixed point (max absolute
    marginal change below ``tol``), decodes by row argmax, and the restart
    with the lowest decoded energy wins.  Deterministic for a fixed seed.
    """
    children = np.random.SeedSequence(seed).spawn(max(1, restarts))
    best = None
    restart_energies = []
    for run, child in enumerate(children):
        marginals = mf_init(problem, seed=child,
                            mode="unary" if run == 0 else "random")
        free_energies = [mf_free_energy(problem, marginals)]
        n_iter = 0
        for n_iter in range(1, max_iters + 1):
            updated = mf_update(problem, marginals)
            delta = np.abs(updated - marginals).max()
            marginals = updated
            free_energies.append(mf_free_energy(problem, marginals))
            if delta < tol:
                break
        labels = np.argmax(marginals, axis=1)
        value = energy(problem, labels)
        restart_energies.append(value)
        if best is None or value < best.energy:
            best = MeanFieldResult(labels=labels, energy=value,
                                   free_energies=np.asarray(free_energies),
                                   n_iterations=n_iter)
    best.restart_energies = restart_energies
    return best
