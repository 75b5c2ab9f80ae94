"""Mean-field inference sharing the factored kernel layer.

The fully factorized variational distribution Q minimizes the KL
divergence to the Gibbs distribution; the stationarity condition per site
is

    Q_i(l)  propto  exp(-psi_i(l) - sum_{j != i} sum_{l'} Q_j(l') mu(l, l') K_ij),

i.e. a softmax of the negated unary plus incoming messages.  The message
bottleneck ``K Q`` runs through one factored block product over all label
columns; the j = i self-interaction is removed explicitly with diag(K)
(row norms of the factors).  The solver updates every site at once from
the current marginals.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.special import xlogy

from .crf import energy

# a mean-field run stops after this many updates, or earlier at a fixed
# point: a largest absolute marginal change below MF_TOL
MF_MAX_ITERS = 100
MF_TOL = 1e-6


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
    """Initial marginals: softmax of the negated unaries ('unary') or
    seeded Dirichlet(1) rows ('random')."""
    if mode == "unary":
        return _softmax_rows(-problem.unary)
    if mode == "random":
        rng = np.random.default_rng(seed)
        return rng.dirichlet(np.ones(problem.n_labels), size=problem.n_vars)
    raise ValueError(f"unknown init mode {mode!r}")


def mf_update(problem, marginals):
    """One mean-field update: every row recomputed at once from the current
    marginals (no monotonicity guarantee)."""
    return _softmax_rows(-(problem.unary + _messages(problem, marginals)))


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


def mf_solve(problem, restarts=1, *, seed):
    """Run mean field with restarts, return the best decode.

    The first restart starts from the unary softmax; later restarts use
    seeded random marginals (mean field is sensitive to initialization).
    Each run iterates to ``MF_MAX_ITERS`` updates or a fixed point (max
    absolute marginal change below ``MF_TOL``), decodes by row argmax, and
    the restart with the lowest decoded energy wins.  Deterministic for a
    fixed seed.  Fewer than one restart raises ValueError.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    children = np.random.SeedSequence(seed).spawn(restarts)
    best = None
    restart_energies = []
    for run, child in enumerate(children):
        marginals = mf_init(problem, seed=child,
                            mode="unary" if run == 0 else "random")
        free_energies = [mf_free_energy(problem, marginals)]
        for n_iter in range(1, MF_MAX_ITERS + 1):
            updated = mf_update(problem, marginals)
            delta = np.abs(updated - marginals).max()
            marginals = updated
            free_energies.append(mf_free_energy(problem, marginals))
            if delta < MF_TOL:
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
