"""Mean-field inference sharing the factored kernel layer.

The fully factorized variational distribution Q minimizes the KL
divergence to the Gibbs distribution; the stationarity condition per site
is

    Q_i(l)  propto  exp(-psi_i(l) - sum_{j != i} sum_{l'} Q_j(l') mu(l, l') K_ij),

i.e. a softmax of the negated unary plus the messages of
:func:`crf.messages`.  The solver updates every site at once from the
current marginals; at zero temperature the softmax becomes the row argmin
of the parallel ICM sweeps that polish the SDP solver's roundings.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.special import softmax, xlogy

from .crf import energy, messages

# a mean-field run stops after this many updates, or earlier at a fixed
# point: a largest absolute marginal change below MF_TOL
MF_MAX_ITERS = 100
MF_TOL = 1e-6


def mf_init(problem, seed=None, mode="unary"):
    """Initial marginals: softmax of the negated unaries ('unary') or
    Dirichlet(1) rows drawn from ``seed``, which may not be None ('random')."""
    if mode == "unary":
        return softmax(-problem.unary, axis=1)
    if mode == "random":
        if seed is None:
            raise ValueError("random init needs a seed")
        rng = np.random.default_rng(seed)
        return rng.dirichlet(np.ones(problem.n_labels), size=problem.n_vars)
    raise ValueError(f"unknown init mode {mode!r}")


def mf_update(problem, marginals):
    """One mean-field update: every row recomputed at once from the current
    marginals (no monotonicity guarantee)."""
    return softmax(-(problem.unary + messages(problem, marginals)), axis=1)


def mf_free_energy(problem, marginals):
    """Variational free energy: entropy plus expected unary and pairwise
    energy (half of <Q, messages of Q>) under Q, with 0 log 0 = 0."""
    q = np.asarray(marginals, dtype=np.float64)
    return float(xlogy(q, q).sum() + np.sum(problem.unary * q)
                 + 0.5 * np.sum(q * messages(problem, q)))


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
