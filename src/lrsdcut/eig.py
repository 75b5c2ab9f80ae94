"""Partial symmetric eigendecomposition of implicit operators.

The solver repeatedly needs the positive spectral part of a symmetric
operator that is only available through matrix-vector products, or
through solves with a copy shifted past its spectrum.  On the products,
ARPACK's implicitly restarted Lanczos (``scipy.sparse.linalg.eigsh``)
computes the leading eigenpairs, within one restart budget
(``EIG_RESTARTS``).  On the solves, an unrestarted Lanczos run with full
reorthogonalization does, in shift-invert mode, testing convergence as it
goes and stopping once the wanted pairs pass, within ``LANCZOS_EXTRA``
steps past the request.  Both stop at one tolerance (``EIG_TOL``, also
the positivity threshold) and draw their random vectors from a seeded
generator (plain runs where eigsh takes ``rng``); a dense fallback serves
operators too small for ARPACK.  A positive part takes at most one
Lanczos request, which one inertia count at ``EIG_TOL`` (Parlett's
spectrum slicing) sizes and proves complete.  :func:`leading_psd_part`
makes every count of it through the caller's ``inertia`` callable, and
its docstring sets out the one count policy: the count, the pairs in
hand it proves, the shift and the rules that contradict or truncate a
factor.  The operator is a ``LinearOperator``; a failed proof raises an
:class:`EigenFailure`, which carries no factor, and whose ``code`` is
the stable prefix of the warning a solve records for it.
"""

import inspect
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dstev
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

# ARPACK asks for a new random vector whenever a plain run reaches an
# invariant subspace.  eigsh draws it from its ``rng`` argument, or from
# fresh OS entropy when none is given, so only a seeded draw repeats; scipy
# releases without the argument leave the draw to ARPACK itself.  (Shift-
# invert runs draw theirs from the seeded generator on any release.)
_SEEDED_RESTARTS = "rng" in inspect.signature(eigsh).parameters

# ARPACK's convergence tolerance and the positivity threshold of a positive part
EIG_TOL = 1e-8
# ARPACK restarts before a plain Lanczos run counts as stalled (shift-invert
# runs never restart)
EIG_RESTARTS = 50
# Lanczos steps past k before a shift-invert run counts as stalled; the
# benchmark's counted runs take at most 55 past k, general instances at
# N = 200 up to 127
LANCZOS_EXTRA = 160


class SymmetricOperator(LinearOperator):
    """A symmetric n x n linear map given by its matvec closure ``apply``."""

    def __init__(self, n, apply):
        super().__init__(np.float64, (n, n))
        self.n, self.apply = n, apply

    def _matvec(self, d):
        return self.apply(np.asarray(d, dtype=np.float64).ravel())


@dataclass(frozen=True)
class PsdFactor:
    """Eigenpairs (vectors, values) of the positive spectral part.

    ``vectors`` has orthonormal columns, ``values`` is strictly positive
    and descending; the represented matrix is
    ``vectors @ diag(values) @ vectors.T``.  ``truncated`` marks a factor
    that does not hold the whole positive spectrum (its count passed the
    rank cap, or was never read); it holds no pairs and gives no dual
    value.  Downstream code must depend only on the projector and the
    eigenvalue multiset, never on single eigenvectors (clusters may
    rotate).
    """

    vectors: np.ndarray
    values: np.ndarray
    truncated: bool = False

    @property
    def rank(self):
        return self.values.size

    def frob_norm_sq(self):
        return float(np.sum(self.values ** 2))


class EigenFailure(RuntimeError):
    """A positive part not proven complete; carries no factor (an unproven
    one has no dual value), only its message and a class-level warning
    prefix ``code``."""


class EigenConvergenceError(EigenFailure):
    """Eigensolver failed to converge."""

    code = "eigensolver stall"


class EigenCountMismatch(EigenFailure):
    """Lanczos returned fewer eigenvalues above the threshold than an
    inertia count proved."""

    code = "eigen count mismatch"


class EigenCountUndecided(EigenFailure):
    """No inertia count decided the size of a Lanczos request."""

    code = "undecided count"


def _dense_spectrum(op):
    mat = np.column_stack([op.apply(col) for col in np.eye(op.n)])
    mat = 0.5 * (mat + mat.T)
    vals, vecs = np.linalg.eigh(mat)
    return vals[::-1].copy(), vecs[:, ::-1].copy()  # descending


def _stalled(converged, k, after):
    """:class:`EigenConvergenceError` for a run that converged only
    ``converged`` of its ``k`` pairs."""
    return EigenConvergenceError(
        f"eigensolver converged to only {converged} of {k} requested pairs "
        f"after {after}")


def _shift_invert_lanczos(n, k, sigma, solve, rng, v):
    """Top-k eigenpairs of op from unrestarted Lanczos on ``solve = (op -
    sigma I)^-1``, with full reorthogonalization, stopping as they converge.

    Each new vector w loses the three-term recurrence's alpha_j v_j +
    beta_(j-1) v_(j-1), then takes one classical Gram-Schmidt pass against
    the row-major basis, whose unreached rows are never touched.  The pass
    is repeated once, only where it shrank w below 1/sqrt(2) of its norm
    ("twice is enough": Daniel, Gragg, Kaufman & Stewart 1976; Parlett,
    section 6.9).  With sigma above op's spectrum, op's top k are the k
    most negative Ritz values mu, ``lambda = sigma + 1/mu``; they pass
    ARPACK's test ``|beta_j y_ji| <= EIG_TOL max(|mu_i|, eps^(2/3))``,
    tried with ``dstev`` at step k + 3 and then every max(2, j/8) steps.
    A residual below eps^(2/3) of ``solve``'s output marks an invariant
    subspace: that step is not tested (its zero residual passes every Ritz
    pair) and the run goes on from a fresh ``rng`` vector, which has no
    recurrence to lose and takes two full passes.  Dropping such a
    residual moves no Ritz value by more than eps^(2/3) |mu_1|, inside
    ``EIG_TOL`` |mu_i| for every positive lambda_i unless sigma lies
    within 0.4% of lambda_1.
    """
    eps23 = np.finfo(np.float64).eps ** (2.0 / 3.0)
    m = min(n, k + LANCZOS_EXTRA)
    basis = np.empty((m, n))
    basis[0] = v
    alpha, beta = np.zeros(m), np.zeros(m)
    test_at = k + 3
    for j in range(m):
        w = solve(basis[j])
        floor = eps23 * np.linalg.norm(w)
        alpha[j] = basis[j] @ w
        w -= alpha[j] * basis[j]
        if j:  # a beta of 0 (an invariant restart) subtracts nothing
            w -= beta[j - 1] * basis[j - 1]
        residual = np.linalg.norm(w)
        for _ in range(2):
            h = basis[:j + 1] @ w
            w -= h @ basis[:j + 1]
            alpha[j] += h[j]
            residual, before = np.linalg.norm(w), residual
            if residual > np.sqrt(0.5) * before:
                break  # DGKS: the pass kept w orthogonal to working precision
        beta[j] = residual if residual > floor else 0.0  # 0: invariant
        s = j + 1
        if s == m or (beta[j] and s >= test_at):
            mu, y, _ = dstev(alpha[:s], beta[:s - 1])
            good = beta[j] * np.abs(y[-1, :k]) <= EIG_TOL * np.maximum(
                np.abs(mu[:k]), eps23)
            if good.all() or s == m:
                break
            test_at = s + max(2, s // 8)
        if not beta[j]:
            w = rng.standard_normal(n)
            for _ in range(2):
                w -= (basis[:s] @ w) @ basis[:s]
        basis[s] = w / np.linalg.norm(w)
    if not good.all():
        raise _stalled(np.count_nonzero(good), k, f"{m} Lanczos steps")
    return sigma + 1.0 / mu[:k], (y[:, :k].T @ basis[:s]).T


def leading_eigpairs(op, k, seed, shift=None):
    """Top-k algebraic eigenpairs of a symmetric operator, descending.

    Both runs start from the same seeded pseudo-random vector and stop at
    tolerance ``EIG_TOL``.  Without ``shift``, ARPACK runs on op's matvecs
    (at most ``EIG_RESTARTS`` restarts) in a Krylov dimension of
    ``min(n, max(2k + 10, 30))``.  The floor of 30 matters for small k:
    a subspace of only 2k + 10 vectors can converge to k Ritz values
    that are not the top of the spectrum, so a positive part built from
    them misses eigenvalues (a typed failure under the count).
    ``shift = (sigma, solve)``, with sigma above op's spectrum and
    ``solve(b) = (op - sigma I)^-1 b``, runs Lanczos on ``solve`` alone,
    whose extreme eigenvalues 1/(lambda - sigma) are op's top k, spread
    apart (Ericsson & Ruhe 1980).  That run is unrestarted and tests
    convergence as it goes (:func:`_shift_invert_lanczos`), where ARPACK
    builds its whole subspace before each test (Lehoucq & Sorensen 1996);
    it stops after at most min(n, k + ``LANCZOS_EXTRA``) steps.  A
    positive part's count turns a misconvergence of either run into
    :class:`EigenCountMismatch`.
    The start is never warm: Lanczos from a combination of a nearby
    operator's eigenvectors can miss new positive directions.  Falls back
    to a dense eigendecomposition built from n matvecs when k >= n - 1
    (ARPACK requires k < n).  Deterministic for fixed (op, seed) in
    single-threaded mode: every vector a run draws after the start, where
    Lanczos reaches an invariant subspace, comes from the start vector's
    seeded generator (for plain runs, on scipy releases whose eigsh takes
    ``rng``), never from fresh entropy.
    """
    n = op.n
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got {k}")
    if k >= n - 1:
        vals, vecs = _dense_spectrum(op)
        return vals[:k], vecs[:, :k]

    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n)
    v0 /= np.linalg.norm(v0)
    if shift is not None:
        return _shift_invert_lanczos(n, k, *shift, rng, v0)
    try:
        vals, vecs = eigsh(op, k=k, v0=v0, ncv=min(n, max(2 * k + 10, 30)),
                           tol=EIG_TOL, maxiter=EIG_RESTARTS, which="LA",
                           **({"rng": rng} if _SEEDED_RESTARTS else {}))
    except ArpackNoConvergence as exc:
        raise _stalled(len(exc.eigenvalues), k,
                       f"{EIG_RESTARTS} restarts") from exc
    order = np.argsort(vals)[::-1]
    return vals[order], vecs[:, order]


def leading_psd_part(op, max_rank, inertia, seed=0, pairs=None, sigma=0.0):
    """The leading p eigenpairs of op, p the number of its eigenvalues
    above ``EIG_TOL``, as a :class:`PsdFactor` from at most one Lanczos
    run, proven by an inertia count made here; none past ``max_rank``.

    ``inertia(t)`` returns ``(p, solve)``: the exact number p of op's
    eigenvalues above t (Sylvester's law of inertia; Parlett's spectrum
    slicing) and ``solve(b) = (op - t I)^-1 b``; or None where the count at
    t is undecided.  The count policy, the one proof that the factor is
    complete:

    1. p is counted once, at t = ``EIG_TOL``.  An undecided count is
       :class:`EigenCountUndecided`, with no Lanczos run.
    2. p sizes the one request, p pairs (none for p = 0).  A count past
       ``max_rank`` makes none either: it returns the rank-0 factor marked
       truncated, since a capped factor has no dual value whatever pairs
       it held.  ``pairs``, leading eigenpairs ``(values, vectors)`` of op
       already in hand (values descending, for instance a dual start's),
       stand in for it when their p-th value is above ``EIG_TOL``: p
       orthonormal eigenpairs above t are all that the count found.
       Otherwise one Lanczos run makes it: in shift-invert mode at the
       first of sigma, 2 sigma, ..., 16 sigma whose count is 0 (none tried
       for sigma = 0, and none after an undecided one), else on op's
       matvecs.
    3. A last Ritz value at or below ``EIG_TOL`` contradicts the count and
       raises :class:`EigenCountMismatch`.  Otherwise the factor holds the
       p requested pairs, column-major.

    ``inertia=None`` marks an operator the caller has already rejected (by
    a lower bound on ``||op_+||_F^2``, say): the call returns a rank-0
    factor marked truncated at once, with no count, Lanczos run or matvec.
    A failure returns no factor: a positive part its count does not prove
    has no dual value.
    """
    n = op.n
    if not 1 <= max_rank <= n:
        raise ValueError(f"need 1 <= max_rank <= {n}, got {max_rank}")
    empty = PsdFactor(np.zeros((n, 0)), np.zeros(0), truncated=True)
    if inertia is None:
        return empty
    counted = inertia(EIG_TOL)
    if counted is None:
        raise EigenCountUndecided(
            f"no inertia count decided the eigenvalues above {EIG_TOL:g}")
    count = counted[0]
    if count == 0:
        return PsdFactor(empty.vectors, empty.values)
    if count > max_rank:
        return empty
    if pairs is not None and pairs[0].size >= count and pairs[0][count - 1] > EIG_TOL:
        vals, vecs = pairs[0][:count], pairs[1][:, :count]
    else:
        shift = None
        for sigma in sigma * 2.0 ** np.arange(5) if sigma else ():
            counted = inertia(sigma)
            if counted is None or counted[0] == 0:
                shift = counted and (sigma, counted[1])
                break
        vals, vecs = leading_eigpairs(op, count, seed=seed, shift=shift)
    if vals[-1] <= EIG_TOL:
        raise EigenCountMismatch(
            f"{count} eigenvalues above {EIG_TOL:g} counted, but Ritz value "
            f"{vals.size} of {vals.size} is {vals[-1]:.6g}")
    return PsdFactor(np.asfortranarray(vecs), vals)
