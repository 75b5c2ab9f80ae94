"""Partial symmetric eigendecomposition of implicit operators.

The solver repeatedly needs the positive spectral part of a symmetric
operator that is only available through matrix-vector products, or
through solves with a copy shifted past its spectrum.  ARPACK's implicitly
restarted Lanczos (``scipy.sparse.linalg.eigsh``) computes the leading
eigenpairs, in shift-invert mode when given the solves; this module wraps
it, at one tolerance (``EIG_TOL``, also the positivity threshold) and one
restart budget (``EIG_RESTARTS``), with seeded random vectors, a Krylov
dimension sized per mode, and a dense fallback for operators too small
for ARPACK.  A positive part takes at most one Lanczos request: exactly
the caller's count of positive eigenvalues (which then proves the factor
complete, and a Lanczos result that contradicts it is a typed failure),
capped at the caller's rank cap, or the rank cap itself where no count
is given.  Eigenpairs already in hand can stand in for that run, and a
call that the caller has already rejected skips it.
"""

import inspect
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

# ARPACK asks for a new random vector whenever Lanczos reaches an invariant
# subspace.  eigsh draws it from its ``rng`` argument, or from fresh OS
# entropy when none is given, so only a seeded draw repeats; scipy releases
# without the argument leave the draw to ARPACK itself.
_SEEDED_RESTARTS = "rng" in inspect.signature(eigsh).parameters

# ARPACK's convergence tolerance and the positivity threshold of a positive part
EIG_TOL = 1e-8
# ARPACK restarts before a Lanczos run counts as stalled
EIG_RESTARTS = 50


@dataclass(frozen=True)
class SymmetricOperator:
    """A symmetric linear map given by its dimension and matvec closure."""

    n: int
    apply: Callable

    def matvec(self, d):
        return self.apply(np.asarray(d, dtype=np.float64).ravel())


@dataclass(frozen=True)
class PsdFactor:
    """Eigenpairs (vectors, values) of the positive spectral part.

    ``vectors`` has orthonormal columns, ``values`` is strictly positive
    and descending; the represented matrix is
    ``vectors @ diag(values) @ vectors.T``.  ``truncated`` marks factors
    whose positive spectrum may extend past the rank cap or an early stop,
    in which case dual values derived from them are not certified lower
    bounds.  Downstream code must depend only on the projector and the
    eigenvalue multiset, never on single eigenvectors (clusters may rotate).
    """

    vectors: np.ndarray
    values: np.ndarray
    truncated: bool = False

    @property
    def rank(self):
        return self.values.size

    def frob_norm_sq(self):
        return float(np.sum(self.values ** 2))


class EigenConvergenceError(RuntimeError):
    """Eigensolver failed to converge; carries the best-effort factor."""

    def __init__(self, message, factor):
        super().__init__(message)
        self.factor = factor


class EigenCountMismatch(RuntimeError):
    """Lanczos returned fewer eigenvalues above the threshold than an
    inertia count proved; carries the factor, marked truncated."""

    def __init__(self, message, factor):
        super().__init__(message)
        self.factor = factor


def _dense_spectrum(op):
    mat = np.column_stack([op.apply(col) for col in np.eye(op.n)])
    mat = 0.5 * (mat + mat.T)
    vals, vecs = np.linalg.eigh(mat)
    return vals[::-1].copy(), vecs[:, ::-1].copy()  # descending


def leading_eigpairs(op, k, seed, shift=None):
    """Top-k algebraic eigenpairs of a symmetric operator, descending.

    Uses ARPACK (tolerance ``EIG_TOL``, at most ``EIG_RESTARTS`` restarts)
    with a seeded pseudo-random start vector and Krylov dimension
    ``min(n, max(2k + 10, 30))``.  The floor of 30 matters for small k:
    a subspace of only 2k + 10 vectors can converge to k Ritz
    values that are not the top of the spectrum, so a positive part built
    from them silently misses eigenvalues and its dual value is no bound.
    ``shift = (sigma, solve)``, with sigma above op's spectrum and
    ``solve(b) = (op - sigma I)^-1 b``, runs ARPACK in shift-invert mode on
    ``solve`` alone, whose largest-magnitude eigenvalues 1/(lambda - sigma)
    are op's top k, spread apart (Ericsson & Ruhe 1980), in a Krylov
    dimension of only ``min(n, max(k + 10, 20))``: every restart builds all
    ncv Lanczos steps (Lehoucq & Sorensen 1996), and only counted requests
    run shift-invert, whose count turns a misconvergence into
    :class:`EigenCountMismatch`.  Plain runs keep the floor of 30, which
    guards the uncounted requests.
    The start is never warm: Lanczos from a combination of a nearby
    operator's eigenvectors can miss new positive directions.  Falls back
    to a dense eigendecomposition built from n matvecs when k >= n - 1
    (ARPACK requires k < n).  Deterministic for fixed (op, seed) in
    single-threaded mode: the vectors ARPACK draws when Lanczos reaches an
    invariant subspace come from the start vector's seeded generator (on
    scipy releases whose eigsh takes ``rng``), never from fresh entropy.
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
    scipy_op = LinearOperator((n, n), matvec=op.matvec, dtype=np.float64)
    mode = {"which": "LA"} if shift is None else {"which": "LM", "sigma": shift[0],
        "OPinv": LinearOperator((n, n), matvec=shift[1], dtype=np.float64)}
    ncv = min(n, max(2 * k + 10, 30) if shift is None else max(k + 10, 20))
    try:
        vals, vecs = eigsh(scipy_op, k=k, v0=v0, ncv=ncv, tol=EIG_TOL,
                           maxiter=EIG_RESTARTS, **mode,
                           **({"rng": rng} if _SEEDED_RESTARTS else {}))
    except ArpackNoConvergence as exc:
        got = np.asarray(exc.eigenvalues, dtype=np.float64)
        order = np.argsort(got)[::-1]
        pos = order[got[order] > 0.0]
        factor = PsdFactor(np.asarray(exc.eigenvectors, dtype=np.float64)[:, pos],
                           got[pos], truncated=True)
        raise EigenConvergenceError(
            f"eigensolver converged to only {got.size} of {k} requested pairs "
            f"after {EIG_RESTARTS} restarts", factor) from exc
    order = np.argsort(vals)[::-1]
    return vals[order], vecs[:, order]


def _proven_part(vals, vecs, count, max_rank, n):
    """The positive part that descending leading pairs give, capped at
    ``max_rank``, and whether they prove it complete (see
    :func:`leading_psd_part`)."""
    thresh = EIG_TOL * max(np.abs(vals).max(initial=0.0), 1.0)
    keep = vals > thresh
    if count is None:
        # the dense fallback returns the whole spectrum
        complete = vals[-1] <= thresh or vals.size >= n
    elif vals[-1] <= EIG_TOL:
        raise EigenCountMismatch(
            f"{count} eigenvalues above {EIG_TOL:g} counted, but Ritz "
            f"value {vals.size} of {vals.size} is {vals[-1]:.6g}; factor "
            "marked truncated",
            PsdFactor(vecs[:, keep], vals[keep], truncated=True))
    else:
        complete = vals.size == count
    truncated = not complete or np.count_nonzero(keep) > max_rank
    return PsdFactor(vecs[:, keep][:, :max_rank], vals[keep][:max_rank],
                     truncated=bool(truncated)), complete


def leading_psd_part(op, max_rank, seed=0, rejected=False, count=None,
                     pairs=None, shift=None):
    """All eigenpairs with eigenvalue above ``EIG_TOL * max(|lambda|, 1)``,
    up to ``max_rank`` of them, as a :class:`PsdFactor`, from at most one
    Lanczos run.

    ``count``, when given, is the exact number p of eigenvalues above
    ``EIG_TOL`` (from an inertia count of the operator).  It sizes the
    request and proves the factor complete: p = 0 returns an empty factor
    without a Lanczos run, and otherwise the run asks for exactly
    min(p, max_rank) pairs; the factor is complete when p Ritz values
    above ``EIG_TOL`` are in hand and truncated when p exceeds the rank
    cap.  A returned Ritz value at or below ``EIG_TOL`` among the first p
    contradicts the count and raises :class:`EigenCountMismatch`,
    carrying the factor marked truncated.  Without a count (the caller
    has none, or its count was undecided) the run asks for ``max_rank``
    pairs, and the factor is complete only when the last of them is at or
    below the positivity threshold (or the run covered the whole
    spectrum); otherwise it is marked truncated.

    ``rejected`` marks an operator the caller has already rejected (by a
    lower bound on ``||op_+||_F^2``, say): the call returns a rank-0 factor
    marked truncated at once, without a Lanczos run or a matvec.

    ``pairs``, when given, are leading eigenpairs ``(values, vectors)`` of
    ``op`` already in hand (values descending), for instance the exact
    pairs of a shifted copy of the operator, from a Lanczos run or a small
    dense problem in a low-rank range.  They stand in for the Lanczos run
    under the same proofs: without a count, a value at or below the
    threshold proves the positive part complete; with a count, p values
    above ``EIG_TOL`` do, and a value at or below ``EIG_TOL`` among the
    first p raises :class:`EigenCountMismatch`.  Pairs that prove neither
    leave the call exactly as it would be without them.  ``shift`` goes
    to the Lanczos run and changes no proof.
    """
    n = op.n
    if not 1 <= max_rank <= n:
        raise ValueError(f"need 1 <= max_rank <= {n}, got {max_rank}")
    if rejected or count == 0:
        return PsdFactor(np.zeros((n, 0)), np.zeros(0), truncated=rejected)
    if pairs is not None:
        factor, complete = _proven_part(pairs[0][:count], pairs[1][:, :count],
                                        count, max_rank, n)
        if complete:
            return factor
    k = max_rank if count is None else min(count, max_rank)
    vals, vecs = leading_eigpairs(op, k, seed=seed, shift=shift)
    return _proven_part(vals, vecs, count, max_rank, n)[0]
