"""Partial symmetric eigendecomposition of implicit operators.

The solver repeatedly needs the positive spectral part of a symmetric
operator that is only available through matrix-vector products.  ARPACK's
implicitly restarted Lanczos (``scipy.sparse.linalg.eigsh``) computes the
leading eigenpairs; this module wraps it with a seeded start vector,
adaptive subspace growth until the positive spectrum is provably captured
(or its partial norm passes a caller's limit), and a dense fallback for
operators too small for ARPACK.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh


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
    bounds.
    Downstream code must depend only on the projector and the eigenvalue
    multiset, never on individual eigenvectors (clusters may rotate).
    """

    vectors: np.ndarray
    values: np.ndarray
    truncated: bool = False

    @property
    def rank(self):
        return self.values.size

    def frob_norm_sq(self):
        return float(np.sum(self.values ** 2))

    def reconstruct(self):
        return (self.vectors * self.values) @ self.vectors.T


class EigenConvergenceError(RuntimeError):
    """Eigensolver failed to converge; carries the best-effort factor."""

    def __init__(self, message, factor, residuals):
        super().__init__(message)
        self.factor = factor
        self.residuals = residuals


def _dense_spectrum(op):
    mat = np.column_stack([op.apply(col) for col in np.eye(op.n)])
    mat = 0.5 * (mat + mat.T)
    vals, vecs = np.linalg.eigh(mat)
    return vals[::-1].copy(), vecs[:, ::-1].copy()  # descending


def leading_eigpairs(op, k, tol=1e-8, seed=0, restarts=50):
    """Top-k algebraic eigenpairs of a symmetric operator, descending.

    Uses ARPACK with a seeded pseudo-random start vector and Krylov
    dimension ``min(n, max(2k + 10, 30))``.  The floor of 30 matters for
    small k: a subspace of only 2k + 10 vectors can converge to k Ritz
    values that are not the top of the spectrum, so a positive part built
    from them silently misses eigenvalues and its dual value is no bound.
    The start is never warm: Lanczos from a combination of a nearby
    operator's eigenvectors can miss new positive directions.  Falls back
    to a dense eigendecomposition built from n matvecs when k >= n - 1
    (ARPACK requires k < n).  Deterministic for fixed (op, seed) in
    single-threaded mode.
    """
    n = op.n
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got {k}")
    if k >= n - 1:
        vals, vecs = _dense_spectrum(op)
        return vals[:k], vecs[:, :k]

    v0 = np.random.default_rng(seed).standard_normal(n)
    v0 /= np.linalg.norm(v0)
    scipy_op = LinearOperator((n, n), matvec=op.matvec, dtype=np.float64)
    ncv = min(n, max(2 * k + 10, 30))
    try:
        vals, vecs = eigsh(scipy_op, k=k, which="LA", v0=v0, ncv=ncv,
                           tol=tol, maxiter=restarts)
    except ArpackNoConvergence as exc:
        got = np.asarray(exc.eigenvalues, dtype=np.float64)
        got_vecs = np.asarray(exc.eigenvectors, dtype=np.float64)
        order = np.argsort(got)[::-1]
        vals, vecs = got[order], got_vecs[:, order]
        pos = vals > 0.0
        factor = PsdFactor(vecs[:, pos], vals[pos], truncated=True)
        residuals = np.array([np.linalg.norm(op.apply(vecs[:, i]) - vals[i] * vecs[:, i])
                              for i in range(vals.size)])
        raise EigenConvergenceError(
            f"eigensolver converged to only {vals.size} of {k} requested pairs "
            f"after {restarts} restarts", factor, residuals) from exc
    order = np.argsort(vals)[::-1]
    return vals[order], vecs[:, order]


def leading_psd_part(op, max_rank, tol=1e-8, seed=0, k0=None, restarts=50,
                     frob_limit=np.inf):
    """All eigenpairs with eigenvalue above ``tol * max(|lambda|, 1)``, up
    to ``max_rank`` of them, as a :class:`PsdFactor`.

    The request size starts at ``k0`` (default min(10, max_rank)) and
    doubles until the smallest returned eigenvalue drops below the
    positivity threshold (proof that the whole positive spectrum is in
    hand) or the rank cap is reached, in which case the factor is marked
    truncated.  A single returned eigenvalue at or below the threshold
    proves completeness, so a request needs only one or two pairs beyond
    the expected positive rank; the Krylov floor of
    :func:`leading_eigpairs` keeps such small requests from stopping on
    Ritz values that are not the leading ones.

    Ritz values never exceed the eigenvalues of the same rank, so the sum
    of squares of returned positive values is a lower estimate of
    ``||op_+||_F^2``.  Once it exceeds ``frob_limit`` the growth stops and
    that partial factor is returned marked truncated: a caller that only
    needs to know whether the norm passes a limit learns it without the
    rest of the positive spectrum.
    """
    n = op.n
    if not 1 <= max_rank <= n:
        raise ValueError(f"need 1 <= max_rank <= {n}, got {max_rank}")
    cap = max_rank
    k = min(k0 if k0 is not None else min(10, cap), cap)
    while True:
        vals, vecs = leading_eigpairs(op, k, tol=tol, seed=seed,
                                      restarts=restarts)
        thresh = tol * max(np.abs(vals).max(initial=0.0), 1.0)
        full_spectrum = vals.size >= n  # dense fallback returned everything
        if vals[-1] <= thresh or full_spectrum:
            keep = vals > thresh
            return PsdFactor(vecs[:, keep][:, :cap], vals[keep][:cap],
                             truncated=bool(np.count_nonzero(keep) > cap))
        if k >= cap or np.sum(vals ** 2) > frob_limit:
            return PsdFactor(vecs, vals, truncated=True)
        k = min(2 * k, cap)
