"""Low-rank dual quasi-Newton solver for the SDP relaxation of MAP inference.

The lifted binary program is relaxed to a penalized SDP whose Lagrangian
dual eliminates the matrix variable:

    d_gamma(u) = -(gamma/2) ||(C(u))_+||_F^2 - u'b - eta^2 / (2 gamma),
    C(u) = -A - sum_i u_i B_i,

so one dual evaluation only needs the positive eigenpairs of C(u), which a
matrix-free Lanczos solver obtains from structured O(N) matvecs.  Each
lifting assembles C(u)'s blocks once per dual point, so a matvec is one
low-rank kernel product plus a few small products; C(0) = -A.  Every
kernel stack is K/2 = c I + G Diag(s) G' with a thin G and s = +-1
(block-diagonal kernels' columns held once for all blocks), so
the inertia count of C(u) - sigma I factors a small Schur complement,
which also solves with C(u) - sigma I at about a matvec's cost (in
either lifting): a count proving sigma above the spectrum lets Lanczos
run in shift-invert mode.  The same blocks give a
cheap lower bound on ||C(u)_+||_F^2 (the pinching inequality over C(u)'s
diagonal blocks), which values an overshooting line-search trial at -inf,
below any iterate, before any inertia count or Lanczos run.
The solver starts at a dual point where C(u) = -A + nu I has low
positive rank (the eigenpairs of -A that give nu, exact from a dense
problem of dimension at most 2L + R for Potts with unblocked low-rank
kernels only, give its positive part), ascends the dual with limited-memory
BFGS, rounds the implicit primal matrix ``Y = gamma (C(u))_+`` to a
feasible labeling at every iteration (for Potts the row argmax of Y's
variable-by-label block, the relaxed X; for the general lifting the best
of ``n_samples`` Gaussian samples of N(0, Y), and the row argmax of
diag(Y)), polishes it with parallel ICM sweeps, keeps the best, and
stops early once the relative dual improvement falls below a threshold.
Any untruncated dual value is a certified lower bound on the optimal
lifted energy.

Two liftings are supported: the compact (N+L)-dimensional one for Potts
compatibility and the (N*L)-dimensional one for a general symmetric label
compatibility matrix (the latter is experimental).
"""

import time
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import qr
from scipy.linalg.lapack import dsytrf, dsytri, dsytrs

from .crf import (energy_offset, lifted_energy, lifted_energy_general, messages,
                  to_indicator)
from .eig import (EIG_TOL, EigenConvergenceError, EigenCountMismatch,
                  SymmetricOperator, leading_eigpairs, leading_psd_part)
from .kernels import CenteredDiscriminativeKernel

# a pivot or Schur pivot this close to zero, relative to the roundoff scale
# of the Schur complement's entries, leaves the inertia count undecided
COUNT_REL_TOL = 1e-10

# L-BFGS ascent: curvature pairs kept, the gradient size (infinity norm)
# taken as convergence, the sufficient-increase constant, and the failed
# halvings that mark a line search stalled
LBFGS_MEMORY = 10
STEP_TOL = 1e-10
ARMIJO = 1e-4
MAX_HALVINGS = 30


def _half_kernel_factor(problem):
    """``(c, G, s, spans, k)`` with K/2 = c I + G Diag(s) G' for the
    kernel stack: G is column-major, s = +-1 per column, and G's first k
    columns stand for one copy per block j, kept on its rows
    ``spans[j] = (lo, hi)`` and zero elsewhere (no spans and k = 0 without
    a blocked kernel).  A low-rank kernel w phi phi' adds the columns
    sqrt(w/2) phi, among the first k when block-diagonal over the first
    blocked kernel's blocks (padded when over others); a centered kernel
    w scale (Omega - phi phi'), Omega = I - 11'/N, adds c = w scale / 2
    and the negative columns sqrt(c) [1/sqrt(N), phi]."""
    n, c, cols, signs, blocked = problem.n_vars, 0.0, [], [], []
    offsets = next((k.blocks for k in problem.kernels
                    if getattr(k, "blocks", None) is not None), None)
    for k in problem.kernels:
        if isinstance(k, CenteredDiscriminativeKernel):
            half, sign = 0.5 * k.weight * k.scale, -1.0
            c += half
            col = np.sqrt(half) * np.column_stack([np.full(n, n ** -0.5),
                                                  k.factor.phi])
        elif k.blocks is not None and np.array_equal(k.blocks, offsets):
            blocked.append(np.sqrt(0.5 * k.weight) * k.factor.phi)
            continue
        else:  # member[i, j] = 1 where variable i lies in block j
            edges, sign = [0, n] if k.blocks is None else k.blocks, 1.0
            member = np.repeat(np.eye(len(edges) - 1), np.diff(edges), axis=0)
            col = (member[:, :, None] * np.sqrt(0.5 * k.weight)
                   * k.factor.phi[:, None, :]).reshape(n, -1)
        cols.append(col)
        signs.append(np.full(col.shape[1], sign))
    width = sum(col.shape[1] for col in blocked)
    return (c, np.asfortranarray(np.hstack([np.zeros((n, 0))] + blocked + cols)),
            np.concatenate([np.ones(width)] + signs),
            [] if offsets is None else list(zip(offsets[:-1], offsets[1:])), width)


def _positive_inertia(pivots_positive, factored, noise):
    """Haynsworth inertia count ``pivots_positive + pos(S)``.

    The positive count of the symmetric Schur complement S is read off
    ``factored = dsytrf(S, lower=1)``, its Bunch-Kaufman factorization
    ``P S P' = L D L'`` (Sylvester's law of inertia: D has the inertia of
    S).  D holds 1 x 1 pivots and 2 x 2 blocks; returns None when a pivot
    or a block eigenvalue lies within ``noise`` of zero.
    """
    ldu, ipiv, info = factored
    if info != 0:
        return None
    d = np.diag(ldu)
    # a 2 x 2 block spans two negative ipiv entries; runs of them hold
    # whole blocks, so blocks start at even offsets within a run
    neg = ipiv < 0
    at = np.arange(d.size)
    offset = at - np.maximum.accumulate(np.where(neg, -1, at)) - 1
    first = np.flatnonzero(neg & (offset % 2 == 0))
    a, b, c = d[first], ldu[first + 1, first], d[first + 1]
    half, radius = 0.5 * (a + c), np.hypot(0.5 * (a - c), b)
    eigs = np.concatenate([d[~neg], half - radius, half + radius])
    if np.any(np.abs(eigs) <= noise):
        return None
    return int(pivots_positive + np.count_nonzero(eigs > 0.0))


def _blocked_inertia(border, tops, gram, block_noise, rest_noise, positive):
    """``(count, solve)`` for a count's Schur complement S = border - M
    whose first k columns repeat per block j: ``tops[j]`` holds block j's
    k x (k+p) rows of M and ``gram`` M's last p x p part, so S = [[A, C],
    [C', T]] with A_j = border_kk - tops[j]_k, C_j = -tops[j]_p and
    T = border_pp - gram.  Haynsworth additivity gives In(S) = sum_j In(A_j)
    + In(T - sum_j C_j' A_j^-1 C_j): count = positive + pos(S), and
    ``solve(r_b, r)`` is S^-1 [r_b; r] as ``(z_b, z)`` (r_b, z_b: b x k).
    None when a pivot of A_j lies within ``block_noise[j]`` of zero, or one
    of the last within ``rest_noise`` plus the correction's roundoff."""
    k = tops.shape[1]
    rest = border[k:, k:] - gram
    if k:
        blocks, cross = border[:k, :k] - tops[:, :, :k], -tops[:, :, k:]
        inverse = np.zeros(blocks.shape)
        for j, block in enumerate(blocks):
            ldu, ipiv, _ = factored = dsytrf(block, lower=1)
            positive = _positive_inertia(positive, factored, block_noise[j])
            if positive is None:
                return None
            inverse[j] = np.tril(dsytri(ldu, ipiv, lower=1)[0])
        inverse += np.tril(inverse, -1).transpose(0, 2, 1)
        reduced = inverse @ cross  # the A_j^-1 C_j
        correction = np.einsum("jkp,jkq->pq", cross, reduced)
        rest -= correction
        rest_noise += COUNT_REL_TOL * np.abs(correction).max(initial=0.0)
    ldu, ipiv, _ = factored = dsytrf(rest, lower=1)
    count = _positive_inertia(positive, factored, rest_noise)

    def solve(r_b, r):
        if k:  # the block-diagonal columns are eliminated first
            r = r - np.einsum("jkp,jk->p", reduced, r_b)
        z = dsytrs(ldu, ipiv, r, lower=1)[0] if r.size else r
        return (np.einsum("jkl,jl->jk", inverse, r_b) - reduced @ z if k else r_b), z
    return None if count is None else (count, solve)


def _block_pivots(blocks):
    """Positive eigenvalue count of N symmetric L x L blocks and the
    upper-triangle entries (``np.triu_indices(L)`` order) of their
    inverses, or None when a block is within roundoff of singular.

    3 x 3 blocks use closed forms: the adjugate, and the signs of the
    characteristic polynomial's coefficients ``tr``, ``c2`` (sum of the
    principal 2 x 2 minors) and ``det``.  With real eigenvalues and
    det > 0 there are three positive ones when tr > 0 and c2 > 0, else
    one; with det < 0 none when tr < 0 and c2 > 0, else two.
    """
    if blocks.shape[1] != 3:
        vals, vecs = np.linalg.eigh(blocks)
        size = np.abs(vals)
        if np.any(size.min(axis=1) <= COUNT_REL_TOL * size.max(axis=1)):
            return None
        inverse = (vecs / vals[:, None, :]) @ vecs.transpose(0, 2, 1)
        rows, cols = np.triu_indices(blocks.shape[1])
        return np.count_nonzero(vals > 0.0), inverse[:, rows, cols]
    a, b, c = blocks[:, 0, 0], blocks[:, 0, 1], blocks[:, 0, 2]
    d, e, f = blocks[:, 1, 1], blocks[:, 1, 2], blocks[:, 2, 2]
    cof = np.stack([d * f - e * e, c * e - b * f, b * e - c * d,
                    a * f - c * c, b * c - a * e, a * d - b * b], axis=1)
    det = a * cof[:, 0] + b * cof[:, 1] + c * cof[:, 2]
    norm_sq = np.einsum("ilm,ilm->i", blocks, blocks)
    if np.any(det * det <= COUNT_REL_TOL ** 2 * norm_sq ** 3):
        return None
    trace, minors = a + d + f, cof[:, 0] + cof[:, 3] + cof[:, 5]
    positive = np.where(det > 0.0, np.where((trace > 0.0) & (minors > 0.0), 3, 1),
                        np.where((trace < 0.0) & (minors > 0.0), 0, 2))
    return int(positive.sum()), cof / det[:, None]


class SdpLifting:
    """Penalized SDP data shared by the two liftings.

    A lifting has an n x n matrix variable Y, q constraints
    ``<Y, B_i> = b_i`` that force trace(Y) = eta, and a constant q-vector
    ``identity`` whose weighted constraint matrices sum to the identity,
    ``sum_i identity_i B_i = I`` with ``identity @ b = eta``.  Subclasses
    supply ``assemble(u)``, the structured blocks of C(u) built once per
    dual point, and, reading those blocks: ``c_matvec(parts, d)``, their
    product with a vector; ``shifted_inverse(parts, sigma)``, the number of
    eigenvalues of C(u) above sigma from an inertia count that needs no
    Lanczos run, with a solve with C(u) - sigma I from the same
    factorization (every kernel stack is counted, :func:`_half_kernel_factor`),
    or None where a pivot leaves the count undecided; and
    ``pinched_norm_sq(parts)``, a lower bound on ||C(u)_+||_F^2.  They
    also supply the gradient from a positive-part factor.  C(0) = -A, so
    the products with A are those of ``operator(0)``.

    The bound is the pinching inequality: max(x, 0)^2 is convex, so the
    eigenvalues of any block-diagonal part of a symmetric matrix, which
    they majorize (Schur-Horn), have a sum of squared positive parts no
    larger than the whole matrix's.
    """

    def __init__(self, problem, gamma, n, eta, b, identity):
        if gamma <= 0.0:
            raise ValueError("gamma must be positive")
        self.problem = problem
        self.gamma = float(gamma)
        self.n_vars = problem.n_vars
        self.n_labels = problem.n_labels
        self.n = n
        self.eta = float(eta)
        self.b = b
        self.q = b.size
        self.identity = identity
        self.tril_rows, self.tril_cols = np.tril_indices(self.n_labels, -1)
        # K/2 = c I + G Diag(s) G' for shifted_inverse's inertia count, with
        # G's first k columns block-diagonal over the spans
        (self._count_shift, self._count_factor, self._count_signs,
         self._count_spans, self._blocked_width) = _half_kernel_factor(problem)
        self._count_row_sq = np.sum(self._count_factor ** 2, axis=1)

    def _vector(self, d):
        d = np.asarray(d, dtype=np.float64)
        if d.shape != (self.n,):
            raise ValueError(f"expected vector of length {self.n}, got {d.shape}")
        return d

    def operator(self, u):
        """C(u) as a matvec closure over its blocks, assembled once here."""
        u = np.asarray(u, dtype=np.float64)
        return self.parts_operator(self.assemble(u))

    def parts_operator(self, parts):
        """C(u) as a matvec closure over :meth:`assemble`'s blocks."""
        return SymmetricOperator(self.n, lambda d: self.c_matvec(parts, d))

    def dual_objective(self, u, psd):
        """Dual value at u given the positive part of C(u) for that exact u.

        The value is a lower bound on the optimal lifted energy whenever
        the factor is untruncated (the ``truncated`` flag on the factor
        marks the exceptions).
        """
        return (-0.5 * self.gamma * psd.frob_norm_sq() - u @ self.b
                - self.eta ** 2 / (2.0 * self.gamma))


class PottsSdp(SdpLifting):
    """Penalized SDP data for the compact Potts lifting.

    The matrix variable has dimension n = N + L and represents
    ``[I_L; X] [I_L; X]'``.  Constraints pin the label block to the
    identity (diagonal ones, symmetrized off-diagonals zero), couple each
    variable row to the label block with row-sum one, and fix the variable
    diagonal to one; q = 2N + L(L+1)/2 in total, and the constraints force
    trace(Y) = eta = N + L.  Dual variables are packed as
    ``u = [u1 (L); u2 (L(L-1)/2, lower-triangle order); u3 (N); u4 (N)]``;
    the u1 and u4 diagonal constraints sum to the identity.
    """

    def __init__(self, problem, gamma):
        if not problem.is_potts:
            raise ValueError("PottsSdp requires a Potts problem")
        n_vars, n_labels = problem.n_vars, problem.n_labels
        n_pairs = n_labels * (n_labels - 1) // 2
        b = np.concatenate([np.ones(n_labels), np.zeros(n_pairs),
                            np.ones(n_vars), np.ones(n_vars)])
        identity = np.concatenate([np.ones(n_labels), np.zeros(n_pairs),
                                   np.zeros(n_vars), np.ones(n_vars)])
        super().__init__(problem, gamma, n=n_vars + n_labels,
                         eta=n_vars + n_labels, b=b, identity=identity)

    def assemble(self, u):
        """C(u)'s blocks ``(head, coupling, diag, w)``, with
        ``C(u) = [[head, coupling'], [coupling, Diag(diag) + K/2]]``:
        head = -Diag(u1) - ltri(u2)/2 (L x L), coupling = -(H + u3 1')/2
        (N x L), diag = -u4 for u = [u1; u2; u3; u4], and ``w = [G, coupling]``
        (N x (R+L), K/2 = c I + G Diag(s) G'), column-major so that its
        columns are contiguous; coupling is a view of its last L columns."""
        L, N = self.n_labels, self.n_vars
        p = self.tril_rows.size
        u1, u2, u3, u4 = u[:L], u[L:L + p], u[L + p:L + p + N], u[L + p + N:]
        ltri = np.zeros((L, L))
        ltri[self.tril_rows, self.tril_cols] = u2
        head = -np.diag(u1) - 0.5 * (ltri + ltri.T)
        coupling = -0.5 * (self.problem.unary + u3[:, None])
        w = np.empty((N, self._count_factor.shape[1] + L), order="F")
        w[:, :-L], w[:, -L:] = self._count_factor, coupling
        return head, w[:, -L:], -u4, w

    def c_matvec(self, parts, d):
        """C(u) d from :meth:`assemble`'s blocks in O(NL + N R_K)."""
        head, coupling, diag, _ = parts
        d = self._vector(d)
        L = self.n_labels
        d1, d2 = d[:L], d[L:]
        out = np.empty(self.n)
        out[:L] = head @ d1 + d2 @ coupling
        np.multiply(diag, d2, out=out[L:])
        out[L:] += coupling @ d1 + 0.5 * self.problem.kernel_matvec(d2)
        return out

    def dual_gradient(self, u, psd):
        """Gradient entries gamma <(C(u))_+, B_i> - b_i from the factor.

        Inner products against the structured constraint matrices read off
        weighted row norms and small bilinear forms of the eigenvector
        blocks; the projection is never materialized.
        """
        L = self.n_labels
        lam = psd.values
        if lam.size == 0:
            return -self.b.copy()
        g_lab = psd.vectors[:L]
        g_var = psd.vectors[L:]
        inner_u1 = (g_lab ** 2) @ lam
        label_gram = (g_lab * lam) @ g_lab.T
        inner_u2 = label_gram[self.tril_rows, self.tril_cols]
        col_sums = g_lab.sum(axis=0)
        inner_u3 = g_var @ (lam * col_sums)
        inner_u4 = (g_var ** 2) @ lam
        inner = np.concatenate([inner_u1, inner_u2, inner_u3, inner_u4])
        return self.gamma * inner - self.b

    def pinched_norm_sq(self, parts):
        """Lower bound on ||C(u)_+||_F^2 from the diagonal blocks of C(u)
        (:meth:`assemble`'s ``parts``), in O(N + L^3): the L x L head and
        the N variable entries ``diag_j + K_jj/2``."""
        head, _, diag, _ = parts
        head_eigs = np.maximum(np.linalg.eigvalsh(head), 0.0)
        var = np.maximum(diag + 0.5 * self.problem.kernel_diag(), 0.0)
        return float(head_eigs @ head_eigs + var @ var)

    def shifted_inverse(self, parts, sigma):
        """``(count, solve)``: the number of eigenvalues of C(u) above
        ``sigma``, in O(N (R+L)^2), and ``solve(b) = (C(u) - sigma I)^-1 b``
        from the same factorization, in two contiguous passes over the
        column-major D^-1 W that the Schur complement is built from.

        In C(u) - sigma I the variable block is D + G Diag(s) G', with the
        diagonal D = Diag(diag) + (c - sigma) I and K/2 = c I + G Diag(s) G'
        (G is N x R, s = +-1), and it couples to the L label rows through
        E = coupling, where ``(head, coupling, diag, W) = parts`` are
        :meth:`assemble`'s blocks.  Bordering G with -Diag(s) gives a
        matrix of inertia In(-Diag(s)) + In(C(u) - sigma I); by Haynsworth
        additivity its inertia is also In(D) + In(S) with the
        (R+L) x (R+L) Schur complement
        ``S = blockdiag(-Diag(s), head - sigma I) - W' D^-1 W``, W = [G, E].
        So the count is pos(D) + pos(S) - #(s < 0).  With b = [b1; b2], the
        solve is ``[z; x1] = S^-1 ([0; b1] - (D^-1 W)' b2)`` and
        ``x2 = D^-1 b2 - (D^-1 W) [z; x1]``, with D^-1 kept as reciprocals.
        G's first k columns stand for one padded copy per block (a
        block-diagonal kernel's), which S couples only within their block,
        so :func:`_blocked_inertia` eliminates them block by block and
        every product with them runs over one block's rows.
        None when a pivot or Schur pivot is within roundoff of zero.
        """
        head, coupling, diag, w = parts
        L, spans, k = self.n_labels, self._count_spans, self._blocked_width
        pivots = diag + (self._count_shift - sigma)
        size = np.abs(pivots)
        if size.min() <= COUNT_REL_TOL * size.max():
            return None
        head = head - sigma * np.eye(L)
        w_scaled, inverse = w / pivots[:, None], 1.0 / pivots
        # entries of W' D^-1 W carry roundoff relative to sum_i |w_i|^2 / |d_i|
        row_sq = self._count_row_sq + np.sum(coupling ** 2, axis=1)
        border = np.diag(np.append(-self._count_signs, np.zeros(L)))
        border[-L:, -L:] = head
        inertia = _blocked_inertia(
            border,
            np.reshape([w_scaled[lo:hi, :k].T @ w[lo:hi] for lo, hi in spans],
                       (len(spans), k, w.shape[1])), w[:, k:].T @ w_scaled[:, k:],
            [COUNT_REL_TOL * (row_sq[lo:hi] @ (1.0 / size[lo:hi]) + 1.0)
             for lo, hi in spans],
            COUNT_REL_TOL * (row_sq @ (1.0 / size) + np.abs(head).max() + 1.0),
            np.count_nonzero(pivots > 0.0) - np.count_nonzero(self._count_signs < 0.0))
        if inertia is None:
            return None

        w_blocked, w_rest = w_scaled[:, :k], w_scaled[:, k:]

        def solve(b):
            b2 = b[L:]
            rhs = -(b2 @ w_rest)
            rhs[-L:] += b[:L]
            z_b, zx = inertia[1]([-(b2[lo:hi] @ w_blocked[lo:hi]) for lo, hi in spans],
                                 rhs)
            x2 = b2 * inverse - w_rest @ zx
            for (lo, hi), z_j in zip(spans, z_b):
                x2[lo:hi] -= w_blocked[lo:hi] @ z_j
            return np.concatenate([zx[-L:], x2])
        return inertia[0], solve


class GeneralSdp(SdpLifting):
    """Penalized SDP data for the general label-compatibility lifting.

    The matrix variable has dimension n = N*L and represents ``y y'`` for
    the one-hot vectorization y.  Per-variable constraints fix the
    diagonal block trace to one and zero its symmetrized off-diagonals;
    q = N + N L(L-1)/2 and trace(Y) = eta = N.  Dual variables are packed
    as ``u = [u1 (N); u2 (N blocks of L(L-1)/2)]``; the u1 block-trace
    constraints sum to the identity, so ``identity`` equals ``b``.
    """

    def __init__(self, problem, gamma):
        if problem.is_potts:
            raise ValueError("GeneralSdp requires an explicit compatibility matrix")
        n_vars, n_labels = problem.n_vars, problem.n_labels
        self.n_pairs = n_labels * (n_labels - 1) // 2
        b = np.concatenate([np.ones(n_vars), np.zeros(n_vars * self.n_pairs)])
        super().__init__(problem, gamma, n=n_vars * n_labels, eta=n_vars,
                         b=b, identity=b)
        # variable i's symmetric L x L constraint block Diag(u1_i) + ltri(u2_i)/2
        # is (u * block_weights)[block_gather[i]]: its diagonal reads u1_i and
        # its entry (l, m) off the diagonal the u2_i entry of the pair {l, m}
        pair = np.zeros((n_labels, n_labels), dtype=np.intp)
        pair[self.tril_rows, self.tril_cols] = np.arange(self.n_pairs)
        var = np.arange(n_vars)[:, None, None]
        self.block_gather = np.where(np.eye(n_labels, dtype=bool), var,
                                     n_vars + var * self.n_pairs + pair + pair.T)
        self.block_weights = np.where(np.arange(self.q) < n_vars, 1.0, 0.5)
        u_mat = problem.mu - 1.0
        self._half_u = 0.5 * u_mat
        # the count borders over U's nonzero eigenpairs (Lambda, V), so a
        # singular U needs no inverse; c I (x) U moves into the blocks
        u_eigs, u_vecs = np.linalg.eigh(u_mat)
        nonzero = np.abs(u_eigs) > COUNT_REL_TOL * np.abs(u_eigs).max()
        border = np.kron(self._count_signs, 1.0 / u_eigs[nonzero])
        self._count_u_vecs, self._count_head = u_vecs[:, nonzero], np.diag(border)
        # each block-diagonal column stands for one padded column per span
        k = self._blocked_width * np.count_nonzero(nonzero)
        self._count_offset = int(np.count_nonzero(border[k:] > 0.0) + len(
            self._count_spans) * np.count_nonzero(border[:k] > 0.0))
        self._count_block_shift = self._count_shift * u_mat
        # the upper-triangle label pair of every entry (l, m)
        rows, cols = np.triu_indices(n_labels)
        pair_of = np.zeros((n_labels, n_labels), dtype=np.intp)
        pair_of[rows, cols] = np.arange(rows.size)
        self._count_pair_of = np.maximum(pair_of, pair_of.T)

    def assemble(self, u):
        """C(u)'s N per-variable L x L blocks ``-Diag(h_i) - B_i(u)``, where
        ``B_i(u) = Diag(u1_i) + ltri(u2_i)/2``, gathered from u at once;
        ``C(u) = blocks - (K (x) U)/2`` with U = mu - 11'."""
        blocks = -(u * self.block_weights)[self.block_gather]
        diag = np.arange(self.n_labels)
        blocks[:, diag, diag] -= self.problem.unary
        return blocks

    def c_matvec(self, blocks, d):
        """C(u) d from :meth:`assemble`'s blocks: one einsum over them and
        one kernel product with the N x L unfolding of d, multiplied by U/2
        on the right, in O(N L R_K + N L^2) without forming the Kronecker
        product."""
        unfolded = self._vector(d).reshape(self.n_vars, self.n_labels)
        kd = self.problem.kernel_matvec(unfolded)
        return (np.einsum("ilm,im->il", blocks, unfolded)
                - kd @ self._half_u).reshape(-1)

    def dual_gradient(self, u, psd):
        lam = psd.values
        if lam.size == 0:
            return -self.b.copy()
        g = psd.vectors.reshape(self.n_vars, self.n_labels, lam.size)
        inner_u1 = np.einsum("ilr,r->i", g ** 2, lam)
        block_gram = np.einsum("ilr,r,imr->ilm", g, lam, g)
        inner_u2 = block_gram[:, self.tril_rows, self.tril_cols].reshape(-1)
        inner = np.concatenate([inner_u1, inner_u2])
        return self.gamma * inner - self.b

    def pinched_norm_sq(self, parts):
        """Lower bound on ||C(u)_+||_F^2 from C(u)'s N diagonal L x L
        blocks ``D_i - K_ii U/2`` (``parts`` are :meth:`assemble`'s D_i),
        in O(N L^3).  A block whose Gershgorin discs all lie at or left of
        zero is negative semidefinite and adds 0, so only the other blocks
        need eigenvalues."""
        diag_blocks = parts - self.problem.kernel_diag()[:, None, None] * self._half_u
        centers = np.diagonal(diag_blocks, axis1=1, axis2=2)
        right_ends = centers - np.abs(centers) + np.abs(diag_blocks).sum(axis=2)
        undecided = diag_blocks[np.any(right_ends > 0.0, axis=1)]
        eigs = np.maximum(np.linalg.eigvalsh(undecided), 0.0)
        return float(np.einsum("il,il->", eigs, eigs))

    def shifted_inverse(self, parts, sigma):
        """``(count, solve)``: the number of eigenvalues of C(u) above
        ``sigma``, in O(N R^2 L^2), and ``solve(b) = (C(u) - sigma I)^-1 b``
        from the same factorization, in O(N L R + N L^2 + R^2 L^2).

        With K/2 = c I + G Diag(s) G' (G is N x R, s = +-1), U = mu - 11'
        and U's m nonzero eigenpairs (Lambda, V),
        ``C(u) - sigma I = D + (G (x) V)(-Diag(s) (x) Lambda)(G (x) V)'``,
        with the N per-variable blocks D_i = -Diag(h_i) - B_i(u) - c U -
        sigma I (each L x L, :meth:`assemble`'s blocks ``parts`` shifted).
        Bordering with Diag(s) (x) Lambda^-1 and Haynsworth additivity give
        ``pos(C(u) - sigma I) + pos(Diag(s) (x) Lambda^-1) = sum_i pos(D_i)
        + pos(S)`` with the Rm x Rm Schur complement
        ``S = Diag(s) (x) Lambda^-1 - sum_i (g_i g_i') (x) V' D_i^-1 V``, so
        by Woodbury the solve is y = D^-1 b, z = S^-1 (G (x) V)'y and
        x = y + D^-1 (G (x) V) z, where (G (x) V)'y is G'Y V for the N x L
        unfolding Y of y.  G's first k columns, each standing for one
        padded copy per block, are eliminated block by block as in
        :meth:`PottsSdp.shifted_inverse`.  None when a block or Schur pivot
        is within roundoff of zero.
        """
        g, vecs, spans = self._count_factor, self._count_u_vecs, self._count_spans
        (N, R), (L, m), k = g.shape, vecs.shape, self._blocked_width
        pivots = _block_pivots(parts - self._count_block_shift
                               - sigma * np.eye(L))
        if pivots is None:
            return None
        positive, inverse = pivots

        def gram(left, right, inverse):
            # sum_i (l_i r_i') (x) D_i^-1 from one product over the label
            # pairs, then rotated to V' D_i^-1 V on its label axes
            lifted = (inverse[:, :, None] * right[:, None, :]).reshape(len(right), -1)
            pair = (left.T @ lifted).reshape(left.shape[1], inverse.shape[1],
                                            right.shape[1])[:, self._count_pair_of]
            pair = np.tensordot(vecs, np.tensordot(pair, vecs, axes=(2, 0)),
                                axes=(0, 1)).transpose(1, 0, 2, 3)
            return pair.reshape(left.shape[1] * m, right.shape[1] * m)
        # |g_i|^2 times the size of D_i^-1 scales the roundoff of variable
        # i's contribution
        spread = np.abs(inverse).sum(axis=1)
        scale = np.abs(self._count_head).max(initial=0.0)
        inertia = _blocked_inertia(
            self._count_head,
            np.reshape([gram(g[lo:hi, :k], g[lo:hi], inverse[lo:hi])
                        for lo, hi in spans], (len(spans), k * m, R * m)),
            gram(g[:, k:], g[:, k:], inverse),
            [COUNT_REL_TOL * (self._count_row_sq[lo:hi] @ spread[lo:hi] + scale)
             for lo, hi in spans],
            COUNT_REL_TOL * (self._count_row_sq @ spread + scale),
            positive - self._count_offset)
        if inertia is None:
            return None
        blocks_inv = inverse[:, self._count_pair_of]  # the N blocks D_i^-1
        g_blocked, g_rest = g[:, :k], g[:, k:]

        def solve(b):
            y = np.einsum("ilm,im->il", blocks_inv, b.reshape(N, L))
            z_b, z = inertia[1]([((g_blocked[lo:hi].T @ y[lo:hi]) @ vecs).reshape(-1)
                                 for lo, hi in spans],
                                ((g_rest.T @ y) @ vecs).reshape(-1))
            back = g_rest @ (z.reshape(R - k, m) @ vecs.T)
            for (lo, hi), z_j in zip(spans, z_b):
                back[lo:hi] += g_blocked[lo:hi] @ (z_j.reshape(k, m) @ vecs.T)
            y += np.einsum("ilm,im->il", blocks_inv, back)
            return y.reshape(-1)
        return inertia[0], solve


def make_sdp(problem, gamma):
    """The SDP lifting matching the problem's compatibility function."""
    return PottsSdp(problem, gamma) if problem.is_potts else GeneralSdp(problem, gamma)


def _low_rank_start_pairs(sdp, r):
    """C(0)'s r leading eigenpairs, descending, from a small dense problem,
    or None unless ``sdp`` is a Potts lifting whose kernel stack is
    K/2 = F F' with F = :func:`_half_kernel_factor`'s G (unblocked low-rank
    kernels only) and C(0) has at least r positive eigenvalues.

    C(0) = [[0, E'], [E, F F']] with E = -H/2 has rank at
    most 2L + R.  With the thin QR W = [E, F] = Q [R_E, R_F] it is
    B S B' for the orthonormal B = blockdiag(I_L, Q) and the small
    ``S = [[0, R_E'], [R_E, R_F R_F']]``, so each eigenpair (lambda, v) of
    S gives the exact eigenpair (lambda, B v) of C(0), and the rest of
    C(0)'s spectrum is zeros (Halko, Martinsson & Tropp 2011).  R_w is
    never inverted, so a rank-deficient W stays exact.
    """
    if (not isinstance(sdp, PottsSdp) or np.any(sdp._count_signs < 0.0)
            or sdp._blocked_width):
        return None
    L = sdp.n_labels
    q, r_w = qr(np.hstack([-0.5 * sdp.problem.unary, sdp._count_factor]),
                mode="economic")
    r_e, r_f = r_w[:, :L], r_w[:, L:]
    vals, vecs = np.linalg.eigh(np.block([[np.zeros((L, L)), r_e.T],
                                          [r_e, r_f @ r_f.T]]))
    if np.count_nonzero(vals > 0.0) < r:
        return None
    vals, vecs = vals[::-1][:r], vecs[:, ::-1][:, :r]
    return vals, np.vstack([vecs[:L], q @ vecs[L:]])


def spectral_shift_init(sdp, r, seed=0):
    """Dual start u0 with rank((C(u0))_+) <= r, and C(u0)'s leading
    eigenpairs.

    Returns ``(u0, pairs)`` with ``u0 = -nu * sdp.identity``, for which
    C(u0) = -A + nu I because the identity-weighted constraint matrices
    sum to I.  Its positive eigenvalues correspond to eigenvalues of A
    strictly below nu; choosing nu as the r-th smallest eigenvalue of A,
    from C(0) = -A's r leading eigenpairs, caps the initial positive rank
    at r (exactly r - 1 for a simple spectrum).  For a Potts lifting with
    unblocked low-rank kernels only those pairs are exact, from a dense problem of
    dimension at most 2L + R, whenever C(0) has r positive eigenvalues;
    otherwise a Lanczos run on C(0) started from ``seed`` finds them
    (``seed`` feeds only that run).  The same pairs give C(u0)'s r leading
    eigenpairs, ``pairs = (values - values[r - 1], vectors)``, whose last
    value is exactly 0, so they can stand in for a Lanczos run on C(u0)
    (``leading_psd_part(..., pairs=pairs)``).  The start is an ordinary
    dual point, so its dual value is a valid bound like any other.
    """
    if not 1 <= r <= sdp.n:
        raise ValueError(f"need 1 <= r <= {sdp.n}, got {r}")
    vals, vecs = (_low_rank_start_pairs(sdp, r)
                  or leading_eigpairs(sdp.operator(np.zeros(sdp.q)), r, seed=seed))
    return vals[r - 1] * sdp.identity, (vals - vals[r - 1], vecs)


def _counted_request(sdp, parts, sigma):
    """``(count, shift)`` for a dual evaluation's Lanczos request, from
    :meth:`~SdpLifting.shifted_inverse`: the number of C(u)'s eigenvalues
    above ``EIG_TOL`` (None where undecided), and ``(sigma, solve)`` for
    shift-invert Lanczos once a count of 0 at sigma, doubled at most 4
    times, proves it above the spectrum (else None, as at sigma 0)."""
    inverse = sdp.shifted_inverse(parts, EIG_TOL)
    count = inverse and inverse[0]
    if count and sigma:
        for sigma in sigma * 2.0 ** np.arange(5):
            inverse = sdp.shifted_inverse(parts, sigma)
            if inverse is None or inverse[0] == 0:
                return count, inverse and (sigma, inverse[1])
    return count, None


@dataclass
class AscentStep:
    """Outcome of one quasi-Newton step: the iterate's value and payload
    (unchanged when stalled)."""

    value: float
    payload: object
    converged: bool
    stalled: bool


class LbfgsAscent:
    """Limited-memory BFGS ascent with backtracking line search.

    Maximizes a concave objective through the equivalent minimization of
    its negation.  Each :meth:`step` builds a direction from the two-loop
    recursion over at most ``LBFGS_MEMORY`` curvature pairs (pairs with
    ``s'y <= 1e-12`` are skipped), then backtracks from a unit step,
    halving until the sufficient-increase condition with constant
    ``ARMIJO`` holds.  ``MAX_HALVINGS`` failed halvings mark the step
    stalled and leave the iterate unchanged; a gradient below ``STEP_TOL``
    marks convergence.
    """

    def __init__(self, obj_grad, u0):
        self._eval = obj_grad
        self._s = []
        self._y = []
        self.u = np.asarray(u0, dtype=np.float64).copy()
        self.value, self.grad, self.payload = obj_grad(self.u)
        self.n_evals = 1

    def _direction(self, g_min):
        """Two-loop recursion for the minimization gradient ``g_min``."""
        if not self._s:
            return -g_min / max(np.linalg.norm(g_min), 1.0)
        q = g_min.copy()
        alphas = []
        rhos = [1.0 / (y @ s) for s, y in zip(self._s, self._y)]
        for s, y, rho in zip(reversed(self._s), reversed(self._y),
                             reversed(rhos)):
            a = rho * (s @ q)
            alphas.append(a)
            q -= a * y
        s_last, y_last = self._s[-1], self._y[-1]
        q *= (s_last @ y_last) / (y_last @ y_last)
        for (s, y, rho), a in zip(zip(self._s, self._y, rhos),
                                  reversed(alphas)):
            beta = rho * (y @ q)
            q += (a - beta) * s
        return -q

    def step(self):
        g_min = -self.grad
        if np.linalg.norm(g_min, np.inf) <= STEP_TOL:
            return AscentStep(self.value, self.payload, converged=True,
                              stalled=False)
        direction = self._direction(g_min)
        if g_min @ direction >= 0.0:  # stale curvature: not a descent direction
            self._s.clear()
            self._y.clear()
            direction = self._direction(g_min)
        slope = g_min @ direction

        f0 = -self.value
        rho = 1.0
        for _ in range(MAX_HALVINGS + 1):
            u_try = self.u + rho * direction
            value, grad, payload = self._eval(u_try)
            self.n_evals += 1
            if -value <= f0 + ARMIJO * rho * slope:
                s = u_try - self.u
                y = self.grad - grad  # gradient of -d increases by this
                if s @ y > 1e-12:
                    self._s.append(s)
                    self._y.append(y)
                    if len(self._s) > LBFGS_MEMORY:
                        self._s.pop(0)
                        self._y.pop(0)
                self.u, self.value, self.grad, self.payload = (
                    u_try, value, grad, payload)
                return AscentStep(value, payload, converged=False,
                                  stalled=False)
            rho *= 0.5
        return AscentStep(self.value, self.payload, converged=False,
                          stalled=True)


def icm_polish(sdp, labels):
    """Parallel ICM sweeps (Besag 1986) from ``labels``; returns the
    polished ``(labels, lifted_energy)``.

    A sweep is a mean-field update at zero temperature: every variable
    moves at once to the argmin of its unary plus :func:`crf.messages`
    from the current one-hot labels X (priced with mu, not the lifted
    energy's mu - 11', a per-row constant apart), ties falling to the
    smallest label.  Each sweep makes one kernel product, K X of the new
    labels, which :func:`lifted_energy` also prices them from; the sweeps
    stop once the labels stop changing or the energy does not strictly
    fall, and the last labels that lowered it are returned.
    """
    problem = sdp.problem
    best = None
    while True:
        x = to_indicator(labels, sdp.n_labels)
        kx = problem.kernel_matvec(x)
        value = lifted_energy(problem, x, kx)
        if best is not None and not value < best[1]:
            return best
        best = labels, value
        labels = np.argmin(problem.unary + messages(problem, x, kx), axis=1)
        if np.array_equal(labels, best[0]):
            return best


def round_solution(psd, sdp, seed, n_samples, polished=None):
    """Round the implicit primal matrix to a feasible labeling, then
    polish it with :func:`icm_polish`.

    ``Y = gamma (C(u))_+`` factors as ``Psi Psi'`` with
    ``Psi = vectors * sqrt(gamma * values)``.  For the Potts lifting the
    block ``Psi_var Psi_lab'`` of Y is the relaxed indicator X itself (all
    zeros at rank 0), and its row argmax is the start.  For the general
    lifting each of ``n_samples`` samples draws g in R^n, projects it to
    ``Y^(1/2) g = Psi vectors' g``, a sample of N(0, Y) (Goemans &
    Williamson 1995), and discretizes the N x L unfolding by row argmax;
    the sample with the lowest lifted energy, all priced as one stack by
    :func:`lifted_energy_general`, is one start.  The other is the row
    argmax of the N x L unfolding of diag(Y), the pseudo-marginals.  Both
    are polished and the lower kept, the sample on a tie.  Y^(1/2) and
    diag(Y) depend on Y alone, so the labels do not change with the signs
    or rotations of the eigenvectors.  Row argmax ties fall to the
    smallest label.  Returns ``(labels, lifted_energy)``.

    ``polished`` maps start-label bytes to the results of the pure
    :func:`icm_polish`; a start found there is not polished again.
    """
    n_vars, n_labels = sdp.n_vars, sdp.n_labels
    psi = psd.vectors * np.sqrt(sdp.gamma * psd.values)
    polished = {} if polished is None else polished

    def polish(start):
        key = start.tobytes()
        if key not in polished:
            polished[key] = icm_polish(sdp, start)
        return polished[key]
    if isinstance(sdp, PottsSdp):
        return polish(np.argmax(psi[n_labels:] @ psi[:n_labels].T, axis=1))
    draws = np.random.default_rng(seed).standard_normal((sdp.n, n_samples))
    proj = psi @ (psd.vectors.T @ draws)
    labels = np.argmax(proj.reshape(n_vars, n_labels, n_samples), axis=1)
    # column s is sample s's one-hot vectorization
    stack = (labels[:, None, :] == np.arange(n_labels)[:, None]).reshape(-1, n_samples)
    values = lifted_energy_general(sdp.problem, stack)
    sample = polish(labels[:, np.argmin(values)].copy())
    marginals = np.einsum("ir,ir->i", psi, psi).reshape(n_vars, n_labels)
    start = polish(np.argmax(marginals, axis=1))
    return start if start[1] < sample[1] else sample


@dataclass
class SolveParams:
    """Solver parameters and the one home of their defaults, the reference
    configuration (gamma = 1000, at most 10 ascent iterations, initial
    rank 20; the Lanczos rank cap is 8 times the initial rank).
    ``n_samples`` counts the general lifting's Gaussian rounding samples
    per iteration, each a draw in R^n projected through Y^(1/2), polished
    beside the diag(Y) start; Potts rounding draws none and ignores it.

    A gamma that is not positive, a ``k_max``, ``rank_init`` or
    ``n_samples`` below 1, or a negative seed raises ValueError.
    """

    gamma: float = 1000.0
    k_max: int = 10
    rank_init: int = 20
    tau: float = 1e-5
    n_samples: int = 20
    seed: int = 0

    def __post_init__(self):
        if not self.gamma > 0.0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {self.k_max}")
        if self.rank_init < 1:
            raise ValueError(f"rank_init must be >= 1, got {self.rank_init}")
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class IterationRecord:
    iteration: int
    dual: float
    rounded_energy: float
    rank: int
    truncated: bool
    ms: float

    def to_dict(self):
        return {"iter": self.iteration, "dual": self.dual,
                "rounded_energy": self.rounded_energy, "rank": self.rank,
                "truncated": self.truncated, "ms": self.ms}


@dataclass
class SolveReport:
    """Result of a solve.

    Energies and dual values include the constant pairwise offset
    ``0.5 * 1'K1``, so ``best_energy``, ``lower_bound`` and every
    trajectory entry are directly comparable to full CRF energies of
    labelings and across methods.  ``lower_bound`` is the best dual value
    among iterations whose eigenfactor was not truncated; it is None when
    every iteration was truncated.
    """

    method: str
    best_energy: float
    lower_bound: float | None
    labels: np.ndarray
    trajectory: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "method": self.method,
            "best_energy": self.best_energy,
            "lower_bound": self.lower_bound,
            "labels": np.asarray(self.labels).tolist(),
            "trajectory": [rec.to_dict() if isinstance(rec, IterationRecord)
                           else rec for rec in self.trajectory],
            "warnings": list(self.warnings),
            **self.extras,
        }


def lr_sdcut_solve(problem, params=None, **overrides):
    """Run the full low-rank dual ascent (spectral dual start, per-iteration
    quasi-Newton step + rounding + best-keeping, relative-improvement exit).

    All randomness (Lanczos start vectors, the general lifting's rounding
    projections; Potts rounding draws none) derives from ``params.seed``
    through a splittable seed sequence, so results reproduce regardless of
    internal threading.  Eigensolver and line
    search stalls surface in ``report.warnings``, never silently.
    """
    params = replace(params or SolveParams(), **overrides)
    sdp = make_sdp(problem, params.gamma)
    warnings = []
    if not problem.is_potts:
        warnings.append("general label-compatibility path is experimental")

    seed_seq = np.random.SeedSequence(params.seed)
    shift_ss, eig_ss, round_ss = seed_seq.spawn(3)
    eig_seed_rng = np.random.default_rng(eig_ss)
    round_seed_rng = np.random.default_rng(round_ss)

    def next_seed(rng):
        return int(rng.integers(0, 2 ** 63 - 1))

    offset = energy_offset(problem)
    rank_init = min(params.rank_init, sdp.n)
    u0, start_pairs = spectral_shift_init(
        sdp, rank_init, seed=next_seed(np.random.default_rng(shift_ss)))
    rank_cap = min(sdp.n, 8 * rank_init)
    # state across dual evaluations.  "floor" is the current iterate's value:
    # a trial whose pinching bound on ||C(u)_+||_F^2 puts its dual below it
    # cannot be accepted and is valued -inf, with no Lanczos run or count.
    # The start's "pairs" stand in for C(u0)'s Lanczos run (its count is
    # undecided: C(u0) has an eigenvalue at 0); "sigma" seeds the shift
    warm = {"floor": -np.inf, "pairs": start_pairs, "sigma": 0.0}
    bound_rejections = 0

    def obj_grad(u):
        nonlocal bound_rejections
        parts = sdp.assemble(u)
        # d(u) < floor once ||C(u)_+||_F^2 exceeds this
        frob_limit = (2.0 / sdp.gamma) * (-u @ sdp.b - warm["floor"]
                                          - sdp.eta ** 2 / (2.0 * sdp.gamma))
        rejected = bool(np.isfinite(frob_limit)
                        and sdp.pinched_norm_sq(parts) > frob_limit)
        bound_rejections += rejected
        count, shift = ((None, None) if rejected
                        else _counted_request(sdp, parts, warm["sigma"]))
        try:
            # the seed is drawn for every evaluation, so later Lanczos runs
            # keep their seeds whether or not the bound rejects this one
            factor = leading_psd_part(
                sdp.parts_operator(parts), rank_cap,
                seed=next_seed(eig_seed_rng), rejected=rejected, count=count,
                pairs=warm.pop("pairs", None), shift=shift)
        except EigenConvergenceError as exc:
            warnings.append(f"eigensolver stall: {exc}")
            factor = exc.factor
        except EigenCountMismatch as exc:
            warnings.append(f"eigen count mismatch: {exc}")
            factor = exc.factor
        value = -np.inf if rejected else sdp.dual_objective(u, factor)
        return value, sdp.dual_gradient(u, factor), factor

    trajectory = []
    best_labels = None
    best_lifted = np.inf
    polished = {}  # round_solution's polished starts, shared across rounds

    def record(iteration, value, factor, started):
        nonlocal best_labels, best_lifted
        labels, lifted = round_solution(factor, sdp,
                                        seed=next_seed(round_seed_rng),
                                        n_samples=params.n_samples,
                                        polished=polished)
        if lifted < best_lifted:
            best_lifted = lifted
            best_labels = labels
        trajectory.append(IterationRecord(
            iteration=iteration, dual=value + offset,
            rounded_energy=lifted + offset, rank=factor.rank,
            truncated=factor.truncated,
            ms=1e3 * (time.perf_counter() - started)))

    started = time.perf_counter()
    optimizer = LbfgsAscent(obj_grad, u0)
    record(0, optimizer.value, optimizer.payload, started)
    previous = optimizer.value
    for k in range(1, params.k_max + 1):
        started = time.perf_counter()
        warm["floor"] = optimizer.value
        warm["sigma"] = 1.5 * optimizer.payload.values.max(initial=0.0)
        step = optimizer.step()
        if step.converged:
            break
        if step.stalled:
            warnings.append(f"line search stalled at iteration {k}")
            break
        record(k, step.value, step.payload, started)
        improvement = ((step.value - previous)
                       / max(abs(step.value), abs(previous), 1.0))
        previous = step.value
        if improvement <= params.tau:
            break

    untruncated = [rec.dual for rec in trajectory if not rec.truncated]
    if not untruncated:
        warnings.append("all iterations truncated; no certified lower bound")
    return SolveReport(
        method="lrsdcut",
        best_energy=best_lifted + offset,
        lower_bound=max(untruncated) if untruncated else None,
        labels=best_labels,
        trajectory=trajectory,
        warnings=warnings,
        extras={"gamma": params.gamma, "offset": offset,
                "dual_evals": optimizer.n_evals,
                "bound_rejections": bound_rejections},
    )
