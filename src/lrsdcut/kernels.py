"""SPSD kernels, Nystrom low-rank factors, and fast factored matrix-vector products.

Every kernel used by the solvers is represented through a tall factor
``phi`` with ``K ~= phi @ phi.T`` so that products ``K @ d`` cost
``O(N * R)`` instead of ``O(N^2)``.  Every product accepts either an
N-vector or an N x m block ``d`` (m columns, e.g. the label columns of an
indicator matrix) and returns the same shape, with one BLAS-3 product per
factor for the whole block.  Two kernel forms are supported, each a
class whose ``matvec`` is that product:

* :class:`LowRankKernel`, ``K = w phi @ phi.T``, optionally
  block-diagonal (entries across blocks treated as zero, the partition
  stored as an offset array ``[0, n_1, n_1+n_2, ..., N]``)
* :class:`CenteredDiscriminativeKernel`, the centered inverse form
  ``K = w (Omega - phi phi') / (kappa N)`` with ``Omega = I - 11'/N``
  (row/column sums of K are exactly zero)

Beside ``matvec``, only :func:`half_kernel_factor` knows each form: it
writes a whole stack as K/2 = c I + G Diag(s) G'.  :func:`hadamard_matvec`
multiplies by the elementwise product of two factored kernels, forming neither.
"""

import struct

import numpy as np
from scipy.spatial.distance import cdist

_MAGIC = b"LRKF"
# Lloyd rounds of the k-means that places Nystrom landmarks
KMEANS_ITERS = 25


class LowRankFactor:
    """Tall factor ``phi`` (N x R) representing the PSD matrix ``phi @ phi.T``."""

    __slots__ = ("phi",)

    def __init__(self, phi):
        phi = np.asarray(phi, dtype=np.float64)
        if phi.ndim != 2:
            raise ValueError(f"factor must be a 2-D array, got {phi.ndim}-D")
        if phi.shape[1] < 1:
            raise ValueError(f"factor rank must be >= 1, got {phi.shape[1]}")
        if not np.all(np.isfinite(phi)):
            raise ValueError("factor entries must be finite")
        self.phi = np.ascontiguousarray(phi)

    @property
    def n(self):
        return self.phi.shape[0]

    @property
    def rank(self):
        return self.phi.shape[1]


def save_factor(path, factor):
    """Write a factor cache file: header {magic 'LRKF', u32 N, u32 R}, then
    N*R little-endian float64 values in row-major order."""
    phi = factor.phi
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sII", _MAGIC, phi.shape[0], phi.shape[1]))
        fh.write(phi.astype("<f8", copy=False).tobytes(order="C"))


def load_factor(path):
    """Read a factor cache file written by :func:`save_factor`."""
    with open(path, "rb") as fh:
        header = fh.read(12)
        if len(header) != 12:
            raise ValueError(f"truncated factor file: {path}")
        magic, n, r = struct.unpack("<4sII", header)
        if magic != _MAGIC:
            raise ValueError(f"bad factor file magic {magic!r} in {path}")
        data = np.frombuffer(fh.read(8 * n * r), dtype="<f8")
        if data.size != n * r:
            raise ValueError(f"truncated factor payload in {path}")
    return LowRankFactor(data.reshape(n, r).astype(np.float64))


def _check_blocks(blocks, n):
    offsets = np.asarray(blocks, dtype=np.int64)
    if offsets.ndim != 1 or offsets.size < 2:
        raise ValueError("block offsets must be a 1-D array with >= 2 entries")
    if offsets[0] != 0 or offsets[-1] != n or np.any(np.diff(offsets) <= 0):
        raise ValueError(f"block offsets must increase from 0 to {n}")
    return offsets


def _as_feature_blocks(blocks):
    """Validated N x D feature blocks, each stored transposed (D x N)."""
    out = []
    n = None
    for b in blocks:
        b = np.atleast_2d(np.asarray(b, dtype=np.float64))
        if b.ndim != 2 or b.shape[1] < 1:
            raise ValueError("each feature block must be an N x D array with D >= 1")
        if not np.all(np.isfinite(b)):
            raise ValueError("feature entries must be finite")
        if n is None:
            n = b.shape[0]
        elif b.shape[0] != n:
            raise ValueError("feature blocks must share the same number of rows")
        out.append(b.T.copy())
    if not out:
        raise ValueError("at least one feature block is required")
    return out


def _sq_dist(xt, c):
    """Squared distances from each column of the D x N ``xt`` to ``c``,
    summed over the D dimensions in order."""
    acc = (xt[0] - c[0]) ** 2
    for row, v in zip(xt[1:], c[1:]):
        acc += (row - v) ** 2
    return acc


def select_landmarks(features, n_landmarks, seed):
    """Pick landmark indices as the data points nearest to k-means centroids.

    Runs seeded k-means (k-means++ initialization, squared-Euclidean
    distance, at most ``KMEANS_ITERS`` Lloyd rounds) on the raw feature
    rows and returns the sorted indices of the distinct points closest to
    the final centroids.  Deterministic for a fixed seed.
    """
    x = np.atleast_2d(np.asarray(features, dtype=np.float64, order="C"))
    xt = x.T.copy()
    n = x.shape[0]
    if not 1 <= n_landmarks <= n:
        raise ValueError(f"need 1 <= n_landmarks <= {n}, got {n_landmarks}")
    if n_landmarks == n:
        return np.arange(n)

    rng = np.random.default_rng(seed)
    centers = np.empty((n_landmarks, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    d2 = _sq_dist(xt, centers[0])
    for k in range(1, n_landmarks):
        total = d2.sum()
        if total <= 0.0:
            centers[k] = x[rng.integers(n)]
        else:
            centers[k] = x[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, _sq_dist(xt, centers[k]))

    assign = np.full(n, -1)
    for _ in range(KMEANS_ITERS):
        new_assign = np.argmin(cdist(x, centers, "sqeuclidean"), axis=1)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        # an empty cluster keeps its centroid
        counts = np.bincount(assign, minlength=n_landmarks)
        full = counts > 0
        for d, row in enumerate(xt):
            sums = np.bincount(assign, weights=row, minlength=n_landmarks)
            centers[full, d] = sums[full] / counts[full]

    # Nearest distinct data point per centroid, in centroid order; ties
    # fall to the smallest index.
    chosen = np.empty(n_landmarks, dtype=np.int64)
    free = np.ones(n, dtype=bool)
    for k, row in enumerate(cdist(centers, x, "sqeuclidean")):
        idx = np.flatnonzero(free)[np.argmin(row[free])]
        free[idx] = False
        chosen[k] = idx
    return np.sort(chosen)


def nystrom_factor(column_oracle, landmarks, rank):
    """Build a rank-<=``rank`` factor from sampled kernel columns.

    ``column_oracle(j)`` must return the j-th column of the SPSD kernel
    matrix.  With landmark set S, let C = K[:, S] and W = K[S, S]; the
    factor is ``phi = C @ G_R @ diag(s_R)^(-1/2)`` where (s_R, G_R) are the
    leading eigenpairs of W with eigenvalue above the floor
    ``1e-10 * lambda_max(W)``.  The effective rank can be lower than
    requested when W has fewer eigenvalues above the floor.

    Raises ValueError for a rank outside 1..|S|, and when W is indefinite
    beyond that tolerance, which signals a non-PSD kernel input.
    """
    landmarks = np.asarray(landmarks, dtype=np.int64)
    if landmarks.ndim != 1 or landmarks.size == 0:
        raise ValueError("landmarks must be a non-empty index vector")
    if np.unique(landmarks).size != landmarks.size:
        raise ValueError("landmark indices must be distinct")
    if not 1 <= rank <= landmarks.size:
        raise ValueError(f"need 1 <= rank <= {landmarks.size} landmarks, got {rank}")

    cols = np.column_stack([np.asarray(column_oracle(int(j)), dtype=np.float64)
                            for j in landmarks])
    w = cols[landmarks, :]
    w = 0.5 * (w + w.T)
    vals, vecs = np.linalg.eigh(w)
    floor = 1e-10 * max(vals[-1], 0.0)
    if vals[0] < -max(floor, 1e-10):
        raise ValueError(
            f"landmark kernel block is indefinite (min eigenvalue {vals[0]:.3e}); "
            "the kernel input is not positive semidefinite")
    keep = np.flatnonzero(vals > floor)[::-1][:rank]  # descending order
    phi = cols @ (vecs[:, keep] / np.sqrt(vals[keep]))
    return LowRankFactor(phi)


def _check_rows(d, n):
    """``d`` as a float N-vector or N x m block; anything else is rejected."""
    d = np.asarray(d, dtype=np.float64)
    if d.ndim not in (1, 2) or d.shape[0] != n:
        raise ValueError(f"input of shape {d.shape} is neither an N-vector nor "
                         f"an N x m block for n={n}")
    return d


def hadamard_matvec(factor_p, factor_c, d, blocks=None):
    """Return ``((phi_p phi_p') o (phi_c phi_c')) d`` in O(N R_p R_c) per column.

    Uses the separated evaluation
    ``((phi_p (phi_p' (Diag(d) phi_c))) o phi_c) 1`` so neither kernel
    matrix is ever materialized; the ``Diag(d) phi_c`` of all m columns of
    an N x m block ``d`` are unfolded into one N x (m R_c) product.  With
    ``blocks``, the product is applied per block (cross-block entries are
    zero).
    """
    pp, pc = factor_p.phi, factor_c.phi
    n = pp.shape[0]
    if pc.shape[0] != n:
        raise ValueError("factors must share the same number of rows")
    d = _check_rows(d, n)
    offsets = [0, n] if blocks is None else _check_blocks(blocks, n)
    cols = d.reshape(n, -1)
    out = np.empty_like(cols)
    for a, b in zip(offsets[:-1], offsets[1:]):
        lifted = (cols[a:b, :, None] * pc[a:b, None, :]).reshape(b - a, -1)
        t = (pp[a:b] @ (pp[a:b].T @ lifted)).reshape(b - a, cols.shape[1], -1)
        out[a:b] = np.einsum("imr,ir->im", t, pc[a:b])
    return out.reshape(d.shape)


def centered_discriminative_factor(phi_tilde, kappa):
    """Turn a factor of the raw kernel into the centered inverse form.

    Given ``K_raw ~= phi_tilde @ phi_tilde.T`` and ``kappa > 0``, the
    matrix ``Omega (kappa N I + K_raw)^(-1) Omega`` equals
    ``(Omega - phi phi') / (kappa N)`` with
    ``phi = Omega phi_tilde (kappa N I_R + phi_tilde' phi_tilde)^(-1/2)``
    (a symmetric R x R square root, so only small matrices are inverted).
    Returns ``(factor, scale)`` with ``scale = 1 / (kappa N)``; the factor
    satisfies ``phi' 1 = 0`` exactly up to roundoff.
    """
    kappa = float(kappa)
    if kappa <= 0.0:
        raise ValueError("kappa must be positive")
    pt = phi_tilde.phi
    n = pt.shape[0]
    m = kappa * n * np.eye(pt.shape[1]) + pt.T @ pt
    vals, vecs = np.linalg.eigh(m)
    inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.T
    centered = pt - pt.mean(axis=0, keepdims=True)
    return LowRankFactor(centered @ inv_sqrt), 1.0 / (kappa * n)


class LowRankKernel:
    """Weighted PSD kernel ``w * (phi phi')``, optionally block-diagonal."""

    def __init__(self, factor, weight=1.0, blocks=None):
        if weight < 0.0:
            raise ValueError("kernel weight must be non-negative")
        self.factor = factor
        self.weight = float(weight)
        self.blocks = None if blocks is None else _check_blocks(blocks, factor.n)

    @property
    def n(self):
        return self.factor.n

    def matvec(self, d):
        """``w (phi phi') d`` in O(N R) per column, block by block when
        ``blocks`` is set; ``d`` is an N-vector or an N x m block."""
        phi = self.factor.phi
        d = _check_rows(d, phi.shape[0])
        if self.blocks is None:
            return self.weight * (phi @ (phi.T @ d))
        out = np.empty_like(d)
        for a, b in zip(self.blocks[:-1], self.blocks[1:]):
            pb = phi[a:b]
            out[a:b] = pb @ (pb.T @ d[a:b])
        return self.weight * out


class CenteredDiscriminativeKernel:
    """Weighted centered inverse kernel ``w (Omega - phi phi') / (kappa N)``.

    Built from a factor of the raw similarity kernel; rows and columns sum
    to zero, so this kernel contributes nothing to constant vectors.
    Entries may be negative even though the matrix is PSD.
    """

    def __init__(self, phi_tilde, kappa, weight=1.0):
        if weight < 0.0:
            raise ValueError("kernel weight must be non-negative")
        self.factor, self.scale = centered_discriminative_factor(phi_tilde, kappa)
        self.weight = float(weight)

    @property
    def n(self):
        return self.factor.n

    def matvec(self, d):
        d = _check_rows(d, self.n)
        phi = self.factor.phi
        centered = d - d.mean(axis=0)
        return self.weight * self.scale * (centered - phi @ (phi.T @ d))


def half_kernel_factor(kernels, n):
    """``(c, G, s, spans, k)`` with K/2 = c I + G Diag(s) G' for a stack of
    ``kernels`` over n variables (G is n x 0 for none): G is column-major,
    s = +-1, and G's first k columns stand for one copy per block j, kept
    on its rows ``spans[j] = (lo, hi)`` (no spans and k = 0 without a
    blocked kernel).  A low-rank kernel w phi phi' adds the columns
    sqrt(w/2) phi, among the first k when block-diagonal over the first
    blocked kernel's blocks (padded when over others); a centered kernel
    w scale (Omega - phi phi'), Omega = I - 11'/N, adds c = w scale / 2 and
    the negative columns sqrt(c) [1/sqrt(N), phi]."""
    c, cols, signs, blocked = 0.0, [], [], []
    offsets = next((k.blocks for k in kernels
                    if getattr(k, "blocks", None) is not None), None)
    for k in kernels:
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


class GaussianKernel:
    """Diagonal-bandwidth Gaussian kernel over block-partitioned features.

    ``k(f_i, f_j) = exp(-sum_b |f_i^b - f_j^b|^2 / (2 theta_b^2))``.  This
    class only provides exact column evaluation (the Nystrom oracle) and
    :meth:`factorize`; it deliberately has no ``matvec`` so the O(N^2)
    dense product can never sneak into a solver.  Each N x D feature block
    is held transposed (D x N), so distances sum D contiguous N-vectors.
    """

    def __init__(self, blocks, thetas, weight=1.0, mask_blocks=None):
        self.feature_blocks = _as_feature_blocks(blocks)
        self.thetas = [float(t) for t in thetas]
        if len(self.thetas) != len(self.feature_blocks):
            raise ValueError("one bandwidth per feature block is required")
        if any(t <= 0.0 for t in self.thetas):
            raise ValueError("bandwidths must be positive")
        if weight < 0.0:
            raise ValueError("kernel weight must be non-negative")
        self.weight = float(weight)
        self.n = self.feature_blocks[0].shape[1]
        self.mask_blocks = (None if mask_blocks is None
                            else _check_blocks(mask_blocks, self.n))

    def column(self, j):
        """Exact (unmasked) kernel column j."""
        expo = np.zeros(self.n)
        for bt, t in zip(self.feature_blocks, self.thetas):
            expo += _sq_dist(bt, bt[:, j]) / (2.0 * t * t)
        return np.exp(-expo)

    def factorize(self, n_landmarks, rank, seed):
        """Nystrom-factorize into a :class:`LowRankKernel`.

        Landmarks come from k-means on the raw concatenated feature rows;
        any block mask carries over to the factored kernel (the factor
        itself approximates the unmasked kernel).
        """
        feats = np.vstack(self.feature_blocks).T
        landmarks = select_landmarks(feats, n_landmarks, seed)
        factor = nystrom_factor(self.column, landmarks, rank)
        return LowRankKernel(factor, self.weight, self.mask_blocks)
