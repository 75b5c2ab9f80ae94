"""Problem definition, energy evaluation, and indicator liftings.

A labeling ``x`` (length-N integer vector with entries in 0..L-1), its
one-hot indicator matrix ``X`` (N x L), and the row-major vectorization
``y`` (length N*L, ``y[i*L + l] = X[i, l]``) describe the same assignment.
Both SDP liftings minimise one lifted energy, :func:`lifted_energy`, which
prices every labeling on the factored (approximated) kernels, so solver
bounds and reported energies refer to one consistent objective.
"""

import hashlib
import json
import os

import numpy as np

from .kernels import (CenteredDiscriminativeKernel, GaussianKernel,
                      LowRankKernel, half_kernel_factor, load_factor)


class InstanceFormatError(ValueError):
    """Raised when an instance file violates the JSON schema."""


class CrfProblem:
    """Fully-connected pairwise CRF with unary matrix H and a kernel stack.

    ``mu=None`` selects the Potts compatibility (penalty 1 for any pair of
    distinct labels); otherwise ``mu`` is a symmetric L x L matrix with
    zero diagonal and entries in [0, 1].  Kernel weights are folded into
    the kernel objects; the combined pairwise kernel is their sum.
    Instances are immutable after construction and all evaluations are
    pure functions.
    """

    def __init__(self, unary, kernels, mu=None):
        unary = np.asarray(unary, dtype=np.float64)
        if unary.ndim != 2 or unary.shape[1] < 2:
            raise ValueError("unary must be an N x L matrix with L >= 2")
        if not np.all(np.isfinite(unary)):
            raise ValueError("unary entries must be finite")
        self.unary = unary
        self.kernels = list(kernels)
        for k in self.kernels:
            if not callable(getattr(k, "matvec", None)):
                raise TypeError(
                    f"kernel {type(k).__name__} has no matvec; factorize gaussian "
                    "kernels before building a problem")
            if k.n != unary.shape[0]:
                raise ValueError("kernel size does not match number of variables")
        if mu is None:
            self.mu = None
        else:
            mu = np.asarray(mu, dtype=np.float64)
            L = unary.shape[1]
            if mu.shape != (L, L):
                raise ValueError(f"mu must be {L} x {L}")
            if not np.allclose(mu, mu.T):
                raise ValueError("mu must be symmetric")
            if np.any(np.diag(mu) != 0.0):
                raise ValueError("mu must have a zero diagonal")
            if np.any(mu < 0.0) or np.any(mu > 1.0):
                raise ValueError("mu entries must lie in [0, 1]")
            self.mu = 0.5 * (mu + mu.T)  # exact for symmetric input
        self._half_kernel = self._kernel_diag = None

    @property
    def n_vars(self):
        return self.unary.shape[0]

    @property
    def n_labels(self):
        return self.unary.shape[1]

    @property
    def is_potts(self):
        return self.mu is None

    def mu_matrix(self):
        """The compatibility matrix (the Potts matrix 11' - I when mu is None)."""
        if self.mu is not None:
            return self.mu
        L = self.n_labels
        return np.ones((L, L)) - np.eye(L)

    def kernel_matvec(self, d):
        """Combined weighted kernel product ``K d`` in O(N R) per column;
        ``d`` is an N-vector or an N x m block, e.g. all L label columns."""
        if not self.kernels:
            return np.zeros(np.shape(d))
        out = self.kernels[0].matvec(d)
        for k in self.kernels[1:]:
            out = out + k.matvec(d)
        return out

    def half_kernel(self):
        """:func:`~lrsdcut.kernels.half_kernel_factor` of the stack, built on
        first use and cached, its G read-only."""
        if self._half_kernel is None:
            self._half_kernel = half_kernel_factor(self.kernels, self.n_vars)
            self._half_kernel[1].flags.writeable = False
        return self._half_kernel

    def kernel_diag(self):
        """diag(K) = 2 (c + (G o G) s) from :meth:`half_kernel`, cached read-only."""
        if self._kernel_diag is None:
            c, g, s = self.half_kernel()[:3]
            self._kernel_diag = 2.0 * (c + (g * g) @ s)
            self._kernel_diag.flags.writeable = False
        return self._kernel_diag


def to_indicator(labels, n_labels):
    """One-hot N x L indicator matrix of an integer labeling; a
    non-integral value raises ValueError (an int64 array is not copied)."""
    given = np.asarray(labels)
    labels = given.astype(np.int64, copy=False)
    if labels is not given and not np.array_equal(labels, given):
        raise ValueError("labels must be integers")
    if labels.ndim != 1:
        raise ValueError("labeling must be a 1-D integer vector")
    if labels.size and (labels.min() < 0 or labels.max() >= n_labels):
        raise ValueError(f"labels must lie in 0..{n_labels - 1}")
    x = np.zeros((labels.size, n_labels))
    x[np.arange(labels.size), labels] = 1.0
    return x


def messages(problem, x, kx=None):
    """Pairwise messages ``(K X - diag(K) o X) mu`` into every variable
    from an N x L hard or soft indicator X (``kx`` is K X when the caller
    holds it): row i, column l sums ``mu(l, m) K_ij X_jm`` over j != i."""
    if kx is None:
        kx = problem.kernel_matvec(x)
    return (kx - problem.kernel_diag()[:, None] * x) @ problem.mu_matrix()


def lifted_energy(problem, x, kx=None):
    """Lifted energy ``<H, X> + 0.5 <U, X' K X>``, U = mu - 11' (-I for
    Potts), of an N x L indicator X, or of each one in an N x S x L stack.

    The quadratic term is ``sum((X U) o K X)``, with K X (``kx`` when the
    caller holds it) from one factored block product over all columns;
    for Potts, X U = -X exactly.
    """
    x = np.asarray(x, dtype=np.float64)
    n, L = problem.n_vars, problem.n_labels
    if kx is None:
        kx = problem.kernel_matvec(x.reshape(n, -1)).reshape(x.shape)
    xu = (x.reshape(-1, L) @ (problem.mu_matrix() - 1.0)).reshape(x.shape)
    if x.ndim == 2:
        return float(np.sum(problem.unary * x) + 0.5 * np.sum(xu * kx))
    return (np.sum(problem.unary[:, None] * x, axis=(0, 2))
            + 0.5 * np.sum(xu * kx, axis=(0, 2)))


def lifted_energy_general(problem, y):
    """Lifted energy ``h' y + 0.5 y' (U (x) K) y`` of a row-major
    vectorization y (length N*L), or of each column of an N*L x S stack:
    :func:`lifted_energy` of the unfolded indicators."""
    x = np.asarray(y, dtype=np.float64).reshape(problem.n_vars,
                                                problem.n_labels, -1)
    return lifted_energy(problem,
                         x[:, :, 0] if np.ndim(y) == 1 else x.transpose(0, 2, 1))


def energy_offset(problem):
    """The constant ``0.5 * 1' K 1`` linking lifted and full energies,
    computed in factored form."""
    ones = np.ones(problem.n_vars)
    return float(0.5 * (ones @ problem.kernel_matvec(ones)))


def energy(problem, labels):
    """Full CRF energy of a labeling on the approximated kernel stack.

    Equals ``sum_i psi_i(x_i) + sum_{i<j} mu(x_i, x_j) K_ij`` and is
    computed as lifted energy plus offset in O(N L R).
    """
    return (lifted_energy(problem, to_indicator(labels, problem.n_labels))
            + energy_offset(problem))


def _require(cond, message):
    if not cond:
        raise InstanceFormatError(message)


def build_problem(instance, base_dir="."):
    """Build a :class:`CrfProblem` from a decoded instance dict.

    Gaussian kernels are Nystrom-factorized using their embedded
    ``nystrom`` parameters; ``factor_file`` paths resolve relative to
    ``base_dir``.  An instance-level ``image_blocks`` offset array makes
    gaussian kernels block-diagonal per image (the discriminative kernel
    stays cross-image by construction).  A missing key, and every value
    the kernel or problem constructors reject (a bad block partition, a
    non-positive bandwidth, a negative weight, a Nystrom rank above the
    landmark count, ...), raises :class:`InstanceFormatError`.
    """
    try:
        return _build_problem(instance, base_dir)
    except InstanceFormatError:
        raise
    except KeyError as exc:
        raise InstanceFormatError(f"missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(str(exc)) from exc


def _build_problem(instance, base_dir):
    _require(isinstance(instance, dict), "instance must be a JSON object")
    for key in ("n_vars", "n_labels", "unary", "kernels", "compatibility"):
        _require(key in instance, f"instance is missing key {key!r}")
    n, L = int(instance["n_vars"]), int(instance["n_labels"])
    unary = np.asarray(instance["unary"], dtype=np.float64)
    _require(unary.shape == (n, L), "unary shape does not match n_vars/n_labels")

    blocks = instance.get("image_blocks")
    kernels = []
    for entry in instance["kernels"]:
        _require(isinstance(entry, dict) and "type" in entry,
                 "each kernel entry must be an object with a 'type'")
        ktype = entry["type"]
        weight = float(entry.get("weight", 1.0))
        if ktype == "gaussian":
            for key in ("feature_blocks", "thetas", "nystrom"):
                _require(key in entry, f"gaussian kernel missing {key!r}")
            gk = GaussianKernel(entry["feature_blocks"], entry["thetas"],
                                weight, mask_blocks=blocks)
            _require(gk.n == n, "gaussian feature rows do not match n_vars")
            ny = entry["nystrom"]
            kernels.append(gk.factorize(int(ny["landmarks"]), int(ny["rank"]),
                                        seed=int(ny.get("seed", 0))))
        elif ktype == "lowrank":
            _require("factor_file" in entry, "lowrank kernel missing 'factor_file'")
            factor = load_factor(os.path.join(base_dir, entry["factor_file"]))
            _require(factor.n == n, "factor rows do not match n_vars")
            kernels.append(LowRankKernel(factor, weight))
        elif ktype == "centered_discriminative":
            for key in ("factor_file", "kappa"):
                _require(key in entry, f"centered_discriminative kernel missing {key!r}")
            factor = load_factor(os.path.join(base_dir, entry["factor_file"]))
            _require(factor.n == n, "factor rows do not match n_vars")
            kernels.append(CenteredDiscriminativeKernel(factor,
                                                        float(entry["kappa"]),
                                                        weight))
        else:
            raise InstanceFormatError(f"unknown kernel type {ktype!r}")

    compat = instance["compatibility"]
    mu = None if compat == "potts" else np.asarray(compat, dtype=np.float64)
    return CrfProblem(unary, kernels, mu)


def load_instance(path):
    """Load an instance JSON file.

    Returns ``(problem, instance_dict, sha256_hex)``; the hash is of the
    raw file bytes and identifies the instance in solve reports.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    try:
        instance = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InstanceFormatError(f"not valid JSON: {path}: {exc}") from exc
    problem = build_problem(instance, base_dir=os.path.dirname(path) or ".")
    return problem, instance, digest
