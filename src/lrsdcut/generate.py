"""Synthetic instance generation: desk-scale stand-ins for labeling tasks.

Three families:

* ``clusters``: L planted Gaussian clusters in a 2-D position + 3-D color
  feature space with noisy unary hints; the pairwise kernel pulls cluster
  mates toward the same label.
* ``random``:   i.i.d. unaries plus a random low-rank PSD kernel.
* ``grid``:     a W x H lattice emulating an image: position and color
  feature blocks feed one Gaussian kernel, planted regions give color
  structure and noisy unary hints.

Generators return plain instance dicts matching the JSON schema (plus a
``planted_labels`` field where a ground truth exists) and, for ``random``,
the factor artifacts to be written next to the instance file.  All
randomness comes from the embedded seed so generated files are replayable.
"""

import numpy as np

from .kernels import GaussianKernel, LowRankFactor, LowRankKernel

# the least value of each generator argument that gives a loadable instance;
# a generator raises ValueError below it
_LEAST = {"n": 1, "width": 1, "height": 1, "n_labels": 2, "seed": 0,
          "landmarks": 1, "rank": 1}


def _check(**args):
    for name, value in args.items():
        if value < _LEAST[name]:
            raise ValueError(f"{name} must be >= {_LEAST[name]}, got {value}")


def _planted_unary(rng, labels_true, n_labels, margin, noise):
    n = labels_true.size
    unary = np.full((n, n_labels), margin)
    unary[np.arange(n), labels_true] = 0.0
    if noise > 0.0:
        unary += noise * rng.standard_normal((n, n_labels))
    return unary


def _planted_instance(head, labels_true, unary, feature_blocks, thetas,
                      weight, landmarks, rank):
    """Instance dict of a planted Potts family with one Nystrom-factorized
    Gaussian kernel; ``head`` holds the keys that precede ``n_vars``."""
    n, n_labels = unary.shape
    _check(landmarks=landmarks, rank=rank)
    GaussianKernel(feature_blocks, thetas, weight)  # its weight and bandwidth rules
    landmarks = min(landmarks, n)
    return {
        **head,
        "n_vars": int(n),
        "n_labels": int(n_labels),
        "unary": unary.tolist(),
        "kernels": [{
            "type": "gaussian",
            "feature_blocks": [block.tolist() for block in feature_blocks],
            "thetas": thetas,
            "weight": weight,
            "nystrom": {"landmarks": landmarks,
                        "rank": min(rank, landmarks), "seed": head["seed"]},
        }],
        "compatibility": "potts",
        "planted_labels": labels_true.tolist(),
    }


def gen_clusters(n, n_labels, seed, *, noise=0.8, margin=1.0, weight=1.5,
                 separation=6.0, theta_pos=1.5, theta_color=0.5,
                 color_noise=0.25, landmarks=40, rank=20):
    """Planted-cluster instance (Potts, one Gaussian kernel)."""
    _check(n=n, n_labels=n_labels, seed=seed)
    rng = np.random.default_rng(seed)
    labels_true = rng.permuted(np.arange(n) % n_labels)
    angles = 2.0 * np.pi * np.arange(n_labels) / n_labels
    pos_centers = separation * np.column_stack([np.cos(angles), np.sin(angles)])
    color_centers = 2.0 * rng.standard_normal((n_labels, 3))
    positions = pos_centers[labels_true] + rng.standard_normal((n, 2))
    colors = color_centers[labels_true] + color_noise * rng.standard_normal((n, 3))
    unary = _planted_unary(rng, labels_true, n_labels, margin, noise)
    return _planted_instance({"kind": "clusters", "seed": int(seed)},
                             labels_true, unary, [positions, colors],
                             [theta_pos, theta_color], weight, landmarks, rank)


def gen_random(n, n_labels, seed, *, weight=1.0, rank=3):
    """Random instance: i.i.d. unaries, random low-rank PSD kernel.

    Returns ``(instance, artifacts)`` where artifacts maps the referenced
    factor file name to its :class:`LowRankFactor`.
    """
    _check(n=n, n_labels=n_labels, seed=seed, rank=rank)
    rng = np.random.default_rng(seed)
    unary = rng.standard_normal((n, n_labels))
    factor = LowRankFactor(rng.standard_normal((n, rank)) / np.sqrt(rank))
    LowRankKernel(factor, weight)  # its weight rule
    factor_file = f"random-n{n}-l{n_labels}-s{seed}.factor.lrkf"
    instance = {
        "kind": "random",
        "seed": int(seed),
        "n_vars": int(n),
        "n_labels": int(n_labels),
        "unary": unary.tolist(),
        "kernels": [{"type": "lowrank", "factor_file": factor_file,
                     "weight": weight}],
        "compatibility": "potts",
    }
    return instance, {factor_file: factor}


def gen_grid(width, height, n_labels, seed, *, noise=0.8, margin=1.0,
             weight=2.0, theta_pos=4.0, theta_color=0.4, color_noise=0.2,
             landmarks=40, rank=20, spacing_x=1.0, spacing_y=1.0):
    """Lattice instance emulating an image with planted label regions.

    ``spacing_x``/``spacing_y`` set the lattice pitch, so a denser grid
    over the same extent models the same scene at a higher resolution
    (useful for scaling studies where the kernel structure should stay
    fixed while N grows).
    """
    _check(width=width, height=height, n_labels=n_labels, seed=seed)
    rng = np.random.default_rng(seed)
    n = width * height
    xs, ys = np.meshgrid(spacing_x * np.arange(width, dtype=np.float64),
                         spacing_y * np.arange(height, dtype=np.float64))
    positions = np.column_stack([xs.ravel(), ys.ravel()])
    region_centers = np.column_stack([
        rng.uniform(0, width * spacing_x, n_labels),
        rng.uniform(0, height * spacing_y, n_labels)])
    dists = np.linalg.norm(positions[:, None, :] - region_centers[None, :, :],
                           axis=2)
    labels_true = np.argmin(dists, axis=1)
    color_centers = 2.0 * rng.standard_normal((n_labels, 3))
    colors = color_centers[labels_true] + color_noise * rng.standard_normal((n, 3))
    unary = _planted_unary(rng, labels_true, n_labels, margin, noise)
    return _planted_instance({"kind": "grid", "seed": int(seed),
                              "width": int(width), "height": int(height),
                              "spacing": [spacing_x, spacing_y]},
                             labels_true, unary, [positions, colors],
                             [theta_pos, theta_color], weight, landmarks, rank)
