"""Instances of the three benchmark workloads.

Each workload is a fixed list of scenes (the ``scene`` argument, default 5)
built with the package's own generators.  The run seed draws one random
permutation of the variables per instance: every input array changes with
the seed, while the problem, its spectrum and hence its Lanczos and
line-search regime stay the same.  That keeps the run-to-run spread of a
workload down to timing noise; a new ``scene`` gives held-out instances.
"""

import numpy as np

from lrsdcut import crf, generate
from lrsdcut.kernels import LowRankFactor, LowRankKernel


def general_mu(scene, n_labels):
    """Seeded symmetric compatibility, entries uniform in [0.2, 1], zero diagonal."""
    rng = np.random.default_rng([scene, 99])
    upper = np.triu(rng.uniform(0.2, 1.0, (n_labels, n_labels)), 1)
    return upper + upper.T


def _grid_10k(scene):
    return [("grid100x100", generate.gen_grid(100, 100, 2, seed=scene,
                                               theta_pos=16.0))]


def _multilabel(scene):
    out = []
    for t in (scene, scene + 1):
        out += [(f"grid40x40-L4-s{t}", generate.gen_grid(40, 40, 4, seed=t)),
                (f"clusters500-L5-s{t}", generate.gen_clusters(500, 5, seed=t))]
    return out


def _general_mu(scene):
    out = []
    for t in range(scene, scene + 4):
        inst = generate.gen_clusters(300, 3, seed=t)
        inst["compatibility"] = general_mu(t, 3).tolist()
        out.append((f"clusters300-L3-mu{t}", inst))
    return out


SCENES = {
    "grid-10k": _grid_10k,
    "multilabel": _multilabel,
    "general-mu": _general_mu,
}


def permuted(problem, perm):
    """The same CRF with its variables reordered by ``perm``.

    Only low-rank kernels (what Nystrom factorization yields) are
    supported; their factor rows are permuted, so the kernel is exactly
    the permuted kernel and every energy is preserved.
    """
    kernels = []
    for k in problem.kernels:
        if type(k) is not LowRankKernel or k.blocks is not None:
            raise TypeError(f"cannot permute kernel {type(k).__name__}")
        kernels.append(LowRankKernel(LowRankFactor(k.factor.phi[perm]), k.weight))
    return crf.CrfProblem(problem.unary[perm], kernels, problem.mu)


def build(workload, scene, seed):
    """Generate, Nystrom-factorize and permute every instance of a workload.

    Returns a list of ``(name, problem)``.
    """
    out = []
    for index, (name, instance) in enumerate(SCENES[workload](scene)):
        problem = crf.build_problem(instance)
        perm = np.random.default_rng([seed, index]).permutation(problem.n_vars)
        out.append((name, permuted(problem, perm)))
    return out


def tiny_problems(seed):
    """Brute-forceable instances: Potts N=12, L=2 and general N=7, L=3."""
    potts = crf.build_problem(generate.gen_clusters(12, 2, seed=seed))
    inst = generate.gen_clusters(7, 3, seed=seed)
    inst["compatibility"] = general_mu(seed, 3).tolist()
    return [("tiny-potts-N12-L2", potts),
            ("tiny-general-N7-L3", crf.build_problem(inst))]
