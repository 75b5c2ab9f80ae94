"""MAP inference for fully-connected pairwise CRFs with SPSD kernel potentials.

The package solves the semidefinite relaxation of the lifted binary
quadratic program with a dual quasi-Newton method whose per-iteration cost
is linear in the number of variables, thanks to low-rank (Nystrom) kernel
factors and a matrix-free partial eigensolver.  A mean-field baseline
shares the same fast kernel layer, and a brute-force/dense oracle module
provides independent reference computations for desk-scale verification.

Submodules are imported lazily so that the command-line front end can set
thread limits before any numerical library is loaded.
"""

_SUBMODULE_OF = {
    "LowRankFactor": "kernels",
    "GaussianKernel": "kernels",
    "LowRankKernel": "kernels",
    "CenteredDiscriminativeKernel": "kernels",
    "select_landmarks": "kernels",
    "nystrom_factor": "kernels",
    "hadamard_matvec": "kernels",
    "centered_discriminative_factor": "kernels",
    "save_factor": "kernels",
    "load_factor": "kernels",
    "CrfProblem": "crf",
    "to_indicator": "crf",
    "energy": "crf",
    "lifted_energy": "crf",
    "lifted_energy_general": "crf",
    "energy_offset": "crf",
    "load_instance": "crf",
    "build_problem": "crf",
    "InstanceFormatError": "crf",
    "SymmetricOperator": "eig",
    "PsdFactor": "eig",
    "EigenConvergenceError": "eig",
    "EigenCountMismatch": "eig",
    "leading_psd_part": "eig",
    "PottsSdp": "sdp",
    "GeneralSdp": "sdp",
    "make_sdp": "sdp",
    "spectral_shift_init": "sdp",
    "LbfgsAscent": "sdp",
    "round_solution": "sdp",
    "lr_sdcut_solve": "sdp",
    "SolveParams": "sdp",
    "SolveReport": "sdp",
    "mf_init": "meanfield",
    "mf_update": "meanfield",
    "mf_free_energy": "meanfield",
    "mf_solve": "meanfield",
}

__version__ = "0.1.0"
__all__ = sorted(_SUBMODULE_OF) + [
    "kernels", "crf", "eig", "sdp", "meanfield", "oracle", "generate",
]


def __getattr__(name):
    import importlib

    if name in _SUBMODULE_OF:
        module = importlib.import_module("." + _SUBMODULE_OF[name], __name__)
        return getattr(module, name)
    if name in ("kernels", "crf", "eig", "sdp", "meanfield", "oracle",
                "generate", "cli"):
        return importlib.import_module("." + name, __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
