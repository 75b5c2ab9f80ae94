"""The package's public surface, imported eagerly."""

import lrsdcut

# every name that ``lrsdcut`` has exported, and the submodules it reaches
PUBLIC = [
    "CenteredDiscriminativeKernel", "CrfProblem", "EigenConvergenceError",
    "EigenCountMismatch", "GaussianKernel", "GeneralSdp", "InstanceFormatError",
    "LbfgsAscent", "LowRankFactor", "LowRankKernel", "PottsSdp", "PsdFactor",
    "SolveParams", "SolveReport", "SymmetricOperator", "build_problem",
    "centered_discriminative_factor", "energy", "energy_offset",
    "hadamard_matvec", "leading_psd_part", "lifted_energy",
    "lifted_energy_general", "load_factor", "load_instance", "lr_sdcut_solve",
    "make_sdp", "mf_free_energy", "mf_init", "mf_solve", "mf_update",
    "nystrom_factor", "round_solution", "save_factor", "select_landmarks",
    "spectral_shift_init", "to_indicator",
]
SUBMODULES = ["kernels", "crf", "eig", "sdp", "meanfield", "oracle", "generate"]


def test_every_public_name_resolves():
    for name in lrsdcut.__all__:
        assert getattr(lrsdcut, name) is not None, name


def test_every_name_exported_before_still_resolves():
    assert lrsdcut.__all__ == PUBLIC + SUBMODULES
    for name in PUBLIC:
        module = getattr(lrsdcut, name).__module__
        assert module.startswith("lrsdcut."), name
    for name in SUBMODULES + ["cli"]:
        assert getattr(lrsdcut, name).__name__ == f"lrsdcut.{name}"
    assert lrsdcut.__version__ == "0.1.0"
