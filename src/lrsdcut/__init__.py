"""MAP inference for fully-connected pairwise CRFs with SPSD kernel potentials.

The package solves the semidefinite relaxation of the lifted binary
quadratic program with a dual quasi-Newton method whose per-iteration cost
is linear in the number of variables, thanks to low-rank (Nystrom) kernel
factors and a matrix-free partial eigensolver.  A mean-field baseline
shares the same fast kernel layer, and a brute-force/dense oracle module
provides independent reference computations for desk-scale verification.

BLAS threads are capped, as for any numpy program, by setting
``OMP_NUM_THREADS`` or ``OPENBLAS_NUM_THREADS`` before the package loads.
"""

from .kernels import (CenteredDiscriminativeKernel, GaussianKernel,
                      LowRankFactor, LowRankKernel, centered_discriminative_factor,
                      hadamard_matvec, load_factor, nystrom_factor, save_factor,
                      select_landmarks)
from .crf import (CrfProblem, InstanceFormatError, build_problem, energy,
                  energy_offset, lifted_energy, lifted_energy_general,
                  load_instance, to_indicator)
from .eig import (EigenConvergenceError, EigenCountMismatch, EigenCountUndecided,
                  PsdFactor, SymmetricOperator, leading_psd_part)
from .sdp import (GeneralSdp, LbfgsAscent, PottsSdp, SolveParams, SolveReport,
                  lr_sdcut_solve, make_sdp, round_solution, spectral_shift_init)
from .meanfield import mf_free_energy, mf_init, mf_solve, mf_update
from . import cli, crf, eig, generate, kernels, meanfield, oracle, sdp

__version__ = "0.1.0"
_SUBMODULES = ["kernels", "crf", "eig", "sdp", "meanfield", "oracle", "generate"]
# the names imported above, then the submodules (``cli`` is not exported)
__all__ = sorted(name for name in dir() if not name.startswith("_")
                 and name not in _SUBMODULES + ["cli"]) + _SUBMODULES
