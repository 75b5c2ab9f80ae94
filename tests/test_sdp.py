"""Dual solver: structured operators, gradients, dual start, ascent, rounding."""

import gc
import json
import weakref

import numpy as np
import pytest
from scipy.linalg.lapack import dsytrf

from conftest import (constraint_values, mixed_kernel_problem,
                      random_general_problem, random_potts_problem,
                      reconstruct)
from lrsdcut.crf import (CrfProblem, build_problem, energy, energy_offset,
                         lifted_energy, to_indicator)
from lrsdcut.eig import (EIG_TOL, PsdFactor, SymmetricOperator,
                         leading_eigpairs, leading_psd_part)
from lrsdcut import eig as eig_module
from lrsdcut import sdp as sdp_module
from lrsdcut.generate import gen_clusters, gen_grid
from lrsdcut.kernels import (CenteredDiscriminativeKernel, LowRankFactor,
                             LowRankKernel)
from lrsdcut.oracle import (brute_force_map, dense_sdp_pieces,
                            general_constraint_matrices,
                            potts_constraint_matrices)
from lrsdcut.sdp import (GeneralSdp, LbfgsAscent, PottsSdp, lr_sdcut_solve,
                         make_sdp, round_solution, spectral_shift_init)


def priced(sdp, labels):
    """Lifted energy of a labeling."""
    return lifted_energy(sdp.problem, to_indicator(labels, sdp.n_labels))


def exact_factor(sdp, u):
    return leading_psd_part(sdp.operator(u), max_rank=sdp.n, seed=0)


class TestPottsMatvec:
    def test_zero_everything(self):
        sdp = make_sdp(random_potts_problem(5, 2, seed=0), gamma=10.0)
        out = sdp.operator(np.zeros(sdp.q)).matvec(np.zeros(sdp.n))
        np.testing.assert_array_equal(out, np.zeros(sdp.n))

    def test_zero_operator(self):
        problem = CrfProblem(np.zeros((4, 2)),
                             [LowRankKernel(LowRankFactor(np.zeros((4, 1))))])
        sdp = make_sdp(problem, gamma=10.0)
        rng = np.random.default_rng(0)
        for _ in range(5):
            d = rng.standard_normal(sdp.n)
            np.testing.assert_allclose(sdp.operator(np.zeros(sdp.q)).matvec(d),
                                       np.zeros(sdp.n), atol=1e-15)

    def test_matches_dense_constraint_matrices(self, rng):
        sdp = make_sdp(random_potts_problem(6, 3, seed=1), gamma=25.0)
        u = rng.standard_normal(sdp.q)
        pieces = dense_sdp_pieces(sdp, u)
        for _ in range(20):
            d = rng.standard_normal(sdp.n)
            np.testing.assert_allclose(sdp.operator(u).matvec(d), pieces["C"] @ d,
                                       atol=1e-10)

    def test_length_mismatch_rejected(self):
        sdp = make_sdp(random_potts_problem(4, 2, seed=2), gamma=10.0)
        with pytest.raises(ValueError):
            sdp.operator(np.zeros(sdp.q)).matvec(np.zeros(sdp.n + 1))


class TestGeneralMatvec:
    def test_zero_everything(self):
        sdp = make_sdp(random_general_problem(4, 3, seed=3), gamma=10.0)
        out = sdp.operator(np.zeros(sdp.q)).matvec(np.zeros(sdp.n))
        np.testing.assert_array_equal(out, np.zeros(sdp.n))

    # L = 3 alone has as many label pairs as labels
    @pytest.mark.parametrize("n_labels", [2, 3, 5])
    def test_matches_dense_kronecker_operator(self, rng, n_labels):
        sdp = make_sdp(random_general_problem(4, n_labels, seed=4), gamma=25.0)
        u = rng.standard_normal(sdp.q)
        pieces = dense_sdp_pieces(sdp, u)
        for _ in range(20):
            d = rng.standard_normal(sdp.n)
            np.testing.assert_allclose(sdp.operator(u).matvec(d), pieces["C"] @ d,
                                       atol=1e-10)

    def test_potts_as_general_matches_dense_surface(self, rng):
        # explicit Potts matrix through the general lifting
        potts_mu = np.ones((3, 3)) - np.eye(3)
        base = random_potts_problem(4, 3, seed=5)
        problem = CrfProblem(base.unary, base.kernels, mu=potts_mu)
        sdp = make_sdp(problem, gamma=40.0)
        for _ in range(5):
            u = 0.3 * rng.standard_normal(sdp.q)
            pieces = dense_sdp_pieces(sdp, u)
            factor = exact_factor(sdp, u)
            assert sdp.dual_objective(u, factor) == pytest.approx(
                pieces["dual"], abs=1e-8)


class TestDualObjective:
    def test_zero_operator_gives_constant_term(self):
        problem = CrfProblem(np.zeros((6, 2)),
                             [LowRankKernel(LowRankFactor(np.zeros((6, 1))))])
        sdp = make_sdp(problem, gamma=1000.0)
        u = np.zeros(sdp.q)
        factor = exact_factor(sdp, u)
        assert factor.rank == 0
        assert sdp.dual_objective(u, factor) == pytest.approx(-0.032)

    def test_matches_dense_evaluation(self, rng):
        sdp = make_sdp(random_potts_problem(6, 2, seed=6), gamma=100.0)
        for _ in range(10):
            u = 0.5 * rng.standard_normal(sdp.q)
            pieces = dense_sdp_pieces(sdp, u)
            factor = exact_factor(sdp, u)
            assert sdp.dual_objective(u, factor) == pytest.approx(
                pieces["dual"], abs=1e-8)


class TestDualGradient:
    def test_empty_positive_part_gives_minus_b(self):
        problem = CrfProblem(np.zeros((6, 2)),
                             [LowRankKernel(LowRankFactor(np.zeros((6, 1))))])
        sdp = make_sdp(problem, gamma=50.0)
        factor = exact_factor(sdp, np.zeros(sdp.q))
        np.testing.assert_array_equal(sdp.dual_gradient(np.zeros(sdp.q), factor),
                                      -sdp.b)

    def test_matches_finite_differences(self, rng):
        sdp = make_sdp(random_potts_problem(6, 2, seed=7), gamma=100.0)
        step = 1e-5
        worst = 0.0
        for _ in range(20):
            u = 0.4 * rng.standard_normal(sdp.q)
            grad = sdp.dual_gradient(u, exact_factor(sdp, u))
            fd = np.zeros(sdp.q)
            for i in range(sdp.q):
                up, um = u.copy(), u.copy()
                up[i] += step
                um[i] -= step
                fd[i] = (dense_sdp_pieces(sdp, up)["dual"]
                         - dense_sdp_pieces(sdp, um)["dual"]) / (2 * step)
            scale = max(np.linalg.norm(fd, np.inf), 1.0)
            worst = max(worst, np.linalg.norm(grad - fd, np.inf) / scale)
        assert worst < 1e-4

    def test_matches_dense_projector_per_constraint(self, rng):
        sdp = make_sdp(random_potts_problem(5, 3, seed=8), gamma=30.0)
        for _ in range(5):
            u = 0.3 * rng.standard_normal(sdp.q)
            pieces = dense_sdp_pieces(sdp, u)
            grad = sdp.dual_gradient(u, exact_factor(sdp, u))
            np.testing.assert_allclose(grad, pieces["grad"], atol=1e-8)

    def test_general_gradient_matches_dense(self, rng):
        sdp = make_sdp(random_general_problem(4, 3, seed=9), gamma=30.0)
        for _ in range(5):
            u = 0.3 * rng.standard_normal(sdp.q)
            pieces = dense_sdp_pieces(sdp, u)
            grad = sdp.dual_gradient(u, exact_factor(sdp, u))
            np.testing.assert_allclose(grad, pieces["grad"], atol=1e-8)


# every kernel case that the count's K/2 = c I + G Diag(s) G' covers, in
# both liftings, and the general lifting's singular U = mu - 11'
KERNEL_CASES = ([(form, general) for general in (False, True)
                 for form in ("plain", "blocked", "centered", "mixed", "empty",
                              "image-blocks")]
                + [("singular-L2", True), ("singular-L3", True)])
KERNEL_CASE_IDS = [("general-" if general else "potts-") + form
                   for form, general in KERNEL_CASES]


def _image_block_problem(n, n_labels, seed, general=False):
    """A co-segmentation-like stack over four image blocks: two low-rank
    kernels block-diagonal over them, one over two other blocks, and a
    plain low-rank and a centered kernel (those of the mixed stack).  A
    general mu (L >= 3) only has mu_12 = mu_21 = 1, so U = mu - 11' has a
    positive eigenvalue (sqrt(2) - 1 for L = 3) beside negative ones."""
    base = mixed_kernel_problem(n, n_labels, seed, general=general)
    mu = None if base.mu is None else np.zeros((n_labels, n_labels))
    if general:
        mu[1, 2] = mu[2, 1] = 1.0
    rng = np.random.default_rng(seed + 100)
    images = [0, n // 4, n // 2, 3 * n // 4, n]
    f = [LowRankFactor(rng.standard_normal((n, 2)) / np.sqrt(2)) for _ in range(3)]
    kernels = [LowRankKernel(f[0], 0.9, blocks=images),
               LowRankKernel(f[1], 0.6, blocks=images),
               LowRankKernel(f[2], 0.5, blocks=[0, n // 3, n])]
    return CrfProblem(base.unary, kernels + base.kernels[1:], mu=mu)


def _kernel_case(form, general, n, seed):
    """A problem over one plain, blocked or centered kernel, the mixed
    stack of all three, the image-block stack, or no kernel at all; or a
    general one over a plain kernel whose U is singular (L = 2 with
    mu_12 = 0; L = 3 with mu = 0)."""
    if form == "mixed":
        return mixed_kernel_problem(n, 3, seed, general=general)
    if form == "image-blocks":
        return _image_block_problem(n, 3, seed, general=general)
    n_labels = int(form[-1]) if form.startswith("singular") else 3
    problem = _one_kernel_problem(n, n_labels, seed, form, general)
    if form.startswith("singular"):
        return CrfProblem(problem.unary, problem.kernels,
                          mu=np.zeros((n_labels, n_labels)))
    return CrfProblem(problem.unary, [], mu=problem.mu) if form == "empty" \
        else problem


def _inertia_count(sdp, u, sigma):
    inverse = sdp.shifted_inverse(sdp.assemble(u), sigma)
    return inverse and inverse[0]


def _indefinite_u(problem):
    """``problem`` (L = 3) with mu_12 = mu_21 = 1 and every other entry 0, so
    that U = mu - 11' has eigenvalues -2.41, -1 and 0.41: the general count
    then borders over positive as well as negative entries of
    Diag(s) (x) Lambda^-1, which a uniform mu in [0, 1] gives at few seeds."""
    mu = np.zeros((3, 3))
    mu[0, 1] = mu[1, 0] = 1.0
    return CrfProblem(problem.unary, problem.kernels, mu=mu)


def _indefinite_u_problem(n, n_labels, seed):
    return _indefinite_u(random_general_problem(n, n_labels, seed=seed))


def _dense_count(sdp, u, sigma):
    return int(np.sum(np.linalg.eigvalsh(dense_sdp_pieces(sdp, u)["C"]) > sigma))


def _two_kernel_potts(n, n_labels, seed):
    """Potts problem over a stack of two weighted low-rank kernels."""
    rng = np.random.default_rng(seed)
    kernels = [LowRankKernel(LowRankFactor(rng.standard_normal((n, r))), w)
               for r, w in ((2, 0.7), (3, 0.4))]
    return CrfProblem(rng.standard_normal((n, n_labels)), kernels)


class TestPositiveCount:
    """Inertia counts of C(u)'s eigenvalues above sigma against the dense
    spectrum."""

    # general L = 3 takes the closed-form 3 x 3 pivots, other L eigh
    @pytest.mark.parametrize("make, n_labels", [
        (random_potts_problem, 2), (random_potts_problem, 4),
        (_two_kernel_potts, 3), (random_general_problem, 2),
        (random_general_problem, 3), (random_general_problem, 5),
        (_indefinite_u_problem, 3)])
    def test_matches_dense_spectrum(self, rng, make, n_labels):
        for seed in range(6):
            sdp = make_sdp(make(10, n_labels, seed=seed), gamma=100.0)
            u0, _ = spectral_shift_init(sdp, 4)
            for scale in (0.3, 3.0):
                u = u0 + scale * rng.standard_normal(sdp.q)
                for sigma in (1e-8, 0.5, -0.5):
                    assert _inertia_count(sdp, u, sigma) == \
                        _dense_count(sdp, u, sigma)

    def test_near_zero_potts_pivot_is_undecided(self, rng):
        sdp = make_sdp(random_potts_problem(10, 3, seed=1), 1000.0)
        u = rng.standard_normal(sdp.q)
        assert _inertia_count(sdp, u, 0.2) == _dense_count(sdp, u, 0.2)
        u[-4] = -0.2 - 1e-13  # the pivot -u4_i - sigma of variable 6
        assert _inertia_count(sdp, u, 0.2) is None

    @pytest.mark.parametrize("n_labels", [3, 5])
    def test_near_singular_general_block_is_undecided(self, rng, n_labels):
        problem = random_general_problem(10, n_labels, seed=2)
        sdp = make_sdp(problem, 1000.0)
        u = rng.standard_normal(sdp.q)
        assert _inertia_count(sdp, u, 0.2) == _dense_count(sdp, u, 0.2)
        # variable 4's block -Diag(h_4) - Diag(u1_4) - ltri(u2_4)/2 - sigma I
        # becomes diagonal with a first entry of 1e-13
        pairs = sdp.n_pairs
        u[sdp.n_vars + 4 * pairs:sdp.n_vars + 5 * pairs] = 0.0
        u[4] = -problem.unary[4, 0] - 0.2 - 1e-13
        assert _inertia_count(sdp, u, 0.2) is None

    def test_sigma_at_an_eigenvalue_is_undecided(self, rng):
        sdp = make_sdp(random_potts_problem(10, 3, seed=3), 1000.0)
        u = rng.standard_normal(sdp.q)
        eigs = np.linalg.eigvalsh(dense_sdp_pieces(sdp, u)["C"])
        assert _inertia_count(sdp, u, eigs[-3]) is None

    def test_schur_inertia_reads_two_by_two_pivots(self, rng):
        # a zero diagonal makes Bunch-Kaufman choose 2 x 2 pivot blocks
        for n in (2, 5, 12, 31):
            mat = rng.standard_normal((n, n))
            mat += mat.T
            np.fill_diagonal(mat, 0.0)
            factored = dsytrf(mat, lower=1)
            assert sdp_module._positive_inertia(3, factored, 1e-12) == \
                3 + np.count_nonzero(np.linalg.eigvalsh(mat) > 0.0)

    @pytest.mark.parametrize("form, general", KERNEL_CASES, ids=KERNEL_CASE_IDS)
    def test_every_kernel_case_is_counted(self, rng, form, general):
        for seed in range(3):
            sdp = make_sdp(_kernel_case(form, general, 9, seed), 1000.0)
            u0, _ = spectral_shift_init(sdp, 4)
            for scale in (0.3, 3.0):
                u = u0 + scale * rng.standard_normal(sdp.q)
                for sigma in (1e-8, 0.5, -0.5):
                    assert _inertia_count(sdp, u, sigma) == \
                        _dense_count(sdp, u, sigma)

    @pytest.mark.parametrize("general", [False, True])
    def test_blocked_kernels_stay_compact(self, general):
        # the two kernels over the four image blocks count 2 + 2 columns
        # once, not once per block; the kernel over two other blocks is
        # padded (2 x 2), the plain one adds 2 and the centered one 1 + 2
        sdp = make_sdp(_image_block_problem(40, 3, 0, general), 1000.0)
        assert sdp._blocked_width == 4
        assert sdp._count_spans == [(0, 10), (10, 20), (20, 30), (30, 40)]
        assert sdp._count_factor.shape == (40, 4 + 4 + 2 + 3)
        np.testing.assert_array_equal(sdp._count_signs,
                                      [1.0] * 10 + [-1.0] * 3)


def _dense_c(sdp, parts):
    """C(u) as a dense matrix, from :meth:`assemble`'s blocks."""
    op = sdp.parts_operator(parts)
    return np.column_stack([op.apply(col) for col in np.eye(sdp.n)])


def _refuse_matvec(d):
    raise AssertionError("shift-invert Lanczos applied C(u) itself")


class TestShiftInvert:
    """Counted requests run Lanczos on (C(u) - sigma I)^-1, with sigma
    proven above C(u)'s spectrum by an inertia count whose factorization
    also gives the solves, in both liftings."""

    @staticmethod
    def _random_point(kind, seed, rng):
        if kind.startswith("general"):
            problem = _general_l3(30, seed)
            if kind == "general-indefinite-u":
                problem = _indefinite_u(problem)
        else:
            problem = build_problem(gen_grid(6, 5, 3, seed=seed) if kind == "grid"
                                    else gen_clusters(30, 4, seed=seed))
        sdp = make_sdp(problem, 1000.0)
        u0, _ = spectral_shift_init(sdp, 4)
        parts = sdp.assemble(u0 + 0.5 * rng.standard_normal(sdp.q))
        return sdp, parts, np.linalg.eigvalsh(_dense_c(sdp, parts))

    @pytest.mark.parametrize("kind", ["grid", "clusters", "general",
                                      "general-indefinite-u"])
    def test_solve_inverts_the_shifted_operator(self, rng, kind):
        for seed in range(4):
            sdp, parts, eigs = self._random_point(kind, seed, rng)
            scale = max(abs(eigs[-1]), 1.0)
            for sigma in (eigs[-1] + 0.05 * scale, eigs[-1] + 2.0 * scale):
                count, solve = sdp.shifted_inverse(parts, sigma)
                assert count == 0
                for x in rng.standard_normal((3, sdp.n)):
                    back = solve(sdp.c_matvec(parts, x) - sigma * x)
                    assert np.linalg.norm(back - x) <= \
                        1e-10 * np.linalg.norm(x)

    @pytest.mark.parametrize("kind", ["grid", "clusters", "general",
                                      "general-indefinite-u"])
    def test_count_is_zero_exactly_above_the_spectrum(self, rng, kind):
        for seed in range(4):
            sdp, parts, eigs = self._random_point(kind, seed, rng)
            scale = max(abs(eigs[-1]), 1.0)
            for step in (-0.5, -1e-4, 1e-4, 0.5):
                sigma = eigs[-1] + step * scale
                count, _ = sdp.shifted_inverse(parts, sigma)
                assert count == np.count_nonzero(eigs > sigma)
                assert (count == 0) == (sigma >= eigs[-1])

    @pytest.mark.parametrize("form, general", KERNEL_CASES, ids=KERNEL_CASE_IDS)
    def test_every_kernel_case_solves_like_numpy(self, rng, form, general):
        for seed in range(3):
            sdp = make_sdp(_kernel_case(form, general, 12, seed), 1000.0)
            u0, _ = spectral_shift_init(sdp, 4)
            parts = sdp.assemble(u0 + 0.5 * rng.standard_normal(sdp.q))
            dense = _dense_c(sdp, parts)
            eigs = np.linalg.eigvalsh(dense)
            # above the spectrum, and inside its widest gap
            gap = np.argmax(np.diff(eigs))
            for sigma in (eigs[-1] + max(abs(eigs[-1]), 1.0),
                          0.5 * (eigs[gap] + eigs[gap + 1])):
                count, solve = sdp.shifted_inverse(parts, sigma)
                assert count == np.count_nonzero(eigs > sigma)
                shifted = dense - sigma * np.eye(sdp.n)
                for b in rng.standard_normal((2, sdp.n)):
                    x = solve(b)
                    np.testing.assert_allclose(x, np.linalg.solve(shifted, b),
                                               rtol=0.0,
                                               atol=1e-9 * np.linalg.norm(x))

    @pytest.mark.parametrize("general, capped", [
        (False, False), (False, True), (True, False), (True, True)],
        ids=["complete", "rank-capped", "general-complete",
             "general-rank-capped"])
    def test_positive_part_matches_the_dense_one(self, rng, general, capped):
        problem = (_general_l3(40, 2) if general
                   else build_problem(gen_grid(8, 8, 3, seed=2)))
        sdp = make_sdp(problem, 1000.0)
        u0, _ = spectral_shift_init(sdp, 6)
        parts = sdp.assemble(u0 - 0.05 * sdp.identity
                             + 1e-3 * rng.standard_normal(sdp.q))
        vals, vecs = np.linalg.eigh(_dense_c(sdp, parts))
        vals, vecs = vals[::-1], vecs[:, ::-1]
        count = sdp.shifted_inverse(parts, EIG_TOL)[0]
        assert count == np.count_nonzero(vals > EIG_TOL) >= 4
        sigma = 1.5 * vals[0]
        shift = sigma, sdp.shifted_inverse(parts, sigma)[1]
        rank = count - 2 if capped else count
        # the run needs the solves alone, never C(u) itself
        factor = leading_psd_part(SymmetricOperator(sdp.n, _refuse_matvec),
                                  rank, seed=3, count=count,
                                  shift=shift)
        assert factor.truncated == capped
        np.testing.assert_allclose(factor.values, vals[:rank], rtol=1e-10)
        np.testing.assert_allclose(factor.vectors @ factor.vectors.T,
                                   vecs[:, :rank] @ vecs[:, :rank].T,
                                   atol=1e-8)

    # a start 0.1 times the usual doubles up to the spectrum; one 1e-3
    # times it stays below after 4 doublings and falls back to Lanczos on
    # C(u) itself
    @pytest.mark.parametrize("general, scale, found", [
        (False, 0.1, True), (False, 1e-3, False),
        (True, 0.1, True), (True, 1e-3, False)],
        ids=["doubles", "falls-back", "general-doubles", "general-falls-back"])
    def test_a_low_sigma_doubles_or_falls_back(self, monkeypatch, general,
                                               scale, found):
        counted = sdp_module._counted_request
        shifts = []  # (start, proven shift or None, dense lambda_max)

        def low_start(sdp, parts, sigma):
            count, shift = counted(sdp, parts, scale * sigma)
            if count and sigma:
                shifts.append((scale * sigma, shift,
                               np.linalg.eigvalsh(_dense_c(sdp, parts))[-1]))
            return count, shift

        monkeypatch.setattr(sdp_module, "_counted_request", low_start)
        calls = _record_psd_calls(monkeypatch)
        problem = (_general_l3(50, 2) if general
                   else build_problem(gen_grid(12, 12, 3, seed=2)))
        report = lr_sdcut_solve(problem, seed=1)
        assert report.warnings == (
            ["general label-compatibility path is experimental"] if general
            else [])
        assert len(shifts) > 3
        for _, shift, top in shifts:
            assert (shift is not None) == found
            assert shift is None or shift[0] > top
        if found:  # some start lay below lambda_max and doubled past it
            assert any(start < top for start, _, top in shifts)
        checked = 0
        for op, _, _, factor in calls:
            if not factor.truncated:
                assert factor.frob_norm_sq() == pytest.approx(
                    _dense_positive_frob_sq(op), rel=1e-9)
                checked += 1
        assert checked > 3


class _ScriptedLifting:
    """A lifting whose shifted_inverse counts a fixed spectrum, undecided at
    an eigenvalue (or everywhere without one), and records each sigma."""

    def __init__(self, eigs):
        self.eigs, self.sigmas = eigs, []

    def shifted_inverse(self, parts, sigma):
        self.sigmas.append(sigma)
        if self.eigs is None or sigma in self.eigs:
            return None
        return np.count_nonzero(np.greater(self.eigs, sigma)), f"solve at {sigma}"


class TestCountedRequestHelper:
    """``_counted_request``'s (count, shift) for one dual evaluation, from
    inertia counts made in order: at EIG_TOL, then at sigma doubled."""

    @staticmethod
    def _request(eigs, sigma):
        lifting = _ScriptedLifting(eigs)
        return sdp_module._counted_request(lifting, None, sigma), lifting.sigmas

    def test_an_undecided_count_gives_neither(self):
        assert self._request(None, 2.0) == ((None, None), [EIG_TOL])

    def test_a_zero_sigma_gives_the_count_alone(self):
        assert self._request([3.0, 1.0, -1.0], 0.0) == ((2, None), [EIG_TOL])

    def test_a_zero_count_gives_no_shift(self):
        assert self._request([-1.0, -2.0], 2.0) == ((0, None), [EIG_TOL])

    def test_a_sigma_below_the_spectrum_doubles(self):
        assert self._request([5.0, 1.0, -1.0], 0.75) == (
            (2, (6.0, "solve at 6.0")), [EIG_TOL, 0.75, 1.5, 3.0, 6.0])

    @pytest.mark.parametrize("eigs, sigmas", [
        ([100.0, -1.0], [1.0, 2.0, 4.0, 8.0, 16.0]), ([4.0, -1.0], [1.0, 2.0, 4.0])],
        ids=["stays-below", "undecided"])
    def test_a_sigma_never_proven_gives_no_shift(self, eigs, sigmas):
        assert self._request(eigs, 1.0) == ((1, None), [EIG_TOL] + sigmas)


class TestPottsLayout:
    """Potts assembles W = [F, E] column-major, with the coupling E a view
    of it, and its shifted solves read the D^-1 W of the Schur build."""

    @staticmethod
    def _point(rng):
        # N = 600 against R + L <= 19
        problem = build_problem(gen_grid(25, 24, 3, seed=4, landmarks=20,
                                         rank=8))
        sdp = make_sdp(problem, 1000.0)
        u0, _ = spectral_shift_init(sdp, 4)
        return sdp, sdp.assemble(u0 + 0.5 * rng.standard_normal(sdp.q))

    def test_w_is_column_major_and_holds_the_coupling(self, rng):
        sdp, parts = self._point(rng)
        _, coupling, _, w = parts
        assert w.flags.f_contiguous
        assert np.shares_memory(coupling, w)
        np.testing.assert_array_equal(w[:, -sdp.n_labels:], coupling)
        np.testing.assert_array_equal(w[:, :-sdp.n_labels], sdp._count_factor)
        np.testing.assert_array_equal(
            sdp.assemble(np.zeros(sdp.q))[1], -0.5 * sdp.problem.unary)

    def test_solve_matches_a_dense_solve(self, rng):
        sdp, parts = self._point(rng)
        assert sdp.n_vars >= 30 * parts[3].shape[1]
        dense = _dense_c(sdp, parts)
        eigs = np.linalg.eigvalsh(dense)
        # above the spectrum, and inside it between two eigenvalues
        middle = np.argmax(np.diff(eigs[sdp.n // 2:])) + sdp.n // 2
        for sigma in (1.5 * eigs[-1], 0.5 * (eigs[middle] + eigs[middle + 1])):
            count, solve = sdp.shifted_inverse(parts, sigma)
            assert count == np.count_nonzero(eigs > sigma)
            shifted = dense - sigma * np.eye(sdp.n)
            for b in rng.standard_normal((3, sdp.n)):
                x = solve(b)
                np.testing.assert_allclose(x, np.linalg.solve(shifted, b),
                                           rtol=0.0,
                                           atol=1e-9 * np.linalg.norm(x))


def _one_kernel_problem(n, n_labels, seed, form, general):
    """Problem over one kernel: block-diagonal low-rank, centered
    discriminative, or else plain low-rank; with a random compatibility
    when general."""
    rng = np.random.default_rng(seed)
    factor = LowRankFactor(rng.standard_normal((n, 3)) / np.sqrt(3))
    if form == "centered":
        kernel = CenteredDiscriminativeKernel(factor, kappa=0.5, weight=0.8)
    else:
        kernel = LowRankKernel(factor, 1.2, blocks=[0, n // 3, n]
                               if form == "blocked" else None)
    mu = None
    if general:
        mu = rng.uniform(0.0, 1.0, (n_labels, n_labels))
        mu = 0.5 * (mu + mu.T)
        np.fill_diagonal(mu, 0.0)
    return CrfProblem(rng.standard_normal((n, n_labels)), [kernel], mu=mu)


def _pinched(sdp, u):
    return sdp.pinched_norm_sq(sdp.assemble(u))


def _dense_positive_norm_sq(sdp, u):
    vals = np.linalg.eigvalsh(dense_sdp_pieces(sdp, u)["C"])
    return float(np.sum(np.clip(vals, 0.0, None) ** 2))


class TestPinchedBound:
    """The pinching bound from C(u)'s diagonal blocks never exceeds
    ||C(u)_+||_F^2."""

    @pytest.mark.parametrize("general", [False, True])
    @pytest.mark.parametrize("form", ["plain", "blocked", "centered"])
    def test_below_the_dense_norm(self, rng, monkeypatch, form, general):
        problem = _one_kernel_problem(12, 3, seed=7, form=form,
                                      general=general)
        sdp = make_sdp(problem, gamma=1000.0)
        u0, _ = spectral_shift_init(sdp, 4)
        points = [u0 + scale * rng.standard_normal(sdp.q)
                  for scale in (0.3, 3.0) for _ in range(4)]
        # and every dual point a solve visits
        lifting = type(sdp)
        assemble = lifting.assemble

        def recording(self, u):
            points.append(np.array(u))
            return assemble(self, u)

        monkeypatch.setattr(lifting, "assemble", recording)
        lr_sdcut_solve(problem, seed=1)
        monkeypatch.undo()
        assert len(points) > 12
        positive = 0
        for u in points:
            bound = _pinched(sdp, u)
            dense = _dense_positive_norm_sq(sdp, u)
            assert bound <= dense * (1.0 + 1e-12) + 1e-12
            positive += bound > 0.0
        assert positive > 0

    @pytest.mark.parametrize("diagonal_kernel", [False, True])
    def test_exact_for_the_general_lifting_without_coupling(self, rng,
                                                            diagonal_kernel):
        # with no kernel, or a diagonal one, the general lifting's C(u) is
        # block diagonal, so pinching loses nothing
        base = random_general_problem(10, 3, seed=3)
        kernels = []
        if diagonal_kernel:
            phi = np.diag(rng.uniform(0.5, 1.5, 10))
            kernels = [LowRankKernel(LowRankFactor(phi), 0.7)]
        sdp = make_sdp(CrfProblem(base.unary, kernels, mu=base.mu),
                       gamma=1000.0)
        for scale in (0.3, 3.0):
            u = scale * rng.standard_normal(sdp.q)
            dense = _dense_positive_norm_sq(sdp, u)
            assert dense > 0.0
            assert _pinched(sdp, u) == pytest.approx(dense, rel=1e-12)


class _DiagonalStub:
    """Minimal problem stand-in exposing what spectral_shift_init needs:
    A is diagonal and each coordinate is its own constraint, B_i = e_i e_i'."""

    def __init__(self, diag):
        self.diag = np.asarray(diag, dtype=np.float64)
        self.n = self.q = self.diag.size
        self.identity = np.ones(self.n)

    def operator(self, u):
        return SymmetricOperator(self.n, lambda d: -self.diag * d - u * d)


class TestSpectralShift:
    def test_diagonal_example(self):
        stub = _DiagonalStub([1.0, 2.0, 3.0])
        u0, _ = spectral_shift_init(stub, r=2)
        np.testing.assert_allclose(-u0, 2.0 * stub.identity)
        # C(u0) = -A - Diag(u0) = Diag([1, 0, -1]): positive rank 1
        factor = leading_psd_part(stub.operator(u0), max_rank=3)
        assert factor.rank == 1
        assert factor.values[0] == pytest.approx(1.0)

    def test_r_equal_one_empties_initial_positive_part(self):
        sdp = make_sdp(random_potts_problem(6, 2, seed=10), gamma=10.0)
        u0, _ = spectral_shift_init(sdp, r=1)
        factor = exact_factor(sdp, u0)
        assert factor.rank == 0

    def test_rank_after_shift_bounded_by_r(self, rng):
        sdp = make_sdp(random_potts_problem(8, 2, seed=11), gamma=10.0)
        u0, _ = spectral_shift_init(sdp, r=5)
        pieces = dense_sdp_pieces(sdp, u0)
        vals = np.linalg.eigvalsh(pieces["C"])
        measured = int(np.sum(vals > 1e-10))
        assert measured in (4, 5)

    def test_bad_r_rejected(self):
        sdp = make_sdp(random_potts_problem(3, 2, seed=12), gamma=10.0)
        with pytest.raises(ValueError):
            spectral_shift_init(sdp, r=0)

    @pytest.mark.parametrize("make", [random_potts_problem,
                                      random_general_problem])
    def test_start_pairs_give_the_positive_part(self, make):
        for seed in range(6):
            sdp = make_sdp(make(10, 3, seed=seed), gamma=100.0)
            for r in (1, 4, 9):
                _assert_start_is_exact(sdp, r, seed)

    @pytest.mark.parametrize("make", [
        random_potts_problem, _two_kernel_potts,
        lambda n, n_labels, seed: random_potts_problem(n, n_labels, seed,
                                                       kernel_rank=5)])
    @pytest.mark.parametrize("n_vars, n_labels", [(10, 3), (30, 2), (40, 4)])
    def test_factored_potts_start_needs_no_lanczos(self, monkeypatch, make,
                                                    n_vars, n_labels):
        monkeypatch.setattr(sdp_module, "leading_eigpairs", _refuse_lanczos)
        for seed in range(3):
            sdp = make_sdp(make(n_vars, n_labels, seed=seed), gamma=100.0)
            p0 = _start_positive_count(sdp)
            # C(0) = B S B' with S congruent to blockdiag([[0, I], [I, 0]], I_R)
            assert p0 == n_labels + sdp._count_factor.shape[1]
            for r in (1, 4, p0 - 1, p0):
                _assert_start_is_exact(sdp, r, seed)

    def test_other_starts_run_lanczos(self, monkeypatch):
        calls = []

        def lanczos(op, k, **kwargs):
            calls.append(k)
            return leading_eigpairs(op, k, **kwargs)

        monkeypatch.setattr(sdp_module, "leading_eigpairs", lanczos)
        for seed in range(3):
            # r past C(0)'s positive count, a stack with a centered kernel,
            # and a block-diagonal kernel, whose padded F would be b R wide
            potts = make_sdp(random_potts_problem(12, 3, seed=seed), gamma=100.0)
            mixed = make_sdp(mixed_kernel_problem(12, 3, seed=seed), gamma=100.0)
            blocked = make_sdp(_one_kernel_problem(12, 3, seed, "blocked", False),
                               gamma=100.0)
            for sdp, r in ((potts, _start_positive_count(potts) + 1), (mixed, 4),
                           (blocked, 4)):
                _assert_start_is_exact(sdp, r, seed)
                assert calls == [r]
                calls.clear()

    def test_rank_deficient_w_stays_exact(self, monkeypatch, rng):
        # the kernel factor repeats a column and a scaled unary column, so
        # W = [-H/2, F] has dependent columns and a singular R factor
        unary = rng.standard_normal((15, 3))
        base = rng.standard_normal((15, 2))
        phi = np.column_stack([base, base[:, 0], 0.3 * unary[:, 1]])
        problem = CrfProblem(unary, [LowRankKernel(LowRankFactor(phi), 0.8)])
        sdp = make_sdp(problem, gamma=100.0)
        monkeypatch.setattr(sdp_module, "leading_eigpairs", _refuse_lanczos)
        p0 = _start_positive_count(sdp)
        assert p0 < 3 + phi.shape[1]
        for r in (1, p0 - 1, p0):
            _assert_start_is_exact(sdp, r, seed=0)


def _refuse_lanczos(op, k, **kwargs):
    raise AssertionError("no Lanczos run expected")


def _start_positive_count(sdp):
    """C(0)'s number of positive eigenvalues from its dense spectrum."""
    vals = np.linalg.eigvalsh(dense_sdp_pieces(sdp, np.zeros(sdp.q))["C"])
    return int(np.count_nonzero(vals > 1e-9 * np.abs(vals).max()))


def _assert_start_is_exact(sdp, r, seed):
    """The start's pairs are the dense positive part of C(u0), to 1e-12."""
    def refuse(d):
        raise AssertionError("no matvec expected")

    u0, pairs = spectral_shift_init(sdp, r, seed=seed)
    assert pairs[0].size == r and pairs[0][-1] == 0.0
    factor = leading_psd_part(SymmetricOperator(sdp.n, refuse), sdp.n,
                              pairs=pairs)
    assert not factor.truncated
    vals, vecs = np.linalg.eigh(dense_sdp_pieces(sdp, u0)["C"])
    positive = (vecs * np.clip(vals, 0.0, None)) @ vecs.T
    error = np.linalg.norm(reconstruct(factor) - positive)
    assert error <= 1e-12 * max(np.linalg.norm(positive), 1.0)


class TestIdentityWeights:
    """The dual start needs no correction term: the identity-weighted
    constraint matrices sum to I and their right-hand sides to eta."""

    @pytest.mark.parametrize("problem, dense", [
        (random_potts_problem(5, 3, seed=20), potts_constraint_matrices),
        (random_general_problem(4, 3, seed=21), general_constraint_matrices),
    ], ids=["potts", "general"])
    def test_weighted_constraints_sum_to_identity(self, problem, dense):
        sdp = make_sdp(problem, 1000.0)
        constraints = dense(problem.n_vars, problem.n_labels)
        total = sum(w * mat for w, (mat, _) in zip(sdp.identity, constraints))
        np.testing.assert_array_equal(total, np.eye(sdp.n))
        b = np.array([rhs for _, rhs in constraints])
        assert sdp.identity @ b == sdp.eta


class TestLbfgsAscent:
    def test_concave_quadratic_converges_fast(self, rng):
        q = 12
        target = rng.standard_normal(q)

        def obj(u):
            diff = u - target
            return -0.5 * diff @ diff, -diff, None

        opt = LbfgsAscent(obj, np.zeros(q))
        for _ in range(2 * (q + 1)):
            step = opt.step()
            if step.converged:
                break
        assert np.linalg.norm(opt.u - target) < 1e-8

    def test_stationary_start_reports_converged(self):
        opt = LbfgsAscent(lambda u: (0.0, np.zeros(3), None), np.zeros(3))
        step = opt.step()
        assert step.converged and not step.stalled
        np.testing.assert_array_equal(opt.u, np.zeros(3))

    def test_piecewise_quadratic_values_never_decrease(self, rng):
        q = 20
        a = rng.uniform(0.5, 2.0, q)

        def obj(u):
            # concave, C^1 but only piecewise C^2
            over = np.clip(u - 1.0, 0.0, None)
            under = np.clip(-1.0 - u, 0.0, None)
            value = -0.5 * (a * over ** 2).sum() - 0.5 * (a * under ** 2).sum() \
                - 0.05 * (u @ u)
            grad = -(a * over) + (a * under) - 0.1 * u
            return value, grad, None

        opt = LbfgsAscent(obj, 5.0 * rng.standard_normal(q))
        values = [opt.value]
        for _ in range(40):
            step = opt.step()
            if step.converged or step.stalled:
                break
            values.append(step.value)
        diffs = np.diff(values)
        assert np.all(diffs >= -1e-12)
        assert values[-1] > values[0]


class TestRoundSolution:
    # label rows [1, -1] put the sign pattern into the X block
    def test_rank_one_sign_pattern_is_deterministic(self):
        problem = CrfProblem(np.zeros((6, 2)),
                             [LowRankKernel(LowRankFactor(np.zeros((6, 1))))])
        sdp = make_sdp(problem, gamma=1.0)
        signs = np.array([1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
        vec = np.concatenate([np.array([1.0, -1.0]), signs])
        vec /= np.linalg.norm(vec)
        factor = PsdFactor(vec[:, None], np.array([2.0]))
        labels, _ = round_solution(factor, sdp, seed=123, n_samples=1)
        positive = labels[signs > 0]
        negative = labels[signs < 0]
        assert np.all(positive == positive[0])
        assert np.all(negative == negative[0])
        assert positive[0] != negative[0]

    # the general lifting's Gaussian draw carries the pattern instead
    def test_rank_one_sign_pattern_is_deterministic_general(self):
        problem = CrfProblem(np.zeros((6, 2)),
                             [LowRankKernel(LowRankFactor(np.zeros((6, 1))))],
                             mu=np.array([[0.0, 0.5], [0.5, 0.0]]))
        sdp = make_sdp(problem, gamma=1.0)
        signs = np.array([1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
        vec = np.outer(signs, [1.0, -1.0]).reshape(-1)
        vec /= np.linalg.norm(vec)
        factor = PsdFactor(vec[:, None], np.array([2.0]))
        labels, _ = round_solution(factor, sdp, seed=123, n_samples=1)
        positive = labels[signs > 0]
        negative = labels[signs < 0]
        assert np.all(positive == positive[0])
        assert np.all(negative == negative[0])
        assert positive[0] != negative[0]

    def test_output_rows_are_valid_labels(self, rng):
        problem = random_potts_problem(7, 3, seed=13)
        sdp = make_sdp(problem, gamma=100.0)
        u0, _ = spectral_shift_init(sdp, 4)
        factor = exact_factor(sdp, u0 + 0.1 * rng.standard_normal(sdp.q))
        labels, value = round_solution(factor, sdp, seed=5, n_samples=7)
        assert labels.shape == (7,)
        assert labels.min() >= 0 and labels.max() < 3
        assert np.isfinite(value)

    def test_argmax_invariant_under_positive_rescaling(self, rng):
        problem = random_potts_problem(9, 2, seed=14)
        sdp = make_sdp(problem, gamma=100.0)
        u0, _ = spectral_shift_init(sdp, 4)
        factor = exact_factor(sdp, u0 + 0.1 * rng.standard_normal(sdp.q))
        scaled = PsdFactor(factor.vectors, 7.3 * factor.values,
                           factor.truncated)
        labels_a, _ = round_solution(factor, sdp, seed=77, n_samples=5)
        labels_b, _ = round_solution(scaled, sdp, seed=77, n_samples=5)
        np.testing.assert_array_equal(labels_a, labels_b)

    @pytest.mark.parametrize("general", [False, True])
    def test_a_repeated_start_is_polished_once(self, monkeypatch, rng,
                                               general):
        problem = (_general_l3(40, 3) if general
                   else random_potts_problem(40, 3, seed=15))
        sdp = make_sdp(problem, gamma=100.0)
        u0, _ = spectral_shift_init(sdp, 4)
        factor = exact_factor(sdp, u0 + 0.1 * rng.standard_normal(sdp.q))
        polished = {}
        first = round_solution(factor, sdp, seed=5, n_samples=4,
                               polished=polished)
        products = []
        kernel_matvec = CrfProblem.kernel_matvec

        def counting(self, x):
            products.append(np.shape(x))
            return kernel_matvec(self, x)
        monkeypatch.setattr(CrfProblem, "kernel_matvec", counting)
        again = round_solution(factor, sdp, seed=5, n_samples=4,
                               polished=polished)
        # no polish sweep runs again; the general lifting still prices its
        # samples in one block product of all of them
        assert products == ([(sdp.n_vars, 4 * 3)] if general else [])
        assert again[0] is first[0] and again[1] == first[1]

    @pytest.mark.parametrize("general", [False, True])
    def test_solves_are_unchanged_by_the_polish_memo(self, monkeypatch,
                                                     general):
        problem = (_general_l3(60, 4) if general
                   else build_problem(gen_grid(10, 10, 3, seed=4)))
        with_memo = lr_sdcut_solve(problem, seed=1)

        def without_memo(psd, sdp, seed, n_samples, polished):
            return round_solution(psd, sdp, seed, n_samples)
        monkeypatch.setattr(sdp_module, "round_solution", without_memo)
        plain = lr_sdcut_solve(problem, seed=1)
        np.testing.assert_array_equal(with_memo.labels, plain.labels)
        assert with_memo.best_energy == plain.best_energy
        assert [r.to_dict() | {"ms": 0} for r in with_memo.trajectory] == \
            [r.to_dict() | {"ms": 0} for r in plain.trajectory]

    def test_never_beats_brute_force_and_usually_matches(self):
        hits = 0
        trials = 0
        for inst_seed in range(5):
            instance = gen_clusters(8, 2, seed=inst_seed, noise=0.2,
                                    separation=8.0, landmarks=8, rank=8)
            problem = build_problem(instance)
            _, optimum = brute_force_map(problem)
            sdp = make_sdp(problem, gamma=1000.0)
            u0, _ = spectral_shift_init(sdp, min(8, sdp.n))
            opt = LbfgsAscent(lambda u: _dual_eval(sdp, u), u0)
            for _ in range(30):
                if opt.step().converged:
                    break
            for round_seed in range(10):
                labels, lifted = round_solution(opt.payload, sdp,
                                                seed=round_seed, n_samples=20)
                value = energy(problem, labels)
                trials += 1
                assert value >= optimum - 1e-9
                if value <= optimum + 1e-9:
                    hits += 1
        # measured rate 1.00 on this seeded configuration (regression baseline)
        rate = hits / trials
        print(f"rounding exact-recovery rate on separated instances: {rate:.2f}")
        assert rate >= 0.8


def _rounding_one_sample_at_a_time(psd, sdp, seed, n_samples):
    """The general lifting's rounding with each Gaussian sample g in R^n
    projected through the explicit Y^(1/2), discretized and priced on its
    own, and the diag(Y) start read off the explicit Y: the reference for
    the batched one."""
    scale = np.sqrt(sdp.gamma * psd.values)
    half = (psd.vectors * scale) @ psd.vectors.T
    draws = np.random.default_rng(seed).standard_normal((sdp.n, n_samples))
    best_energy = np.inf
    for g in draws.T:
        scores = half @ g
        labels = np.argmax(scores.reshape(sdp.n_vars, sdp.n_labels), axis=1)
        value = priced(sdp, labels)
        if value < best_energy:
            best_energy, best_labels = value, labels
    sample = sdp_module.icm_polish(sdp, best_labels)
    marginals = np.diag(half @ half).reshape(sdp.n_vars, sdp.n_labels)
    start = sdp_module.icm_polish(sdp, np.argmax(marginals, axis=1))
    return start if start[1] < sample[1] else sample


class TestBatchedGeneralRounding:
    # a short and a tall stack of samples, each discretized by one row argmax
    @pytest.mark.parametrize("n_vars, n_samples", [(7, 5), (80, 40)])
    @pytest.mark.parametrize("n_labels", [2, 3, 4])
    def test_matches_one_sample_at_a_time(self, n_vars, n_samples, n_labels):
        for problem_seed in range(3):
            sdp = make_sdp(random_general_problem(n_vars, n_labels,
                                                  seed=problem_seed,
                                                  weight=2.0), gamma=10.0)
            rng = np.random.default_rng(problem_seed)
            for rank in (0, 2, n_samples, n_samples + 3):
                vectors = np.linalg.qr(rng.standard_normal((sdp.n, rank)))[0]
                psd = PsdFactor(vectors, np.sort(rng.uniform(0.1, 2.0, rank))[::-1])
                for seed in range(4):
                    labels, value = round_solution(psd, sdp, seed=seed,
                                                   n_samples=n_samples)
                    ref_labels, ref_value = _rounding_one_sample_at_a_time(
                        psd, sdp, seed, n_samples)
                    np.testing.assert_array_equal(labels, ref_labels)
                    assert value == ref_value


class TestBasisIndependentRounding:
    """General rounding reads Y alone, so factors of the same Y whose
    eigenvectors differ in sign, or by a rotation within an exactly
    degenerate eigenspace, round to the same labels."""

    @pytest.mark.parametrize("change", ["negate", "rotate"])
    @pytest.mark.parametrize("n_labels", [2, 3, 4])
    def test_same_y_rounds_alike(self, rng, change, n_labels):
        values = np.array([1.3, 1.3, 0.5, 0.2])  # a degenerate leading pair
        if change == "negate":
            transform = np.diag([-1.0, 1.0, -1.0, -1.0])
        else:
            angle = rng.uniform(0.3, 1.2)
            transform = np.eye(4)
            transform[:2, :2] = [[np.cos(angle), -np.sin(angle)],
                                 [np.sin(angle), np.cos(angle)]]
        for problem_seed in range(3):
            sdp = make_sdp(random_general_problem(40, n_labels,
                                                  seed=problem_seed,
                                                  weight=2.0), gamma=10.0)
            vectors = np.linalg.qr(rng.standard_normal((sdp.n, 4)))[0]
            factor = PsdFactor(vectors, values)
            changed = PsdFactor(vectors @ transform, values)
            for seed in range(4):
                labels, value = round_solution(factor, sdp, seed=seed,
                                               n_samples=10)
                labels_c, value_c = round_solution(changed, sdp, seed=seed,
                                                   n_samples=10)
                np.testing.assert_array_equal(labels, labels_c)
                assert value == value_c


class TestIcmPolish:
    @pytest.fixture(params=["potts", "general"])
    def sdp(self, request):
        make = (random_potts_problem if request.param == "potts"
                else random_general_problem)
        return make_sdp(make(30, 3, seed=31, weight=2.0), gamma=10.0)

    def test_never_raises_the_start_energy(self, sdp, rng):
        for _ in range(20):
            start = rng.integers(0, 3, sdp.n_vars)
            _, value = sdp_module.icm_polish(sdp, start)
            assert value <= priced(sdp, start)

    def test_energy_is_the_rounded_and_full_energy(self, sdp, rng):
        offset = energy_offset(sdp.problem)
        for _ in range(20):
            labels, value = sdp_module.icm_polish(
                sdp, rng.integers(0, 3, sdp.n_vars))
            assert value == priced(sdp, labels)
            assert value == pytest.approx(
                energy(sdp.problem, labels) - offset, abs=1e-9)

    def test_fixed_point_comes_back_unchanged(self, sdp, rng):
        # single-site sweeps to a labeling that no one move changes
        problem = sdp.problem
        kernel = problem.kernel_matvec(np.eye(sdp.n_vars))
        np.fill_diagonal(kernel, 0.0)
        fixed = rng.integers(0, 3, sdp.n_vars)
        changed = True
        while changed:
            changed = False
            for i in range(sdp.n_vars):
                scores = problem.unary[i] + (kernel[i] @ to_indicator(fixed, 3)
                                             @ (problem.mu_matrix() - 1.0))
                if np.argmin(scores) != fixed[i]:
                    fixed[i] = np.argmin(scores)
                    changed = True
        labels, value = sdp_module.icm_polish(sdp, fixed)
        np.testing.assert_array_equal(labels, fixed)
        assert value == priced(sdp, fixed)

    def test_oscillating_sweep_keeps_the_start(self):
        # two strongly coupled variables that disagree: each moves to the
        # other's label, so a parallel sweep swaps them and raises the energy
        phi = np.full((2, 1), 3.0)
        problem = CrfProblem(np.array([[0.0, 0.1], [0.1, 0.0]]),
                             [LowRankKernel(LowRankFactor(phi))])
        sdp = make_sdp(problem, gamma=1.0)
        products = []
        kernel_matvec = problem.kernel_matvec

        def counted(d):
            products.append(d)
            assert len(products) <= 2, "the sweeps did not stop"
            return kernel_matvec(d)

        problem.kernel_matvec = counted
        start = np.array([0, 1])
        labels, value = sdp_module.icm_polish(sdp, start)
        del problem.kernel_matvec
        # one product prices the start, one the swapped labels
        assert len(products) == 2
        np.testing.assert_array_equal(labels, start)
        assert value == priced(sdp, start)


def _dual_eval(sdp, u):
    factor = leading_psd_part(sdp.operator(u), max_rank=sdp.n, seed=0)
    return sdp.dual_objective(u, factor), sdp.dual_gradient(u, factor), factor


class TestLrSdcutSolve:
    def test_zero_kernel_reduces_to_unary_argmin(self):
        # the decoupled problem needs a large gamma for a tight bound
        # (the penalty gap scales as 1/gamma), hence the long ascent
        problem = random_potts_problem(8, 2, seed=15, weight=0.0)
        report = lr_sdcut_solve(problem, gamma=1e5, k_max=2000, tau=0.0,
                                seed=1, n_samples=1)
        expected_labels = np.argmin(problem.unary, axis=1)
        expected_energy = problem.unary.min(axis=1).sum()
        np.testing.assert_array_equal(report.labels, expected_labels)
        assert report.best_energy == pytest.approx(expected_energy, abs=1e-9)
        assert report.lower_bound == pytest.approx(expected_energy, abs=1e-3)

    def test_sandwich_on_random_instances(self):
        for seed in range(30):
            problem = random_potts_problem(8, 2, seed=100 + seed, weight=1.0)
            _, optimum = brute_force_map(problem)
            report = lr_sdcut_solve(problem, seed=seed)
            assert report.lower_bound <= optimum + 1e-9
            assert optimum <= report.best_energy + 1e-9

    def test_best_energy_trajectory_non_increasing(self):
        problem = random_potts_problem(10, 3, seed=16, weight=1.5)
        report = lr_sdcut_solve(problem, seed=2)
        best = np.minimum.accumulate([r.rounded_energy
                                      for r in report.trajectory])
        assert np.all(np.diff(best) <= 1e-12)
        assert report.best_energy == pytest.approx(best[-1])

    def test_planted_clusters_recovered(self):
        instance = gen_clusters(200, 2, seed=21, noise=0.6)
        problem = build_problem(instance)
        truth = np.asarray(instance["planted_labels"])
        report = lr_sdcut_solve(problem, seed=3)
        agree = (report.labels == truth).mean()
        accuracy = max(agree, 1.0 - agree)  # labels are exchangeable
        print(f"planted-cluster accuracy: {accuracy:.3f}")
        assert accuracy >= 0.95

    def test_primal_feasibility_at_convergence(self):
        problem = random_potts_problem(6, 2, seed=17, weight=0.8)
        sdp = make_sdp(problem, gamma=1000.0)
        u0, _ = spectral_shift_init(sdp, sdp.n)
        opt = LbfgsAscent(lambda u: _dual_eval(sdp, u), u0)
        previous = opt.value
        for _ in range(3000):
            step = opt.step()
            if step.converged or step.stalled:
                break
            if abs(step.value - previous) <= 1e-9 * max(abs(step.value), 1.0):
                break
            previous = step.value
        residual = np.abs(constraint_values(sdp, opt.payload) - sdp.b).max()
        assert residual <= 1e-2

    def test_report_serializes_to_json_shape(self):
        problem = random_potts_problem(6, 2, seed=18)
        report = lr_sdcut_solve(problem, seed=4)
        data = report.to_dict()
        assert set(data) >= {"method", "best_energy", "lower_bound", "labels",
                             "trajectory", "warnings"}
        assert all(set(rec) == {"iter", "dual", "rounded_energy", "rank",
                                "truncated", "ms"}
                   for rec in data["trajectory"])

    def test_general_mu_sandwich(self):
        for seed in range(5):
            problem = random_general_problem(5, 3, seed=200 + seed)
            _, optimum = brute_force_map(problem)
            report = lr_sdcut_solve(problem, seed=seed)
            assert "experimental" in " ".join(report.warnings)
            assert report.lower_bound <= optimum + 1e-9
            assert optimum <= report.best_energy + 1e-9

    # counted kernels other than plain ones, a singular U, and no kernel
    @pytest.mark.parametrize("form, general, n_vars", [
        ("mixed", False, 8), ("mixed", True, 7), ("image-blocks", False, 8),
        ("image-blocks", True, 7), ("singular-L2", True, 8),
        ("singular-L3", True, 7), ("empty", False, 8), ("empty", True, 7)])
    def test_sandwich_on_every_kernel_case(self, form, general, n_vars):
        for seed in range(4):
            problem = _kernel_case(form, general, n_vars, 300 + seed)
            _, optimum = brute_force_map(problem)
            report = lr_sdcut_solve(problem, seed=seed)
            assert not [w for w in report.warnings
                        if "stall" in w or "mismatch" in w]
            assert report.lower_bound <= optimum + 1e-9
            assert optimum <= report.best_energy + 1e-9

    def test_deterministic_given_seed(self):
        problem = random_potts_problem(12, 2, seed=19)
        first = lr_sdcut_solve(problem, seed=11)
        second = lr_sdcut_solve(problem, seed=11)
        assert first.best_energy == second.best_energy
        np.testing.assert_array_equal(first.labels, second.labels)
        assert [r.dual for r in first.trajectory] == \
            [r.dual for r in second.trajectory]


def _record_psd_calls(monkeypatch):
    """Wrap the solver's positive-part call; returns the list it fills with
    ``(op, max_rank, count, factor)`` per dual evaluation."""
    calls = []

    def recording(op, max_rank, **kwargs):
        factor = leading_psd_part(op, max_rank, **kwargs)
        calls.append((op, max_rank, kwargs["count"], factor))
        return factor

    monkeypatch.setattr(sdp_module, "leading_psd_part", recording)
    return calls


def _general_l3(n_vars, seed):
    """General L=3 cluster instance; mu is uniform in [0.2, 1] off the
    diagonal, drawn from ``default_rng([seed, 99])``."""
    instance = gen_clusters(n_vars, 3, seed=seed)
    upper = np.triu(np.random.default_rng([seed, 99]).uniform(0.2, 1.0,
                                                              (3, 3)), 1)
    instance["compatibility"] = (upper + upper.T).tolist()
    return build_problem(instance)


def _dense_positive_frob_sq(op):
    dense = np.column_stack([op.apply(col) for col in np.eye(op.n)])
    vals = np.linalg.eigvalsh(0.5 * (dense + dense.T))
    return np.sum(vals[vals > 0.0] ** 2)


class TestNoReferenceCycle:
    """A solve's lifting, and with it every C(u) block and factor, is freed
    by reference counting when the solve returns; a cycle (obj_grad's
    closure reading the optimizer that holds it, say) keeps it until the
    cyclic collector runs, which raised the bench's peak memory by over half."""

    @pytest.mark.parametrize("general", [False, True])
    def test_the_lifting_dies_with_the_solve(self, monkeypatch, general):
        liftings = []
        make = sdp_module.make_sdp

        def tracked(problem, gamma):
            lifting = make(problem, gamma)
            liftings.append(weakref.ref(lifting))
            return lifting

        monkeypatch.setattr(sdp_module, "make_sdp", tracked)
        problem = (_general_l3(30, 1) if general
                   else random_potts_problem(40, 3, seed=2))
        gc.disable()
        try:
            lr_sdcut_solve(problem, seed=1)
            assert len(liftings) == 1 and liftings[0]() is None
        finally:
            gc.enable()


class TestLanczosRequests:
    @pytest.mark.parametrize("general", [False, True])
    def test_every_kernel_form_is_counted_and_run_once(self, monkeypatch,
                                                        general):
        # blocked, plain and centered kernels in one stack
        problem = mixed_kernel_problem(60, 3, seed=5, general=general)
        calls = _record_psd_calls(monkeypatch)
        runs = []
        lanczos = eig_module.leading_eigpairs

        def counting(op, k, **kwargs):
            runs.append(len(calls))
            return lanczos(op, k, **kwargs)

        monkeypatch.setattr(eig_module, "leading_eigpairs", counting)
        report = lr_sdcut_solve(problem, seed=1)
        assert len(calls) == report.extras["dual_evals"] > 2 and runs
        # the start reads its pairs; every later call is counted and makes
        # at most one Lanczos run, or is a trial that the pinching bound
        # rejects with neither a count nor a run
        assert runs.count(0) == 0
        for index, (op, _, count, factor) in enumerate(calls[1:], start=1):
            if count is None:
                assert factor.truncated and factor.rank == 0
                assert runs.count(index) == 0
                continue
            assert runs.count(index) <= 1
            if not factor.truncated:
                assert factor.frob_norm_sq() == pytest.approx(
                    _dense_positive_frob_sq(op), rel=1e-9)

    # instances on which requests of a few pairs in a Krylov space of
    # 2k + 10 vectors returned Ritz values below the leading ones
    @pytest.mark.parametrize("seed", [4, 8, 17, 20, 22, 28])
    def test_small_requests_find_the_whole_positive_part(self, seed,
                                                         monkeypatch):
        problem = _general_l3(7, seed)
        calls = _record_psd_calls(monkeypatch)
        report = lr_sdcut_solve(problem, seed=1)
        assert not [w for w in report.warnings if "stall" in w]
        _, optimum = brute_force_map(problem)
        assert report.lower_bound <= optimum + 1e-9
        assert optimum <= report.best_energy + 1e-9
        for op, _, _, factor in calls:
            assert factor.frob_norm_sq() == pytest.approx(
                _dense_positive_frob_sq(op), rel=1e-9)

    # Lanczos runs started from the previous factor's sum_i lambda_i v_i
    # missed new positive directions on these instances (N=150 only together
    # with early-stopped trials), and one non-positive Ritz value then
    # "proved" the positive part complete: N=80 gave rank-1 factors where the
    # positive part has rank 2, with ||.||_F^2 off by 2.3%
    @pytest.mark.parametrize("n_vars, seed", [(80, 8), (150, 10)])
    def test_cold_start_finds_new_positive_directions(self, n_vars, seed,
                                                      monkeypatch):
        problem = _general_l3(n_vars, seed)
        calls = _record_psd_calls(monkeypatch)
        lr_sdcut_solve(problem, seed=1)
        checked = 0
        for op, _, _, factor in calls:
            if factor.truncated:
                continue
            assert factor.frob_norm_sq() == pytest.approx(
                _dense_positive_frob_sq(op), rel=1e-9)
            checked += 1
        assert checked > 2


class TestCountedRequests:
    def test_requests_are_the_counted_size(self, monkeypatch):
        problem = build_problem(gen_grid(30, 30, 2, seed=5))
        calls = []  # (count, rank cap, Lanczos requests, factor) per evaluation

        def psd(op, max_rank, **kwargs):
            calls.append((kwargs["count"], max_rank, []))
            factor = leading_psd_part(op, max_rank, **kwargs)
            calls[-1] += (factor,)
            return factor

        def lanczos(op, k, **kwargs):
            calls[-1][2].append(k)
            return leading_eigpairs(op, k, **kwargs)

        monkeypatch.setattr(sdp_module, "leading_psd_part", psd)
        monkeypatch.setattr(eig_module, "leading_eigpairs", lanczos)
        lr_sdcut_solve(problem, seed=1)
        # C(u0) has an eigenvalue at zero by construction: the start's count
        # is undecided and takes the uncounted path, which the start's own
        # Lanczos pairs complete without another run
        assert calls[0][0] is None
        assert calls[0][2] == []
        assert all(count is not None for count, _, _, _ in calls[1:])
        for count, cap, requests, factor in calls[1:]:
            if count == 0:
                assert requests == [] and factor.rank == 0
                continue
            assert requests == [min(count, cap)]

    def test_solves_repeat_bit_for_bit(self):
        # a counted request of two pairs on this instance reaches an
        # invariant subspace, where ARPACK draws a new random vector; drawn
        # from fresh entropy, it changed the duals from one solve to the next
        problem = build_problem(gen_grid(40, 40, 4, seed=5))
        first = lr_sdcut_solve(problem, seed=1)
        second = lr_sdcut_solve(problem, seed=1)
        assert [rec.dual for rec in first.trajectory] == \
            [rec.dual for rec in second.trajectory]
        assert first.lower_bound == second.lower_bound
        assert first.best_energy == second.best_energy

    def test_count_mismatch_is_a_typed_warning(self, monkeypatch):
        problem = random_potts_problem(30, 2, seed=23)
        exact = PottsSdp.shifted_inverse

        def overcount(self, parts, sigma):
            # one eigenvalue too many above EIG_TOL; the shifts' counts stay
            inverse = exact(self, parts, sigma)
            if inverse is None or sigma != EIG_TOL:
                return inverse
            return inverse[0] + 1, inverse[1]

        monkeypatch.setattr(PottsSdp, "shifted_inverse", overcount)
        report = lr_sdcut_solve(problem, seed=1)
        mismatches = [w for w in report.warnings
                      if w.startswith("eigen count mismatch:")]
        # every evaluation's count was contradicted, so no dual is a bound
        assert len(mismatches) == report.extras["dual_evals"]
        assert all(rec.truncated for rec in report.trajectory)
        assert report.lower_bound is None


class TestBoundRejections:
    """Line-search trials whose pinching bound already puts the dual below
    the current iterate are rejected without a Lanczos run."""

    def test_bound_rejections_change_no_solve(self, monkeypatch):
        problem = _general_l3(150, 1)
        report = lr_sdcut_solve(problem, seed=1)
        monkeypatch.setattr(GeneralSdp, "pinched_norm_sq",
                            lambda self, parts: 0.0)
        lanczos_only = lr_sdcut_solve(problem, seed=1)
        assert report.extras["bound_rejections"] >= 1
        assert [rec.dual for rec in report.trajectory] == \
            [rec.dual for rec in lanczos_only.trajectory]
        assert report.lower_bound == lanczos_only.lower_bound
        np.testing.assert_array_equal(report.labels, lanczos_only.labels)
        assert report.extras["dual_evals"] == lanczos_only.extras["dual_evals"]

    def test_rejected_trials_are_valued_minus_inf_and_never_recorded(
            self, monkeypatch):
        values = []

        class Recording(LbfgsAscent):
            def __init__(self, obj_grad, u0):
                def recorded(u):
                    values.append(obj_grad(u))
                    return values[-1]
                super().__init__(recorded, u0)

        monkeypatch.setattr(sdp_module, "LbfgsAscent", Recording)
        report = lr_sdcut_solve(_general_l3(150, 1), seed=1)
        rejections = report.extras["bound_rejections"]
        assert type(rejections) is int and rejections >= 1
        rejected = [factor for value, _, factor in values if value == -np.inf]
        assert len(rejected) == rejections
        assert all(f.rank == 0 and f.truncated for f in rejected)
        assert all(np.isfinite(rec.dual) for rec in report.trajectory)
        json.dumps(report.to_dict(), allow_nan=False)


def _count_applications(monkeypatch, lifting, problem):
    """Solve ``problem`` with ``lifting``'s assembly, matvecs and shifted
    solves counted; returns the counts and the report."""
    counts = {"assemble": 0, "c_matvec": 0, "solve": 0}

    def counting(name):
        original = lifting.__dict__[name]

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(lifting, name, wrapper)

    counting("assemble")
    counting("c_matvec")
    shifted_inverse = lifting.shifted_inverse

    def counting_solves(self, parts, sigma):
        inverse = shifted_inverse(self, parts, sigma)
        if inverse is None:
            return None

        def solve(b):
            counts["solve"] += 1
            return inverse[1](b)
        return inverse[0], solve
    monkeypatch.setattr(lifting, "shifted_inverse", counting_solves)
    return counts, lr_sdcut_solve(problem, seed=1)


class TestAssembledOperator:
    """C(u)'s blocks are assembled once per dual point, not per matvec or
    shifted solve, and both liftings make shifted solves."""

    def test_blocks_are_assembled_per_evaluation(self, monkeypatch):
        counts, report = _count_applications(
            monkeypatch, PottsSdp, build_problem(gen_grid(30, 30, 2, seed=5)))
        # one assembly per evaluation, which the operator, the inertia
        # counts, the shifted solves and the pinching bound share, plus the
        # start
        assert counts["assemble"] <= 2 * report.extras["dual_evals"] + 1
        # C(u) is applied as a matvec, or inverted at a shift by a solve
        assert counts["c_matvec"] + counts["solve"] >= 100

    def test_general_solve_makes_shifted_solves(self, monkeypatch):
        counts, report = _count_applications(monkeypatch, GeneralSdp,
                                             _general_l3(300, 5))
        assert counts["assemble"] <= 2 * report.extras["dual_evals"] + 1
        # counted requests run on shifted solves, not on C(u) itself: the
        # matvecs left are the start's Lanczos run on C(0) and the
        # evaluations whose shift is not proven
        assert counts["solve"] >= 100
        assert counts["solve"] > counts["c_matvec"]
