"""Mean-field updates, free energy, and the solve loop."""

import math

import numpy as np
import pytest

from conftest import (mf_site_update, mixed_kernel_problem,
                      per_column_kernel_product, random_general_problem,
                      random_potts_problem)
from lrsdcut import crf
from lrsdcut.crf import CrfProblem, energy, to_indicator
from lrsdcut.kernels import LowRankFactor, LowRankKernel
from lrsdcut.meanfield import mf_free_energy, mf_init, mf_solve, mf_update
from lrsdcut.oracle import brute_force_map, dense_problem_kernel


class TestInit:
    def test_unary_mode_with_flat_unaries_is_uniform(self):
        problem = CrfProblem(np.zeros((6, 3)),
                             [LowRankKernel(LowRankFactor(np.zeros((6, 1))))])
        np.testing.assert_allclose(mf_init(problem, mode="unary"), 1.0 / 3.0)

    def test_unary_mode_softmax_arithmetic(self):
        unary = np.array([[0.0, math.log(3.0)]])
        problem = CrfProblem(unary,
                             [LowRankKernel(LowRankFactor(np.zeros((1, 1))))])
        np.testing.assert_allclose(mf_init(problem, mode="unary"),
                                   [[0.75, 0.25]], atol=1e-12)

    def test_random_mode_rows_on_simplex_and_seeded(self):
        problem = random_potts_problem(8, 3, seed=2)
        q1 = mf_init(problem, seed=7, mode="random")
        q2 = mf_init(problem, seed=7, mode="random")
        assert np.array_equal(q1, q2)
        np.testing.assert_allclose(q1.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(q1 >= 0)

    def test_random_mode_without_seed_rejected(self):
        # a default seed would give every caller the same "random" start
        with pytest.raises(ValueError, match="seed"):
            mf_init(random_potts_problem(3, 2, seed=3), mode="random")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            mf_init(random_potts_problem(3, 2, seed=3), mode="best")


def double_loop_update(problem, q):
    """Literal per-site mean-field equation with explicit j != i sums."""
    n, L = problem.n_vars, problem.n_labels
    k = dense_problem_kernel(problem)
    mu = problem.mu_matrix()
    out = np.zeros_like(q)
    for i in range(n):
        for l in range(L):
            msg = 0.0
            for j in range(n):
                if j == i:
                    continue
                for lp in range(L):
                    msg += q[j, lp] * mu[l, lp] * k[i, j]
            out[i, l] = math.exp(-problem.unary[i, l] - msg)
        out[i] /= out[i].sum()
    return out


class TestUpdate:
    def test_zero_pairwise_reaches_unary_fixed_point_in_one_step(self):
        problem = random_potts_problem(6, 3, seed=4, weight=0.0)
        q = mf_update(problem, np.full((6, 3), 1.0 / 3.0))
        np.testing.assert_allclose(q, mf_init(problem, mode="unary"),
                                   atol=1e-12)

    def test_parallel_update_matches_double_loop(self, rng):
        problem = random_potts_problem(5, 3, seed=5, weight=1.3)
        q = rng.dirichlet(np.ones(3), size=5)
        np.testing.assert_allclose(mf_update(problem, q),
                                   double_loop_update(problem, q), atol=1e-9)

    def test_general_mu_update_matches_double_loop(self, rng):
        problem = random_general_problem(5, 3, seed=6, weight=1.1)
        q = rng.dirichlet(np.ones(3), size=5)
        np.testing.assert_allclose(mf_update(problem, q),
                                   double_loop_update(problem, q), atol=1e-9)

    def test_rows_stay_on_simplex(self, rng):
        problem = random_potts_problem(10, 4, seed=7, weight=2.0)
        q = rng.dirichlet(np.ones(4), size=10)
        for _ in range(20):
            q = mf_update(problem, q)
            np.testing.assert_allclose(q.sum(axis=1), 1.0, atol=1e-9)
            assert np.all(q >= 0)

    def test_sequential_sweep_never_increases_free_energy(self):
        problem = random_potts_problem(6, 2, seed=8, weight=1.5)
        q = mf_init(problem, seed=1, mode="random")
        f_prev = mf_free_energy(problem, q)
        for _ in range(5):
            for site in range(problem.n_vars):
                q = mf_site_update(problem, q, site)
            f_new = mf_free_energy(problem, q)
            assert f_new <= f_prev + 1e-9
            f_prev = f_new

    def test_single_site_update_is_exact_coordinate_minimizer(self):
        problem = random_potts_problem(6, 2, seed=9, weight=1.5)
        q = mf_init(problem, seed=2, mode="random")
        f_prev = mf_free_energy(problem, q)
        for step in range(30):
            q = mf_site_update(problem, q, step % 6)
            f_new = mf_free_energy(problem, q)
            assert f_new <= f_prev + 1e-9
            f_prev = f_new


class TestFreeEnergy:
    def test_one_hot_marginals_equal_energy(self, rng):
        problem = random_potts_problem(7, 3, seed=10, weight=1.2)
        labels = rng.integers(0, 3, 7)
        q = to_indicator(labels, 3)
        assert mf_free_energy(problem, q) == pytest.approx(
            energy(problem, labels), abs=1e-9)

    def test_uniform_marginals_zero_potentials(self):
        problem = CrfProblem(np.zeros((4, 3)),
                             [LowRankKernel(LowRankFactor(np.zeros((4, 1))))])
        q = np.full((4, 3), 1.0 / 3.0)
        assert mf_free_energy(problem, q) == pytest.approx(
            -4.0 * math.log(3.0), abs=1e-12)

    def test_matches_exhaustive_expectation(self, rng):
        import itertools
        problem = random_potts_problem(4, 2, seed=11, weight=0.9)
        q = rng.dirichlet(np.ones(2), size=4)
        total = 0.0
        for assignment in itertools.product(range(2), repeat=4):
            labels = np.asarray(assignment)
            weight = np.prod(q[np.arange(4), labels])
            total += weight * (energy(problem, labels) + math.log(weight))
        assert mf_free_energy(problem, q) == pytest.approx(total, abs=1e-9)


class TestBlockEvaluators:
    """Free energy and updates from one block product equal per-column ones."""

    @pytest.mark.parametrize("general", [False, True])
    def test_free_energy_matches_per_column_reference(self, rng, general):
        problem = mixed_kernel_problem(19, 3, seed=17, general=general)
        mu = problem.mu_matrix()
        q = rng.dirichlet(np.ones(3), size=19)
        kq = per_column_kernel_product(problem, q)
        diag = problem.kernel_diag()
        pair = sum(mu[l, m] * (q[:, l] @ kq[:, m] - np.sum(diag * q[:, l] * q[:, m]))
                   for l in range(3) for m in range(3))
        ref = np.sum(q * np.log(q)) + np.sum(problem.unary * q) + 0.5 * pair
        assert mf_free_energy(problem, q) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("general", [False, True])
    def test_parallel_update_matches_per_column_reference(self, rng, general):
        problem = mixed_kernel_problem(19, 3, seed=18, general=general)
        q = rng.dirichlet(np.ones(3), size=19)
        kq = per_column_kernel_product(problem, q)
        messages = (kq - problem.kernel_diag()[:, None] * q) @ problem.mu_matrix()
        scores = np.exp(-(problem.unary + messages))
        ref = scores / scores.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(mf_update(problem, q), ref, rtol=1e-12)
        # the one message formula against the dense kernel with its diagonal
        # removed
        dense = dense_problem_kernel(problem)
        off_diagonal = dense - np.diag(np.diag(dense))
        np.testing.assert_allclose(crf.messages(problem, q),
                                   off_diagonal @ q @ problem.mu_matrix(),
                                   rtol=1e-12, atol=1e-12)


class TestSolve:
    def test_zero_pairwise_returns_unary_argmin(self):
        problem = random_potts_problem(9, 3, seed=12, weight=0.0)
        result = mf_solve(problem, restarts=1, seed=0)
        np.testing.assert_array_equal(result.labels,
                                      np.argmin(problem.unary, axis=1))
        assert result.n_iterations <= 2

    def test_zero_restarts_rejected(self):
        with pytest.raises(ValueError):
            mf_solve(random_potts_problem(6, 2, seed=12), restarts=0, seed=0)

    def test_deterministic_given_seed(self):
        problem = random_potts_problem(10, 2, seed=13, weight=1.4)
        first = mf_solve(problem, restarts=3, seed=5)
        second = mf_solve(problem, restarts=3, seed=5)
        np.testing.assert_array_equal(first.labels, second.labels)
        assert first.energy == second.energy

    def test_never_below_brute_force(self):
        for seed in range(20):
            problem = random_potts_problem(8, 2, seed=300 + seed, weight=1.0)
            _, optimum = brute_force_map(problem)
            result = mf_solve(problem, restarts=2, seed=seed)
            assert result.energy >= optimum - 1e-9

    def test_decoded_energy_matches_energy_function(self):
        problem = random_potts_problem(12, 3, seed=14, weight=1.1)
        result = mf_solve(problem, restarts=2, seed=3)
        assert result.energy == energy(problem, result.labels)
