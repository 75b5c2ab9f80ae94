"""Energy evaluation, liftings, and the instance JSON interface."""

import json
import struct

import numpy as np
import pytest

from conftest import (mixed_kernel_problem, per_column_kernel_product,
                      random_general_problem, random_potts_problem)
from lrsdcut.crf import (CrfProblem, InstanceFormatError, build_problem,
                         energy, energy_offset, lifted_energy,
                         lifted_energy_general, load_instance, to_indicator)
from lrsdcut.generate import gen_clusters
from lrsdcut.kernels import LowRankFactor, LowRankKernel, save_factor
from lrsdcut.oracle import dense_problem_kernel, direct_energy


class TestEnergy:
    def test_zero_weight_leaves_only_unaries(self, rng):
        problem = random_potts_problem(7, 3, seed=1, weight=0.0)
        x = rng.integers(0, 3, 7)
        expected = problem.unary[np.arange(7), x].sum()
        assert energy(problem, x) == pytest.approx(expected, abs=1e-12)

    def test_potts_constant_labeling_has_no_pairwise_cost(self):
        problem = random_potts_problem(6, 2, seed=2, weight=3.0)
        x = np.ones(6, dtype=int)
        expected = problem.unary[:, 1].sum()
        assert energy(problem, x) == pytest.approx(expected, abs=1e-10)

    def test_matches_double_loop_oracle(self, rng):
        problem = random_potts_problem(4, 2, seed=3, kernel_rank=4)
        for _ in range(10):
            x = rng.integers(0, 2, 4)
            assert energy(problem, x) == pytest.approx(
                direct_energy(problem, x), abs=1e-10)

    def test_invariant_under_variable_permutation(self, rng):
        problem = random_potts_problem(9, 3, seed=4)
        phi = problem.kernels[0].factor.phi
        x = rng.integers(0, 3, 9)
        perm = rng.permutation(9)
        permuted = CrfProblem(problem.unary[perm],
                              [LowRankKernel(LowRankFactor(phi[perm]), 1.0)])
        assert energy(problem, x) == pytest.approx(
            energy(permuted, x[perm]), abs=1e-10)


class TestLiftedEnergy:
    def test_zero_kernel_reduces_to_linear_term(self, rng):
        problem = random_potts_problem(5, 3, seed=5, weight=0.0)
        x = to_indicator(rng.integers(0, 3, 5), 3)
        assert lifted_energy(problem, x) == pytest.approx(
            np.sum(problem.unary * x), abs=1e-12)

    def test_energy_equals_lifted_plus_offset(self, rng):
        problem = random_potts_problem(8, 3, seed=6, weight=1.7)
        offset = energy_offset(problem)
        for _ in range(50):
            labels = rng.integers(0, 3, 8)
            x = to_indicator(labels, 3)
            assert energy(problem, labels) == pytest.approx(
                lifted_energy(problem, x) + offset, abs=1e-9)

    def test_matches_dense_trace_formula(self, rng):
        problem = random_potts_problem(5, 3, seed=7)
        k = dense_problem_kernel(problem)
        x = to_indicator(rng.integers(0, 3, 5), 3)
        expected = np.sum(problem.unary * x) - 0.5 * np.trace(x.T @ k @ x)
        assert lifted_energy(problem, x) == pytest.approx(expected, abs=1e-10)


class TestLiftedEnergyGeneral:
    def test_potts_matrix_agrees_with_potts_lifting(self, rng):
        potts = random_potts_problem(6, 3, seed=9)
        mu = np.ones((3, 3)) - np.eye(3)
        general = CrfProblem(potts.unary, potts.kernels, mu=mu)
        for _ in range(10):
            x = to_indicator(rng.integers(0, 3, 6), 3)
            assert lifted_energy_general(general, x.reshape(-1)) == \
                pytest.approx(lifted_energy(potts, x), abs=1e-10)

    def test_constant_labeling_identity(self):
        problem = random_general_problem(5, 3, seed=10, weight=2.0)
        labels = np.full(5, 2)
        y = to_indicator(labels, 3).reshape(-1)
        # zero-diagonal compatibility makes the pairwise energy vanish, so
        # lifted + offset collapses to the unary sum
        assert lifted_energy_general(problem, y) + energy_offset(problem) == \
            pytest.approx(problem.unary[:, 2].sum(), abs=1e-10)

    def test_matches_dense_kronecker_oracle(self, rng):
        problem = random_general_problem(4, 3, seed=11)
        k = dense_problem_kernel(problem)
        u = problem.mu - 1.0
        big = np.kron(k, u)
        h = problem.unary.reshape(-1)
        for _ in range(5):
            x = to_indicator(rng.integers(0, 3, 4), 3)
            y = x.reshape(-1)
            expected = h @ y + 0.5 * y @ big @ y
            assert lifted_energy_general(problem, y) == pytest.approx(
                expected, abs=1e-10)
            assert lifted_energy(problem, x) == pytest.approx(expected,
                                                              abs=1e-10)

    def test_energy_identity_general(self, rng):
        problem = random_general_problem(6, 3, seed=13, weight=1.4)
        offset = energy_offset(problem)
        for _ in range(20):
            labels = rng.integers(0, 3, 6)
            y = to_indicator(labels, 3).reshape(-1)
            assert energy(problem, labels) == pytest.approx(
                lifted_energy_general(problem, y) + offset, abs=1e-9)


class TestBlockEvaluators:
    """Lifted energies from one block product equal the per-column sums."""

    def test_lifted_energy_matches_per_column_reference(self, rng):
        problem = mixed_kernel_problem(23, 4, seed=15)
        for x in (rng.dirichlet(np.ones(4), size=23),
                  to_indicator(rng.integers(0, 4, 23), 4)):
            kx = per_column_kernel_product(problem, x)
            ref = np.sum(problem.unary * x) - 0.5 * sum(
                x[:, l] @ kx[:, l] for l in range(4))
            assert lifted_energy(problem, x) == pytest.approx(ref, rel=1e-12)

    def test_lifted_energy_general_matches_per_column_reference(self, rng):
        problem = mixed_kernel_problem(23, 4, seed=16, general=True)
        for x in (rng.dirichlet(np.ones(4), size=23),
                  to_indicator(rng.integers(0, 4, 23), 4)):
            kx = per_column_kernel_product(problem, x)
            quad = sum((problem.mu[l, m] - 1.0) * (x[:, l] @ kx[:, m])
                       for l in range(4) for m in range(4))
            ref = np.sum(problem.unary * x) + 0.5 * quad
            assert lifted_energy_general(problem, x.reshape(-1)) == \
                pytest.approx(ref, rel=1e-12)


class TestStackedPricing:
    """An N x S x L stack of indicators, or the N*L x S stack of their
    vectorizations, priced at once equals each labeling priced alone."""

    @pytest.mark.parametrize("general", [False, True], ids=["potts", "general"])
    def test_stack_matches_one_at_a_time(self, rng, general):
        problem = mixed_kernel_problem(23, 4, seed=17, general=general)
        labels = rng.integers(0, 4, (23, 6))
        stack = np.stack([to_indicator(labels[:, s], 4) for s in range(6)],
                         axis=1)
        alone = [lifted_energy(problem, stack[:, s]) for s in range(6)]
        np.testing.assert_allclose(alone, [energy(problem, labels[:, s])
                                           - energy_offset(problem)
                                           for s in range(6)], rtol=1e-12)
        kx = np.stack([per_column_kernel_product(problem, stack[:, s])
                       for s in range(6)], axis=1)
        # column s of the N*L x S stack is sample s's vectorization
        y = stack.transpose(0, 2, 1).reshape(-1, 6)
        for priced in (lifted_energy(problem, stack),
                       lifted_energy(problem, stack, kx),
                       lifted_energy_general(problem, y)):
            assert priced.shape == (6,)
            np.testing.assert_allclose(priced, alone, rtol=1e-12)
        for s in range(6):
            assert lifted_energy_general(problem, y[:, s]) == \
                pytest.approx(alone[s], rel=1e-12)


class TestEnergyOffset:
    def test_zero_kernels(self):
        problem = random_potts_problem(5, 2, seed=14, weight=0.0)
        assert energy_offset(problem) == 0.0

    def test_all_ones_factor(self):
        problem = CrfProblem(np.zeros((10, 2)),
                             [LowRankKernel(LowRankFactor(np.ones((10, 1))))])
        assert energy_offset(problem) == pytest.approx(50.0)

    def test_matches_dense_quadratic_form(self):
        problem = random_potts_problem(20, 2, seed=15, weight=0.9)
        k = dense_problem_kernel(problem)
        assert energy_offset(problem) == pytest.approx(
            0.5 * np.ones(20) @ k @ np.ones(20), abs=1e-10)


class TestKernelDiag:
    def test_half_kernel_is_built_once_and_lazily(self, monkeypatch):
        # building a problem makes no factor; diag(K), both liftings' counts
        # and a solve all read the one cached K/2 = c I + G Diag(s) G'
        from lrsdcut import crf as crf_module
        from lrsdcut.sdp import lr_sdcut_solve, make_sdp
        built = []
        factor = crf_module.half_kernel_factor
        monkeypatch.setattr(crf_module, "half_kernel_factor",
                            lambda *args: built.append(args) or factor(*args))
        problem = build_problem(gen_clusters(30, 3, seed=3))
        general = mixed_kernel_problem(13, 3, seed=19, general=True)
        assert not built
        diag = problem.kernel_diag()
        g = problem.half_kernel()[1]
        assert not g.flags.writeable
        assert make_sdp(problem, 10.0)._count_factor is g
        lr_sdcut_solve(problem, k_max=2)
        lr_sdcut_solve(general, k_max=2)
        assert problem.kernel_diag() is diag
        assert [len(args[0]) for args in built] == [1, len(general.kernels)]
        assert make_sdp(general, 10.0)._count_factor is general.half_kernel()[1]

    def test_one_read_only_array_on_every_call(self):
        for problem in (mixed_kernel_problem(13, 2, seed=19),
                        CrfProblem(np.zeros((4, 2)), [])):
            first = problem.kernel_diag()
            assert problem.kernel_diag() is first
            assert not first.flags.writeable
            with pytest.raises(ValueError):
                first[0] = 1.0
            np.testing.assert_allclose(first,
                                       np.diag(dense_problem_kernel(problem)),
                                       rtol=1e-12, atol=1e-12)


class TestIndicatorBijection:
    def test_round_trip_both_ways(self, rng):
        for _ in range(20):
            labels = rng.integers(0, 4, 11)
            x = to_indicator(labels, 4)
            assert np.array_equal(x.sum(axis=1), np.ones(11))
            assert np.array_equal(np.argmax(x, axis=1), labels)

    def test_vectorization_order_is_row_major(self):
        # lifted_energy_general reads X's row-major flattening; the
        # column-major one of this permutation matrix is the labeling X'
        problem = random_general_problem(3, 3, seed=12)
        x = to_indicator(np.array([1, 2, 0]), 3)
        np.testing.assert_array_equal(x.reshape(-1)[:3], [0.0, 1.0, 0.0])
        assert lifted_energy_general(problem, x.reshape(-1)) == \
            pytest.approx(lifted_energy(problem, x), abs=1e-12)
        assert lifted_energy_general(problem, x.T.reshape(-1)) == \
            pytest.approx(energy(problem, np.array([2, 0, 1]))
                          - energy_offset(problem), abs=1e-10)

    def test_invalid_labels_rejected(self):
        with pytest.raises(ValueError):
            to_indicator(np.array([0, 3]), 3)

    def test_non_integral_labels_rejected(self):
        # a float cast would price [0.7, 1.2] as the labeling [0, 1]
        problem = random_potts_problem(2, 2, seed=3)
        with pytest.raises(ValueError, match="integers"):
            energy(problem, [0.7, 1.2])
        with pytest.raises(ValueError, match="integers"):
            to_indicator(np.array([0.0, 1.5]), 2)
        assert energy(problem, np.array([0.0, 1.0])) == energy(problem, [0, 1])


class TestProblemValidation:
    def test_mu_checks(self):
        unary = np.zeros((3, 2))
        with pytest.raises(ValueError, match="symmetric"):
            CrfProblem(unary, [], mu=np.array([[0.0, 1.0], [0.5, 0.0]]))
        with pytest.raises(ValueError, match="diagonal"):
            CrfProblem(unary, [], mu=np.array([[0.2, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            CrfProblem(unary, [], mu=np.array([[0.0, 1.5], [1.5, 0.0]]))

    def test_nearly_symmetric_mu_is_stored_symmetric(self):
        # allclose admits a 4e-6 asymmetry, which would make C(u), and so
        # the symmetric eigensolvers' input, asymmetric
        from lrsdcut.sdp import make_sdp
        base = random_general_problem(6, 3, seed=4)
        mu = base.mu.copy()
        mu[0, 1] = mu[1, 0] = 0.9
        mu[0, 1] += 4e-6
        problem = CrfProblem(base.unary, base.kernels, mu=mu)
        assert np.array_equal(problem.mu, problem.mu.T)
        assert problem.mu[0, 1] == pytest.approx(0.9 + 2e-6, rel=0, abs=1e-15)
        sdp = make_sdp(problem, gamma=10.0)
        op = sdp.operator(np.zeros(sdp.q))
        dense = np.column_stack([op.matvec(e) for e in np.eye(sdp.n)])
        np.testing.assert_allclose(dense, dense.T, rtol=0, atol=1e-12)
        # exactly symmetric input is stored bit for bit
        assert np.array_equal(CrfProblem(base.unary, base.kernels,
                                         mu=base.mu).mu, base.mu)

    def test_gaussian_kernel_must_be_factorized_first(self, rng):
        from lrsdcut.kernels import GaussianKernel
        gk = GaussianKernel([rng.standard_normal((3, 2))], [1.0])
        with pytest.raises(TypeError, match="factorize"):
            CrfProblem(np.zeros((3, 2)), [gk])


class TestInstanceJson:
    def _write_instance(self, tmp_path, rng):
        n = 12
        pos = rng.standard_normal((n, 2)).tolist()
        col = (0.4 * rng.standard_normal((n, 3))).tolist()
        phi = rng.standard_normal((n, 3))
        save_factor(tmp_path / "disc.lrkf", LowRankFactor(phi))
        save_factor(tmp_path / "low.lrkf",
                    LowRankFactor(rng.standard_normal((n, 2))))
        instance = {
            "n_vars": n,
            "n_labels": 2,
            "unary": rng.standard_normal((n, 2)).tolist(),
            "kernels": [
                {"type": "gaussian", "feature_blocks": [pos, col],
                 "thetas": [1.0, 0.5], "weight": 1.2,
                 "nystrom": {"landmarks": 8, "rank": 6, "seed": 3}},
                {"type": "lowrank", "factor_file": "low.lrkf", "weight": 0.5},
                {"type": "centered_discriminative", "factor_file": "disc.lrkf",
                 "kappa": 0.3, "weight": 0.8},
            ],
            "compatibility": "potts",
            "image_blocks": [0, 6, 12],
        }
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(instance))
        return path, instance

    def test_load_builds_all_kernel_types(self, tmp_path, rng):
        path, instance = self._write_instance(tmp_path, rng)
        problem, loaded, digest = load_instance(path)
        assert loaded == instance
        assert len(digest) == 64
        assert problem.n_vars == 12 and problem.n_labels == 2
        assert len(problem.kernels) == 3
        # the mask applies to the gaussian kernel only
        assert problem.kernels[0].blocks is not None
        assert not hasattr(problem.kernels[2], "blocks")
        d = rng.standard_normal(12)
        assert np.all(np.isfinite(problem.kernel_matvec(d)))

    def test_general_compatibility_round_trip(self, tmp_path, rng):
        mu = [[0.0, 0.4], [0.4, 0.0]]
        instance = {
            "n_vars": 3, "n_labels": 2,
            "unary": rng.standard_normal((3, 2)).tolist(),
            "kernels": [], "compatibility": mu,
        }
        path = tmp_path / "general.json"
        path.write_text(json.dumps(instance))
        problem, _, _ = load_instance(path)
        assert not problem.is_potts
        np.testing.assert_allclose(problem.mu, mu)

    def test_nystrom_rank_zero_rejected(self):
        # an N x 0 factor would load as an empty kernel and drop the pairs
        instance = gen_clusters(12, 2, seed=1)
        instance["kernels"][0]["nystrom"]["rank"] = 0
        with pytest.raises(InstanceFormatError, match="rank"):
            build_problem(instance)

    @pytest.mark.parametrize("ktype", ["lowrank", "centered_discriminative"])
    def test_zero_column_factor_file_rejected(self, tmp_path, ktype):
        # a header of N = 3, R = 0 and no payload would load as an empty
        # kernel and drop the pairwise term
        (tmp_path / "empty.lrkf").write_bytes(struct.pack("<4sII", b"LRKF",
                                                          3, 0))
        instance = {"n_vars": 3, "n_labels": 2, "unary": np.zeros((3, 2)).tolist(),
                    "kernels": [{"type": ktype, "factor_file": "empty.lrkf",
                                 "kappa": 0.5}],
                    "compatibility": "potts"}
        with pytest.raises(InstanceFormatError, match="rank"):
            build_problem(instance, tmp_path)

    def test_malformed_instances_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(InstanceFormatError):
            load_instance(bad)
        missing = tmp_path / "missing.json"
        missing.write_text(json.dumps({"n_vars": 2}))
        with pytest.raises(InstanceFormatError, match="missing key"):
            load_instance(missing)
        with pytest.raises(InstanceFormatError, match="unknown kernel type"):
            build_problem({"n_vars": 1, "n_labels": 2, "unary": [[0, 0]],
                           "kernels": [{"type": "mystery"}],
                           "compatibility": "potts"})
