"""Partial eigendecomposition against dense references."""

import numpy as np
import pytest
from scipy.sparse.linalg import eigsh

from conftest import reconstruct
from lrsdcut import eig as eig_module
from lrsdcut.eig import (EIG_TOL, EigenConvergenceError, EigenCountMismatch,
                         PsdFactor, SymmetricOperator, leading_eigpairs,
                         leading_psd_part)


def operator_from(matrix):
    return SymmetricOperator(matrix.shape[0], lambda d: matrix @ d)


def dense_positive_part(matrix):
    vals, vecs = np.linalg.eigh(matrix)
    return (vecs * np.clip(vals, 0.0, None)) @ vecs.T


class TestLeadingPsdPart:
    def test_diagonal_operator(self):
        factor = leading_psd_part(operator_from(np.diag([3.0, 1.0, -2.0])),
                                  max_rank=3)
        np.testing.assert_allclose(factor.values, [3.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(np.abs(factor.vectors),
                                   np.eye(3)[:, :2], atol=1e-10)
        assert not factor.truncated

    def test_negative_semidefinite_gives_empty_factor(self, rng):
        basis = rng.standard_normal((10, 10))
        basis, _ = np.linalg.qr(basis)
        matrix = (basis * -np.arange(1, 11)) @ basis.T
        factor = leading_psd_part(operator_from(matrix), max_rank=10)
        assert factor.rank == 0
        assert factor.frob_norm_sq() == 0.0

    def test_reconstruction_matches_dense_positive_part(self, rng):
        a = rng.standard_normal((40, 40))
        a = 0.5 * (a + a.T)
        factor = leading_psd_part(operator_from(a), max_rank=40, seed=4)
        err = np.linalg.norm(reconstruct(factor) - dense_positive_part(a))
        assert err < 1e-7

    def test_orthonormal_columns_and_residuals(self, rng):
        a = rng.standard_normal((50, 50))
        a = 0.5 * (a + a.T)
        factor = leading_psd_part(operator_from(a), max_rank=50, seed=5)
        gram = factor.vectors.T @ factor.vectors
        np.testing.assert_allclose(gram, np.eye(factor.rank), atol=1e-8)
        assert np.all(np.diff(factor.values) <= 0) and np.all(factor.values > 0)
        for i in range(factor.rank):
            v = factor.vectors[:, i]
            residual = np.linalg.norm(a @ v - factor.values[i] * v)
            assert residual <= 1e-7 * max(abs(factor.values[i]), 1.0)

    def test_bitwise_deterministic_for_fixed_seed(self, rng):
        a = rng.standard_normal((35, 35))
        a = 0.5 * (a + a.T)
        op = operator_from(a)
        first = leading_psd_part(op, max_rank=12, seed=9)
        second = leading_psd_part(op, max_rank=12, seed=9)
        assert np.array_equal(first.values, second.values)
        assert np.array_equal(first.vectors, second.vectors)

    def test_degenerate_cluster_recovered_as_projector(self, rng):
        # 3-fold degenerate leading eigenvalue; compare projections, not
        # individual vectors
        basis, _ = np.linalg.qr(rng.standard_normal((30, 30)))
        vals = np.concatenate([[5.0, 5.0, 5.0],
                               np.linspace(1.0, -3.0, 27)])
        a = (basis * vals) @ basis.T
        factor = leading_psd_part(operator_from(a), max_rank=30, seed=1)
        err = np.linalg.norm(reconstruct(factor) - dense_positive_part(a))
        assert err < 1e-7

    def test_truncation_flagged_when_rank_cap_hit(self, rng):
        basis, _ = np.linalg.qr(rng.standard_normal((25, 25)))
        a = (basis * np.linspace(10.0, 1.0, 25)) @ basis.T  # 25 positive eigs
        factor = leading_psd_part(operator_from(a), max_rank=6, seed=2)
        assert factor.truncated
        assert factor.rank == 6

    def test_rejected_call_needs_no_lanczos_run(self):
        def refuse(d):
            raise AssertionError("no matvec expected")

        factor = leading_psd_part(SymmetricOperator(50, refuse), max_rank=10,
                                  rejected=True, count=3)
        assert factor.rank == 0 and factor.truncated
        assert factor.vectors.shape == (50, 0)
        assert factor.frob_norm_sq() == 0.0

    def test_unrejected_call_leaves_lanczos_unchanged(self):
        op = operator_from(np.diag(np.concatenate([np.arange(20.0, 0.0, -1.0),
                                                   -np.arange(1.0, 21.0)])))
        plain = leading_psd_part(op, max_rank=40, seed=6)
        kept = leading_psd_part(op, max_rank=40, seed=6, rejected=False)
        assert kept.rank == 20 and not kept.truncated
        assert np.array_equal(kept.values, plain.values)
        assert np.array_equal(kept.vectors, plain.vectors)

    def test_nonconvergence_carries_best_effort_factor(self, rng,
                                                       monkeypatch):
        monkeypatch.setattr(eig_module, "EIG_RESTARTS", 1)
        a = rng.standard_normal((300, 300))
        a = 0.5 * (a + a.T)
        with pytest.raises(EigenConvergenceError) as info:
            leading_eigpairs(operator_from(a), k=40, seed=3)
        factor = info.value.factor
        assert isinstance(factor, PsdFactor) and factor.truncated
        assert factor.rank < 40 and np.all(factor.values > 0)
        assert np.all(np.diff(factor.values) <= 0)

    def test_small_operator_falls_back_to_dense(self):
        factor = leading_psd_part(operator_from(np.diag([2.0, -1.0])),
                                  max_rank=2)
        np.testing.assert_allclose(factor.values, [2.0], atol=1e-12)

    def test_bad_rank_rejected(self):
        with pytest.raises(ValueError):
            leading_psd_part(operator_from(np.eye(3)), max_rank=0)


class TestCountedRequests:
    """An exact count of the eigenvalues above ``tol`` sizes the one
    Lanczos request and proves the positive part complete."""

    @staticmethod
    def record_requests(monkeypatch):
        requests = []

        def recording(op, k, **kwargs):
            requests.append(k)
            return leading_eigpairs(op, k, **kwargs)

        monkeypatch.setattr(eig_module, "leading_eigpairs", recording)
        return requests

    # 6 positive eigenvalues 6, 5, ..., 1 among 60
    DIAG = np.concatenate([np.arange(6.0, 0.0, -1.0), -np.linspace(0.5, 3.0, 54)])

    def test_zero_count_needs_no_lanczos_run(self):
        def refuse(d):
            raise AssertionError("no matvec expected")

        factor = leading_psd_part(SymmetricOperator(50, refuse), max_rank=10,
                                  count=0)
        assert factor.rank == 0 and not factor.truncated
        assert factor.vectors.shape == (50, 0)

    def test_request_is_exactly_the_count(self, monkeypatch):
        requests = self.record_requests(monkeypatch)
        factor = leading_psd_part(operator_from(np.diag(self.DIAG)),
                                  max_rank=40, seed=3, count=6)
        assert requests == [6]
        assert not factor.truncated
        np.testing.assert_allclose(factor.values, np.arange(6.0, 0.0, -1.0),
                                   atol=1e-10)

    def test_count_above_rank_cap_is_truncated(self, monkeypatch):
        requests = self.record_requests(monkeypatch)
        factor = leading_psd_part(operator_from(np.diag(self.DIAG)),
                                  max_rank=4, seed=3, count=6)
        assert requests == [4]
        assert factor.truncated and factor.rank == 4

    @pytest.mark.parametrize("max_rank, truncated", [(4, True), (10, False)])
    def test_uncounted_request_is_the_rank_cap(self, monkeypatch, max_rank,
                                               truncated):
        requests = self.record_requests(monkeypatch)
        factor = leading_psd_part(operator_from(np.diag(self.DIAG)),
                                  max_rank=max_rank, seed=3)
        assert requests == [max_rank]
        assert factor.truncated == truncated
        np.testing.assert_allclose(factor.values, self.DIAG[:min(max_rank, 6)],
                                   atol=1e-10)

    def test_count_contradicted_by_ritz_values_is_a_typed_failure(self):
        # the stub claims 8 eigenvalues above tol where only 6 exist
        with pytest.raises(EigenCountMismatch) as info:
            leading_psd_part(operator_from(np.diag(self.DIAG)), max_rank=40,
                             seed=3, count=8)
        factor = info.value.factor
        assert factor.truncated
        np.testing.assert_allclose(factor.values, np.arange(6.0, 0.0, -1.0),
                                   atol=1e-10)
        assert "8 eigenvalues above" in str(info.value)


class TestKrylovSizing:
    """Plain runs keep the Krylov floor that guards uncounted requests;
    shift-invert runs, which only counted requests make, run in a smaller
    subspace, where the count still proves the factor complete."""

    @staticmethod
    def record_subspaces(monkeypatch):
        subspaces = []

        def recording(*args, **kwargs):
            subspaces.append(("sigma" in kwargs, kwargs["k"], kwargs["ncv"]))
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(eig_module, "eigsh", recording)
        return subspaces

    @pytest.mark.parametrize("n, k", [(200, 1), (200, 5), (200, 12),
                                      (200, 40), (60, 30), (25, 20)])
    def test_subspace_per_mode(self, monkeypatch, n, k):
        diag = np.linspace(3.0, -3.0, n)
        shift = 4.0, lambda b: b / (diag - 4.0)
        subspaces = self.record_subspaces(monkeypatch)
        plain = leading_eigpairs(operator_from(np.diag(diag)), k, seed=1)
        inverted = leading_eigpairs(operator_from(np.diag(diag)), k, seed=1,
                                    shift=shift)
        assert subspaces == [(False, k, min(n, max(2 * k + 10, 30))),
                             (True, k, min(n, max(k + 10, 20)))]
        np.testing.assert_allclose(inverted[0], plain[0], atol=1e-10)
        np.testing.assert_allclose(plain[0], diag[:k], atol=1e-10)

    # diagonal plus low rank, n = 600: a diagonal dense in [-0.05, 0) and
    # a rank-`count` term whose eigenvalues fall in three tight clusters,
    # the lowest just above the diagonal's cluster at zero
    @pytest.mark.parametrize("count", range(1, 26))
    def test_counted_shift_invert_runs_find_the_whole_positive_part(
            self, count):
        rng = np.random.default_rng(100 + count)
        n = 600
        basis, _ = np.linalg.qr(rng.standard_normal((n, count)))
        centers = rng.choice([0.04, 0.5, 1.0], count)
        centers += 1e-9 * rng.standard_normal(count)
        matrix = (np.diag(-rng.uniform(1e-4, 0.05, n))
                  + (basis * centers) @ basis.T)
        vals = np.linalg.eigvalsh(matrix)[::-1]
        positive = vals[vals > EIG_TOL]
        assert positive.size == count
        sigma = 1.5 * vals[0]
        inverse = np.linalg.inv(matrix - sigma * np.eye(n))
        factor = leading_psd_part(operator_from(matrix), max_rank=n,
                                  seed=count, count=count,
                                  shift=(sigma, lambda b: inverse @ b))
        assert not factor.truncated and factor.rank == count
        np.testing.assert_allclose(factor.values, positive, rtol=1e-9)


class TestPairsInHand:
    """Eigenpairs already in hand stand in for the first Lanczos result."""

    # 6 positive eigenvalues 6, 5, ..., 1 among 60, as in TestCountedRequests
    DIAG = TestCountedRequests.DIAG

    @classmethod
    def leading(cls, k):
        """The k leading eigenpairs of Diag(DIAG), exactly."""
        return cls.DIAG[:k].copy(), np.eye(cls.DIAG.size)[:, :k]

    @pytest.mark.parametrize("count", [None, 6])
    def test_complete_pairs_need_no_matvec(self, count):
        def refuse(d):
            raise AssertionError("no matvec expected")

        factor = leading_psd_part(SymmetricOperator(60, refuse), max_rank=40,
                                  count=count, pairs=self.leading(8))
        assert not factor.truncated
        np.testing.assert_array_equal(factor.values, self.DIAG[:6])
        np.testing.assert_array_equal(factor.vectors, np.eye(60)[:, :6])

    @pytest.mark.parametrize("count", [None, 6])
    def test_pairs_that_prove_nothing_leave_the_call_unchanged(self, count):
        op = operator_from(np.diag(self.DIAG))
        plain = leading_psd_part(op, max_rank=40, seed=3, count=count)
        # all four values lie above the threshold
        given = leading_psd_part(op, max_rank=40, seed=3, count=count,
                                 pairs=self.leading(4))
        assert np.array_equal(given.values, plain.values)
        assert np.array_equal(given.vectors, plain.vectors)
        assert given.truncated == plain.truncated

    def test_count_above_the_positive_pairs_is_a_typed_failure(self):
        with pytest.raises(EigenCountMismatch) as info:
            leading_psd_part(operator_from(np.diag(self.DIAG)), max_rank=40,
                             count=7, pairs=self.leading(8))
        factor = info.value.factor
        assert factor.truncated
        np.testing.assert_array_equal(factor.values, self.DIAG[:6])


class TestPsdFrobNormSq:
    def test_empty_factor(self):
        factor = PsdFactor(np.zeros((5, 0)), np.zeros(0))
        assert factor.frob_norm_sq() == 0.0

    def test_small_arithmetic(self):
        factor = PsdFactor(np.eye(4)[:, :2], np.array([3.0, 1.0]))
        assert factor.frob_norm_sq() == pytest.approx(10.0)

    def test_matches_dense_frobenius(self, rng):
        a = rng.standard_normal((20, 20))
        a = 0.5 * (a + a.T)
        factor = leading_psd_part(operator_from(a), max_rank=20)
        dense = np.linalg.norm(reconstruct(factor)) ** 2
        assert factor.frob_norm_sq() == pytest.approx(dense, abs=1e-10)


def test_typed_failures_are_exported_from_the_package():
    import lrsdcut
    assert lrsdcut.EigenConvergenceError is EigenConvergenceError
    assert lrsdcut.EigenCountMismatch is EigenCountMismatch
