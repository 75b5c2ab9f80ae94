"""Partial eigendecomposition against dense references."""

import re

import numpy as np
import pytest
from scipy.sparse.linalg import eigsh

from conftest import dense_inertia, reconstruct
from lrsdcut import eig as eig_module
from lrsdcut.eig import (EIG_TOL, EigenConvergenceError, EigenCountMismatch, EigenCountUndecided, PsdFactor,
                         SymmetricOperator, leading_eigpairs, leading_psd_part)


def operator_from(matrix):
    return SymmetricOperator(matrix.shape[0], lambda d: matrix @ d)


def dense_positive_part(matrix):
    vals, vecs = np.linalg.eigh(matrix)
    return (vecs * np.clip(vals, 0.0, None)) @ vecs.T


def stated(count):
    """An ``inertia`` that states ``count`` eigenvalues above ``EIG_TOL``,
    true or not, with no solve, and is undecided elsewhere."""
    return lambda t: (count, None) if t == EIG_TOL else None


def refuse(d):
    raise AssertionError("no matvec expected")


class TestLeadingPsdPart:
    def test_diagonal_operator(self):
        factor = leading_psd_part(operator_from(np.diag([3.0, 1.0, -2.0])),
                                  max_rank=3, inertia=stated(2))
        np.testing.assert_allclose(factor.values, [3.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(np.abs(factor.vectors),
                                   np.eye(3)[:, :2], atol=1e-10)
        assert not factor.truncated

    def test_negative_semidefinite_gives_empty_factor(self, rng):
        basis = rng.standard_normal((10, 10))
        basis, _ = np.linalg.qr(basis)
        matrix = (basis * -np.arange(1, 11)) @ basis.T
        factor = leading_psd_part(operator_from(matrix), max_rank=10,
                                  inertia=dense_inertia(matrix))
        assert factor.rank == 0
        assert factor.frob_norm_sq() == 0.0

    def test_reconstruction_matches_dense_positive_part(self, rng):
        a = rng.standard_normal((40, 40))
        a = 0.5 * (a + a.T)
        factor = leading_psd_part(operator_from(a), max_rank=40, seed=4,
                                  inertia=dense_inertia(a))
        err = np.linalg.norm(reconstruct(factor) - dense_positive_part(a))
        assert err < 1e-7

    def test_orthonormal_columns_and_residuals(self, rng):
        a = rng.standard_normal((50, 50))
        a = 0.5 * (a + a.T)
        factor = leading_psd_part(operator_from(a), max_rank=50, seed=5,
                                  inertia=dense_inertia(a))
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
        first, second = (leading_psd_part(op, max_rank=12, seed=9,
                                          inertia=dense_inertia(a))
                         for _ in range(2))
        assert np.array_equal(first.values, second.values)
        assert np.array_equal(first.vectors, second.vectors)

    def test_degenerate_cluster_recovered_as_projector(self, rng):
        # 3-fold degenerate leading eigenvalue; compare projections, not
        # individual vectors
        basis, _ = np.linalg.qr(rng.standard_normal((30, 30)))
        vals = np.concatenate([[5.0, 5.0, 5.0],
                               np.linspace(1.0, -3.0, 27)])
        a = (basis * vals) @ basis.T
        factor = leading_psd_part(operator_from(a), max_rank=30, seed=1,
                                  inertia=dense_inertia(a))
        err = np.linalg.norm(reconstruct(factor) - dense_positive_part(a))
        assert err < 1e-7

    def test_truncation_flagged_when_rank_cap_hit(self, rng, monkeypatch):
        # a count past the cap makes no Lanczos run: a capped factor has no
        # dual value, whatever pairs it would hold
        monkeypatch.setattr(eig_module, "leading_eigpairs", refuse)
        basis, _ = np.linalg.qr(rng.standard_normal((25, 25)))
        a = (basis * np.linspace(10.0, 1.0, 25)) @ basis.T  # 25 positive eigs
        factor = leading_psd_part(operator_from(a), max_rank=6, seed=2,
                                  inertia=dense_inertia(a))
        assert factor.truncated
        assert factor.rank == 0 and factor.vectors.shape == (25, 0)

    def test_rejected_call_needs_no_lanczos_run(self):
        # no inertia: a call the caller has rejected makes no count either
        factor = leading_psd_part(SymmetricOperator(50, refuse), max_rank=10,
                                  inertia=None)
        assert factor.rank == 0 and factor.truncated
        assert factor.vectors.shape == (50, 0)
        assert factor.frob_norm_sq() == 0.0

    def test_unrejected_call_leaves_lanczos_unchanged(self):
        # a real count, whose solve no shift uses without sigma, makes the
        # same Lanczos run as the bare count
        matrix = np.diag(np.concatenate([np.arange(20.0, 0.0, -1.0),
                                         -np.arange(1.0, 21.0)]))
        op = operator_from(matrix)
        plain = leading_psd_part(op, max_rank=40, seed=6, inertia=stated(20))
        kept = leading_psd_part(op, max_rank=40, seed=6,
                                inertia=dense_inertia(matrix))
        assert kept.rank == 20 and not kept.truncated
        assert np.array_equal(kept.values, plain.values)
        assert np.array_equal(kept.vectors, plain.vectors)

    def test_nonconvergence_is_a_typed_failure(self, rng, monkeypatch):
        monkeypatch.setattr(eig_module, "EIG_RESTARTS", 1)
        a = rng.standard_normal((300, 300))
        a = 0.5 * (a + a.T)
        with pytest.raises(EigenConvergenceError) as info:
            leading_eigpairs(operator_from(a), k=40, seed=3)
        assert str(info.value).endswith("of 40 requested pairs after 1 restarts")

    def test_small_operator_falls_back_to_dense(self):
        factor = leading_psd_part(operator_from(np.diag([2.0, -1.0])),
                                  max_rank=2, inertia=stated(1))
        np.testing.assert_allclose(factor.values, [2.0], atol=1e-12)

    def test_bad_rank_rejected(self):
        with pytest.raises(ValueError):
            leading_psd_part(operator_from(np.eye(3)), max_rank=0, inertia=stated(3))


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
        factor = leading_psd_part(SymmetricOperator(50, refuse), max_rank=10,
                                  inertia=stated(0))
        assert factor.rank == 0 and not factor.truncated
        assert factor.vectors.shape == (50, 0)

    def test_request_is_exactly_the_count(self, monkeypatch):
        requests = self.record_requests(monkeypatch)
        factor = leading_psd_part(operator_from(np.diag(self.DIAG)),
                                  max_rank=40, seed=3,
                                  inertia=stated(6))
        assert requests == [6]
        assert not factor.truncated
        np.testing.assert_allclose(factor.values, np.arange(6.0, 0.0, -1.0),
                                   atol=1e-10)

    def test_count_above_rank_cap_is_truncated(self, monkeypatch):
        requests = self.record_requests(monkeypatch)
        factor = leading_psd_part(SymmetricOperator(60, refuse), max_rank=4,
                                  seed=3, inertia=stated(6))
        assert requests == []
        assert factor.truncated and factor.rank == 0

    def test_undecided_count_is_a_typed_failure_without_a_run(self):
        tried = []

        def undecided(t):
            tried.append(t)

        with pytest.raises(EigenCountUndecided) as info:
            leading_psd_part(SymmetricOperator(50, refuse), max_rank=10,
                             inertia=undecided)
        assert tried == [EIG_TOL]
        assert str(info.value).startswith("no inertia count decided")

    # the count proves both pairs, so both are returned, though 5e-7 is
    # below EIG_TOL * lambda_1 = 1e-6
    def test_every_counted_pair_is_returned(self):
        diag = np.concatenate([[100.0, 5e-7], -np.linspace(0.5, 3.0, 58)])
        factor = leading_psd_part(operator_from(np.diag(diag)), max_rank=40,
                                  seed=3, inertia=dense_inertia(np.diag(diag)))
        assert factor.rank == 2 and not factor.truncated
        np.testing.assert_allclose(factor.values, diag[:2], rtol=1e-8)

    # a count of 2 above EIG_TOL, where the second Ritz value is 5e-9: the
    # run (or the pairs in hand) missed an eigenvalue above EIG_TOL, though
    # the value it returned is positive
    @pytest.mark.parametrize("in_hand", [False, True])
    def test_ritz_values_are_compared_with_the_count_threshold(self, in_hand):
        diag = np.concatenate([[20.0, 5e-9], -np.linspace(0.5, 3.0, 58)])
        pairs = (diag[:3].copy(), np.eye(60)[:, :3]) if in_hand else None
        with pytest.raises(EigenCountMismatch) as info:
            leading_psd_part(operator_from(np.diag(diag)), max_rank=40, seed=3,
                             inertia=stated(2), pairs=pairs)
        assert "2 eigenvalues above 1e-08 counted" in str(info.value)

    # no failure carries a factor, so no message that a solve copies into
    # its warnings, behind the failure's code, speaks of one
    def test_count_failures_say_nothing_of_a_factor(self):
        failures = []
        for inertia in (lambda t: None, stated(8)):
            with pytest.raises((EigenCountUndecided, EigenCountMismatch)) as info:
                leading_psd_part(operator_from(np.diag(self.DIAG)), max_rank=40,
                                 seed=3, inertia=inertia)
            failures.append(info.value)
        assert [(type(f), f.code) for f in failures] == [
            (EigenCountUndecided, "undecided count"),
            (EigenCountMismatch, "eigen count mismatch")]
        for failure in failures:
            assert "factor" not in str(failure)
            assert "truncated" not in str(failure)

    def test_count_contradicted_by_ritz_values_is_a_typed_failure(self):
        # the stub claims 8 eigenvalues above tol where only 6 exist
        with pytest.raises(EigenCountMismatch) as info:
            leading_psd_part(operator_from(np.diag(self.DIAG)), max_rank=40,
                             seed=3, inertia=stated(8))
        assert "8 eigenvalues above" in str(info.value)


class TestKrylovSizing:
    """Plain runs keep the Krylov floor that guards small requests;
    shift-invert runs are Lanczos runs of their own that stop as their
    pairs converge, where the count still proves the factor complete."""

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
        assert subspaces == [(False, k, min(n, max(2 * k + 10, 30)))]
        inverted = leading_eigpairs(operator_from(np.diag(diag)), k, seed=1,
                                    shift=shift)
        assert len(subspaces) == 1  # no eigsh call
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
        factor = leading_psd_part(operator_from(matrix), max_rank=n,
                                  seed=count, inertia=dense_inertia(matrix),
                                  sigma=1.5 * vals[0])
        assert not factor.truncated and factor.rank == count
        np.testing.assert_allclose(factor.values, positive, rtol=1e-9)


class TestShiftInvertLanczos:
    """The shift-invert run goes on past an invariant Krylov subspace,
    keeps its basis orthonormal, and stops, with a typed failure, at its
    step cap."""

    @pytest.mark.parametrize("seed", range(5))
    def test_invariant_subspaces_are_continued(self, seed):
        # the start vector's Krylov space holds one direction per distinct
        # value, so it is invariant after 3 steps; the 4-fold positive
        # eigenvalue takes fresh vectors from the seeded generator.  At step
        # 7 (k + 3) it is invariant again with 3 copies of 2 in hand, where a
        # convergence test would pass a -1 among the 4 pairs
        diag = np.array([2.0] * 4 + [-1.0] * 2 + [-3.0] * 2)

        def inertia(t):
            return int(np.count_nonzero(diag > t)), lambda b: b / (diag - t)
        first, second = (leading_psd_part(operator_from(np.diag(diag)),
                                          max_rank=8, seed=seed,
                                          inertia=inertia, sigma=3.0)
                         for _ in range(2))
        assert not first.truncated and first.rank == 4
        np.testing.assert_allclose(first.values, 2.0, rtol=1e-12)
        np.testing.assert_allclose(first.vectors.T @ first.vectors, np.eye(4),
                                   atol=1e-12)
        np.testing.assert_allclose(first.vectors[4:], 0.0, atol=1e-12)
        assert np.array_equal(first.values, second.values)
        assert np.array_equal(first.vectors, second.vectors)

    @pytest.mark.parametrize("seed", range(10))
    def test_cancelling_pass_is_repeated(self, seed):
        # sigma 1e-14 above lambda_1 makes every output of the solve nearly
        # e_1, so one Gram-Schmidt pass cancels almost all of it and leaves
        # a vector far from orthogonal: the DGKS test must repeat the pass
        # (one pass alone gave max |V'V - I| up to 4.8e-13 over these seeds)
        diag = np.concatenate([np.linspace(1.0, 0.5, 6),
                               -np.linspace(0.1, 3.0, 194)])
        sigma = 1.0 + 1e-14
        _, vectors = leading_eigpairs(
            operator_from(np.diag(diag)), 6, seed=seed,
            shift=(sigma, lambda b: b / (diag - sigma)))
        assert np.abs(vectors.T @ vectors - np.eye(6)).max() <= 2e-14

    def test_step_cap_raises_with_the_converged_pairs(self, monkeypatch):
        monkeypatch.setattr(eig_module, "LANCZOS_EXTRA", 5)
        diag = np.concatenate([np.arange(10.0, 5.0, -1.0),
                               np.linspace(1.0, 0.5, 100),
                               -np.linspace(0.5, 3.0, 95)])
        with pytest.raises(EigenConvergenceError) as info:
            leading_eigpairs(operator_from(np.diag(diag)), 10, seed=3,
                             shift=(15.0, lambda b: b / (diag - 15.0)))
        converged = re.fullmatch(r"eigensolver converged to only (\d+) of 10 "
                                 r"requested pairs after 15 Lanczos steps",
                                 str(info.value))
        assert converged and 0 < int(converged[1]) < 10


class TestPairsInHand:
    """Eigenpairs already in hand stand in for the first Lanczos result."""

    # 6 positive eigenvalues 6, 5, ..., 1 among 60, as in TestCountedRequests
    DIAG = TestCountedRequests.DIAG

    @classmethod
    def leading(cls, k):
        """The k leading eigenpairs of Diag(DIAG), exactly."""
        return cls.DIAG[:k].copy(), np.eye(cls.DIAG.size)[:, :k]

    # pairs past the positive part are complete under the one count: at
    # EIG_TOL it finds the 6 the pairs hold above it
    @pytest.mark.parametrize("count", [6])
    def test_complete_pairs_need_no_matvec(self, count):
        tried = []
        inertia = dense_inertia(np.diag(self.DIAG))

        def recorded(t):
            tried.append(t)
            return inertia(t)

        factor = leading_psd_part(SymmetricOperator(60, refuse), max_rank=40,
                                  inertia=recorded, pairs=self.leading(8))
        assert tried == [EIG_TOL]
        assert not factor.truncated
        np.testing.assert_array_equal(factor.values, self.DIAG[:count])
        np.testing.assert_array_equal(factor.vectors, np.eye(60)[:, :count])

    @pytest.mark.parametrize("count", [6])
    def test_pairs_that_prove_nothing_leave_the_call_unchanged(self, count):
        op = operator_from(np.diag(self.DIAG))
        plain = leading_psd_part(op, max_rank=40, seed=3, inertia=stated(count))
        # all four values lie above the threshold
        given = leading_psd_part(op, max_rank=40, seed=3, inertia=stated(count),
                                 pairs=self.leading(4))
        assert np.array_equal(given.values, plain.values)
        assert np.array_equal(given.vectors, plain.vectors)
        assert given.truncated == plain.truncated

    # the 7th of the 8 pairs is -0.5, so the count of 7 does not prove them:
    # they are dropped for a counted run, whose Ritz values contradict it
    def test_count_above_the_positive_pairs_is_a_typed_failure(self,
                                                              monkeypatch):
        requests = TestCountedRequests.record_requests(monkeypatch)
        with pytest.raises(EigenCountMismatch) as info:
            leading_psd_part(operator_from(np.diag(self.DIAG)), max_rank=40,
                             inertia=stated(7), pairs=self.leading(8))
        assert requests == [7]
        assert "7 eigenvalues above 1e-08 counted" in str(info.value)


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
        factor = leading_psd_part(operator_from(a), max_rank=20,
                                  inertia=dense_inertia(a))
        dense = np.linalg.norm(reconstruct(factor)) ** 2
        assert factor.frob_norm_sq() == pytest.approx(dense, abs=1e-10)


def test_typed_failures_are_exported_from_the_package():
    import lrsdcut
    assert lrsdcut.EigenConvergenceError is EigenConvergenceError
    assert lrsdcut.EigenCountMismatch is EigenCountMismatch
    assert lrsdcut.EigenCountUndecided is EigenCountUndecided
