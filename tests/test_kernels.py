"""Kernel layer: factored matvecs against dense references, Nystrom quality."""

import numpy as np
import pytest
from scipy.spatial import distance

from lrsdcut import kernels as kernels_module
from lrsdcut.crf import CrfProblem
from lrsdcut.kernels import (CenteredDiscriminativeKernel, GaussianKernel,
                             LowRankFactor, LowRankKernel,
                             centered_discriminative_factor, hadamard_matvec,
                             load_factor, nystrom_factor, save_factor,
                             select_landmarks)


def dense_gaussian(blocks, thetas):
    n = blocks[0].shape[0]
    expo = np.zeros((n, n))
    for b, t in zip(blocks, thetas):
        sq = np.sum(b * b, axis=1)
        expo += (sq[:, None] + sq[None, :] - 2.0 * b @ b.T) / (2.0 * t * t)
    return np.exp(-np.clip(expo, 0.0, None))


def landmarks_by_row_sums(features, n_landmarks, seed):
    """select_landmarks with row-wise distance sums and masked-mean centroid
    updates; returns the indices, the final centroids and whether some Lloyd
    round left a cluster empty."""
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    n = x.shape[0]
    rng = np.random.default_rng(seed)
    centers = np.empty((n_landmarks, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    d2 = np.sum((x - centers[0]) ** 2, axis=1)
    for k in range(1, n_landmarks):
        total = d2.sum()
        if total <= 0.0:
            centers[k] = x[rng.integers(n)]
        else:
            centers[k] = x[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((x - centers[k]) ** 2, axis=1))
    assign, saw_empty = np.full(n, -1), False
    for _ in range(kernels_module.KMEANS_ITERS):
        new_assign = np.argmin(distance.cdist(x, centers, "sqeuclidean"), axis=1)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for k in range(n_landmarks):
            members = x[assign == k]
            if members.shape[0]:
                centers[k] = members.mean(axis=0)
            else:
                saw_empty = True
    chosen, free = [], np.ones(n, dtype=bool)
    for row in distance.cdist(centers, x, "sqeuclidean"):
        idx = np.flatnonzero(free)[np.argmin(row[free])]
        free[idx] = False
        chosen.append(idx)
    return np.sort(chosen), centers, saw_empty


class TestSelectLandmarks:
    @pytest.fixture
    def final_centroids(self, monkeypatch):
        # select_landmarks' last cdist call measures centroids to points
        seen = []

        def recording_cdist(a, b, metric):
            if a.shape[0] < b.shape[0]:
                seen.append(a.copy())
            return distance.cdist(a, b, metric)

        monkeypatch.setattr(kernels_module, "cdist", recording_cdist)
        return seen

    def _assert_same_as_row_sums(self, feats, n_landmarks, seed, seen):
        picks = select_landmarks(feats, n_landmarks, seed=seed)
        want, centers, saw_empty = landmarks_by_row_sums(feats, n_landmarks,
                                                         seed)
        assert np.array_equal(picks, want)
        assert np.array_equal(seen[-1], centers)
        return saw_empty

    @pytest.mark.parametrize("width", range(1, 9))
    def test_lattice_rows_match_row_sums(self, rng, final_centroids, width):
        # integer rows with duplicates: seeding distances and cluster sums
        # are exact, so ties are exact and every width must agree
        empties = 0
        for case in range(12):
            base = rng.integers(0, 3, (15, width)).astype(float)
            feats = base[rng.integers(0, 15, 90)]
            empties += self._assert_same_as_row_sums(
                feats, int(rng.integers(2, 25)), case, final_centroids)
        assert empties  # some case reached an empty cluster

    @pytest.mark.parametrize("width", range(2, 8))
    def test_real_rows_match_row_sums(self, rng, final_centroids, width):
        # numpy adds a row of 2-7 entries and an axis-0 mean of a block at
        # least 2 wide left to right, as the per-dimension sums do
        for case in range(6):
            feats = rng.standard_normal((300, width)) * rng.uniform(0.1, 20.0,
                                                                    width)
            self._assert_same_as_row_sums(feats, int(rng.integers(2, 40)),
                                          case, final_centroids)

    def test_empty_cluster_keeps_its_centroid(self, final_centroids):
        # three distinct points: seeding runs out of them, so the later
        # centroids repeat earlier ones and their clusters stay empty
        feats = np.repeat([[0.0, 0.0], [1.0, 0.0], [0.0, 3.0]], 10, axis=0)
        assert self._assert_same_as_row_sums(feats, 6, 4, final_centroids)

    def test_full_sampling_returns_all(self, rng):
        feats = rng.standard_normal((7, 2))
        assert np.array_equal(select_landmarks(feats, 7, seed=0), np.arange(7))

    def test_separated_clouds_get_one_each(self, rng):
        cloud_a = rng.standard_normal((15, 2))
        cloud_b = rng.standard_normal((15, 2)) + 100.0
        feats = np.vstack([cloud_a, cloud_b])
        picks = select_landmarks(feats, 2, seed=3)
        assert (picks < 15).sum() == 1 and (picks >= 15).sum() == 1

    def test_deterministic_for_fixed_seed(self, rng):
        feats = rng.standard_normal((40, 3))
        first = select_landmarks(feats, 6, seed=11)
        second = select_landmarks(feats, 6, seed=11)
        assert np.array_equal(first, second)

    def test_too_many_landmarks_rejected(self, rng):
        with pytest.raises(ValueError):
            select_landmarks(rng.standard_normal((4, 2)), 5, seed=0)

    def test_indices_distinct(self, rng):
        feats = np.zeros((10, 2))  # fully degenerate features
        picks = select_landmarks(feats, 4, seed=0)
        assert np.unique(picks).size == 4

    def test_nearest_unused_point_matches_a_sorted_scan(self, rng,
                                                        monkeypatch):
        # duplicated rows tie distances, so only the tie rule (smallest
        # unused index, centroids in order) decides between them
        from scipy.spatial import distance
        centroids = []

        def recording_cdist(a, b, metric):
            if a.shape[0] < b.shape[0]:  # the centroid-to-point distances
                centroids.append(a.copy())
            return distance.cdist(a, b, metric)

        monkeypatch.setattr(kernels_module, "cdist", recording_cdist)
        for case in range(20):
            base = rng.integers(0, 3, (12, 2)).astype(float)
            feats = base[rng.integers(0, 12, 60)]
            n_landmarks = int(rng.integers(2, 30))
            centroids.clear()
            picks = select_landmarks(feats, n_landmarks, seed=case)
            dist = distance.cdist(centroids[-1], feats, "sqeuclidean")
            used, chosen = np.zeros(feats.shape[0], dtype=bool), []
            for row in dist:
                idx = next(i for i in np.argsort(row, kind="stable")
                           if not used[i])
                used[idx] = True
                chosen.append(idx)
            np.testing.assert_array_equal(picks, np.sort(chosen))


class TestNystrom:
    def test_rank_one_kernel_recovered_exactly(self, rng):
        v = rng.standard_normal(12)
        v[3] = 1.5  # landmark entry away from zero
        k = np.outer(v, v)
        factor = nystrom_factor(lambda j: k[:, j], [3], rank=1)
        assert np.linalg.norm(k - factor.phi @ factor.phi.T) < 1e-10

    def test_all_landmarks_reduce_to_truncated_eig(self, rng):
        pts = rng.standard_normal((30, 2))
        k = dense_gaussian([pts], [1.0])
        factor = nystrom_factor(lambda j: k[:, j], np.arange(30), rank=10)
        err = np.linalg.norm(k - factor.phi @ factor.phi.T)
        vals = np.linalg.eigvalsh(k)
        opt = np.sqrt(np.sum(np.sort(vals)[:-10] ** 2))
        assert err == pytest.approx(opt, abs=1e-8)

    def test_kmeans_landmarks_close_to_optimal_truncation(self, rng):
        pts = rng.standard_normal((50, 2))
        k = dense_gaussian([pts], [1.0])
        landmarks = select_landmarks(pts, 25, seed=5)
        factor = nystrom_factor(lambda j: k[:, j], landmarks, rank=15)
        err = np.linalg.norm(k - factor.phi @ factor.phi.T)
        vals = np.linalg.eigvalsh(k)
        opt = np.sqrt(np.sum(np.sort(vals)[:-15] ** 2))
        # frozen regression bound: measured slack 5.906e-2 on this seeded
        # configuration
        slack = err - opt
        print(f"nystrom rank-15 slack over optimal truncation: {slack:.3e} "
              f"(err {err:.3e}, opt {opt:.3e})")
        assert err <= opt + 8e-2

    def test_indefinite_landmark_block_rejected(self):
        k = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(ValueError, match="not positive semidefinite"):
            nystrom_factor(lambda j: k[:, j], [0, 1], rank=1)

    def test_rank_above_landmark_count_rejected(self, rng):
        k = np.eye(4)
        with pytest.raises(ValueError):
            nystrom_factor(lambda j: k[:, j], [0, 1], rank=3)


class TestLowRankFactor:
    # a length-N vector is not read as one 1 x N row (nor as one column)
    @pytest.mark.parametrize("phi", [np.ones(5), 2.0, np.ones((4, 2, 1))],
                             ids=["vector", "scalar", "three-d"])
    def test_input_that_is_not_two_dimensional_is_rejected(self, phi):
        with pytest.raises(ValueError, match="2-D"):
            LowRankFactor(phi)

    def test_column_major_input_is_stored_row_major(self, rng):
        phi = np.asfortranarray(rng.standard_normal((6, 2)))
        factor = LowRankFactor(phi)
        assert factor.phi.flags.c_contiguous
        assert (factor.n, factor.rank) == (6, 2)
        np.testing.assert_array_equal(factor.phi, phi)


def lowrank(phi, **kwargs):
    return LowRankKernel(LowRankFactor(phi), **kwargs)


class TestLowRankMatvec:
    def test_zero_vector(self, rng):
        kernel = lowrank(rng.standard_normal((9, 2)))
        assert np.array_equal(kernel.matvec(np.zeros(9)), np.zeros(9))

    def test_all_ones_column_sums(self, rng):
        d = rng.standard_normal(8)
        np.testing.assert_allclose(lowrank(np.ones((8, 1))).matvec(d),
                                   np.full(8, d.sum()), atol=1e-12)

    def test_matches_dense_product(self, rng):
        phi = rng.standard_normal((20, 4))
        d = rng.standard_normal(20)
        np.testing.assert_allclose(lowrank(phi).matvec(d),
                                   (phi @ phi.T) @ d, atol=1e-12)

    @pytest.mark.parametrize("shape", [(25,), (25, 3)], ids=["vector", "block"])
    def test_blocked_matches_dense_product(self, rng, shape):
        phi = rng.standard_normal((25, 4))
        blocks = [0, 7, 11, 25]
        mask = np.zeros((25, 25))
        for a, b in zip(blocks[:-1], blocks[1:]):
            mask[a:b, a:b] = 1.0
        d = rng.standard_normal(shape)
        got = lowrank(phi, weight=0.6, blocks=blocks).matvec(d)
        assert got.shape == d.shape
        np.testing.assert_allclose(got, 0.6 * ((phi @ phi.T) * mask) @ d,
                                   atol=1e-12)

    def test_length_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            lowrank(rng.standard_normal((5, 2))).matvec(np.zeros(6))


class TestHadamardMatvec:
    def test_all_ones_factor_reduces_to_the_other_kernel(self, rng):
        phi = rng.standard_normal((12, 3))
        ones = LowRankFactor(np.ones((12, 1)))
        for blocks in (None, [0, 5, 12]):
            for d in (rng.standard_normal(12), rng.standard_normal((12, 3))):
                want = lowrank(phi, blocks=blocks).matvec(d)
                np.testing.assert_allclose(
                    hadamard_matvec(LowRankFactor(phi), ones, d, blocks),
                    want, atol=1e-12)
                np.testing.assert_allclose(
                    hadamard_matvec(ones, LowRankFactor(phi), d, blocks),
                    want, atol=1e-12)

    def test_zero_vector(self, rng):
        fp = LowRankFactor(rng.standard_normal((6, 2)))
        fc = LowRankFactor(rng.standard_normal((6, 3)))
        assert np.array_equal(hadamard_matvec(fp, fc, np.zeros(6)), np.zeros(6))

    @pytest.mark.parametrize("blocks", [None, [0, 11, 25]])
    def test_matches_dense_hadamard(self, rng, blocks):
        pp = rng.standard_normal((25, 3))
        pc = rng.standard_normal((25, 4))
        dense = (pp @ pp.T) * (pc @ pc.T)
        if blocks is not None:
            mask = np.zeros((25, 25))
            for a, b in zip(blocks[:-1], blocks[1:]):
                mask[a:b, a:b] = 1.0
            dense = dense * mask
        d = rng.standard_normal(25)
        got = hadamard_matvec(LowRankFactor(pp), LowRankFactor(pc), d, blocks)
        np.testing.assert_allclose(got, dense @ d, atol=1e-10)

    @pytest.mark.parametrize("blocks", [None, [0, 11, 25]])
    def test_block_product_matches_column_by_column(self, rng, blocks):
        fp = LowRankFactor(rng.standard_normal((25, 3)))
        fc = LowRankFactor(rng.standard_normal((25, 4)))
        d = rng.standard_normal((25, 4))
        ref = np.column_stack([hadamard_matvec(fp, fc, d[:, j].copy(), blocks)
                               for j in range(4)])
        got = hadamard_matvec(fp, fc, d, blocks)
        assert got.shape == d.shape
        np.testing.assert_allclose(got, ref, rtol=1e-12,
                                   atol=1e-12 * np.abs(ref).max())

    def test_size_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            hadamard_matvec(LowRankFactor(rng.standard_normal((5, 2))),
                            LowRankFactor(rng.standard_normal((6, 2))),
                            np.zeros(5))


class TestCenteredDiscriminative:
    def test_zero_factor_is_pure_centering(self, rng):
        kernel = CenteredDiscriminativeKernel(LowRankFactor(np.zeros((10, 2))),
                                              kappa=0.5)
        d = rng.standard_normal(10)
        expected = (d - d.mean()) / (0.5 * 10)
        np.testing.assert_allclose(kernel.matvec(d), expected, atol=1e-12)

    def test_annihilates_constants(self, rng):
        kernel = CenteredDiscriminativeKernel(
            LowRankFactor(rng.standard_normal((14, 4))), kappa=0.2)
        np.testing.assert_allclose(kernel.matvec(np.ones(14)), np.zeros(14),
                                   atol=1e-12)

    def test_matches_dense_inverse_oracle(self, rng):
        n = 20
        pt = rng.standard_normal((n, 5))
        kernel = CenteredDiscriminativeKernel(LowRankFactor(pt), kappa=0.1)
        omega = np.eye(n) - np.full((n, n), 1.0 / n)
        dense = omega @ np.linalg.inv(0.1 * n * np.eye(n) + pt @ pt.T) @ omega
        for _ in range(5):
            d = rng.standard_normal(n)
            np.testing.assert_allclose(kernel.matvec(d), dense @ d, atol=1e-8)

    def test_nonpositive_kappa_rejected(self, rng):
        with pytest.raises(ValueError):
            centered_discriminative_factor(
                LowRankFactor(rng.standard_normal((5, 2))), kappa=0.0)

    def test_factor_columns_sum_to_zero(self, rng):
        factor, _ = centered_discriminative_factor(
            LowRankFactor(rng.standard_normal((9, 3))), kappa=0.7)
        np.testing.assert_allclose(factor.phi.sum(axis=0), 0.0, atol=1e-12)


def _kernel_zoo(rng, n=30):
    fp = LowRankFactor(rng.standard_normal((n, 3)))
    fc = LowRankFactor(rng.standard_normal((n, 4)))
    return [
        LowRankKernel(fp, weight=1.3),
        LowRankKernel(fp, weight=0.7, blocks=[0, n // 2, n]),
        LowRankKernel(fc, weight=2.0),
        LowRankKernel(fc, weight=0.4, blocks=[0, n // 3, n // 2, n]),
        CenteredDiscriminativeKernel(fc, kappa=0.3, weight=1.1),
    ]


class TestKernelInvariants:
    def test_every_kernel_is_psd_through_matvecs_only(self, rng):
        for kernel in _kernel_zoo(rng):
            for _ in range(100):
                d = rng.standard_normal(kernel.n)
                quad = d @ kernel.matvec(d)
                assert quad >= -1e-9 * (d @ d)

    def test_matvecs_agree_with_dense_oracle(self, rng):
        from lrsdcut.oracle import dense_kernel
        for kernel in _kernel_zoo(rng):
            dense = dense_kernel(kernel)
            for _ in range(10):
                d = rng.standard_normal(kernel.n)
                got = kernel.matvec(d)
                ref = dense @ d
                assert np.linalg.norm(got - ref) <= 1e-8 * max(
                    np.linalg.norm(ref), 1.0)

    def test_diag_matches_dense_oracle(self, rng):
        # diag(K) = 2 (c + (G o G) s) from the stack's K/2 = c I + G Diag(s) G':
        # every kernel kind alone, the whole zoo (blocked over two different
        # partitions, so one is padded) and no kernel at all
        from lrsdcut.oracle import dense_kernel
        zoo = _kernel_zoo(rng)
        for stack in [[kernel] for kernel in zoo] + [zoo, []]:
            problem = CrfProblem(np.zeros((30, 2)), stack)
            np.testing.assert_allclose(
                problem.kernel_diag(),
                sum((np.diag(dense_kernel(k)) for k in stack), np.zeros(30)),
                atol=1e-10)

    def test_block_product_matches_column_by_column(self, rng):
        for kernel in _kernel_zoo(rng):
            d = rng.standard_normal((kernel.n, 4))
            ref = np.column_stack([kernel.matvec(d[:, j].copy())
                                   for j in range(4)])
            got = kernel.matvec(d)
            assert got.shape == d.shape
            np.testing.assert_allclose(got, ref, rtol=1e-12,
                                       atol=1e-12 * np.abs(ref).max())

    def test_block_shapes_other_than_n_rows_rejected(self, rng):
        for kernel in _kernel_zoo(rng):
            for bad in (np.zeros((kernel.n + 1, 3)), np.zeros((kernel.n, 2, 2)),
                        np.zeros(kernel.n - 1)):
                with pytest.raises(ValueError):
                    kernel.matvec(bad)

    @pytest.mark.parametrize("widths", [(1,), (2,), (3,), (2, 3), (1, 2, 3)])
    def test_gaussian_column_matches_row_wise_sums(self, rng, widths):
        blocks = [3.0 * rng.standard_normal((40, w)) for w in widths]
        thetas = rng.uniform(0.5, 2.0, len(widths))
        gk = GaussianKernel(blocks, thetas)
        for j in (0, 17, 39):
            expo = np.zeros(40)
            for b, t in zip(blocks, thetas):
                expo += np.sum((b - b[j]) ** 2, axis=1) / (2.0 * t * t)
            assert np.array_equal(gk.column(j), np.exp(-expo))

    def test_gaussian_factorization_approximates_true_kernel(self, rng):
        pts = rng.standard_normal((40, 2))
        cols = rng.standard_normal((40, 3)) * 0.3
        gk = GaussianKernel([pts, cols], [1.5, 0.8], weight=1.0)
        kernel = gk.factorize(n_landmarks=30, rank=25, seed=2)
        dense = dense_gaussian([pts, cols], [1.5, 0.8])
        d = rng.standard_normal(40)
        got = kernel.matvec(d)
        assert np.linalg.norm(got - dense @ d) < 1e-2 * np.linalg.norm(dense @ d)


class TestFactorCache:
    def test_round_trip_is_bitwise(self, rng, tmp_path):
        factor = LowRankFactor(rng.standard_normal((17, 5)))
        path = tmp_path / "factor.lrkf"
        save_factor(path, factor)
        loaded = load_factor(path)
        assert np.array_equal(loaded.phi, factor.phi)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.lrkf"
        path.write_bytes(b"NOPE" + b"\x00" * 8)
        with pytest.raises(ValueError, match="magic"):
            load_factor(path)

    def test_truncated_payload_rejected(self, rng, tmp_path):
        factor = LowRankFactor(rng.standard_normal((6, 2)))
        path = tmp_path / "factor.lrkf"
        save_factor(path, factor)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="truncated"):
            load_factor(path)
