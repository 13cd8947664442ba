"""Core linear algebra: PCA flats, truncated SVD, k-means, matching."""

import itertools
import logging
import math
import tracemalloc

import numpy as np
import pytest
import scipy.cluster.vq

from fls.errors import DegenerateInput, InvalidParam, RankDeficient
from fls.linalg import (
    AffineFlat,
    _assign,
    flip_signs,
    haar_frames,
    hungarian_match,
    kmeans,
    moment_spectrum,
    pca_spectrum,
    svd_from_gram,
    truncated_svd,
)
from fls.rng import make_rng, split


# Reference k-means: the unblocked implementation kmeans must reproduce
# bit for bit.  It materializes the full m x K distance matrix every
# sweep; reseeds records each emptied-cluster re-seed it performs.
def _oracle_sq_dists(points, centers):
    d2 = (
        (points**2).sum(axis=1)[:, None]
        - 2.0 * points @ centers.T
        + (centers**2).sum(axis=1)[None, :]
    )
    return np.clip(d2, 0.0, None)


def _oracle_kmeanspp(points, k, rng):
    m = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[int(rng.integers(m))]
    d2 = _oracle_sq_dists(points, centers[:1]).ravel()
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(m))
        else:
            idx = int(rng.choice(m, p=d2 / total))
        centers[j] = points[idx]
        d2 = np.minimum(d2, _oracle_sq_dists(points, centers[j : j + 1]).ravel())
    return centers


def _oracle_lloyd(points, k, rng, max_iter, tol, reseeds):
    m = points.shape[0]
    centers = _oracle_kmeanspp(points, k, rng)
    prev = math.inf
    for _ in range(max_iter):
        d2 = _oracle_sq_dists(points, centers)
        labels = np.argmin(d2, axis=1)
        inertia = float(d2[np.arange(m), labels].sum())
        if math.isfinite(prev) and abs(prev - inertia) <= tol * max(prev, 1e-300):
            break
        prev = inertia
        counts = np.bincount(labels, minlength=k)
        sums = np.zeros_like(centers)
        np.add.at(sums, labels, points)
        nearest = d2[np.arange(m), labels].copy()
        for j in range(k):
            if counts[j] > 0:
                centers[j] = sums[j] / counts[j]
            else:
                far = int(np.argmax(nearest))
                centers[j] = points[far]
                nearest[far] = -1.0
                reseeds.append(j)
    d2 = _oracle_sq_dists(points, centers)
    labels = np.argmin(d2, axis=1)
    inertia = float(d2[np.arange(m), labels].sum())
    return labels, centers, inertia


def oracle_kmeans(points, k, seed=0, restarts=1, max_iter=100, tol=1e-6, reseeds=None):
    reseeds = [] if reseeds is None else reseeds
    best = None
    for child in split(seed, restarts):
        run = _oracle_lloyd(points, k, make_rng(child), max_iter, tol, reseeds)
        if best is None or run[2] < best[2]:
            best = run
    return best


def assert_same_kmeans(got, want):
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert got[2] == want[2]


class TestAffineFlat:
    def test_orthonormality_enforced(self, rng):
        with pytest.raises(InvalidParam):
            AffineFlat(base=np.zeros(3), basis=rng.standard_normal((3, 2)))

    def test_valid_construction(self, rng):
        b = haar_frames(rng, (5, 2))
        flat = AffineFlat(base=np.ones(5), basis=b)
        assert flat.dim == 2
        assert flat.ambient == 5

    def test_dimension_mismatch(self, rng):
        with pytest.raises(InvalidParam):
            AffineFlat(base=np.zeros(4), basis=haar_frames(rng, (5, 2)))
        with pytest.raises(InvalidParam):
            AffineFlat(base=np.zeros((3, 5)), basis=haar_frames(rng, (4, 5, 2)))

    def test_stack_names_non_orthonormal_member(self, rng):
        basis = haar_frames(rng, (6, 4, 2))
        basis[4, :, 1] *= 1.0 + 1e-8
        with pytest.raises(InvalidParam, match="of flat 4 are not orthonormal"):
            AffineFlat(base=np.zeros((6, 4)), basis=basis)

    def test_stack_refuses_nonfinite_member(self, rng):
        base = rng.standard_normal((3, 4))
        base[2, 0] = np.nan
        with pytest.raises(InvalidParam, match="NaN"):
            AffineFlat(base=base, basis=haar_frames(rng, (3, 4, 1)))

    def test_stack_len_and_indexing(self, rng):
        stack = AffineFlat(base=rng.standard_normal((5, 4)), basis=haar_frames(rng, (5, 4, 2)))
        assert (len(stack), stack.ambient, stack.dim, stack.stacked) == (5, 4, 2, True)
        one = stack[3]
        assert not one.stacked and (one.ambient, one.dim) == (4, 2)
        assert np.array_equal(one.base, stack.base[3])
        assert np.array_equal(one.basis, stack.basis[3])
        for idx in (np.array([4, 0, 4]), slice(1, 3)):
            sub = stack[idx]
            assert sub.stacked and len(sub) == len(stack.base[idx])
            assert np.array_equal(sub.basis, stack.basis[idx])
        assert [f.base[0] for f in stack] == list(stack.base[:, 0])
        with pytest.raises(TypeError):
            len(one)
        with pytest.raises(TypeError):
            one[0]


class TestSpectra:
    def test_pca_spectrum_matches_scatter(self, rng):
        pts = rng.standard_normal((25, 4))
        centroid, eigvals, eigvecs = pca_spectrum(pts)
        centered = pts - pts.mean(axis=0)
        oracle = np.linalg.eigvalsh(centered.T @ centered)[::-1]
        assert np.allclose(centroid, pts.mean(axis=0))
        assert np.allclose(eigvals, oracle, atol=1e-8)

    def test_moment_spectrum_is_uncentered(self, rng):
        pts = rng.standard_normal((25, 4)) + 3.0
        eigvals, eigvecs = moment_spectrum(pts)
        oracle = np.linalg.eigvalsh(pts.T @ pts)[::-1]
        assert np.allclose(eigvals, oracle, atol=1e-8)
        # trailing eigenvalues = residual of the best linear subspace
        resid = (pts**2).sum() - ((pts @ eigvecs[:, :2]) ** 2).sum()
        assert abs(resid - eigvals[2:].sum()) < 1e-8

    def test_spectrum_padding_when_few_points(self, rng):
        eigvals, _ = moment_spectrum(rng.standard_normal((3, 6)))
        assert eigvals.shape == (6,)
        assert np.all(eigvals[3:] == 0.0)


class TestTruncatedSvd:
    def test_diagonal(self):
        res = truncated_svd(np.diag([3.0, 2.0, 1.0]), 2)
        assert np.allclose(res.singular_values, [3.0, 2.0])

    def test_orthonormal_rows_give_unit_singular_values(self, rng):
        a = haar_frames(rng, (12, 4)).T  # 4x12 with orthonormal rows
        res = truncated_svd(a, 4)
        assert np.allclose(res.singular_values, np.ones(4), atol=1e-10)

    def test_matches_full_svd_oracle(self, rng):
        a = rng.standard_normal((8, 20))
        res = truncated_svd(a, 3)
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        assert np.allclose(res.singular_values, s[:3], atol=1e-8)
        # the shared sign convention makes columns directly comparable
        assert np.allclose(res.right_vectors, flip_signs(vt[:3].T), atol=1e-8)
        assert np.allclose(np.abs(res.left_vectors), np.abs(u[:, :3]), atol=1e-8)

    def test_triple_identity(self, rng):
        a = rng.standard_normal((6, 15))
        res = truncated_svd(a, 4)
        s1 = res.singular_values[0]
        for i in range(4):
            lhs = a @ res.right_vectors[:, i]
            rhs = res.singular_values[i] * res.left_vectors[:, i]
            assert np.linalg.norm(lhs - rhs) <= 1e-6 * s1

    def test_orthonormal_outputs(self, rng):
        res = truncated_svd(rng.standard_normal((7, 11)), 3)
        assert np.allclose(res.right_vectors.T @ res.right_vectors, np.eye(3), atol=1e-8)
        assert np.allclose(res.left_vectors.T @ res.left_vectors, np.eye(3), atol=1e-8)

    def test_rank_deficient(self):
        # s2/s1 = 1e-13, below the 1e-12 relative cutoff
        with pytest.raises(RankDeficient):
            truncated_svd(np.diag([1.0, 1e-13]), 2)
        with pytest.raises(RankDeficient):
            truncated_svd(np.zeros((3, 4)), 1)

    def test_rank_one_below_gram_noise_floor(self, rng):
        # the Gram path resolves s2 only to ~1e-8 * s1 here; its right
        # vectors would be noise, so it must refuse rather than return them
        a = np.outer(rng.standard_normal(50), rng.standard_normal(5000))
        with pytest.raises(RankDeficient):
            truncated_svd(a, 2)

    def test_k_too_large(self, rng):
        with pytest.raises(InvalidParam):
            truncated_svd(rng.standard_normal((4, 10)), 5)

    def test_right_vectors_bit_identical_to_transposed_product(self):
        # (u.T @ a).T reads a in its own layout; at D = 400 it gives the
        # bits of a.T @ u, which took the BLAS extra time and work memory
        a = np.random.default_rng(400).standard_normal((400, 3000))
        got = truncated_svd(a, 5)
        want = svd_from_gram(a @ a.T, a.shape[1], 5, lambda u: a.T @ u)
        assert np.array_equal(got.right_vectors, want.right_vectors)
        assert np.array_equal(got.left_vectors, want.left_vectors)
        assert np.array_equal(got.singular_values, want.singular_values)


class TestKmeans:
    def test_duplicate_pairs(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [9.0, 9.0], [9.0, 9.0]])
        labels, centers, inertia = kmeans(pts, 2, seed=0)
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]
        assert inertia < 1e-12

    def test_m_equals_k(self, rng):
        pts = rng.standard_normal((4, 3)) * 10
        labels, centers, inertia = kmeans(pts, 4, seed=1)
        assert sorted(labels) == [0, 1, 2, 3]
        assert inertia < 1e-12

    def test_against_multi_restart_oracle(self, rng):
        pts = rng.standard_normal((30, 2))
        pts[10:20] += [6, 0]
        pts[20:] += [0, 6]
        _, _, inertia = kmeans(pts, 3, seed=0, restarts=5)

        # independent oracle: best of 200 scipy kmeans2 runs
        best = np.inf
        for trial in range(200):
            _, lab = scipy.cluster.vq.kmeans2(
                pts, 3, minit="++", seed=trial, missing="warn"
            )
            cost = sum(
                ((pts[lab == j] - pts[lab == j].mean(axis=0)) ** 2).sum()
                for j in np.unique(lab)
            )
            best = min(best, cost)
        assert inertia <= best * 1.05 + 1e-12

    def test_labels_are_nearest_centroid(self, rng):
        pts = rng.standard_normal((50, 3))
        labels, centers, _ = kmeans(pts, 4, seed=3)
        d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(labels, d2.argmin(axis=1))

    def test_converged_continuation(self, rng):
        pts = rng.standard_normal((60, 2))
        labels, centers, inertia = kmeans(pts, 3, seed=5)
        # ten more Lloyd steps from the returned state change nothing material
        c = centers.copy()
        for _ in range(10):
            d2 = ((pts[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
            lab = d2.argmin(axis=1)
            for j in range(3):
                if np.any(lab == j):
                    c[j] = pts[lab == j].mean(axis=0)
        d2 = ((pts[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
        cont = float(d2.min(axis=1).sum())
        assert cont <= inertia + 1e-12
        assert inertia - cont <= 1e-4 * max(inertia, 1e-12)

    def test_deterministic(self, rng):
        pts = rng.standard_normal((40, 2))
        a = kmeans(pts, 3, seed=11)
        b = kmeans(pts, 3, seed=11)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_k_larger_than_m(self, rng):
        with pytest.raises(DegenerateInput):
            kmeans(rng.standard_normal((3, 2)), 4, seed=0)

    @pytest.mark.parametrize(
        "m, d, k, restarts, seed",
        [
            (8000, 10, 400, 1, 0),  # landmark selection shape: many row blocks
            (8000, 10, 400, 1, 1),
            (50_000, 4, 5, 1, 2),  # final k-means shape: one block
            (2001, 3, 8, 3, 3),  # restarts
            (1309, 2, 401, 1, 4),  # two blocks of unequal size
        ],
    )
    def test_bit_identical_to_unblocked_oracle(self, m, d, k, restarts, seed):
        gen = np.random.default_rng(seed)
        centers = gen.standard_normal((max(2, k // 4), d)) * 4.0
        pts = centers[gen.integers(len(centers), size=m)] + gen.standard_normal((m, d))
        got = kmeans(pts, k, seed=seed, restarts=restarts)
        assert_same_kmeans(got, oracle_kmeans(pts, k, seed=seed, restarts=restarts))

    @pytest.mark.parametrize(
        "m, d, k",
        [
            (1308, 10, 401),  # blocks of 1307 or 1310 rows would leave a
            (1311, 3, 400),  # one-row tail, which numpy computes by GEMV
            (5000, 10, 400),
            (700, 80, 5),
            (9, 1, 2),
        ],
    )
    def test_assignment_pass_bit_identical_to_unblocked_distances(self, m, d, k):
        gen = np.random.default_rng(m + d + k)
        pts = gen.standard_normal((m, d)) * 3.0 + gen.uniform(-5.0, 5.0, size=d)
        x_sq = (pts**2).sum(axis=1)
        # random centers; centers at data points, whose own distances can
        # round below zero so the clip decides; centers near the origin
        for centers in (
            gen.standard_normal((k, d)) * 3.0,
            pts[gen.choice(m, size=k, replace=False)],
            gen.standard_normal((k, d)) * 0.1,
        ):
            d2 = _oracle_sq_dists(pts, centers)
            want = np.argmin(d2, axis=1)
            labels, mins = np.empty(m, dtype=np.intp), np.empty(m)
            _assign(pts, x_sq, centers, labels, mins)
            assert np.array_equal(labels, want)
            assert np.array_equal(mins, d2[np.arange(m), want])

    def test_empty_cluster_reseed_matches_oracle(self):
        # two distinct locations and k = 3: kmeans++ must seed a duplicate
        # center, which the first assignment leaves empty
        pts = np.repeat([[0.0, 0.0], [5.0, 1.0]], [7, 5], axis=0)
        reseeds = []
        want = oracle_kmeans(pts, 3, seed=9, reseeds=reseeds)
        assert reseeds, "case does not reach the empty-cluster re-seed"
        assert_same_kmeans(kmeans(pts, 3, seed=9), want)

    def test_peak_memory_is_one_block(self):
        # the unblocked version holds several n x K float64 arrays per sweep
        m, k = 20_000, 400
        pts = np.random.default_rng(0).standard_normal((m, 10))
        tracemalloc.start()
        try:
            kmeans(pts, k, seed=0, max_iter=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m * k * 8 / 4

    def test_unconverged_restarts_warn_once(self, caplog):
        gen = np.random.default_rng(0)
        pts = np.concatenate([gen.standard_normal((50, 2)), gen.standard_normal((50, 2)) + 20])
        with caplog.at_level(logging.WARNING, logger="fls.linalg"):
            kmeans(pts, 2, seed=0, restarts=3, max_iter=1)
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert "3 of 3 restarts" in warnings[0].getMessage()
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="fls.linalg"):
            kmeans(pts, 2, seed=0, restarts=3)
        assert not caplog.records


class TestHungarianMatch:
    def test_identity(self):
        perm = hungarian_match(np.diag([5, 4, 3]))
        assert list(perm) == [0, 1, 2]

    def test_antidiagonal(self):
        c = np.array([[0, 0, 7], [0, 6, 0], [5, 0, 0]])
        perm = hungarian_match(c)
        assert list(perm) == [2, 1, 0]

    def test_matches_brute_force(self, rng):
        for _ in range(50):
            c = rng.integers(0, 20, size=(4, 4))
            perm = hungarian_match(c)
            # oracle: exhaustive search, ties to lexicographically smallest
            best = max(
                itertools.permutations(range(4)),
                key=lambda p: (sum(c[i, p[i]] for i in range(4)), [-x for x in p]),
            )
            score = sum(c[i, perm[i]] for i in range(4))
            best_score = sum(c[i, best[i]] for i in range(4))
            assert score == best_score
            assert list(perm) == list(best)

    def test_beats_random_permutations(self, rng):
        c = rng.integers(0, 50, size=(6, 6))
        perm = hungarian_match(c)
        score = sum(c[i, perm[i]] for i in range(6))
        for _ in range(1000):
            p = rng.permutation(6)
            assert score >= sum(c[i, p[i]] for i in range(6))

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidParam):
            hungarian_match(np.ones((2, 3)))

    def test_rejects_negative(self):
        with pytest.raises(InvalidParam):
            hungarian_match(np.array([[1, -1], [0, 2]]))
