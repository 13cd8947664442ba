"""Core linear algebra: flats, the truncated SVD of ``spectral_embed``, the
sign convention, k-means."""

import logging
import math
import tracemalloc

import numpy as np
import pytest
import scipy.cluster.vq

from fls.cluster import degrees, spectral_embed
from fls.datagen import sphere_normalize
from fls.errors import DegenerateInput, InvalidParam, RankDeficient
from fls.kernels import EmbeddingMatrix
from fls.linalg import (
    AffineFlat,
    _assign,
    flip_signs,
    haar_frames,
    kmeans,
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


# spectral_embed's truncated SVD is that of A = Psi D^-1/2.  Any A with a
# positive right singular vector c of singular value 1 is reached exactly:
# Psi = A diag(c) has degrees c (A^T A c) = c^2, so D^-1/2 undoes diag(c).
def _frame_with_positive_column(rng, n, k):
    """n x k orthonormal columns, the first one constant and positive."""
    q, _ = np.linalg.qr(np.column_stack([np.ones(n), rng.standard_normal((n, k - 1))]))
    q[:, 0] = np.abs(q[:, 0])
    return q


def _embedding_of(a, c):
    return EmbeddingMatrix(data=a * c)


def _normalized(emb):
    """Psi D^-1/2 as a new array; taken before ``spectral_embed``, which
    may scale Psi in place."""
    return emb.data * degrees(emb) ** -0.5


def _right_vectors(a, rows):
    """Undo spectral_embed's row normalization when K = D = rank(a): the
    rows of V then have the squared norms diag(a^+ a) of the projector
    onto a's row space."""
    return rows * np.sqrt(np.diag(np.linalg.pinv(a) @ a))[:, None]


def _positive_embedding(rng, n_features, n_points):
    return EmbeddingMatrix(data=np.abs(rng.standard_normal((n_features, n_points))) + 0.1)


class TestTruncatedSvd:
    def test_diagonal(self, rng):
        # A A^T = diag(1, 9, 4)
        v = _frame_with_positive_column(rng, 5, 3)
        emb = _embedding_of(np.diag([1.0, 3.0, 2.0]) @ v.T, v[:, 0])
        rows, svals = spectral_embed(emb, 2)
        assert np.allclose(svals, [3.0, 2.0])
        assert np.allclose(rows, sphere_normalize(flip_signs(v[:, 1:])), atol=1e-10)

    def test_orthonormal_rows_give_unit_singular_values(self, rng):
        v = _frame_with_positive_column(rng, 12, 4)  # A = v^T: 4x12, orthonormal rows
        _, svals = spectral_embed(_embedding_of(v.T, v[:, 0]), 4)
        assert np.allclose(svals, np.ones(4), atol=1e-10)

    def test_matches_full_svd_oracle(self, rng):
        emb = _positive_embedding(rng, 8, 20)
        a = _normalized(emb)
        rows, svals = spectral_embed(emb, 3)
        _, s, vt = np.linalg.svd(a, full_matrices=False)
        assert np.allclose(svals, s[:3], atol=1e-8)
        # the shared sign convention makes columns directly comparable
        assert np.allclose(rows, sphere_normalize(flip_signs(vt[:3].T)), atol=1e-8)

    def test_triple_identity(self, rng):
        # with u = A v / s, A^T u = s v
        emb = _positive_embedding(rng, 6, 15)
        a = _normalized(emb)
        rows, svals = spectral_embed(emb, 6)
        v = _right_vectors(a, rows)
        for i in range(6):
            lhs = a.T @ (a @ v[:, i])
            rhs = svals[i] ** 2 * v[:, i]
            assert np.linalg.norm(lhs - rhs) <= 1e-6 * svals[0] ** 2

    def test_orthonormal_outputs(self, rng):
        emb = _positive_embedding(rng, 7, 11)
        a = _normalized(emb)
        rows, svals = spectral_embed(emb, 7)
        v = _right_vectors(a, rows)
        u = a @ v / svals
        assert np.allclose(v.T @ v, np.eye(7), atol=1e-8)
        assert np.allclose(u.T @ u, np.eye(7), atol=1e-8)

    def test_rank_deficient(self, rng):
        # s2/s1 = 1e-13, below the sqrt(D eps) relative cutoff; then s2 = 0
        v = _frame_with_positive_column(rng, 5, 2)
        for s2 in (1e-13, 0.0):
            with pytest.raises(RankDeficient):
                spectral_embed(_embedding_of(np.diag([1.0, s2]) @ v.T, v[:, 0]), 2)

    def test_rank_one_below_gram_noise_floor(self, rng):
        # the Gram path resolves s2 only to ~1e-8 * s1 here; its right
        # vectors would be noise, so it must refuse rather than return them
        psi = np.outer(rng.random(50) + 0.5, rng.random(5000) + 0.5)
        with pytest.raises(RankDeficient):
            spectral_embed(EmbeddingMatrix(data=psi), 2)


def test_flip_signs_makes_largest_entry_positive():
    # a tie in magnitude goes to the first entry; a zero column stays zero
    vectors = np.array([[0.5, -0.2, 0.0, -0.3], [-0.9, 0.1, 0.0, 0.3]])
    want = np.array([[-0.5, 0.2, 0.0, 0.3], [0.9, -0.1, 0.0, -0.3]])
    assert np.array_equal(flip_signs(vectors), want)


def test_flip_signs_flips_each_matrix_of_a_stack(rng):
    stack = rng.standard_normal((2, 3, 6, 4))
    flipped = flip_signs(stack)
    for index in np.ndindex(stack.shape[:2]):
        assert np.array_equal(flipped[index], flip_signs(stack[index]))


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

    def test_peak_memory_is_one_block(self, monkeypatch):
        # the unblocked version holds several n x K float64 arrays per sweep
        m, k = 20_000, 400
        pts = np.random.default_rng(0).standard_normal((m, 10))
        monkeypatch.setattr("fls.linalg._KMEANS_MAX_ITER", 3)
        tracemalloc.start()
        try:
            kmeans(pts, k, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m * k * 8 / 4

    def test_unconverged_restarts_warn_once(self, caplog, monkeypatch):
        gen = np.random.default_rng(0)
        pts = np.concatenate([gen.standard_normal((50, 2)), gen.standard_normal((50, 2)) + 20])
        monkeypatch.setattr("fls.linalg._KMEANS_MAX_ITER", 1)
        with caplog.at_level(logging.WARNING, logger="fls.linalg"):
            kmeans(pts, 2, seed=0, restarts=3)
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert "3 of 3 restarts" in warnings[0].getMessage()
        caplog.clear()
        monkeypatch.undo()
        with caplog.at_level(logging.WARNING, logger="fls.linalg"):
            kmeans(pts, 2, seed=0, restarts=3)
        assert not caplog.records
