"""Landmark selection, multi-scale flat fitting, bandwidth resolution."""

import logging
import math

import numpy as np
import pytest

from fls.errors import DegenerateInput, InvalidParam
from fls.kernels import flat_distance
from fls.landmarks import (
    _LANDMARK_SWEEPS,
    LandmarkConfig,
    _fit_ladder,
    best_fit_flat,
    best_fit_flats,
    build_subspace_spec,
    default_sigma,
    landmark_flat_pool,
    select_landmarks,
)
from fls.linalg import AffineFlat, haar_frames, kmeans, moment_spectrum, pca_spectrum

from test_linalg import oracle_kmeans


def largest_principal_angle(b1, b2):
    s = np.linalg.svd(b1.T @ b2, compute_uv=False)
    return math.acos(min(1.0, s.min()))


def plane_points(rng, basis, n, center=None, noise=0.0):
    d = basis.shape[0]
    pts = rng.uniform(-1, 1, size=(n, basis.shape[1])) @ basis.T
    if center is not None:
        pts = pts + center
    if noise:
        pts = pts + noise * rng.standard_normal((n, d))
    return pts


def five_planes(m, seed):
    """m noisy points on five random planes in R^10, projected to the sphere."""
    gen = np.random.default_rng(seed)
    bases = gen.standard_normal((5, 2, 10))
    which = gen.integers(5, size=m)
    pts = np.einsum("ni,nid->nd", gen.standard_normal((m, 2)), bases[which])
    pts += 0.05 * gen.standard_normal(pts.shape)
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return pts


def oracle_kmeans_landmarks(points, count, seed, reseeds=None):
    # kmeans++ seeds and _LANDMARK_SWEEPS unblocked Lloyd updates, drawn
    # from the child stream kmeans(points, count, seed) uses
    return oracle_kmeans(
        points, count, seed=seed, max_iter=_LANDMARK_SWEEPS, reseeds=reseeds
    )[1]


class TestSelectLandmarks:
    def test_all_points(self, rng):
        pts = rng.standard_normal((8, 3))
        picked = select_landmarks(pts, 8, "random", seed=0)
        assert sorted(map(tuple, picked)) == sorted(map(tuple, pts))

    def test_kmeans_single_center_is_mean(self, rng):
        pts = rng.standard_normal((30, 2))
        center = select_landmarks(pts, 1, "kmeans", seed=0)
        assert np.allclose(center[0], pts.mean(axis=0), atol=1e-8)

    def test_kmeans_matches_capped_oracle(self):
        # the landmark shape: K = 400, so each sweep assigns in many row blocks
        pts = five_planes(8000, 2)
        got = select_landmarks(pts, 400, "kmeans", seed=2)
        assert np.array_equal(got, oracle_kmeans_landmarks(pts, 400, 2))

    def test_kmeans_reseed_matches_capped_oracle(self):
        # two distinct locations and three landmarks: kmeans++ seeds a
        # duplicate center, which the first assignment leaves empty
        pts = np.repeat([[0.0, 0.0], [5.0, 1.0]], [7, 5], axis=0)
        reseeds = []
        want = oracle_kmeans_landmarks(pts, 3, 9, reseeds)
        assert reseeds, "case does not reach the empty-cluster re-seed"
        assert np.array_equal(select_landmarks(pts, 3, "kmeans", seed=9), want)

    def test_kmeans_sweep_budget_logs_no_warning(self, caplog):
        pts = five_planes(4000, 3)
        with caplog.at_level(logging.WARNING, logger="fls"):
            kmeans(pts, 100, seed=3, max_iter=_LANDMARK_SWEEPS)
        assert caplog.records, "the budget reaches tol on this shape"
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="fls"):
            select_landmarks(pts, 100, "kmeans", seed=3)
        assert not caplog.records

    def test_random_is_uniform(self, rng):
        # inclusion frequency of point 0 over seeds: Binomial(trials, D/n)
        pts = rng.standard_normal((20, 2))
        trials, count = 400, 5
        hits = sum(
            any(np.array_equal(row, pts[0]) for row in select_landmarks(pts, count, "random", seed=s))
            for s in range(trials)
        )
        p = count / 20
        se = math.sqrt(p * (1 - p) / trials)
        assert abs(hits / trials - p) < 3 * se

    def test_too_many(self, rng):
        with pytest.raises(InvalidParam):
            select_landmarks(rng.standard_normal((4, 2)), 5, "random")

    def test_unknown_method(self, rng):
        with pytest.raises(InvalidParam):
            select_landmarks(rng.standard_normal((4, 2)), 2, "mystery")


class TestBestFitFlat:
    def test_exact_plane_recovered(self, rng):
        basis = haar_frames(rng, (5, 2))
        pts = plane_points(rng, basis, 40)
        flat = best_fit_flat(pts, pts[0], 2, max_scales=3, init_neighbors=6)
        assert largest_principal_angle(flat.basis, basis) < 1e-6
        for p in pts:
            assert flat_distance(p, flat) < 1e-7

    def test_small_scale_wins_over_mixed(self, rng):
        # neighborhood on plane A scores 0; larger ones absorb plane B
        a = np.eye(3)[:, :2]  # xy-plane
        b = np.eye(3)[:, [0, 2]]  # xz-plane
        pts_a = plane_points(rng, a, 12) * 0.3
        pts_b = plane_points(rng, b, 50) + np.array([5.0, 0.0, 0.0])
        pts = np.vstack([pts_a, pts_b])
        flat = best_fit_flat(pts, pts_a[0], 2, max_scales=4, init_neighbors=8)
        assert largest_principal_angle(flat.basis, a) < 1e-6

    def test_noisy_two_plane_alignment(self, rng):
        a = np.eye(4)[:, :2]
        b = np.eye(4)[:, 2:]
        pts = np.vstack(
            [plane_points(rng, a, 100, noise=0.02), plane_points(rng, b, 100, noise=0.02)]
        )
        flat = best_fit_flat(pts, pts[3], 2, max_scales=4, init_neighbors=6)
        assert largest_principal_angle(flat.basis, a) < math.radians(5)

    def test_full_dimension(self, rng):
        pts = rng.standard_normal((20, 3))
        flat = best_fit_flat(pts, pts[0], 3, max_scales=2, init_neighbors=5)
        assert flat.dim == 3

    def test_zero_variance_neighborhood(self, caplog):
        pts = np.tile([1.0, 2.0], (10, 1))
        with caplog.at_level(logging.WARNING, logger="fls.landmarks"):
            flat = best_fit_flat(pts, pts[0], 1, max_scales=2, init_neighbors=3)
        assert any("zero variance" in r.message for r in caplog.records)
        assert np.allclose(flat.base, [1.0, 2.0])
        assert np.allclose(flat.basis, [[1.0], [0.0]])

    def test_returned_score_is_minimal(self, rng):
        # re-derive every candidate's score by hand and compare
        pts = rng.standard_normal((60, 4))
        center = pts[7]
        init, t = 5, 4
        flat = best_fit_flat(pts, center, 2, max_scales=t, init_neighbors=init)

        def score_of(flat_like, sub):
            centered = sub - sub.mean(axis=0)
            total = (centered**2).sum()
            proj = centered @ flat_like.basis
            return ((centered**2).sum() - (proj**2).sum()) / total

        order = np.argsort(((pts - center) ** 2).sum(axis=1), kind="stable")
        sizes = sorted({min(int(round(init * 2**j)), 60) for j in range(t)})
        best = min(
            score_of(AffineFlat(base=s.mean(axis=0), basis=np.linalg.svd(s - s.mean(axis=0))[2][:2].T), s)
            for s in (pts[order[:size]] for size in sizes)
        )
        got = min(score_of(flat, pts[order[:size]]) for size in sizes)
        assert got <= best + 1e-12

    def test_linear_mode_through_origin(self, rng):
        basis = haar_frames(rng, (5, 2))
        pts = plane_points(rng, basis, 30)  # linear plane, no offset
        flat = best_fit_flat(pts, pts[0], 2, max_scales=3, init_neighbors=6, linear=True)
        assert np.all(flat.base == 0.0)
        for p in pts:
            assert flat_distance(p, flat) < 1e-7

    def test_too_few_points(self, rng):
        with pytest.raises(DegenerateInput):
            best_fit_flat(rng.standard_normal((3, 4)), np.zeros(4), 2, 2, 5)

    def test_bad_params(self, rng):
        pts = rng.standard_normal((10, 3))
        with pytest.raises(InvalidParam):
            best_fit_flat(pts, np.zeros(3), 4, 2, 5)
        with pytest.raises(InvalidParam):
            best_fit_flat(pts, np.zeros(2), 1, 2, 3)
        with pytest.raises(InvalidParam):
            best_fit_flat(pts, np.zeros(3), 2, 2, 2)


def svd_ladder(pts, center, flat_dim, max_scales, init_neighbors, linear=False):
    """Reference ladder: one SVD per neighborhood size, strictly lower score wins.

    Returns (sizes, scores, win, flat), the flat spanned by the top
    ``flat_dim`` directions of the winning fit.
    """
    n = pts.shape[0]
    sizes = sorted({min(int(round(init_neighbors * 2**j)), n) for j in range(max_scales)})
    order = np.argsort(((pts - center) ** 2).sum(axis=1), kind="stable")
    scores, flats = [], []
    for size in sizes:
        hood = pts[order[:size]]
        if linear:
            base = np.zeros(pts.shape[1])
            eigvals, eigvecs = moment_spectrum(hood)
        else:
            base, eigvals, eigvecs = pca_spectrum(hood)
        scores.append(eigvals[flat_dim:].sum() / eigvals.sum())
        flats.append(AffineFlat(base=base, basis=eigvecs[:, :flat_dim]))
    win = int(np.argmin(scores))
    return sizes, np.array(scores), win, flats[win]


def two_planes(rng, noise):
    a = np.eye(6)[:, :2]
    b = haar_frames(rng, (6, 2))
    return np.vstack(
        [plane_points(rng, a, 150, noise=noise), plane_points(rng, b, 150, noise=noise)]
    )


class TestBestFitFlats:
    def test_exact_affine_plane_ties_go_to_smallest(self, rng):
        # every size fits exactly, so every score is roundoff: a tie
        basis = haar_frames(rng, (5, 2))
        pts = plane_points(rng, basis, 40, center=rng.standard_normal(5))
        center = pts[0]
        flat = best_fit_flat(pts, center, 2, max_scales=3, init_neighbors=6)
        order = np.argsort(((pts - center) ** 2).sum(axis=1), kind="stable")
        assert np.allclose(flat.base, pts[order[:6]].mean(axis=0), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("linear", [False, True])
    def test_batch_is_bit_identical_to_single_calls(self, rng, linear):
        pts = two_planes(rng, noise=0.03)
        centers = pts[rng.choice(pts.shape[0], 12, replace=False)]
        batch = best_fit_flats(pts, centers, 2, 5, 6, linear=linear)
        single = [best_fit_flat(pts, c, 2, 5, 6, linear=linear) for c in centers]
        assert len(batch) == len(single) == 12
        for fb, fs in zip(batch, single):
            assert np.array_equal(fb.base, fs.base)
            assert np.array_equal(fb.basis, fs.basis)

    @pytest.mark.parametrize("linear", [False, True])
    def test_matches_svd_ladder(self, rng, linear):
        pts = two_planes(rng, noise=0.05) + 0.5
        x_sq = (pts**2).sum(axis=1)
        for center in pts[rng.choice(pts.shape[0], 20, replace=False)]:
            sizes, want, want_win, want_flat = svd_ladder(pts, center, 2, 6, 6, linear)
            got, win, _, _ = _fit_ladder(pts, x_sq, center, sizes, 2, linear)
            assert win == want_win
            assert np.allclose(got, want, rtol=1e-10, atol=0)
            flat = best_fit_flat(pts, center, 2, 6, 6, linear=linear)
            assert np.allclose(flat.base, want_flat.base, rtol=0, atol=1e-12)
            assert largest_principal_angle(flat.basis, want_flat.basis) < 1e-7

    def test_centers_must_match_ambient_dimension(self, rng):
        pts = rng.standard_normal((10, 3))
        with pytest.raises(InvalidParam):
            best_fit_flats(pts, np.zeros((2, 2)), 1, 2, 3)
        with pytest.raises(InvalidParam):
            best_fit_flats(pts, np.zeros(3), 1, 2, 3)


class TestDefaultSigma:
    def test_exact_median(self):
        basis = np.array([[1.0], [0.0]])
        flat = AffineFlat(base=np.zeros(2), basis=basis)
        pts = np.array([[0.0, 1.0], [4.0, 3.0], [-2.0, 2.0]])
        assert default_sigma(pts, [flat]) == pytest.approx(2.0)

    def test_floor(self):
        flat = AffineFlat(base=np.zeros(2), basis=np.array([[1.0], [0.0]]))
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        assert default_sigma(pts, [flat]) == 1e-6

    def test_sampled_path_constant_distance(self, rng):
        # every pair is at distance 7, so any sample's median is 7
        flat = AffineFlat(base=np.zeros(3), basis=np.eye(3)[:, :2])
        pts = rng.standard_normal((500, 2))
        pts = np.hstack([pts, np.full((500, 1), 7.0)])
        flats = [flat] * 30  # 15000 pairs > default max_pairs
        assert default_sigma(pts, flats, seed=3) == pytest.approx(7.0)

    def test_deterministic(self, rng):
        pts = rng.standard_normal((300, 3))
        flats = [
            AffineFlat(base=rng.standard_normal(3), basis=haar_frames(rng, (3, 1)))
            for _ in range(50)
        ]
        assert default_sigma(pts, flats, seed=5) == default_sigma(pts, flats, seed=5)


class TestLandmarkConfig:
    def test_default_scales(self):
        cfg = LandmarkConfig(n_landmarks=10, flat_dim=2)
        assert cfg.resolve_scales(100) == (6, 6)  # S=2(l+1), T=ceil(log2(100/6))+1
        assert cfg.resolve_scales(5) == (6, 1)  # tiny n clamps T to 1

    def test_explicit_scales(self):
        cfg = LandmarkConfig(n_landmarks=10, flat_dim=2, init_neighbors=4, max_scales=3)
        assert cfg.resolve_scales(10**6) == (4, 3)

    def test_scale_cap(self):
        cfg = LandmarkConfig(n_landmarks=10, flat_dim=1, init_neighbors=4)
        assert cfg.resolve_scales(1 << 20) == (4, 8)  # T capped at 8

    def test_validation(self):
        with pytest.raises(InvalidParam):
            LandmarkConfig(n_landmarks=0, flat_dim=1)
        with pytest.raises(InvalidParam):
            LandmarkConfig(n_landmarks=1, flat_dim=0)
        with pytest.raises(InvalidParam):
            LandmarkConfig(n_landmarks=1, flat_dim=2, method="grid")
        with pytest.raises(InvalidParam):
            LandmarkConfig(n_landmarks=1, flat_dim=2, init_neighbors=2)
        with pytest.raises(InvalidParam):
            LandmarkConfig(n_landmarks=1, flat_dim=2, sigma=0.0)
        with pytest.raises(InvalidParam):
            LandmarkConfig(n_landmarks=1, flat_dim=2, max_scales=0)


class TestBuildSubspaceSpec:
    def test_orthogonal_planes_recovered(self, rng):
        # patches far apart so every k-NN neighborhood stays on one plane
        a = np.eye(4)[:, :2]
        b = np.eye(4)[:, 2:]
        offset = np.array([5.0, 0.0, 0.0, 0.0])
        pts = np.vstack(
            [plane_points(rng, a, 150), plane_points(rng, b, 150, center=offset)]
        )
        cfg = LandmarkConfig(n_landmarks=12, flat_dim=2)
        spec = build_subspace_spec(pts, cfg, seed=0)
        assert spec.n_features == 12
        for f in spec.flats:
            angle = min(
                largest_principal_angle(f.basis, a),
                largest_principal_angle(f.basis, b),
            )
            assert angle < 1e-6  # noiseless data, exact local fits

    def test_noiseless_sigma_floor(self, rng):
        # all points on one plane: every flat contains every point
        pts = plane_points(rng, haar_frames(rng, (5, 2)), 80)
        cfg = LandmarkConfig(n_landmarks=6, flat_dim=2)
        assert build_subspace_spec(pts, cfg, seed=1).sigma == 1e-6

    def test_explicit_sigma_passes_through(self, rng):
        pts = rng.standard_normal((50, 3))
        cfg = LandmarkConfig(n_landmarks=4, flat_dim=1, sigma=0.37)
        assert build_subspace_spec(pts, cfg, seed=0).sigma == 0.37

    def test_deterministic(self, rng):
        pts = rng.standard_normal((60, 3))
        cfg = LandmarkConfig(n_landmarks=5, flat_dim=2, method="kmeans")
        s1 = build_subspace_spec(pts, cfg, seed=9)
        s2 = build_subspace_spec(pts, cfg, seed=9)
        assert s1.sigma == s2.sigma
        for f1, f2 in zip(s1.flats, s2.flats):
            assert np.array_equal(f1.base, f2.base)
            assert np.array_equal(f1.basis, f2.basis)

    def test_single_landmark(self, rng):
        pts = rng.standard_normal((20, 3))
        spec = build_subspace_spec(pts, LandmarkConfig(n_landmarks=1, flat_dim=1), seed=0)
        assert spec.n_features == 1


class TestLandmarkFlatPool:
    def test_pool_size_and_fit(self, rng):
        basis = haar_frames(rng, (4, 2))
        pts = plane_points(rng, basis, 25)
        pool = landmark_flat_pool(pts, 2)
        assert len(pool) == 25
        for p, f in zip(pts, pool):
            assert flat_distance(p, f) < 1e-7

    def test_linear_config_respected(self, rng):
        pts = plane_points(rng, haar_frames(rng, (4, 2)), 25)
        cfg = LandmarkConfig(n_landmarks=1, flat_dim=2, linear=True)
        pool = landmark_flat_pool(pts, 2, cfg)
        for f in pool:
            assert np.all(f.base == 0.0)
