"""Landmark selection, multi-scale flat fitting, bandwidth resolution."""

import logging
import math
import re
import subprocess
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fls import kernels, landmarks
from fls.datagen import gen_synthetic, sphere_normalize
from fls.errors import DegenerateInput, DimensionMismatch, InvalidParam
from fls.evaluation import synthetic_suite
from fls.kernels import SubspaceKernel, feature_matrix
from fls.landmarks import (
    _LANDMARK_SWEEPS,
    _PRUNE_WINDOW,
    _TIE_TOL,
    LandmarkConfig,
    _fit_ladders,
    _score_bounds,
    best_fit_flat,
    best_fit_flats,
    default_sigma,
    landmark_flat_pool,
    select_landmarks,
)
from fls.linalg import (
    COL_ALIGN,
    ROW_ALIGN,
    AffineFlat,
    flip_signs,
    haar_frames,
    kmeans,
    kmeans_centers,
    round_up,
)
from fls.rng import make_rng, split

from oracles import RANDOM_AFFINE, flat_distance, landmark_sample, subspace_spec
from test_cli import subprocess_env
from test_kernels import random_flats
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


def per_flat_sigma(points, flats, seed):
    """default_sigma's sampled median from the same draw, each distance
    from the scalar ``oracles.flat_distance``."""
    rng = make_rng(seed)
    pt_idx = rng.integers(len(points), size=landmarks._SIGMA_PAIRS)
    flat_idx = rng.integers(len(flats), size=landmarks._SIGMA_PAIRS)
    sample = [flat_distance(points[i], flats[k]) for i, k in zip(pt_idx, flat_idx)]
    return max(float(np.median(sample)), 1e-6)


def oracle_kmeans_landmarks(points, count, seed, reseeds=None):
    # kmeans++ seeds and _LANDMARK_SWEEPS unblocked Lloyd updates on the
    # landmark sample, drawn from the child stream kmeans(rows, count,
    # fit) uses
    rows, fit = landmark_sample(points, count, seed)
    return oracle_kmeans(
        rows, count, seed=fit, max_iter=_LANDMARK_SWEEPS, reseeds=reseeds
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

    def test_kmeans_past_cap_fits_the_sample(self):
        # one row past the 4096 floor: the centers of kmeans_centers on
        # the sorted sample, fitted from the sample's sibling stream
        pts = five_planes(4097, 6)
        draw, fit = split(5, 2)
        idx = np.sort(make_rng(draw).choice(4097, 4096, replace=False))
        want = kmeans_centers(pts[idx], 10, fit, _LANDMARK_SWEEPS)
        got = select_landmarks(pts, 10, "kmeans", seed=5)
        assert np.array_equal(got, want)
        assert np.array_equal(select_landmarks(pts, 10, "kmeans", seed=5), got)
        assert not np.array_equal(got, kmeans_centers(pts, 10, 5, _LANDMARK_SWEEPS))

    def test_kmeans_cap_grows_with_count(self):
        # 250 landmarks raise the cap to 5000 rows: 4500 points are all
        # used, 5001 are sampled down to 5000
        pts = five_planes(5001, 7)
        got = select_landmarks(pts[:4500], 250, "kmeans", seed=4)
        assert np.array_equal(got, kmeans_centers(pts[:4500], 250, 4, _LANDMARK_SWEEPS))
        rows, fit = landmark_sample(pts, 250, 4)
        assert len(rows) == 5000
        got = select_landmarks(pts, 250, "kmeans", seed=4)
        assert np.array_equal(got, kmeans_centers(rows, 250, fit, _LANDMARK_SWEEPS))
        assert np.array_equal(got, oracle_kmeans_landmarks(pts, 250, 4))

    def test_kmeans_reseed_matches_capped_oracle(self):
        # two distinct locations and three landmarks: kmeans++ seeds a
        # duplicate center, which the first assignment leaves empty
        pts = np.repeat([[0.0, 0.0], [5.0, 1.0]], [7, 5], axis=0)
        reseeds = []
        want = oracle_kmeans_landmarks(pts, 3, 9, reseeds)
        assert reseeds, "case does not reach the empty-cluster re-seed"
        assert np.array_equal(select_landmarks(pts, 3, "kmeans", seed=9), want)

    def test_kmeans_sweep_budget_logs_no_warning(self, caplog, monkeypatch):
        pts = five_planes(4000, 3)
        monkeypatch.setattr("fls.linalg._KMEANS_MAX_ITER", _LANDMARK_SWEEPS)
        with caplog.at_level(logging.WARNING, logger="fls"):
            kmeans(pts, 100, seed=3)
        assert caplog.records, "the budget reaches tol on this shape"
        caplog.clear()
        monkeypatch.undo()
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


def ladder_sizes(n, max_scales, init_neighbors):
    return sorted({min(int(round(init_neighbors * 2**j)), n) for j in range(max_scales)})


def hood_spectrum(hood, linear):
    """Base, scatter eigenvalues (descending, zero-padded to d) and
    eigenvectors (``flip_signs`` convention) of a neighborhood, from the
    thin SVD of its centered rows, or of its raw rows when ``linear``."""
    base = np.zeros(hood.shape[1]) if linear else hood.mean(axis=0)
    _, svals, vt = np.linalg.svd(hood if linear else hood - base, full_matrices=False)
    eigvals = np.zeros(hood.shape[1])
    eigvals[: svals.shape[0]] = svals**2
    return base, eigvals, flip_signs(vt.T)


def svd_ladder(pts, center, flat_dim, max_scales, init_neighbors, linear=False):
    """Reference ladder: one SVD per neighborhood size, strictly lower score wins.

    Returns (sizes, scores, win, flat), the flat spanned by the top
    ``flat_dim`` directions of the winning fit.
    """
    sizes = ladder_sizes(pts.shape[0], max_scales, init_neighbors)
    order = np.argsort(((pts - center) ** 2).sum(axis=1), kind="stable")
    scores, flats = [], []
    for size in sizes:
        base, eigvals, eigvecs = hood_spectrum(pts[order[:size]], linear)
        scores.append(eigvals[flat_dim:].sum() / eigvals.sum())
        flats.append(AffineFlat(base=base, basis=eigvecs[:, :flat_dim]))
    win = int(np.argmin(scores))
    return sizes, np.array(scores), win, flats[win]


def unpruned_fit_ladders(*args):
    """``_fit_ladders`` with an infinite prune window: every size of every
    center goes through ``eigvalsh``.

    The reference the pruned ladder must match bit for bit wherever it
    takes eigenvalues: the same matrices, every score solved.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(landmarks, "_PRUNE_WINDOW", np.inf)
        return _fit_ladders(*args)


def pruned_fit_ladders(*args):
    """``_fit_ladders`` plus the (c, T) mask of the scores ``eigvalsh``
    computed (the shared all-points size always is)."""
    solved, real = [], landmarks._local_scores

    def recording(*a):
        out = real(*a)
        solved.append(out[2])
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(landmarks, "_local_scores", recording)
        scores, wins, flats = _fit_ladders(*args)
    mask = np.ones(scores.shape, dtype=bool)
    local = np.concatenate(solved)
    mask[:, : local.shape[1]] = local
    return scores, mask, wins, flats


def two_planes(rng, noise, ambient=6, dim=2):
    """150 points on each of two linear dim-planes in R^ambient."""
    a = np.eye(ambient)[:, :dim]
    b = haar_frames(rng, (ambient, dim))
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
        assert isinstance(batch, AffineFlat) and len(batch) == 12
        for i, center in enumerate(centers):
            single = best_fit_flat(pts, center, 2, 5, 6, linear=linear)
            assert np.array_equal(batch[i].base, single.base)
            assert np.array_equal(batch[i].basis, single.basis)
            assert np.array_equal(batch.basis[i], single.basis)

    @pytest.mark.parametrize("linear", [False, True])
    def test_matches_svd_ladder(self, rng, linear):
        # (ambient, l, S, T): sizes 6..192 all scored from d x d scatters;
        # 8, 16, 32 scored from Gram matrices in R^40; T = 7 reaches all 300
        # points, the size every center shares
        for ambient, dim, init, scales in [(6, 2, 6, 6), (40, 3, 8, 5), (40, 3, 8, 7)]:
            pts = two_planes(rng, 0.05, ambient, dim) + 0.5
            centers = pts[rng.choice(pts.shape[0], 20, replace=False)]
            sizes = ladder_sizes(pts.shape[0], scales, init)
            scores, solved, wins, _ = pruned_fit_ladders(pts, centers, sizes, dim, linear)
            for center, got, scored, win in zip(centers, scores, solved, wins):
                _, want, want_win, want_flat = svd_ladder(pts, center, dim, scales, init, linear)
                assert win == want_win
                assert np.allclose(got[scored], want[scored], rtol=1e-10, atol=0)
                # a pruned size holds a lower bound on its score, and that
                # score lies beyond the winner's tie window
                slack = (_PRUNE_WINDOW - _TIE_TOL) * ambient
                assert np.all(got[~scored] <= want[~scored] + slack)
                assert np.all(want[~scored] > want.min() + _TIE_TOL * ambient)
                flat = best_fit_flat(pts, center, dim, scales, init, linear=linear)
                assert np.allclose(flat.base, want_flat.base, rtol=0, atol=1e-12)
                assert largest_principal_angle(flat.basis, want_flat.basis) < 1e-7

    @pytest.mark.parametrize("linear", [False, True])
    def test_exact_flat_gram_ties_go_to_smallest(self, rng, linear):
        # 200 points on one 7-flat in R^80: the sizes 16, 32 and 64 are
        # scored from Gram matrices, and every score is roundoff
        basis = haar_frames(rng, (80, 7))
        offset = None if linear else rng.standard_normal(80)
        pts = plane_points(rng, basis, 200, center=offset)
        sizes = ladder_sizes(200, 4, 16)
        scores, wins, flats = _fit_ladders(pts, pts[:30], sizes, 7, linear)
        assert np.all(scores <= _TIE_TOL * 80)
        assert np.any(np.argmin(scores, axis=1) > 0), "no roundoff tie to break"
        assert np.all(wins == 0)
        for flat in flats:
            assert largest_principal_angle(flat.basis, basis) < 1e-7

    def test_all_points_rung_only(self, rng):
        # S = n: the one size is the shared all-points neighborhood
        pts = rng.standard_normal((30, 4)) + 2.0
        flats = best_fit_flats(pts, pts[:3], 2, 3, 30)
        base, _, vecs = hood_spectrum(pts, linear=False)
        for flat in flats:
            assert np.allclose(flat.base, base, rtol=0, atol=1e-12)
            assert largest_principal_angle(flat.basis, vecs[:, :2]) < 1e-7

    def test_centers_must_match_ambient_dimension(self, rng):
        pts = rng.standard_normal((10, 3))
        with pytest.raises(InvalidParam):
            best_fit_flats(pts, np.zeros((2, 2)), 1, 2, 3)
        with pytest.raises(InvalidParam):
            best_fit_flats(pts, np.zeros(3), 1, 2, 3)

    @pytest.mark.parametrize("max_scales", [0, -1])
    def test_empty_ladder_refused(self, rng, max_scales):
        # no neighborhood size to score
        with pytest.raises(InvalidParam, match="max_scales"):
            best_fit_flats(rng.standard_normal((10, 3)), np.zeros((2, 3)), 1, max_scales, 3)


def suite_ladder(index, count=20):
    """Sphere-normalized points of the synthetic30 model ``index``, ``count``
    of them as centers, and the model's resolved ladder and flat dimension."""
    model = synthetic_suite(0.30)[index]
    pts = sphere_normalize(gen_synthetic(model, 0).points)
    centers = pts[np.random.default_rng(index).choice(pts.shape[0], count, replace=False)]
    cfg = LandmarkConfig(n_landmarks=count, flat_dim=max(model.dims))
    init, scales = cfg.resolve_scales(pts.shape[0])
    return pts, centers, ladder_sizes(pts.shape[0], scales, init), cfg.flat_dim


class TestPrunedLadder:
    """A ladder size whose trace/Frobenius bound cannot win or tie is not
    decomposed: wins and flats must be those of the unpruned ladder."""

    @staticmethod
    def r40_ladder(scales):
        # the R^40 ladders of test_matches_svd_ladder
        gen = np.random.default_rng(40 + scales)
        pts = two_planes(gen, 0.05, 40, 3) + 0.5
        centers = pts[gen.choice(pts.shape[0], 20, replace=False)]
        return pts, centers, ladder_sizes(pts.shape[0], scales, 8), 3

    @pytest.mark.parametrize("case", ["suite0", "suite1", "suite2", "suite3", "r40-5", "r40-7"])
    @pytest.mark.parametrize("linear", [False, True])
    def test_matches_unpruned_oracle(self, case, linear):
        if case.startswith("suite"):
            pts, centers, sizes, dim = suite_ladder(int(case[-1]))
        else:
            pts, centers, sizes, dim = self.r40_ladder(int(case[-1]))
        d = pts.shape[1]
        scores, solved, wins, flats = pruned_fit_ladders(pts, centers, sizes, dim, linear)
        want_scores, want_wins, want_flats = unpruned_fit_ladders(pts, centers, sizes, dim, linear)
        assert np.array_equal(wins, want_wins)
        assert np.array_equal(scores[solved], want_scores[solved])
        lowest = np.broadcast_to(want_scores.min(axis=1, keepdims=True), scores.shape)
        assert np.all(scores[~solved] <= want_scores[~solved] + (_PRUNE_WINDOW - _TIE_TOL) * d)
        assert np.all(want_scores[~solved] > lowest[~solved] + _TIE_TOL * d)
        for got, want in zip(flats, want_flats):
            assert np.array_equal(got.base, want.base)
            assert np.array_equal(got.basis, want.basis)

    def test_r80_skips_most_scatter_solves(self, monkeypatch, caplog):
        # the R^80 model: l = 7, local sizes 16, 32, 64 (Gram matrices) and
        # 128..1024 (80 x 80 scatters), then the shared all-points size
        pts, centers, sizes, dim = suite_ladder(3)
        assert sizes[-1] == pts.shape[0] and len(sizes) == 8
        rows, real = Counter(), np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            rows[a.shape[-1]] += a.shape[0] if a.ndim == 3 else 1
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        with caplog.at_level(logging.DEBUG, logger="fls.landmarks"):
            best_fit_flats(pts, centers, dim, 8, 16, linear=True)
        scatter_solves = rows.pop(80) - 1  # one is the shared size's
        assert scatter_solves <= 0.1 * 4 * len(centers)
        assert rows[16] == len(centers)  # the smallest size is always scored
        (line,) = [r.getMessage() for r in caplog.records if "eigen-solves" in r.getMessage()]
        taken, pruned = map(int, re.findall(r"\d+", line))
        assert taken == scatter_solves + sum(rows.values())
        assert taken + pruned == 7 * len(centers)

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["scatter", "gram", "spectrum", "two-level"]),
        r=st.integers(2, 12),
        rank=st.integers(0, 12),
        flat_dim=st.integers(1, 12),
        centered=st.booleans(),
        scale=st.integers(-150, 150),
        gap=st.floats(-9, 0),
    )
    def test_bound_never_exceeds_score(self, seed, kind, r, rank, flat_dim, centered, scale, gap):
        # the bound may exceed the trailing share eigvalsh gives by no more
        # than the part of the prune window beyond the tie window
        gen = np.random.default_rng(seed)
        rank = min(rank, r)
        if kind in ("scatter", "gram"):
            # m points in R^r of rank ``rank``: their r x r scatter or m x m Gram matrix
            m = int(gen.integers(1, 4 * r + 1))
            pts = gen.standard_normal((m, rank)) @ gen.standard_normal((rank, r))
            if centered:
                pts = pts - pts.mean(axis=0)
            mat = pts.T @ pts if kind == "scatter" else pts @ pts.T
        else:
            # rotated spectra: ``rank`` random eigenvalues, or the bound's
            # equality case, a top l at 1 + 10^gap over an equal rest
            vals = np.zeros(r)
            if kind == "spectrum":
                vals[:rank] = gen.uniform(0, 1, rank)
            else:
                vals[:] = 1.0
                vals[:flat_dim] += 10.0**gap
            q = haar_frames(gen, (r, r))
            mat = (q * vals) @ q.T
        mat = mat * 10.0**scale
        size, flat_dim = mat.shape[0], min(flat_dim, mat.shape[0])
        total = np.trace(mat)
        share = np.linalg.eigvalsh(mat)[: size - flat_dim].sum() / total if total > 0 else 0.0
        bound = _score_bounds(mat[None], np.array([total]), flat_dim)[0]
        slack = (_PRUNE_WINDOW - _TIE_TOL) * size
        assert bound <= share + slack
        if rank <= flat_dim and kind != "two-level":
            assert bound <= slack  # an exact l-flat scores roundoff


class TestBlockedLadder:
    """best_fit_flats fits its centers a block at a time: the flats must
    not depend on the block size, nor on which block a center lands in."""

    # ids T-m_max: with T = 4 the largest size is 64; with T = 7 it is all
    # 300 points, fitted once, and 256 the largest gathered per center.
    # Sizes 8, 16 and 32 are scored from Gram matrices, 64 on from
    # scatters.  Chunks of 16 rows read every band in several, and the
    # first scatter's rows [0, 64) in four, whose last two also give the
    # sum of the band (32, 64]
    @pytest.mark.parametrize(
        "scales, chunk",
        [
            pytest.param(4, None, id="4-64"),
            pytest.param(7, None, id="7-256"),
            pytest.param(7, 16, id="7-256-chunk16"),
        ],
    )
    @pytest.mark.parametrize("linear", [False, True])
    def test_flats_do_not_depend_on_block(self, monkeypatch, linear, scales, chunk):
        # 30 points on a sphere around each of 10 centers in R^40: their
        # distances to it are equal, so roundoff alone sets the order, and
        # any distance arithmetic that depends on the block changes flats
        gen = np.random.default_rng(11)
        centers = gen.standard_normal((10, 40))
        dirs = gen.standard_normal((10, 30, 40))
        dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
        pts = (centers[:, None] + 0.5 * dirs).reshape(300, 40)
        if chunk is not None:
            monkeypatch.setattr(landmarks, "_CHUNK_ENTRIES", chunk * 40)
            assert landmarks._chunk_rows(40) == chunk
        want = best_fit_flats(pts, centers, 3, scales, 8, linear=linear)
        for per_block in (1, 3):
            monkeypatch.setattr(landmarks, "_block_centers", lambda *args: per_block)
            got = best_fit_flats(pts, centers, 3, scales, 8, linear=linear)
            for fb, fw in zip(got, want):
                assert np.array_equal(fb.base, fw.base)
                assert np.array_equal(fb.basis, fw.basis)
        for center, fw in zip(centers, want):
            single = best_fit_flat(pts, center, 3, scales, 8, linear=linear)
            assert np.array_equal(single.base, fw.base)
            assert np.array_equal(single.basis, fw.basis)

    def test_blocks_are_whole_aligned_rows(self, monkeypatch):
        # the kmeans-landmarks ladder (d = 10, sizes 6 to 768): 2^18
        # entries of working set, 512 rows of a band sub-chunk and four
        # 10 x 10 arrays per center, hold 47 centers, rounded down to 40,
        # so no full block's distance GEMM has zero rows
        gen = np.random.default_rng(16)
        pts = gen.standard_normal((2000, 10))
        blocks, gather = [], landmarks._gather

        def spy(pts, pts_t, x_sq, centers, dists, out):
            blocks.append(len(centers))
            gather(pts, pts_t, x_sq, centers, dists, out)

        monkeypatch.setattr(landmarks, "_gather", spy)
        best_fit_flats(pts, pts[:100], 2, 8, 6, linear=True)
        assert blocks == [40, 40, 20]

    def test_r80_blocks_fill_aligned_rows(self, monkeypatch):
        # the subspace-ref R^80 ladder (l = 7, sizes 16 to 1024): the
        # neighborhoods of one center would take 2^17 entries, but a
        # block reads them a band sub-chunk at a time, so it takes
        # ROW_ALIGN centers
        gen = np.random.default_rng(80)
        pts = gen.standard_normal((1625, 80))
        blocks, gather = [], landmarks._gather

        def spy(pts, pts_t, x_sq, centers, dists, out):
            blocks.append(len(centers))
            gather(pts, pts_t, x_sq, centers, dists, out)

        monkeypatch.setattr(landmarks, "_gather", spy)
        best_fit_flats(pts, pts[:20], 7, 8, 16, linear=True)
        assert blocks == [8, 8, 4]

    def test_peak_memory(self):
        # the R^80 benchmark shape: the peak is the transposed copy of the
        # points, one block of neighborhoods and small per-center arrays,
        # not a neighborhood per center
        gen = np.random.default_rng(7)
        pts = gen.standard_normal((1625, 80))
        centers = pts[gen.choice(1625, 20, replace=False)]
        best_fit_flats(pts, centers, 7, 8, 16, linear=True)
        tracemalloc.start()
        try:
            best_fit_flats(pts, centers, 7, 8, 16, linear=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * pts.nbytes + 8 * landmarks._BLOCK_ENTRIES + 2**20

    def test_five_plane_peak_holds_eight_distance_rows(self):
        # the kmeans-landmarks shape (31 500 points in R^10, 400 landmarks,
        # sizes 6 to 768): beside the points and their transposed copy the
        # scan holds ROW_ALIGN distance rows, however many centers a block
        # takes, and the ladder its 2 * _BLOCK_ENTRIES of working set
        pts = five_planes(31_500, 3)
        centers = pts[np.random.default_rng(3).choice(len(pts), 400, replace=False)]
        best_fit_flats(pts, centers, 2, 8, 6, linear=True)
        tracemalloc.start()
        try:
            best_fit_flats(pts, centers, 2, 8, 6, linear=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        width = round_up(len(pts), COL_ALIGN)
        assert peak <= 2 * pts.nbytes + 8 * (ROW_ALIGN * width + 2 * landmarks._BLOCK_ENTRIES)

    @pytest.mark.threads
    def test_flats_do_not_depend_on_blas_threads(self, tmp_path):
        # 5 113 points, a width at which an unaligned distance GEMM gives
        # the last point other bits on 2 threads than on 1.  That point
        # lies at distance 0.5 from each of 40 centers in R^10, and so do
        # 7 more points per center: each center's nearest 8 tie, so
        # roundoff alone orders them and any change of a bit reorders the
        # sums of every size.  The other 4 832 points lie 3 away.
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from fls.landmarks import best_fit_flats\n"
            "gen = np.random.default_rng(13)\n"
            "unit = lambda a: a / np.linalg.norm(a, axis=-1, keepdims=True)\n"
            "last = gen.standard_normal(10)\n"
            "centers = last + 0.5 * unit(gen.standard_normal((40, 10)))\n"
            "ties = centers[:, None] + 0.5 * unit(gen.standard_normal((40, 7, 10)))\n"
            "far = last + 3.0 * unit(gen.standard_normal((4832, 10)))\n"
            "pts = np.vstack([far, ties.reshape(-1, 10), last])\n"
            "flats = best_fit_flats(pts, centers, 2, 5, 8)\n"
            "np.savez(sys.argv[1], base=flats.base, basis=flats.basis)\n"
        )
        got = []
        for threads in ("1", "2"):
            out = tmp_path / f"flats{threads}.npz"
            env = dict(subprocess_env(), OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-c", code, str(out)], capture_output=True, text=True, env=env
            )
            assert proc.returncode == 0, proc.stderr
            got.append(np.load(out))
        one, two = got
        assert np.array_equal(one["base"], two["base"])
        assert np.array_equal(one["basis"], two["basis"])

    @pytest.mark.threads
    def test_r80_flats_do_not_depend_on_blas_threads(self, tmp_path):
        # the subspace-ref R^80 model on 24 landmarks, whose bands of 128
        # to 512 rows are summed in 64-row sub-chunks: the scores (a
        # pruned size's bound comes from its scatter too), wins and flats
        # have the same bits on 1 and 2 threads, affine and linear
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from fls.datagen import gen_synthetic, sphere_normalize\n"
            "from fls.evaluation import synthetic_suite\n"
            "from fls.landmarks import _fit_ladders\n"
            "pts = sphere_normalize(gen_synthetic(synthetic_suite(0.30)[3], 5).points)\n"
            "centers = pts[np.random.default_rng(5).choice(len(pts), 24, replace=False)]\n"
            "sizes = [16 * 2**j for j in range(7)] + [len(pts)]\n"
            "out = {}\n"
            "for linear in (False, True):\n"
            "    scores, wins, flats = _fit_ladders(pts, centers, sizes, 7, linear)\n"
            "    for name, a in zip(('scores', 'wins', 'base', 'basis'),\n"
            "                       (scores, wins, flats.base, flats.basis)):\n"
            "        out[f'{name}{linear}'] = a\n"
            "np.savez(sys.argv[1], **out)\n"
        )
        got = []
        for threads in ("1", "2"):
            out = tmp_path / f"flats{threads}.npz"
            env = dict(subprocess_env(), OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-c", code, str(out)], capture_output=True, text=True, env=env
            )
            assert proc.returncode == 0, proc.stderr
            got.append(np.load(out))
        one, two = got
        assert landmarks._chunk_rows(80) == 64
        for key in one.files:
            assert np.array_equal(one[key], two[key]), key


def oracle_gather(pts, centers, size):
    """The ``size`` nearest points of each center, sorted by (|x - c|^2,
    index); exact on integer coordinates, where no sum rounds."""
    index = np.arange(pts.shape[0])
    return np.stack(
        [pts[np.lexsort((index, ((pts - c) ** 2).sum(axis=1)))[:size]] for c in centers]
    )


def gather(pts, centers, size):
    """``landmarks._gather`` of every center in one block."""
    pts_t, x_sq = landmarks._scan_layout(pts)
    out = np.empty((len(centers), size), dtype=np.intp)
    landmarks._gather(pts, pts_t, x_sq, centers, np.empty((ROW_ALIGN, pts_t.shape[1])), out)
    return pts[out]


class TestGather:
    """The blocked gather returns the exact neighborhoods: the nearest
    points sorted by (distance, index), wherever its sampled cut lands."""

    def test_exact_ties_go_to_the_lower_index(self):
        # 3 001 points on the integer grid {-3..3}^3: many distinct points
        # share each distance, and duplicates share positions
        gen = np.random.default_rng(5)
        pts = gen.integers(-3, 4, size=(3001, 3)).astype(float)
        centers = np.vstack([pts[:9], gen.integers(-4, 5, size=(4, 3))]).astype(float)
        for size in (20, 100, 700):
            assert np.array_equal(gather(pts, centers, size), oracle_gather(pts, centers, size))

    @pytest.mark.parametrize("near_sampled", [True, False])
    def test_exact_where_the_sample_misleads(self, near_sampled):
        # 4 096 integer points around the origin: 512 near it, the rest
        # 10 or more away.  The near points sit either exactly on the
        # strided sample, so the cut keeps fewer than ``size`` points and
        # every point becomes a candidate, or exactly off it, so the
        # sample misses the center's cluster
        size, n = 256, 4096
        stride = size // (landmarks._SAMPLE_RANK // 2)
        gen = np.random.default_rng(6)
        pts = gen.integers(10, 21, size=(n, 3)) * gen.choice([-1, 1], size=(n, 3))
        sampled = np.arange(n) % stride == 0
        near = sampled if near_sampled else ~sampled
        pts[np.flatnonzero(near)[:512]] = gen.integers(-1, 2, size=(512, 3))
        pts = pts.astype(float)
        center = np.zeros((1, 3))
        row = (pts**2).sum(axis=1)
        rank = landmarks._SAMPLE_RANK - 1
        kept = np.count_nonzero(row <= np.partition(row[::stride], rank)[rank])
        assert (kept < size) == near_sampled
        assert np.array_equal(gather(pts, center, size), oracle_gather(pts, center, size))

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
        flats = [flat] * 30  # 15000 pairs > _SIGMA_PAIRS
        assert default_sigma(pts, flats, seed=3) == pytest.approx(7.0)

    def test_deterministic(self, rng):
        pts = rng.standard_normal((300, 3))
        flats = [
            AffineFlat(base=rng.standard_normal(3), basis=haar_frames(rng, (3, 1)))
            for _ in range(50)
        ]
        assert default_sigma(pts, flats, seed=5) == default_sigma(pts, flats, seed=5)

    def test_no_flats_rejected(self):
        # an empty flat list has no median distance to return
        with pytest.raises(InvalidParam, match="at least one flat"):
            default_sigma(np.zeros((4, 2)), [])

    def test_no_points_rejected(self, rng):
        # nor has an empty point set: no NaN from an empty median
        with pytest.raises(DegenerateInput, match="at least one point"):
            default_sigma(np.zeros((0, 4)), random_flats(rng, 3, 4, 2, False))

    @pytest.mark.parametrize("n", [20, 100])
    def test_dimension_mismatch_rejected(self, rng, n):
        # both the exact (20 x 400 pairs) and the sampled path check R^d
        flats = random_flats(rng, 400, 10, 2, False)
        with pytest.raises(DimensionMismatch):
            default_sigma(rng.standard_normal((n, 9)), flats)

    def test_sampled_path_runs_no_projected_fill(self, rng, monkeypatch):
        # neither branch fills features: both run the gathered pair pass
        calls = []

        def counted(fill):
            def run(*args):
                calls.append(fill.__name__)
                return fill(*args)

            return run

        for name in ("_projected_fill", "_lifted_fill"):
            monkeypatch.setattr(kernels, name, counted(getattr(kernels, name)))
        pts = rng.standard_normal((100, 10))
        flats = random_flats(rng, 400, 10, 2, False)
        default_sigma(pts, flats)
        default_sigma(pts[:25], flats)  # 10 000 pairs: the exact path
        assert calls == []
        feature_matrix(SubspaceKernel(1.0, flats), pts[:1])  # the counters count
        assert calls == ["_lifted_fill"]

    @pytest.mark.parametrize(
        "n, count, d, l, affine",
        [(2000, 400, 10, 2, False), (3000, 50, 6, 2, True), (1625, 100, 80, 7, False)],
        # R^80: d l = 560, so the 10 000 pairs take 43 steps of 234
        ids=["linear-R10", "affine-R6", "linear-R80"],
    )
    def test_sampled_matches_per_flat_fills(self, rng, n, count, d, l, affine):
        pts = rng.standard_normal((n, d))
        flats = random_flats(rng, count, d, l, affine)
        for seed in (0, 7):
            want = per_flat_sigma(pts, flats, seed)
            assert default_sigma(pts, flats, seed=seed) == pytest.approx(want, rel=1e-15, abs=0)


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

    @pytest.mark.parametrize(
        "name, value",
        [
            ("n_landmarks", 5.5),
            ("n_landmarks", True),
            ("flat_dim", 2.0),
            ("init_neighbors", 7.5),
            ("max_scales", 2.5),
            ("max_scales", "3"),
        ],
    )
    def test_counts_must_be_integers(self, name, value):
        kwargs = {"n_landmarks": 5, "flat_dim": 2, "sigma": 0.5, name: value}
        with pytest.raises(InvalidParam, match=f"{name} must be an integer"):
            LandmarkConfig(**kwargs)

    def test_numpy_integer_counts_become_ints(self):
        cfg = LandmarkConfig(
            n_landmarks=np.int64(5), flat_dim=np.int32(2), init_neighbors=np.uint8(4)
        )
        counts = (cfg.n_landmarks, cfg.flat_dim, cfg.init_neighbors)
        assert counts == (5, 2, 4) and all(type(c) is int for c in counts)
        assert cfg.max_scales is None


class TestBuildSubspaceSpec:
    def test_orthogonal_planes_recovered(self, rng):
        # patches far apart so every k-NN neighborhood stays on one plane
        a = np.eye(4)[:, :2]
        b = np.eye(4)[:, 2:]
        offset = np.array([5.0, 0.0, 0.0, 0.0])
        pts = np.vstack(
            [plane_points(rng, a, 150), plane_points(rng, b, 150, center=offset)]
        )
        cfg = LandmarkConfig(n_landmarks=12, flat_dim=2, **RANDOM_AFFINE)
        spec = subspace_spec(pts, cfg, seed=0)
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
        cfg = LandmarkConfig(n_landmarks=6, flat_dim=2, **RANDOM_AFFINE)
        assert subspace_spec(pts, cfg, seed=1).sigma == 1e-6

    def test_explicit_sigma_passes_through(self, rng):
        pts = rng.standard_normal((50, 3))
        cfg = LandmarkConfig(n_landmarks=4, flat_dim=1, method="random", sigma=0.37, linear=False)
        assert subspace_spec(pts, cfg, seed=0).sigma == 0.37

    def test_deterministic(self, rng):
        pts = rng.standard_normal((60, 3))
        cfg = LandmarkConfig(n_landmarks=5, flat_dim=2, method="kmeans", sigma=None, linear=False)
        s1 = subspace_spec(pts, cfg, seed=9)
        s2 = subspace_spec(pts, cfg, seed=9)
        assert s1.sigma == s2.sigma
        for f1, f2 in zip(s1.flats, s2.flats):
            assert np.array_equal(f1.base, f2.base)
            assert np.array_equal(f1.basis, f2.basis)

    @pytest.mark.parametrize("sigma", [None, 0.4])
    def test_per_landmark_calls_match_subspace_spec(self, rng, sigma):
        # the call shapes bench/replay.py makes: one best_fit_flat per
        # landmark, default_sigma on the list of flats (here on its sampled
        # path, n * D > 10 000) and SubspaceKernel on a tuple of them
        pts = sphere_normalize(two_planes(rng, 0.03, 6, 2))
        pts = np.vstack([pts, -pts])
        cfg = LandmarkConfig(n_landmarks=40, flat_dim=2, method="random", sigma=sigma, linear=True)
        select_seed, sigma_seed = split(8, 2)
        centers = select_landmarks(pts, cfg.n_landmarks, cfg.method, select_seed)
        init_neighbors, max_scales = cfg.resolve_scales(len(pts))
        flats = [
            best_fit_flat(pts, c, cfg.flat_dim, max_scales, init_neighbors, linear=cfg.linear)
            for c in centers
        ]
        got_sigma = sigma if sigma is not None else default_sigma(pts, flats, seed=sigma_seed)
        got = SubspaceKernel(sigma=got_sigma, flats=tuple(flats))
        want = subspace_spec(pts, cfg, seed=8)
        assert len(pts) * len(flats) > 10_000
        assert np.array_equal(got.flats.base, want.flats.base)
        assert np.array_equal(got.flats.basis, want.flats.basis)
        assert got.sigma == want.sigma

    def test_single_landmark(self, rng):
        pts = rng.standard_normal((20, 3))
        cfg = LandmarkConfig(n_landmarks=1, flat_dim=1, **RANDOM_AFFINE)
        spec = subspace_spec(pts, cfg, seed=0)
        assert spec.n_features == 1


class TestLandmarkFlatPool:
    def test_pool_size_and_fit(self, rng):
        basis = haar_frames(rng, (4, 2))
        pts = plane_points(rng, basis, 25)
        pool = landmark_flat_pool(pts, 2)
        assert len(pool) == 25
        for p, f in zip(pts, pool):
            assert flat_distance(p, f) < 1e-7
