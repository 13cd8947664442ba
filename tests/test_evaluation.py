"""Scoring, verification measurements, and the benchmark harness."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment

from fls import evaluation
from fls.datagen import SyntheticModel, gen_synthetic
from fls.errors import DeltaTooLarge, DimensionMismatch, EigengapTooSmall, InvalidParam
from fls.evaluation import (
    BenchmarkRow,
    PoolFamily,
    RffFamily,
    TrialFailure,
    benchmark_suite,
    clustering_rate,
    format_benchmark_table,
    hoeffding_check,
    model_label,
    synthetic_suite,
    verify_eigvec_convergence,
    verify_kernel_convergence,
    verify_perturbation,
    verify_rotation_invariance,
)
from fls.kernels import (
    AffineFlat,
    GaussianRFF,
    LandmarkGaussian,
    SubspaceKernel,
    feature_matrix,
    gaussian_kernel_matrix,
    sample_gaussian_rff,
)
from fls.landmarks import landmark_flat_pool
from fls.linalg import haar_frames
from fls.rng import make_rng, split

from oracles import flat_distance


def two_far_clusters(rng, n_per=25, d=3, spread=0.3):
    a = rng.standard_normal((n_per, d)) * spread
    b = rng.standard_normal((n_per, d)) * spread + 4.0
    return np.vstack([a, b])


class TestClusteringRate:
    def test_perfect(self):
        truth = np.array([0, 0, 1, 1, 2, 2])
        report = clustering_rate(truth.copy(), truth)
        assert report.rate == 1.0
        assert report.n_inliers == 6

    def test_relabeling_invariance(self, rng):
        truth = rng.integers(0, 3, size=40)
        pred = truth.copy()
        for perm in itertools.permutations(range(3)):
            relabeled = np.array([perm[v] for v in pred])
            assert clustering_rate(relabeled, truth).rate == 1.0

    def test_three_class_brute_force(self, rng):
        # rate must equal the best over all label permutations: three random
        # classes, and four classes whose confusion matrix (two 2 x 2 blocks
        # of equal counts) has four tied maxima
        tied_pred = np.array([0, 0, 1, 1, 1, 1, 0, 0, 2, 2, 3, 3, 3, 2, 2, 3])
        cases = [
            (rng.integers(0, 3, size=60), rng.integers(0, 3, size=60)),
            (np.repeat(np.arange(4), 4), tied_pred),
        ]
        for truth, pred in cases:
            k = len(np.unique(truth))
            report = clustering_rate(pred, truth)
            best = max(
                np.mean([perm[p] == t for p, t in zip(pred, truth)])
                for perm in itertools.permutations(range(k))
            )
            assert report.rate == pytest.approx(best)

    def test_outliers_excluded(self):
        truth = np.array([0, 0, 1, 1, -1, -1])
        pred = np.array([1, 1, 0, 0, 0, 1])  # outlier predictions ignored
        report = clustering_rate(pred, truth)
        assert report.rate == 1.0
        assert report.n_inliers == 4

    def test_explicit_mask(self):
        truth = np.array([0, 0, 1, 1])
        pred = np.array([0, 1, 1, 1])
        mask = np.array([False, True, False, False])
        assert clustering_rate(pred, truth, mask).rate == 1.0

    def test_unequal_class_counts_padded(self):
        # more predicted classes than true ones: surplus matches nothing
        truth = np.array([0, 0, 0, 1, 1, 1])
        pred = np.array([0, 0, 2, 1, 1, 3])
        assert clustering_rate(pred, truth).rate == pytest.approx(4 / 6)

    @pytest.mark.parametrize("n_true, n_pred", [(3, 3), (3, 5), (5, 2)])
    def test_confusion_matches_point_loop(self, rng, n_true, n_pred):
        # the confusion matrix as a loop over points, with classes indexed
        # in sorted order: the bincount must give the same report
        truth = rng.integers(0, n_true, size=500) * 3 + 7
        truth[rng.random(500) < 0.1] = -1
        pred = rng.integers(-2, n_pred - 2, size=500) * 5
        keep = truth != -1
        t_classes, p_classes = np.unique(truth[keep]), np.unique(pred[keep])
        k = max(len(t_classes), len(p_classes))
        t_index = {c: i for i, c in enumerate(t_classes)}
        p_index = {c: i for i, c in enumerate(p_classes)}
        confusion = np.zeros((k, k))
        for ti, pi in zip(truth[keep], pred[keep]):
            confusion[t_index[ti], p_index[pi]] += 1
        report = clustering_rate(pred, truth)
        assert report.confusion.dtype == confusion.dtype
        assert np.array_equal(report.confusion, confusion)
        perm = report.permutation
        assert np.array_equal(np.sort(perm), np.arange(k))
        assert report.rate == confusion[np.arange(k), perm].sum() / keep.sum()
        assert report.n_inliers == keep.sum()

    def test_one_class(self):
        report = clustering_rate([4, 4, 4], [1, 1, 1])
        assert report.rate == 1.0
        assert np.array_equal(report.permutation, [0])
        assert np.array_equal(report.confusion, [[3.0]])

    def test_padded_confusion_against_scipy(self):
        # two true classes against four predicted ones: the 4 x 4 matrix
        # has two zero rows, so every matching of the surplus classes ties
        truth = np.array([0, 0, 0, 0, 1, 1, 1, 1, 1])
        pred = np.array([3, 3, 2, 2, 1, 1, 1, 0, 3])
        report = clustering_rate(pred, truth)
        rows, cols = linear_sum_assignment(report.confusion, maximize=True)
        assert report.confusion.shape == (4, 4)
        assert np.array_equal(np.sort(report.permutation), np.arange(4))
        assert report.confusion[rows, cols].sum() == 5.0
        assert report.rate == 5 / 9

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 9).flatmap(
            lambda k: arrays(np.int64, (k, k), elements=st.integers(0, 3))
        )
    )
    def test_assignment_matches_scipy(self, weights):
        # entries in 0..3, so most matrices have many tied maxima
        perm = evaluation._max_assignment(weights.astype(float))
        k = len(weights)
        assert np.array_equal(np.sort(perm), np.arange(k))
        rows, cols = linear_sum_assignment(weights, maximize=True)
        assert weights[np.arange(k), perm].sum() == weights[rows, cols].sum()

    def test_all_outliers(self):
        with pytest.raises(InvalidParam):
            clustering_rate(np.array([0, 1]), np.array([-1, -1]))

    def test_shape_mismatch(self):
        with pytest.raises(InvalidParam):
            clustering_rate(np.array([0, 1]), np.array([0, 1, 2]))


class TestFamilies:
    def test_rff_exact_matrix(self, rng):
        pts = rng.standard_normal((6, 3))
        fam = RffFamily(sigma=1.4, dim=3)
        assert np.allclose(fam.exact_matrix(pts), gaussian_kernel_matrix(pts, 1.4))

    def test_flat_pool_exact_matrix_by_enumeration(self, rng):
        pts = two_far_clusters(rng, n_per=4)
        pool = landmark_flat_pool(pts, 1)
        fam = PoolFamily(SubspaceKernel, pool, 1.0)
        got = fam.exact_matrix(pts)
        n = pts.shape[0]
        expected = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                vals = [
                    math.exp(-flat_distance(pts[i], f) ** 2)
                    * math.exp(-flat_distance(pts[j], f) ** 2)
                    for f in pool
                ]
                expected[i, j] = sum(vals) / len(pool)
        assert np.allclose(got, expected, atol=1e-12)

    def test_flat_pool_sampling_with_replacement(self, rng):
        pts = two_far_clusters(rng, n_per=4)
        fam = PoolFamily(SubspaceKernel, landmark_flat_pool(pts, 1), 1.0)
        spec = fam.sample(50, seed=0)  # 50 > pool size of 8
        assert isinstance(spec, SubspaceKernel) and spec.sigma == 1.0
        assert spec.n_features == 50
        # the same draw indexes the pool stack
        idx = make_rng(0).integers(len(fam.pool), size=50)
        assert np.array_equal(spec.flats.base, fam.pool[idx].base)
        assert np.array_equal(spec.flats.basis, fam.pool[idx].basis)

    def test_landmark_family_exact_matrix(self, rng):
        data = rng.standard_normal((6, 2))
        fam = PoolFamily(LandmarkGaussian, data, 0.8)
        full = LandmarkGaussian(sigma=0.8, centers=data)
        from fls.kernels import feature_matrix

        f = feature_matrix(full, data)
        assert np.allclose(fam.exact_matrix(data), f.T @ f / 6)

    def test_landmark_pool_sampling_with_replacement(self, rng):
        data = rng.standard_normal((6, 2))
        spec = PoolFamily(LandmarkGaussian, data, 0.8).sample(20, seed=4)  # 20 > 6 points
        assert isinstance(spec, LandmarkGaussian) and spec.sigma == 0.8
        # the same draw indexes the point rows
        idx = make_rng(4).integers(6, size=20)
        assert np.array_equal(spec.centers, data[idx])

    def test_pool_kind_is_a_pool_spec(self, rng):
        with pytest.raises(InvalidParam, match="pool kind"):
            PoolFamily(GaussianRFF, rng.standard_normal((6, 2)), 0.8)


class TestKernelConvergence:
    def test_rff_error_decays(self, rng):
        pts = rng.uniform(-1, 1, size=(30, 3))
        fam = RffFamily(sigma=1.0, dim=3)
        records = verify_kernel_convergence(fam, pts, counts=[100, 1600], reps=5, seed=0)
        assert [r.count for r in records] == [100, 1600]
        assert records[1].median_max_error < records[0].median_max_error
        for r in records:
            assert len(r.rep_max_errors) == 5
            assert all(m >= mu for m, mu in zip(r.rep_max_errors, r.rep_mean_errors))

    def test_zero_reps_rejected(self, rng):
        fam = RffFamily(sigma=1.0, dim=3)
        with pytest.raises(InvalidParam, match="reps"):
            verify_kernel_convergence(fam, rng.uniform(size=(5, 3)), [50], reps=0)


class TestHoeffding:
    def test_bound_formula_and_shapes(self):
        fam = RffFamily(sigma=1.0, dim=3)
        x = np.zeros(3)
        y = np.array([1.0, 0.0, 0.0])
        records = hoeffding_check(
            fam, x, y, counts=[50, 200], eps_values=[0.1, 0.2], reps=100, seed=0
        )
        assert len(records) == 4
        for r in records:
            assert r.bound == pytest.approx(2.0 * math.exp(-r.count * r.eps**2 / 4.0))
            assert 0.0 <= r.empirical <= 1.0
            assert r.stderr == pytest.approx(
                math.sqrt(r.empirical * (1 - r.empirical) / 100)
            )
            assert r.passed == (r.empirical <= r.bound + 3 * r.stderr)

    def test_zero_reps_rejected(self):
        fam = RffFamily(sigma=1.0, dim=3)
        with pytest.raises(InvalidParam, match="reps"):
            hoeffding_check(fam, np.zeros(3), np.ones(3), [50], [0.1], reps=0)

    def test_points_of_different_lengths_rejected(self):
        # two rows each would be read as four points and scored on x's own pair
        fam = RffFamily(sigma=1.0, dim=3)
        for x, y in ((np.zeros(3), np.ones(4)), (np.zeros((2, 3)), np.ones((2, 3)))):
            with pytest.raises(DimensionMismatch):
                hoeffding_check(fam, x, y, [50], [0.1], reps=2)


class TestPerturbation:
    def test_spec_against_itself_is_exact(self, rng):
        pts = two_far_clusters(rng, n_per=10)
        spec = PoolFamily(SubspaceKernel, landmark_flat_pool(pts, 1), 1.5).sample(
            60, seed=0
        )
        rec = verify_perturbation(pts, spec, spec)
        assert rec.delta == 0.0
        assert rec.total_norm == 0.0
        assert rec.left_degree_norm == 0.0
        assert rec.bounds_hold

    def test_norms_and_triangle_identity(self, rng):
        # the three terms sum to L - L-hat, so their norms dominate it
        pts = two_far_clusters(rng, n_per=12)
        fam = PoolFamily(SubspaceKernel, landmark_flat_pool(pts, 1), 1.5)
        rec = verify_perturbation(pts, fam.sample(200, seed=1), fam.sample(4000, seed=2))
        assert rec.delta < 1.0
        assert rec.bounds_hold
        term_sum = rec.left_degree_norm + rec.kernel_diff_norm + rec.right_degree_norm
        assert rec.total_norm <= term_sum + 1e-10
        assert rec.min_entry > 0.0
        assert rec.max_entry >= rec.min_entry

    def test_delta_too_large(self, rng):
        # wildly different bandwidths push the error past the min entry
        pts = two_far_clusters(rng, n_per=8)
        pool = landmark_flat_pool(pts, 1)
        narrow = SubspaceKernel(sigma=0.05, flats=pool)
        wide = SubspaceKernel(sigma=5.0, flats=pool)
        with pytest.raises(DeltaTooLarge):
            verify_perturbation(pts, wide, narrow)

    def test_nonpositive_reference_rejected(self, rng):
        # cosine features give signed kernel entries
        pts = make_rng(0).standard_normal((20, 3)) * 3
        spec = sample_gaussian_rff(1.0, 30, 3, seed=5)
        with pytest.raises(InvalidParam):
            verify_perturbation(pts, spec, spec)


class TestEigvecConvergence:
    def test_error_decays_and_gap_reported(self):
        # needs genuine 1-dim structure: isotropic blobs collapse the
        # flat pool onto one global line and the kernel goes rank one
        model = SyntheticModel(dims=[1, 1], ambient=3, pts_per_subspace=20, noise_sigma=0.05)
        pts = gen_synthetic(model, 3).points
        fam = PoolFamily(SubspaceKernel, landmark_flat_pool(pts, 1), 0.5)
        records = verify_eigvec_convergence(
            pts, fam, counts=[40, 2000], ref_count=20000, seed=0
        )
        assert records[1].eigvec_l2_error < records[0].eigvec_l2_error
        assert all(r.eigengap > 0 for r in records)

    def test_single_flat_pool_has_no_gap(self, rng):
        # rank-one kernel: spectrum {1, 0, ...}, lambda_2 sits at 0
        pts = rng.standard_normal((12, 3))
        pool = landmark_flat_pool(pts, 1)[:1]
        fam = PoolFamily(SubspaceKernel, pool, 2.0)
        with pytest.raises(EigengapTooSmall):
            verify_eigvec_convergence(pts, fam, counts=[20], ref_count=100, seed=0)


class TestRotationInvariance:
    def test_same_point_trivial(self):
        records, fraction = verify_rotation_invariance(
            3, 1, n_pairs=5, count=500, seed=0, pair_distance=0.0
        )
        assert len(records) == 5
        assert fraction >= 0.8

    def test_smoke_fraction(self):
        records, fraction = verify_rotation_invariance(
            3, 1, n_pairs=10, count=2000, seed=1, pair_distance=1.0
        )
        assert fraction >= 0.8
        for r in records:
            assert 0.0 < r.estimate <= 1.0
            assert r.stderr > 0.0

    @pytest.mark.parametrize("kwargs", [{"n_pairs": 0}, {"count": 1}], ids=["pairs-0", "count-1"])
    def test_unusable_counts_rejected(self, kwargs):
        # no pairs gives no fraction; one flat gives no standard error
        with pytest.raises(InvalidParam):
            verify_rotation_invariance(3, 1, **{"n_pairs": 2, "count": 10, **kwargs})

    def test_bad_distance(self):
        with pytest.raises(InvalidParam):
            verify_rotation_invariance(3, 1, pair_distance=2.5)

    def test_estimate_matches_scalar_distances(self):
        # at distance 0 the pair is one point x, so the estimate is the mean
        # of exp(-2 dist(x, L)^2 / sigma^2) over the pair's Haar flats L
        (record,), _ = verify_rotation_invariance(
            4, 2, n_pairs=1, count=300, seed=5, sigma=0.9, pair_distance=0.0
        )
        geom_seed, flats_seed, _ = split(split(5, 1)[0], 3)
        x = make_rng(geom_seed).standard_normal(4)
        x /= np.linalg.norm(x)
        prods = [
            math.exp(-2.0 * flat_distance(x, AffineFlat(np.zeros(4), basis)) ** 2 / 0.81)
            for basis in haar_frames(make_rng(flats_seed), (300, 4, 2))
        ]
        assert abs(record.estimate - np.mean(prods)) <= 1e-12
        assert abs(record.stderr - np.std(prods, ddof=1) / math.sqrt(300)) <= 1e-12


class TestBenchmarkHarness:
    def test_synthetic_suite_models(self):
        models = synthetic_suite(0.05)
        assert [m.dims for m in models] == [
            (2, 2),
            (4, 5, 6),
            (5, 6, 7),
            (3, 4, 5, 6, 7),
        ]
        assert [m.ambient for m in models] == [6, 10, 20, 80]
        assert all(m.outlier_ratio == 0.05 for m in models)

    def test_model_label(self):
        model = SyntheticModel(dims=(2, 3), ambient=9)
        assert model_label(model) == "(2,3) in R^9"

    def test_zero_trials_empty(self):
        assert benchmark_suite(synthetic_suite(0.05), n_trials=0) == []

    def test_tiny_model_runs_and_reproduces(self):
        model = SyntheticModel(dims=(1, 1), ambient=4, pts_per_subspace=40)
        kw = dict(n_trials=2, seed=3, n_landmarks=12, sigma=0.3, linear=True)
        rows_a = benchmark_suite([model], **kw)
        rows_b = benchmark_suite([model], **kw)
        assert len(rows_a) == 1
        row = rows_a[0]
        assert len(row.rates) == 2
        assert row.mean_rate == pytest.approx(np.mean(row.rates))
        assert rows_b[0].rates == row.rates
        assert all(0.0 <= r <= 1.0 for r in row.rates)
        assert all(t > 0.0 for t in row.times)

    @pytest.mark.parametrize(
        "late, flat_dim",
        [(SyntheticModel(dims=(2,), ambient=4), None), (SyntheticModel(dims=(1, 1), ambient=3), 3)],
        ids=["one-cluster", "flat-dim"],
    )
    def test_refused_model_runs_no_trial(self, monkeypatch, late, flat_dim):
        # the second model has one cluster (drop_first) or flat_dim = d:
        # the suite is refused, naming it, before the first model's trials
        calls = []
        monkeypatch.setattr(evaluation, "fls_cluster", lambda *a, **k: calls.append(a))
        model = SyntheticModel(dims=(1, 1), ambient=4, pts_per_subspace=40)
        with pytest.raises(InvalidParam, match=re.escape(model_label(late))):
            benchmark_suite([model, late], n_trials=2, n_landmarks=8, flat_dim=flat_dim)
        assert calls == []

    def test_row_json(self):
        model = SyntheticModel(dims=(1, 1), ambient=4, pts_per_subspace=40)
        rows = benchmark_suite([model], n_trials=1, seed=0, n_landmarks=8, sigma=0.3)
        doc = rows[0].to_json()
        import json

        json.dumps(doc)
        assert doc["model"] == "(1,1) in R^4"
        assert len(doc["rates"]) == 1

    def test_format_table(self):
        model = SyntheticModel(dims=(1, 1), ambient=4, pts_per_subspace=40)
        rows = benchmark_suite([model], n_trials=1, seed=0, n_landmarks=8, sigma=0.3)
        text = format_benchmark_table(rows)
        lines = text.splitlines()
        assert lines[0].startswith("model")
        assert "(1,1) in R^4" in lines[2]
        assert len(lines) == 3

    def test_format_table_lists_failures(self):
        rows = [
            BenchmarkRow("(1,1) in R^4", 0.9, 0.5, (0.9,), (0.5,), ()),
            BenchmarkRow(
                "(2,2) in R^6",
                0.8,
                0.4,
                (0.8,),
                (0.4,),
                (TrialFailure(1, "svd", "minimum degree 1e-22"),),
            ),
        ]
        lines = format_benchmark_table(rows).splitlines()
        assert lines[0].split()[-1] == "failed"
        assert lines[2].split()[-1] == "0"
        assert lines[3].split()[-1] == "1"
        assert lines[4] == "failed: (2,2) in R^6 trial 1, stage 'svd': minimum degree 1e-22"
