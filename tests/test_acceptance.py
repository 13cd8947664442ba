"""End-to-end acceptance checks, one test per contract item.

`pytest -v` emits one PASSED/FAILED line per check.  Thresholds are
fixed here and mirror the library's documented guarantees:

1.  low-outlier benchmark: mean rate per model >= 0.94/0.93/0.95/0.95
2.  high-outlier benchmark: mean rate per model >= 0.93/0.92/0.94/0.93
3.  cosine-feature kernel max error shrinks by >= 25% per 4x features
4.  pointwise tail probability within the exponential bound + 3 SE
5.  normalized-matrix perturbation: delta < 0.5, all norm bounds hold
6.  second-eigenvector error decays in feature count, stable in n
7.  uniform-subspace kernel estimates are rotation invariant
8.  factored and dense spectral paths agree on the same kernel
9.  embed + Gram SVD time scales linearly in n

Each check seeds its own generators; reruns are deterministic up to
wall-clock measurements (checks 1, 2, 3, 9 assert on elapsed time).
"""

import time

import numpy as np

from fls.cluster import fls_cluster, spectral_embed
from fls.datagen import SyntheticModel, gen_synthetic
from fls.evaluation import (
    PoolFamily,
    RffFamily,
    benchmark_suite,
    clustering_rate,
    hoeffding_check,
    synthetic_suite,
    verify_eigvec_convergence,
    verify_kernel_convergence,
    verify_perturbation,
    verify_rotation_invariance,
)
from fls.kernels import SubspaceKernel, approx_kernel_matrix, embed
from fls.landmarks import LandmarkConfig, landmark_flat_pool
from fls.linalg import kmeans
from fls.rng import make_rng, split

from oracles import RANDOM_AFFINE, RAW_POINTS, dense_spectral_cluster, subspace_spec

# reference configuration for the synthetic benchmark (checks 1 and 2);
# identical to the CLI `bench` defaults
BENCH_KWARGS = dict(
    n_landmarks=100,
    method="kmeans",
    sigma=0.3,
    drop_first=True,
    normalize_sphere=True,
    linear=True,
    kmeans_restarts=3,
)

# (2,2) R^6, (4,5,6) R^10, (5,6,7) R^20, (3,4,5,6,7) R^80
LOW_OUTLIER_FLOORS = (0.94, 0.93, 0.95, 0.95)
HIGH_OUTLIER_FLOORS = (0.93, 0.92, 0.94, 0.93)


def run_benchmark(outlier_ratio):
    assert 60 <= BENCH_KWARGS["n_landmarks"] <= 150
    models = synthetic_suite(outlier_ratio)
    return benchmark_suite(models, n_trials=10, seed=0, **BENCH_KWARGS)


def two_cluster_points(pts_per, seed):
    model = SyntheticModel(dims=(2, 2), ambient=6, pts_per_subspace=pts_per, noise_sigma=0.05)
    return gen_synthetic(model, seed).points


def test_benchmark_low_outlier_rates():
    rows = run_benchmark(0.05)
    for row, floor in zip(rows, LOW_OUTLIER_FLOORS):
        assert not row.failures, f"{row.label}: {row.failures}"
        assert row.mean_rate >= floor, f"{row.label}: {row.mean_rate:.3f} < {floor}"
        assert sum(row.times) < 60.0, f"{row.label}: {sum(row.times):.1f}s"


def test_benchmark_high_outlier_rates():
    rows = run_benchmark(0.30)
    for row, floor in zip(rows, HIGH_OUTLIER_FLOORS):
        assert not row.failures, f"{row.label}: {row.failures}"
        assert row.mean_rate >= floor, f"{row.label}: {row.mean_rate:.3f} < {floor}"
        assert sum(row.times) < 60.0, f"{row.label}: {sum(row.times):.1f}s"


def test_rff_max_error_decay():
    t0 = time.monotonic()
    fam = RffFamily(sigma=1.0, dim=5)
    grid = make_rng(77).uniform(-1.0, 1.0, size=(100, 5))  # 1e4 ordered pairs
    records = verify_kernel_convergence(fam, grid, [250, 1000, 4000], reps=10, seed=3)
    med = {r.count: r.median_max_error for r in records}
    assert med[1000] <= 0.75 * med[250], f"{med[1000]:.4f} vs {0.75 * med[250]:.4f}"
    assert med[4000] <= 0.75 * med[1000], f"{med[4000]:.4f} vs {0.75 * med[1000]:.4f}"
    assert time.monotonic() - t0 < 30.0


def test_pointwise_tail_bound():
    fam = RffFamily(sigma=1.0, dim=5)
    x = np.zeros(5)
    y = np.zeros(5)
    y[0] = 1.0
    tail = hoeffding_check(fam, x, y, [50, 200], [0.1, 0.2], reps=200, seed=4)
    assert len(tail) == 4
    for t in tail:
        assert t.passed, f"D={t.count} eps={t.eps}: {t.empirical:.3f} > {t.bound:.3f}+3SE"


def test_normalized_matrix_perturbation_bounds():
    for child in split(2025, 10):
        data_seed, ref_seed, test_seed = split(child, 3)
        pts = two_cluster_points(150, data_seed)
        fam = PoolFamily(SubspaceKernel, landmark_flat_pool(pts, 2), 1.5)
        rec = verify_perturbation(
            pts, fam.sample(400, test_seed), fam.sample(50_000, ref_seed)
        )
        assert rec.delta < 0.5, f"delta {rec.delta:.3f}"
        assert rec.bounds_hold


def test_second_eigvec_convergence():
    def medians(pts_per, counts):
        errs = {c: [] for c in counts}
        for child in split(2025, 10):
            data_seed, verify_seed = split(child, 2)
            pts = two_cluster_points(pts_per, data_seed)
            fam = PoolFamily(SubspaceKernel, landmark_flat_pool(pts, 2), 0.7)
            recs = verify_eigvec_convergence(
                pts, fam, counts, ref_count=50_000, seed=verify_seed
            )
            for r in recs:
                errs[r.count].append(r.eigvec_l2_error)
        return {c: float(np.median(v)) for c, v in errs.items()}

    med = medians(150, [100, 400, 1600])  # n=300
    assert med[100] > med[400] > med[1600], f"not monotone: {med}"
    small = medians(100, [400])[400]  # n=200
    large = medians(200, [400])[400]  # n=400
    rel = abs(large - small) / small
    assert rel < 0.5, f"relative change {rel:.3f} between n=200 and n=400"


def test_rotation_invariant_kernel_estimates():
    records, fraction = verify_rotation_invariance(
        dim=3, flat_dim=1, n_pairs=100, count=100_000, seed=2025,
        sigma=1.0, pair_distance=1.0,
    )
    assert len(records) == 100
    assert fraction >= 0.95, f"fraction within 3 SE: {fraction:.3f}"


def test_embedding_path_matches_dense_path():
    for child in split(88, 10):
        data_seed, spec_seed, km_seed = split(child, 3)
        pts = two_cluster_points(150, data_seed)  # n=300
        spec = subspace_spec(
            pts, LandmarkConfig(n_landmarks=50, flat_dim=2, **RANDOM_AFFINE), seed=spec_seed
        )
        rows, svals = spectral_embed(embed(spec, pts), 2)
        labels = kmeans(rows, 2, seed=km_seed, restarts=3)[0]
        dense = dense_spectral_cluster(
            approx_kernel_matrix(spec, pts), 2, seed=km_seed, kmeans_restarts=3
        )
        rate = clustering_rate(labels, dense.labels).rate
        assert rate >= 0.99, f"label agreement {rate:.3f}"
        diff = float(np.abs(svals - dense.singular_values).max())
        assert diff <= 1e-6, f"spectrum diff {diff:.2e}"


def test_embed_svd_linear_scaling():
    def stage_time(n, seed):
        model = SyntheticModel(
            dims=(2,) * 5, ambient=10, pts_per_subspace=n // 5, noise_sigma=0.05
        )
        data = gen_synthetic(model, seed)
        config = LandmarkConfig(
            n_landmarks=200, flat_dim=2, method="random", sigma=0.5, linear=False
        )
        res = fls_cluster(data, 5, config, seed=seed, **RAW_POINTS)
        return res.timings["embed"] + res.timings["svd"]

    small = [stage_time(20_000, rep) for rep in range(5)]
    large = [stage_time(40_000, rep) for rep in range(5)]
    ratio = float(np.median(large) / np.median(small))
    assert 1.5 <= ratio <= 3.0, f"2x-n time ratio {ratio:.2f}"
