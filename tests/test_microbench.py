"""Micro-benchmarks of k-means and k-means landmark selection at a small
landmark-selection shape, of the final k-means on its row sample at the
large-n shape, of k-means landmark selection on its row sample at the
kmeans-landmarks shape, of the local flat fits at the R^80 benchmark
shape and at the five-plane shape, of the sampled sigma median at the
kmeans-landmarks shape, of the embed + spectral_embed stages at the
five-plane shape (lifted fill) and of embed at the R^80 shape (projected
fill).

In the tier-1 run each is a quick check: a few timed rounds, then the
result must equal its reference (the unblocked k-means, on the same row
sample where the library samples, the capped unblocked Lloyd run, the
unpruned flat ladder and the projected embedding bit for bit; the
sampled sigma within 1e-15 of one projected fill per flat; the lifted
embedding within its roundoff bound of a longdouble reference, the
unblocked Gram SVD to roundoff).  For timings only,
with the statistics table:

    python -m pytest tests/test_microbench.py --benchmark-only

The end-to-end numbers come from ``bench/run.py``, not from here.
"""

import numpy as np

from fls.cluster import degrees, spectral_embed
from fls.datagen import gen_synthetic, sphere_normalize
from fls.evaluation import synthetic_suite
from fls import kernels
from fls.kernels import EmbeddingMatrix, SubspaceKernel, embed
from fls.landmarks import best_fit_flats, default_sigma, select_landmarks
from fls.linalg import kmeans

from oracles import gram_svd
from test_kernels import lifted_tolerance, longdouble_sq_dists, oracle_embed, random_flats
from test_landmarks import (
    five_planes,
    oracle_kmeans_landmarks,
    per_flat_sigma,
    unpruned_fit_ladders,
)
from test_linalg import assert_same_kmeans, oracle_kmeans


def test_kmeans_landmark_selection(benchmark):
    # full k-means with 100 centers on 4000 points on five noisy planes in R^10
    pts = five_planes(4000, 0)
    got = benchmark.pedantic(kmeans, args=(pts, 100), kwargs={"seed": 1}, rounds=5)
    assert_same_kmeans(got, oracle_kmeans(pts, 100, seed=1))


def test_final_kmeans_sampled(benchmark):
    # the large-n final k-means: 105 000 rows in R^4 near five directions,
    # k = 5 and 3 restarts, seeded on a sample of 4096 rows
    gen = np.random.default_rng(3)
    pts = sphere_normalize(gen.standard_normal((5, 4))[gen.integers(5, size=105_000)])
    pts = sphere_normalize(pts + 0.2 * gen.standard_normal(pts.shape))
    got = benchmark.pedantic(kmeans, args=(pts, 5), kwargs={"seed": 3, "restarts": 3}, rounds=5)
    assert_same_kmeans(got, oracle_kmeans(pts, 5, seed=3, restarts=3))


def test_select_kmeans_landmarks(benchmark):
    # the landmark path on the same points: seeds plus the capped sweeps
    pts = five_planes(4000, 0)
    got = benchmark.pedantic(
        select_landmarks, args=(pts, 100, "kmeans"), kwargs={"seed": 1}, rounds=5
    )
    assert np.array_equal(got, oracle_kmeans_landmarks(pts, 100, 1))


def test_select_kmeans_landmarks_sampled(benchmark):
    # the kmeans-landmarks shape: 31 500 points in R^10 and 400 landmarks,
    # fitted on a sample of 8000 rows
    pts = five_planes(31_500, 5)
    got = benchmark.pedantic(
        select_landmarks, args=(pts, 400, "kmeans"), kwargs={"seed": 1}, rounds=3
    )
    assert np.array_equal(got, oracle_kmeans_landmarks(pts, 400, 1))


def test_best_fit_flats(benchmark):
    # the subspace-ref R^80 model: 1625 points, l = 7, linear flats, sizes
    # 16 to 1024 and the all-points rung; 20 of its landmarks
    pts = gen_synthetic(synthetic_suite(0.30)[3], 0).points
    centers = pts[np.random.default_rng(0).choice(pts.shape[0], 20, replace=False)]
    args = (pts, centers, 7, 8, 16)
    got = benchmark.pedantic(best_fit_flats, args=args, kwargs={"linear": True}, rounds=3)
    sizes = [16, 32, 64, 128, 256, 512, 1024, pts.shape[0]]
    want = unpruned_fit_ladders(pts, centers, sizes, 7, True)[2]
    for flat, want_flat in zip(got, want):
        assert np.array_equal(flat.base, want_flat.base)
        assert np.array_equal(flat.basis, want_flat.basis)


def test_best_fit_flats_five_planes(benchmark):
    # the five-plane shape: 21 000 points on the sphere in R^10, 400
    # landmarks, l = 2, linear flats, sizes 6 to 768 (T = 8), where the
    # blocked distance scan over all n points dominates
    pts = five_planes(21_000, 4)
    centers = pts[np.random.default_rng(4).choice(pts.shape[0], 400, replace=False)]
    args = (pts, centers, 2, 8, 6)
    got = benchmark.pedantic(best_fit_flats, args=args, kwargs={"linear": True}, rounds=3)
    sizes = [6 * 2**j for j in range(8)]
    want = unpruned_fit_ladders(pts, centers, sizes, 2, True)[2]
    assert np.array_equal(got.base, want.base)
    assert np.array_equal(got.basis, want.basis)


def test_default_sigma_sampled(benchmark):
    # the kmeans-landmarks shape: 31 500 points on the sphere in R^10 and
    # 400 linear 2-flats, so sigma is the median of 10 000 sampled pairs
    pts = five_planes(31_500, 5)
    flats = kernels._stack_flats(random_flats(np.random.default_rng(5), 400, 10, 2, False))
    got = benchmark.pedantic(default_sigma, args=(pts, flats), rounds=15)
    want = per_flat_sigma(pts, flats, 0)
    assert abs(got - want) <= 1e-15 * want


def test_embed_and_spectral_embed(benchmark):
    # 200 linear 2-flats in R^10, 20 000 points on the sphere: a 32 MB
    # embedding from the lifted fill
    gen = np.random.default_rng(2)
    spec = SubspaceKernel(sigma=0.5, flats=random_flats(gen, 200, 10, 2, False))
    pts = sphere_normalize(gen.standard_normal((20_000, 10)))

    def stages():
        emb = embed(spec, pts)
        psi = emb.data.copy()  # spectral_embed may scale emb in place
        return EmbeddingMatrix(psi), spectral_embed(emb, 5, drop_first=True)

    emb, (rows, svals) = benchmark.pedantic(stages, rounds=3)
    assert kernels._lifted_wins(10, 2)
    # every 50th point against the longdouble reference
    sub = pts[::50]
    want = np.exp(-longdouble_sq_dists(spec.flats, sub) / np.longdouble(0.5) ** 2)
    want /= np.sqrt(np.longdouble(200))
    rtol = lifted_tolerance(spec.flats, sub) / 0.5**2 + 8 * np.finfo(float).eps
    assert np.all(np.abs(emb.data[:, ::50] - want) <= rtol * want)
    want_svals, want_vectors = gram_svd(emb.data * degrees(emb)[None, :] ** -0.5, 5)
    assert np.allclose(svals, want_svals, rtol=1e-12, atol=0)
    assert np.allclose(rows, sphere_normalize(want_vectors[:, 1:]), atol=1e-9)


def test_embed_r80_projected(benchmark):
    # the subspace-ref R^80 model: 100 linear 7-flats, 1625 points on the
    # sphere; this shape keeps the projected fill, bit for bit
    pts = sphere_normalize(gen_synthetic(synthetic_suite(0.30)[3], 0).points)
    gen = np.random.default_rng(3)
    spec = SubspaceKernel(sigma=0.3, flats=random_flats(gen, 100, 80, 7, False))
    got = benchmark.pedantic(embed, args=(spec, pts), rounds=5)
    assert not kernels._lifted_wins(80, 7)
    assert np.array_equal(got.data, oracle_embed(spec, pts))
