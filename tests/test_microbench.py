"""Micro-benchmarks of k-means and k-means landmark selection at a small
landmark-selection shape and of the embed + spectral_embed stages.

In the tier-1 run each is a quick check: a few timed rounds, then the
result must equal its reference (the unblocked k-means, the capped
unblocked Lloyd run and the whole-array embedding bit for bit, the
unblocked Gram SVD to roundoff).  For timings only, with the statistics
table:

    python -m pytest tests/test_microbench.py --benchmark-only

The end-to-end numbers come from ``bench/run.py``, not from here.
"""

import numpy as np

from fls.cluster import degrees, spectral_embed
from fls.datagen import sphere_normalize
from fls.kernels import SubspaceKernel, embed
from fls.landmarks import select_landmarks
from fls.linalg import kmeans, truncated_svd

from test_kernels import oracle_embed, random_flats
from test_landmarks import five_planes, oracle_kmeans_landmarks
from test_linalg import assert_same_kmeans, oracle_kmeans


def test_kmeans_landmark_selection(benchmark):
    # full k-means with 100 centers on 4000 points on five noisy planes in R^10
    pts = five_planes(4000, 0)
    got = benchmark.pedantic(kmeans, args=(pts, 100), kwargs={"seed": 1}, rounds=5)
    assert_same_kmeans(got, oracle_kmeans(pts, 100, seed=1))


def test_select_kmeans_landmarks(benchmark):
    # the landmark path on the same points: seeds plus the capped sweeps
    pts = five_planes(4000, 0)
    got = benchmark.pedantic(
        select_landmarks, args=(pts, 100, "kmeans"), kwargs={"seed": 1}, rounds=5
    )
    assert np.array_equal(got, oracle_kmeans_landmarks(pts, 100, 1))


def test_embed_and_spectral_embed(benchmark):
    # 200 linear 2-flats in R^10, 20 000 points on the sphere: a 32 MB embedding
    gen = np.random.default_rng(2)
    spec = SubspaceKernel(sigma=0.5, flats=random_flats(gen, 200, 10, (2,), False))
    pts = sphere_normalize(gen.standard_normal((20_000, 10)))

    def stages():
        emb = embed(spec, pts)
        return emb, spectral_embed(emb, 5, drop_first=True)

    emb, (rows, svals) = benchmark.pedantic(stages, rounds=3)
    assert np.array_equal(emb.data, oracle_embed(spec, pts))
    want = truncated_svd(emb.data * degrees(emb)[None, :] ** -0.5, 5)
    assert np.allclose(svals, want.singular_values, rtol=1e-12, atol=0)
    assert np.allclose(rows, sphere_normalize(want.right_vectors[:, 1:]), atol=1e-9)
