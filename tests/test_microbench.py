"""Micro-benchmark of k-means at a small landmark-selection shape.

In the tier-1 run it is a quick check: a few timed rounds, then the
result must equal the unblocked reference k-means bit for bit.  For
timings only, with the statistics table:

    python -m pytest tests/test_microbench.py --benchmark-only

The end-to-end numbers come from ``bench/run.py``, not from here.
"""

import numpy as np

from fls.linalg import kmeans

from test_linalg import assert_same_kmeans, oracle_kmeans


def test_kmeans_landmark_selection(benchmark):
    # 100 landmarks from 4000 points on five noisy planes in R^10
    gen = np.random.default_rng(0)
    bases = gen.standard_normal((5, 2, 10))
    which = gen.integers(5, size=4000)
    pts = np.einsum("ni,nid->nd", gen.standard_normal((4000, 2)), bases[which])
    pts += 0.05 * gen.standard_normal(pts.shape)
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    got = benchmark.pedantic(kmeans, args=(pts, 100), kwargs={"seed": 1}, rounds=5)
    assert_same_kmeans(got, oracle_kmeans(pts, 100, seed=1))
