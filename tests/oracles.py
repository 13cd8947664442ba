"""Reference formulas that several test modules compare the library with.

Each is the plain computation written once: a scalar distance or kernel
value, the Gram route to a truncated SVD, the row sample k-means seeds
on, the spec ``fls_cluster`` builds from its first two seed streams, and
spectral clustering by a dense eigendecomposition of the n x n
normalized matrix.  Beside them, RANDOM_AFFINE and RAW_POINTS: the
setting other than the reference configuration that many cases name.
"""

import math
import time

import numpy as np

from fls import kernels
from fls.cluster import ClusterResult, dense_normalized
from fls.datagen import sphere_normalize
from fls.errors import DenseLimitExceeded, InvalidParam
from fls.kernels import SubspaceKernel
from fls.landmarks import best_fit_flats, default_sigma, select_landmarks
from fls.linalg import as_integer, check_finite, flip_signs, kmeans
from fls.rng import make_rng, split

# random landmarks, the median sigma rule and affine flats (LandmarkConfig),
# on the raw points with one k-means restart (fls_cluster)
RANDOM_AFFINE = dict(method="random", sigma=None, linear=False)
RAW_POINTS = dict(drop_first=False, normalize_sphere=False, kmeans_restarts=1)


def flat_distance(x, flat):
    """Distance from one point to one affine flat, sqrt(|x - b|^2 - |F^T (x - b)|^2)."""
    diff = np.asarray(x, dtype=float) - flat.base
    proj = flat.basis.T @ diff
    return math.sqrt(max(0.0, float(diff @ diff) - float(proj @ proj)))


def gaussian_kernel(x, y, sigma):
    """exp(-|x - y|^2 / (2 sigma^2)) of two points."""
    diff = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    return math.exp(-float(diff @ diff) / (2.0 * float(sigma) ** 2))


def gram_svd(a, k):
    """Top-k singular values and right vectors of a D x n matrix from its
    unblocked Gram matrix: the eigenpairs of a a^T in descending order,
    right vectors (u^T a)^T / s in the ``flip_signs`` convention."""
    eigvals, eigvecs = np.linalg.eigh(a @ a.T)
    order = np.argsort(eigvals)[::-1][:k]
    svals = np.sqrt(np.clip(eigvals[order], 0.0, None))
    return svals, flip_signs((eigvecs[:, order].T @ a).T / svals)


def landmark_sample(points, count, seed):
    """The rows that k-means with ``count`` centers seeds on ("kmeans"
    landmarks, the final k-means) and the seed of that fit: above
    max(4096, 20 * count) rows, that many distinct rows in index order,
    drawn from the first stream of split(seed, 2) and fitted from the
    second; otherwise every row and ``seed`` itself."""
    cap = max(4096, 20 * count)
    if len(points) <= cap:
        return points, seed
    draw, fit = split(seed, 2)
    return points[np.sort(make_rng(draw).choice(len(points), cap, replace=False))], fit


def subspace_spec(points, config, seed=0):
    """Landmarks, their local flats and sigma from the streams of
    ``split(seed, 2)``, the first two of ``fls_cluster``'s
    ``split(seed, 4)``: the spec ``fls_cluster`` embeds these points with,
    composed from the same public calls."""
    select_seed, sigma_seed = split(seed, 2)
    centers = select_landmarks(points, config.n_landmarks, config.method, select_seed)
    init_neighbors, max_scales = config.resolve_scales(len(points))
    flats = best_fit_flats(
        points, centers, config.flat_dim, max_scales, init_neighbors, linear=config.linear
    )
    sigma = config.sigma
    if sigma is None:
        sigma = default_sigma(points, flats, sigma_seed)
    return SubspaceKernel(sigma, flats)


def dense_spectral_cluster(w, n_clusters, seed=0, drop_first=False, kmeans_restarts=1):
    """Spectral clustering by dense eigendecomposition of D^-1/2 W D^-1/2.

    The unapproximated counterpart of the embedding route; refuses n
    beyond ``kernels._DENSE_LIMIT``.  singular_values holds
    sqrt(max(eigenvalue, 0)), comparable with those of Psi D^-1/2.
    """
    w = check_finite(w, "kernel matrix")
    if w.shape[0] > kernels._DENSE_LIMIT:
        raise DenseLimitExceeded(f"n={w.shape[0]} exceeds dense limit {kernels._DENSE_LIMIT}")
    n_clusters = as_integer(n_clusters, "n_clusters", 1)
    if n_clusters > w.shape[0]:
        raise InvalidParam(f"n_clusters={n_clusters} not in [1, {w.shape[0]}]")
    if drop_first and n_clusters < 2:
        raise InvalidParam("drop_first needs n_clusters >= 2")
    start = time.perf_counter()
    eigvals, eigvecs = np.linalg.eigh(dense_normalized(w))
    order = np.argsort(eigvals)[::-1][:n_clusters]
    top = flip_signs(eigvecs[:, order])
    svals = np.sqrt(np.clip(eigvals[order], 0.0, None))
    eig_time = time.perf_counter() - start
    rows = sphere_normalize(top[:, 1:] if drop_first else top)
    start = time.perf_counter()
    labels, _, _ = kmeans(rows, n_clusters, seed=seed, restarts=kmeans_restarts)
    return ClusterResult(
        labels=labels,
        embedding=rows,
        singular_values=svals,
        timings={"eig": eig_time, "kmeans": time.perf_counter() - start},
    )
