"""Spectral clustering through the feature embedding.

The pipeline never forms the n x n kernel matrix: with W-hat = Psi^T Psi
and degrees d_i = psi(x_i)^T sum_j psi(x_j), the top eigenvectors of the
normalized matrix D^-1/2 W-hat D^-1/2 are exactly the top right singular
vectors of A = Psi D^-1/2 (eigenvalues are squared singular values), so a
D x n truncated SVD suffices.  dense_normalized / dense_spectral_cluster
implement the n x n route as a verification oracle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .datagen import as_points, sphere_normalize
from .errors import (
    DegenerateInput,
    DegreeNotPositive,
    DenseLimitExceeded,
    FLSError,
    InvalidParam,
    PipelineError,
)
from .kernels import EmbeddingMatrix, embed
from .landmarks import LandmarkConfig, fit_subspace_kernel, select_landmarks
from .linalg import check_finite, flip_signs, kmeans, svd_from_gram
from .rng import split


@dataclass(frozen=True)
class ClusterResult:
    """Labels plus the spectral embedding that produced them.

    singular_values are those of Psi D^-1/2; the dense oracle path stores
    sqrt(max(eigenvalue, 0)) so the two are directly comparable.  sigma
    is the kernel bandwidth the embedding used, resolved when the config
    left it to the data (None on the dense path, which takes a kernel
    matrix).  timings holds per-stage wall-clock seconds and is the only
    nondeterministic field.
    """

    labels: np.ndarray
    embedding: np.ndarray
    singular_values: np.ndarray
    timings: dict = field(default_factory=dict)
    sigma: float | None = None

    def to_json(self) -> dict:
        return {
            "labels": [int(v) for v in self.labels],
            "singular_values": [float(v) for v in self.singular_values],
            "n_points": int(self.labels.shape[0]),
            "timings": {k: float(v) for k, v in self.timings.items()},
        }


def degrees(embedding: EmbeddingMatrix) -> np.ndarray:
    """Kernel degrees d_i = psi(x_i)^T sum_j psi(x_j), in O(n D).

    Raises DegreeNotPositive when any degree is <= 1e-12 (possible with
    cosine features; positive feature families cannot trigger it).
    """
    psi = embedding.data
    degs = psi.T @ psi.sum(axis=1)
    if degs.min(initial=np.inf) <= 1e-12:
        raise DegreeNotPositive(
            f"minimum degree {degs.min():.3e}; check kernel bandwidth"
        )
    return degs


# Entries of one column block of Psi D^-1/2 on the Gram path (16 MiB of
# float64): the only piece of the normalized matrix that ever exists.
_GRAM_BLOCK_ENTRIES = 2**21

# The Gram block's rows are padded with zero rows to a multiple of this:
# at a ragged row count (D = 100) OpenBLAS gives other last bits on 2
# threads than on 1
_ROW_ALIGN = 8


def _normalized_gram(psi: np.ndarray, inv_sqrt: np.ndarray) -> np.ndarray:
    """(Psi diag(w)) (Psi diag(w))^T, summed over column blocks of Psi
    whose rows are padded with zero rows to a multiple of _ROW_ALIGN."""
    d_rows, n = psi.shape
    rows = -(-d_rows // _ROW_ALIGN) * _ROW_ALIGN
    width = max(1, _GRAM_BLOCK_ENTRIES // rows)
    buf = np.empty(rows * min(width, n))
    gram = np.zeros((rows, rows))
    for s in range(0, n, width):
        e = min(n, s + width)
        blk = buf[: rows * (e - s)].reshape(rows, e - s)
        np.multiply(psi[:, s:e], inv_sqrt[s:e], out=blk[:d_rows])
        blk[d_rows:] = 0.0
        gram += blk @ blk.T
    return gram[:d_rows, :d_rows]


def spectral_embed(
    embedding: EmbeddingMatrix,
    n_clusters: int,
    drop_first: bool = False,
    svd_path: str = "gram",
    seed=None,
):
    """Row-normalized top singular vectors of A = Psi D^-1/2.

    Returns (rows, singular_values) where rows is n x K (or n x (K-1)
    with drop_first, which discards the leading vector).  Rows that are
    exactly zero stay zero.  ``embedding.data`` is left unchanged.

    A is never formed: the D x D Gram matrix A A^T is summed over column
    blocks of Psi, each scaled by D^-1/2 on its own and padded with zero
    rows to a multiple of 8, so the Gram matrix has the same bits on any
    BLAS thread count.  The right vectors are (U^T Psi)^T D^-1/2 / s:
    one K x n GEMM that streams Psi in its own layout
    (``linalg.svd_from_gram`` does the eigensolve and the RankDeficient
    floor).  Beside the embedding it holds the n degrees, a few D x D
    matrices, a few n x K arrays and one 2^21-entry block.  Psi^T U,
    the same product against Psi's layout, takes the BLAS tens of MiB of
    work memory of its own on 2 threads.  tracemalloc does not see BLAS
    work memory, so the benchmark's ``cluster.spectral_embed_peak_mb``
    cannot tell the two apart; only the process's peak RSS can.

    ``svd_path`` (only "gram" is accepted) and ``seed`` (ignored) exist
    only for the benchmark's stage replay, which passes both; the
    benchmark change that stops passing them deletes them.
    """
    if svd_path != "gram":
        raise InvalidParam(f"unknown svd_path {svd_path!r}")
    if n_clusters < 1:
        raise InvalidParam(f"n_clusters={n_clusters} must be >= 1")
    if drop_first and n_clusters < 2:
        raise InvalidParam("drop_first needs n_clusters >= 2")
    psi = embedding.data
    inv_sqrt = degrees(embedding) ** -0.5
    result = svd_from_gram(
        _normalized_gram(psi, inv_sqrt),
        psi.shape[1],
        n_clusters,
        lambda u: (u.T @ psi).T * inv_sqrt[:, None],
    )
    vectors = result.right_vectors
    if drop_first:
        vectors = vectors[:, 1:]
    return sphere_normalize(vectors), result.singular_values


def fls_cluster(
    data,
    n_clusters: int,
    config: LandmarkConfig,
    seed=0,
    drop_first: bool = False,
    normalize_sphere: bool = False,
    kmeans_restarts: int = 1,
) -> ClusterResult:
    """Fast landmark subspace clustering.

    Stages: select landmarks, fit local flats (and resolve sigma), embed,
    truncated SVD of the degree-normalized embedding, k-means on the
    row-normalized vectors.  Per-stage wall times are recorded under
    those names; any stage failure is re-raised as PipelineError naming
    the stage.  Requires n >= max(n_landmarks, n_clusters).
    """
    pts = as_points(data)
    if pts.shape[0] < n_clusters:
        raise DegenerateInput(
            f"{pts.shape[0]} points cannot form {n_clusters} clusters"
        )
    if normalize_sphere:
        pts = sphere_normalize(pts)
    # the third stream is unused; k-means keeps the fourth so labels stay
    # bit-identical, and the first two stay those of build_subspace_spec
    select_seed, sigma_seed, _, kmeans_seed = split(seed, 4)
    timings: dict = {}

    def run(stage, fn):
        start = time.perf_counter()
        try:
            out = fn()
        except FLSError as exc:
            raise PipelineError(stage, exc) from exc
        timings[stage] = time.perf_counter() - start
        return out

    centers = run(
        "landmarks",
        lambda: select_landmarks(pts, config.n_landmarks, config.method, select_seed),
    )
    spec = run("flats", lambda: fit_subspace_kernel(pts, centers, config, sigma_seed))
    embedding = run("embed", lambda: embed(spec, pts))
    rows, svals = run(
        "svd",
        lambda: spectral_embed(embedding, n_clusters, drop_first=drop_first),
    )
    labels = run(
        "kmeans",
        lambda: kmeans(rows, n_clusters, seed=kmeans_seed, restarts=kmeans_restarts)[0],
    )
    return ClusterResult(
        labels=labels,
        embedding=rows,
        singular_values=svals,
        timings=timings,
        sigma=spec.sigma,
    )


def dense_normalized(w: np.ndarray) -> np.ndarray:
    """D^-1/2 W D^-1/2 for a symmetric kernel matrix with positive row sums."""
    w = check_finite(w, "kernel matrix")
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise InvalidParam("kernel matrix must be square")
    scale = max(1.0, float(np.abs(w).max()))
    if np.abs(w - w.T).max() > 1e-8 * scale:
        raise InvalidParam("kernel matrix must be symmetric")
    degs = w.sum(axis=1)
    if degs.min(initial=np.inf) <= 1e-12:
        raise DegreeNotPositive(f"minimum row sum {degs.min():.3e}")
    inv_sqrt = degs**-0.5
    return w * np.outer(inv_sqrt, inv_sqrt)


def dense_spectral_cluster(
    w: np.ndarray,
    n_clusters: int,
    seed=0,
    drop_first: bool = False,
    dense_limit: int = 5000,
    kmeans_restarts: int = 1,
) -> ClusterResult:
    """Spectral clustering by dense eigendecomposition of D^-1/2 W D^-1/2.

    The unapproximated counterpart of the embedding route, kept as an
    oracle for equivalence tests; refuses n beyond ``dense_limit``.
    """
    w = check_finite(w, "kernel matrix")
    if w.shape[0] > dense_limit:
        raise DenseLimitExceeded(f"n={w.shape[0]} exceeds dense limit {dense_limit}")
    if n_clusters < 1 or n_clusters > w.shape[0]:
        raise InvalidParam(f"n_clusters={n_clusters} not in [1, {w.shape[0]}]")
    if drop_first and n_clusters < 2:
        raise InvalidParam("drop_first needs n_clusters >= 2")
    start = time.perf_counter()
    normalized = dense_normalized(w)
    eigvals, eigvecs = np.linalg.eigh(normalized)
    order = np.argsort(eigvals)[::-1][:n_clusters]
    top = flip_signs(eigvecs[:, order])
    svals = np.sqrt(np.clip(eigvals[order], 0.0, None))
    eig_time = time.perf_counter() - start
    vectors = top[:, 1:] if drop_first else top
    rows = sphere_normalize(vectors)
    start = time.perf_counter()
    labels, _, _ = kmeans(rows, n_clusters, seed=seed, restarts=kmeans_restarts)
    return ClusterResult(
        labels=labels,
        embedding=rows,
        singular_values=svals,
        timings={"eig": eig_time, "kmeans": time.perf_counter() - start},
    )
