"""Spectral clustering through the feature embedding.

The pipeline never forms the n x n kernel matrix: with W-hat = Psi^T Psi
and degrees d_i = psi(x_i)^T sum_j psi(x_j), the top eigenvectors of the
normalized matrix D^-1/2 W-hat D^-1/2 are exactly the top right singular
vectors of A = Psi D^-1/2 (eigenvalues are squared singular values), so a
D x n truncated SVD suffices.  dense_normalized forms the n x n matrix
for the checks in ``evaluation`` (the tests' dense clustering oracle is
built on it).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .datagen import sphere_normalize
from .errors import (
    DegenerateInput,
    DegreeNotPositive,
    FLSError,
    InvalidParam,
    PipelineError,
    RankDeficient,
)
from .kernels import EmbeddingMatrix, SubspaceKernel, _feature_rows, embed
from .landmarks import LandmarkConfig, best_fit_flats, default_sigma, select_landmarks
from .linalg import ROW_ALIGN, as_integer, as_points, check_finite, flip_signs, kmeans, round_up
from .rng import split


@dataclass(frozen=True)
class ClusterResult:
    """Labels plus the spectral embedding that produced them.

    singular_values are those of Psi D^-1/2; the dense oracle path stores
    sqrt(max(eigenvalue, 0)) so the two are directly comparable.  sigma
    is the kernel bandwidth the embedding used, resolved when the config
    left it to the data, and ladder the neighborhood ladder (S, T) the
    flats were fitted over (both None on the dense path, which takes a
    kernel matrix).  timings holds per-stage wall-clock seconds and is
    the only nondeterministic field.  ``to_json`` writes every field except
    the embedding, plus n_points; sigma and ladder are null on the dense
    path.
    """

    labels: np.ndarray
    embedding: np.ndarray
    singular_values: np.ndarray
    timings: dict = field(default_factory=dict)
    sigma: float | None = None
    ladder: tuple[int, int] | None = None

    def to_json(self) -> dict:
        return {
            "labels": [int(v) for v in self.labels],
            "singular_values": [float(v) for v in self.singular_values],
            "n_points": int(self.labels.shape[0]),
            "timings": {k: float(v) for k, v in self.timings.items()},
            "sigma": None if self.sigma is None else float(self.sigma),
            "ladder": None if self.ladder is None else [int(v) for v in self.ladder],
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


# Entries of one column view of the scaled Psi that one Gram GEMM reads
# (16 MiB of float64); its width sets the summation order of the Gram
# matrix, so it is part of the bits.
_GRAM_BLOCK_ENTRIES = 2**21


def _padded_rows(psi: np.ndarray) -> np.ndarray:
    """``psi`` as the first rows of a writable C-contiguous array whose
    further rows, up to a multiple of ROW_ALIGN, are zero: the buffer
    ``kernels.embed`` allocated (``kernels._feature_rows``), ``psi`` itself
    when its row count is a multiple already, else one padded copy."""
    d_rows, n = psi.shape
    rows = round_up(d_rows, ROW_ALIGN)
    if psi.flags.c_contiguous and psi.flags.writeable:
        if rows == d_rows:
            return psi
        base = psi.base
        if (
            isinstance(base, np.ndarray)
            and base.shape == (rows, n)
            and base.dtype == psi.dtype
            and base.flags.c_contiguous
            and base.ctypes.data == psi.ctypes.data
            and base[d_rows:].min() == 0.0 == base[d_rows:].max()
        ):
            return base
    copy = _feature_rows(d_rows, n)
    copy[...] = psi
    return copy.base


def _scaled_gram(padded: np.ndarray, inv_sqrt: np.ndarray) -> np.ndarray:
    """Scale ``padded`` in place to ``padded`` diag(inv_sqrt) and return its
    Gram matrix, summed over column views of ``_GRAM_BLOCK_ENTRIES`` entries,
    each scaled just before its GEMM reads it."""
    rows, n = padded.shape
    width = max(1, _GRAM_BLOCK_ENTRIES // rows)
    gram = np.zeros((rows, rows))
    for s in range(0, n, width):
        blk = padded[:, s : s + width]
        blk *= inv_sqrt[s : s + width]
        gram += blk @ blk.T
    return gram


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
    exactly zero stay zero.  ``spectral_embed`` may overwrite
    ``embedding.data``: it scales Psi to A in place, so a caller that
    reads Psi afterwards takes a copy first.

    The D x D Gram matrix A A^T is summed over column views of A, each
    scaled by D^-1/2 just before its GEMM reads it.  Those views span
    Psi's rows padded with zero rows to a multiple of ``linalg.ROW_ALIGN``,
    so the Gram matrix has the same bits on any BLAS thread count.
    ``kernels.embed`` allocates Psi with those pad rows, so A takes Psi's
    memory; an embedding of a plain array whose D is not a multiple of
    ROW_ALIGN (or that is read-only or not C-contiguous) is scaled in one
    padded copy instead, and its data is left as it was.  The Gram
    eigenpairs are not thread-independent from D = 256 on
    (``np.linalg.eigh`` and every ``scipy.linalg.eigh`` driver; D = 200
    agrees), so at D = 400 the output depends on the thread count.  The
    singular values s are the square roots of its top K eigenvalues, with
    eigenvectors U.  They are resolved only to about sqrt(D eps) s_1, below
    which the right vectors would be noise, so RankDeficient is raised when
    s_K falls under that floor.  The right vectors are (U^T A)^T / s in the
    ``linalg.flip_signs`` convention: one K x n GEMM that streams A in its
    own layout.  Beside Psi it holds the n degrees, a few D x D matrices
    and a few n x K arrays.  A^T U, the same product against A's layout,
    takes the BLAS tens of MiB of work memory of its own on 2 threads.
    tracemalloc does not see BLAS work memory, so the benchmark's
    ``cluster.spectral_embed_peak_mb`` cannot tell the two apart; only the
    process's peak RSS can.

    ``svd_path`` (only "gram" is accepted) and ``seed`` (ignored) exist
    only for the benchmark's stage replay, which passes both; the
    benchmark change that stops passing them deletes them.
    """
    if svd_path != "gram":
        raise InvalidParam(f"unknown svd_path {svd_path!r}")
    n_clusters = as_integer(n_clusters, "n_clusters", 1)
    if drop_first and n_clusters < 2:
        raise InvalidParam("drop_first needs n_clusters >= 2")
    psi = embedding.data
    d_rows = psi.shape[0]
    if n_clusters > min(psi.shape):
        raise InvalidParam(f"n_clusters={n_clusters} not in [1, {min(psi.shape)}]")
    inv_sqrt = degrees(embedding) ** -0.5
    padded = _padded_rows(psi)
    gram = _scaled_gram(padded, inv_sqrt)[:d_rows, :d_rows]
    eigvals, eigvecs = np.linalg.eigh((gram + gram.T) / 2.0)
    order = np.argsort(eigvals)[::-1][:n_clusters]
    svals = np.sqrt(np.clip(eigvals[order], 0.0, None))
    floor = math.sqrt(d_rows * np.finfo(float).eps) * svals[0]
    if svals[0] <= 0.0 or svals[-1] < floor:
        raise RankDeficient(
            f"singular value {svals[-1]:.3e} below the Gram noise floor "
            f"{floor:.3e}; request fewer vectors"
        )
    vectors = flip_signs((eigvecs[:, order].T @ padded[:d_rows]).T / svals)
    if drop_first:
        vectors = vectors[:, 1:]
    return sphere_normalize(vectors), svals


def _check_settings(n_clusters: int, flat_dim: int, ambient: int, drop_first: bool):
    """The settings ``fls_cluster`` refuses whatever the points: a
    flat_dim of at least the ambient dimension (a d-flat holds every
    point) and drop_first with fewer than 2 clusters (InvalidParam)."""
    if flat_dim >= ambient:
        raise InvalidParam(f"flat_dim={flat_dim} must be below d={ambient}")
    if drop_first and n_clusters < 2:
        raise InvalidParam("drop_first needs n_clusters >= 2")


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

    Stages, timed under these names: landmarks, flats (over the ladder of
    ``config.resolve_scales(n)``), sigma (also when the config gives it),
    embed, svd (of the degree-normalized embedding) and kmeans (on the
    row-normalized vectors).  Any stage failure is re-raised as
    PipelineError naming the stage.  Requires n >= max(n_landmarks,
    n_clusters), flat_dim < d (a d-flat holds every point) and, with
    drop_first, n_clusters >= 2; all but n >= n_landmarks are checked
    before any stage runs.
    """
    pts, n_clusters = as_points(data), as_integer(n_clusters, "n_clusters", 1)
    if pts.shape[0] < n_clusters:
        raise DegenerateInput(
            f"{pts.shape[0]} points cannot form {n_clusters} clusters"
        )
    _check_settings(n_clusters, config.flat_dim, pts.shape[1], drop_first)
    if normalize_sphere:
        pts = sphere_normalize(pts)
    # the third stream is unused; k-means keeps the fourth so labels stay
    # bit-identical, and the first two stay those of split(seed, 2)
    select_seed, sigma_seed, _, kmeans_seed = split(seed, 4)
    init_neighbors, max_scales = config.resolve_scales(pts.shape[0])
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
    flats = run(
        "flats",
        lambda: best_fit_flats(
            pts, centers, config.flat_dim, max_scales, init_neighbors, linear=config.linear
        ),
    )
    sigma = run(
        "sigma",
        lambda: default_sigma(pts, flats, sigma_seed) if config.sigma is None else config.sigma,
    )
    embedding = run("embed", lambda: embed(SubspaceKernel(sigma, flats), pts))
    rows, svals = run(
        "svd",
        lambda: spectral_embed(embedding, n_clusters, drop_first=drop_first),
    )
    del embedding  # scaled in place by spectral_embed; k-means runs beside the rows only
    labels = run(
        "kmeans",
        lambda: kmeans(rows, n_clusters, seed=kmeans_seed, restarts=kmeans_restarts)[0],
    )
    return ClusterResult(
        labels=labels,
        embedding=rows,
        singular_values=svals,
        timings=timings,
        sigma=sigma,
        ladder=(init_neighbors, max_scales),
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
