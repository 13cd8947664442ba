"""Dense linear-algebra and clustering primitives.

All functions are pure: nothing mutates its inputs, randomness enters only
through explicit seeds, so everything here is safe to call concurrently.
Matrices are plain float ndarrays with finite entries; constructors and
entry points reject NaN/Inf.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import DegenerateInput, InvalidParam, RankDeficient
from .rng import make_rng, split

log = logging.getLogger(__name__)


# Entries per piece of check_finite's scan (512 KiB): the max of a piece
# reads it from cache after its min.
_SCAN_ENTRIES = 2**16


def check_finite(a, name: str = "array") -> np.ndarray:
    a = np.asarray(a, dtype=float)
    # min and max propagate NaN and keep +-Inf; unlike np.isfinite they
    # allocate nothing the size of a (a D x n embedding would need D n
    # bytes).  A contiguous array is scanned piece by piece, so memory is
    # read once.
    pieces = (a,)
    if a.flags.c_contiguous:
        flat = a.reshape(-1)
        pieces = (flat[s : s + _SCAN_ENTRIES] for s in range(0, flat.size, _SCAN_ENTRIES))
    for piece in pieces:
        if piece.size and not (math.isfinite(piece.min()) and math.isfinite(piece.max())):
            raise InvalidParam(f"{name} contains NaN or Inf entries")
    return a


def _signs(values: np.ndarray) -> np.ndarray:
    """np.sign with 0 read as +1, so multiplying by it never zeroes a column."""
    signs = np.sign(values)
    signs[signs == 0] = 1.0
    return signs


def _pivot_signs(vectors: np.ndarray) -> np.ndarray:
    idx = np.argmax(np.abs(vectors), axis=0)
    return _signs(vectors[idx, np.arange(vectors.shape[1])])


def flip_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive.

    This is the sign convention used for every singular/eigen vector the
    package returns; it makes results comparable across code paths.
    """
    return vectors * _pivot_signs(vectors)


def haar_frames(gen: np.random.Generator, shape) -> np.ndarray:
    """Haar-distributed orthonormal frames of ``shape`` (..., d, l), l <= d.

    Each frame is the QR orthonormalization of a Gaussian draw with its
    column signs fixed by the R diagonal, which makes it (and its span)
    Haar-distributed; a square shape gives a Haar orthogonal matrix.
    """
    q, r = np.linalg.qr(gen.standard_normal(shape))
    return q * _signs(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]


@dataclass(frozen=True)
class AffineFlat:
    """An l-dimensional affine flat {base + basis @ u} in R^d, or a stack of them.

    One flat has base (d,) and basis (d, l); a stack of D flats of one
    shape has base (D, d) and basis (D, d, l), a ``len``, and indexing
    (an int gives one flat, a slice or index array a stack).  Each basis
    has orthonormal columns, checked to 1e-10 at construction, once per
    stack; the error names the first member that fails.  Linear
    subspaces have base = 0.
    """

    base: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        base = check_finite(self.base, "base")
        basis = check_finite(self.basis, "basis")
        if basis.ndim not in (2, 3) or base.shape != basis.shape[:-1]:
            raise InvalidParam(
                f"flat shapes disagree: base {base.shape}, basis {basis.shape}"
            )
        ambient, dim = basis.shape[-2:]
        if dim < 1 or dim > ambient:
            raise InvalidParam(f"flat dimension {dim} out of range")
        gram = np.matmul(basis.swapaxes(-1, -2), basis)
        bad = np.flatnonzero(np.abs(gram - np.eye(dim)).max(axis=(-2, -1)) > 1e-10)
        if bad.size:
            which = f" of flat {bad[0]}" if basis.ndim == 3 else ""
            raise InvalidParam(f"basis columns{which} are not orthonormal")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "basis", basis)

    @property
    def dim(self) -> int:
        return self.basis.shape[-1]

    @property
    def ambient(self) -> int:
        return self.basis.shape[-2]

    @property
    def stacked(self) -> bool:
        return self.basis.ndim == 3

    def __len__(self) -> int:
        if not self.stacked:
            raise TypeError("a single flat has no len(); only a stack does")
        return self.basis.shape[0]

    def __getitem__(self, idx):
        if not self.stacked:
            raise TypeError("a single flat cannot be indexed; only a stack can")
        return AffineFlat(self.base[idx], self.basis[idx])


@dataclass(frozen=True)
class SvdResult:
    """Top-K singular triples of a D x n matrix.

    left_vectors is D x K, right_vectors is n x K, singular_values is
    descending.  Right vectors carry the flip_signs convention.
    """

    left_vectors: np.ndarray
    singular_values: np.ndarray
    right_vectors: np.ndarray


def pca_spectrum(points: np.ndarray):
    """Centroid, scatter eigenvalues (descending) and eigenvectors.

    Eigenvalues are those of the scatter matrix sum((x-c)(x-c)^T), so the
    trailing d-l of them equal the total squared residual of the best
    l-flat exactly.  Computed through a thin SVD of the centered data,
    not an eigendecomposition of the scatter, for accuracy.  The
    eigenvalue vector is padded with zeros to length d; the eigenvector
    matrix holds the leading min(m, d) directions as columns.
    """
    pts = check_finite(points, "points")
    if pts.ndim != 2:
        raise InvalidParam("points must be a 2-D array")
    m, d = pts.shape
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    eigvals = np.zeros(d)
    eigvals[: svals.shape[0]] = svals**2
    return centroid, eigvals, flip_signs(vt.T)


def moment_spectrum(points: np.ndarray):
    """Uncentered analogue of pca_spectrum: eigenpairs of sum(x x^T).

    The trailing d-l eigenvalues equal the squared residual of the best
    l-dimensional *linear* subspace (through the origin), which is the
    right fit target when the data model is a union of linear subspaces,
    e.g. sphere-projected points.
    """
    pts = check_finite(points, "points")
    if pts.ndim != 2:
        raise InvalidParam("points must be a 2-D array")
    m, d = pts.shape
    svals, vt = np.linalg.svd(pts, full_matrices=False)[1:]
    eigvals = np.zeros(d)
    eigvals[: svals.shape[0]] = svals**2
    return eigvals, flip_signs(vt.T)


def svd_from_gram(gram: np.ndarray, n_cols: int, k: int, transpose_times) -> SvdResult:
    """Top-k singular triples of a D x n matrix A from its Gram matrix A A^T.

    Eigendecomposes the symmetrized D x D ``gram`` (O(D^3)); left
    vectors are its top eigenvectors u and right vectors A^T u / s, with
    ``transpose_times(u)`` supplying A^T u, so the caller decides how A
    is held.  Gram eigenvalues are resolved only to about D * eps * s_1^2,
    below which A^T u / s is noise; raises RankDeficient when s_k^2
    falls under that floor.
    """
    d_rows = gram.shape[0]
    if not 1 <= k <= min(d_rows, n_cols):
        raise InvalidParam(f"k={k} not in [1, {min(d_rows, n_cols)}]")
    gram = (gram + gram.T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(gram)
    order = np.argsort(eigvals)[::-1][:k]
    svals = np.sqrt(np.clip(eigvals[order], 0.0, None))
    left = eigvecs[:, order]
    floor = math.sqrt(d_rows * np.finfo(float).eps) * svals[0]
    if svals[0] <= 0.0 or svals[-1] < floor:
        raise RankDeficient(
            f"singular value {svals[-1]:.3e} below the Gram noise floor "
            f"{floor:.3e}; request fewer vectors"
        )
    right = transpose_times(left) / svals
    # the flip_signs convention on the right vectors, carried to the left ones
    signs = _pivot_signs(right)
    return SvdResult(left * signs, svals, right * signs)


def truncated_svd(a: np.ndarray, k: int) -> SvdResult:
    """Top-k singular triples via the D x D Gram matrix (``svd_from_gram``).

    For a D x n input, forms A @ A.T (cost O(n D^2 + D^3)) and recovers
    right vectors as (u.T @ A).T / s, a GEMM that reads A in its own
    layout (A.T @ u takes a multiple of its time and BLAS work memory).
    Intended for D << n.  Raises
    RankDeficient when s_k falls under the Gram noise floor
    sqrt(D * eps) * s_1.
    """
    a = check_finite(a, "matrix")
    if a.ndim != 2:
        raise InvalidParam("matrix must be 2-D")
    return svd_from_gram(a @ a.T, a.shape[1], k, lambda u: (u.T @ a).T)


# Entries of one row block of the assignment pass (4 MiB of float64): a
# sweep holds one block of distances, never an n x K array.
_BLOCK_ENTRIES = 2**19


def _assign(points, x_sq, centers, labels, mins):
    """Nearest center of every point and its squared distance, in place.

    Distances are x_sq - 2 x.c + c_sq clipped at zero, one row block at a
    time.  Folding the -2 into the centers is exact, so they are
    bit-identical to the unblocked expression; the clip stays because it
    decides ties between centers whose distance rounds below zero.
    Blocks are near-equal in size and hold at least two rows unless the
    input is one row: numpy hands a one-row product to GEMV, whose sums
    differ from GEMM's in the last bit.
    """
    m, k = points.shape[0], centers.shape[0]
    blocks = -(-m // max(4, _BLOCK_ENTRIES // k))
    buf = np.empty((-(-m // blocks), k))
    neg2c = (-2.0 * centers).T
    c_sq = (centers**2).sum(axis=1)
    for b in range(blocks):
        start, stop = m * b // blocks, m * (b + 1) // blocks
        g = np.matmul(points[start:stop], neg2c, out=buf[: stop - start])
        g += x_sq[start:stop, None]
        g += c_sq
        np.maximum(g, 0.0, out=g)
        lab = np.argmin(g, axis=1, out=labels[start:stop])
        mins[start:stop] = g[np.arange(stop - start), lab]


def _kmeanspp(points, x_sq, k, rng):
    m = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    d2 = np.empty(m)
    new = np.empty(m)

    def dists_to(j, out):
        # one GEMV, in the operation order of _assign
        c = centers[j]
        np.matmul(points, -2.0 * c, out=out)
        out += x_sq
        out += (c**2).sum()
        np.maximum(out, 0.0, out=out)
        return out

    centers[0] = points[int(rng.integers(m))]
    dists_to(0, d2)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(m))  # all mass on chosen points already
        else:
            # rng.choice(m, p=d2 / total) draws by this inverse CDF, bit for
            # bit, after checking p anew on each of the k - 1 calls
            cdf = np.cumsum(d2 / total)
            cdf /= cdf[-1]
            idx = int(cdf.searchsorted(rng.random(), side="right"))
        centers[j] = points[idx]
        np.minimum(d2, dists_to(j, new), out=d2)
    return centers


def _sweeps(points, x_sq, centers, max_iter, tol):
    """Up to ``max_iter`` Lloyd sweeps that move ``centers`` in place.

    A sweep assigns every point, stops if the inertia changed by at most
    ``tol`` relative to the last sweep's, and otherwise moves each center
    to the mean of its points.  Returns (labels, mins, converged): the
    last assignment and whether the tol test stopped the sweeps.  Only
    then have the centers not moved since that assignment.
    """
    m, k = points.shape[0], centers.shape[0]
    labels = np.empty(m, dtype=np.intp)
    mins = np.empty(m)
    prev = math.inf
    for _ in range(max_iter):
        _assign(points, x_sq, centers, labels, mins)
        inertia = float(mins.sum())
        if math.isfinite(prev) and abs(prev - inertia) <= tol * max(prev, 1e-300):
            return labels, mins, True
        prev = inertia
        counts = np.bincount(labels, minlength=k)
        # per-column bincount adds in point order, like np.add.at, but faster
        sums = np.stack(
            [np.bincount(labels, weights=col, minlength=k) for col in points.T], axis=1
        )
        full = counts > 0
        centers[full] = sums[full] / counts[full, None]
        for j in np.flatnonzero(~full):
            # re-seed an emptied centroid at the farthest point
            far = int(np.argmax(mins))
            centers[j] = points[far]
            mins[far] = -1.0
    return labels, mins, False


def _lloyd(points, k, rng, max_iter, tol):
    """One seeded Lloyd run: (labels, centers, inertia, converged)."""
    x_sq = (points**2).sum(axis=1)
    centers = _kmeanspp(points, x_sq, k, rng)
    labels, mins, converged = _sweeps(points, x_sq, centers, max_iter, tol)
    if not converged:
        _assign(points, x_sq, centers, labels, mins)
    return labels, centers, float(mins.sum()), converged


def _kmeans_points(points, k):
    pts = check_finite(points, "points")
    if pts.ndim != 2:
        raise InvalidParam("points must be a 2-D array")
    if k < 1:
        raise InvalidParam(f"k={k} must be >= 1")
    if pts.shape[0] < k:
        raise DegenerateInput(f"{pts.shape[0]} points cannot fill {k} clusters")
    return pts


# relative inertia change at which Lloyd sweeps stop
_KMEANS_TOL = 1e-6


def kmeans(
    points: np.ndarray,
    k: int,
    seed=0,
    restarts: int = 1,
    max_iter: int = 100,
    tol: float = _KMEANS_TOL,
):
    """Lloyd's algorithm with kmeans++ seeding.

    Iterates until the relative inertia change drops below ``tol`` or
    ``max_iter`` passes; one warning is logged naming how many restarts
    reached ``max_iter`` first.  Each pass assigns the points in row
    blocks, so its temporary memory is O(block * k), not O(n * k).
    Clusters emptied by an update are re-seeded at the point farthest
    from its current centroid.  Deterministic for a given seed; with
    ``restarts`` > 1 the lowest-inertia run wins (child streams are
    spawned, not reused).

    Returns (labels, centroids, inertia); every point is assigned to its
    nearest returned centroid.
    """
    if restarts < 1:
        raise InvalidParam(f"restarts={restarts} must be >= 1")
    pts = _kmeans_points(points, k)
    best, unconverged = None, 0
    for child in split(seed, restarts):
        *run, converged = _lloyd(pts, k, make_rng(child), max_iter, tol)
        unconverged += not converged
        if best is None or run[2] < best[2]:
            best = tuple(run)
    if unconverged:
        log.warning(
            "k-means did not converge: %d of %d restarts stopped at max_iter=%d "
            "with relative inertia change above tol=%.1e",
            unconverged,
            restarts,
            max_iter,
            tol,
        )
    return best


def kmeans_centers(points: np.ndarray, k: int, seed, sweeps: int) -> np.ndarray:
    """Centroids of ``kmeans(points, k, seed, max_iter=sweeps)``.

    The same kmeans++ seeds from the same stream and the same Lloyd
    sweeps, bit for bit, but only the centroids: no assignment pass after
    the last update, and no warning when ``sweeps`` runs out before the
    inertia settles, for callers that cap the sweeps on purpose.
    """
    pts = _kmeans_points(points, k)
    x_sq = (pts**2).sum(axis=1)
    centers = _kmeanspp(pts, x_sq, k, make_rng(split(seed, 1)[0]))
    _sweeps(pts, x_sq, centers, sweeps, _KMEANS_TOL)
    return centers


def hungarian_match(confusion: np.ndarray) -> np.ndarray:
    """Permutation maximizing the matched diagonal of a K x K count matrix.

    Returns p such that sum_i confusion[i, p[i]] is maximal; among
    maximizers, the lexicographically smallest p is returned.
    """
    c = check_finite(confusion, "confusion")
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise InvalidParam("confusion matrix must be square")
    if np.any(c < 0):
        raise InvalidParam("confusion matrix must be nonnegative")
    k = c.shape[0]

    def best_total(sub):
        if sub.size == 0:
            return 0.0
        rows, cols = linear_sum_assignment(-sub)
        return float(sub[rows, cols].sum())

    target = best_total(c)
    remaining = list(range(k))
    perm = np.empty(k, dtype=int)
    fixed = 0.0
    for i in range(k):
        for j in remaining:  # ascending, so the first feasible j is smallest
            rest_cols = [col for col in remaining if col != j]
            rest = c[np.ix_(range(i + 1, k), rest_cols)]
            if fixed + c[i, j] + best_total(rest) >= target - 1e-9:
                perm[i] = j
                fixed += c[i, j]
                remaining.remove(j)
                break
    return perm
