"""Dense linear-algebra and clustering primitives.

All functions are pure: nothing mutates its inputs (``aligned_matmul``
writes only its ``out``), randomness enters only through explicit seeds,
so everything here is safe to call concurrently.
Matrices are plain float ndarrays with finite entries; constructors and
entry points reject NaN/Inf.
"""

from __future__ import annotations

import logging
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, InvalidParam
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


def as_points(data, name: str = "points") -> np.ndarray:
    """A DataSet's points or an array, as a finite 2-D float array.

    A DataSet is read through its ``points`` attribute (this module
    cannot import datagen); its constructor made this check, so it is
    not repeated.  Raises InvalidParam otherwise.
    """
    if hasattr(data, "points"):
        return data.points
    a = check_finite(data, name)
    if a.ndim != 2:
        raise InvalidParam(f"{name} must be a 2-D array")
    return a


def as_integer(value, name: str, low: int | None = None) -> int:
    """``value`` as an int of at least ``low``; a bool, a non-integer (1.5,
    "6") or a smaller value raises InvalidParam."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise InvalidParam(f"{name} must be an integer, got {value!r}")
    value = operator.index(value)
    if low is not None and value < low:
        raise InvalidParam(f"{name}={value} must be >= {low}")
    return value


def as_number(value, name: str) -> float:
    """``value`` as a float; a bool or anything without ``__float__`` raises InvalidParam."""
    if isinstance(value, (bool, np.bool_)) or not hasattr(value, "__float__"):
        raise InvalidParam(f"{name} must be a number, got {value!r}")
    return float(value)


def as_labels(values, name: str) -> np.ndarray:
    """``values`` as a 1-D int array: an integer dtype, or floats that are
    whole numbers.  Anything else (1.5, NaN, a string, a bool, 2-D) raises
    InvalidParam rather than being truncated."""
    a = np.asarray(values)
    if a.ndim == 1 and a.dtype.kind in "iu":
        return a.astype(int, copy=False)
    # NaN, +-Inf and floats beyond int64 fail the bound
    whole = a.dtype.kind == "f" and np.all(np.abs(a) < 2.0**63) and np.all(a == np.floor(a))
    if a.ndim == 1 and whole:
        return a.astype(int)
    raise InvalidParam(f"{name} must be a 1-D array of whole numbers")


# The n-sized GEMMs pad with zeros to whole multiples of ROW_ALIGN rows
# (the scan's centers, the Gram matrix) and COL_ALIGN columns (the points
# of the scan and of both fills, through aligned_matmul).  OpenBLAS splits
# a product between its threads and finishes ragged edges with other
# micro-kernels, so an unaligned shape (100 rows, 5113 columns) gives other
# last bits on 2 threads than on 1, and a center other bits in a block of
# another size.  On a 2-core host only 1 against 2 threads could be tested.
ROW_ALIGN, COL_ALIGN = 8, 32


def round_up(count: int, multiple: int) -> int:
    return -(-count // multiple) * multiple


def aligned_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write a @ b into ``out``: its whole COL_ALIGN columns straight from one
    GEMM, the ragged tail through a zero-padded COL_ALIGN-wide copy of b's
    last columns.  Returns ``out``."""
    n = b.shape[1]
    whole = n - n % COL_ALIGN
    if whole:
        np.matmul(a, b[:, :whole], out=out[:, :whole])
    if whole < n:
        tail = np.zeros((b.shape[0], COL_ALIGN))
        tail[:, : n - whole] = b[:, whole:]
        out[:, whole:] = (a @ tail)[:, : n - whole]
    return out


def _signs(values: np.ndarray) -> np.ndarray:
    """np.sign with 0 read as +1, so multiplying by it never zeroes a column."""
    signs = np.sign(values)
    signs[signs == 0] = 1.0
    return signs


def flip_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive.

    ``vectors`` is one (d, l) matrix or a stack (..., d, l), each matrix
    flipped on its own.  This is the sign convention used for every
    singular/eigen vector the package returns; it makes results
    comparable across code paths.
    """
    return vectors * _largest_signs(vectors)


def _largest_signs(vectors: np.ndarray) -> np.ndarray:
    """The sign of each column's largest-magnitude entry (the first one on
    a tie; +1 for a zero column), shaped (..., 1, l) to multiply by.

    That entry is the column's maximum or its minimum, so no temporary
    of the size of ``vectors`` is made and a caller can flip in place.
    """
    hi = np.argmax(vectors, axis=-2)[..., None, :]
    lo = np.argmin(vectors, axis=-2)[..., None, :]
    top = np.take_along_axis(vectors, hi, axis=-2)
    bottom = np.take_along_axis(vectors, lo, axis=-2)
    low_wins = (-bottom > top) | ((-bottom == top) & (lo < hi))
    return _signs(np.where(low_wins, bottom, top))


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


# relative inertia change at which Lloyd sweeps stop, and the most sweeps
# a kmeans restart takes
_KMEANS_TOL = 1e-6
_KMEANS_MAX_ITER = 100


def _sweeps(points, x_sq, centers, max_iter):
    """Up to ``max_iter`` Lloyd sweeps that move ``centers`` in place.

    A sweep assigns every point, stops if the inertia changed by at most
    ``_KMEANS_TOL`` relative to the last sweep's, and otherwise moves each
    center to the mean of its points.  Returns (labels, mins, converged):
    the last assignment and whether the tol test stopped the sweeps.  Only
    then have the centers not moved since that assignment.
    """
    m, k = points.shape[0], centers.shape[0]
    labels = np.empty(m, dtype=np.intp)
    mins = np.empty(m)
    prev = math.inf
    for _ in range(max_iter):
        _assign(points, x_sq, centers, labels, mins)
        inertia = float(mins.sum())
        if math.isfinite(prev) and abs(prev - inertia) <= _KMEANS_TOL * max(prev, 1e-300):
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


def _lloyd(points, k, rng):
    """One seeded Lloyd run: (labels, centers, inertia, converged)."""
    x_sq = (points**2).sum(axis=1)
    centers = _kmeanspp(points, x_sq, k, rng)
    labels, mins, converged = _sweeps(points, x_sq, centers, _KMEANS_MAX_ITER)
    if not converged:
        _assign(points, x_sq, centers, labels, mins)
    return labels, centers, float(mins.sum()), converged


def _kmeans_points(points, k):
    """(points, k) checked: ``as_points``, a count k >= 1, and k <= n."""
    pts, k = as_points(points), as_integer(k, "k", 1)
    if pts.shape[0] < k:
        raise DegenerateInput(f"{pts.shape[0]} points cannot fill {k} clusters")
    return pts, k


# k-means seeds on at most max(_SAMPLE_FLOOR, _ROWS_PER_CENTER * k) rows
# (``sample_rows``).  Twenty rows per center is the order of candidates
# per center that oversampled seeding (k-means||) reclusters; for k-means
# landmarks at 8 per landmark with no floor (3 200 rows) the mean
# sigma-auto rate on the 24 datasets of kmeans-landmarks benchmark seeds
# 0-5 fell from 0.929 to 0.895.  Up to the floor every row is used, which
# keeps the paper benchmark's shapes (n <= 1625) and small data on all
# their points.
_SAMPLE_FLOOR = 4096
_ROWS_PER_CENTER = 20


def sample_rows(points: np.ndarray, k: int, seed):
    """The rows that k-means with k centers seeds on, and the seed of that fit.

    Above cap = max(_SAMPLE_FLOOR, _ROWS_PER_CENTER * k) rows: cap
    distinct rows drawn uniformly from the first stream of
    ``split(seed, 2)``, kept in index order, and the second stream.  At or
    below the cap: ``points`` itself and ``seed``.
    """
    n = points.shape[0]
    cap = max(_SAMPLE_FLOOR, _ROWS_PER_CENTER * k)
    if n <= cap:
        return points, seed
    draw, fit = split(seed, 2)
    return points[np.sort(make_rng(draw).choice(n, cap, replace=False))], fit


def _warn_unconverged(what: str):
    log.warning(
        "k-means did not converge: %s stopped after %d sweeps "
        "with relative inertia change above tol=%.1e",
        what,
        _KMEANS_MAX_ITER,
        _KMEANS_TOL,
    )


def kmeans(
    points: np.ndarray,
    k: int,
    seed=0,
    restarts: int = 1,
):
    """Lloyd's algorithm with kmeans++ seeding, seeded on a row sample.

    The seeding and the restarts run on ``sample_rows(points, k, seed)``:
    every point up to cap = max(4096, 20 k) points, else cap distinct rows
    drawn uniformly (Bradley and Fayyad, ICML 1998).  Each restart
    iterates until the relative inertia change drops below
    ``_KMEANS_TOL`` or ``_KMEANS_MAX_ITER`` sweeps; the lowest-inertia
    restart wins (child streams are spawned, not reused).  On a sample,
    the winner's centroids then take Lloyd sweeps over all points under
    the same stopping rule, so labels, centroids and inertia are those of
    the full data.  Each phase that stops at ``_KMEANS_MAX_ITER`` logs one
    warning naming it: how many restarts (and on how large a sample), or
    the refinement over all points.  Each sweep assigns the points in row
    blocks, so its temporary memory is O(block * k), not O(n * k).
    Clusters emptied by an update are re-seeded at the point farthest
    from its current centroid.  Deterministic for a given seed.

    On the large-n benchmark datasets of seeds 0 and 7 (n = 105 000,
    k = 5, 3 restarts, 2 cores) a call took 27-78 ms against 134-377 ms
    with every restart over all points, and rates matched to 4 decimals.

    Returns (labels, centroids, inertia); every point is assigned to its
    nearest returned centroid.
    """
    restarts = as_integer(restarts, "restarts", 1)
    pts, k = _kmeans_points(points, k)
    rows, fit = sample_rows(pts, k, seed)
    best, unconverged = None, 0
    for child in split(fit, restarts):
        *run, converged = _lloyd(rows, k, make_rng(child))
        unconverged += not converged
        if best is None or run[2] < best[2]:
            best = tuple(run)
    if unconverged:
        sample = "" if rows is pts else f" on a {rows.shape[0]}-row sample"
        _warn_unconverged(f"{unconverged} of {restarts} restarts{sample}")
    if rows is pts:
        return best
    x_sq = (pts**2).sum(axis=1)
    centers = best[1]
    labels, mins, converged = _sweeps(pts, x_sq, centers, _KMEANS_MAX_ITER)
    if not converged:
        _assign(pts, x_sq, centers, labels, mins)
        _warn_unconverged(f"the refinement over all {pts.shape[0]} points")
    return labels, centers, float(mins.sum())


def kmeans_centers(points: np.ndarray, k: int, seed, sweeps: int) -> np.ndarray:
    """Centroids of ``kmeans(points, k, seed)`` stopped after ``sweeps``
    Lloyd sweeps in place of ``_KMEANS_MAX_ITER``, with every point.

    On at most ``sample_rows``' cap of points, the same kmeans++ seeds
    from the same stream and the same Lloyd sweeps, bit for bit, but only
    the centroids: no assignment pass after the last update, and no
    warning when ``sweeps`` runs out before the inertia settles, for
    callers that cap the sweeps on purpose.  Above the cap nothing is
    sampled; a caller that wants the sample draws it with ``sample_rows``.
    """
    pts, k = _kmeans_points(points, k)
    x_sq = (pts**2).sum(axis=1)
    centers = _kmeanspp(pts, x_sq, k, make_rng(split(seed, 1)[0]))
    _sweeps(pts, x_sq, centers, sweeps)
    return centers
