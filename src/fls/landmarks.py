"""Landmark selection, local flat fitting and the default bandwidth.

Landmarks are either points sampled from the data or k-means centroids.
Around each landmark a best-fit flat is chosen over a ladder of k-NN
neighborhood sizes S, 2S, 4S, ...; each size is scored by the fraction
of variance its best l-flat fails to explain.  The sizes are nested
prefixes of one distance-sorted neighborhood.  A size m < d is scored
from the m x m Gram matrix of its neighborhood; the sizes m >= d get
their second moments accumulated block by block in O(m_max d^2); a size
that holds all n points is the same for every landmark and is fitted
once.  The smallest size is scored by ``eigvalsh``; each larger one only
where a lower bound on its score from the trace and Frobenius norm of
its matrix shows it could still win, which on the R^80 benchmark model
skips about 98 % of the 80 x 80 eigen-solves.  The lowest score wins, with
scores within roundoff (about d * eps) of it tied and ties going to the
smallest neighborhood; only the winner is decomposed for its basis.
Landmarks are fitted in blocks.  The distance rows of a block's
landmarks are filled 8 at a time, one GEMM each, into one 8-row buffer;
each row is cut at a threshold from a strided sample of it, and only the
points at or below the cut are partitioned and sorted, unless fewer than
the neighborhood size survive, when every point is.  The neighborhoods
are exact: the nearest points sorted by (distance, index), so equal
distances go to the lower index.  A block
keeps only their indices and reads the points of each band of sizes
(m_{j-1}, m_j] in sub-chunks of a row count set by d alone (at least
512 rows up to d = 16, 64 in R^80), scoring each size as soon as its
moments are summed, so it never holds a whole neighborhood or a stack
of scatters.  A block takes as many landmarks, in whole multiples of 8
where that many fit, as have about 2 MiB of that working set (one band
sub-chunk and four d x d arrays each): 104 in R^6, 40 in R^10, 32 in
R^20 and 8 in R^80, where one neighborhood alone would take 1 MiB.  The
winners' bases are taken with one stacked decomposition per winning
size of a block.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, DimensionMismatch, InvalidParam
from .kernels import AffineFlat, _check_sigma, _stack_flats
from .linalg import (
    COL_ALIGN,
    ROW_ALIGN,
    as_integer,
    as_points,
    check_finite,
    flip_signs,
    kmeans_centers,
    round_up,
    sample_rows,
)
from .rng import make_rng

log = logging.getLogger(__name__)

# eigvalsh resolves a residual share only to about d * eps from a d x d
# scatter and m * eps <= d * eps from an m x m Gram matrix; shares within
# _TIE_TOL * d of the lowest are ties
_EPS = np.finfo(float).eps
_TIE_TOL = 16 * _EPS

# A ladder size is skipped when its certified lower bound lies more than
# _PRUNE_WINDOW * d above the best score so far: one _TIE_TOL * d is the
# tie window, the other covers the eigvalsh error of the skipped score
# (the premise of _TIE_TOL) and the roundoff of the bound's last few
# operations, a few sqrt(d) * eps
_PRUNE_WINDOW = 2 * _TIE_TOL

# 1 MiB of float64: a block of centers holds twice this many entries of
# working set (see _block_centers), and default_sigma gathers its pairs
# this many basis entries at a time
_BLOCK_ENTRIES = 2**17

# Entries of one sub-chunk of a neighborhood band (64 KiB of float64):
# a band's second moments are summed over chunks of the largest power of
# two of rows that fits (_chunk_rows).  Up to d = 16 a chunk holds at
# least 512 rows, so each band of the benchmark ladders (at most 448
# rows) is one product; from d = 17 on it holds at most 256, below the
# depths 384 < k < 768 that OpenBLAS splits differently on one thread
# and on several
_CHUNK_ENTRIES = 2**13

# Rows per step of the (d, n) copy of the points, small enough to stay in
# cache: a whole-array transpose of a tall n x d array takes about twice
# as long
_TRANSPOSE_ROWS = 2048

# (point, flat) pairs whose median default_sigma takes
_SIGMA_PAIRS = 10_000

# A distance row is cut at the _SAMPLE_RANK-th smallest entry of every
# stride-th point, with the stride set so that about twice the
# neighborhood size falls at or below the cut
_SAMPLE_RANK = 64

# Lloyd sweeps after kmeans++ seeding for "kmeans" landmarks, which only
# need to cover the data.  Mean clustering rate on the 48 datasets of
# kmeans-landmarks benchmark seeds 0-11 (n = 31 500, K = 400), by sweeps
# over all 31 500 points: 0: 0.914, 1: 0.908, 2: 0.929, 3: 0.940, 5:
# 0.935, converged: 0.941.  Three is the fewest within 0.002 of
# converged on these tuning seeds; converged takes 36-46 sweeps of about
# 45 ms each at that size.  On other seeds, 3 sweeps against converged:
# 51-62 0.933 / 0.934, 41-50 0.945 / 0.968 (see CHANGES.md).  At that
# shape the row sample (``linalg.sample_rows``) holds 8 000 of the points.
_LANDMARK_SWEEPS = 3

@dataclass(frozen=True)
class LandmarkConfig:
    """Settings of ``fls_cluster``'s landmarks, flats and sigma stages;
    the defaults, with ``fls_cluster``'s, are the reference configuration.

    n_landmarks: number of flats D.
    flat_dim: dimension l of each fitted flat.
    method: "kmeans" (kmeans++ seeds refined by a few Lloyd sweeps, on a
        uniform sample of max(4096, 20 * n_landmarks) rows when n is
        larger; see ``select_landmarks``) or "random" (sample data points).
    init_neighbors: smallest neighborhood size S; default 2 * (l + 1).
    max_scales: number of neighborhood doublings T; default
        min(8, ceil(log2(n / S)) + 1), clamped to at least 1.
    sigma: kernel bandwidth; None selects the sampled-median rule.
    linear: flats through the origin (base = 0); False fits affine flats.
    """

    n_landmarks: int
    flat_dim: int
    method: str = "kmeans"
    init_neighbors: int | None = None
    max_scales: int | None = None
    sigma: float | None = 0.3
    linear: bool = True

    def __post_init__(self):
        for name in ("n_landmarks", "flat_dim"):
            object.__setattr__(self, name, as_integer(getattr(self, name), name, 1))
        for name, low in (("init_neighbors", self.flat_dim + 1), ("max_scales", 1)):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, as_integer(getattr(self, name), name, low))
        if self.method not in ("random", "kmeans"):
            raise InvalidParam(f"unknown landmark method {self.method!r}")
        if self.sigma is not None:
            object.__setattr__(self, "sigma", _check_sigma(self.sigma))

    def resolve_scales(self, n: int) -> tuple[int, int]:
        """Concrete (S, T) for a dataset of n points."""
        s = self.init_neighbors or 2 * (self.flat_dim + 1)
        t = self.max_scales
        if t is None:
            t = min(8, math.ceil(math.log2(max(n, 1) / s)) + 1)
        return s, max(1, t)


def select_landmarks(points: np.ndarray, count: int, method: str = "random", seed=0):
    """Pick ``count`` landmark locations.

    "random" draws distinct data points uniformly without replacement.
    "kmeans" returns kmeans++ seeds refined by ``_LANDMARK_SWEEPS`` Lloyd
    sweeps (``linalg.kmeans_centers``; fewer if the sweeps converge
    first), so the centroids need not be data points.  The budget is
    the design, so stopping at it logs no warning: landmarks only need
    to cover the data.  The clustering rate is not the same as with
    converged centroids: on the kmeans-landmarks benchmark it moves by
    up to 0.1 per seed either way, and its mean fell 0.001 over seeds
    51-62 and 0.023 over seeds 41-50, within the benchmark's rate bound.

    Above cap = max(4096, 20 * count) points the centroids are fitted on
    a sample (``linalg.sample_rows``, the rule of the final k-means):
    cap distinct rows, drawn uniformly from the first stream of
    ``split(seed, 2)`` and kept in index order, with the second stream
    seeding the fit.  Its cost then follows count, not n; at or
    below the cap every point is used with ``seed`` itself.  Five-plane
    model in R^10 with the reference settings and sigma = 0.3: at
    n = 1.05e6, D = 200 the stage took 0.03 s against 6.1-6.3 s on all
    points, and the rates of two fits went 0.9801 -> 0.9797 and
    0.9819 -> 0.9816; at n = 1.05e5, D = 400 it took 0.07 s against
    0.89-0.97 s, with rates within 0.0004 over four fits.
    """
    pts, count = as_points(points), as_integer(count, "count", 1)
    n = pts.shape[0]
    if count > n:
        raise InvalidParam(f"cannot select {count} landmarks from {n} points")
    if method == "random":
        idx = make_rng(seed).choice(n, size=count, replace=False)
        return pts[idx]
    if method == "kmeans":
        rows, fit = sample_rows(pts, count, seed)
        return kmeans_centers(rows, count, fit, _LANDMARK_SWEEPS)
    raise InvalidParam(f"unknown landmark method {method!r}")


def _shared_rung(pts, flat_dim, linear):
    """Score, base and scatter of the all-points neighborhood.

    Every center shares it, so it is scored once per call; the score is
    0 when the points have zero total variance.
    """
    d = pts.shape[1]
    base = np.zeros(d) if linear else pts.mean(axis=0)
    centered = pts if linear else pts - base
    scatter = centered.T @ centered
    total = np.trace(scatter)
    if not total > 0.0:
        return 0.0, base, scatter
    return np.linalg.eigvalsh(scatter)[: d - flat_dim].sum() / total, base, scatter


def _score_bounds(mats, totals, flat_dim):
    """Certified lower bounds on the scores of the r x r matrices ``mats``.

    With tau the trace (``totals``), phi the squared Frobenius norm and T
    the sum of the top l eigenvalues, Cauchy-Schwarz on the top l and on
    the other r - l gives phi >= T^2 / l + (tau - T)^2 / (r - l).  The
    larger root of that quadratic bounds T, so the trailing share
    1 - T / tau is at least ((r - l) - sqrt(l (r - l) (rho - 1))) / r with
    rho = r phi / tau^2 >= 1.  The bound falls as rho grows, so rho may
    err high but never low:
    - it is taken (r + 2)^2 eps high, which covers the roundoff of
      phi / tau^2: r^2 rounded squares of quotients by a trace of r
      entries; near rho = 1 the square root would turn that roundoff
      into far more than eps;
    - phi / tau^2 is summed from the entries divided by tau, so neither
      squares nor tau^2 overflow or underflow at any scale of the data;
    - the Frobenius norm of the full matrix is at least that of its
      symmetric part, so any asymmetry of ``mats`` only lowers the bound.
    Where tau is not positive the score is 0, and the bound is -inf.
    ``mats`` may be any stack (..., r, r) with ``totals`` of shape (...).
    """
    r = mats.shape[-1]
    rest = r - flat_dim
    pos = totals > 0.0
    unit = mats / np.where(pos, totals, 1.0)[..., None, None]
    rho = r * np.einsum("...ij,...ij->...", unit, unit) * (1.0 + (r + 2) ** 2 * _EPS)
    bounds = (rest - np.sqrt(flat_dim * rest * np.maximum(rho - 1.0, 0.0))) / r
    return np.where(pos, bounds, -np.inf)


def _chunk_rows(d):
    """Rows per sub-chunk of a band: the largest power of two whose rows
    hold at most _CHUNK_ENTRIES entries, and at least one row."""
    return 1 << (max(1, _CHUNK_ENTRIES // d).bit_length() - 1)


def _take_rows(pts, near, origin, out):
    """Points ``near`` (b, k) into ``out`` (b, k, d), or a new array when
    ``out`` is None, minus ``origin`` (b, d) when the flats are affine
    (``origin`` None: linear)."""
    # the indices are in range; mode="raise" would copy through a buffer
    out = pts.take(near, axis=0, out=out, mode="clip")
    if origin is not None:
        out -= origin[:, None]
    return out


def _band_moments(pts, near, origin, sizes, first):
    """Second moments of the nested prefixes ``sizes[first:]`` of the
    neighborhoods ``near``, one size at a time.

    Yields (t, second, band, spare) for t = first, first + 1, ...:
    ``second`` the (b, d, d) sum of x x^T over the first sizes[t] rows,
    ``band`` the (b, d) sum of the rows in (sizes[t - 1], sizes[t]]
    (None for linear flats, which need no sums: ``origin`` None), and
    ``spare`` a (b, d, d) buffer free until the next step, when
    ``second`` is updated in place.  The rows are read in sub-chunks of
    ``_chunk_rows(d)`` rows per band, in an order fixed by ``sizes`` and
    d alone, so a center's moments have the same bits whichever other
    centers share its stack.
    """
    b, d = len(near), pts.shape[1]
    length = _chunk_rows(d)
    buf = np.empty(b * min(length, sizes[-1]) * d)
    second, spare = np.zeros((b, d, d)), np.empty((b, d, d))
    start = 0
    for t in range(first, len(sizes)):
        low, band = sizes[t - 1] if t else 0, None
        for lo in range(start, sizes[t], length):
            hi = min(sizes[t], lo + length)
            out = buf[: b * (hi - lo) * d].reshape(b, -1, d)
            chunk = _take_rows(pts, near[:, lo:hi], origin, out)
            second += np.matmul(chunk.transpose(0, 2, 1), chunk, out=spare)
            if origin is not None and hi > low:
                part = chunk[:, max(lo, low) - lo :].sum(axis=1)
                band = part if band is None else band + part
        yield t, second, band, spare
        start = sizes[t]


def _centered(second, sums, size, out):
    """The scatter second - s s^T / size of a stack, written into ``out``."""
    np.multiply(sums[:, :, None], sums[:, None, :], out=out)
    out /= size
    return np.subtract(second, out, out=out)


def _local_scores(pts, near, origin, sizes, flat_dim, linear):
    """Score the nested prefixes ``sizes`` of every neighborhood ``near``.

    ``near`` is a (b, m_max) array of distance-sorted neighbor indices;
    ``origin`` (b, d) is the nearest point of each, which the rows of
    affine flats are shifted to (None for linear flats).  Returns
    (scores, positive, solved, sums, last): (b, T) scores (0 where the
    prefix has zero total variance), which totals are positive and which
    scores ``eigvalsh`` computed, the (b, T, d) prefix sums of affine
    flats (None for linear ones, which need none) and the (b, d, d)
    scatters of the largest size (None when it is below d).

    The sizes are scored smallest first, each as soon as its matrix is
    formed.  A size whose ``_score_bounds`` lies more than
    ``_PRUNE_WINDOW * d`` above the center's best score so far can
    neither win nor tie, so its eigenvalues are not taken and its score
    holds the bound instead.
    """
    b, d = len(near), pts.shape[1]
    count = len(sizes)
    totals, scores = np.empty((b, count)), np.empty((b, count))
    solved, sums = np.empty((b, count), dtype=bool), None if linear else np.empty((b, count, d))
    best = np.full(b, np.inf)

    def score(t, mat):
        # the score overwrites the bound where eigvalsh runs: a pruned size keeps its bound
        total = totals[:, t] = mat.trace(axis1=1, axis2=2)
        scores[:, t] = _score_bounds(mat, total, flat_dim)
        rows = solved[:, t] = ~(scores[:, t] > best + _PRUNE_WINDOW * d)
        if rows.any():
            mat, total = (mat, total) if rows.all() else (mat[rows], total[rows])
            residual = np.linalg.eigvalsh(mat)[:, : mat.shape[-1] - flat_dim].sum(axis=1)
            share = np.zeros(len(residual))
            np.divide(residual, total, out=share, where=total > 0.0)
            scores[rows, t] = share
        np.minimum(best, scores[:, t], out=best)

    # m < d: the scatter has rank below d, and its nonzero eigenvalues are
    # those of the m x m Gram matrix, whose trailing m - l sum the residual
    small = sum(size < d for size in sizes)
    prefix = _take_rows(pts, near[:, : sizes[small - 1] if small else 0], origin, None)
    first, start = np.zeros((b, d)), 0
    for t, size in enumerate(sizes[:small]):
        rows = prefix[:, :size]
        if not linear:
            first = first + prefix[:, start:size].sum(axis=1)
            sums[:, t], start = first, size
            rows = rows - sums[:, t, None] / size
        score(t, np.matmul(rows, rows.transpose(0, 2, 1)))
    prefix = rows = None  # not held while the bands are read

    # m >= d: the sizes are nested prefixes of one order, so their second
    # moments accumulate band by band
    last = None
    for t, second, band, spare in _band_moments(pts, near, origin, sizes, small):
        if not linear:
            first = first + band
            sums[:, t] = first
            second = _centered(second, sums[:, t], sizes[t], spare)
        score(t, second)
        last = second
    return scores, totals > 0.0, solved, sums, last


def _winner_frames(pts, near, origin, sizes, wins, sums, last, flat_dim, out):
    """Write into ``out`` (b, d, l) the basis of each neighborhood at its
    winning size ``wins`` (-1: none), with one stacked ``_top_directions``
    per winning size: of its centered m x d rows when m < d, else of its
    d x d scatter.

    Both are formed as ``_local_scores`` formed them, so they have the
    bits it scored.  The scatters of the largest size are ``last``, the
    ones it ended with; those of the sizes between are summed again by
    ``_band_moments``.  ``origin`` is None for linear flats.
    """
    d = pts.shape[1]
    small, top = sum(size < d for size in sizes), len(sizes) - 1
    for t in range(small):
        at = np.flatnonzero(wins == t)
        if at.size:
            if origin is None:
                rows = _take_rows(pts, near[at, : sizes[t]], None, None)
            else:
                rows = _take_rows(pts, near[at, : sizes[t]], origin[at], None)
                rows -= sums[at, t, None] / sizes[t]
            out[at] = _top_directions(rows, flat_dim)
    if top >= small:
        at = np.flatnonzero(wins == top)
        if at.size:
            out[at] = _top_directions(last[at], flat_dim)
    big = np.flatnonzero((wins >= small) & (wins < top))
    if big.size:
        big_origin = None if origin is None else origin[big]
        steps = _band_moments(pts, near[big], big_origin, sizes[: wins[big].max() + 1], small)
        for t, second, _, _ in steps:
            at = np.flatnonzero(wins[big] == t)
            if at.size:
                mats = second[at]
                if origin is not None:
                    mats = _centered(mats, sums[big[at], t], sizes[t], np.empty_like(mats))
                out[big[at]] = _top_directions(mats, flat_dim)


def _top_directions(fits, flat_dim):
    """Top ``flat_dim`` directions (``flip_signs`` convention) of one fit
    or a stack of them: the thin SVD of m x d neighborhoods with m < d,
    else ``eigh`` of d x d scatters.  A stacked call gives each member the
    bits of its own call."""
    if fits.shape[-2] < fits.shape[-1]:
        vt = np.linalg.svd(fits, full_matrices=False)[2]
        return flip_signs(vt[..., :flat_dim, :].swapaxes(-1, -2))
    return flip_signs(np.linalg.eigh(fits)[1][..., ::-1][..., :flat_dim])


def _scan_layout(pts):
    """(pts_t, x_sq): the points as one (d, w) array for the distance
    GEMMs, w being n rounded up to a multiple of COL_ALIGN, and the
    squared norms of its columns.  The pad columns are zero; ``_gather``
    reads no distance past the first n."""
    n, d = pts.shape
    pts_t = np.empty((d, round_up(n, COL_ALIGN)))
    for lo in range(0, n, _TRANSPOSE_ROWS):
        hi = min(n, lo + _TRANSPOSE_ROWS)
        pts_t[:, lo:hi] = pts[lo:hi].T
    pts_t[:, n:] = 0.0
    return pts_t, np.einsum("ij,ij->j", pts_t, pts_t)


def _gather(pts, pts_t, x_sq, centers, dists, out):
    """Write the indices of the nearest ``out.shape[1]`` points of each
    center into the int array ``out``, sorted by (distance, index).

    The centers are scanned ROW_ALIGN at a time: one GEMM fills their
    distance rows into the first ROW_ALIGN rows of ``dists`` (at least
    (ROW_ALIGN, pts_t.shape[1])), a short last group padded with zero
    rows, so every GEMM has the same shape.  Each row is cut at the
    _SAMPLE_RANK-th smallest distance of every stride-th point; only the
    candidates at or below the cut are partitioned and sorted.  The
    nearest points are among them whenever at least ``size`` survive;
    when fewer do, every point is a candidate.
    """
    n, d = pts.shape
    size = out.shape[1]
    stride = max(1, size // (_SAMPLE_RANK // 2))
    rows, lhs = dists[:ROW_ALIGN], np.empty((ROW_ALIGN, d))
    for lo in range(0, len(centers), ROW_ALIGN):
        group = centers[lo : lo + ROW_ALIGN]
        np.multiply(group, -2.0, out=lhs[: len(group)])
        lhs[len(group) :] = 0.0
        # |x|^2 - 2 x.c orders points as |x - c|^2 does; |c|^2 is left out
        np.matmul(lhs, pts_t, out=rows)
        rows[: len(group)] += x_sq
        for row, near in zip(rows[: len(group)], out[lo : lo + ROW_ALIGN]):
            _nearest(row[:n], size, stride, near)


def _nearest(row, size, stride, near):
    """Write the indices of the ``size`` smallest entries of ``row`` into
    ``near``, sorted by (value, index), candidates cut at a strided sample
    (see ``_gather``)."""
    sample = row[::stride]
    cand = None
    if stride > 1 and sample.size >= _SAMPLE_RANK:
        cut = np.partition(sample, _SAMPLE_RANK - 1)[_SAMPLE_RANK - 1]
        cand = np.flatnonzero(row <= cut)
    if cand is None or cand.size < size:
        cand = np.arange(row.shape[0])
    # every candidate up to the size-th smallest distance, in index
    # order, so the stable sort sends equal distances to the lower index
    vals = row[cand]
    keep = cand[vals <= np.partition(vals, size - 1)[size - 1]]
    near[:] = keep[np.argsort(row[keep], kind="stable")[:size]]


def _block_centers(d, sizes):
    """Centers per block of ``_fit_ladders`` on points in R^d, for the
    local ladder ``sizes``.

    No neighborhood is held whole: per center ``_local_scores`` holds one
    band sub-chunk and four d x d arrays (the running moments, the product
    buffer, the ``_score_bounds`` temporary and the matrices ``eigvalsh``
    takes).  A block takes as many centers as have 2 * _BLOCK_ENTRIES of
    that working set, in whole multiples of ROW_ALIGN when that many fit.
    The distance rows do not count: ``_gather`` scans ROW_ALIGN centers
    at a time, whatever the block.
    """
    m_max = sizes[-1] if sizes else 0
    work = min(_chunk_rows(d), m_max) * d + 4 * d * d
    step = max(1, 2 * _BLOCK_ENTRIES // work)
    if step >= ROW_ALIGN:
        step -= step % ROW_ALIGN  # no zero rows in a full block's GEMM
    return step


def _fit_ladders(pts, centers, sizes, flat_dim, linear):
    """Fit the ladder ``sizes`` around every center, a block of centers at a time.

    Returns (scores, wins, flats): the (c, T) scores, the index of each
    center's chosen size and the AffineFlat stack of the winners, written
    into one (c, d) base and one (c, d, l) basis array.  Each step is
    either per center or a stacked operation that treats each center
    alike, so a flat has the same bits whichever block it lands in.

    A block's size comes from ``_block_centers``.  Its neighborhoods come
    from ``_gather`` as sorted indices: one GEMM per ROW_ALIGN of the
    block's centers against a (d, n) copy of the points, both zero-padded
    to the alignment of ``linalg``, so each distance has the same bits on
    any BLAS thread count and in any block.  Beside the points and that
    copy the scan holds one (ROW_ALIGN, n) buffer of distance rows.  Their rows are read a band
    sub-chunk at a time (``_local_scores``); the bases of winners at sizes
    m >= d below the largest come from their scatters summed again, the
    same way, and are decomposed in one stacked call per winning size
    (``_winner_frames``).
    """
    n, d = pts.shape
    shared = sizes[-1] == n
    local = sizes[:-1] if shared else sizes
    scores = np.empty((len(centers), len(sizes)))
    positive = np.empty(scores.shape, dtype=bool)
    if shared:
        scores[:, -1], shared_base, shared_scatter = _shared_rung(pts, flat_dim, linear)
        positive[:, -1] = np.trace(shared_scatter) > 0.0
        shared_basis = None  # decomposed once, when a center picks this size
    wins = np.empty(len(centers), dtype=int)

    pts_t, x_sq = _scan_layout(pts)
    step = _block_centers(d, local)
    near = np.empty((min(step, len(centers)), local[-1] if local else 0), dtype=np.intp)
    dists = np.empty((ROW_ALIGN, pts_t.shape[1]))
    bases, frames = np.empty((len(centers), d)), np.empty((len(centers), d, flat_dim))
    taken = 0
    for lo in range(0, len(centers), step):
        block = centers[lo : lo + step]
        rows, idx = slice(lo, lo + len(block)), near[: len(block)]
        if local:
            _gather(pts, pts_t, x_sq, block, dists, idx)
            # affine rows are taken relative to the nearest point, so a
            # neighborhood of identical points has exactly zero scatter and
            # the centering cancels little
            origin = None if linear else pts[idx[:, 0]]
            score, pos, solved, sums, last = _local_scores(
                pts, idx, origin, local, flat_dim, linear
            )
            scores[rows, : len(local)], positive[rows, : len(local)] = score, pos
            taken += int(solved.sum())
        score = scores[rows]
        win = np.argmax(score <= score.min(axis=1, keepdims=True) + _TIE_TOL * d, axis=1)
        wins[rows] = win
        varied = positive[rows][np.arange(len(block)), win]
        if local:
            need = np.where(varied & (win < len(local)), win, -1)
            _winner_frames(pts, idx, origin, local, need, sums, last, flat_dim, frames[rows])
            fitted = np.flatnonzero(need >= 0)
            t = need[fitted]
            if linear:
                bases[lo + fitted] = 0.0
            else:
                bases[lo + fitted] = origin[fitted] + sums[fitted, t] / np.take(local, t)[:, None]
        picked = lo + np.flatnonzero(varied & (win == len(local)))
        if picked.size:
            if shared_basis is None:
                shared_basis = _top_directions(shared_scatter, flat_dim)
            bases[picked], frames[picked] = shared_base, shared_basis
        for i in np.flatnonzero(~varied):
            log.warning(
                "neighborhood around %s has zero variance; returning axis-aligned flat",
                np.array2string(block[i], precision=3),
            )
            bases[lo + i] = 0.0 if linear else block[i]
            frames[lo + i] = np.eye(d)[:, :flat_dim]
        last = None  # not held while the next block is scored
    log.debug(
        "ladder eigen-solves: %d taken, %d pruned by the trace/Frobenius bound",
        taken,
        len(centers) * len(local) - taken,
    )
    return scores, wins, AffineFlat(bases, frames)


def best_fit_flats(
    points: np.ndarray,
    centers: np.ndarray,
    flat_dim: int,
    max_scales: int,
    init_neighbors: int,
    linear: bool = False,
) -> AffineFlat:
    """Best local flat at each row of ``centers``, as one AffineFlat stack.

    Candidate neighborhood sizes are min(round(S * 2^j), n) for
    j = 0..T-1, the k nearest points of the center.  The score of a size
    is the trailing share of its scatter's eigenvalue mass that the best
    l-flat leaves out:
    - a size m < d has rank below d, so the score comes from the
      trailing m - l eigenvalues of the m x m Gram matrix of its
      (centered, for affine flats) neighborhood;
    - the sizes m >= d are nested prefixes of one sorted order, so
      their second moments accumulate band by band;
    - a size of all n points is the same neighborhood for every center,
      so its scatter and score are computed once per call, and its
      basis at most once.
    Scores within about d * eps of the lowest are roundoff ties and go
    to the smallest neighborhood.  The local sizes are scored smallest
    first, with a stacked ``eigvalsh`` per size over the centers of a
    block; a size is skipped for a center when a certified lower bound
    on its score, from the trace and squared Frobenius norm of its Gram
    matrix or scatter, lies beyond that center's best score so far plus
    the tie window and a roundoff margin.  Such a size can neither win
    nor tie, so the flats are those of scoring every size.  Each call
    logs at DEBUG how many ladder eigen-solves it took and skipped.  The
    winner's basis is its top l directions (``flip_signs`` convention):
    from the thin SVD of the m x d neighborhood when m < d, else from
    ``eigh`` of its scatter.
    Its base is the neighborhood centroid.  A neighborhood with zero
    total variance scores 0 and yields a coordinate-axis flat through
    the center (logged, since the basis carries no information).

    With ``linear`` the fit is the best linear subspace instead: the
    moments are uncentered and the returned flat passes through the
    origin.  Centered fitting would waste one basis direction
    re-deriving the radial component that sphere-mapped subspace data
    already contains.

    The neighborhoods are the nearest points sorted by (distance,
    index): equal distances go to the lower index.  The centers are
    fitted in blocks (``_block_centers``): as many as have about 2 MiB
    of working set, in whole multiples of 8 where that many fit (40 in
    R^10, 8 in R^80).  The points are scanned for 8 centers at a time,
    one GEMM into one (8, n) buffer of distance rows, however large the
    block; each distance row is cut at a threshold taken from a
    strided sample of it, so only about twice the largest local size is
    partitioned and sorted, and a row whose cut keeps too few points
    falls back to all n.  A block keeps the sorted indices, not the
    points: each band of sizes is read in sub-chunks of a row count
    fixed by d (``_chunk_rows``), and the scatters of winners below the
    largest size are summed again the same way.  The winners of one size
    are decomposed in one stacked call.  Each step treats every center
    of a block alike and the GEMMs' shapes are aligned or fixed, so a
    flat is bit-identical whatever block or call it lands in, and on any
    BLAS thread count for d <= 96 or d a multiple of 8 (beyond that,
    OpenBLAS splits the x^T x products differently between threads).
    """
    pts = as_points(points)
    n, d = pts.shape
    centers = np.ascontiguousarray(check_finite(centers, "centers"))
    if centers.ndim != 2 or centers.shape[1] != d:
        raise InvalidParam(
            f"centers shape {centers.shape} does not match data in R^{d}"
        )
    flat_dim = as_integer(flat_dim, "flat_dim", 1)
    if flat_dim > d:
        raise InvalidParam(f"flat_dim={flat_dim} not in [1, {d}]")
    max_scales = as_integer(max_scales, "max_scales", 1)
    init_neighbors = as_integer(init_neighbors, "init_neighbors", flat_dim + 1)
    if n < init_neighbors:
        raise DegenerateInput(f"need at least {init_neighbors} points, got {n}")

    sizes = sorted({min(int(round(init_neighbors * 2**j)), n) for j in range(max_scales)})
    return _fit_ladders(pts, centers, sizes, flat_dim, linear)[2]


def best_fit_flat(
    points: np.ndarray,
    center: np.ndarray,
    flat_dim: int,
    max_scales: int,
    init_neighbors: int,
    linear: bool = False,
) -> AffineFlat:
    """Best local flat at one ``center``: ``best_fit_flats`` on a single row.

    Bit-identical to the corresponding member of a batched call's stack.
    """
    center = check_finite(center, "center")
    if center.ndim != 1:
        raise InvalidParam(f"center shape {center.shape} must be 1-D")
    return best_fit_flats(
        points, center[None], flat_dim, max_scales, init_neighbors, linear=linear
    )[0]


def default_sigma(points: np.ndarray, flats, seed=0) -> float:
    """Median point-to-flat distance, floored at 1e-6.

    ``flats`` is an AffineFlat stack or a sequence of flats.  Exact when
    n * D <= _SIGMA_PAIRS, over every (point, flat) pair; otherwise the
    median of _SIGMA_PAIRS uniformly sampled pairs.  Either way the pairs
    are gathered in steps of _BLOCK_ENTRIES basis entries.  An empty
    ``flats`` raises InvalidParam, no points DegenerateInput.
    """
    pts, flats = as_points(points), _stack_flats(flats)
    if pts.shape[1] != flats.ambient:
        raise DimensionMismatch(f"points in R^{pts.shape[1]}, flats in R^{flats.ambient}")
    n, count = pts.shape[0], len(flats)
    if n == 0:
        raise DegenerateInput("default_sigma needs at least one point")
    if n * count <= _SIGMA_PAIRS:
        pt_idx, flat_idx = np.divmod(np.arange(n * count), count)
    else:
        rng = make_rng(seed)
        pt_idx = rng.integers(n, size=_SIGMA_PAIRS)
        flat_idx = rng.integers(count, size=_SIGMA_PAIRS)
    sample, step = np.empty(len(pt_idx)), max(1, _BLOCK_ENTRIES // flats.basis[0].size)
    for lo in range(0, len(pt_idx), step):
        pair = slice(lo, lo + step)
        diff = pts[pt_idx[pair]] - flats.base[flat_idx[pair]]
        proj = np.einsum("pdl,pd->pl", flats.basis[flat_idx[pair]], diff)
        sample[pair] = np.einsum("pd,pd->p", diff, diff) - np.einsum("pl,pl->p", proj, proj)
    return max(float(np.median(np.sqrt(np.maximum(sample, 0.0)))), 1e-6)


def landmark_flat_pool(points: np.ndarray, flat_dim: int):
    """Local best-fit flat at every data point, as one AffineFlat stack.

    The pool defines an empirical flat distribution that can be sampled
    with replacement, which is how i.i.d. subspace-kernel specs of any
    size (including references far larger than n) are drawn for the
    verification suite.  The neighborhood ladder is the default one of
    ``LandmarkConfig.resolve_scales``.
    """
    pts = as_points(points)
    config = LandmarkConfig(n_landmarks=1, flat_dim=flat_dim)
    init_neighbors, max_scales = config.resolve_scales(pts.shape[0])
    return best_fit_flats(pts, pts, flat_dim, max_scales, init_neighbors)
