"""Landmark selection and local flat fitting.

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
Landmarks are fitted in blocks whose gathered neighborhoods take about
1 MiB.  One GEMM per block fills the distance rows of its landmarks; each
row is cut at a threshold from a strided sample of it, and only the
points at or below the cut are partitioned and sorted, unless fewer
than the neighborhood size survive, when every point is.  The
neighborhoods are exact: the nearest points sorted by (distance, index),
so equal distances go to the lower index.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, InvalidParam
from .kernels import AffineFlat, SubspaceKernel, flat_distance_matrix
from .linalg import check_finite, flip_signs, kmeans_centers
from .rng import make_rng, split

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

# Entries of one block's gathered neighborhoods (1 MiB of float64): the
# centers are fitted this many neighborhood entries at a time
_BLOCK_ENTRIES = 2**17

# Entries of one block's distance rows (16 MiB of float64): a block holds
# at most this many, or _ROW_ALIGN rows when one row is longer
_DIST_ENTRIES = 2**21

# Rows per step of the (d, n) copy of the points, small enough to stay in
# cache: a whole-array transpose of a tall n x d array takes about twice
# as long
_TRANSPOSE_ROWS = 2048

# The distance GEMMs of the neighborhood gather take whole multiples of
# _ROW_ALIGN center rows and _COL_ALIGN point columns: at ragged edges
# OpenBLAS gives other last bits on 2 threads than on 1, and other bits
# for a center in a block of another size
_ROW_ALIGN, _COL_ALIGN = 8, 32

# A distance row is cut at the _SAMPLE_RANK-th smallest entry of every
# stride-th point, with the stride set so that about twice the
# neighborhood size falls at or below the cut
_SAMPLE_RANK = 64

# Lloyd sweeps after kmeans++ seeding for "kmeans" landmarks, which only
# need to cover the data.  Mean clustering rate on the 48 datasets of
# kmeans-landmarks benchmark seeds 0-11 (n = 31 500, K = 400), by sweeps:
# 0: 0.914, 1: 0.908, 2: 0.929, 3: 0.940, 5: 0.935, converged: 0.941.
# Three is the fewest within 0.002 of converged on these tuning seeds;
# converged takes 36-46 sweeps of about 45 ms each at that size.  On
# other seeds, 3 sweeps against converged: 51-62 0.933 / 0.934, 41-50
# 0.945 / 0.968 (see CHANGES.md).
_LANDMARK_SWEEPS = 3


@dataclass(frozen=True)
class LandmarkConfig:
    """Settings for building a SubspaceKernel spec from data.

    n_landmarks: number of flats D.
    flat_dim: dimension l of each fitted flat.
    method: "random" (sample data points) or "kmeans" (kmeans++ seeds
        refined by a few Lloyd sweeps; see ``select_landmarks``).
    init_neighbors: smallest neighborhood size S; default 2 * (l + 1).
    max_scales: number of neighborhood doublings T; default
        min(8, ceil(log2(n / S)) + 1), clamped to at least 1.
    sigma: kernel bandwidth; None selects the sampled-median rule.
    linear: force flats through the origin (base = 0).
    """

    n_landmarks: int
    flat_dim: int
    method: str = "random"
    init_neighbors: int | None = None
    max_scales: int | None = None
    sigma: float | None = None
    linear: bool = False

    def __post_init__(self):
        if self.n_landmarks < 1:
            raise InvalidParam(f"n_landmarks={self.n_landmarks} must be >= 1")
        if self.flat_dim < 1:
            raise InvalidParam(f"flat_dim={self.flat_dim} must be >= 1")
        if self.method not in ("random", "kmeans"):
            raise InvalidParam(f"unknown landmark method {self.method!r}")
        if self.init_neighbors is not None and self.init_neighbors < self.flat_dim + 1:
            raise InvalidParam(
                f"init_neighbors={self.init_neighbors} must be >= flat_dim + 1"
            )
        if self.max_scales is not None and self.max_scales < 1:
            raise InvalidParam(f"max_scales={self.max_scales} must be >= 1")
        if self.sigma is not None and not (
            math.isfinite(self.sigma) and self.sigma > 0
        ):
            raise InvalidParam(f"sigma={self.sigma} must be positive")

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
    """
    pts = check_finite(points, "points")
    if pts.ndim != 2:
        raise InvalidParam("points must be 2-D")
    n = pts.shape[0]
    if count < 1:
        raise InvalidParam(f"count={count} must be >= 1")
    if count > n:
        raise InvalidParam(f"cannot select {count} landmarks from {n} points")
    if method == "random":
        idx = make_rng(seed).choice(n, size=count, replace=False)
        return pts[idx]
    if method == "kmeans":
        return kmeans_centers(pts, count, seed, _LANDMARK_SWEEPS)
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


def _local_scores(hood, sizes, flat_dim, linear):
    """Score the nested prefixes ``sizes`` of every neighborhood in ``hood``.

    ``hood`` is a (b, m_max, d) stack of distance-sorted neighborhoods,
    already shifted to their nearest point when the flats are affine.
    Returns (scores, positive, solved, sums, fits): (b, T) scores (0 where
    the prefix has zero total variance), which totals are positive and
    which scores ``eigvalsh`` computed, the (b, T, d) prefix sums, and per
    size the stack the winners' bases come from: the centered (b, m, d)
    prefixes when m < d, the (b, d, d) scatters otherwise.

    The sizes are scored smallest first.  A size whose ``_score_bounds``
    lies more than ``_PRUNE_WINDOW * d`` above the center's best score so
    far can neither win nor tie, so its eigenvalues are not taken and its
    score holds the bound instead.
    """
    b, _, d = hood.shape
    count = len(sizes)
    totals, bounds = np.empty((b, count)), np.empty((b, count))
    sums, fits, mats = np.empty((b, count, d)), [None] * count, [None] * count
    first, start = np.zeros((b, d)), 0
    for t, size in enumerate(sizes):
        first = first + hood[:, start:size].sum(axis=1)
        sums[:, t], start = first, size

    # m < d: the scatter has rank below d, and its nonzero eigenvalues are
    # those of the m x m Gram matrix, whose trailing m - l sum the residual
    small = [t for t, size in enumerate(sizes) if size < d]
    for t in small:
        size = sizes[t]
        prefix = hood[:, :size]
        if not linear:
            prefix = prefix - sums[:, t, None] / size
        mats[t] = np.matmul(prefix, prefix.transpose(0, 2, 1))
        totals[:, t] = np.trace(mats[t], axis1=1, axis2=2)
        bounds[:, t] = _score_bounds(mats[t], totals[:, t], flat_dim)
        fits[t] = prefix

    # m >= d: the sizes are nested prefixes of one order, so their second
    # moments accumulate one block product per step
    large = [t for t, size in enumerate(sizes) if size >= d]
    if large:
        scatters = np.empty((b, len(large), d, d))
        second, start = np.zeros((b, d, d)), 0
        for j, t in enumerate(large):
            blk = hood[:, start : sizes[t]]
            second = second + np.matmul(blk.transpose(0, 2, 1), blk)
            scatters[:, j], start = second, sizes[t]
        if not linear:
            counts = np.asarray([sizes[t] for t in large], dtype=float)
            s = sums[:, large]
            scatters -= s[..., :, None] * s[..., None, :] / counts[:, None, None]
        totals[:, large] = np.trace(scatters, axis1=2, axis2=3)
        bounds[:, large] = _score_bounds(scatters, totals[:, large], flat_dim)
        for j, t in enumerate(large):
            fits[t] = mats[t] = scatters[:, j]

    # scores overwrite the bounds where eigvalsh runs: a pruned size keeps its bound
    positive, scores = totals > 0.0, bounds
    solved = np.empty((b, count), dtype=bool)
    best = np.full(b, np.inf)
    for t, mat in enumerate(mats):
        rows = solved[:, t] = ~(bounds[:, t] > best + _PRUNE_WINDOW * d)
        if rows.any():
            residual = np.linalg.eigvalsh(mat[rows])[:, : mat.shape[-1] - flat_dim].sum(axis=1)
            score = np.zeros(len(residual))
            np.divide(residual, totals[rows, t], out=score, where=positive[rows, t])
            scores[rows, t] = score
        best = np.minimum(best, scores[:, t])
    return scores, positive, solved, sums, fits


def _top_directions(fit, flat_dim):
    """Top ``flat_dim`` directions (``flip_signs`` convention) of one fit:
    the thin SVD of an m x d neighborhood with m < d, else ``eigh`` of a
    d x d scatter."""
    if fit.shape[0] < fit.shape[1]:
        return flip_signs(np.linalg.svd(fit, full_matrices=False)[2][:flat_dim].T)
    return flip_signs(np.linalg.eigh(fit)[1][:, ::-1][:, :flat_dim])


def _round_up(count, multiple):
    return -(-count // multiple) * multiple


def _scan_layout(pts):
    """(pts_t, x_sq): the points as one (d, w) array for the distance
    GEMMs, w being n rounded up to a multiple of _COL_ALIGN, and the
    squared norms of its columns.  The pad columns are zero; ``_gather``
    reads no distance past the first n."""
    n, d = pts.shape
    pts_t = np.empty((d, _round_up(n, _COL_ALIGN)))
    for lo in range(0, n, _TRANSPOSE_ROWS):
        hi = min(n, lo + _TRANSPOSE_ROWS)
        pts_t[:, lo:hi] = pts[lo:hi].T
    pts_t[:, n:] = 0.0
    return pts_t, np.einsum("ij,ij->j", pts_t, pts_t)


def _gather(pts, pts_t, x_sq, centers, dists, out):
    """Write the nearest ``out.shape[1]`` points of each center into
    ``out``, sorted by (distance, index).

    One GEMM fills the distance rows of all ``centers`` into ``dists``,
    the center rows padded with zero rows to a multiple of _ROW_ALIGN.
    Each row is cut at the _SAMPLE_RANK-th smallest distance of every
    stride-th point; only the candidates at or below the cut are
    partitioned and sorted.  The nearest points are among them whenever
    at least ``size`` survive; when fewer do, every point is a candidate.
    """
    n, d = pts.shape
    size = out.shape[1]
    rows = dists[: _round_up(len(centers), _ROW_ALIGN)]
    lhs = np.zeros((len(rows), d))
    np.multiply(centers, -2.0, out=lhs[: len(centers)])
    # |x|^2 - 2 x.c orders points as |x - c|^2 does; |c|^2 is left out
    np.matmul(lhs, pts_t, out=rows)
    rows = rows[: len(centers)]
    rows += x_sq
    stride = max(1, size // (_SAMPLE_RANK // 2))
    for row, hood in zip(rows, out):
        row = row[:n]
        sample = row[::stride]
        cand = None
        if stride > 1 and sample.size >= _SAMPLE_RANK:
            cut = np.partition(sample, _SAMPLE_RANK - 1)[_SAMPLE_RANK - 1]
            cand = np.flatnonzero(row <= cut)
        if cand is None or cand.size < size:
            cand = np.arange(n)
        # every candidate up to the size-th smallest distance, in index
        # order, so the stable sort sends equal distances to the lower index
        vals = row[cand]
        keep = cand[vals <= np.partition(vals, size - 1)[size - 1]]
        nearest = keep[np.argsort(row[keep], kind="stable")[:size]]
        np.take(pts, nearest, axis=0, out=hood)


def _fit_ladders(pts, centers, sizes, flat_dim, linear):
    """Fit the ladder ``sizes`` around every center, a block of centers at a time.

    Returns (scores, wins, flats): the (c, T) scores, the index of each
    center's chosen size and the AffineFlat stack of the winners, written
    into one (c, d) base and one (c, d, l) basis array.  Each step is
    either per center or a stacked operation that treats each center
    alike, so a flat has the same bits whichever block it lands in.

    A block holds about _BLOCK_ENTRIES of gathered neighborhoods and at
    most _DIST_ENTRIES of distance rows (at least _ROW_ALIGN rows).  Its
    neighborhoods come from ``_gather``: one GEMM of the block's centers
    against a (d, n) copy of the points whose width is padded to a
    multiple of _COL_ALIGN, with the center rows padded to a multiple of
    _ROW_ALIGN, so each distance has the same bits on any BLAS thread
    count and in any block.
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
    width = pts_t.shape[1]
    m_max = local[-1] if local else 0
    dist_rows = max(_ROW_ALIGN, _DIST_ENTRIES // width // _ROW_ALIGN * _ROW_ALIGN)
    step = max(1, min(_BLOCK_ENTRIES // max(1, m_max * d), dist_rows))
    hood = np.empty((min(step, len(centers)), m_max, d))
    dists = np.empty((_round_up(len(hood), _ROW_ALIGN), width))
    bases, frames = np.empty((len(centers), d)), np.empty((len(centers), d, flat_dim))
    taken = 0
    for lo in range(0, len(centers), step):
        block = centers[lo : lo + step]
        rows, buf = slice(lo, lo + len(block)), hood[: len(block)]
        if local:
            _gather(pts, pts_t, x_sq, block, dists, buf)
        if local and not linear:
            # relative to the nearest point, so a neighborhood of identical
            # points has exactly zero scatter and the centering cancels little
            origin = buf[:, 0].copy()
            buf -= origin[:, None]
        score, pos, solved, sums, fits = _local_scores(buf, local, flat_dim, linear)
        scores[rows, : len(local)], positive[rows, : len(local)] = score, pos
        taken += int(solved.sum())
        score = scores[rows]
        wins[rows] = np.argmax(score <= score.min(axis=1, keepdims=True) + _TIE_TOL * d, axis=1)
        for i, (center, t) in enumerate(zip(block, wins[rows])):
            j = lo + i
            if not positive[j, t]:
                log.warning(
                    "neighborhood around %s has zero variance; returning axis-aligned flat",
                    np.array2string(center, precision=3),
                )
                bases[j] = 0.0 if linear else center
                frames[j] = np.eye(d)[:, :flat_dim]
            elif t == len(local):
                if shared_basis is None:
                    shared_basis = _top_directions(shared_scatter, flat_dim)
                bases[j], frames[j] = shared_base, shared_basis
            else:
                bases[j] = 0.0 if linear else origin[i] + sums[i, t] / local[t]
                frames[j] = _top_directions(fits[t][i], flat_dim)
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
      their second moments accumulate block by block;
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
    logs at DEBUG how many ladder eigen-solves it took and skipped.  The winner's basis is its top l
    directions (``flip_signs`` convention): from the thin SVD of the
    m x d neighborhood when m < d, else from ``eigh`` of its scatter.
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
    fitted in blocks whose gathered neighborhoods take about 1 MiB
    (``_BLOCK_ENTRIES``), at least one center per block.  One GEMM per
    block scans the points for all of its centers; each distance row is
    cut at a threshold taken from a strided sample of it, so only about
    twice the largest local size is partitioned and sorted, and a row
    whose cut keeps too few points falls back to all n.  Each step
    treats every center of a block alike and the GEMM's shapes are
    aligned, so a flat is bit-identical whatever block, call or BLAS
    thread count it lands in.
    """
    pts = check_finite(points, "points")
    if pts.ndim != 2:
        raise InvalidParam("points must be 2-D")
    n, d = pts.shape
    centers = np.ascontiguousarray(check_finite(centers, "centers"))
    if centers.ndim != 2 or centers.shape[1] != d:
        raise InvalidParam(
            f"centers shape {centers.shape} does not match data in R^{d}"
        )
    if not 1 <= flat_dim <= d:
        raise InvalidParam(f"flat_dim={flat_dim} not in [1, {d}]")
    if init_neighbors < flat_dim + 1:
        raise InvalidParam("init_neighbors must be >= flat_dim + 1")
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


def default_sigma(points: np.ndarray, flats, seed=0, max_pairs: int = 10_000) -> float:
    """Median point-to-flat distance, floored at 1e-6.

    ``flats`` is an AffineFlat stack or a sequence of flats.  Exact when
    n * D <= max_pairs; otherwise the median of ``max_pairs`` uniformly
    sampled (point, flat) pairs, one flat at a time.  An empty ``flats``
    raises InvalidParam.
    """
    pts = check_finite(points, "points")
    n, count = pts.shape[0], len(flats)
    if n * count <= max_pairs:
        sample = flat_distance_matrix(flats, pts).ravel()
    else:
        rng = make_rng(seed)
        pt_idx = rng.integers(n, size=max_pairs)
        flat_idx = rng.integers(count, size=max_pairs)
        sample = np.empty(max_pairs)
        for k in np.unique(flat_idx):
            sel = flat_idx == k
            sample[sel] = flat_distance_matrix(flats[k : k + 1], pts[pt_idx[sel]])[0]
    return max(float(np.median(sample)), 1e-6)


def fit_subspace_kernel(
    points: np.ndarray, centers: np.ndarray, config: LandmarkConfig, sigma_seed=0
) -> SubspaceKernel:
    """Fit the local flat at each landmark and resolve sigma into a spec.

    The neighborhood ladder comes from ``config.resolve_scales(n)``;
    sigma is ``config.sigma``, or ``default_sigma`` drawn with
    ``sigma_seed`` when the config leaves it to the data.
    """
    init_neighbors, max_scales = config.resolve_scales(len(points))
    flats = best_fit_flats(
        points, centers, config.flat_dim, max_scales, init_neighbors, linear=config.linear
    )
    sigma = config.sigma
    if sigma is None:
        sigma = default_sigma(points, flats, seed=sigma_seed)
    return SubspaceKernel(sigma=sigma, flats=flats)


def build_subspace_spec(points: np.ndarray, config: LandmarkConfig, seed=0) -> SubspaceKernel:
    """Select landmarks, fit their local flats, resolve sigma.

    Always returns a spec with exactly ``config.n_landmarks`` flats;
    duplicated data points can produce duplicated flats, which is fine.
    Its two streams are the first two of ``rng.split(seed, 4)``, so on the
    same points and seed it is the spec ``fls_cluster`` builds.
    """
    pts = check_finite(points, "points")
    if pts.ndim != 2:
        raise InvalidParam("points must be 2-D")
    select_seed, sigma_seed = split(seed, 2)
    centers = select_landmarks(pts, config.n_landmarks, config.method, select_seed)
    return fit_subspace_kernel(pts, centers, config, sigma_seed)


def landmark_flat_pool(points: np.ndarray, flat_dim: int, config: LandmarkConfig | None = None):
    """Local best-fit flat at every data point, as one AffineFlat stack.

    The pool defines an empirical flat distribution that can be sampled
    with replacement, which is how i.i.d. subspace-kernel specs of any
    size (including references far larger than n) are drawn for the
    verification suite.
    """
    pts = check_finite(points, "points")
    cfg = config or LandmarkConfig(n_landmarks=1, flat_dim=flat_dim)
    init_neighbors, max_scales = cfg.resolve_scales(pts.shape[0])
    return best_fit_flats(pts, pts, flat_dim, max_scales, init_neighbors, linear=cfg.linear)
