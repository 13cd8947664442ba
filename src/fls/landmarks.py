"""Landmark selection and local flat fitting.

Landmarks are either points sampled from the data or k-means centroids.
Around each landmark a best-fit flat is chosen over a ladder of k-NN
neighborhood sizes S, 2S, 4S, ...  The sizes are nested prefixes of one
distance-sorted neighborhood, so their second moments are accumulated
block by block in O(m_max d^2), and one batched ``eigvalsh`` scores every
size by the fraction of variance its best l-flat fails to explain.  The
lowest score wins, with scores within roundoff (about d * eps) of it tied
and ties going to the smallest neighborhood; only the winner is
eigendecomposed for its basis.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, InvalidParam
from .kernels import AffineFlat, SubspaceKernel, flat_distance_matrix
from .linalg import check_finite, flip_signs, kmeans
from .rng import make_rng, split

log = logging.getLogger(__name__)

# eigvalsh resolves a residual share only to about d * eps; shares within
# _TIE_TOL * d of the lowest are ties
_TIE_TOL = 16 * np.finfo(float).eps


@dataclass(frozen=True)
class LandmarkConfig:
    """Settings for building a SubspaceKernel spec from data.

    n_landmarks: number of flats D.
    flat_dim: dimension l of each fitted flat.
    method: "random" (sample data points) or "kmeans" (centroids).
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

    "random" draws distinct data points uniformly without replacement;
    "kmeans" returns k-means centroids (which need not be data points).
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
        _, centers, _ = kmeans(pts, count, seed=seed)
        return centers
    raise InvalidParam(f"unknown landmark method {method!r}")


def _fit_ladder(pts, x_sq, center, sizes, flat_dim, linear):
    """Score every ladder size around one center from nested second moments.

    Returns (scores, win, base, scatter): per-size scores (0 where the
    neighborhood has zero total variance), the index of the chosen size,
    the chosen flat's base and its (d, d) scatter, or None for base and
    scatter when the chosen neighborhood has zero variance.
    """
    n, d = pts.shape
    # |x|^2 - 2 x.c orders points as |x - c|^2 does; the constant |c|^2 is left out
    dists = pts @ center
    dists *= -2.0
    dists += x_sq
    largest = sizes[-1]
    if largest < n:
        nearest = np.argpartition(dists, largest - 1)[:largest]
        order = nearest[np.argsort(dists[nearest], kind="stable")]
    else:
        order = np.argsort(dists, kind="stable")
    hood = pts[order]
    if not linear:
        # relative to the nearest point, so a neighborhood of identical
        # points has exactly zero scatter and the centering cancels little
        origin = hood[0].copy()
        hood -= origin

    # the sizes are nested prefixes of one order: one block product per step
    moments = np.empty((len(sizes), d, d))
    sums = np.empty((len(sizes), d))
    second, first, start = np.zeros((d, d)), np.zeros(d), 0
    for t, size in enumerate(sizes):
        blk = hood[start:size]
        second = second + blk.T @ blk
        first = first + blk.sum(axis=0)
        moments[t], sums[t], start = second, first, size
    if not linear:
        counts = np.asarray(sizes, dtype=float)
        moments -= sums[:, :, None] * sums[:, None, :] / counts[:, None, None]

    totals = np.trace(moments, axis1=1, axis2=2)
    residuals = np.linalg.eigvalsh(moments)[:, : d - flat_dim].sum(axis=1)
    positive = totals > 0.0
    scores = np.zeros(len(sizes))
    np.divide(residuals, totals, out=scores, where=positive)
    win = int(np.flatnonzero(scores <= scores.min() + _TIE_TOL * d)[0])
    if not positive[win]:
        return scores, win, None, None
    base = np.zeros(d) if linear else origin + sums[win] / sizes[win]
    return scores, win, base, moments[win]


def best_fit_flats(
    points: np.ndarray,
    centers: np.ndarray,
    flat_dim: int,
    max_scales: int,
    init_neighbors: int,
    linear: bool = False,
) -> list:
    """Best local flat at each row of ``centers``; one AffineFlat per center.

    Candidate neighborhood sizes are min(round(S * 2^j), n) for
    j = 0..T-1, the k nearest points of the center.  They are nested
    prefixes of one sorted order, so their second moments accumulate
    block by block, and one batched ``eigvalsh`` scores them all: the
    score is the trailing (d - l) share of the scatter's eigenvalue
    mass.  Scores within about d * eps of the lowest are roundoff ties
    and go to the smallest neighborhood.  The winner's basis is the top
    l eigenvectors of its scatter (``flip_signs`` convention) and its
    base the neighborhood centroid.  A neighborhood with zero total
    variance scores 0 and yields a coordinate-axis flat through the
    center (logged, since the basis carries no information).

    With ``linear`` the fit is the best linear subspace instead: the
    moments are uncentered and the returned flat passes through the
    origin.  Centered fitting would waste one basis direction
    re-deriving the radial component that sphere-mapped subspace data
    already contains.

    Each center is fitted on its own, so a flat does not depend on
    which other centers share the call.
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
    x_sq = np.einsum("ij,ij->i", pts, pts)
    flats = []
    for center in centers:
        _, _, base, scatter = _fit_ladder(pts, x_sq, center, sizes, flat_dim, linear)
        if scatter is None:
            log.warning(
                "neighborhood around %s has zero variance; returning axis-aligned flat",
                np.array2string(center, precision=3),
            )
            base = np.zeros(d) if linear else center.copy()
            flats.append(AffineFlat(base=base, basis=np.eye(d)[:, :flat_dim]))
            continue
        eigvecs = np.linalg.eigh(scatter)[1]
        basis = flip_signs(eigvecs[:, ::-1][:, :flat_dim])
        flats.append(AffineFlat(base=base, basis=basis))
    return flats


def best_fit_flat(
    points: np.ndarray,
    center: np.ndarray,
    flat_dim: int,
    max_scales: int,
    init_neighbors: int,
    linear: bool = False,
) -> AffineFlat:
    """Best local flat at one ``center``: ``best_fit_flats`` on a single row.

    Bit-identical to the corresponding entry of a batched call.
    """
    center = check_finite(center, "center")
    if center.ndim != 1:
        raise InvalidParam(f"center shape {center.shape} must be 1-D")
    return best_fit_flats(
        points, center[None], flat_dim, max_scales, init_neighbors, linear=linear
    )[0]


def default_sigma(points: np.ndarray, flats, seed=0, max_pairs: int = 10_000) -> float:
    """Median point-to-flat distance, floored at 1e-6.

    Exact when n * D <= max_pairs; otherwise the median of ``max_pairs``
    uniformly sampled (point, flat) pairs.
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
            row = flat_distance_matrix([flats[k]], pts[pt_idx[sel]])
            sample[sel] = row[0]
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
    return SubspaceKernel(sigma=sigma, flats=tuple(flats))


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
    """Local best-fit flat at every data point.

    The pool defines an empirical flat distribution that can be sampled
    with replacement, which is how i.i.d. subspace-kernel specs of any
    size (including references far larger than n) are drawn for the
    verification suite.
    """
    pts = check_finite(points, "points")
    cfg = config or LandmarkConfig(n_landmarks=1, flat_dim=flat_dim)
    init_neighbors, max_scales = cfg.resolve_scales(pts.shape[0])
    return tuple(
        best_fit_flats(pts, pts, flat_dim, max_scales, init_neighbors, linear=cfg.linear)
    )
