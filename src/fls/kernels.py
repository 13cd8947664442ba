"""Randomized feature maps for integral kernels.

A kernel of the form k(x1, x2) = integral of f(x1, y) f(x2, y) dmu(y) is
approximated by sampling D parameters y_1..y_D from mu and stacking

    psi(x) = (1 / sqrt(D)) * [f(x, y_1), ..., f(x, y_D)]^T,

so that psi(x1)^T psi(x2) is a D-sample Monte Carlo estimate of k.  Three
feature families share this interface:

- GaussianRFF: f(x, (w, t)) = sqrt(2) cos(w^T x + t) with Gaussian
  frequencies and uniform phases; the kernel is exp(-|x1-x2|^2/(2 sigma^2)).
- LandmarkGaussian: Gaussian bumps centered at landmark points.
- SubspaceKernel: f(x, L) = exp(-dist(x, L)^2 / sigma^2) for affine flats
  L, the family behind landmark subspace clustering.  Its D flats share
  one ambient and one flat dimension, so a spec holds them as one
  AffineFlat stack, base (D, d) and basis (D, d, l), and every
  point-to-flat distance comes from that stack.

Flat and bump features are filled block by block into one (D, n) array,
by one of two routines.  The projected fill (``_projected_fill``)
projects every point on every frame; the lifted fill (``_lifted_fill``)
writes -d2 / sigma^2 as one GEMM of per-flat quadratic-form coefficients
with the points' monomials.  ``_lifted_wins(d, l)`` picks the cheaper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DenseLimitExceeded, DimensionMismatch, InvalidParam
from .linalg import (
    COL_ALIGN, AffineFlat, aligned_matmul, as_integer, as_number, as_points, check_finite,
    haar_frames,
)
from .rng import make_rng


def _check_sigma(sigma):
    """A bandwidth as a positive finite float (``linalg.as_number``)."""
    sigma = as_number(sigma, "sigma")
    if not math.isfinite(sigma) or sigma <= 0.0:
        raise InvalidParam(f"sigma={sigma} must be positive and finite")
    return sigma


@dataclass(frozen=True)
class GaussianRFF:
    """Cosine features: frequencies (D, d) ~ N(0, sigma^-2 I), phases (D,)."""

    sigma: float
    frequencies: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "sigma", _check_sigma(self.sigma))
        freqs = check_finite(self.frequencies, "frequencies")
        phases = check_finite(self.phases, "phases")
        if freqs.ndim != 2 or phases.ndim != 1 or freqs.shape[0] != phases.shape[0]:
            raise InvalidParam(
                f"shapes disagree: frequencies {freqs.shape}, phases {phases.shape}"
            )
        if freqs.shape[0] < 1:
            raise InvalidParam("need at least one feature")
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "phases", phases)

    @property
    def n_features(self) -> int:
        return self.frequencies.shape[0]

    @property
    def dim(self) -> int:
        return self.frequencies.shape[1]


@dataclass(frozen=True)
class LandmarkGaussian:
    """Gaussian bump features with normalizer (2 pi sigma^2)^(-d/2)."""

    sigma: float
    centers: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "sigma", _check_sigma(self.sigma))
        centers = check_finite(self.centers, "centers")
        if centers.ndim != 2 or centers.shape[0] < 1:
            raise InvalidParam(f"centers must be a nonempty 2-D array, got {centers.shape}")
        object.__setattr__(self, "centers", centers)

    @property
    def n_features(self) -> int:
        return self.centers.shape[0]

    @property
    def dim(self) -> int:
        return self.centers.shape[1]


def _stack_flats(flats):
    """``flats`` as one nonempty AffineFlat stack: a stack passes through
    unchanged, a sequence of single flats of one shape is stacked once."""
    if not isinstance(flats, AffineFlat):
        flats = tuple(flats)
        if not all(isinstance(f, AffineFlat) and not f.stacked for f in flats):
            raise InvalidParam("flats must be single AffineFlat instances")
        shapes = {f.basis.shape for f in flats}
        if len(shapes) > 1:
            raise DimensionMismatch(
                f"flat bases of shapes {sorted(shapes)} in one stack: "
                "every flat needs the same ambient and flat dimension"
            )
        if not flats:
            raise InvalidParam("need at least one flat")
        flats = AffineFlat(np.stack([f.base for f in flats]), np.stack([f.basis for f in flats]))
    if not flats.stacked or len(flats) < 1:
        raise InvalidParam("need a stack of at least one flat")
    return flats


@dataclass(frozen=True)
class SubspaceKernel:
    """Flat-distance features f(x, L) = exp(-dist(x, L)^2 / sigma^2).

    ``flats`` is one AffineFlat stack, base (D, d) and basis (D, d, l),
    which the embedding reads.  A sequence of single flats is stacked
    once at construction; every flat must then have the same ambient and
    flat dimension (DimensionMismatch otherwise).
    """

    sigma: float
    flats: AffineFlat

    def __post_init__(self):
        object.__setattr__(self, "sigma", _check_sigma(self.sigma))
        object.__setattr__(self, "flats", _stack_flats(self.flats))

    @property
    def n_features(self) -> int:
        return len(self.flats)

    @property
    def dim(self) -> int:
        return self.flats.ambient


FeatureSpec = GaussianRFF | LandmarkGaussian | SubspaceKernel


@dataclass(frozen=True)
class EmbeddingMatrix:
    """Feature embedding of a dataset, stored as a D x n array.

    Column i is psi(x_i); the 1/sqrt(D) scaling is already applied, so
    data.T @ data is the approximate kernel matrix.
    """

    data: np.ndarray

    def __post_init__(self):
        data = as_points(self.data, "embedding")
        object.__setattr__(self, "data", data)

    @property
    def n_features(self) -> int:
        return self.data.shape[0]

    @property
    def n_points(self) -> int:
        return self.data.shape[1]


def sample_gaussian_rff(sigma: float, n_features: int, dim: int, seed=0) -> GaussianRFF:
    """Draw frequencies ~ N(0, sigma^-2 I_d) and phases ~ U[0, 2 pi)."""
    sigma = _check_sigma(sigma)
    n_features, dim = as_integer(n_features, "n_features", 1), as_integer(dim, "dim", 1)
    rng = make_rng(seed)
    freqs = rng.normal(0.0, 1.0 / sigma, size=(n_features, dim))
    phases = rng.uniform(0.0, 2.0 * math.pi, size=n_features)
    return GaussianRFF(sigma=sigma, frequencies=freqs, phases=phases)


def haar_frame_batch(dim: int, flat_dim: int, count: int, seed=0) -> np.ndarray:
    """(count, dim, flat_dim) stack of Haar-distributed orthonormal frames,
    drawn by ``linalg.haar_frames`` from the ``seed`` stream."""
    dim, flat_dim = as_integer(dim, "dim"), as_integer(flat_dim, "flat_dim")
    if not 1 <= flat_dim < dim:
        raise InvalidParam(f"flat_dim={flat_dim} not in [1, {dim - 1}]")
    return haar_frames(make_rng(seed), (as_integer(count, "count", 1), dim, flat_dim))


# Entries of one column block of the projected fill's temporaries: the
# (D l, m) frame projection and its (D, m) row sums together (2 MiB of
# float64).  Every GEMM runs whole COL_ALIGN columns (``aligned_matmul``),
# so a block's width does not move the bits.
_PROJ_ENTRIES = 2**18

# Entries of one column block of the result when there is no projection
# (Gaussian bumps, l = 0): a pass's width only, nothing else is held.
_BUMP_ENTRIES = 4_000_000


def _projected_fill(bases, frames, pts, scale, norm=1.0):
    """New (D, n) array of norm * exp(-d2 / scale), d2 the squared distance
    from every point to every flat of one stack: the projected fill.

    It serves the Gaussian point bumps and the subspace stacks for which
    ``_lifted_wins(d, l)`` is false (high d: the R^80 reference model).
    ``bases`` (D, d) and ``frames`` (D, d, l) hold the D flats; l may be
    0 (a point is a flat of dimension 0).  Then

        d2 = (|x|^2 - 2 b.x + |b|^2) - |F^T x - F^T b|^2

    is clipped at zero, negated, divided by ``scale``, exponentiated and
    multiplied by ``norm``, all in place.  It runs one column block of
    m points at a time (whole ``linalg.COL_ALIGN`` columns, at least
    one): one ``aligned_matmul`` of the bases written straight into the
    result, one of the frames.  For l >= 1, m = 2^18 // (D (l + 1)), so
    beside the result only the (D l, m) projection and its (D, m) row
    sums exist, 2 MiB together (more only when one COL_ALIGN block is
    larger, D (l + 1) > 8192); bumps hold neither and take 4e6 // D.
    """
    n, d = pts.shape
    g, l = frames.shape[0], frames.shape[2]
    out = np.empty((g, n))
    x_sq = (pts**2).sum(axis=1)
    entries, per_column = (_PROJ_ENTRIES, g * (l + 1)) if l else (_BUMP_ENTRIES, g)
    chunk = max(COL_ALIGN, entries // max(1, per_column) // COL_ALIGN * COL_ALIGN)
    width = min(chunk, n)
    base_proj = np.einsum("gdl,gd->gl", frames, bases)[:, :, None]
    b_sq = (bases**2).sum(axis=1)[:, None]
    stacked = frames.transpose(0, 2, 1).reshape(g * l, d)
    proj_buf = np.empty(g * l * width)
    sq_buf = np.empty(g * width if l else 0)
    for s in range(0, n, chunk):
        e = min(n, s + chunk)
        m = e - s
        dest = out[:, s:e]
        if l:
            proj = proj_buf[: g * l * m].reshape(g * l, m)
            proj = aligned_matmul(stacked, pts[s:e].T, proj).reshape(g, l, m)
            proj -= base_proj
            np.square(proj, out=proj)
            sq = np.sum(proj, axis=1, out=sq_buf[: g * m].reshape(g, m))
        aligned_matmul(bases, pts[s:e].T, dest)
        dest *= -2.0
        dest += x_sq[s:e]
        dest += b_sq
        if l:
            dest -= sq
        np.clip(dest, 0.0, None, out=dest)
        np.negative(dest, out=dest)
        dest /= scale
        np.exp(dest, out=dest)
        if norm != 1.0:
            dest *= norm
    return out


# Entries of one lifted monomial block (8 MiB of float64).
_LIFT_ENTRIES = 2**20

# Entries the lifted fill's minimum and exp cover per call (512 KiB): a
# piece the GEMM wrote is clipped and exponentiated while it is in cache.
_PASS_ENTRIES = 2**16

# The branch rule's one constant: the price, in multiply-adds of a GEMM,
# of the projected fill's elementwise work per feature entry and per unit
# of l + 8.  Fitted to lifted / projected fill-time crossovers at D = 100,
# n = 2e4 on a 2-core x86-64 host (AVX-512, OpenBLAS on 2 threads): for
# l = 1, 2, 3, 5, 7, 10 the two tie near d = 20, 24, 25, 30, 34, 45, and
# the rule's boundary q - d l = 27 (l + 8) falls within two steps of d of
# each.  Bench shapes: (6, 2) 0.30, (10, 2) 0.40, (10, 6) 0.20, (20, 7)
# 0.42 of the projected time, (80, 7) 4.6 times it.
_PASS_COST = 27


def _lifted_wins(d, l):
    """True when the lifted fill is the cheaper one for l-flats in R^d.

    The lifted GEMM costs q = d(d+1)/2 + d + 1 multiply-adds per feature
    entry; the projected fill costs d l of them plus elementwise passes
    priced at ``_PASS_COST`` (l + 8).  A pure function of (d, l), so one
    spec always takes one branch: the five-plane workloads (d = 10, l = 2)
    and the R^6, R^10 and R^20 reference models take the lifted fill, the
    R^80 model (l = 7) the projected one.
    """
    q = d * (d + 1) // 2 + d + 1
    return l >= 1 and q < d * l + _PASS_COST * (l + 8)


def _lifted_coefficients(bases, frames, scale, shift):
    """(D, q) matrix C with C @ [x_i, x_i x_j (i <= j), 1] = shift - d2 / scale.

    d2 = (x - b)^T P (x - b) with P = I - F F^T, so its linear part is
    -2 P b, its quadratic part vech(P) with off-diagonal entries doubled
    and its constant b^T P b.
    """
    d = bases.shape[1]
    proj = np.eye(d) - frames @ frames.transpose(0, 2, 1)
    rows, cols = np.triu_indices(d)
    quad = proj[:, rows, cols]
    quad[:, rows != cols] *= 2.0
    pb = np.einsum("gij,gj->gi", proj, bases)
    const = np.einsum("gi,gi->g", bases, pb)[:, None]
    coef = np.concatenate([-2.0 * pb, quad, const], axis=1)
    coef *= -1.0 / scale
    coef[:, -1] += shift
    return coef


def _lift_monomials(x, lift):
    """Write the monomials [x_i, x_i x_j (i <= j), 1] of the (m, d) points
    ``x`` into the first m columns of ``lift``, shape (q, >= m)."""
    m, d = x.shape
    lin = lift[:d, :m]
    lin[...] = x.T
    lift[-1, :m] = 1.0
    row = d
    for i in range(d):
        np.multiply(lin[i], lin[i:], out=lift[row : row + d - i, :m])
        row += d - i


def _lifted_fill(flats, pts, scale, shift=0.0):
    """New (D, n) array of exp(shift - d2 / scale), d2 the squared distance
    from every point to every flat of a stack with l >= 1.

    d2 is a quadratic polynomial in x, so one column block of features is
    one ``aligned_matmul`` of the (D, q) coefficients
    (``_lifted_coefficients``) with the block's (q, m) lifted monomials,
    written straight into the result; a minimum at ``shift`` (d2 >= 0)
    and one exp complete it in place, ``_PASS_ENTRIES`` entries at a time.
    Linear flats leave out the d rows of x_i terms, which are zero.
    Beside the result only the coefficients and one monomial block of at
    most ``_LIFT_ENTRIES`` entries exist.
    """
    n, d = pts.shape
    coef = _lifted_coefficients(flats.base, flats.basis, scale, shift)
    q = coef.shape[1]
    if not flats.base.any():
        coef = np.ascontiguousarray(coef[:, d:])
    used = slice(q - coef.shape[1], q)
    chunk = max(COL_ALIGN, _LIFT_ENTRIES // q // COL_ALIGN * COL_ALIGN)
    lift_buf = np.empty(q * min(chunk, n))
    out = np.empty((len(flats), n))
    for s in range(0, n, chunk):
        e = min(n, s + chunk)
        m = e - s
        lift = lift_buf[: q * m].reshape(q, m)
        _lift_monomials(pts[s:e], lift)
        aligned_matmul(coef, lift[used], out[:, s:e])
        rows = max(1, _PASS_ENTRIES // m)
        for r in range(0, len(flats), rows):
            piece = out[r : r + rows, s:e]
            np.minimum(piece, shift, out=piece)
            np.exp(piece, out=piece)
    return out


def _gaussian_bumps(centers, pts, sigma, norm=1.0):
    """norm * exp(-|x - c|^2 / (2 sigma^2)): the projected fill of 0-flats at ``centers``."""
    frames = np.empty(centers.shape + (0,))
    return _projected_fill(centers, frames, pts, 2.0 * sigma**2, norm)


def _spec_points(spec, points):
    pts = as_points(points)
    if pts.shape[1] != spec.dim:
        raise DimensionMismatch(
            f"points in R^{pts.shape[1]} but spec expects R^{spec.dim}"
        )
    return pts


def _takes_lifted_fill(spec):
    return isinstance(spec, SubspaceKernel) and _lifted_wins(spec.dim, spec.flats.dim)


def feature_matrix(spec: FeatureSpec, points) -> np.ndarray:
    """Unscaled feature values f(x_i, y_j), shape (D, n), of an array or DataSet.

    The result is one freshly allocated (D, n) array, filled in place.
    Subspace features take the lifted fill (``_lifted_fill``) when
    ``_lifted_wins(d, l)``, the projected fill (``_projected_fill``)
    otherwise; landmark features take the projected fill with l = 0,
    cosine features one GEMM.  Either fill holds only fixed-size block
    temporaries beside the result: the lifted one a monomial block of at
    most 2^20 entries (8 MiB), the projected one a projection and its
    row sums of at most 2^18 entries (2 MiB) together, nothing for the
    bumps.  embed() scales by 1/sqrt(D); the raw
    values are useful when the per-sample spread matters (standard errors
    of kernel estimates).
    """
    pts = _spec_points(spec, points)
    if isinstance(spec, GaussianRFF):
        out = spec.frequencies @ pts.T
        out += spec.phases[:, None]
        np.cos(out, out=out)
        out *= math.sqrt(2.0)
        return out
    if isinstance(spec, LandmarkGaussian):
        norm = (2.0 * math.pi * spec.sigma**2) ** (-spec.dim / 2.0)
        return _gaussian_bumps(spec.centers, pts, spec.sigma, norm)
    if isinstance(spec, SubspaceKernel):
        if _takes_lifted_fill(spec):
            return _lifted_fill(spec.flats, pts, spec.sigma**2)
        return _projected_fill(spec.flats.base, spec.flats.basis, pts, spec.sigma**2)
    raise InvalidParam(f"unknown feature spec type {type(spec).__name__}")


def embed(spec: FeatureSpec, points) -> EmbeddingMatrix:
    """Feature embedding psi(X) with the 1/sqrt(D) scaling applied.

    Holds one (D, n) array.  On the lifted fill the scaling is folded
    into the exponent (-ln sqrt(D) in the constant coefficient), so the
    peak is that array, the (D, q) coefficients and one monomial block
    of at most 2^20 entries.  Otherwise ``feature_matrix`` fills the
    array block by block and the scaling divides it in place, with one
    projected block's temporaries (at most 2^18 entries, 2 MiB) beside
    it.
    """
    if _takes_lifted_fill(spec):
        shift = -0.5 * math.log(spec.n_features)
        values = _lifted_fill(spec.flats, _spec_points(spec, points), spec.sigma**2, shift)
    else:
        values = feature_matrix(spec, points)
        values /= math.sqrt(spec.n_features)
    return EmbeddingMatrix(data=values)


def gaussian_kernel_matrix(points: np.ndarray, sigma: float) -> np.ndarray:
    """Pairwise exact Gaussian kernel matrix of one point set."""
    pts = as_points(points)
    return _gaussian_bumps(pts, pts, _check_sigma(sigma))


# Largest n of a dense n x n matrix (200 MB of float64), here and in the
# dense clustering oracle of the tests
_DENSE_LIMIT = 5000


def approx_kernel_matrix(spec: FeatureSpec, points) -> np.ndarray:
    """Dense psi(X)^T psi(X), refused above ``_DENSE_LIMIT`` points.

    The result is symmetrized, so it is symmetric exactly and PSD up to
    roundoff.  Meant for verification and small problems; the clustering
    pipeline never forms it.
    """
    pts = as_points(points)
    if pts.shape[0] > _DENSE_LIMIT:
        raise DenseLimitExceeded(f"n={pts.shape[0]} exceeds dense limit {_DENSE_LIMIT}")
    psi = embed(spec, pts).data
    w = psi.T @ psi
    return (w + w.T) / 2.0
