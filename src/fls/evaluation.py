"""Scoring, kernel-approximation verification, and the benchmark harness.

The verify_* functions measure, on concrete data, the guarantees the
randomized embeddings are supposed to satisfy: Monte Carlo error decay
and tail bounds for the kernel estimates, norm bounds on the three terms
of the normalized-matrix perturbation split, stability of the second
eigenvector, and rotation invariance of the uniform-flat kernel.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .cluster import _check_settings, dense_normalized, fls_cluster
from .datagen import SyntheticModel, gen_synthetic
from .errors import DeltaTooLarge, DimensionMismatch, EigengapTooSmall, InvalidParam, PipelineError
from .kernels import (
    AffineFlat,
    LandmarkGaussian,
    SubspaceKernel,
    approx_kernel_matrix,
    embed,
    feature_matrix,
    gaussian_kernel_matrix,
    sample_gaussian_rff,
)
from .landmarks import LandmarkConfig
from .linalg import as_integer, as_labels, as_number, as_points, haar_frames
from .rng import make_rng, split


@dataclass(frozen=True)
class EvalReport:
    """Clustering rate over inliers plus the matching that produced it."""

    rate: float
    permutation: np.ndarray
    confusion: np.ndarray
    n_inliers: int


def _max_assignment(weights):
    """Column of each row in a maximum-weight perfect matching of the
    square ``weights``.

    Shortest augmenting paths with row and column potentials (Kuhn 1955;
    Jonker & Volgenant 1987): rows join one at a time, each along the
    path of least reduced cost -weights[i, j] - u[i] - v[j] from a dummy
    column 0, so the solve takes O(k^3) with one vectorized slack update
    per step.  Among equal slacks the lowest column index is taken.  For
    integer weights every potential is an integer, so the float
    arithmetic is exact.
    """
    k = len(weights)
    cost = np.zeros((k + 1, k + 1))
    cost[1:, 1:] = -weights
    u, v = np.zeros(k + 1), np.zeros(k + 1)
    # match[j]: the row (from 1) on column j, 0 for none; way[j]: the
    # column before j on the current shortest path
    match, way = np.zeros(k + 1, dtype=np.intp), np.zeros(k + 1, dtype=np.intp)
    for row in range(1, k + 1):
        match[0], col = row, 0
        slack = np.full(k + 1, np.inf)
        used = np.zeros(k + 1, dtype=bool)
        while match[col]:
            used[col] = True
            tail = match[col]
            reduced = cost[tail] - u[tail] - v
            closer = ~used & (reduced < slack)
            slack[closer], way[closer] = reduced[closer], col
            col = int(np.argmin(np.where(used, np.inf, slack)))
            delta = slack[col]
            u[match[used]] += delta
            v[used] -= delta
            slack[~used] -= delta
        while col:
            match[col] = match[way[col]]
            col = way[col]
    perm = np.empty(k, dtype=np.intp)
    perm[match[1:] - 1] = np.arange(k)
    return perm


def clustering_rate(pred, truth, outlier_mask=None) -> EvalReport:
    """Fraction of inliers whose predicted cluster matches the truth.

    Outliers (mask true, or truth label -1 when no mask is given) are
    dropped before building the confusion matrix.  Predicted and true
    class sets may differ in size; the confusion matrix is padded square
    and a maximum-diagonal permutation aligns them (an exact assignment
    solve, ``_max_assignment``), so surplus classes simply match nothing.
    Among equal maxima the permutation is the one the solve reaches:
    true classes are matched in sorted order, each along its shortest
    augmenting path, with ties going to the lowest predicted class.
    Labels go through ``linalg.as_labels``.
    """
    pred, truth = as_labels(pred, "pred"), as_labels(truth, "truth")
    if pred.shape != truth.shape:
        raise InvalidParam("pred and truth must be equal-length 1-D arrays")
    if outlier_mask is None:
        outlier_mask = truth == -1
    outlier_mask = np.asarray(outlier_mask, dtype=bool)
    if outlier_mask.shape != truth.shape:
        raise InvalidParam("outlier_mask length does not match labels")
    keep = ~outlier_mask
    n_inliers = int(keep.sum())
    if n_inliers == 0:
        raise InvalidParam("all points are outliers; rate undefined")
    t_classes, t_index = np.unique(truth[keep], return_inverse=True)
    p_classes, p_index = np.unique(pred[keep], return_inverse=True)
    k = max(t_classes.shape[0], p_classes.shape[0])
    confusion = np.bincount(t_index * k + p_index, minlength=k * k).reshape(k, k).astype(float)
    perm = _max_assignment(confusion)
    matched = float(confusion[np.arange(k), perm].sum())
    return EvalReport(
        rate=matched / n_inliers,
        permutation=perm,
        confusion=confusion,
        n_inliers=n_inliers,
    )


# ---------------------------------------------------------------------------
# Kernel families: a sampling distribution plus its exact kernel (closed
# form for rff, the whole finite pool enumerated for PoolFamily).


@dataclass(frozen=True)
class RffFamily:
    sigma: float
    dim: int

    def sample(self, count, seed):
        return sample_gaussian_rff(self.sigma, count, self.dim, seed)

    def exact_matrix(self, points):
        return gaussian_kernel_matrix(points, self.sigma)


@dataclass(frozen=True)
class PoolFamily:
    """Uniform distribution over a finite pool, drawn i.i.d.

    ``kind`` is SubspaceKernel, with ``pool`` an AffineFlat stack
    (``landmark_flat_pool``), or LandmarkGaussian, with ``pool`` a point
    array of bump centers.  Sampling is with replacement, so spec sizes
    may exceed the pool (and the dataset).  exact_matrix enumerates the
    pool, which is the exact kernel under its empirical measure.
    """

    kind: type
    pool: AffineFlat | np.ndarray
    sigma: float

    def __post_init__(self):
        if self.kind not in (SubspaceKernel, LandmarkGaussian):
            raise InvalidParam(f"pool kind {self.kind!r} is not SubspaceKernel or LandmarkGaussian")

    def sample(self, count, seed):
        idx = make_rng(seed).integers(len(self.pool), size=as_integer(count, "count", 1))
        return self.kind(self.sigma, self.pool[idx])

    def exact_matrix(self, points):
        """f^T f / D of the D unscaled features of the whole pool, symmetrized."""
        spec = self.kind(self.sigma, self.pool)
        f = feature_matrix(spec, points)
        w = f.T @ f / spec.n_features
        return (w + w.T) / 2.0


@dataclass(frozen=True)
class ConvergenceRecord:
    count: int
    rep_max_errors: tuple
    rep_mean_errors: tuple
    median_max_error: float


def verify_kernel_convergence(family, points, counts, reps: int = 10, seed=0):
    """Entrywise kernel error over a fixed pair grid, per feature count.

    For each D in ``counts`` draws ``reps`` fresh specs and records the
    max and mean absolute error of psi^T psi against the family's exact
    kernel (``family.exact_matrix``) over all ordered point pairs.  Monte
    Carlo averaging predicts the median max error to shrink like
    1/sqrt(D).
    """
    reps, pts = as_integer(reps, "reps", 1), as_points(points)
    if pts.shape[0] < 1:
        raise InvalidParam("verify_kernel_convergence needs at least one point")
    children = split(seed, len(counts) * reps)
    exact = family.exact_matrix(pts)
    records = []
    for i, count in enumerate(counts):
        maxes, means = [], []
        for r in range(reps):
            spec = family.sample(count, children[i * reps + r])
            psi = embed(spec, pts).data
            err = np.abs(psi.T @ psi - exact)
            maxes.append(float(err.max()))
            means.append(float(err.mean()))
        records.append(
            ConvergenceRecord(
                count=count,
                rep_max_errors=tuple(maxes),
                rep_mean_errors=tuple(means),
                median_max_error=float(np.median(maxes)),
            )
        )
    return records


@dataclass(frozen=True)
class HoeffdingRecord:
    count: int
    eps: float
    empirical: float
    bound: float
    stderr: float
    passed: bool


def hoeffding_check(family, x, y, counts, eps_values, reps: int = 200, seed=0):
    """Empirical tail probability of the kernel estimate vs 2 exp(-D eps^2 / 4).

    Draws ``reps`` independent specs per feature count and measures how
    often |psi(x)^T psi(y) - k(x, y)| >= eps.  Passes when the frequency
    stays within three binomial standard errors of the bound.  ``x`` and
    ``y`` are two 1-D points of one length (DimensionMismatch otherwise).
    Each eps must be positive and finite: at eps = 0 the bound is 2 and
    every check passes.
    """
    reps = as_integer(reps, "reps", 1)
    eps_values = [as_number(eps, "eps") for eps in eps_values]
    if not all(0.0 < eps < math.inf for eps in eps_values):
        raise InvalidParam(f"eps values {eps_values} must be positive and finite")
    if np.ndim(x) != 1 or np.shape(x) != np.shape(y):
        raise DimensionMismatch(f"x and y must be 1-D of one length: {np.shape(x)}, {np.shape(y)}")
    pair = np.vstack([x, y]).astype(float)
    k_true = float(family.exact_matrix(pair)[0, 1])
    children = split(seed, len(counts) * reps)
    records = []
    for i, count in enumerate(counts):
        errs = np.empty(reps)
        for r in range(reps):
            psi = embed(family.sample(count, children[i * reps + r]), pair).data
            errs[r] = abs(float(psi[:, 0] @ psi[:, 1]) - k_true)
        for eps in eps_values:
            frac = float((errs >= eps).mean())
            bound = 2.0 * math.exp(-count * eps**2 / 4.0)
            stderr = math.sqrt(frac * (1.0 - frac) / reps)
            records.append(
                HoeffdingRecord(
                    count=count,
                    eps=eps,
                    empirical=frac,
                    bound=bound,
                    stderr=stderr,
                    passed=frac <= bound + 3.0 * stderr,
                )
            )
    return records


@dataclass(frozen=True)
class PerturbationRecord:
    """Measured norms vs bounds for the normalized-matrix split.

    L - L-hat telescopes into three terms: the degree perturbation acting
    from the left, the kernel estimation error in the middle, and the
    degree perturbation from the right.  Given the measured entrywise
    stats (min entry l, max entry u, relative error delta) the three
    bounds are exact matrix-norm facts.
    """

    n: int
    test_count: int
    ref_count: int
    min_entry: float
    max_entry: float
    delta: float
    left_degree_norm: float
    kernel_diff_norm: float
    right_degree_norm: float
    left_degree_bound: float
    kernel_diff_bound: float
    right_degree_bound: float
    total_norm: float
    bounds_hold: bool


def verify_perturbation(points, test_spec, ref_spec):
    """Measure the three-term perturbation split and its norm bounds.

    W comes from the reference spec (the "exact" stand-in), W-hat from
    the test spec.  Requires strictly positive kernel entries; raises
    DeltaTooLarge when the entrywise error reaches the min entry, where
    the degree bounds stop applying.
    """
    pts = as_points(points)
    w = approx_kernel_matrix(ref_spec, pts)
    w_hat = approx_kernel_matrix(test_spec, pts)
    lo = float(w.min())
    hi = float(w.max())
    if lo <= 0.0:
        raise InvalidParam(
            f"reference kernel entries must be positive (min {lo:.3e})"
        )
    delta = float(np.abs(w - w_hat).max()) / lo
    if delta >= 1.0:
        raise DeltaTooLarge(f"delta={delta:.3f} >= 1; bounds do not apply")

    deg = w.sum(axis=1)
    deg_hat = w_hat.sum(axis=1)
    inv = deg**-0.5
    inv_hat = deg_hat**-0.5
    diff_inv = inv - inv_hat
    left = diff_inv[:, None] * w * inv[None, :]
    middle = inv_hat[:, None] * (w - w_hat) * inv[None, :]
    right = inv_hat[:, None] * w_hat * diff_inv[None, :]
    norms = [float(np.linalg.norm(m, 2)) for m in (left, middle, right)]
    ratio = hi / lo
    shrink = 1.0 - delta
    bounds = [
        ratio / 2.0 * shrink**-1.5 * delta,
        shrink**-0.5 * delta,
        delta * (ratio + delta) / (2.0 * shrink**2),
    ]
    total = float(
        np.linalg.norm(dense_normalized(w) - dense_normalized(w_hat), 2)
    )
    return PerturbationRecord(
        n=pts.shape[0],
        test_count=test_spec.n_features,
        ref_count=ref_spec.n_features,
        min_entry=lo,
        max_entry=hi,
        delta=delta,
        left_degree_norm=norms[0],
        kernel_diff_norm=norms[1],
        right_degree_norm=norms[2],
        left_degree_bound=bounds[0],
        kernel_diff_bound=bounds[1],
        right_degree_bound=bounds[2],
        total_norm=total,
        bounds_hold=all(n <= b + 1e-12 for n, b in zip(norms, bounds)),
    )


@dataclass(frozen=True)
class EigvecRecord:
    count: int
    eigvec_l2_error: float
    eigengap: float
    extra_errors: tuple = ()


def _second_eigvec(w, n_clusters):
    lap = dense_normalized(w)
    eigvals, eigvecs = np.linalg.eigh(lap)
    order = np.argsort(eigvals)[::-1]
    lam = eigvals[order]
    others = np.concatenate([lam[:1], lam[2:], [0.0]])
    gap = float(np.abs(others - lam[1]).min())
    return eigvecs[:, order[1:n_clusters]], gap


def verify_eigvec_convergence(
    points, family, counts, ref_count: int = 50_000, n_clusters: int = 2, seed=0
):
    """Error of the second-largest normalized-matrix eigenvector vs D.

    The reference eigenvector comes from a ``ref_count``-sample spec;
    each test spec's eigenvector is sign-aligned before the l2 error is
    taken (eigenvectors 3..n_clusters land in extra_errors).  Raises
    EigengapTooSmall when the reference gap
    dist(lambda_2, {0} union rest of spectrum) is below 1e-3.
    """
    pts, n_clusters = as_points(points), as_integer(n_clusters, "n_clusters", 1)
    children = split(seed, len(counts) + 1)
    w_ref = approx_kernel_matrix(family.sample(ref_count, children[-1]), pts)
    ref_vecs, gap = _second_eigvec(w_ref, max(n_clusters, 2))
    if gap < 1e-3:
        raise EigengapTooSmall(f"reference eigengap {gap:.2e} < 1e-3")
    records = []
    for i, count in enumerate(counts):
        w_test = approx_kernel_matrix(family.sample(count, children[i]), pts)
        test_vecs, test_gap = _second_eigvec(w_test, max(n_clusters, 2))
        errors = []
        for j in range(ref_vecs.shape[1]):
            v, v_hat = ref_vecs[:, j], test_vecs[:, j]
            if float(v_hat @ v) < 0.0:
                v_hat = -v_hat
            errors.append(float(np.linalg.norm(v_hat - v)))
        records.append(
            EigvecRecord(
                count=count,
                eigvec_l2_error=errors[0],
                eigengap=test_gap,
                extra_errors=tuple(errors[1:]),
            )
        )
    return records


@dataclass(frozen=True)
class RotationRecord:
    estimate: float
    rotated_estimate: float
    stderr: float
    rotated_stderr: float
    within: bool


def verify_rotation_invariance(
    dim: int,
    flat_dim: int,
    n_pairs: int = 100,
    count: int = 100_000,
    seed=0,
    sigma: float = 1.0,
    pair_distance: float = 1.0,
):
    """Check that the uniform-flat kernel depends only on pair distance.

    For each of ``n_pairs`` sphere pairs at the fixed distance, estimates
    the kernel with ``count`` uniformly random flats, re-estimates after
    a random orthogonal rotation of the pair (fresh flats, same budget),
    and flags the pair as consistent when the two estimates agree within
    three times the sum of their standard errors.  Returns
    (records, fraction_within).
    """
    dim, n_pairs = as_integer(dim, "dim", 2), as_integer(n_pairs, "n_pairs", 1)
    count = as_integer(count, "count", 2)  # two flats for a standard error
    pair_distance = as_number(pair_distance, "pair_distance")
    if not 0.0 <= pair_distance <= 2.0:
        raise InvalidParam("pair_distance must lie in [0, 2] for sphere pairs")
    flat_dim = as_integer(flat_dim, "flat_dim")
    if not 1 <= flat_dim < dim:
        raise InvalidParam(f"flat_dim={flat_dim} not in [1, {dim - 1}]")
    cos_angle = 1.0 - pair_distance**2 / 2.0
    sin_angle = math.sqrt(max(0.0, 1.0 - cos_angle**2))
    records = []
    for child in split(seed, n_pairs):
        geom_seed, flats_a_seed, flats_b_seed = split(child, 3)
        rng = make_rng(geom_seed)
        x1 = rng.standard_normal(dim)
        x1 /= np.linalg.norm(x1)
        g = rng.standard_normal(dim)
        g -= (g @ x1) * x1
        w = g / np.linalg.norm(g)
        x2 = cos_angle * x1 + sin_angle * w
        rot = haar_frames(rng, (dim, dim))
        estimates = []
        for flats_seed, pair in ((flats_a_seed, (x1, x2)), (flats_b_seed, (rot @ x1, rot @ x2))):
            # the uniform flats through the origin: a zero-base stack of Haar frames
            frames = haar_frames(make_rng(flats_seed), (count, dim, flat_dim))
            spec = SubspaceKernel(sigma, AffineFlat(np.zeros((count, dim)), frames))
            f = feature_matrix(spec, np.vstack(pair))
            prods = f[:, 0] * f[:, 1]
            estimates.append((float(prods.mean()), float(prods.std(ddof=1)) / math.sqrt(count)))
        (est, se), (est_rot, se_rot) = estimates
        records.append(
            RotationRecord(
                estimate=est,
                rotated_estimate=est_rot,
                stderr=se,
                rotated_stderr=se_rot,
                within=abs(est - est_rot) <= 3.0 * (se + se_rot),
            )
        )
    fraction = sum(r.within for r in records) / len(records)
    return records, fraction


# ---------------------------------------------------------------------------
# Benchmark harness


def synthetic_suite(outlier_ratio: float):
    """The four standard union-of-subspaces benchmark models."""
    specs = [
        ((2, 2), 6),
        ((4, 5, 6), 10),
        ((5, 6, 7), 20),
        ((3, 4, 5, 6, 7), 80),
    ]
    return [
        SyntheticModel(dims=dims, ambient=ambient, outlier_ratio=outlier_ratio)
        for dims, ambient in specs
    ]


def model_label(model: SyntheticModel) -> str:
    dims = ",".join(str(d) for d in model.dims)
    return f"({dims}) in R^{model.ambient}"


@dataclass(frozen=True)
class TrialFailure:
    """A benchmark trial whose pipeline raised: its index, stage and message."""

    trial: int
    stage: str
    message: str


@dataclass(frozen=True)
class BenchmarkRow:
    """One model's trials.  rates and times hold the completed trials in
    trial order; the means are over those, NaN when none completed."""

    label: str
    mean_rate: float
    mean_time_s: float
    rates: tuple
    times: tuple
    failures: tuple = ()

    def to_json(self) -> dict:
        def finite(x):
            return x if math.isfinite(x) else None

        return {
            "model": self.label,
            "mean_rate": finite(self.mean_rate),
            "rates": list(self.rates),
            "timings": {
                "mean_time_s": finite(self.mean_time_s),
                "times_s": list(self.times),
            },
            "failures": [dataclasses.asdict(f) for f in self.failures],
        }


def benchmark_suite(
    models,
    n_trials: int = 10,
    seed=0,
    n_landmarks: int = 100,
    method: str = "kmeans",
    flat_dim: int | None = None,
    sigma: float | None = 0.3,
    drop_first: bool = True,
    normalize_sphere: bool = True,
    linear: bool = True,
    kmeans_restarts: int = 3,
):
    """Clustering rate and wall time per model over seeded trials.

    Each trial regenerates the dataset and reruns the full pipeline with
    a child seed.  The defaults are the reference configuration, those of
    ``LandmarkConfig``, ``fls_cluster`` and ``fls bench`` (a test binds
    them); flat_dim defaults to the largest subspace dimension of each
    model, and points are projected to the unit sphere.  Time is the
    sum of the pipeline stage timings (data generation excluded).  A
    trial whose pipeline raises PipelineError is recorded in the row's
    failures and left out of its means; the other trials still run.  A
    model that ``fls_cluster`` would refuse whatever its points (flat_dim
    >= its ambient dimension, or drop_first with one cluster) raises
    InvalidParam naming it before any trial runs.
    """
    n_trials = as_integer(n_trials, "n_trials", 0)
    # checked here, not as a failure of every trial's kmeans stage
    kmeans_restarts = as_integer(kmeans_restarts, "kmeans_restarts", 1)
    if n_trials == 0:
        return []
    configs = []
    for model in models:
        config = LandmarkConfig(
            n_landmarks=n_landmarks,
            flat_dim=flat_dim if flat_dim is not None else max(model.dims),
            method=method,
            sigma=sigma,
            linear=linear,
        )
        # refused before any trial, not after the earlier models have run
        try:
            _check_settings(model.n_clusters, config.flat_dim, model.ambient, drop_first)
        except InvalidParam as exc:
            raise InvalidParam(f"model {model_label(model)}: {exc}") from None
        configs.append(config)
    rows = []
    for m, (model, config) in enumerate(zip(models, configs)):
        rates, times, failures = [], [], []
        for trial, child in enumerate(
            split(seed, n_trials * len(models))[m * n_trials : (m + 1) * n_trials]
        ):
            gen_seed, fit_seed = split(child, 2)
            data = gen_synthetic(model, gen_seed)
            try:
                result = fls_cluster(
                    data,
                    model.n_clusters,
                    config,
                    seed=fit_seed,
                    drop_first=drop_first,
                    normalize_sphere=normalize_sphere,
                    kmeans_restarts=kmeans_restarts,
                )
            except PipelineError as exc:
                failures.append(TrialFailure(trial, exc.stage, str(exc.cause)))
                continue
            report = clustering_rate(result.labels, data.labels, data.outlier_mask)
            rates.append(report.rate)
            times.append(sum(result.timings.values()))
        rows.append(
            BenchmarkRow(
                label=model_label(model),
                mean_rate=float(np.mean(rates)) if rates else math.nan,
                mean_time_s=float(np.mean(times)) if times else math.nan,
                rates=tuple(rates),
                times=tuple(times),
                failures=tuple(failures),
            )
        )
    return rows


def format_benchmark_table(rows) -> str:
    """Aligned-column text table of benchmark results.

    Means are over completed trials; ``failed`` counts the others, each
    listed with its stage and message below the table.
    """
    label_width = max([len(r.label) for r in rows] + [len("model")])
    header = f"{'model':<{label_width}}  {'rate':>6}  {'time_s':>8}  {'failed':>6}"
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.label:<{label_width}}  {r.mean_rate:>6.3f}  {r.mean_time_s:>8.2f}"
            f"  {len(r.failures):>6}"
        )
    for r in rows:
        for f in r.failures:
            lines.append(f"failed: {r.label} trial {f.trial}, stage '{f.stage}': {f.message}")
    return "\n".join(lines)
