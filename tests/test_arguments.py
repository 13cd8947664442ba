"""The count, bandwidth, rate, number, label and seed contracts, beside
the point one in test_points.py: every public function that takes one of these
refuses a value of the wrong kind with InvalidParam (``linalg.as_integer``,
``kernels._check_sigma``, ``linalg.as_number``, ``linalg.as_labels``,
``rng.seed_sequence``), or, inside a stage of ``fls_cluster``, with a
PipelineError caused by one, and each call still runs with a valid value."""

import math

import numpy as np
import pytest

from fls.cluster import fls_cluster, spectral_embed
from fls.datagen import DataSet, SyntheticModel, gen_synthetic
from fls.errors import InvalidParam, PipelineError
from fls.evaluation import (
    PoolFamily,
    RffFamily,
    benchmark_suite,
    clustering_rate,
    hoeffding_check,
    verify_eigvec_convergence,
    verify_kernel_convergence,
    verify_rotation_invariance,
)
from fls.kernels import (
    EmbeddingMatrix,
    LandmarkGaussian,
    SubspaceKernel,
    gaussian_kernel_matrix,
    sample_gaussian_rff,
)
from fls.landmarks import LandmarkConfig, best_fit_flats, select_landmarks
from fls.linalg import AffineFlat, haar_frames, kmeans
from fls.rng import make_rng, split

from oracles import RAW_POINTS, dense_spectral_cluster

# two 2-planes in R^6, 30 points each
DATA = gen_synthetic(SyntheticModel(dims=(2, 2), ambient=6, pts_per_subspace=30), seed=0)
PTS = DATA.points
CENTERS = PTS[:3]
FLATS = AffineFlat(np.zeros((4, 6)), haar_frames(make_rng(0), (4, 6, 2)))
CONFIG = LandmarkConfig(n_landmarks=8, flat_dim=2, method="random", sigma=0.5, linear=False)
RFF = RffFamily(sigma=2.0, dim=6)
TINY = SyntheticModel(dims=(1, 1), ambient=3, pts_per_subspace=20)
EMB = EmbeddingMatrix(make_rng(1).random((5, 10)) + 0.1)


def refused(fn, value):
    with pytest.raises((InvalidParam, PipelineError)) as info:
        fn(value)
    if isinstance(info.value, PipelineError):
        assert isinstance(info.value.cause, InvalidParam), info.value


# name -> (call taking the count, its lower bound, a valid count)
TAKES_COUNT = {
    "select_landmarks count": (lambda c: select_landmarks(PTS, c), 1, 5),
    "kmeans k": (lambda c: kmeans(PTS, c), 1, 2),
    "kmeans restarts": (lambda c: kmeans(PTS, 2, restarts=c), 1, 2),
    "best_fit_flats flat_dim": (lambda c: best_fit_flats(PTS, CENTERS, c, 2, 5), 1, 2),
    "best_fit_flats max_scales": (lambda c: best_fit_flats(PTS, CENTERS, 2, c, 5), 1, 2),
    "best_fit_flats init_neighbors": (lambda c: best_fit_flats(PTS, CENTERS, 2, 2, c), 3, 5),
    "fls_cluster n_clusters": (lambda c: fls_cluster(PTS, c, CONFIG, **RAW_POINTS), 1, 2),
    "fls_cluster kmeans_restarts": (
        lambda c: fls_cluster(PTS, 2, CONFIG, **dict(RAW_POINTS, kmeans_restarts=c)),
        1,
        2,
    ),
    "spectral_embed": (lambda c: spectral_embed(EMB, c), 1, 2),
    "dense_spectral_cluster": (lambda c: dense_spectral_cluster(np.eye(4) + 1.0, c), 1, 2),
    "sample_gaussian_rff": (lambda c: sample_gaussian_rff(1.0, c, 3), 1, 2),
    "PoolFamily.sample flats": (
        lambda c: PoolFamily(SubspaceKernel, FLATS, 1.0).sample(c, 0),
        1,
        2,
    ),
    "PoolFamily.sample points": (
        lambda c: PoolFamily(LandmarkGaussian, PTS, 1.0).sample(c, 0),
        1,
        2,
    ),
    "verify_kernel_convergence counts": (
        lambda c: verify_kernel_convergence(RFF, PTS[:10], (c,), reps=1),
        1,
        10,
    ),
    "verify_kernel_convergence reps": (
        lambda c: verify_kernel_convergence(RFF, PTS[:10], (10,), reps=c),
        1,
        1,
    ),
    "verify_eigvec_convergence ref_count": (
        lambda c: verify_eigvec_convergence(PTS, RFF, (10,), ref_count=c, seed=1),
        1,
        200,
    ),
    "verify_eigvec_convergence n_clusters": (
        lambda c: verify_eigvec_convergence(PTS, RFF, (10,), ref_count=200, n_clusters=c, seed=1),
        1,
        2,
    ),
    "verify_rotation_invariance n_pairs": (
        lambda c: verify_rotation_invariance(3, 1, n_pairs=c, count=50),
        1,
        1,
    ),
    "verify_rotation_invariance dim": (
        lambda c: verify_rotation_invariance(c, 1, n_pairs=1, count=50),
        2,
        3,
    ),
    "verify_rotation_invariance count": (
        lambda c: verify_rotation_invariance(3, 1, n_pairs=1, count=c),
        2,
        50,
    ),
    "verify_rotation_invariance flat_dim": (
        lambda c: verify_rotation_invariance(3, c, n_pairs=1, count=50),
        1,
        2,
    ),
    "benchmark_suite n_trials": (lambda c: benchmark_suite([], n_trials=c), 0, 1),
    "benchmark_suite kmeans_restarts": (
        lambda c: benchmark_suite([TINY], n_trials=1, n_landmarks=8, kmeans_restarts=c),
        1,
        1,
    ),
}

# a fraction, a bool and a string, none of them truncated or parsed
BAD_COUNTS = (2.5, True, "2")


@pytest.mark.parametrize("name", sorted(TAKES_COUNT))
def test_counts_are_integers_within_bound(name):
    fn, low, valid = TAKES_COUNT[name]
    for value in BAD_COUNTS + (low - 1,):
        refused(fn, value)
    fn(np.int64(valid))


def test_rotation_flat_dim_below_dim():
    # a flat of the ambient dimension holds every point: no kernel to compare
    for dim in (3, 4):
        with pytest.raises(InvalidParam, match=rf"flat_dim={dim} not in \[1, {dim - 1}\]"):
            verify_rotation_invariance(dim, dim, n_pairs=1, count=50)
    verify_rotation_invariance(4, 3, n_pairs=1, count=50)


TAKES_SIGMA = {
    "LandmarkConfig": lambda s: LandmarkConfig(n_landmarks=8, flat_dim=2, sigma=s),
    "SubspaceKernel": lambda s: SubspaceKernel(s, FLATS),
    "sample_gaussian_rff": lambda s: sample_gaussian_rff(s, 3, 4),
    "gaussian_kernel_matrix": lambda s: gaussian_kernel_matrix(PTS[:5], s),
}

BAD_SIGMAS = (True, "0.3", None, 0, -1.0, math.nan, math.inf)


@pytest.mark.parametrize("name", sorted(TAKES_SIGMA))
def test_sigma_is_a_positive_number(name):
    fn = TAKES_SIGMA[name]
    for value in BAD_SIGMAS:
        if not (value is None and name == "LandmarkConfig"):  # None: the sampled rule
            refused(fn, value)
    fn(np.float32(0.3))


def test_config_stores_sigma_as_float():
    sigma = LandmarkConfig(n_landmarks=8, flat_dim=2, sigma=np.float32(0.5)).sigma
    assert type(sigma) is float and sigma == 0.5


# name -> call returning the float it stored from a number >= 0
TAKES_RATE = {
    "SyntheticModel noise_sigma": lambda v: SyntheticModel((1, 1), 3, noise_sigma=v).noise_sigma,
    "SyntheticModel outlier_ratio": lambda v: SyntheticModel(
        (1, 1), 3, outlier_ratio=v
    ).outlier_ratio,
}

BAD_RATES = (True, np.True_, "0.1", None, -0.5, math.nan, math.inf)


@pytest.mark.parametrize("name", sorted(TAKES_RATE))
def test_model_rates_are_numbers(name):
    fn = TAKES_RATE[name]
    for value in BAD_RATES:
        refused(fn, value)
    value = fn(np.float32(0.25))
    assert type(value) is float and value == 0.25
    assert type(fn(0)) is float


# name -> call taking a real-valued argument, and a valid value of it
TAKES_NUMBER = {
    "verify_rotation_invariance pair_distance": (
        lambda v: verify_rotation_invariance(3, 1, n_pairs=1, count=50, pair_distance=v),
        0.5,
    ),
    "hoeffding_check eps": (
        lambda v: hoeffding_check(RFF, PTS[0], PTS[1], (10,), (v,), reps=2),
        0.5,
    ),
}

BAD_NUMBERS = (True, np.True_, "a", "0.5", None, math.nan)


@pytest.mark.parametrize("name", sorted(TAKES_NUMBER))
def test_real_arguments_are_numbers(name):
    fn, valid = TAKES_NUMBER[name]
    for value in BAD_NUMBERS:
        refused(fn, value)
    fn(np.float32(valid))


def test_hoeffding_eps_is_positive_and_finite():
    # at eps = 0 every |err| >= eps and the bound is 2: a vacuous pass
    check = TAKES_NUMBER["hoeffding_check eps"][0]
    for eps in (0, 0.0, -0.1, math.inf):
        refused(check, eps)


TAKES_LABELS = {
    "DataSet": lambda labels: DataSet(PTS[:3], labels=labels).labels,
    "clustering_rate pred": lambda labels: clustering_rate(labels, [0, 1, 1]).rate,
    "clustering_rate truth": lambda labels: clustering_rate([0, 1, 1], labels).rate,
}

BAD_LABELS = (
    [0.5, 1.5, -1.2],
    [0.5, 1.7, 1.2],
    [math.nan, 1.0, 1.0],
    [math.inf, 1.0, 1.0],
    [1e300, 1.0, 1.0],
    ["a", "b", "b"],
    [True, False, False],
    [[0, 1, 1]],
)


@pytest.mark.parametrize("name", sorted(TAKES_LABELS))
def test_labels_are_whole_numbers(name):
    fn = TAKES_LABELS[name]
    for labels in BAD_LABELS:
        refused(fn, labels)
    # whole floats are read as the integers they equal
    assert np.array_equal(fn([0.0, 1.0, 1.0]), fn(np.array([0, 1, 1], dtype=np.int32)))


TAKES_SEED = {
    "make_rng": make_rng,
    "split": lambda s: split(s, 2),
    "gen_synthetic": lambda s: gen_synthetic(SyntheticModel(dims=(1,), ambient=2), s),
    "kmeans": lambda s: kmeans(PTS, 2, seed=s),
    "select_landmarks": lambda s: select_landmarks(PTS, 5, seed=s),
    "fls_cluster": lambda s: fls_cluster(PTS, 2, CONFIG, seed=s, **RAW_POINTS),
}


@pytest.mark.parametrize("name", sorted(TAKES_SEED))
def test_seeds_are_refused_by_name(name):
    fn = TAKES_SEED[name]
    for seed in (-1, 1.5, "7", True, None):
        with pytest.raises(InvalidParam, match="seed"):
            fn(seed)
    fn(3)
    fn(split(3, 1)[0])
