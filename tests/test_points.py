"""The point-array contract: every public function that takes points
accepts a DataSet or a finite 2-D array and refuses anything else with
InvalidParam (``linalg.as_points``)."""

import numpy as np
import pytest

from fls.cluster import fls_cluster
from fls.datagen import DataSet, SyntheticModel, gen_synthetic, sphere_normalize
from fls.errors import InvalidParam
from fls.evaluation import (
    RffFamily,
    verify_eigvec_convergence,
    verify_kernel_convergence,
    verify_perturbation,
)
from fls.kernels import (
    EmbeddingMatrix,
    SubspaceKernel,
    approx_kernel_matrix,
    embed,
    feature_matrix,
    gaussian_kernel_matrix,
)
from fls.landmarks import (
    LandmarkConfig,
    best_fit_flats,
    default_sigma,
    landmark_flat_pool,
    select_landmarks,
)
from fls.linalg import AffineFlat, haar_frames, kmeans, kmeans_centers
from fls.rng import make_rng

from oracles import RAW_POINTS

# two 2-planes in R^6, 30 points each
DATA = gen_synthetic(SyntheticModel(dims=(2, 2), ambient=6, pts_per_subspace=30), seed=0)
FLATS = AffineFlat(np.zeros((4, 6)), haar_frames(make_rng(0), (4, 6, 2)))
SPEC = SubspaceKernel(1.0, FLATS)
CONFIG = LandmarkConfig(n_landmarks=8, flat_dim=2, method="random", sigma=0.5, linear=False)
RFF = RffFamily(sigma=2.0, dim=6)

TAKES_POINTS = {
    "kmeans": lambda p: kmeans(p, 2),
    "kmeans_centers": lambda p: kmeans_centers(p, 2, 0, 3),
    "select_landmarks": lambda p: select_landmarks(p, 4),
    "best_fit_flats": lambda p: best_fit_flats(p, DATA.points[:3], 2, 2, 5),
    "default_sigma": lambda p: default_sigma(p, FLATS),
    "landmark_flat_pool": lambda p: landmark_flat_pool(p, 2),
    "feature_matrix": lambda p: feature_matrix(SPEC, p),
    "embed": lambda p: embed(SPEC, p),
    "gaussian_kernel_matrix": lambda p: gaussian_kernel_matrix(p, 1.0),
    "approx_kernel_matrix": lambda p: approx_kernel_matrix(SPEC, p),
    "EmbeddingMatrix": EmbeddingMatrix,
    "DataSet": DataSet,
    "sphere_normalize": sphere_normalize,
    "fls_cluster": lambda p: fls_cluster(p, 2, CONFIG, **RAW_POINTS),
    "fls_cluster sphere": lambda p: fls_cluster(
        p, 2, CONFIG, **dict(RAW_POINTS, normalize_sphere=True)
    ),
    "verify_kernel_convergence": lambda p: verify_kernel_convergence(RFF, p, (10,), reps=1),
    "verify_perturbation": lambda p: verify_perturbation(p, SPEC, SPEC),
    "verify_eigvec_convergence": lambda p: verify_eigvec_convergence(
        p, RFF, (10,), ref_count=200
    ),
}


def _with_nan(points):
    bad = points.copy()
    bad[3, 1] = np.nan
    return bad


# a 1-D array, a 3-D array and a 2-D array with a NaN
BAD_POINTS = (DATA.points[0], DATA.points.reshape(2, 30, 6), _with_nan(DATA.points))


@pytest.mark.parametrize("name", sorted(TAKES_POINTS))
def test_takes_a_dataset_and_refuses_other_arrays(name):
    fn = TAKES_POINTS[name]
    for points in BAD_POINTS:
        with pytest.raises(InvalidParam):
            fn(points)
    fn(DATA)
