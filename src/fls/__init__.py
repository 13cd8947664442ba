"""Randomized kernel embeddings and fast landmark subspace clustering.

The public API is re-exported lazily so that `import fls` stays cheap and,
more importantly, so the CLI can pin BLAS thread counts through environment
variables before numpy is first imported.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "errors": [
        "FLSError",
        "InvalidParam",
        "DegenerateInput",
        "DimensionMismatch",
        "RankDeficient",
        "DenseLimitExceeded",
        "DegreeNotPositive",
        "ParseError",
        "RaggedRows",
        "DeltaTooLarge",
        "EigengapTooSmall",
        "PipelineError",
    ],
    "rng": ["seed_sequence", "make_rng", "split"],
    "linalg": ["AffineFlat", "kmeans"],
    "kernels": [
        "GaussianRFF",
        "LandmarkGaussian",
        "SubspaceKernel",
        "EmbeddingMatrix",
        "sample_gaussian_rff",
        "feature_matrix",
        "embed",
        "gaussian_kernel_matrix",
        "approx_kernel_matrix",
    ],
    "landmarks": [
        "LandmarkConfig",
        "select_landmarks",
        "best_fit_flat",
        "best_fit_flats",
        "default_sigma",
        "landmark_flat_pool",
    ],
    "datagen": [
        "SyntheticModel",
        "DataSet",
        "sphere_normalize",
        "gen_synthetic",
        "save_csv",
        "load_csv",
    ],
    "cluster": [
        "ClusterResult",
        "degrees",
        "spectral_embed",
        "fls_cluster",
        "dense_normalized",
    ],
    "evaluation": [
        "EvalReport",
        "clustering_rate",
        "RffFamily",
        "PoolFamily",
        "verify_kernel_convergence",
        "hoeffding_check",
        "verify_perturbation",
        "verify_eigvec_convergence",
        "verify_rotation_invariance",
        "synthetic_suite",
        "benchmark_suite",
        "format_benchmark_table",
    ],
}

_LOOKUP = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_LOOKUP) + ["__version__"]


def __getattr__(name):
    module = _LOOKUP.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
