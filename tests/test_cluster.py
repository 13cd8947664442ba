"""Spectral pipeline: degrees, embedding SVD route, end-to-end clustering."""

import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fls import cluster, kernels
from fls.cluster import (
    ClusterResult,
    degrees,
    dense_normalized,
    fls_cluster,
    spectral_embed,
)
from fls.datagen import DataSet, SyntheticModel, gen_synthetic, sphere_normalize
from fls.errors import (
    DegenerateInput,
    DegreeNotPositive,
    DenseLimitExceeded,
    InvalidParam,
    PipelineError,
    RankDeficient,
)
from fls.evaluation import benchmark_suite, clustering_rate
from fls.kernels import EmbeddingMatrix, SubspaceKernel, approx_kernel_matrix, embed
from fls.landmarks import (
    LandmarkConfig,
    best_fit_flats,
    default_sigma,
    select_landmarks,
)
from fls.linalg import flip_signs, kmeans
from fls.rng import split

from oracles import RANDOM_AFFINE, RAW_POINTS, dense_spectral_cluster, gram_svd, subspace_spec
from test_cli import subprocess_env
from test_kernels import random_flats


def two_plane_data(rng, n_per=60, noise=0.02, d=4):
    a = np.eye(d)[:, :2]
    b = np.eye(d)[:, 2:4]
    offset = np.zeros(d)
    offset[0] = 5.0
    pts = np.vstack(
        [
            rng.uniform(-1, 1, size=(n_per, 2)) @ a.T,
            rng.uniform(-1, 1, size=(n_per, 2)) @ b.T + offset,
        ]
    )
    pts += noise * rng.standard_normal(pts.shape)
    labels = np.repeat([0, 1], n_per)
    return DataSet(points=pts, labels=labels)


def positive_embedding(rng, n_features, n_points):
    return EmbeddingMatrix(
        data=(np.abs(rng.standard_normal((n_features, n_points))) + 0.1)
        / np.sqrt(n_features)
    )


class TestDegrees:
    def test_hand_computed(self):
        emb = EmbeddingMatrix(data=np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.allclose(degrees(emb), [24.0, 34.0])

    def test_single_point(self):
        emb = EmbeddingMatrix(data=np.array([[2.0]]))
        assert np.allclose(degrees(emb), [4.0])

    def test_matches_kernel_row_sums(self, rng):
        emb = positive_embedding(rng, 12, 30)
        w = emb.data.T @ emb.data
        assert np.allclose(degrees(emb), w.sum(axis=1), atol=1e-10)

    def test_zero_column_raises(self):
        emb = EmbeddingMatrix(data=np.array([[1.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(DegreeNotPositive):
            degrees(emb)


class TestSpectralEmbed:
    def test_block_ideal_two_rows(self):
        # disjoint-support features: exactly two distinct embedding rows
        psi = np.array([[0.7, 0.7, 0.0, 0.0], [0.0, 0.0, 0.4, 0.4]])
        rows, svals = spectral_embed(EmbeddingMatrix(data=psi), 2)
        assert np.allclose(svals, [1.0, 1.0], atol=1e-10)
        assert np.allclose(rows[0], rows[1], atol=1e-10)
        assert np.allclose(rows[2], rows[3], atol=1e-10)
        assert abs(float(rows[0] @ rows[2])) < 1e-10
        assert np.allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-12)

    def test_top_singular_value_is_one(self, rng):
        # nonnegative kernel: D^-1/2 W D^-1/2 has top eigenvalue exactly 1
        rows, svals = spectral_embed(positive_embedding(rng, 15, 40), 3)
        assert abs(svals[0] - 1.0) < 1e-8

    def test_matches_dense_eigenvectors(self, rng):
        emb = positive_embedding(rng, 10, 25)
        w = emb.data.T @ emb.data  # before spectral_embed, which may scale Psi in place
        rows, svals = spectral_embed(emb, 3)

        lap = dense_normalized(w)
        eigvals, eigvecs = np.linalg.eigh(lap)
        order = np.argsort(eigvals)[::-1][:3]
        dense_rows = flip_signs(eigvecs[:, order])
        dense_rows /= np.linalg.norm(dense_rows, axis=1)[:, None]
        assert np.allclose(svals, np.sqrt(eigvals[order]), atol=1e-8)
        assert np.allclose(rows, dense_rows, atol=1e-6)

    def test_point_permutation_equivariance(self, rng):
        emb = positive_embedding(rng, 8, 20)
        perm = rng.permutation(20)
        permuted = EmbeddingMatrix(data=emb.data[:, perm])  # before emb is scaled in place
        rows, _ = spectral_embed(emb, 2)
        rows_p, _ = spectral_embed(permuted, 2)
        assert np.allclose(rows_p, rows[perm], atol=1e-8)

    def test_drop_first_shape(self, rng):
        rows, svals = spectral_embed(positive_embedding(rng, 10, 15), 3, drop_first=True)
        assert rows.shape == (15, 2)
        assert svals.shape == (3,)

    def test_blocked_gram_matches_unblocked_svd(self, rng, monkeypatch):
        # 7-column blocks over 45 points: the last block is a partial one
        monkeypatch.setattr(cluster, "_GRAM_BLOCK_ENTRIES", 7 * 12, raising=False)
        emb = positive_embedding(rng, 12, 45)
        a = emb.data * degrees(emb)[None, :] ** -0.5
        rows, svals = spectral_embed(emb, 3, drop_first=True)
        want_svals, want_vectors = gram_svd(a, 3)
        assert np.allclose(svals, want_svals, rtol=1e-13, atol=0)
        assert np.allclose(rows, sphere_normalize(want_vectors[:, 1:]), atol=1e-12)

    @pytest.mark.parametrize("count", [10, 16])
    def test_overwritten_embedding_gives_the_result_of_a_copy(self, rng, count):
        # spectral_embed may scale Psi in place (D = 16) or in a padded copy
        # (D = 10); either way the result is that of a call on an untouched copy
        emb = positive_embedding(rng, count, 30)
        untouched = EmbeddingMatrix(data=emb.data.copy())
        rows, svals = spectral_embed(emb, 3)
        want_rows, want_svals = spectral_embed(untouched, 3)
        assert np.array_equal(rows, want_rows)
        assert np.array_equal(svals, want_svals)

    def test_gram_path_peak_is_one_block(self, monkeypatch):
        # no second D x n array: Psi is scaled in place, so the peak is n x K arrays
        monkeypatch.setattr(cluster, "_GRAM_BLOCK_ENTRIES", 2**16, raising=False)
        count, n = 200, 20_000
        emb = positive_embedding(np.random.default_rng(3), count, n)
        tracemalloc.start()
        try:
            spectral_embed(emb, 3, drop_first=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * count * n * 8

    def test_embed_output_is_scaled_without_a_copy(self):
        # D = 100 is not a multiple of ROW_ALIGN, but embed pads its buffer
        # with zero rows, so no second D x n array is made
        gen = np.random.default_rng(6)
        count, n = 100, 20_000
        spec = SubspaceKernel(sigma=0.5, flats=random_flats(gen, count, 10, 2, False))
        emb = embed(spec, sphere_normalize(gen.standard_normal((n, 10))))
        tracemalloc.start()
        try:
            spectral_embed(emb, 3, drop_first=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * count * n * 8

    def test_right_vectors_are_one_n_by_k_array(self):
        # D = 16 and n = 200 000: the degrees take 1.6 MB each, the right
        # vectors 8 MB, divided, flipped and normalized in that one array
        count, n, k = 16, 200_000, 5
        emb = positive_embedding(np.random.default_rng(8), count, n)
        tracemalloc.start()
        try:
            rows, _ = spectral_embed(emb, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.shape == (n, k)
        assert peak <= n * k * 8 + 2**20

    def test_rank_deficient_embedding_refused(self, rng):
        # rank-one Psi: s2 sits at the Gram noise floor, not a real value
        psi = np.outer(rng.random(20) + 0.5, rng.random(300) + 0.5)
        with pytest.raises(RankDeficient):
            spectral_embed(EmbeddingMatrix(data=psi), 2)

    def test_more_vectors_than_features_refused(self, rng):
        # K > D: the D x D Gram matrix has only D eigenpairs
        with pytest.raises(InvalidParam, match="n_clusters=5"):
            spectral_embed(positive_embedding(rng, 4, 10), 5)

    def test_bad_params(self, rng):
        emb = positive_embedding(rng, 5, 10)
        with pytest.raises(InvalidParam):
            spectral_embed(emb, 0)
        with pytest.raises(InvalidParam):
            spectral_embed(emb, 1, drop_first=True)
        for svd_path in ("magic", "power"):
            with pytest.raises(InvalidParam):
                spectral_embed(emb, 2, svd_path=svd_path)


# spectral_embed(K = 5, drop_first) of a fixed positive count x n
# embedding, filled in place so that building it leaves no temporary;
# saves the rows, the singular values and the growth of the process's
# peak RSS (VmHWM) over the call
_SPECTRAL_EMBED_CHILD = """
import sys
import numpy as np
from fls.cluster import spectral_embed
from fls.kernels import EmbeddingMatrix

def peak_rss():
    with open("/proc/self/status") as fh:
        return next(int(ln.split()[1]) * 1024 for ln in fh if ln.startswith("VmHWM:"))

count, n = int(sys.argv[1]), int(sys.argv[2])
data = np.empty((count, n))
np.random.default_rng(count).random(out=data)
data += 0.1
emb = EmbeddingMatrix(data)
before = peak_rss()
rows, svals = spectral_embed(emb, 5, drop_first=True)
np.savez(sys.argv[3], rows=rows, svals=svals, growth=peak_rss() - before)
"""


def spectral_embed_in_child(tmp_path, threads, count, n):
    out = tmp_path / f"embed-{threads}-{count}-{n}.npz"
    env = dict(subprocess_env(), OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    proc = subprocess.run(
        [sys.executable, "-c", _SPECTRAL_EMBED_CHILD, str(count), str(n), str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return np.load(out)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
class TestSpectralEmbedProcess:
    """spectral_embed in fresh processes, where BLAS threads and BLAS work
    memory (which tracemalloc does not see) show."""

    @pytest.mark.threads
    def test_rows_do_not_depend_on_blas_threads(self, tmp_path):
        # D = 100, the CLI's default landmark count: 2 threads split an
        # unpadded 100-row Gram block 50 + 50 and round otherwise than 1
        one = spectral_embed_in_child(tmp_path, 1, 100, 21_000)
        two = spectral_embed_in_child(tmp_path, 2, 100, 21_000)
        assert np.array_equal(one["svals"], two["svals"])
        assert np.array_equal(one["rows"], two["rows"])

    def test_peak_growth_is_k_n(self, tmp_path):
        # D = 400, n = 31 500 on 2 threads: Psi is scaled in place, so the
        # peak grows by a few n x K arrays and 8 MiB for the D x D
        # eigensolve and the interpreter.  Psi^T U would take the BLAS
        # 28 MiB more.
        count, n, k = 400, 31_500, 5
        got = spectral_embed_in_child(tmp_path, 2, count, n)
        budget = 8 * 4 * k * n + 8 * 2**20
        assert int(got["growth"]) <= budget


class TestFlsCluster:
    def test_kmeans_runs_without_the_embedding(self, monkeypatch):
        # the kmeans-landmarks shape: 31 500 points in R^10, 400 k-means
        # landmarks, sigma auto.  spectral_embed consumed the 400 x 31 500
        # embedding (101 MB), so when k-means starts only the
        # sphere-normalized points, the rows and small arrays are live
        model = SyntheticModel(
            dims=(2,) * 5, ambient=10, pts_per_subspace=6000, noise_sigma=0.05, outlier_ratio=0.05
        )
        pts = gen_synthetic(model, seed=0).points
        live = []

        def spy(rows, *args, **kwargs):
            live.append(tracemalloc.get_traced_memory()[0])
            return kmeans(rows, *args, **kwargs)

        monkeypatch.setattr(cluster, "kmeans", spy)
        cfg = LandmarkConfig(n_landmarks=400, flat_dim=2, method="kmeans", sigma=None, linear=True)
        tracemalloc.start()
        try:
            result = fls_cluster(
                pts, 5, cfg, seed=0, drop_first=True, normalize_sphere=True, kmeans_restarts=1
            )
        finally:
            tracemalloc.stop()
        assert len(live) == 1
        assert live[0] <= pts.nbytes + result.embedding.nbytes + 2**20

    def test_defaults_hold_rate_at_large_n(self):
        # the defaults alone, five 2-planes in R^10 with 5 % outliers at
        # n = 105 000: random landmarks, sigma auto and affine flats on the
        # raw points rated 0.368 here
        model = SyntheticModel(
            dims=(2,) * 5, ambient=10, pts_per_subspace=20_000, outlier_ratio=0.05
        )
        data = gen_synthetic(model, seed=0)
        assert data.n == 105_000
        result = fls_cluster(data, 5, LandmarkConfig(100, 2), seed=0)
        rate = clustering_rate(result.labels, data.labels, data.outlier_mask).rate
        assert rate >= 0.97, rate

    def test_two_planes_perfect(self, rng):
        data = two_plane_data(rng)
        cfg = LandmarkConfig(n_landmarks=20, flat_dim=2, **RANDOM_AFFINE)
        result = fls_cluster(data, 2, cfg, seed=0, **RAW_POINTS)
        agree = (result.labels == data.labels).mean()
        assert agree in (0.0, 1.0) or max(agree, 1 - agree) == 1.0
        assert max(agree, 1 - agree) == 1.0  # up to label swap

    def test_single_cluster(self, rng):
        pts = rng.standard_normal((12, 3))
        cfg = LandmarkConfig(n_landmarks=4, flat_dim=1, **RANDOM_AFFINE)
        result = fls_cluster(pts, 1, cfg, seed=1, **RAW_POINTS)
        assert np.all(result.labels == 0)

    def test_n_equals_k_rank_deficiency_surfaces(self, rng):
        # 3 points, 1-dim flats: two landmarks share the same 2-point line,
        # so the embedding has rank 2 < K and the svd stage refuses
        pts = rng.standard_normal((3, 2)) * 5
        cfg = LandmarkConfig(n_landmarks=3, flat_dim=1, init_neighbors=2, **RANDOM_AFFINE)
        with pytest.raises(PipelineError) as err:
            fls_cluster(pts, 3, cfg, seed=1, **RAW_POINTS)
        assert err.value.stage == "svd"

    def test_scale_invariance_with_auto_sigma(self, rng):
        # distances and the median bandwidth scale together
        data = two_plane_data(rng)
        cfg = LandmarkConfig(n_landmarks=15, flat_dim=2, **RANDOM_AFFINE)
        a = fls_cluster(data.points, 2, cfg, seed=4, **RAW_POINTS)
        b = fls_cluster(data.points * 10.0, 2, cfg, seed=4, **RAW_POINTS)
        assert np.array_equal(a.labels, b.labels)
        assert np.allclose(a.singular_values, b.singular_values, atol=1e-8)

    def test_deterministic(self, rng):
        data = two_plane_data(rng, n_per=40)
        cfg = LandmarkConfig(n_landmarks=10, flat_dim=2, method="kmeans", sigma=None, linear=False)
        pinned = dict(drop_first=False, normalize_sphere=True, kmeans_restarts=1)
        a = fls_cluster(data, 2, cfg, seed=7, **pinned)
        b = fls_cluster(data, 2, cfg, seed=7, **pinned)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.embedding, b.embedding)

    def test_too_few_points(self, rng):
        cfg = LandmarkConfig(n_landmarks=2, flat_dim=1, **RANDOM_AFFINE)
        with pytest.raises(DegenerateInput):
            fls_cluster(rng.standard_normal((2, 3)), 3, cfg, **RAW_POINTS)

    @pytest.mark.parametrize("sigma", [None, 0.3])
    def test_flat_of_the_ambient_dimension_refused(self, sigma):
        # a 6-flat in R^6 holds every point, so every distance is roundoff:
        # an auto sigma fell to its 1e-6 floor and labels came back, a
        # given one failed in the svd stage.  Refused before the stages.
        model = SyntheticModel(dims=(2, 2, 2), ambient=6, pts_per_subspace=300)
        data = gen_synthetic(model, seed=0)
        for flat_dim in (6, 7):
            with pytest.raises(InvalidParam, match=f"flat_dim={flat_dim}"):
                cfg = LandmarkConfig(100, flat_dim, method="random", sigma=sigma, linear=False)
                fls_cluster(data, 3, cfg, **RAW_POINTS)

    def test_drop_first_with_one_cluster_refused_before_stages(self, monkeypatch):
        # checked before landmarks, flats and embed do work the svd stage would discard
        def fail(*args, **kwargs):
            raise AssertionError("a stage ran before the drop_first check")

        monkeypatch.setattr(cluster, "select_landmarks", fail)
        pts = gen_synthetic(SyntheticModel(dims=(1,), ambient=3), seed=0).points
        with pytest.raises(InvalidParam, match="drop_first"):
            cfg = LandmarkConfig(n_landmarks=4, flat_dim=1, **RANDOM_AFFINE)
            fls_cluster(pts, 1, cfg, **dict(RAW_POINTS, drop_first=True))
        # the suite refuses it too, rather than record every trial as failed
        with pytest.raises(InvalidParam, match="drop_first"):
            benchmark_suite([SyntheticModel(dims=(1,), ambient=3)], n_trials=1, n_landmarks=4)

    def test_subspace_ref_seed0_outputs(self, monkeypatch):
        # the benchmark's paper workload (D = 100, the same bits on 1 and 2
        # BLAS threads) reproduces its committed seed-0 lines
        root = Path(__file__).resolve().parents[1]
        monkeypatch.syspath_prepend(str(root / "bench"))
        spec = importlib.util.spec_from_file_location("seed0", root / "tools" / "seed0_outputs.py")
        seed0 = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(seed0)
        want = (root / "tools" / "seed0_outputs.txt").read_text().splitlines()
        want = [line for line in want if line.startswith("subspace-ref ")]
        assert len(want) == 4
        assert list(seed0.workload_lines("subspace-ref")) == want

    @pytest.mark.threads
    def test_all_seed0_outputs_on_two_threads(self):
        # every committed seed-0 line, the D = 400 ones too, whose bits
        # depend on the BLAS thread count: a fresh process on 2 threads
        root = Path(__file__).resolve().parents[1]
        env = dict(subprocess_env(), OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
        proc = subprocess.run(
            [sys.executable, str(root / "tools" / "seed0_outputs.py"), str(root)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        want = (root / "tools" / "seed0_outputs.txt").read_text()
        assert len(want.splitlines()) == 13
        assert proc.stdout == want

    def test_stage_named_on_failure(self, rng):
        # more landmarks than points fails inside the landmarks stage
        cfg = LandmarkConfig(n_landmarks=50, flat_dim=1, **RANDOM_AFFINE)
        with pytest.raises(PipelineError) as err:
            fls_cluster(rng.standard_normal((10, 3)), 2, cfg, seed=0, **RAW_POINTS)
        assert err.value.stage == "landmarks"
        assert "landmarks" in str(err.value)

    def test_timings_cover_stages(self, rng):
        # the sigma stage is timed whether sigma is given or resolved
        data = two_plane_data(rng, n_per=30)
        for sigma in (0.3, None):
            cfg = LandmarkConfig(
                n_landmarks=8, flat_dim=2, method="random", sigma=sigma, linear=False
            )
            result = fls_cluster(data, 2, cfg, seed=2, **RAW_POINTS)
            assert set(result.timings) == {
                "landmarks", "flats", "sigma", "embed", "svd", "kmeans"
            }
            assert all(t >= 0.0 for t in result.timings.values())

    @pytest.mark.parametrize("method", ["random", "kmeans"])
    @pytest.mark.parametrize("sigma", [0.3, None])
    def test_equals_public_stages_composed_by_hand(self, method, sigma):
        # the composition bench/replay.py relies on; n * D > 10 000, so an
        # auto sigma takes default_sigma's sampled branch and its seed
        model = SyntheticModel(dims=(2, 3), ambient=6, pts_per_subspace=200, outlier_ratio=0.1)
        data = gen_synthetic(model, seed=8)
        cfg = LandmarkConfig(n_landmarks=30, flat_dim=3, method=method, sigma=sigma, linear=True)
        got = fls_cluster(
            data, 2, cfg, seed=11, drop_first=True, normalize_sphere=True, kmeans_restarts=3
        )

        pts = sphere_normalize(data.points)
        select_seed, sigma_seed, svd_seed, kmeans_seed = split(11, 4)
        init_neighbors, max_scales = cfg.resolve_scales(len(pts))
        centers = select_landmarks(pts, cfg.n_landmarks, method, select_seed)
        flats = best_fit_flats(pts, centers, 3, max_scales, init_neighbors, linear=True)
        if sigma is None:
            sigma = default_sigma(pts, flats, seed=sigma_seed)
        spec = SubspaceKernel(sigma=sigma, flats=tuple(flats))
        rows, svals = spectral_embed(embed(spec, pts), 2, drop_first=True, seed=svd_seed)
        labels = kmeans(rows, 2, seed=kmeans_seed, restarts=3)[0]

        assert np.array_equal(got.labels, labels)
        assert np.array_equal(got.embedding, rows)
        assert np.array_equal(got.singular_values, svals)
        assert got.sigma == sigma

    def test_to_json_serializable(self, rng):
        data = two_plane_data(rng, n_per=25)
        cfg = LandmarkConfig(n_landmarks=8, flat_dim=2, **RANDOM_AFFINE)
        result = fls_cluster(data, 2, cfg, seed=3, **RAW_POINTS)
        doc = result.to_json()
        json.dumps(doc)
        assert doc["n_points"] == 50
        assert len(doc["labels"]) == 50
        assert len(doc["singular_values"]) == 2

    def test_to_json_bytes_match_per_element_conversion(self, rng):
        data = two_plane_data(rng, n_per=25)
        cfg = LandmarkConfig(n_landmarks=8, flat_dim=2, **RANDOM_AFFINE)
        result = fls_cluster(data, 2, cfg, seed=3, **RAW_POINTS)
        want = dict(
            result.to_json(),
            labels=[int(v) for v in result.labels],
            singular_values=[float(v) for v in result.singular_values],
        )
        assert json.dumps(result.to_json()) == json.dumps(want)

    def test_to_json_records_sigma_and_ladder(self, rng):
        # the resolved bandwidth and neighborhood ladder travel with the
        # labels; the dense path takes a kernel matrix and has neither
        data = two_plane_data(rng, n_per=25)
        cfg = LandmarkConfig(n_landmarks=8, flat_dim=2, **RANDOM_AFFINE)
        result = fls_cluster(data, 2, cfg, seed=3, **RAW_POINTS)
        doc = json.loads(json.dumps(result.to_json()))
        assert doc["sigma"] == result.sigma > 0
        assert doc["ladder"] == list(result.ladder) == [6, result.ladder[1]]
        w = np.kron(np.eye(2), np.ones((5, 5))) + 0.01
        doc = json.loads(json.dumps(dense_spectral_cluster(w, 2, seed=0).to_json()))
        assert doc["sigma"] is None and doc["ladder"] is None


class TestDenseNormalized:
    def test_hand_computed(self):
        w = np.array([[2.0, 1.0], [1.0, 3.0]])
        lap = dense_normalized(w)
        expected = np.array(
            [[2.0 / 3.0, 1.0 / np.sqrt(12.0)], [1.0 / np.sqrt(12.0), 3.0 / 4.0]]
        )
        assert np.allclose(lap, expected, atol=1e-12)

    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidParam):
            dense_normalized(np.array([[1.0, 2.0], [0.5, 1.0]]))

    def test_zero_row_rejected(self):
        with pytest.raises(DegreeNotPositive):
            dense_normalized(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_spectrum_in_unit_interval(self, rng):
        emb = positive_embedding(rng, 9, 30)
        lap = dense_normalized(emb.data.T @ emb.data)
        eigvals = np.linalg.eigvalsh(lap)
        assert eigvals.min() >= -1e-8
        assert eigvals.max() <= 1.0 + 1e-8


class TestDenseSpectralCluster:
    def test_two_blocks(self, rng):
        data = two_plane_data(rng, n_per=30)
        spec = subspace_spec(
            data.points, LandmarkConfig(n_landmarks=10, flat_dim=2, **RANDOM_AFFINE), seed=0
        )
        w = approx_kernel_matrix(spec, data.points)
        result = dense_spectral_cluster(w, 2, seed=0)
        agree = (result.labels == data.labels).mean()
        assert max(agree, 1 - agree) == 1.0

    def test_same_kernel_matches_embedding_route(self, rng):
        # identical W-hat: labels identical partitions, spectra within 1e-8
        data = two_plane_data(rng, n_per=25)
        spec = subspace_spec(
            data.points, LandmarkConfig(n_landmarks=8, flat_dim=2, **RANDOM_AFFINE), seed=1
        )
        from fls.kernels import embed

        emb = embed(spec, data.points)
        rows, svals = spectral_embed(emb, 2)
        dense = dense_spectral_cluster(approx_kernel_matrix(spec, data.points), 2, seed=5)
        assert np.allclose(svals, dense.singular_values, atol=1e-8)
        assert np.allclose(np.abs(rows), np.abs(dense.embedding), atol=1e-6)

    def test_dense_limit(self, monkeypatch):
        monkeypatch.setattr(kernels, "_DENSE_LIMIT", 5)
        with pytest.raises(DenseLimitExceeded):
            dense_spectral_cluster(np.eye(10), 2)
        dense_spectral_cluster(np.eye(5) + 1.0, 2)

    def test_bad_k(self):
        w = np.eye(4)
        with pytest.raises(InvalidParam):
            dense_spectral_cluster(w, 5)
        with pytest.raises(InvalidParam):
            dense_spectral_cluster(w, 1, drop_first=True)


class TestClusterResult:
    def test_fields(self, rng):
        labels = np.array([0, 1])
        rows = rng.standard_normal((2, 2))
        res = ClusterResult(
            labels=labels, embedding=rows, singular_values=np.array([1.0, 0.5])
        )
        assert res.timings == {}
