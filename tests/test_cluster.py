"""Spectral pipeline: degrees, embedding SVD route, end-to-end clustering."""

import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from fls import cluster
from fls.cluster import (
    ClusterResult,
    degrees,
    dense_normalized,
    dense_spectral_cluster,
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
from fls.kernels import EmbeddingMatrix, SubspaceKernel, approx_kernel_matrix, embed
from fls.landmarks import (
    LandmarkConfig,
    best_fit_flats,
    build_subspace_spec,
    default_sigma,
    select_landmarks,
)
from fls.linalg import flip_signs, kmeans, truncated_svd
from fls.rng import split

from test_cli import subprocess_env


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
        rows, svals = spectral_embed(emb, 3)

        w = emb.data.T @ emb.data
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
        rows, _ = spectral_embed(emb, 2)
        rows_p, _ = spectral_embed(EmbeddingMatrix(data=emb.data[:, perm]), 2)
        assert np.allclose(rows_p, rows[perm], atol=1e-8)

    def test_drop_first_shape(self, rng):
        rows, svals = spectral_embed(positive_embedding(rng, 10, 15), 3, drop_first=True)
        assert rows.shape == (15, 2)
        assert svals.shape == (3,)

    def test_blocked_gram_matches_unblocked_svd(self, rng, monkeypatch):
        # 7-column blocks over 45 points: the last block is a partial one
        monkeypatch.setattr(cluster, "_GRAM_BLOCK_ENTRIES", 7 * 12, raising=False)
        emb = positive_embedding(rng, 12, 45)
        rows, svals = spectral_embed(emb, 3, drop_first=True)
        a = emb.data * degrees(emb)[None, :] ** -0.5
        want = truncated_svd(a, 3)
        assert np.allclose(svals, want.singular_values, rtol=1e-13, atol=0)
        assert np.allclose(rows, sphere_normalize(want.right_vectors[:, 1:]), atol=1e-12)

    def test_embedding_left_unchanged(self, rng):
        emb = positive_embedding(rng, 10, 30)
        before = emb.data.copy()
        spectral_embed(emb, 3)
        assert np.array_equal(emb.data, before)

    def test_gram_path_peak_is_one_block(self, monkeypatch):
        # no second D x n array: the peak is one column block plus n x K
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

    def test_rank_deficient_embedding_refused(self, rng):
        # rank-one Psi: s2 sits at the Gram noise floor, not a real value
        psi = np.outer(rng.random(20) + 0.5, rng.random(300) + 0.5)
        with pytest.raises(RankDeficient):
            spectral_embed(EmbeddingMatrix(data=psi), 2)

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

    def test_rows_do_not_depend_on_blas_threads(self, tmp_path):
        # D = 100, the CLI's default landmark count: 2 threads split an
        # unpadded 100-row Gram block 50 + 50 and round otherwise than 1
        one = spectral_embed_in_child(tmp_path, 1, 100, 21_000)
        two = spectral_embed_in_child(tmp_path, 2, 100, 21_000)
        assert np.array_equal(one["svals"], two["svals"])
        assert np.array_equal(one["rows"], two["rows"])

    def test_peak_growth_is_gram_block_plus_k_n(self, tmp_path):
        # D = 400, n = 31 500 on 2 threads: the peak grows by the Gram
        # block, a few n x K arrays, and 8 MiB for the D x D eigensolve
        # and the interpreter.  Psi^T U would take the BLAS 28 MiB more.
        count, n, k = 400, 31_500, 5
        got = spectral_embed_in_child(tmp_path, 2, count, n)
        budget = 8 * (cluster._GRAM_BLOCK_ENTRIES + 4 * k * n) + 8 * 2**20
        assert int(got["growth"]) <= budget


class TestFlsCluster:
    def test_two_planes_perfect(self, rng):
        data = two_plane_data(rng)
        cfg = LandmarkConfig(n_landmarks=20, flat_dim=2)
        result = fls_cluster(data, 2, cfg, seed=0)
        agree = (result.labels == data.labels).mean()
        assert agree in (0.0, 1.0) or max(agree, 1 - agree) == 1.0
        assert max(agree, 1 - agree) == 1.0  # up to label swap

    def test_single_cluster(self, rng):
        pts = rng.standard_normal((12, 3))
        cfg = LandmarkConfig(n_landmarks=4, flat_dim=1)
        result = fls_cluster(pts, 1, cfg, seed=1)
        assert np.all(result.labels == 0)

    def test_n_equals_k_rank_deficiency_surfaces(self, rng):
        # 3 points, 1-dim flats: two landmarks share the same 2-point line,
        # so the embedding has rank 2 < K and the svd stage refuses
        pts = rng.standard_normal((3, 2)) * 5
        cfg = LandmarkConfig(n_landmarks=3, flat_dim=1, init_neighbors=2)
        with pytest.raises(PipelineError) as err:
            fls_cluster(pts, 3, cfg, seed=1)
        assert err.value.stage == "svd"

    def test_scale_invariance_with_auto_sigma(self, rng):
        # distances and the median bandwidth scale together
        data = two_plane_data(rng)
        cfg = LandmarkConfig(n_landmarks=15, flat_dim=2)
        a = fls_cluster(data.points, 2, cfg, seed=4)
        b = fls_cluster(data.points * 10.0, 2, cfg, seed=4)
        assert np.array_equal(a.labels, b.labels)
        assert np.allclose(a.singular_values, b.singular_values, atol=1e-8)

    def test_deterministic(self, rng):
        data = two_plane_data(rng, n_per=40)
        cfg = LandmarkConfig(n_landmarks=10, flat_dim=2, method="kmeans")
        a = fls_cluster(data, 2, cfg, seed=7, normalize_sphere=True)
        b = fls_cluster(data, 2, cfg, seed=7, normalize_sphere=True)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.embedding, b.embedding)

    def test_too_few_points(self, rng):
        cfg = LandmarkConfig(n_landmarks=2, flat_dim=1)
        with pytest.raises(DegenerateInput):
            fls_cluster(rng.standard_normal((2, 3)), 3, cfg)

    def test_stage_named_on_failure(self, rng):
        # more landmarks than points fails inside the landmarks stage
        cfg = LandmarkConfig(n_landmarks=50, flat_dim=1)
        with pytest.raises(PipelineError) as err:
            fls_cluster(rng.standard_normal((10, 3)), 2, cfg, seed=0)
        assert err.value.stage == "landmarks"
        assert "landmarks" in str(err.value)

    def test_timings_cover_stages(self, rng):
        data = two_plane_data(rng, n_per=30)
        cfg = LandmarkConfig(n_landmarks=8, flat_dim=2)
        result = fls_cluster(data, 2, cfg, seed=2)
        assert set(result.timings) == {"landmarks", "flats", "embed", "svd", "kmeans"}
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
        cfg = LandmarkConfig(n_landmarks=8, flat_dim=2)
        result = fls_cluster(data, 2, cfg, seed=3)
        doc = result.to_json()
        json.dumps(doc)
        assert doc["n_points"] == 50
        assert len(doc["labels"]) == 50
        assert len(doc["singular_values"]) == 2


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
        spec = build_subspace_spec(
            data.points, LandmarkConfig(n_landmarks=10, flat_dim=2), seed=0
        )
        w = approx_kernel_matrix(spec, data.points)
        result = dense_spectral_cluster(w, 2, seed=0)
        agree = (result.labels == data.labels).mean()
        assert max(agree, 1 - agree) == 1.0

    def test_same_kernel_matches_embedding_route(self, rng):
        # identical W-hat: labels identical partitions, spectra within 1e-8
        data = two_plane_data(rng, n_per=25)
        spec = build_subspace_spec(
            data.points, LandmarkConfig(n_landmarks=8, flat_dim=2), seed=1
        )
        from fls.kernels import embed

        emb = embed(spec, data.points)
        rows, svals = spectral_embed(emb, 2)
        dense = dense_spectral_cluster(approx_kernel_matrix(spec, data.points), 2, seed=5)
        assert np.allclose(svals, dense.singular_values, atol=1e-8)
        assert np.allclose(np.abs(rows), np.abs(dense.embedding), atol=1e-6)

    def test_dense_limit(self, rng):
        w = np.eye(10)
        with pytest.raises(DenseLimitExceeded):
            dense_spectral_cluster(w, 2, dense_limit=5)

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
