"""Feature maps: sampling, distances, embeddings, kernel estimates."""

import math
import tracemalloc

import numpy as np
import pytest

from fls import kernels
from fls.errors import (
    DenseLimitExceeded,
    DimensionMismatch,
    InvalidParam,
)
from fls.kernels import (
    AffineFlat,
    EmbeddingMatrix,
    GaussianRFF,
    LandmarkGaussian,
    SubspaceKernel,
    approx_kernel_matrix,
    embed,
    exact_gaussian_kernel,
    feature_matrix,
    flat_distance,
    flat_distance_matrix,
    gaussian_kernel_matrix,
    sample_gaussian_rff,
    sample_uniform_grassmann,
    spec_from_json,
    spec_to_json,
)
from fls.linalg import haar_frames


def oracle_flat_sq_dists(flats, pts, block_entries=4_000_000):
    """Squared distances as the grouped two-GEMM formula on whole arrays.

    Per flat dimension: |x|^2 - 2 b.x + |b|^2 from one GEMM over all
    points, minus |F^T x - F^T b|^2 from one GEMM per column block of
    block_entries // (g l) points, clipped at zero.
    """
    n, d = pts.shape
    out = np.empty((len(flats), n))
    by_dim = {}
    for i, f in enumerate(flats):
        by_dim.setdefault(f.dim, []).append(i)
    for flat_dim, idxs in by_dim.items():
        rows = np.asarray(idxs)
        bases = np.stack([flats[i].base for i in idxs])
        frames = np.stack([flats[i].basis for i in idxs])
        g = len(idxs)
        b_sq = (bases**2).sum(axis=1)
        x_sq = (pts**2).sum(axis=1)
        d2_full = x_sq[None, :] - 2.0 * (bases @ pts.T) + b_sq[:, None]
        stacked = frames.transpose(0, 2, 1).reshape(g * flat_dim, d)
        base_proj = np.einsum("gdl,gd->gl", frames, bases)
        chunk = max(1, int(block_entries // max(g * flat_dim, 1)))
        for s in range(0, n, chunk):
            e = min(n, s + chunk)
            proj = (stacked @ pts[s:e].T).reshape(g, flat_dim, e - s)
            proj -= base_proj[:, :, None]
            d2 = d2_full[:, s:e] - (proj**2).sum(axis=1)
            out[rows, s:e] = np.clip(d2, 0.0, None)
    return out


def oracle_embed(spec, pts, block_entries=4_000_000):
    """exp(-d2 / sigma^2) / sqrt(D) over the oracle distances."""
    d2 = oracle_flat_sq_dists(spec.flats, pts, block_entries)
    return np.exp(-d2 / spec.sigma**2) / math.sqrt(spec.n_features)


def random_flats(gen, count, ambient, dims, affine):
    """count flats in R^ambient cycling through dims, zero bases unless affine."""
    return tuple(
        AffineFlat(
            base=gen.standard_normal(ambient) if affine else np.zeros(ambient),
            basis=haar_frames(gen, (ambient, dims[i % len(dims)])),
        )
        for i in range(count)
    )


def xaxis_flat(d, through=None):
    basis = np.zeros((d, 1))
    basis[0, 0] = 1.0
    return AffineFlat(base=np.zeros(d) if through is None else through, basis=basis)


class TestSampling:
    def test_rff_deterministic(self):
        a = sample_gaussian_rff(1.0, 50, 3, seed=4)
        b = sample_gaussian_rff(1.0, 50, 3, seed=4)
        c = sample_gaussian_rff(1.0, 50, 3, seed=5)
        assert np.array_equal(a.frequencies, b.frequencies)
        assert np.array_equal(a.phases, b.phases)
        assert not np.array_equal(a.frequencies, c.frequencies)

    def test_rff_frequency_moments(self):
        # entries ~ N(0, 1/sigma^2); mean within 3 SE, variance within 5%
        spec = sample_gaussian_rff(2.0, 2000, 5, seed=0)
        entries = spec.frequencies.ravel()
        se = 0.5 / math.sqrt(entries.size)
        assert abs(entries.mean()) < 3 * se
        assert abs(entries.var() - 0.25) < 0.05 * 0.25

    def test_rff_phases_in_range(self):
        spec = sample_gaussian_rff(1.0, 500, 2, seed=1)
        assert np.all(spec.phases >= 0.0)
        assert np.all(spec.phases < 2 * math.pi)

    def test_rff_bad_params(self):
        with pytest.raises(InvalidParam):
            sample_gaussian_rff(0.0, 10, 2)
        with pytest.raises(InvalidParam):
            sample_gaussian_rff(-1.0, 10, 2)
        with pytest.raises(InvalidParam):
            sample_gaussian_rff(1.0, 0, 2)

    def test_grassmann_orthonormal(self):
        flats = sample_uniform_grassmann(5, 2, 20, seed=3)
        assert len(flats) == 20
        for f in flats:
            assert np.allclose(f.basis.T @ f.basis, np.eye(2), atol=1e-10)
            assert np.all(f.base == 0.0)

    def test_grassmann_first_coordinate_mass(self):
        # Haar lines in R^3: direction uniform on the sphere, E[u1^2] = 1/3
        flats = sample_uniform_grassmann(3, 1, 3000, seed=2)
        m = np.mean([f.basis[0, 0] ** 2 for f in flats])
        assert abs(m - 1.0 / 3.0) < 0.02

    def test_grassmann_deterministic(self):
        a = sample_uniform_grassmann(4, 2, 5, seed=9)
        b = sample_uniform_grassmann(4, 2, 5, seed=9)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.basis, fb.basis)

    def test_grassmann_bad_params(self):
        with pytest.raises(InvalidParam):
            sample_uniform_grassmann(3, 3, 5)
        with pytest.raises(InvalidParam):
            sample_uniform_grassmann(3, 0, 5)


class TestFlatDistance:
    def test_point_on_flat(self):
        assert flat_distance(np.array([7.0, 0.0]), xaxis_flat(2)) == 0.0

    def test_known_offsets(self):
        flat = xaxis_flat(3)
        assert flat_distance(np.array([2.0, 3.0, 4.0]), flat) == pytest.approx(5.0)
        shifted = xaxis_flat(3, through=np.array([0.0, 1.0, 0.0]))
        assert flat_distance(np.array([9.0, 1.0, 2.0]), shifted) == pytest.approx(2.0)

    def test_against_lstsq_oracle(self, rng):
        for _ in range(20):
            flat = AffineFlat(
                base=rng.standard_normal(6), basis=haar_frames(rng, (6, 3))
            )
            x = rng.standard_normal(6)
            got = flat_distance(x, flat)
            coef, *_ = np.linalg.lstsq(flat.basis, x - flat.base, rcond=None)
            expected = np.linalg.norm(x - flat.base - flat.basis @ coef)
            assert got == pytest.approx(expected, abs=1e-10)

    def test_matrix_matches_scalar(self, rng):
        flats = [
            AffineFlat(base=rng.standard_normal(4), basis=haar_frames(rng, (4, l)))
            for l in (1, 2, 2, 3)
        ]
        pts = rng.standard_normal((7, 4))
        mat = flat_distance_matrix(flats, pts)
        assert mat.shape == (4, 7)
        for i, f in enumerate(flats):
            for j in range(7):
                assert mat[i, j] == pytest.approx(flat_distance(pts[j], f), abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            flat_distance(np.zeros(3), xaxis_flat(2))
        with pytest.raises(DimensionMismatch):
            flat_distance_matrix([xaxis_flat(2)], np.zeros((5, 3)))


class TestFeatureValues:
    def test_subspace_kernel_sigma_convention(self):
        # f = exp(-dist^2 / sigma^2): no factor 2 in this family
        spec = SubspaceKernel(sigma=0.5, flats=(xaxis_flat(2),))
        val = feature_matrix(spec, np.array([[0.0, 0.5]]))[0, 0]
        assert val == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_landmark_gaussian_normalizer(self):
        # at its own center the bump equals (2 pi sigma^2)^(-d/2)
        spec = LandmarkGaussian(sigma=1.0, centers=np.zeros((1, 2)))
        val = feature_matrix(spec, np.zeros((1, 2)))[0, 0]
        assert val == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-12)

    def test_landmark_gaussian_scaling_in_exponent(self):
        # ratio between dist=sigma and dist=0 is exp(-1/2)
        spec = LandmarkGaussian(sigma=2.0, centers=np.zeros((1, 3)))
        vals = feature_matrix(spec, np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]))
        assert vals[0, 1] / vals[0, 0] == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_rff_formula(self):
        freqs = np.array([[1.0, 0.0], [0.0, 2.0]])
        phases = np.array([0.0, math.pi / 2])
        spec = GaussianRFF(sigma=1.0, frequencies=freqs, phases=phases)
        vals = feature_matrix(spec, np.array([[math.pi, 1.0]]))
        assert vals[0, 0] == pytest.approx(math.sqrt(2) * math.cos(math.pi), abs=1e-12)
        assert vals[1, 0] == pytest.approx(
            math.sqrt(2) * math.cos(2.0 + math.pi / 2), abs=1e-12
        )

    def test_points_dim_mismatch(self):
        spec = LandmarkGaussian(sigma=1.0, centers=np.zeros((2, 3)))
        with pytest.raises(DimensionMismatch):
            feature_matrix(spec, np.zeros((4, 2)))


class TestEmbed:
    def test_scaling_on_flat(self):
        # points on every flat: all features 1, embedding 1/sqrt(D) exactly
        flats = tuple(xaxis_flat(3) for _ in range(4))
        spec = SubspaceKernel(sigma=1.0, flats=flats)
        emb = embed(spec, np.array([[1.0, 0.0, 0.0], [-2.0, 0.0, 0.0]]))
        assert emb.n_features == 4
        assert emb.n_points == 2
        assert np.allclose(emb.data, 0.5, atol=1e-14)

    def test_rff_self_kernel_near_one(self, rng):
        spec = sample_gaussian_rff(1.0, 4000, 3, seed=6)
        x = rng.standard_normal((1, 3))
        emb = embed(spec, x)
        assert abs(float(emb.data[:, 0] @ emb.data[:, 0]) - 1.0) < 0.05

    def test_rff_cross_kernel(self):
        # |x1 - x2| = sigma, exact kernel exp(-1/2)
        spec = sample_gaussian_rff(1.5, 4000, 2, seed=8)
        pts = np.array([[0.0, 0.0], [1.5, 0.0]])
        emb = embed(spec, pts).data
        est = float(emb[:, 0] @ emb[:, 1])
        assert abs(est - math.exp(-0.5)) < 0.03


class TestBlockedFill:
    """embed, feature_matrix and flat_distance_matrix against the oracle,
    bit for bit.  Most cases shrink the block so that a few hundred
    points span several blocks; the first keeps the default block."""

    @pytest.mark.parametrize(
        "block_entries, count, dims, affine, n",
        [
            (4_000_000, 400, (2,), False, 2 * 5000 + 1),
            (4000, 40, (2,), False, 3 * 50 + 1),
            (4000, 40, (2,), True, 3 * 50 + 1),
            (4000, 40, (2,), True, 3 * 50 + 17),
            (4000, 40, (2,), True, 50),
            (4000, 30, (1, 3, 2), True, 2 * 111 + 1),
            (4000, 30, (1, 3, 2), False, 2 * 111 + 40),
            (4000, 1, (1,), True, 2 * 4000 + 1),
            (4000, 40, (2,), True, 1),
        ],
    )
    def test_bit_identical_to_oracle(self, monkeypatch, block_entries, count, dims, affine, n):
        monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", block_entries, raising=False)
        gen = np.random.default_rng(count + n)
        flats = random_flats(gen, count, 6, dims, affine)
        pts = gen.standard_normal((n, 6))
        spec = SubspaceKernel(sigma=0.8, flats=flats)
        d2 = oracle_flat_sq_dists(flats, pts, block_entries)
        assert np.array_equal(flat_distance_matrix(flats, pts), np.sqrt(d2))
        assert np.array_equal(feature_matrix(spec, pts), np.exp(-d2 / 0.8**2))
        assert np.array_equal(embed(spec, pts).data, oracle_embed(spec, pts, block_entries))

    def test_consecutive_groups(self, monkeypatch):
        # two dimensions in two runs of rows: each group fills a row slice
        monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", 4000, raising=False)
        gen = np.random.default_rng(5)
        flats = random_flats(gen, 20, 6, (2,), True) + random_flats(gen, 20, 6, (3,), True)
        pts = gen.standard_normal((301, 6))
        spec = SubspaceKernel(sigma=1.1, flats=flats)
        assert np.array_equal(embed(spec, pts).data, oracle_embed(spec, pts, 4000))

    def test_point_bumps_match_whole_array_formula(self, monkeypatch):
        monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", 4000, raising=False)
        gen = np.random.default_rng(6)
        centers, pts = gen.standard_normal((40, 5)), gen.standard_normal((301, 5))
        spec = LandmarkGaussian(sigma=1.3, centers=centers)
        c_sq, x_sq = (centers**2).sum(axis=1), (pts**2).sum(axis=1)
        d2 = x_sq[None, :] - 2.0 * (centers @ pts.T) + c_sq[:, None]
        norm = (2.0 * math.pi * 1.3**2) ** (-5 / 2.0)
        want = norm * np.exp(-np.clip(d2, 0.0, None) / (2.0 * 1.3**2))
        assert np.array_equal(feature_matrix(spec, pts), want)
        assert np.array_equal(embed(spec, pts).data, want / math.sqrt(40))
        x_sq = (pts**2).sum(axis=1)
        d2 = x_sq[None, :] - 2.0 * (pts @ pts.T) + x_sq[:, None]
        want = np.exp(-np.clip(d2, 0.0, None) / (2.0 * 1.3**2))
        assert np.array_equal(gaussian_kernel_matrix(pts, 1.3), want)

    def test_rff_matches_whole_array_formula(self):
        spec = sample_gaussian_rff(0.7, 50, 4, seed=2)
        pts = np.random.default_rng(7).standard_normal((33, 4))
        want = math.sqrt(2.0) * np.cos(spec.frequencies @ pts.T + spec.phases[:, None])
        assert np.array_equal(embed(spec, pts).data, want / math.sqrt(50))

    def test_embed_peak_is_one_buffer(self, monkeypatch):
        # the peak is the D x n result plus one block, not several D x n arrays
        monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", 2**16, raising=False)
        gen = np.random.default_rng(8)
        count, n = 200, 20_000
        spec = SubspaceKernel(sigma=0.5, flats=random_flats(gen, count, 10, (2,), False))
        pts = gen.standard_normal((n, 10))
        tracemalloc.start()
        try:
            embed(spec, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * count * n * 8


class TestKernelEstimates:
    def test_exact_gaussian_values(self):
        assert exact_gaussian_kernel(np.zeros(2), np.zeros(2), 1.0) == 1.0
        assert exact_gaussian_kernel(
            np.array([1.0, 0.0]), np.zeros(2), 1.0
        ) == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_gaussian_matrix_matches_scalar(self, rng):
        pts = rng.standard_normal((6, 3))
        k = gaussian_kernel_matrix(pts, 1.3)
        for i in range(6):
            for j in range(6):
                assert k[i, j] == pytest.approx(
                    exact_gaussian_kernel(pts[i], pts[j], 1.3), abs=1e-12
                )

    def test_rff_estimator_unbiased(self, rng):
        # 50 independent feature draws: mean estimate within 3 SE of exact
        x1 = rng.standard_normal(3)
        x2 = x1 + np.array([0.8, -0.3, 0.5])
        sigma = 1.2
        exact = exact_gaussian_kernel(x1, x2, sigma)
        pts = np.stack([x1, x2])
        ests = []
        for s in range(50):
            emb = embed(sample_gaussian_rff(sigma, 500, 3, seed=1000 + s), pts).data
            ests.append(float(emb[:, 0] @ emb[:, 1]))
        ests = np.asarray(ests)
        se = ests.std(ddof=1) / math.sqrt(len(ests))
        assert abs(ests.mean() - exact) < 3 * se + 1e-6

    def test_landmark_empirical_measure_oracle(self, rng):
        # hand-rolled loop oracle for the vectorized bump features
        centers = rng.standard_normal((5, 2))
        pts = rng.standard_normal((4, 2))
        sigma = 0.9
        spec = LandmarkGaussian(sigma=sigma, centers=centers)
        got = approx_kernel_matrix(spec, pts)
        norm = (2 * math.pi * sigma**2) ** (-1.0)
        expected = np.zeros((4, 4))
        for i in range(4):
            for j in range(4):
                acc = 0.0
                for c in centers:
                    fi = norm * math.exp(-((pts[i] - c) @ (pts[i] - c)) / (2 * sigma**2))
                    fj = norm * math.exp(-((pts[j] - c) @ (pts[j] - c)) / (2 * sigma**2))
                    acc += fi * fj
                expected[i, j] = acc / len(centers)
        assert np.allclose(got, expected, atol=1e-12)


class TestApproxKernelMatrix:
    def test_single_point(self):
        spec = SubspaceKernel(sigma=1.0, flats=(xaxis_flat(2),))
        k = approx_kernel_matrix(spec, np.array([[0.0, 0.0]]))
        assert k.shape == (1, 1)
        assert k[0, 0] == pytest.approx(1.0)

    def test_symmetric_and_psd(self, rng):
        spec = sample_gaussian_rff(1.0, 40, 3, seed=2)
        k = approx_kernel_matrix(spec, rng.standard_normal((25, 3)))
        assert np.max(np.abs(k - k.T)) <= 1e-12
        assert np.linalg.eigvalsh(k).min() >= -1e-8

    def test_dense_limit(self, rng):
        spec = sample_gaussian_rff(1.0, 10, 2, seed=0)
        with pytest.raises(DenseLimitExceeded):
            approx_kernel_matrix(spec, rng.standard_normal((6, 2)), dense_limit=5)


class TestSpecJson:
    def test_round_trip_all_variants(self, rng):
        flats = tuple(
            AffineFlat(base=rng.standard_normal(3), basis=haar_frames(rng, (3, 2)))
            for _ in range(2)
        )
        specs = [
            sample_gaussian_rff(1.1, 8, 3, seed=0),
            LandmarkGaussian(sigma=0.7, centers=rng.standard_normal((4, 3))),
            SubspaceKernel(sigma=2.0, flats=flats),
        ]
        pts = rng.standard_normal((5, 3))
        for spec in specs:
            back = spec_from_json(spec_to_json(spec))
            assert type(back) is type(spec)
            assert np.allclose(
                embed(spec, pts).data, embed(back, pts).data, atol=1e-15
            )

    def test_json_is_plain_data(self):
        doc = spec_to_json(sample_gaussian_rff(1.0, 3, 2, seed=1))
        import json

        json.dumps(doc)  # must not raise

    def test_bad_documents(self):
        with pytest.raises(InvalidParam):
            spec_from_json({"kind": "mystery"})
        with pytest.raises(InvalidParam):
            spec_from_json({"kind": "gaussian_rff", "sigma": 1.0})


class TestSpecValidation:
    def test_mixed_ambient_flats(self):
        with pytest.raises(DimensionMismatch):
            SubspaceKernel(sigma=1.0, flats=(xaxis_flat(2), xaxis_flat(3)))

    def test_empty_flats(self):
        with pytest.raises(InvalidParam):
            SubspaceKernel(sigma=1.0, flats=())

    def test_nonpositive_sigma(self):
        with pytest.raises(InvalidParam):
            SubspaceKernel(sigma=0.0, flats=(xaxis_flat(2),))
        with pytest.raises(InvalidParam):
            LandmarkGaussian(sigma=-2.0, centers=np.zeros((1, 2)))

    def test_rff_shape_mismatch(self):
        with pytest.raises(InvalidParam):
            GaussianRFF(
                sigma=1.0, frequencies=np.zeros((3, 2)), phases=np.zeros(4)
            )

    def test_embedding_check_allocates_no_copy(self):
        # finiteness is checked without a D x n temporary such as np.isfinite's
        count, n = 100, 10_000
        data = np.random.default_rng(3).random((count, n))
        data[0, :2] = 1.7e308, -1.7e308  # finite, though their sum overflows
        tracemalloc.start()
        try:
            EmbeddingMatrix(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * count * n * 8
        for bad in (np.nan, np.inf, -np.inf):
            data[7, 4321] = bad
            with pytest.raises(InvalidParam):
                EmbeddingMatrix(data)

    def test_nan_rejected(self):
        centers = np.zeros((2, 2))
        centers[0, 0] = np.nan
        with pytest.raises(InvalidParam):
            LandmarkGaussian(sigma=1.0, centers=centers)
