"""Feature maps: sampling, distances, embeddings, kernel estimates."""

import math
import subprocess
import sys
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
    feature_matrix,
    gaussian_kernel_matrix,
    haar_frame_batch,
    sample_gaussian_rff,
)
from fls.landmarks import default_sigma
from fls.linalg import haar_frames

from oracles import flat_distance, gaussian_kernel
from test_cli import subprocess_env


def aligned_product(a, b):
    """a @ b with every GEMM a whole 32 columns wide: the first whole 32
    columns in one GEMM, the last n mod 32 through a zero-padded copy."""
    n = b.shape[1]
    whole = n - n % 32
    tail = np.zeros((b.shape[0], 32))
    tail[:, : n - whole] = b[:, whole:]
    return np.hstack([a @ b[:, :whole], (a @ tail)[:, : n - whole]])


def oracle_sq_dists(bases, frames, pts, block_entries=2**18):
    """Squared distances from the two-GEMM formula, one column block of
    block_entries // (D (l + 1)) points (block_entries // D for l = 0; a
    multiple of 32) at a time:
    |x|^2 - 2 b.x + |b|^2 minus |F^T x - F^T b|^2, clipped at zero, with
    both products from ``aligned_product``.  l may be 0."""
    n, d = pts.shape
    g, flat_dim = frames.shape[0], frames.shape[2]
    out = np.empty((g, n))
    b_sq = (bases**2).sum(axis=1)
    x_sq = (pts**2).sum(axis=1)
    stacked = frames.transpose(0, 2, 1).reshape(g * flat_dim, d)
    base_proj = np.einsum("gdl,gd->gl", frames, bases)
    chunk = max(32, int(block_entries // (g * (flat_dim + 1 if flat_dim else 1))) // 32 * 32)
    for s in range(0, n, chunk):
        e = min(n, s + chunk)
        x = pts[s:e].T
        d2 = x_sq[None, s:e] - 2.0 * aligned_product(bases, x) + b_sq[:, None]
        if flat_dim:
            proj = aligned_product(stacked, x).reshape(g, flat_dim, e - s)
            proj -= base_proj[:, :, None]
            d2 -= (proj**2).sum(axis=1)
        out[:, s:e] = np.clip(d2, 0.0, None)
    return out


def oracle_flat_sq_dists(flats, pts, block_entries=2**18):
    """``oracle_sq_dists`` of a sequence or stack of flats."""
    flats = kernels._stack_flats(flats)
    return oracle_sq_dists(flats.base, flats.basis, pts, block_entries)


def oracle_embed(spec, pts, block_entries=2**18):
    """exp(-d2 / sigma^2) / sqrt(D) over the oracle distances."""
    d2 = oracle_flat_sq_dists(spec.flats, pts, block_entries)
    return np.exp(-d2 / spec.sigma**2) / math.sqrt(spec.n_features)


def longdouble_sq_dists(flats, pts):
    """Squared distances |r|^2 of the residuals r = (x - b) - F F^T (x - b),
    computed in np.longdouble: an independent reference for the lifted fill."""
    bases = np.asarray(flats.base, dtype=np.longdouble)
    frames = np.asarray(flats.basis, dtype=np.longdouble)
    diff = np.asarray(pts, dtype=np.longdouble)[None, :, :] - bases[:, None, :]
    coords = np.einsum("gnd,gdl->gnl", diff, frames)
    resid = diff - np.einsum("gnl,gdl->gnd", coords, frames)
    return np.einsum("gnd,gnd->gn", resid, resid)


def lifted_tolerance(flats, pts):
    """Roundoff bound q eps (|x| + |b|)^2 of the lifted form per (flat, point)."""
    d = pts.shape[1]
    q = d * (d + 1) // 2 + d + 1
    size = np.linalg.norm(flats.base, axis=1)[:, None] + np.linalg.norm(pts, axis=1)[None, :]
    return q * np.finfo(float).eps * size**2


def random_flats(gen, count, ambient, flat_dim, affine):
    """count flat_dim-flats in R^ambient, zero bases unless affine."""
    return tuple(
        AffineFlat(
            base=gen.standard_normal(ambient) if affine else np.zeros(ambient),
            basis=haar_frames(gen, (ambient, flat_dim)),
        )
        for _ in range(count)
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
        frames = haar_frame_batch(5, 2, 20, seed=3)
        assert frames.shape == (20, 5, 2)
        for basis in frames:
            assert np.allclose(basis.T @ basis, np.eye(2), atol=1e-10)

    def test_grassmann_first_coordinate_mass(self):
        # Haar lines in R^3: direction uniform on the sphere, E[u1^2] = 1/3
        frames = haar_frame_batch(3, 1, 3000, seed=2)
        assert abs(np.mean(frames[:, 0, 0] ** 2) - 1.0 / 3.0) < 0.02

    def test_grassmann_deterministic(self):
        a = haar_frame_batch(4, 2, 5, seed=9)
        b = haar_frame_batch(4, 2, 5, seed=9)
        c = haar_frame_batch(4, 2, 5, seed=10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_grassmann_bad_params(self):
        with pytest.raises(InvalidParam):
            haar_frame_batch(3, 3, 5)
        with pytest.raises(InvalidParam):
            haar_frame_batch(3, 0, 5)
        with pytest.raises(InvalidParam):
            haar_frame_batch(3, 1, 0)


def one_distance(x, flat):
    """``default_sigma`` of one point and one flat: the median of its one
    pair is that point's distance, floored at 1e-6."""
    return default_sigma(x[None], [flat])


class TestFlatDistance:
    """Point-to-flat distances through ``default_sigma``, the one public
    call that returns them: one pair gives the distance itself, and a
    stack of n * D <= 10 000 pairs takes its exact branch over all of them."""

    def test_point_on_flat(self):
        assert one_distance(np.array([7.0, 0.0]), xaxis_flat(2)) == 1e-6

    def test_known_offsets(self):
        flat = xaxis_flat(3)
        assert one_distance(np.array([2.0, 3.0, 4.0]), flat) == pytest.approx(5.0)
        shifted = xaxis_flat(3, through=np.array([0.0, 1.0, 0.0]))
        assert one_distance(np.array([9.0, 1.0, 2.0]), shifted) == pytest.approx(2.0)

    def test_against_lstsq_oracle(self, rng):
        for _ in range(20):
            flat = AffineFlat(
                base=rng.standard_normal(6), basis=haar_frames(rng, (6, 3))
            )
            x = rng.standard_normal(6)
            got = one_distance(x, flat)
            coef, *_ = np.linalg.lstsq(flat.basis, x - flat.base, rcond=None)
            expected = np.linalg.norm(x - flat.base - flat.basis @ coef)
            assert got == pytest.approx(expected, abs=1e-10)

    def test_matrix_matches_scalar(self, rng):
        # the exact branch over all 7 x 4 pairs is the median of the scalar
        # oracle, for one stack per flat dimension, linear and affine
        pts = rng.standard_normal((7, 4))
        for affine in (False, True):
            for flat_dim in (1, 2, 3):
                flats = random_flats(rng, 4, 4, flat_dim, affine)
                want = np.median([flat_distance(x, f) for x in pts for f in flats])
                assert default_sigma(pts, flats) == pytest.approx(want, rel=1e-15, abs=0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            one_distance(np.zeros(3), xaxis_flat(2))
        with pytest.raises(DimensionMismatch):
            default_sigma(np.zeros((5, 3)), [xaxis_flat(2)])

    def test_matrix_rejects_mixed_flat_dimensions(self, rng):
        line, plane = (AffineFlat(np.zeros(4), haar_frames(rng, (4, l))) for l in (1, 2))
        with pytest.raises(DimensionMismatch, match="same ambient and flat dimension"):
            default_sigma(rng.standard_normal((3, 4)), [line, plane])

    def test_matrix_rejects_empty_stack(self):
        with pytest.raises(InvalidParam, match="at least one flat"):
            default_sigma(np.zeros((3, 2)), [])


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
    """embed and feature_matrix against the oracle.

    The projected fill (point bumps and the subspace stacks the branch
    rule gives it) is bit-identical to the oracle; the lifted fill
    agrees with a longdouble reference within its roundoff bound.  Most
    cases shrink the block so that a few hundred points span several
    blocks; the first keeps the default block.  dims holds the one flat
    dimension of each case's stack."""

    @pytest.mark.parametrize(
        "block_entries, count, dims, affine, n",
        [
            (2**18, 400, (2,), False, 2 * 5000 + 1),
            (4000, 40, (2,), False, 3 * 50 + 1),
            (4000, 40, (2,), True, 3 * 50 + 1),
            (4000, 40, (2,), True, 3 * 50 + 17),
            (4000, 40, (2,), True, 50),
            (4000, 30, (1,), True, 2 * 111 + 1),
            (4000, 30, (3,), False, 2 * 111 + 40),
            (4000, 1, (1,), True, 2 * 4000 + 1),
            (4000, 40, (2,), True, 1),
        ],
    )
    def test_bit_identical_to_oracle(self, monkeypatch, block_entries, count, dims, affine, n):
        # these R^6 stacks take the lifted fill; forced onto the projected
        # one, every output is the oracle's bit for bit
        monkeypatch.setattr(kernels, "_PROJ_ENTRIES", block_entries)
        monkeypatch.setattr(kernels, "_lifted_wins", lambda d, l: False)
        gen = np.random.default_rng(count + n)
        flats = random_flats(gen, count, 6, dims[0], affine)
        pts = gen.standard_normal((n, 6))
        spec = SubspaceKernel(sigma=0.8, flats=flats)
        d2 = oracle_flat_sq_dists(flats, pts, block_entries)
        assert np.array_equal(feature_matrix(spec, pts), np.exp(-d2 / 0.8**2))
        assert np.array_equal(embed(spec, pts).data, oracle_embed(spec, pts, block_entries))

    @pytest.mark.parametrize("affine", [False, True])
    def test_projected_branch_is_bit_identical_at_high_d(self, monkeypatch, affine):
        # l-flats in R^40 take the projected fill by the branch rule itself
        monkeypatch.setattr(kernels, "_PROJ_ENTRIES", 4000)
        gen = np.random.default_rng(40)
        flats = random_flats(gen, 20, 40, 3, affine)
        pts = gen.standard_normal((2 * 66 + 5, 40))
        spec = SubspaceKernel(sigma=6.0, flats=flats)
        assert not kernels._lifted_wins(40, 3)
        d2 = oracle_flat_sq_dists(flats, pts, 4000)
        assert np.array_equal(feature_matrix(spec, pts), np.exp(-d2 / 6.0**2))
        assert np.array_equal(embed(spec, pts).data, oracle_embed(spec, pts, 4000))

    @pytest.mark.parametrize(
        "d, l, affine, scale, n",
        [
            (6, 1, False, 1.0, 700),
            (6, 2, True, 1.0, 700),
            (6, 3, True, 5.0, 700),
            (10, 2, False, 1.0, 700),
            (10, 2, True, 1.0, 640),
            (10, 2, True, 1.0, 31),
            (10, 2, True, 1.0, 1),
            (20, 3, True, 1.0, 700),
            (30, 2, False, 1.0, 700),
            (40, 3, True, 1.0, 700),
        ],
    )
    def test_lifted_fill_matches_longdouble_reference(
        self, monkeypatch, d, l, affine, scale, n
    ):
        # every case on the lifted fill, past the crossover (d = 30, 40)
        # too; 8192-entry blocks, so n = 700 spans several blocks and a
        # zero-padded edge of 700 mod 32 points (n = 640 has no edge,
        # n = 31 and 1 only an edge)
        monkeypatch.setattr(kernels, "_LIFT_ENTRIES", 2**13)
        monkeypatch.setattr(kernels, "_lifted_wins", lambda d, l: True)
        gen = np.random.default_rng(100 * d + l)
        flats = kernels._stack_flats(random_flats(gen, 30, d, l, affine))
        flats = AffineFlat(scale * flats.base, flats.basis)
        pts = scale * gen.standard_normal((n, d))
        sigma = 0.5 * scale * math.sqrt(d)
        d2 = longdouble_sq_dists(flats, pts)
        want = np.exp(-d2 / np.longdouble(sigma) ** 2)
        rtol = lifted_tolerance(flats, pts) / sigma**2 + 4 * np.finfo(float).eps
        spec = SubspaceKernel(sigma=sigma, flats=flats)
        got = feature_matrix(spec, pts)
        assert np.all(np.abs(got - want) <= rtol * want)
        got = embed(spec, pts).data * np.longdouble(math.sqrt(30))
        assert np.all(np.abs(got - want) <= (rtol + 4 * np.finfo(float).eps) * want)
        # forced onto the projected fill, the same stack gives the oracle's bits
        monkeypatch.setattr(kernels, "_lifted_wins", lambda d, l: False)
        d2 = oracle_flat_sq_dists(flats, pts)
        assert np.array_equal(feature_matrix(spec, pts), np.exp(-d2 / sigma**2))

    def test_lifted_fill_on_the_flat_is_one(self):
        # d2 = 0 is clipped exactly: features 1 and embedding 1/sqrt(D) in
        # the limit of roundoff, never above
        gen = np.random.default_rng(9)
        flats = kernels._stack_flats(random_flats(gen, 4, 10, 2, True))
        pts = flats.base + np.einsum("gdl,gl->gd", flats.basis, gen.standard_normal((4, 2)))
        got = feature_matrix(SubspaceKernel(sigma=0.5, flats=flats), pts)
        assert np.all(got <= 1.0)
        assert np.allclose(np.diag(got), 1.0, rtol=0, atol=1e-13)

    @pytest.mark.parametrize(
        "d, l, lifted",
        [
            # the bench shapes: five planes in R^10 and the four reference models
            (10, 2, True),
            (6, 2, True),
            (10, 6, True),
            (20, 7, True),
            (80, 7, False),
            # measured lifted / projected fill time at D = 100, n = 2e4
            (24, 1, False),  # 1.21
            (22, 2, True),  # 0.86
            (26, 2, False),  # 1.20
            (28, 2, False),  # 1.39
            (28, 5, True),  # 0.94
            (32, 5, False),  # 1.17
            (24, 7, True),  # 0.59
            (30, 7, True),  # 0.79
            (40, 10, True),  # 0.92
            (48, 10, False),  # 1.11
            (6, 0, False),  # point bumps have no lifted fill
        ],
    )
    def test_branch_rule_takes_the_measured_faster_fill(self, d, l, lifted):
        # bench shapes' ratios: (10, 2) 0.40, (6, 2) 0.30, (10, 6) 0.20,
        # (20, 7) 0.42, (80, 7) 4.55
        assert kernels._lifted_wins(d, l) is lifted

    def test_point_bumps_match_whole_array_formula(self, monkeypatch):
        monkeypatch.setattr(kernels, "_BUMP_ENTRIES", 4000)
        gen = np.random.default_rng(6)
        centers, pts = gen.standard_normal((40, 5)), gen.standard_normal((301, 5))
        spec = LandmarkGaussian(sigma=1.3, centers=centers)
        d2 = oracle_sq_dists(centers, np.empty((40, 5, 0)), pts, 4000)
        norm = (2.0 * math.pi * 1.3**2) ** (-5 / 2.0)
        want = norm * np.exp(-d2 / (2.0 * 1.3**2))
        assert np.array_equal(feature_matrix(spec, pts), want)
        assert np.array_equal(embed(spec, pts).data, want / math.sqrt(40))
        d2 = oracle_sq_dists(pts, np.empty((301, 5, 0)), pts, 4000)
        want = np.exp(-d2 / (2.0 * 1.3**2))
        assert np.array_equal(gaussian_kernel_matrix(pts, 1.3), want)

    @pytest.mark.threads
    def test_flat_distances_do_not_depend_on_blas_threads(self, tmp_path):
        # the projected fill's features of 200 affine 2-flats in R^10 on
        # 5 113 points, a width at which an unaligned GEMM gives other last
        # bits on 2 threads than on 1; the child forces the projected fill
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from fls import kernels\n"
            "from fls.linalg import AffineFlat, haar_frames\n"
            "kernels._lifted_wins = lambda d, l: False\n"
            "gen = np.random.default_rng(35)\n"
            "flats = AffineFlat(gen.standard_normal((200, 10)), haar_frames(gen, (200, 10, 2)))\n"
            "pts = gen.standard_normal((5113, 10))\n"
            "spec = kernels.SubspaceKernel(3.0, flats)\n"
            "np.save(sys.argv[1], kernels.feature_matrix(spec, pts))\n"
        )
        got = []
        for threads in ("1", "2"):
            out = tmp_path / f"dists{threads}.npy"
            env = dict(subprocess_env(), OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-c", code, str(out)], capture_output=True, text=True, env=env
            )
            assert proc.returncode == 0, proc.stderr
            got.append(np.load(out))
        assert np.array_equal(got[0], got[1])

    def test_rff_matches_whole_array_formula(self):
        spec = sample_gaussian_rff(0.7, 50, 4, seed=2)
        pts = np.random.default_rng(7).standard_normal((33, 4))
        want = math.sqrt(2.0) * np.cos(spec.frequencies @ pts.T + spec.phases[:, None])
        assert np.array_equal(embed(spec, pts).data, want / math.sqrt(50))

    def test_embed_peak_is_one_buffer(self):
        # the peak is the D x n result, the (D, q) coefficients and one
        # lifted block of at most 2^20 entries: no (D l, m) projection or
        # (D, m) temporary (n is a multiple of 32, so there is no edge block)
        gen = np.random.default_rng(8)
        count, n, d = 200, 20_000, 10
        spec = SubspaceKernel(sigma=0.5, flats=random_flats(gen, count, d, 2, False))
        pts = gen.standard_normal((n, d))
        q = d * (d + 1) // 2 + d + 1
        tracemalloc.start()
        try:
            embed(spec, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kernels._LIFT_ENTRIES == 2**20
        assert peak <= (count * n + 2**20 + count * q) * 8 + 2**16

    def test_projected_embed_peak_is_the_block_budget(self):
        # the R^80 reference shape (100 linear 7-flats, 1625 points) takes
        # the projected fill: beside the D x n result it holds the stacked
        # (D l, d) frames, one (D l, m) projection with its (D, m) row sums
        # within 2^18 entries, and the (D l, 32) product of the ragged edge
        gen = np.random.default_rng(80)
        count, n, d, l = 100, 1625, 80, 7
        spec = SubspaceKernel(sigma=3.0, flats=random_flats(gen, count, d, l, False))
        pts = gen.standard_normal((n, d))
        assert not kernels._lifted_wins(d, l)
        tracemalloc.start()
        try:
            embed(spec, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kernels._PROJ_ENTRIES == 2**18
        assert peak <= (count * n + 2**18 + count * l * (d + 32)) * 8 + 2**17


class TestKernelEstimates:
    def test_gaussian_matrix_of_no_points(self):
        assert gaussian_kernel_matrix(np.zeros((0, 4)), 1.0).shape == (0, 0)

    def test_gaussian_matrix_matches_scalar(self, rng):
        pts = rng.standard_normal((6, 3))
        k = gaussian_kernel_matrix(pts, 1.3)
        for i in range(6):
            for j in range(6):
                assert k[i, j] == pytest.approx(
                    gaussian_kernel(pts[i], pts[j], 1.3), abs=1e-12
                )

    def test_rff_estimator_unbiased(self, rng):
        # 50 independent feature draws: mean estimate within 3 SE of exact
        x1 = rng.standard_normal(3)
        x2 = x1 + np.array([0.8, -0.3, 0.5])
        sigma = 1.2
        exact = gaussian_kernel(x1, x2, sigma)
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

    def test_dense_limit(self, rng, monkeypatch):
        spec = sample_gaussian_rff(1.0, 10, 2, seed=0)
        monkeypatch.setattr(kernels, "_DENSE_LIMIT", 5)
        with pytest.raises(DenseLimitExceeded):
            approx_kernel_matrix(spec, rng.standard_normal((6, 2)))
        assert approx_kernel_matrix(spec, rng.standard_normal((5, 2))).shape == (5, 5)


class TestSpecValidation:
    def test_mixed_ambient_flats(self):
        with pytest.raises(DimensionMismatch):
            SubspaceKernel(sigma=1.0, flats=(xaxis_flat(2), xaxis_flat(3)))

    def test_mixed_flat_dimensions(self, rng):
        line, plane = (AffineFlat(np.zeros(4), haar_frames(rng, (4, l))) for l in (1, 2))
        with pytest.raises(DimensionMismatch, match="same ambient and flat dimension"):
            SubspaceKernel(sigma=1.0, flats=(line, line, plane))

    def test_stack_built_once(self, rng):
        flats = tuple(
            AffineFlat(rng.standard_normal(5), haar_frames(rng, (5, 2))) for _ in range(3)
        )
        spec = SubspaceKernel(sigma=1.0, flats=flats)
        assert spec.flats.base.shape == (3, 5) and spec.flats.basis.shape == (3, 5, 2)
        for i, f in enumerate(flats):
            assert np.array_equal(spec.flats.base[i], f.base)
            assert np.array_equal(spec.flats.basis[i], f.basis)
        assert (spec.n_features, spec.dim) == (3, 5)

    def test_stack_passes_through(self, rng):
        # a stack is held as given: no second copy, no per-flat objects
        stack = AffineFlat(rng.standard_normal((4, 5)), haar_frames(rng, (4, 5, 2)))
        spec = SubspaceKernel(sigma=1.0, flats=stack)
        assert spec.flats is stack
        assert (spec.n_features, spec.dim) == (4, 5)
        assert embed(spec, rng.standard_normal((6, 5))).data.shape == (4, 6)

    def test_empty_flats(self):
        with pytest.raises(InvalidParam):
            SubspaceKernel(sigma=1.0, flats=())

    def test_empty_stack(self):
        empty = AffineFlat(np.zeros((0, 3)), np.zeros((0, 3, 1)))
        with pytest.raises(InvalidParam, match="at least one flat"):
            SubspaceKernel(sigma=1.0, flats=empty)

    def test_single_flat_is_not_a_stack(self):
        with pytest.raises(InvalidParam, match="need a stack"):
            SubspaceKernel(sigma=1.0, flats=xaxis_flat(2))

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

    def test_embedding_check_scans_every_piece(self):
        # the scan goes piece by piece over contiguous arrays: a bad entry
        # at either side of a piece boundary or in the short last piece is
        # found, and so is one in a non-contiguous view
        data = np.random.default_rng(4).random((100, 10_001))
        flat = data.reshape(-1)
        for idx in (0, 2**16 - 1, 2**16, flat.size - 1):
            for bad in (np.nan, np.inf, -np.inf):
                flat[idx] = bad
                with pytest.raises(InvalidParam):
                    EmbeddingMatrix(data)
                with pytest.raises(InvalidParam):
                    EmbeddingMatrix(data.T)
            flat[idx] = 0.5
        EmbeddingMatrix(data)

    def test_nan_rejected(self):
        centers = np.zeros((2, 2))
        centers[0, 0] = np.nan
        with pytest.raises(InvalidParam):
            LandmarkGaussian(sigma=1.0, centers=centers)
