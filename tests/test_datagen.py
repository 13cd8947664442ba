"""Synthetic data generation and CSV round-tripping."""

import math
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fls import datagen
from fls.datagen import (
    DataSet,
    SyntheticModel,
    as_points,
    gen_synthetic,
    load_csv,
    save_csv,
    sphere_normalize,
)
from fls.errors import InvalidParam, ParseError, RaggedRows


def traced_peak(fn):
    """The tracemalloc peak, in bytes, of one call of ``fn``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def five_plane_data():
    """21 000 points of five planes in R^10 with 5 % outliers: 1.6 MiB of
    points, about 4.8 MB of CSV."""
    model = SyntheticModel(
        dims=(2,) * 5, ambient=10, pts_per_subspace=4000, outlier_ratio=0.05
    )
    return gen_synthetic(model, seed=3)


def two_plane_model(**kw):
    defaults = dict(dims=(2, 2), ambient=6, pts_per_subspace=100, noise_sigma=0.05)
    defaults.update(kw)
    return SyntheticModel(**defaults)


class TestSyntheticModel:
    def test_validation(self):
        with pytest.raises(InvalidParam):
            SyntheticModel(dims=(), ambient=4)
        with pytest.raises(InvalidParam):
            SyntheticModel(dims=(4,), ambient=4)  # dim must be < ambient
        with pytest.raises(InvalidParam):
            SyntheticModel(dims=(2,), ambient=4, outlier_ratio=1.0)
        for noise in (-0.1, math.nan, math.inf):
            with pytest.raises(InvalidParam, match="noise_sigma"):
                SyntheticModel(dims=(2,), ambient=4, noise_sigma=noise)
        # counts are integers: no float is truncated, no bool read as 1
        for kw in (
            dict(dims=(1.5, 1), ambient=3),
            dict(dims=(True,), ambient=3),
            dict(dims=2, ambient=3),
            dict(dims=(1, 1), ambient=3.7),
            dict(dims=(1, 1), ambient="3"),
            dict(dims=(1, 1), ambient=3, pts_per_subspace=30.9),
            dict(dims=(1, 1), ambient=3, pts_per_subspace=True),
        ):
            with pytest.raises(InvalidParam):
                SyntheticModel(**kw)
        model = SyntheticModel(
            dims=np.array([1, 2]), ambient=np.int64(3), pts_per_subspace=np.int32(5)
        )
        assert model.to_json()["dims"] == [1, 2]
        assert type(model.ambient) is int and type(model.pts_per_subspace) is int

    def test_to_json(self):
        doc = two_plane_model().to_json()
        assert doc == {
            "dims": [2, 2],
            "ambient": 6,
            "pts_per_subspace": 100,
            "noise_sigma": 0.05,
            "outlier_ratio": 0.0,
        }


class TestGenSynthetic:
    def test_counts_and_labels(self):
        data = gen_synthetic(two_plane_model(outlier_ratio=0.05), seed=0)
        assert data.points.shape == (210, 6)
        assert np.sum(data.labels == 0) == 100
        assert np.sum(data.labels == 1) == 100
        assert np.sum(data.labels == -1) == 10
        assert np.array_equal(data.outlier_mask, data.labels == -1)

    def test_outlier_count_rounds_half_up(self):
        # 0.0475 * 200 = 9.5 -> 10 outliers
        data = gen_synthetic(two_plane_model(outlier_ratio=0.0475), seed=0)
        assert np.sum(data.labels == -1) == 10

    def test_noiseless_points_on_subspaces(self):
        model = two_plane_model(noise_sigma=0.0)
        data = gen_synthetic(model, seed=3)
        for k in range(2):
            block = data.points[data.labels == k]
            svals = np.linalg.svd(block, compute_uv=False)
            assert svals[2] < 1e-10 * svals[0]  # rank 2 exactly
            assert np.linalg.norm(block, axis=1).max() <= 1.0 + 1e-12

    def test_ball_radius_distribution(self):
        # uniform in the unit ball of R^d: E[r] = d / (d + 1)
        model = SyntheticModel(dims=(3,), ambient=5, pts_per_subspace=4000, noise_sigma=0.0)
        data = gen_synthetic(model, seed=1)
        radii = np.linalg.norm(data.points, axis=1)
        mean, sd = radii.mean(), radii.std(ddof=1)
        assert abs(mean - 0.75) < 3 * sd / math.sqrt(4000)

    def test_noise_is_additive_on_same_points(self):
        # identical seed, different noise level: same pre-noise points
        quiet = gen_synthetic(two_plane_model(noise_sigma=0.0), seed=7)
        loud = gen_synthetic(two_plane_model(noise_sigma=0.05), seed=7)
        diff = loud.points - quiet.points
        rms = math.sqrt((diff**2).mean())
        assert abs(rms - 0.05) < 0.005
        per_point = (diff**2).sum(axis=1).mean()
        assert abs(per_point - 0.05**2 * 6) < 0.1 * 0.05**2 * 6

    def test_outliers_fill_data_cube(self):
        data = gen_synthetic(two_plane_model(outlier_ratio=0.30), seed=2)
        half_side = np.linalg.norm(data.points[data.labels != -1], axis=1).max()
        out = data.points[data.labels == -1]
        assert np.abs(out).max() <= half_side + 1e-12

    def test_deterministic(self):
        a = gen_synthetic(two_plane_model(outlier_ratio=0.1), seed=5)
        b = gen_synthetic(two_plane_model(outlier_ratio=0.1), seed=5)
        c = gen_synthetic(two_plane_model(outlier_ratio=0.1), seed=6)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)
        assert not np.array_equal(a.points, c.points)

    def test_peak_is_points_and_one_draw(self):
        # blocks, noise and outliers are written into one (n, d) array:
        # beside it one n x d temporary at a time (the noise draw, then
        # the squares of the outlier cube's norms), not four copies
        five_plane_data()  # first-call imports are not the generator's memory
        peak = traced_peak(five_plane_data)
        assert peak <= 2.5 * 21_000 * 10 * 8

    def test_outlier_cube_adds_no_copy(self):
        # the inlier norms that size the outlier cube are taken over row
        # blocks: with 5 % outliers the peak stays the points and the
        # noise draw, as without outliers, not a third n x d array
        five_plane_data()
        peak = traced_peak(five_plane_data)
        assert peak <= 2.15 * 21_000 * 10 * 8


class TestDataSet:
    def test_label_length_checked(self, rng):
        with pytest.raises(InvalidParam):
            DataSet(points=rng.standard_normal((5, 2)), labels=np.zeros(4, dtype=int))

    def test_mask_derived_from_labels(self, rng):
        labels = np.array([0, -1, 1])
        data = DataSet(points=rng.standard_normal((3, 2)), labels=labels)
        assert np.array_equal(data.outlier_mask, [False, True, False])

    def test_inconsistent_mask_rejected(self, rng):
        with pytest.raises(InvalidParam):
            DataSet(
                points=rng.standard_normal((2, 2)),
                labels=np.array([0, -1]),
                outlier_mask=np.array([True, True]),
            )

    def test_as_points(self, rng):
        pts = rng.standard_normal((4, 2))
        assert as_points(DataSet(points=pts)) is not None
        assert np.array_equal(as_points(pts), pts)
        with pytest.raises(InvalidParam):
            as_points(np.array([[np.inf, 0.0]]))


class TestSphereNormalize:
    def test_unit_norms(self, rng):
        pts = rng.standard_normal((20, 3)) * 5
        normed = sphere_normalize(pts)
        assert np.allclose(np.linalg.norm(normed, axis=1), 1.0, atol=1e-12)

    def test_zero_rows_kept(self):
        pts = np.array([[0.0, 0.0], [3.0, 4.0]])
        normed = sphere_normalize(pts)
        assert np.array_equal(normed[0], [0.0, 0.0])
        assert np.allclose(normed[1], [0.6, 0.8])

    def test_directions_preserved(self, rng):
        pts = rng.standard_normal((10, 4))
        normed = sphere_normalize(pts)
        cross = np.einsum("ij,ij->i", pts, normed)
        assert np.all(cross > 0)  # same direction, positive dot product


class TestCsvRoundTrip:
    def test_exact_round_trip(self, rng, tmp_path):
        data = gen_synthetic(two_plane_model(outlier_ratio=0.1), seed=4)
        path = tmp_path / "pts.csv"
        save_csv(path, data)
        back = load_csv(path)
        assert np.array_equal(back.points, data.points)  # %.17g is lossless
        assert np.array_equal(back.labels, data.labels)

    def test_unlabeled_round_trip(self, rng, tmp_path):
        data = DataSet(points=rng.standard_normal((7, 3)))
        path = tmp_path / "pts.csv"
        save_csv(path, data)
        back = load_csv(path)
        assert back.labels is None
        assert np.array_equal(back.points, data.points)

    def test_headerless_file(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("1.5,2.5\n-3.0,0.25\n")
        data = load_csv(path)
        assert data.labels is None
        assert np.array_equal(data.points, [[1.5, 2.5], [-3.0, 0.25]])

    def test_label_column_needs_header(self, tmp_path):
        # same numbers, no header: last column is just a coordinate
        path = tmp_path / "raw.csv"
        path.write_text("1.0,2.0,0\n3.0,4.0,1\n")
        assert load_csv(path).points.shape == (2, 3)
        path.write_text("x0,x1,label\n1.0,2.0,0\n3.0,4.0,1\n")
        data = load_csv(path)
        assert data.points.shape == (2, 2)
        assert np.array_equal(data.labels, [0, 1])

    def test_ragged_rows_position(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,x1\n1.0,2.0\n3.0\n")
        with pytest.raises(RaggedRows) as err:
            load_csv(path)
        assert err.value.row == 3

    def test_ragged_labelled_rows_position(self, tmp_path):
        # the fast pass parses only the coordinate columns of labelled
        # rows, so a wider or narrower row is still refused where it is
        path = tmp_path / "bad.csv"
        for bad in ("3.0,4.0,5.0,1", "3.0,1"):
            path.write_text(f"x0,x1,label\n1.0,2.0,0\n\n{bad}\n")
            with pytest.raises(RaggedRows) as err:
                load_csv(path)
            assert err.value.row == 3

    def test_header_wider_than_rows(self, tmp_path):
        # read as labelled 1-D points, x1 would silently become the labels
        path = tmp_path / "bad.csv"
        path.write_text("x0,x1,label\n0.5,2\n0.25,1\n")
        with pytest.raises(RaggedRows) as err:
            load_csv(path)
        assert err.value.row == 2

    def test_header_narrower_than_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,x1\n1.0,2.0,3.0\n4.0,5.0,6.0\n")
        with pytest.raises(RaggedRows) as err:
            load_csv(path)
        assert err.value.row == 2

    def test_parse_error_position(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(ParseError) as err:
            load_csv(path)
        assert (err.value.row, err.value.col) == (2, 2)

    def test_nonfinite_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,inf\n")
        with pytest.raises(ParseError):
            load_csv(path)

    def test_bad_label_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,label\n1.0,zero\n")
        with pytest.raises(ParseError) as err:
            load_csv(path)
        assert err.value.row == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            load_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "only.csv"
        path.write_text("x0,x1\n")
        with pytest.raises(ParseError):
            load_csv(path)

    def test_utf8_bom_is_not_a_header(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_text("\ufeff1.5,2.5\n-3.0,0.25\n", encoding="utf-8")
        data = load_csv(path)
        assert np.array_equal(data.points, [[1.5, 2.5], [-3.0, 0.25]])

    def test_bom_before_header(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_text("\ufeffx0,label\n1.5,2\n", encoding="utf-8")
        data = load_csv(path)
        assert np.array_equal(data.points, [[1.5]])
        assert np.array_equal(data.labels, [2])

    def test_valid_file_skips_cell_parser(self, tmp_path):
        data = gen_synthetic(two_plane_model(outlier_ratio=0.1), seed=4)
        path = tmp_path / "pts.csv"
        save_csv(path, data)
        with mock.patch.object(datagen, "_parse_cells", side_effect=AssertionError):
            back = load_csv(path)
        assert np.array_equal(back.points, data.points)
        assert np.array_equal(back.labels, data.labels)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_is_parsed_and_bad_cells_named(self):
        # a pipe cannot be read twice, yet a bad cell is still named
        for text, want in [
            ("x0,x1\n1.0,2.0\n3.0,4\n", None),
            ("x0,x1\n1.0,2.0\n3.0,oops\n", (3, 2)),
        ]:
            read, write = os.pipe()
            os.write(write, text.encode())
            os.close(write)
            try:
                if want is None:
                    assert np.array_equal(load_csv(f"/dev/fd/{read}").points, [[1, 2], [3, 4]])
                else:
                    with pytest.raises(ParseError) as err:
                        load_csv(f"/dev/fd/{read}")
                    assert (err.value.row, err.value.col) == want
            finally:
                os.close(read)

    @pytest.mark.parametrize("labels", [False, True])
    def test_load_peak_is_points_and_one_read(self, tmp_path, labels):
        # beside the points np.loadtxt holds its growth room and load_csv
        # one read of 2^16 characters and its lines, never the whole text
        data = five_plane_data()
        path = tmp_path / "pts.csv"
        save_csv(path, data if labels else DataSet(points=data.points))
        load_csv(path)  # first-call imports are not the reader's memory
        peak = traced_peak(lambda: load_csv(path))
        assert peak <= 1.5 * data.points.nbytes + 2**20

    @pytest.mark.parametrize("labels, bound", [(False, 2.5 * 2**20), (True, 3 * 2**20)])
    def test_save_peak_is_one_block(self, tmp_path, labels, bound):
        # one block of 4096 rows is formatted at a time: its text, its
        # Python floats and the tuple that holds them (labelled rows go
        # through an object array, so the ints format as %d)
        data = five_plane_data()
        data = data if labels else DataSet(points=data.points)
        save_csv(tmp_path / "warm.csv", data)
        peak = traced_peak(lambda: save_csv(tmp_path / "pts.csv", data))
        assert peak <= bound


# Cells the two parsers must agree on: decimals in several spellings,
# integers, and text that one or both of them reject.
_ODD_CELLS = [
    "", " ", "oops", "1_0", "nan", "NaN", "-inf", "infinity", "1e400",
    "1e-400", "0x1p3", "1.0.0", "+5", " 2.5 ", "\t3\t", "\u00a01.5", "\u0663",
    ".5", "5.", "-0", "1e", "1.0", " 7", "label", "\x00", "1.5\x00junk",
    "1\u3000", "nan(1)", "1d5",
]
_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats().map(lambda v: "%.17g" % v),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(_ODD_CELLS),
)
_LABELS = st.one_of(st.integers(-3, 9).map(str), st.sampled_from(_ODD_CELLS))


@st.composite
def _csv_texts(draw):
    width = draw(st.integers(1, 4))
    header = draw(st.sampled_from(["none", "names", "label"]))
    lines = []
    if header == "names":
        lines.append(",".join(f"x{i}" for i in range(width)))
    elif header == "label":
        lines.append(",".join([f"x{i}" for i in range(width - 1)] + [" Label "]))
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
            continue
        row_width = width + draw(st.sampled_from([0] * 8 + [-1, 1]))
        cells = draw(st.lists(_CELLS, min_size=max(row_width, 1), max_size=max(row_width, 1)))
        if header == "label":
            cells[-1] = draw(_LABELS)
        lines.append(",".join(cells))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


def _outcome(path):
    """What load_csv gives: arrays, or the error's type, message and position."""
    try:
        data = load_csv(path)
    except Exception as err:
        return ("raises", type(err), str(err), getattr(err, "row", None), getattr(err, "col", None))
    labels = None if data.labels is None else data.labels.tolist()
    return ("data", data.points.shape, data.points.tobytes(), labels)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_csv_texts())
def test_fast_parse_matches_cell_parser(tmp_path, text):
    path = tmp_path / "gen.csv"
    path.write_text(text, encoding="utf-8", newline="")
    fast = _outcome(path)
    with mock.patch.object(datagen, "_parse_fast", side_effect=ValueError):
        cells = _outcome(path)
    assert fast == cells


# Line breaks that str.splitlines knows beside LF.  Reading turns CR and
# CR LF into LF; the others must split lines as they split the whole text.
_BREAKS = ["\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1e", "\x85", "\u2028"]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    text=_csv_texts(),
    breaks=st.lists(st.tuples(st.integers(0, 400), st.sampled_from(_BREAKS)), max_size=3),
    read_chars=st.sampled_from([1, 2, 3, 7, 64]),
)
def test_small_reads_match_one_whole_read(tmp_path, text, breaks, read_chars):
    # a generated file is far below 2^16 characters, so with the fast
    # pass refused the cell parser reads it whole, in one read
    for pos, brk in breaks:
        text = text[:pos] + brk + text[pos:]
    path = tmp_path / "gen.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with mock.patch.object(datagen, "_parse_fast", side_effect=ValueError):
        whole = _outcome(path)
    with mock.patch.object(datagen, "_CSV_READ_CHARS", read_chars):
        assert _outcome(path) == whole
