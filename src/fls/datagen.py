"""Synthetic union-of-subspaces data and CSV round-tripping.

Each cluster is drawn uniformly from the unit ball of a Haar-random
linear subspace, ambient Gaussian noise is added, and optional outliers
fill a cube sized to the data.  Outliers carry label -1.
"""

from __future__ import annotations

import io
import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvalidParam, ParseError, RaggedRows
from .linalg import as_integer, as_labels, as_number, as_points, haar_frames
from .rng import make_rng, split


@dataclass(frozen=True)
class SyntheticModel:
    """Union-of-subspaces model: one entry of dims per cluster."""

    dims: tuple
    ambient: int
    pts_per_subspace: int = 250
    noise_sigma: float = 0.05
    outlier_ratio: float = 0.0

    def __post_init__(self):
        try:
            dims = tuple(as_integer(d, "subspace dim") for d in self.dims)
        except TypeError:
            raise InvalidParam(f"dims must be a sequence, got {self.dims!r}") from None
        ambient = as_integer(self.ambient, "ambient")
        pts = as_integer(self.pts_per_subspace, "pts_per_subspace", 1)
        if len(dims) == 0:
            raise InvalidParam("need at least one subspace")
        for d in dims:
            if not 1 <= d < ambient:
                raise InvalidParam(f"subspace dim {d} not in [1, {ambient - 1}]")
        for name in ("noise_sigma", "outlier_ratio"):
            object.__setattr__(self, name, as_number(getattr(self, name), name))
        if not 0.0 <= self.noise_sigma < math.inf:
            raise InvalidParam(f"noise_sigma={self.noise_sigma} must be finite and >= 0")
        if not 0.0 <= self.outlier_ratio < 1.0:
            raise InvalidParam("outlier_ratio must be in [0, 1)")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "pts_per_subspace", pts)

    @property
    def n_clusters(self) -> int:
        return len(self.dims)

    def to_json(self) -> dict:
        return dict(asdict(self), dims=list(self.dims))


@dataclass(frozen=True)
class DataSet:
    """Points with optional integer labels; label -1 marks outliers."""

    points: np.ndarray
    labels: np.ndarray | None = None
    outlier_mask: np.ndarray | None = None

    def __post_init__(self):
        pts = as_points(self.points)
        object.__setattr__(self, "points", pts)
        labels = self.labels
        if labels is not None:
            labels = as_labels(labels, "labels")
            if labels.shape != (pts.shape[0],):
                raise InvalidParam("labels length does not match points")
            object.__setattr__(self, "labels", labels)
        mask = self.outlier_mask
        if mask is None and labels is not None:
            mask = labels == -1
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != (pts.shape[0],):
                raise InvalidParam("outlier_mask length does not match points")
            if labels is not None and not np.array_equal(mask, labels == -1):
                raise InvalidParam("outlier_mask must mark exactly the -1 labels")
        object.__setattr__(self, "outlier_mask", mask)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


# Rows per block of the row norms (the inlier norms that size the outlier
# cube, ``sphere_normalize``), so the squares are never an n x d temporary
_NORM_ROWS = 4096


def sphere_normalize(points: np.ndarray) -> np.ndarray:
    """Scale each point to the unit sphere; zero points are left alone."""
    return _sphere_in_place(as_points(points).copy(order="K"))


def _sphere_in_place(a: np.ndarray) -> np.ndarray:
    """Scale each row of ``a`` to unit norm in place, zero rows left alone,
    and return ``a``.  Rows go ``_NORM_ROWS`` at a time; each row's norm
    has the bits of ``np.linalg.norm(a, axis=1)``."""
    for start in range(0, a.shape[0], _NORM_ROWS):
        block = a[start : start + _NORM_ROWS]
        norms = np.linalg.norm(block, axis=1)
        block /= np.where(norms > 0, norms, 1.0)[:, None]
    return a


def gen_synthetic(model: SyntheticModel, seed=0) -> DataSet:
    """Draw a dataset from the model, deterministically per seed.

    Streams are split so that the subspace bases and pre-noise points do
    not depend on noise_sigma or outlier_ratio: the same seed with
    noise_sigma=0 yields the exact pre-noise points.  Every block is
    written into one (n, d) array and the noise is added in place, so
    beside the points only one draw exists at a time; the outlier cube's
    half side, the largest inlier norm, is taken over row blocks.
    """
    children = split(seed, model.n_clusters + 2)
    noise_seed, outlier_seed = children[-2], children[-1]
    per, n_in = model.pts_per_subspace, model.n_clusters * model.pts_per_subspace
    n_out = int(math.floor(model.outlier_ratio * n_in + 0.5))
    points = np.empty((n_in + n_out, model.ambient))
    for k, dim_k in enumerate(model.dims):
        rng = make_rng(children[k])
        basis = haar_frames(rng, (model.ambient, dim_k))
        dirs = rng.standard_normal((per, dim_k))
        norms = np.linalg.norm(dirs, axis=1)
        norms[norms == 0] = 1.0
        radii = rng.random(per) ** (1.0 / dim_k)
        dirs /= norms[:, None]
        dirs *= radii[:, None]
        np.matmul(dirs, basis.T, out=points[k * per : (k + 1) * per])
    inliers = points[:n_in]
    noise = make_rng(noise_seed).standard_normal(inliers.shape)
    noise *= model.noise_sigma
    inliers += noise
    del noise
    labels = np.repeat(np.arange(model.n_clusters), per)
    if n_out > 0:
        half_side = float(
            max(
                np.linalg.norm(inliers[s : s + _NORM_ROWS], axis=1).max()
                for s in range(0, n_in, _NORM_ROWS)
            )
        )
        points[n_in:] = make_rng(outlier_seed).uniform(
            -half_side, half_side, size=(n_out, model.ambient)
        )
        labels = np.concatenate([labels, np.full(n_out, -1)])
    return DataSet(points=points, labels=labels)


# Rows per formatted write of save_csv: the string and the Python objects
# one write holds are about this many rows' worth (under 1 MiB of text
# for 10 coordinates).
_CSV_WRITE_ROWS = 4096


def save_csv(path, data: DataSet) -> None:
    """Write points (and labels, when present) with a header row.

    Floats use %.17g so a round trip reproduces them exactly; each block
    of ``_CSV_WRITE_ROWS`` (4096) rows is one %-format of one row
    template repeated, so beside the data only one block's text and
    cells exist.
    """
    cols = [f"x{i}" for i in range(data.dim)]
    row = ",".join(["%.17g"] * data.dim)
    if data.labels is not None:
        cols.append("label")
        row += ",%d"
    row += "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for s in range(0, data.n, _CSV_WRITE_ROWS):
            block = data.points[s : s + _CSV_WRITE_ROWS]
            if data.labels is not None:
                # object cells: the floats and ints %-format as Python's own
                cells = np.empty((block.shape[0], data.dim + 1), dtype=object)
                cells[:, :-1] = block
                cells[:, -1] = data.labels[s : s + _CSV_WRITE_ROWS]
                block = cells
            fh.write(row * block.shape[0] % tuple(block.ravel().tolist()))


def _parse_float(field, row, col):
    try:
        value = float(field)
    except ValueError:
        raise ParseError(f"cannot parse {field!r} as a number", row=row, col=col)
    if not math.isfinite(value):
        raise ParseError(f"non-finite value {field!r}", row=row, col=col)
    return value


def _parse_cells(lines, width, n_coords, has_labels, offset):
    """Cell-by-cell parse of the data lines: (points, labels or None).

    Raises ParseError or RaggedRows naming the first bad cell or row,
    numbered from ``offset``.
    """
    points = np.empty((len(lines), n_coords))
    labels = np.empty(len(lines), dtype=int) if has_labels else None
    for i, line in enumerate(lines):
        fields = line.split(",")
        if len(fields) != width:
            raise RaggedRows(
                f"expected {width} fields, found {len(fields)}", row=i + offset
            )
        for j in range(n_coords):
            points[i, j] = _parse_float(fields[j], row=i + offset, col=j + 1)
        if has_labels:
            field = fields[-1].strip()
            try:
                labels[i] = int(field)
            except ValueError:
                raise ParseError(
                    f"cannot parse {field!r} as an integer label",
                    row=i + offset,
                    col=width,
                )
    return points, labels


def _parse_fast(blocks, width, has_labels):
    """One vectorized parse of the data lines, given as lists of str:
    (points, labels or None).

    Raises ValueError (or OverflowError) on any file the cell parser
    might reject or read differently, non-finite cells included; it
    names no position.  ``np.loadtxt`` takes the lines one list at a
    time and holds only the points it parsed.  With labels it reads the
    coordinate columns alone, and each list's field counts and labels
    are checked as the list passes.
    """
    labels = []

    def checked(block):
        if {line.count(",") for line in block} != {width - 1}:
            raise ValueError("ragged row")
        labels.extend([int(line.rpartition(",")[2].strip()) for line in block])
        return block

    points = np.loadtxt(
        itertools.chain.from_iterable(map(checked, blocks) if has_labels else blocks),
        delimiter=",",
        comments=None,
        ndmin=2,
        usecols=range(width - 1) if has_labels else None,
    )
    if not np.isfinite(points).all():
        raise ValueError("non-finite cell")
    return points, np.array(labels, dtype=int) if has_labels else None


# Characters load_csv decodes per read: beside the points, the fast pass
# holds this much text and one list of the lines it splits into (under
# 512 KiB together).
_CSV_READ_CHARS = 2**16


def _line_blocks(fh):
    """Nonempty lists of the lines of an open text file that hold more
    than whitespace, split as ``str.splitlines`` splits the whole text,
    one list per read of ``_CSV_READ_CHARS`` characters.

    Reading turns each CR LF and lone CR into an LF, so no line break
    of two characters is left, and cutting each read after its last LF
    splits no break.
    """
    tail = ""
    while True:
        chunk = fh.read(_CSV_READ_CHARS)
        text = tail + chunk
        cut = text.rfind("\n") + 1 if chunk else len(text)
        tail = text[cut:]
        lines = [line for line in text[:cut].splitlines() if line.strip() != ""]
        if lines:
            yield lines
        if not chunk:
            return


def load_csv(path) -> DataSet:
    """Read a CSV of finite decimals, with an optional header.

    A trailing integer label column is recognized only when a header row
    names its last column ``label``.  A UTF-8 byte order mark is skipped.
    Raises ParseError with the 1-based row/column of the offending cell,
    or RaggedRows when widths differ, the header's included (blank lines
    are not counted).

    The file is read ``_CSV_READ_CHARS`` (2^16) characters at a time and
    its cells are parsed in one vectorized pass as the lines go by, so
    beside the points only one read's text and lines exist.  Only when
    that pass fails is the file read again, whole, for the cell-by-cell
    parser, to return what it accepts or name the bad cell (a pipe's
    text is held from the start, since it cannot be read again).
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        if not fh.seekable():
            # a pipe cannot be read again for the cell parser: hold its text
            fh = io.StringIO(fh.read())
        blocks = _line_blocks(fh)
        lines = next(blocks, None)
        if lines is None:
            raise ParseError("file contains no data rows", row=1)
        head = lines[0].split(",")
        has_header = False
        try:
            [float(f) for f in head]
        except ValueError:
            has_header = True
        has_labels = has_header and head[-1].strip().lower() == "label"
        if has_header:
            lines = lines[1:] or next(blocks, None)
        if lines is None:
            raise ParseError("file contains no data rows", row=2)

        width = lines[0].count(",") + 1
        if has_header and len(head) != width:
            raise RaggedRows(f"header has {len(head)} fields, found {width}", row=2)
        n_coords = width - 1 if has_labels else width
        if n_coords < 1:
            raise ParseError("rows have no coordinate columns", row=1)
        try:
            points, labels = _parse_fast(itertools.chain([lines], blocks), width, has_labels)
        except (ValueError, OverflowError):
            fh.seek(0)
            data_lines = [line for block in _line_blocks(fh) for line in block]
            if has_header:
                del data_lines[0]
            offset = 2 if has_header else 1
            points, labels = _parse_cells(data_lines, width, n_coords, has_labels, offset)
    return DataSet(points=points, labels=labels)
