"""CSV ingestion and writing, min-max scaling, deterministic splitting,
synthetic data.

The scaler is always fitted on the training partition only, so validation
and test rows can land outside [0, 1]; membership evaluation tolerates
that by design.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from .numerics import RandomStream, as_array, as_rows, check_fields, check_value, has_type


def read_json(path, what):
    """The JSON object in the file at path; what names the document in each error."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            doc = json.load(fh)
        except ValueError as err:
            raise ValueError(f"{what} {path} is not JSON: {err}") from err
    if not isinstance(doc, dict):
        raise ValueError(f"{what} {path} must be a JSON object, got {doc!r}")
    return doc


@dataclass(frozen=True)
class DatasetManifest:
    csv_path: str
    target_column: str | int
    feature_columns: list = field(default_factory=list)
    has_header: bool = True
    delimiter: str = ","

    def __post_init__(self):
        check_fields(self)
        if not self.feature_columns:
            raise ValueError("manifest needs at least one feature column")
        for col in (self.target_column, *self.feature_columns):
            if not (has_type(col, str | int) and (isinstance(col, str) or col >= 0)):
                raise ValueError(f"column {col!r} is neither a name nor a non-negative index")
        if self.target_column in self.feature_columns:
            raise ValueError(
                f"target column {self.target_column!r} is also listed as a feature"
            )
        if len(self.delimiter) != 1:
            raise ValueError(f"delimiter must be one character, got {self.delimiter!r}")


def load_manifest(path):
    """Read a JSON manifest file with the DatasetManifest fields; each fault names the file."""
    doc = read_json(path, "manifest")
    try:
        return DatasetManifest(**doc)
    except (TypeError, ValueError) as err:
        raise ValueError(f"manifest {path}: {err}") from err


def _resolve_column(col, header, path):
    if isinstance(col, int):
        return col
    if header is None:
        raise ValueError(
            f"{path}: column {col!r} referenced by name but the file has no header"
        )
    hits = [i for i, name in enumerate(header) if name == col]
    if not hits:
        raise ValueError(f"{path}: no column named {col!r}")
    if len(hits) > 1:
        raise ValueError(f"{path}: column name {col!r} is ambiguous (appears {len(hits)} times)")
    return hits[0]


def _resolve_columns(manifest, header, path):
    """The file's column indices of the manifest's features, then its target."""
    columns = (manifest.target_column, *manifest.feature_columns)
    resolved = [_resolve_column(c, header, path) for c in columns]
    for k, idx in enumerate(resolved):
        if (first := resolved.index(idx)) < k:  # a name and an index may spell one column
            raise ValueError(
                f"{path}: {'target' if first == 0 else 'feature'} column {columns[first]!r} "
                f"and feature column {columns[k]!r} are both column {idx}"
            )
    return (*resolved[1:], resolved[0])


#: a file holding one of these is read row by row: numpy's parser strips
#: 0x1c-0x1f from a cell's ends and float() does not, and csv.reader
#: rejects NUL before Python 3.11
_ROW_BY_ROW_BYTES = (b"\x00", b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _c_table(fh, manifest):
    """fh's data rows in the selected columns, features then target, as one
    (N, F+1) float64 table from numpy's C parser; None unless _read_rows
    would return the same values (it names a missing header or data rows
    before a column that does not resolve)."""
    with open(manifest.csv_path, "rb") as raw:
        chunks = iter(functools.partial(raw.read, 1 << 16), b"")
        if any(b in chunk for chunk in chunks for b in _ROW_BY_ROW_BYTES):
            return None
    try:
        header = None
        if manifest.has_header:
            header = next((row for row in csv.reader(fh, delimiter=manifest.delimiter) if row), None)
        cols = _resolve_columns(manifest, header, manifest.csv_path)
    except (csv.Error, ValueError):
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
        try:
            table = np.loadtxt(
                fh, dtype=np.float64, comments=None, delimiter=manifest.delimiter,
                usecols=cols, ndmin=2, quotechar='"',
            )
        except (ValueError, TypeError):
            return None
    return table if table.size and np.isfinite(table).all() else None


#: a cell without the whitespace float() ignores: str.strip's, except 0x1c-0x1f
_FLOAT_SEEN = re.compile(r"[^\S\x1c-\x1f]*(.*?)[^\S\x1c-\x1f]*", re.DOTALL)


def _read_rows(fh, manifest):
    """_c_table's table from csv.reader rows and Python's float() per cell, or the first
    fault named: a row csv.reader rejects, no data rows, a column that does not
    resolve, a short row or an unparseable cell, then a non-finite value."""
    path = manifest.csv_path
    rows = []
    try:
        for row in csv.reader(fh, delimiter=manifest.delimiter):
            if row:
                rows.append(row)
    except csv.Error as err:
        raise ValueError(f"{path}: row {len(rows) + 1}: {err}") from None
    header = None
    if manifest.has_header:
        if not rows:
            raise ValueError(f"{path}: empty file")
        header = rows[0]
        rows = rows[1:]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    cols = _resolve_columns(manifest, header, path)
    first_data_row = 2 if manifest.has_header else 1
    table = np.empty((len(rows), len(cols)))
    for i, row in enumerate(rows):  # the first short row or bad cell, in row-major order
        for k, col in enumerate(cols):
            if col >= len(row):
                raise ValueError(f"{path}: row {first_data_row + i} has no column {col}")
            try:
                table[i, k] = float(row[col])
            except ValueError:
                raise ValueError(
                    f"{path}: cannot parse {_FLOAT_SEEN.fullmatch(row[col])[1]!r} "
                    f"at row {first_data_row + i}, column {col}"
                ) from None
    if not np.isfinite(table).all():
        i, k = np.argwhere(~np.isfinite(table))[0]
        raise ValueError(
            f"{path}: non-finite value {float(table[i, k])!r} at row {first_data_row + i}, "
            f"column {cols[k]}"
        )
    return table


def load_csv(manifest):
    """Read the manifest's CSV into (X, y); a short row, bad cell or non-finite value is named.

    numpy's C parser reads a clean file; any other file is read by
    _read_rows, which names the first fault.  Both give the same values.
    """
    path = manifest.csv_path
    try:
        fh = open(path, encoding="utf-8-sig", newline="")
    except OSError as err:
        raise ValueError(f"cannot open {path}: {err}") from err
    with fh:
        try:
            table = _c_table(fh, manifest)
            if table is None:
                fh.seek(0)
                table = _read_rows(fh, manifest)
        except UnicodeDecodeError as err:
            raise ValueError(
                f"{path}: not UTF-8 text (byte 0x{err.object[err.start]:02x}: {err.reason})"
            ) from None
    return np.ascontiguousarray(table[:, :-1]), np.ascontiguousarray(table[:, -1])


def write_csv(path, header, rows):
    """Write a UTF-8 CSV: the header row, then every row of an iterable of raw cells.

    csv formats each cell: a float or numpy float64 at full round-trip precision
    (as Python prints it), None as an empty cell, a str enum member as its value.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@dataclass
class Scaler:
    """Per-column min-max ranges fitted on training rows only; takes checked arrays."""

    x_min: np.ndarray
    x_max: np.ndarray
    y_min: float
    y_max: float

    @classmethod
    def fit(cls, X, y):
        x_min = X.min(axis=0)
        x_max = X.max(axis=0)
        for col in np.nonzero(x_max == x_min)[0]:
            raise ValueError(f"feature column {col} is constant on the training rows")
        y_min = float(y.min())
        y_max = float(y.max())
        if y_max == y_min:
            raise ValueError("target column is constant on the training rows")
        return cls(x_min=x_min, x_max=x_max, y_min=y_min, y_max=y_max)

    def transform_X(self, X):
        return (X - self.x_min) / (self.x_max - self.x_min)

    def transform_y(self, y):
        return (y - self.y_min) / (self.y_max - self.y_min)

    def to_dict(self):
        return {
            "x_min": self.x_min.tolist(),
            "x_max": self.x_max.tolist(),
            "y_min": self.y_min,
            "y_max": self.y_max,
        }


@dataclass
class DatasetSplit:
    X_train: np.ndarray
    y_train: np.ndarray
    X_val: np.ndarray
    y_val: np.ndarray
    X_test: np.ndarray
    y_test: np.ndarray
    scaler: Scaler


def split_scale(X, y, seed=0):
    """Seeded shuffle into train/val/test, scaled by train-only min-max.

    Partition sizes are floor(0.7 N), floor(0.1 N) and the remainder.  A
    target constant on the test rows is rejected: r2 is undefined there.
    """
    X, y = as_rows(X, y)
    n = X.shape[0]
    if n < 10:
        raise ValueError(f"need at least 10 rows to split, got {n}")

    perm = RandomStream(seed).permutation(n)
    n_train = math.floor(0.7 * n)
    n_val = math.floor(0.1 * n)
    idx_train = perm[:n_train]
    idx_val = perm[n_train : n_train + n_val]
    idx_test = perm[n_train + n_val :]

    scaler = Scaler.fit(X[idx_train], y[idx_train])
    y_test = scaler.transform_y(y[idx_test])
    if y_test.min() == y_test.max():
        raise ValueError("target column is constant on the test rows: r2 is undefined")
    return DatasetSplit(
        X_train=scaler.transform_X(X[idx_train]),
        y_train=scaler.transform_y(y[idx_train]),
        X_val=scaler.transform_X(X[idx_val]),
        y_val=scaler.transform_y(y[idx_val]),
        X_test=scaler.transform_X(X[idx_test]),
        y_test=y_test,
        scaler=scaler,
    )


# --------------------------------------------------------------------
# Synthetic generators (desk-scale stand-ins for the benchmark CSVs)
# --------------------------------------------------------------------

#: raw input range for the sinc2d generator before min-max scaling
SINC2D_RANGE = (-1.0, 1.0)
#: cluster centers of the sinc2d input distribution, relative to the range;
#: the quincunx layout gives clumped per-feature marginals with shared axis
#: projections, like tabular benchmark features
SINC2D_BLOBS = ((0.15, 0.15), (0.15, 0.85), (0.85, 0.15), (0.85, 0.85), (0.5, 0.5))
#: per-axis cluster standard deviation, relative to the range width
SINC2D_BLOB_STD = 0.05

SYNTH_DATASETS = ("sinc2d", "friedman")


def sinc2d_target(X):
    """sin(pi x1)/(pi x1) * sin(pi x2)/(pi x2) with the limit value 1 at 0."""
    return np.sinc(X[:, 0]) * np.sinc(X[:, 1])


def friedman_target(X):
    """Standard five-feature benchmark surface."""
    return (
        10.0 * np.sin(np.pi * X[:, 0] * X[:, 1])
        + 20.0 * (X[:, 2] - 0.5) ** 2
        + 10.0 * X[:, 3]
        + 5.0 * X[:, 4]
    )


def check_synth(name, n):
    """Reject a synthetic dataset of fewer than 50 rows or not in SYNTH_DATASETS."""
    if check_value(n, int, "n") < 50:
        raise ValueError(f"need n >= 50, got {n}")
    if name not in SYNTH_DATASETS:
        raise ValueError(f"unknown synthetic dataset {name!r}")


def synth_regression(name, n, noise, seed):
    """Deterministic synthetic datasets: sinc2d or friedman."""
    check_synth(name, n)
    check_value(noise, float, "noise")
    stream = RandomStream(seed)
    if name == "sinc2d":
        lo, hi = SINC2D_RANGE
        span = hi - lo
        blob_xy = lo + span * np.asarray(SINC2D_BLOBS)
        comp = np.floor(len(blob_xy) * stream.uniforms(n)).astype(int)
        x1 = blob_xy[comp, 0] + SINC2D_BLOB_STD * span * stream.normals(n)
        x2 = blob_xy[comp, 1] + SINC2D_BLOB_STD * span * stream.normals(n)
        X = np.column_stack([x1, x2])
        y = sinc2d_target(X)
    else:
        X = stream.uniforms(5 * n).reshape(n, 5)  # friedman
        y = friedman_target(X)
    with np.errstate(over="ignore"):  # a noise that overflows is named by as_array
        y = y + noise * stream.normals(n)
    return X, as_array(y, 1, "y")
