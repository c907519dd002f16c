"""CSV ingestion and writing, min-max scaling, deterministic splitting,
synthetic data.

The scaler is always fitted on the training partition only, so validation
and test rows can land outside [0, 1]; membership evaluation tolerates
that by design.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import RandomStream, as_matrix, as_vector


class CSVFormatError(ValueError):
    """Input CSV violates the manifest contract (missing/unparseable cells)."""


class ScalerError(ValueError):
    """A selected column cannot be min-max scaled (constant on train rows)."""


@dataclass
class DatasetManifest:
    csv_path: str
    target_column: str | int
    feature_columns: list = field(default_factory=list)
    has_header: bool = True
    delimiter: str = ","

    def validate(self):
        if not self.feature_columns:
            raise ValueError("manifest needs at least one feature column")
        if self.target_column in self.feature_columns:
            raise ValueError(
                f"target column {self.target_column!r} is also listed as a feature"
            )


def load_manifest(path):
    """Read a JSON manifest file with the DatasetManifest fields."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    manifest = DatasetManifest(
        csv_path=doc["csv_path"],
        target_column=doc["target_column"],
        feature_columns=list(doc["feature_columns"]),
        has_header=bool(doc.get("has_header", True)),
        delimiter=str(doc.get("delimiter", ",")),
    )
    manifest.validate()
    return manifest


def _resolve_column(col, header, path):
    if isinstance(col, int):
        return col
    if header is None:
        raise CSVFormatError(
            f"{path}: column {col!r} referenced by name but the file has no header"
        )
    hits = [i for i, name in enumerate(header) if name == col]
    if not hits:
        raise CSVFormatError(f"{path}: no column named {col!r}")
    if len(hits) > 1:
        raise CSVFormatError(f"{path}: column name {col!r} is ambiguous (appears {len(hits)} times)")
    return hits[0]


def load_csv(manifest):
    """Read the manifest's CSV into (feature matrix, target vector)."""
    manifest.validate()
    path = manifest.csv_path
    try:
        fh = open(path, encoding="utf-8", newline="")
    except OSError as err:
        raise CSVFormatError(f"cannot open {path}: {err}") from err
    with fh:
        reader = csv.reader(fh, delimiter=manifest.delimiter)
        rows = [row for row in reader if row]
    header = None
    if manifest.has_header:
        if not rows:
            raise CSVFormatError(f"{path}: empty file")
        header = rows[0]
        rows = rows[1:]
    if not rows:
        raise CSVFormatError(f"{path}: no data rows")

    target_idx = _resolve_column(manifest.target_column, header, path)
    feature_idx = [_resolve_column(c, header, path) for c in manifest.feature_columns]

    # numpy applies Python's float() to each string; a short row or a bad
    # cell falls through to the per-cell scan below, which names the first one
    try:
        X = np.array([[row[c] for c in feature_idx] for row in rows], dtype=np.float64)
        y = np.array([row[target_idx] for row in rows], dtype=np.float64)
        return X, y
    except (IndexError, ValueError):
        pass

    def cell(row, row_no, col):
        if col >= len(row):
            raise CSVFormatError(f"{path}: row {row_no} has no column {col}")
        text = row[col].strip()
        try:
            return float(text)
        except ValueError:
            raise CSVFormatError(
                f"{path}: cannot parse {text!r} at row {row_no}, column {col}"
            ) from None

    first_data_row = 2 if manifest.has_header else 1
    X = np.empty((len(rows), len(feature_idx)))
    y = np.empty(len(rows))
    for i, row in enumerate(rows):
        row_no = first_data_row + i
        for k, col in enumerate(feature_idx):
            X[i, k] = cell(row, row_no, col)
        y[i] = cell(row, row_no, target_idx)
    return X, y


def write_csv(path, header, rows):
    """Write a UTF-8 CSV: the header row, then every row of an iterable."""
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
            raise ScalerError(f"feature column {col} is constant on the training rows")
        y_min = float(y.min())
        y_max = float(y.max())
        if y_max == y_min:
            raise ScalerError("target column is constant on the training rows")
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
    permutation: np.ndarray


def split_scale(X, y, fractions=(0.7, 0.1, 0.2), seed=0):
    """Seeded shuffle into train/val/test, scaled by train-only min-max.

    Partition sizes are floor(f_train*N), floor(f_val*N) and the
    remainder.
    """
    X = as_matrix(X, "X")
    y = as_vector(y, "y")
    n = X.shape[0]
    if y.shape[0] != n:
        raise ValueError(f"X has {n} rows but y has {y.shape[0]} entries")
    if n < 10:
        raise ValueError(f"need at least 10 rows to split, got {n}")
    if len(fractions) != 3 or not math.isclose(sum(fractions), 1.0, abs_tol=1e-9):
        raise ValueError(f"fractions must be three values summing to 1, got {fractions}")

    perm = RandomStream(seed).permutation(n)
    n_train = int(math.floor(fractions[0] * n))
    n_val = int(math.floor(fractions[1] * n))
    idx_train = perm[:n_train]
    idx_val = perm[n_train : n_train + n_val]
    idx_test = perm[n_train + n_val :]

    scaler = Scaler.fit(X[idx_train], y[idx_train])
    return DatasetSplit(
        X_train=scaler.transform_X(X[idx_train]),
        y_train=scaler.transform_y(y[idx_train]),
        X_val=scaler.transform_X(X[idx_val]),
        y_val=scaler.transform_y(y[idx_val]),
        X_test=scaler.transform_X(X[idx_test]),
        y_test=scaler.transform_y(y[idx_test]),
        scaler=scaler,
        permutation=perm,
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

TWO_BLOB_CENTERS = ((0.2, 0.2), (0.8, 0.8))


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


def synth_regression(name, n, noise, seed):
    """Deterministic synthetic datasets: two_blob, sinc2d or friedman."""
    n = int(n)
    if n < 50:
        raise ValueError(f"need n >= 50, got {n}")
    stream = RandomStream(seed)
    if name == "two_blob":
        half = n // 2
        sizes = (half, n - half)
        rows = []
        labels = []
        for label, (cx, cy) in enumerate(TWO_BLOB_CENTERS):
            k = sizes[label]
            radius = noise * np.sqrt(stream.uniforms(k))
            theta = 2.0 * math.pi * stream.uniforms(k)
            rows.append(
                np.column_stack([cx + radius * np.cos(theta), cy + radius * np.sin(theta)])
            )
            labels.append(np.full(k, float(label)))
        return np.vstack(rows), np.concatenate(labels)
    if name == "sinc2d":
        lo, hi = SINC2D_RANGE
        span = hi - lo
        blob_xy = lo + span * np.asarray(SINC2D_BLOBS)
        comp = np.floor(len(blob_xy) * stream.uniforms(n)).astype(int)
        x1 = blob_xy[comp, 0] + SINC2D_BLOB_STD * span * stream.normals(n)
        x2 = blob_xy[comp, 1] + SINC2D_BLOB_STD * span * stream.normals(n)
        X = np.column_stack([x1, x2])
        y = sinc2d_target(X) + noise * stream.normals(n)
        return X, y
    if name == "friedman":
        X = stream.uniforms(5 * n).reshape(n, 5)
        y = friedman_target(X) + noise * stream.normals(n)
        return X, y
    raise ValueError(f"unknown synthetic dataset {name!r}")
