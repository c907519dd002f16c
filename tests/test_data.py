"""CSV ingestion, manifests, split/scale, synthetic generators."""

import csv
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from xanfis import data
from xanfis.cli import main
from xanfis.data import (
    DatasetManifest,
    friedman_target,
    load_csv,
    load_manifest,
    sinc2d_target,
    split_scale,
    synth_regression,
)
from xanfis.inference import load_model
from xanfis.numerics import RandomStream


@pytest.fixture
def train_artifact(tmp_path):
    """A `train` model artifact's scaler block, with the raw rows and split behind it."""
    args = ["train", "--synth", "sinc2d", "--synth-n", "200", "--synth-noise", "0.05"]
    args += ["--rules", "3", "--epochs", "1", "--seeds", "3", "--out", str(tmp_path)]
    assert main(args) == 0
    _, block = load_model(tmp_path / "model_seed0003.json")
    X, y = synth_regression("sinc2d", 200, 0.05, seed=3)
    return block, X, y, split_scale(X, y, seed=3)


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def per_cell_oracle(manifest):
    """Reference reader: one stripped float() per cell in row-major order.

    Returns (X, y), or the ValueError message of a file without data
    rows or of the first short row or unparseable cell.
    """
    with open(manifest.csv_path, encoding="utf-8", newline="") as fh:
        rows = [row for row in csv.reader(fh, delimiter=manifest.delimiter) if row]
    if manifest.has_header and not rows:
        return "empty file"
    header = rows.pop(0) if manifest.has_header else None
    if not rows:
        return "no data rows"

    def index(col):
        return col if isinstance(col, int) else header.index(col)

    cols = [index(c) for c in manifest.feature_columns] + [index(manifest.target_column)]
    first = 2 if manifest.has_header else 1
    table = np.empty((len(rows), len(cols)))
    for i, row in enumerate(rows):
        for k, col in enumerate(cols):
            if col >= len(row):
                return f"row {first + i} has no column {col}"
            try:
                table[i, k] = float(row[col].strip())
            except ValueError:
                return f"row {first + i}, column {col}"
    return table[:, :-1], table[:, -1]


@st.composite
def csv_files(draw):
    """CSV text plus the manifest fields that select its columns.

    Rows may carry unselected trailing columns or a trailing delimiter.  A
    file may have no data rows, one cell written 1_000 (which float() reads
    and numpy's parser does not) or one fault: a short row, an unparseable
    cell or a whitespace-only line.
    """
    n_cols = draw(st.integers(2, 5))
    n_rows = draw(st.integers(0, 8))
    has_header = draw(st.booleans())
    delimiter = draw(st.sampled_from([",", ";"]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    order = draw(st.permutations(range(n_cols)))
    n_features = draw(st.integers(1, n_cols - 1))
    features, target = list(order[:n_features]), order[n_features]
    by_name = has_header and draw(st.booleans())
    # subnormals and a 17-digit value
    texts = st.sampled_from(["1e-320", "-4.9e-324", "0.12345678901234567"])
    values = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-999, 999) | texts
    cell_forms = st.sampled_from(["{}", " {} ", "  {}", '"{}"', '" {} "'])
    # unselected cells: anything, a "#" included, since no comment character is set
    extra_cells = st.lists(st.sampled_from(["x", "", "#1", "# c", '"a;b,c"', "1_0"]), max_size=2)

    def cell(value):
        text = f"{value:.17g}" if isinstance(value, float) else str(value)
        return draw(cell_forms).format(text)

    lines = [delimiter.join(f"c{k}" for k in range(n_cols))] if has_header else []
    data_lines = []
    for _ in range(n_rows):
        lines += [""] * draw(st.integers(0, 1))  # blank lines are skipped
        data_lines.append(len(lines))
        cells = [cell(draw(values)) for _ in range(n_cols)] + draw(extra_cells)
        lines.append(delimiter.join(cells) + draw(st.sampled_from(["", delimiter])))
    if data_lines and draw(st.integers(0, 3)) == 0:
        row = draw(st.sampled_from(data_lines))
        cells = lines[row].split(delimiter)
        fault = draw(st.sampled_from(["1_000", "short", "cell", "whitespace"]))
        if fault == "short":
            cells = cells[: draw(st.integers(1, n_cols - 1))]
        elif fault == "whitespace":
            cells = [draw(st.sampled_from([" ", "\t", " \t "]))]
        else:  # "1_000" or an unparseable cell
            bad = draw(st.sampled_from(["x", "", "1.5.0", "0x10", "#2"]))
            cells[draw(st.integers(0, n_cols - 1))] = fault if fault == "1_000" else bad
        lines[row] = delimiter.join(cells)
    text = newline.join(lines) + newline
    name = (lambda k: f"c{k}") if by_name else (lambda k: k)
    manifest = dict(
        target_column=name(target), feature_columns=[name(k) for k in features],
        has_header=has_header, delimiter=delimiter,
    )
    return text, manifest


class TestLoadCSV:
    def test_basic_with_header(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "a,b,t\n1,2,3\n4,5,6\n7,8,9\n")
        m = DatasetManifest(csv_path=path, target_column="t", feature_columns=["a", "b"])
        X, y = load_csv(m)
        np.testing.assert_array_equal(X, [[1, 2], [4, 5], [7, 8]])
        np.testing.assert_array_equal(y, [3, 6, 9])

    def test_column_indices_without_header(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "1;2;3\n4;5;6\n")
        m = DatasetManifest(
            csv_path=path, target_column=2, feature_columns=[0, 1],
            has_header=False, delimiter=";",
        )
        X, y = load_csv(m)
        np.testing.assert_array_equal(X, [[1, 2], [4, 5]])
        np.testing.assert_array_equal(y, [3, 6])

    def test_unparseable_cell_names_row_and_column(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "a,t\n1,2\nabc,4\n")
        m = DatasetManifest(csv_path=path, target_column="t", feature_columns=["a"])
        with pytest.raises(ValueError, match="row 3, column 0"):
            load_csv(m)

    @settings(
        max_examples=150, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(csv_files())
    def test_matches_per_cell_oracle(self, tmp_path, case):
        text, fields = case
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        m = DatasetManifest(csv_path=str(path), **fields)
        expected = per_cell_oracle(m)
        if isinstance(expected, str):
            with pytest.raises(ValueError, match=f"{expected}$"):
                load_csv(m)
            return
        X, y = load_csv(m)
        # %.17g cells round-trip bit for bit
        np.testing.assert_array_equal(X, expected[0], strict=True)
        np.testing.assert_array_equal(y, expected[1], strict=True)
        assert X.flags.c_contiguous

    def test_clean_file_parsed_without_row_by_row_read(self, tmp_path, monkeypatch):
        def refuse(fh, manifest):
            raise AssertionError("row-by-row read")

        monkeypatch.setattr(data, "_read_rows", refuse)
        path = write_csv(tmp_path / "d.csv", 'a;b;t\n1;"2.5";-0\n\n4; 1e-320 ;6;x\n')
        m = DatasetManifest(csv_path=path, target_column="t", feature_columns=["b", "a"],
                            delimiter=";")
        X, y = load_csv(m)
        np.testing.assert_array_equal(X, [[2.5, 1.0], [1e-320, 4.0]], strict=True)
        assert X.flags.c_contiguous and y.flags.c_contiguous
        assert y.tobytes() == np.array([-0.0, 6.0]).tobytes()
        # float() reads 1_000 and numpy's parser does not: only the row-by-row read decides
        write_csv(tmp_path / "d.csv", "a;b;t\n1_000;2;3\n")
        with pytest.raises(AssertionError, match="row-by-row read"):
            load_csv(m)

    def test_peak_memory_below_three_times_result(self, tmp_path):
        # no Python object per cell: 20k rows x 6 columns stay near the arrays' own bytes
        table = np.random.default_rng(0).uniform(size=(20_000, 6))
        path = tmp_path / "d.csv"
        np.savetxt(path, table, fmt="%.17g", delimiter=",", header="a,b,c,d,e,t", comments="")
        m = DatasetManifest(csv_path=str(path), target_column="t",
                            feature_columns=["a", "b", "c", "d", "e"])
        load_csv(m)  # first-call set-up stays out of the measurement
        tracemalloc.start()
        try:
            X, y = load_csv(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(np.column_stack([X, y]), table)
        assert peak < 3 * (X.nbytes + y.nbytes)

    def test_short_row_message(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "a,b,t\n1,2,3\n4,5\n7,x,9\n")
        m = DatasetManifest(csv_path=path, target_column="t", feature_columns=["b", "a"])
        with pytest.raises(ValueError, match=r"d\.csv: row 3 has no column 2$"):
            load_csv(m)

    def test_first_bad_cell_in_row_major_order(self, tmp_path):
        # row 2's target is bad before row 3's features: the target is read
        # after the features of its own row, but before any later row
        path = write_csv(tmp_path / "d.csv", "a,b,t\n1,2,?\nx,y,6\n")
        m = DatasetManifest(csv_path=path, target_column="t", feature_columns=["a", "b"])
        with pytest.raises(ValueError, match=r"cannot parse '\?' at row 2, column 2$"):
            load_csv(m)

    @pytest.mark.parametrize(
        "text, fields, shown",
        [
            ("a,t\n1,2\nnan,4\n", {}, "non-finite value nan at row 3, column 0"),
            ("a,t\n1,2\n3,-inf\n", {}, "non-finite value -inf at row 3, column 1"),
            ("a,t\n1e400,2\n3,4\n", {}, "non-finite value inf at row 2, column 0"),
            # a parse error is reported before any non-finite value, wherever it is
            ("a,t\n1,inf\nx,4\n", {}, "cannot parse 'x' at row 3, column 0"),
            ("a,t\n1,2\n", {"target_column": 5}, "row 2 has no column 5"),
            ("1,2\n", {"has_header": False},
             "column 't' referenced by name but the file has no header"),
            ("", {}, "empty file"),
            ("a,t\n", {}, "no data rows"),
            ("a,t\n1,2\n", {"feature_columns": []}, "manifest needs at least one feature column"),
            # numpy's parser and str.strip remove 0x1c-0x1f from a cell's ends, float() does
            # not; the cell is shown as float() saw it, without only the whitespace it ignores
            ("a,t\n1,2\n3\x1c,4\n", {}, "cannot parse '3\\x1c' at row 3, column 0"),
            ("a,t\n1,2\n3,\x1f4\n", {}, "cannot parse '\\x1f4' at row 3, column 1"),
            ("a,t\n1,2\n \tx\xa0,4\n", {}, "cannot parse 'x' at row 3, column 0"),
            # csv.reader's errors and undecodable bytes are named too
            pytest.param("a,t\n1_000,2\n3,4" + "0" * 200_000 + "\n", {},
                         "row 3: field larger than field limit (131072)", id="long-cell"),
            pytest.param("a" * 200_000 + ",t\n1,2\n", {"feature_columns": [0]},
                         "row 1: field larger than field limit (131072)", id="long-header"),
            ("a,t\n1,2\n#3,4\n", {}, "cannot parse '#3' at row 3, column 0"),  # no comments
        ],
    )
    def test_bad_input_named(self, tmp_path, text, fields, shown):
        path = write_csv(tmp_path / "d.csv", text)
        fields = {"target_column": "t", "feature_columns": ["a"], **fields}
        with pytest.raises(ValueError, match=f"{re.escape(shown)}$"):
            load_csv(DatasetManifest(csv_path=path, **fields))

    @pytest.mark.parametrize(
        "text, target, features",
        [
            (b"a,t\n1,2\n3,\xe9\n", 1, [0]),
            (b"a,t\n" + b"1,2\n" * 3000 + b"3,\xe9\n", 1, [0]),
            (b"a,\xe9t\n1,2\n", 1, [0]),
            (b"a,\xe9t\n1,2\n", "a", [1]),
        ],
        ids=["data_row", "data_row_after_first_read", "header", "header_named_columns"],
    )
    def test_not_utf8_named(self, tmp_path, text, target, features):
        # the bad byte in a data row, decoded in the header's first read or only in numpy's
        # read, or in the header; either way the row-by-row read names it
        path = tmp_path / "d.csv"
        path.write_bytes(text)
        m = DatasetManifest(csv_path=str(path), target_column=target, feature_columns=features)
        with pytest.raises(ValueError, match=r"d\.csv: not UTF-8 text \(byte 0xe9: "):
            load_csv(m)

    def test_duplicate_header_rejected(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "a,a,t\n1,2,3\n")
        m = DatasetManifest(csv_path=path, target_column="t", feature_columns=["a"])
        with pytest.raises(ValueError, match="ambiguous"):
            load_csv(m)

    def test_missing_file(self, tmp_path):
        m = DatasetManifest(
            csv_path=str(tmp_path / "nope.csv"), target_column="t", feature_columns=["a"]
        )
        with pytest.raises(ValueError, match="cannot open"):
            load_csv(m)

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "a,t\n1,2\n")
        m = DatasetManifest(csv_path=path, target_column="zz", feature_columns=["a"])
        with pytest.raises(ValueError, match="no column named"):
            load_csv(m)

    def test_target_among_features_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="target column 't' is also listed as a feature"):
            DatasetManifest(csv_path="x.csv", target_column="t", feature_columns=["t"])

    def test_quoted_cells(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", 'a,t\n"1.5",2\n"2.5",3\n')
        m = DatasetManifest(csv_path=path, target_column="t", feature_columns=["a"])
        X, y = load_csv(m)
        np.testing.assert_array_equal(X[:, 0], [1.5, 2.5])

    def test_manifest_file_round_trip(self, tmp_path):
        csv_path = write_csv(tmp_path / "d.csv", "a,b,t\n1,2,3\n4,5,6\n")
        mpath = tmp_path / "m.json"
        mpath.write_text(
            json.dumps(
                {"csv_path": csv_path, "target_column": "t", "feature_columns": ["a", "b"]}
            )
        )
        m = load_manifest(mpath)
        assert m.has_header is True
        X, y = load_csv(m)
        assert X.shape == (2, 2)

    @pytest.mark.parametrize("has_header", [True, False], ids=["header", "headerless"])
    @pytest.mark.parametrize("cell", ["30", "3_0"], ids=["numpy", "row_by_row"])
    def test_utf8_byte_order_mark_skipped(self, tmp_path, has_header, cell):
        # Excel's "CSV UTF-8" starts the file with a BOM (EF BB BF); "3_0" only float() reads
        text = ("a,t\n" if has_header else "") + f"1,2\n{cell},4\n"
        columns = {"target_column": "t", "feature_columns": ["a"]} if has_header else {
            "target_column": 1, "feature_columns": [0], "has_header": False}
        path = write_csv(tmp_path / "d.csv", "\ufeff" + text)
        X, y = load_csv(DatasetManifest(csv_path=path, **columns))
        np.testing.assert_array_equal(X, [[1.0], [30.0]])
        np.testing.assert_array_equal(y, [2.0, 4.0])

    def test_manifest_with_byte_order_mark(self, tmp_path):
        csv_path = write_csv(tmp_path / "d.csv", "a,t\n1,2\n")
        mpath = tmp_path / "m.json"
        doc = {"csv_path": csv_path, "target_column": "t", "feature_columns": ["a"]}
        mpath.write_text("\ufeff" + json.dumps(doc), encoding="utf-8")
        assert load_manifest(mpath) == DatasetManifest(**doc)


class TestWriteCSV:
    def test_cells_formatted_by_csv(self, tmp_path):
        # every writer passes raw cells: a Python float and a numpy float64 must both
        # read back as the float's round-trip repr, and None as an empty cell
        edge = [0.0, -0.0, 5e-324, -1e-310, np.inf, -np.inf, np.nan, 1e16, 1e-5, 0.1]
        bits = np.random.default_rng(0).integers(0, 2**64, 20000, dtype=np.uint64)
        values = edge + bits.view(np.float64).tolist()
        path = tmp_path / "cells.csv"
        rows = ([v, np.float64(v), None] for v in values)
        data.write_csv(path, ["float", "float64", "unset"], rows)
        with open(path, newline="", encoding="utf-8") as fh:
            assert list(csv.reader(fh)) == [
                ["float", "float64", "unset"], *([repr(v), repr(v), ""] for v in values)
            ]


class TestSplitScale:
    @pytest.mark.parametrize("seed", [1.5, True, "1"])
    def test_non_int_seed_rejected(self, seed):
        X, y = np.arange(40.0).reshape(20, 2), np.arange(20.0)
        with pytest.raises(ValueError, match=re.escape(f"seed must be int, got {seed!r}")):
            split_scale(X, y, seed=seed)

    def test_split_sizes(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 10, size=(100, 2))
        y = rng.uniform(0, 10, size=100)
        sp = split_scale(X, y, seed=0)
        assert sp.X_train.shape == (70, 2)
        assert sp.X_val.shape == (10, 2)
        assert sp.X_test.shape == (20, 2)

    def test_training_column_scaled_to_unit_range(self):
        # seed 1 puts all three values among the 8 training rows, so the
        # scaled column spans exactly [0, 1]
        X = np.array([[2.0], [4.0], [6.0]] * 4)
        y = np.arange(12, dtype=float)
        sp = split_scale(X, y, seed=1)
        assert len(sp.X_train) == 8
        train_sorted = np.sort(np.unique(sp.X_train[:, 0]))
        np.testing.assert_allclose(train_sorted, [0.0, 0.5, 1.0], atol=1e-12)

    def test_deterministic_permutation(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(size=(50, 3))
        y = rng.uniform(size=50)
        a = split_scale(X, y, seed=9)
        b = split_scale(X, y, seed=9)
        np.testing.assert_array_equal(a.X_train, b.X_train)
        np.testing.assert_array_equal(a.y_test, b.y_test)

    def test_partitions_disjoint_and_cover(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(size=(53, 2))
        y = rng.uniform(size=53)
        sp = split_scale(X, y, seed=4)
        perm = RandomStream(4).permutation(53)
        assert sorted(perm.tolist()) == list(range(53))
        assert len(sp.X_train) + len(sp.X_val) + len(sp.X_test) == 53
        # the partitions are the permuted rows, in order
        parts = np.vstack([sp.X_train, sp.X_val, sp.X_test])
        np.testing.assert_array_equal(parts, sp.scaler.transform_X(X[perm]))

    def test_scaler_fitted_on_train_only(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(size=(40, 2))
        y = rng.uniform(size=40)
        sp = split_scale(X, y, seed=5)
        n_train = len(sp.X_train)
        perm = RandomStream(5).permutation(40)
        train_rows = X[perm[:n_train]]
        np.testing.assert_allclose(sp.scaler.x_min, train_rows.min(axis=0))
        np.testing.assert_allclose(sp.scaler.x_max, train_rows.max(axis=0))
        # shuffling the held-out rows leaves the scaler unchanged
        X2 = X.copy()
        held = perm[n_train:]
        X2[held] = X2[held[::-1]]
        y2 = y.copy()
        y2[held] = y2[held[::-1]]
        sp2 = split_scale(X2, y2, seed=5)
        np.testing.assert_array_equal(sp.scaler.x_min, sp2.scaler.x_min)
        np.testing.assert_array_equal(sp.scaler.x_max, sp2.scaler.x_max)
        assert sp.scaler.y_min == sp2.scaler.y_min

    def test_constant_training_column_rejected(self):
        X = np.ones((20, 2))
        X[:, 1] = np.arange(20)
        y = np.arange(20, dtype=float)
        with pytest.raises(ValueError, match="^feature column 0 is constant on the training rows$"):
            split_scale(X, y, seed=0)

    @pytest.mark.parametrize(
        "y, shown",
        [
            (np.ones(20), "target column is constant on the training rows"),
            (np.arange(19.0), "X has 20 rows but y has 19 entries"),
        ],
    )
    def test_degenerate_target_rejected(self, y, shown):
        X = np.random.default_rng(6).uniform(size=(20, 2))
        with pytest.raises(ValueError, match=shown):
            split_scale(X, y, seed=0)

    def test_constant_test_target_rejected(self):
        # r2 is undefined on the test rows: rejected before any training
        X = np.random.default_rng(6).uniform(size=(20, 2))
        y = np.arange(20.0)
        y[RandomStream(0).permutation(20)[16:]] = 7.5  # the 4 test rows of seed 0
        with pytest.raises(ValueError, match="constant on the test rows: r2 is undefined"):
            split_scale(X, y, seed=0)
        y[RandomStream(0).permutation(20)[16]] = 8.5
        assert split_scale(X, y, seed=0).y_test.std() > 0

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            split_scale(np.zeros((5, 1)), np.zeros(5), seed=0)

    def test_scaler_round_trip(self, train_artifact):
        # the artifact's ranges map the scaled training rows back to raw units
        block, X, y, split = train_artifact
        rows = RandomStream(3).permutation(len(X))[: len(split.X_train)]
        x_lo, x_hi = np.array(block["x_min"]), np.array(block["x_max"])
        raw_X = split.X_train * (x_hi - x_lo) + x_lo
        np.testing.assert_allclose(raw_X, X[rows], rtol=0, atol=1e-12)
        raw_y = split.y_train * (block["y_max"] - block["y_min"]) + block["y_min"]
        np.testing.assert_allclose(raw_y, y[rows], rtol=0, atol=1e-12)

    def test_scaler_dict_round_trip(self, train_artifact):
        # the artifact records the min-max of the raw training rows exactly
        block, X, y, split = train_artifact
        rows = RandomStream(3).permutation(len(X))[: len(split.X_train)]
        assert block == {
            "x_min": X[rows].min(axis=0).tolist(),
            "x_max": X[rows].max(axis=0).tolist(),
            "y_min": float(y[rows].min()),
            "y_max": float(y[rows].max()),
        }


class TestSynthetic:
    def test_sinc_limit_at_origin(self):
        np.testing.assert_allclose(sinc2d_target(np.array([[0.0, 0.0]])), [1.0])

    def test_sinc_formula_spot_values(self):
        X = np.array([[0.5, 0.0], [1.0, 1.0]])
        ref = (np.sin(np.pi * 0.5) / (np.pi * 0.5)) * 1.0
        np.testing.assert_allclose(sinc2d_target(X)[0], ref, atol=1e-15)
        np.testing.assert_allclose(sinc2d_target(X)[1], 0.0, atol=1e-15)

    def test_deterministic(self):
        for name in ("sinc2d", "friedman"):
            X1, y1 = synth_regression(name, 100, 0.0, seed=5)
            X2, y2 = synth_regression(name, 100, 0.0, seed=5)
            np.testing.assert_array_equal(X1, X2)
            np.testing.assert_array_equal(y1, y2)

    def test_noiseless_sinc_matches_formula(self):
        X, y = synth_regression("sinc2d", 200, 0.0, seed=1)
        np.testing.assert_allclose(y, sinc2d_target(X), atol=1e-15)

    def test_friedman_matches_formula_oracle(self):
        X, y = synth_regression("friedman", 120, 0.0, seed=2)
        # independent scalar evaluation of the benchmark surface
        for t in range(0, 120, 17):
            x1, x2, x3, x4, x5 = X[t]
            ref = (
                10 * np.sin(np.pi * x1 * x2)
                + 20 * (x3 - 0.5) ** 2
                + 10 * x4
                + 5 * x5
            )
            assert y[t] == pytest.approx(ref, abs=1e-12)
        np.testing.assert_allclose(friedman_target(X), y, atol=1e-12)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown synthetic"):
            synth_regression("mystery", 100, 0.0, seed=0)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            synth_regression("sinc2d", 10, 0.0, seed=0)

    @pytest.mark.parametrize("n, noise, seed, shown", [
        (300.9, 0.1, 0, "n must be int, got 300.9"),
        ("300", 0.1, 0, "n must be int, got '300'"),
        (300, float("nan"), 0, "noise must be finite, got nan"),
        (300, float("inf"), 0, "noise must be finite, got inf"),
        (300, "0.1", 0, "noise must be float, got '0.1'"),
        (300, 0.1, 1.5, "seed must be int, got 1.5"),
        (300, 0.1, "1", "seed must be int, got '1'"),
        (300, 0.1, True, "seed must be int, got True"),
        (300, 1e308, 0, "y contains non-finite entries"),  # the noise overflows
    ])
    def test_bad_argument_rejected(self, n, noise, seed, shown):
        # coerced, these would run seed 1, draw 300 rows or give non-finite targets
        with pytest.raises(ValueError, match=re.escape(shown)):
            synth_regression("sinc2d", n, noise, seed=seed)
