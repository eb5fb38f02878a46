import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from smiclust import data
from smiclust.data import (
    ConstraintFormatError,
    ConstraintSet,
    Dataset,
    DatasetFormatError,
    EmptyDatasetError,
    empty_constraints,
    load_constraints,
    load_dataset,
    make_blobs,
    normalize,
    sample_constraints,
    save_constraints,
)
from smiclust.kernel import _link_matrix


def assert_same_links(a, b):
    """``a`` and ``b`` hold the same links, in the same order, over the same n."""
    assert a.n == b.n
    assert a.must_links.dtype == b.must_links.dtype == np.int64
    assert np.array_equal(a.must_links, b.must_links)
    assert np.array_equal(a.cannot_links, b.cannot_links)


def _csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadDataset:
    def test_zeros_no_labels(self, tmp_path):
        path = _csv(tmp_path, "0,0\n0,0\n0,0\n0,0\n")
        ds = load_dataset(path, "csv")
        assert ds.n == 4 and ds.d == 2
        assert ds.labels is None
        assert np.array_equal(ds.features, np.zeros((4, 2)))

    def test_labeled_infers_class_count(self, tmp_path):
        path = _csv(tmp_path, "0.5,1\n0.4,1\n8.0,2\n8.1,2\n")
        ds = load_dataset(path, "labeled-csv")
        assert ds.c == 2
        assert np.array_equal(ds.labels, [1, 1, 2, 2])
        assert ds.d == 1

    def test_ragged_row_names_line(self, tmp_path):
        path = _csv(tmp_path, "1,2\n3,4\n5\n")
        with pytest.raises(DatasetFormatError, match="line 3"):
            load_dataset(path, "csv")

    def test_empty_file(self, tmp_path):
        path = _csv(tmp_path, "")
        with pytest.raises(EmptyDatasetError):
            load_dataset(path, "csv")
        assert load_dataset(path, "csv", allow_empty=True) is None

    def test_non_numeric_cell_names_line(self, tmp_path):
        path = _csv(tmp_path, "1,2\n3,oops\n")
        with pytest.raises(DatasetFormatError, match="line 2"):
            load_dataset(path, "csv")

    def test_header_autodetected(self, tmp_path):
        path = _csv(tmp_path, "x,y\n1,2\n3,4\n")
        ds = load_dataset(path, "csv")
        assert ds.n == 2

    def test_non_integer_label_rejected(self, tmp_path):
        path = _csv(tmp_path, "1,1.5\n2,2\n")
        with pytest.raises(DatasetFormatError, match="line 1"):
            load_dataset(path, "labeled-csv")

    def test_label_below_one_rejected(self, tmp_path):
        path = _csv(tmp_path, "1,0\n2,1\n")
        with pytest.raises(DatasetFormatError, match="line 1"):
            load_dataset(path, "labeled-csv")

    def test_non_finite_rejected(self, tmp_path):
        path = _csv(tmp_path, "1,2\nnan,4\n")
        with pytest.raises(DatasetFormatError, match="line 2"):
            load_dataset(path, "csv")

    def test_unknown_format(self, tmp_path):
        path = _csv(tmp_path, "1,2\n")
        with pytest.raises(ValueError, match="format"):
            load_dataset(path, "tsv")

    @pytest.mark.parametrize("header", ["", "x,y\n", '"x","y"\n'])
    @pytest.mark.parametrize("fmt", ["csv", "labeled-csv"])
    def test_byte_order_mark_keeps_the_first_row(self, tmp_path, fmt, header):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + (header + "1.5,2\n0.5,1\n2.5,2\n").encode())
        ds = load_dataset(path, fmt)
        assert ds.n == 3 and ds.features[:, 0].tolist() == [1.5, 0.5, 2.5]
        if fmt == "labeled-csv":
            assert ds.labels.tolist() == [2, 1, 2]

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_non_utf8_byte_names_file_and_line(self, tmp_path, newline):
        path = tmp_path / "latin1.csv"
        path.write_bytes(newline.join([b"\xef\xbb\xbfx,y", b"1,2", "3,\u00e9".encode("latin-1")]))
        with pytest.raises(DatasetFormatError) as err:
            load_dataset(path)
        assert str(err.value) == f"{path}: byte 0xe9 on line 3 is not UTF-8"


_CELLS = st.one_of(
    st.sampled_from([
        "1", "-2.5", " 3 ", "4e2", "1_0", "_1", "nan", " nan", "inf", "-inf", "Infinity", "1e999",
        "x", "abc", "", " ", '"7"', '" 8 "', '"1,2"', '"x"', "0x10", "\u0661",
    ]),
    st.floats().map(repr),
    st.integers(-2, 4).map(str),
)
_NUMBERS = st.one_of(
    st.sampled_from(["1", "2", "-2.5", " 3 ", "4e2", "1_0", "2.0"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
_LINES = st.one_of(
    st.lists(_NUMBERS, min_size=1, max_size=3).map(",".join),
    st.lists(_NUMBERS, min_size=2, max_size=2).map(",".join),
    st.lists(_CELLS, max_size=4).map(",".join),
    st.sampled_from(["x,y", "a,b,c", "", "   ", " , ", ",", "\t"]),
    st.text(alphabet='0123456789.,-+eEnaif_ "x\t', max_size=12),
)


def _load_outcome(path, fmt, allow_empty):
    """What ``load_dataset`` gives: the arrays and class count, or the exception."""
    try:
        ds = load_dataset(path, fmt, allow_empty)
    except Exception as exc:  # noqa: BLE001  the type and message are compared
        return type(exc), str(exc)
    if ds is None:
        return None
    labels = None if ds.labels is None else (ds.labels.dtype, ds.labels.tobytes())
    return ds.features.shape, ds.features.tobytes(), labels, ds.c


@settings(max_examples=300, deadline=None)
@given(
    lines=st.lists(_LINES, max_size=8),
    newline=st.sampled_from(["\n", "\r\n"]),
    trailing=st.booleans(),
    fmt=st.sampled_from(["csv", "labeled-csv"]),
    allow_empty=st.booleans(),
)
def test_parse_equals_cell_by_cell_oracle(tmp_path_factory, lines, newline, trailing, fmt,
                                          allow_empty):
    """Headers, blanks, quotes, ``1_0``, ``nan``/``inf``, ragged and non-numeric rows alike."""
    path = tmp_path_factory.mktemp("parse") / "data.csv"
    path.write_bytes((newline.join(lines) + (newline if trailing else "")).encode("utf-8"))
    got = _load_outcome(path, fmt, allow_empty)
    with mock.patch.object(data, "_parse_rows", oracles.parse_rows):
        want = _load_outcome(path, fmt, allow_empty)
    assert got == want


class TestLabelBound:
    """A label above the number of data rows is refused on its line, with no warning."""

    @pytest.mark.parametrize("label", ["1e20", "3e9", "3"])
    def test_label_above_row_count_names_line(self, tmp_path, label):
        path = _csv(tmp_path, f"1,{label}\n2,1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DatasetFormatError, match="line 1") as err:
                load_dataset(path, "labeled-csv")
        assert "\n" not in str(err.value)

    @pytest.mark.parametrize("text, message", [
        ("1,1\n2,9\n3,0\n", r"label 9 exceeds the row count 3 on line 2$"),
        ("1,1\n2,0\n3,9\n", r"label 0 < 1 on line 2$"),
        ("1,1\n2,2.5\n3,0\n", r"non-integer label 2\.5 on line 2$"),
    ])
    def test_first_bad_label_in_file_order_is_named(self, tmp_path, text, message):
        with pytest.raises(DatasetFormatError, match=message):
            load_dataset(_csv(tmp_path, text), "labeled-csv")

    def test_label_equal_to_row_count_accepted(self, tmp_path):
        ds = load_dataset(_csv(tmp_path, "1,1\n2,2\n"), "labeled-csv")
        assert ds.c == 2 and np.array_equal(ds.labels, [1, 2])

    def test_non_utf8_label_file_names_file_and_line(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_bytes("index,label\n1,1\n2,\u00e9\n".encode("latin-1"))
        with pytest.raises(DatasetFormatError) as err:
            data.load_labels(path)
        assert str(err.value) == f"{path}: byte 0xe9 on line 3 is not UTF-8"


_VALUES = ["1", "-2.5", " 3 ", "4e2", "2.0", "0.1", "-0", "1e-300"]
_BLANKS = ["", "   ", " , ", ",", "\t", ",,"]
_HEADERS = ["x,y", "a,b,c", "label", '"x"', "x,1", "1,x"]
_DEFECTS = ["ragged", "x", '"x"', '"1,2"', '"7"', '" 8 "', "1_0", "nan", " nan", "inf",
            "-inf", "1e999", "0", "2.5", "1e20", "none"]


@st.composite
def _long_file(draw):
    """Up to about 300 lines: valid rows, blanks anywhere, headers first, at most one defect."""
    n = draw(st.integers(1, 250))
    width = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = [[rng.choice(_VALUES) if rng.random() < 0.2 else repr(float(v))
             for v in rng.standard_normal(width)] for _ in range(n)]
    top = draw(st.integers(1, 3))
    for row in rows:  # an integer last column, so that labeled-csv files can be valid
        row[-1] = str(rng.integers(1, top + 1))
    defect = draw(st.sampled_from(_DEFECTS))
    at = draw(st.integers(0, n - 1))
    if defect == "ragged":
        rows[at] = rows[at][:-1] if width > 1 and rng.random() < 0.5 else rows[at] + ["1"]
    elif defect != "none":
        rows[at][draw(st.integers(0, width - 1))] = defect
    lines = [",".join(row) for row in rows]
    for pos, blank in draw(st.lists(st.tuples(st.integers(0, n), st.sampled_from(_BLANKS)),
                                    max_size=40)):
        lines.insert(pos, blank)
    return draw(st.lists(st.sampled_from(_HEADERS + _BLANKS), max_size=3)) + lines


@settings(max_examples=150, deadline=None)
@given(
    lines=_long_file(),
    newline=st.sampled_from(["\n", "\r\n"]),
    trailing=st.booleans(),
    fmt=st.sampled_from(["csv", "labeled-csv"]),
)
def test_long_files_equal_row_by_row_oracle(tmp_path_factory, lines, newline, trailing, fmt):
    """A late defect, or none, among blanks and headers: the bulk parse gives the oracle's outcome."""
    path = tmp_path_factory.mktemp("long") / "data.csv"
    path.write_bytes((newline.join(lines) + (newline if trailing else "")).encode("utf-8"))
    got = _load_outcome(path, fmt, False)
    with mock.patch.object(data, "_parse_rows", oracles.parse_rows), \
            mock.patch.object(data, "_labels", oracles.labels):
        want = _load_outcome(path, fmt, False)
    assert got == want


_ODD_ROWS = [
    "", "   ", ",,", " , ", "\t", "x,y", "label", '"1",2', '" 3 ",4', '"x"', '"1\n2",3', "1_0,2",
    "\uff11,2", "\u0661,1", "nan,1", "1,inf", "-inf,2", "1e999,1", "1,2,3", "a,1", "1,", "\xa01,2",
]


@st.composite
def _text(draw):
    """Mostly rows of one width among odd rows, with any line ending and maybe a BOM."""
    width = draw(st.integers(1, 3))
    row = st.lists(_NUMBERS, min_size=width, max_size=width).map(",".join)
    odd = st.one_of(st.just(""), st.sampled_from(_ODD_ROWS))
    lines = draw(st.lists(st.one_of(row, row, odd), max_size=10))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    end = draw(st.sampled_from(["", newline, newline * 2]))
    return draw(st.sampled_from(["", "\ufeff"])) + newline.join(lines) + end


def _rows_outcome(parse, path, fmt, allow_empty):
    """What ``parse`` gives: the bytes of its line numbers and matrix, or the exception."""
    try:
        parsed = parse(path, fmt, allow_empty)
    except Exception as exc:  # noqa: BLE001  the type and message are compared
        return type(exc), str(exc)
    if parsed is None:
        return None
    lines, matrix = parsed
    return lines.dtype, lines.tobytes(), matrix.dtype, matrix.shape, matrix.tobytes()


@settings(max_examples=500, deadline=None)
@given(text=_text(), fmt=st.sampled_from(["csv", "labeled-csv"]), allow_empty=st.booleans())
def test_parse_equals_csv_reader_oracle(tmp_path_factory, text, fmt, allow_empty):
    """The np.loadtxt route and its csv.reader fallback give the csv.reader parse bit for bit."""
    path = tmp_path_factory.mktemp("rows") / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _rows_outcome(data._parse_rows, path, fmt, allow_empty)
    assert got == _rows_outcome(oracles.csv_parse_rows, path, fmt, allow_empty)


class TestParseRoute:
    def test_plain_file_takes_the_loadtxt_route(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_bytes(b"\xef\xbb\xbfx,y\r\n1,2\r\n\r\n3,4\r\n\r\n")
        with mock.patch.object(data, "_csv_rows", side_effect=AssertionError("csv route")):
            lines, matrix = data._parse_rows(path, "csv", False)
        assert lines.tolist() == [2, 4] and matrix.tolist() == [[1, 2], [3, 4]]

    @pytest.mark.parametrize("text", [
        '"1",2\n3,4\n', '"x","y"\n1,2\n', "1_0,2\n", "1,2\n , \n3,4\n", "1,2\n3\n",
        "1,nan\n", "x,y\n", "", "\n\n",
    ])
    def test_refused_files_go_to_csv_reader(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert data._loadtxt_rows(text) is None


class TestNormalize:
    def test_minmax_symmetric_endpoints(self):
        ds = Dataset(features=np.array([[0.0], [255.0]]))
        out = normalize(ds, "minmax-symmetric")
        assert np.allclose(out.features.ravel(), [-1.0, 1.0])

    def test_constant_column_maps_to_zero(self):
        ds = Dataset(features=np.array([[5.0], [5.0], [5.0]]))
        for scheme in ("minmax-symmetric", "zscore"):
            assert np.array_equal(normalize(ds, scheme).features, np.zeros((3, 1)))

    def test_zscore_oracle(self):
        ds = Dataset(features=np.array([[1.0], [2.0], [3.0]]))
        out = normalize(ds, "zscore").features.ravel()
        assert abs(out.mean()) < 1e-12
        assert abs(out.var() - 1.0) < 1e-12

    def test_minmax_idempotent(self):
        rng = np.random.default_rng(0)
        ds = Dataset(features=rng.uniform(-3, 7, size=(40, 3)))
        once = normalize(ds, "minmax-symmetric")
        twice = normalize(once, "minmax-symmetric")
        assert np.allclose(once.features, twice.features, atol=1e-12)

    def test_minmax_symmetric_column_wider_than_float64(self):
        x = np.array([[1e308, 0.0], [-1e308, 1.0], [0.0, 2.0], [1.7e308, 3.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = normalize(Dataset(features=x), "minmax-symmetric").features
        assert out[:, 0].tolist() == pytest.approx([4 / 2.7 - 1, -1.0, 2 / 2.7 - 1, 1.0])
        assert out[[1, 3], 0].tolist() == [-1.0, 1.0]
        assert out[:, 1].tolist() == pytest.approx([-1.0, -1 / 3, 1 / 3, 1.0])

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8),
        width=st.integers(1, 3),
    )
    def test_minmax_symmetric_keeps_the_bits_of_the_direct_formula(self, values, width):
        x = np.resize(np.array(values), (len(values), width))
        x[:, 1:] *= np.linspace(0.25, 1.0, width - 1)  # columns of other spans
        want = oracles.minmax_symmetric(x)
        got = normalize(Dataset(features=x), "minmax-symmetric").features
        finite = np.isfinite(want).all(axis=0)
        assert got[:, finite].tobytes() == want[:, finite].tobytes()
        assert np.isfinite(got).all() and (np.abs(got) <= 1).all()

    def test_none_is_identity(self):
        ds = Dataset(features=np.array([[1.0, 2.0]]))
        assert normalize(ds, "none") is ds

    def test_unknown_scheme(self):
        ds = Dataset(features=np.ones((2, 2)))
        with pytest.raises(ValueError):
            normalize(ds, "standard")

    def test_labels_preserved(self):
        ds = Dataset(features=np.array([[0.0], [4.0]]), labels=np.array([1, 2]), c=2)
        out = normalize(ds, "zscore")
        assert np.array_equal(out.labels, ds.labels)
        assert out.c == 2


class TestMakeBlobs:
    def test_deterministic(self):
        a = make_blobs(50, 2, 2, 10.0, seed=1)
        b = make_blobs(50, 2, 2, 10.0, seed=1)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_zero_separation_balanced(self):
        ds = make_blobs(60, 3, 2, 0.0, seed=2)
        counts = np.bincount(ds.labels)[1:]
        assert np.array_equal(counts, [60, 60, 60])
        # all classes draw from the same standard normal around the origin
        for cls in (1, 2, 3):
            mean = ds.features[ds.labels == cls].mean(axis=0)
            assert np.all(np.abs(mean) < 4.0 / np.sqrt(60))

    def test_nearest_centroid_oracle(self):
        ds = make_blobs(50, 3, 2, 20.0, seed=7)
        centroids = np.stack([ds.features[ds.labels == cls].mean(axis=0) for cls in (1, 2, 3)])
        dist = np.linalg.norm(ds.features[:, None, :] - centroids[None, :, :], axis=2)
        predicted = dist.argmin(axis=1) + 1
        assert np.array_equal(predicted, ds.labels)

    def test_pairwise_center_distances(self):
        # simplex arrangement: all centers equidistant when d >= c - 1
        ds = make_blobs(2000, 3, 2, 30.0, seed=3)
        centroids = np.stack([ds.features[ds.labels == cls].mean(axis=0) for cls in (1, 2, 3)])
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(np.linalg.norm(centroids[i] - centroids[j]) - 30.0) < 0.5

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            make_blobs(0, 2, 2, 1.0, seed=0)


class TestSampleConstraints:
    def test_zero_links(self):
        cs = sample_constraints([1, 1, 2, 2], 0, seed=0)
        assert cs.must_links.shape == cs.cannot_links.shape == (0, 2)

    def test_all_pairs_enumerated(self):
        cs = sample_constraints([1, 1, 2, 2], 6, seed=0)
        assert set(map(tuple, cs.must_links.tolist())) == {(0, 1), (2, 3)}
        assert set(map(tuple, cs.cannot_links.tolist())) == {(0, 2), (0, 3), (1, 2), (1, 3)}

    def test_deterministic(self):
        labels = [1, 2, 1, 2, 1, 2, 2, 1]
        a = sample_constraints(labels, 5, seed=9)
        b = sample_constraints(labels, 5, seed=9)
        assert_same_links(a, b)

    def test_too_many_links(self):
        with pytest.raises(ValueError):
            sample_constraints([1, 2, 1], 4, seed=0)

    @settings(max_examples=40, deadline=None)
    @given(
        labels=st.lists(st.integers(1, 3), min_size=3, max_size=25),
        frac=st.floats(0.1, 1.0),
        seed=st.integers(0, 2**16),
    )
    def test_links_respect_labels(self, labels, frac, seed):
        labels = np.asarray(labels)
        n = labels.shape[0]
        n_links = int(frac * n * (n - 1) // 2)
        cs = sample_constraints(labels, n_links, seed=seed)
        assert len(cs) == n_links
        for i, j in cs.must_links:
            assert labels[i] == labels[j]
        for i, j in cs.cannot_links:
            assert labels[i] != labels[j]
        pairs = np.concatenate([cs.must_links, cs.cannot_links])
        assert len(np.unique(pairs, axis=0)) == len(pairs)  # sampled without replacement

    def test_matrix_invariants(self):
        cs = sample_constraints([1, 1, 2, 2, 3], 7, seed=4)
        m = oracles.must_link_matrix(cs)
        c = oracles.cannot_link_matrix(cs)
        assert np.array_equal(m, m.T) and np.array_equal(c, c.T)
        assert np.array_equal(np.diag(m), np.ones(5))
        assert np.array_equal(np.diag(c), np.zeros(5))
        off = ~np.eye(5, dtype=bool)
        assert np.all((m * c)[off] == 0)
        assert np.array_equal(_link_matrix(cs.must_links, 5, 1.0).toarray(), m)
        assert np.array_equal(_link_matrix(cs.cannot_links, 5, 0.0).toarray(), c)


class TestConstraintSet:
    def test_self_pair_rejected(self):
        with pytest.raises(ConstraintFormatError):
            ConstraintSet(((1, 1),), (), 3)

    def test_pair_in_both_lists_rejected(self):
        with pytest.raises(ConstraintFormatError):
            ConstraintSet(((0, 1),), ((1, 0),), 3)

    def test_out_of_range_rejected(self):
        with pytest.raises(ConstraintFormatError):
            ConstraintSet(((0, 3),), (), 3)

    def test_pairs_canonicalized(self):
        cs = ConstraintSet(((2, 0),), ((3, 1),), 4)
        assert cs.must_links.tolist() == [[0, 2]]
        assert cs.cannot_links.tolist() == [[1, 3]]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_per_pair_oracle(self, data):
        # Indices reach past both ends of 0..n-1; pairs repeat, come in both
        # orientations and may sit in both lists.
        n = data.draw(st.integers(1, 6), label="n")
        index = st.integers(-2, n + 1)
        pairs = st.lists(st.tuples(index, index), max_size=6)
        must, cannot = data.draw(pairs, label="must"), data.draw(pairs, label="cannot")
        shared = data.draw(st.lists(st.sampled_from(must), max_size=3) if must else st.just([]))
        cannot = data.draw(st.permutations(cannot + [(j, i) for i, j in shared]), label="cannot")
        form = data.draw(st.sampled_from([tuple, list, np.array]), label="form")
        try:
            want = oracles.constraint_pairs(must, cannot, n)
        except ConstraintFormatError as exc:
            with pytest.raises(ConstraintFormatError) as got:
                ConstraintSet(form(must), form(cannot), n)
            assert str(got.value) == str(exc)
            return
        cs = ConstraintSet(form(must), form(cannot), n)
        for held, pairs in zip((cs.must_links, cs.cannot_links), want):
            assert held.dtype == np.int64 and held.shape == (len(pairs), 2)
            assert not held.flags.writeable
            assert list(map(tuple, held.tolist())) == list(pairs)

    def test_non_integral_index_rejected(self):
        with pytest.raises(ConstraintFormatError, match="integers"):
            ConstraintSet(((0.5, 2),), (), 3)
        with pytest.raises(ConstraintFormatError, match="integers"):
            ConstraintSet((), ((0, float("nan")),), 3)
        assert ConstraintSet(((2.0, 0.0),), (), 3).must_links.tolist() == [[0, 2]]

    @pytest.mark.parametrize("links", [((0, 1, 2),), ((0, 1), (2,)), ((),), (("0", "1"),)])
    def test_list_not_of_pairs_rejected(self, links):
        with pytest.raises(ConstraintFormatError, match="pairs"):
            ConstraintSet(links, (), 3)

    def test_holds_its_own_copy(self):
        given = np.array([[1, 0]])
        cs = ConstraintSet(given, (), 2)
        given[0] = [0, 0]
        assert cs.must_links.tolist() == [[0, 1]]
        with pytest.raises(ValueError):
            cs.must_links[0, 0] = 1


class TestConstraintFiles:
    def test_roundtrip(self, tmp_path):
        cs = sample_constraints([1, 1, 2, 2, 1, 2], 6, seed=1)
        path = tmp_path / "links.txt"
        save_constraints(cs, path)
        assert_same_links(load_constraints(path, 6), cs)

    def test_file_is_one_based(self, tmp_path):
        path = tmp_path / "links.txt"
        save_constraints(ConstraintSet(((0, 1),), (), 2), path)
        body = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert body == ["1 2 +1"]

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "links.txt"
        path.write_text("# a comment\n1 2 +1  # trailing\n\n2 3 -1\n")
        cs = load_constraints(path, 3)
        assert cs.must_links.tolist() == [[0, 1]]
        assert cs.cannot_links.tolist() == [[1, 2]]

    def test_out_of_range_names_line(self, tmp_path):
        path = tmp_path / "links.txt"
        path.write_text("1 2 +1\n1 9 -1\n")
        with pytest.raises(ConstraintFormatError, match="line 2"):
            load_constraints(path, 4)

    def test_bad_kind_names_line(self, tmp_path):
        path = tmp_path / "links.txt"
        path.write_text("1 2 5\n")
        with pytest.raises(ConstraintFormatError, match="line 1"):
            load_constraints(path, 4)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        text = b"1 2 +1\n2 3 -1\n"
        (tmp_path / "plain.txt").write_bytes(text)
        (tmp_path / "bom.txt").write_bytes(b"\xef\xbb\xbf" + text)
        assert_same_links(load_constraints(tmp_path / "bom.txt", 3),
                          load_constraints(tmp_path / "plain.txt", 3))

    def test_non_utf8_byte_names_file_and_line(self, tmp_path):
        path = tmp_path / "links.txt"
        path.write_bytes("1 2 +1\n# caf\u00e9\n".encode("latin-1"))
        with pytest.raises(ConstraintFormatError) as err:
            load_constraints(path, 4)
        assert str(err.value) == f"{path}: byte 0xe9 on line 2 is not UTF-8"


class TestDatasetValidation:
    def test_empty_features_rejected(self):
        with pytest.raises(ValueError):
            Dataset(features=np.zeros((0, 2)))

    def test_labels_need_class_count(self):
        with pytest.raises(ValueError):
            Dataset(features=np.ones((2, 1)), labels=np.array([1, 2]))

    def test_labels_out_of_range(self):
        with pytest.raises(ValueError):
            Dataset(features=np.ones((2, 1)), labels=np.array([1, 3]), c=2)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Dataset(features=np.array([[1.0, np.inf]]))
