"""Dataset ingestion, normalization, synthetic blobs, link sampling, and file formats.

Feature matrices are plain ``(n, d)`` float arrays.  Labels, when present,
take values in ``{1, ..., c}``.  Pairwise side information is held in a
:class:`ConstraintSet`; sample indices are 0-based in memory and 1-based in
the on-disk constraint format.

A dataset CSV holds one sample per row.  Blank and whitespace-only rows are
skipped anywhere, rows before the first numeric row are skipped as a header,
and every other row must be numeric, as wide as the first and finite.  With
``labeled-csv`` the last column holds whole-number labels in ``1..n``, n the
number of data rows, so the class count never exceeds n.  The file is UTF-8,
with or without a byte-order mark; a byte that is not UTF-8 is refused on its
line, in constraint files too.  It takes one of two routes: ``np.loadtxt``
converts it in one call, and a file that call refuses (quotes, blank rows of
whitespace or commas, ``1_0`` cells, non-ASCII digits, a defect) is walked
row by row by ``csv.reader``, which converts each data row and names the
first bad line.  Both routes give the same bytes.

Every file format is read and written here.  Tables go through
:func:`save_table`, and JSON documents through :func:`save_json` and
:func:`load_json`, which takes a byte-order mark as the CSV readers do;
:func:`checked_json` refuses a document, or a field of one, of the wrong shape.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

NORMALIZE_SCHEMES = ("minmax-symmetric", "zscore", "none")
DATASET_FORMATS = ("csv", "labeled-csv")


class DatasetFormatError(ValueError):
    """A data file could not be parsed; the message names the offending line."""


class EmptyDatasetError(DatasetFormatError):
    """The file contains no data rows."""


class ConstraintFormatError(ValueError):
    """A constraint file or link list is malformed."""


@dataclass(frozen=True)
class Dataset:
    """Feature vectors plus optional ground-truth labels.

    Parameters
    ----------
    features : ndarray of shape (n, d)
        One row per sample; all entries must be finite.
    labels : ndarray of shape (n,), optional
        Integer class labels in ``{1, ..., c}``.
    c : int, optional
        Number of classes. Required whenever labels are present.
    name : str
        Free-form identifier used in reports.
    """

    features: np.ndarray
    labels: np.ndarray | None = None
    c: int | None = None
    name: str = ""

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
            raise ValueError(f"features must be a non-empty 2-d matrix, got shape {feats.shape}")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features contain non-finite entries")
        object.__setattr__(self, "features", feats)
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=int)
            if labels.shape != (feats.shape[0],):
                raise ValueError(f"labels must have shape ({feats.shape[0]},), got {labels.shape}")
            if self.c is None:
                raise ValueError("c must be given when labels are present")
            if labels.min() < 1 or labels.max() > self.c:
                raise ValueError(f"labels must lie in 1..{self.c}")
            object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True, eq=False)
class ConstraintSet:
    """Must-link and cannot-link sample pairs over ``n`` samples.

    Each list may be any sequence of integer pairs.  It is held as a read-only
    ``(k, 2)`` int64 array of 0-based pairs ``(i, j)``, ``i < j``, in the given
    order.  Self-pairs, indices outside ``0..n-1`` and pairs in both lists are
    rejected.  Compares by identity, as the other array-holding dataclasses do.
    """

    must_links: np.ndarray
    cannot_links: np.ndarray
    n: int

    def __post_init__(self):
        must, cannot = _link_array(self.must_links), _link_array(self.cannot_links)
        i, j = np.concatenate([must, cannot]).T
        bad = np.flatnonzero((i == j) | (np.minimum(i, j) < 0) | (np.maximum(i, j) >= self.n))
        if bad.size:
            i, j = int(i[bad[0]]), int(j[bad[0]])
            if i == j:
                raise ConstraintFormatError(f"self-pair ({i}, {i}) is not a valid link")
            raise ConstraintFormatError(f"pair ({i}, {j}) out of range for n={self.n}")
        for name, links in (("must_links", must), ("cannot_links", cannot)):
            links.sort(axis=1)
            links.flags.writeable = False
            object.__setattr__(self, name, links)
        keys = cannot @ [self.n, 1]  # i * n + j
        overlap = np.unique(keys[np.isin(keys, must @ [self.n, 1])])
        if overlap.size:
            pairs = [divmod(key, self.n) for key in overlap.tolist()]
            raise ConstraintFormatError(f"pairs present in both link lists: {pairs}")

    def __len__(self) -> int:
        return len(self.must_links) + len(self.cannot_links)


def _link_array(pairs) -> np.ndarray:
    """``pairs`` as a new ``(k, 2)`` int64 array; refuses anything but k integer pairs."""
    try:
        given = np.asarray(pairs if len(pairs) else np.empty((0, 2), dtype=np.int64))
    except (TypeError, ValueError):  # not a sized sequence, or a ragged one
        given = np.asarray(None)
    if given.ndim != 2 or given.shape[1] != 2 or given.dtype.kind not in "biuf":
        raise ConstraintFormatError("a link list must be a sequence of (i, j) index pairs")
    with np.errstate(invalid="ignore"):
        links = given.astype(np.int64)
    if not np.array_equal(links, given):
        raise ConstraintFormatError("link indices must be integers")
    return links


def empty_constraints(n: int) -> ConstraintSet:
    return ConstraintSet((), (), n)


def _read_text(path, error) -> str:
    """The UTF-8 text of ``path``; a byte that is not UTF-8 raises ``error`` naming its line.

    A leading byte-order mark is dropped.  Lines end at LF, CR LF or CR, as
    ``csv.reader`` and ``str.splitlines`` count them.
    """
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise error(f"{path}: byte 0x{data[exc.start]:02x} on line {line} is not UTF-8") from None


def _parse_rows(path, fmt):
    """The data rows of a CSV file as ``(line numbers, matrix)``.

    Blank and whitespace-only rows are dropped, and rows before the first row
    that parses are skipped as headers.  The text is decoded as UTF-8 with an
    optional byte-order mark.  :func:`_loadtxt_rows` converts it in C; what
    that route refuses goes to :func:`_csv_rows`, which decides every file.
    """
    if fmt not in DATASET_FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {DATASET_FORMATS}")
    path = Path(path)
    text = _read_text(path, DatasetFormatError)
    return _loadtxt_rows(text) or _csv_rows(path, text)


def _loadtxt_rows(text):
    """``(line numbers, matrix)`` by ``np.loadtxt``, or ``None`` to leave the file to csv.

    Without quotes a ``csv.reader`` record is a line and its cells are the
    line split at commas, and ``np.loadtxt`` gives ``float``'s bits for every
    cell it accepts.  It skips only empty lines; any other blank row, a
    ragged or non-finite row, a cell ``float`` reads and ``np.loadtxt`` does
    not (``1_0``, non-ASCII digits), a file without data rows or a line
    longer than csv's field limit returns ``None``.
    """
    if '"' in text:
        return None
    if "\r" in text:  # csv.reader ends a line at CR LF, LF or CR alike
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    records = text.split("\n")
    if records[-1] == "":  # the text ends in a newline, or is empty
        records.pop()
    if not records or max(map(len, records)) > csv.field_size_limit():
        return None
    # A blank row never parses: each of its cells is empty or whitespace.
    first = next((k for k, line in enumerate(records) if _is_numeric(line.split(","))), None)
    if first is None:
        return None
    rows = records[first:]
    try:
        matrix = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    lines = np.arange(first + 1, len(records) + 1)
    if matrix.shape[0] < len(rows):  # np.loadtxt skipped empty lines
        lines = lines[np.fromiter(map(bool, rows), bool, len(rows))]
    if lines.size != matrix.shape[0] or not np.isfinite(matrix).all():
        return None
    return lines, matrix


def _csv_rows(path, text):
    """``(line numbers, matrix)`` of ``text`` read by ``csv.reader``, one row at a time.

    The first defect is named by its line: a non-numeric cell anywhere comes
    first; then, row by row, a row whose width differs from the first row's
    or that holds a non-finite value.
    """
    lines, rows, defect = [], [], None
    for lineno, cells in enumerate(csv.reader(io.StringIO(text, newline="")), start=1):
        if not "".join(cells).strip():
            continue
        try:
            row = list(map(float, cells))
        except ValueError:
            if not rows:  # a header
                continue
            cell = next(cell for cell in cells if not _is_numeric([cell]))
            raise DatasetFormatError(
                f"{path}: non-numeric cell {cell.strip()!r} on line {lineno}"
            ) from None
        if defect is None:
            if rows and len(row) != len(rows[0]):
                defect = f"ragged row on line {lineno} ({len(row)} cells, expected {len(rows[0])})"
            elif not all(map(math.isfinite, row)):
                defect = f"non-finite value on line {lineno}"
        lines.append(lineno)
        rows.append(row)
    if not rows:
        raise EmptyDatasetError(f"{path}: file contains no data rows")
    if defect is not None:
        raise DatasetFormatError(f"{path}: {defect}")
    return np.array(lines), np.array(rows)


def _is_numeric(cells) -> bool:
    try:
        list(map(float, cells))
    except ValueError:
        return False
    return True


def _labels(path, lines, column) -> np.ndarray:
    """The label column as integers; each must be a whole number in ``1..n``.

    ``n`` is the number of data rows, so the class count it implies is at
    most ``n``.  The first bad label, in file order, is named by its line.
    """
    n = column.shape[0]
    bad = (column != np.trunc(column)) | (column < 1) | (column > n)
    if bad.any():
        k = int(np.argmax(bad))
        value, lineno = column[k], lines[k]
        if value != int(value):
            raise DatasetFormatError(f"{path}: non-integer label {float(value)!r} on line {lineno}")
        if value < 1:
            raise DatasetFormatError(f"{path}: label {int(value)} < 1 on line {lineno}")
        raise DatasetFormatError(
            f"{path}: label {int(value)} exceeds the row count {n} on line {lineno}"
        )
    return column.astype(int)


def load_dataset(path, fmt: str = "csv") -> Dataset:
    """Load a dataset from a CSV file.

    ``fmt="csv"`` reads every column as a feature.  ``fmt="labeled-csv"``
    treats the last column as integer class labels in ``1..n`` (n data rows)
    and infers the class count as the largest label.  Blank and
    whitespace-only rows are skipped anywhere, and rows before the first
    numeric row are skipped as a header.

    A bad row raises :class:`DatasetFormatError` naming its line, and a file
    without data rows raises :class:`EmptyDatasetError`.
    """
    lines, matrix = _parse_rows(path, fmt)
    name = Path(path).stem
    if fmt == "csv":
        return Dataset(features=matrix, name=name)
    if matrix.shape[1] < 2:
        raise DatasetFormatError(f"{path}: labeled-csv needs at least one feature column")
    labels = _labels(path, lines, matrix[:, -1])
    return Dataset(features=matrix[:, :-1], labels=labels, c=int(labels.max()), name=name)


def load_labels(path) -> np.ndarray:
    """The last column of a label CSV (``index,label`` rows or a bare column) as integers.

    Rows are read as :func:`load_dataset` reads them and the labels are held
    to its ``labeled-csv`` rule: whole numbers in ``1..n``, n the row count.
    """
    lines, matrix = _parse_rows(path, "csv")
    return _labels(path, lines, matrix[:, -1])


def save_labels(path, labels) -> None:
    """Write ``index,label`` rows, 1-based indices; integer cells need no quoting."""
    labels = np.asarray(labels, dtype=int)
    pairs = np.column_stack([np.arange(1, labels.size + 1), labels]).ravel().tolist()
    text = "index,label\n" + "%d,%d\n" * labels.size % tuple(pairs)
    Path(path).write_text(text, encoding="utf-8")


def save_table(path, rows) -> None:
    """Write ``rows``, the header first, as CSV with csv's minimal quoting and LF line ends.

    Floats are written by ``repr``, ``None`` as an empty cell, other cells by ``str``.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        # With CR LF rows csv quotes a cell holding either; each row's CR LF is written as LF.
        lf = SimpleNamespace(write=lambda line: fh.write(line[:-2] + "\n"))
        csv.writer(lf, lineterminator="\r\n").writerows(rows)


def load_json(path):
    """The JSON document of ``path``, decoded by the rules of :func:`_read_text`."""
    return json.loads(_read_text(path, ValueError))


def checked_json(value, document: str, path: str = "", kind: type = dict, required=()):
    """``value``, a JSON ``kind`` (object, list or string) holding every ``required`` key.

    A refusal names the ``document`` and the dotted ``path`` to the value in it.
    """
    subject = f"{document} field {path!r}" if path else f"a {document}"
    if not isinstance(value, kind):
        what = {dict: "object", list: "list", str: "string"}[kind]
        raise ValueError(f"{subject} must be a JSON {what}, got {type(value).__name__}")
    for key in required:
        if key not in value:
            field = f"{path}.{key}" if path else key
            raise ValueError(f"{document} field {field!r} is missing")
    return value


def save_json(path, doc) -> None:
    """Write ``doc`` as indented JSON with sorted keys; a value JSON lacks becomes its ``str``."""
    text = json.dumps(doc, indent=1, sort_keys=True, default=str) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def normalize(ds: Dataset, scheme: str = "minmax-symmetric") -> Dataset:
    """Rescale feature columns.

    ``minmax-symmetric`` maps each column affinely onto [-1, 1], ``zscore``
    standardizes to mean 0 / unit variance, ``none`` returns the input
    unchanged.  Constant columns map to 0 under both schemes.  ``zscore``
    refuses features whose column mean or standard deviation overflows.
    """
    if scheme not in NORMALIZE_SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {NORMALIZE_SCHEMES}")
    if scheme == "none":
        return ds
    x = ds.features.copy()
    if scheme == "minmax-symmetric":
        lo = x.min(axis=0)
        hi = x.max(axis=0)
        # A column whose doubled span overflows is mapped from halved values.
        # Halving and doubling commute with rounding, so the others keep their bits.
        half = np.where(hi / 2 - lo / 2 > np.finfo(float).max / 4, 0.5, 1.0)
        span = hi * half - lo * half
        constant = span == 0
        span[constant] = 1.0
        x = 2.0 * ((x * half - lo * half) / span) - 1.0
        x[:, constant] = 0.0
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            mean, std = x.mean(axis=0), x.std(axis=0)
        if not np.isfinite(std).all():  # an overflowing mean leaves it non-finite too
            raise ValueError("zscore statistics of a feature column overflow; use minmax-symmetric")
        constant = std == 0
        std[constant] = 1.0
        x = (x - mean) / std
        x[:, constant] = 0.0
    return replace(ds, features=x)


def _simplex_centers(c: int, d: int, separation: float) -> np.ndarray:
    """Cluster centers with pairwise distance ``separation`` (a regular simplex).

    When ``d < c - 1`` the simplex cannot be embedded exactly and the centers
    are its projection onto the top ``d`` principal axes.
    """
    centers = np.eye(c) * (separation / np.sqrt(2.0))
    centers -= centers.mean(axis=0)
    # Rotate into the (c-1)-dimensional span, then pad or truncate to d axes.
    u, s, _ = np.linalg.svd(centers, full_matrices=False)
    coords = u * s
    out = np.zeros((c, d))
    k = min(d, c)
    out[:, :k] = coords[:, :k]
    return out


def make_blobs(n_per_class: int, c: int, d: int, separation: float, seed: int) -> Dataset:
    """Generate ``c`` isotropic unit-variance Gaussian clusters.

    Centers sit on a regular simplex with edge length ``separation``.  Labels
    ``1..c`` are attached in contiguous blocks of ``n_per_class`` samples.
    Output is deterministic for a given seed.
    """
    if n_per_class < 1 or c < 1 or d < 1:
        raise ValueError("n_per_class, c and d must all be >= 1")
    rng = np.random.default_rng(seed)
    centers = _simplex_centers(c, d, float(separation))
    features = rng.standard_normal((n_per_class * c, d)) + np.repeat(centers, n_per_class, axis=0)
    labels = np.repeat(np.arange(1, c + 1), n_per_class)
    return Dataset(features=features, labels=labels, c=c, name=f"blobs{c}x{n_per_class}")


def _unrank_pairs(n: int, ranks: np.ndarray) -> np.ndarray:
    # Pairs (i, j), i < j, in lexicographic order; ranks index into that order.
    ends = np.cumsum(np.arange(n - 1, 0, -1))
    i = np.searchsorted(ends, ranks, side="right")
    starts = np.concatenate(([0], ends[:-1]))
    return np.column_stack([i, i + 1 + (ranks - starts[i])])


def sample_constraints(labels, n_links: int, seed: int) -> ConstraintSet:
    """Sample ``n_links`` distinct unordered pairs and label them as links.

    Pairs are drawn uniformly without replacement from all n(n-1)/2 pairs.
    A pair whose samples share a label becomes a must-link, otherwise a
    cannot-link.  Deterministic for a given seed.
    """
    labels = np.asarray(labels, dtype=int)
    n = labels.shape[0]
    total = n * (n - 1) // 2
    if n_links < 0 or n_links > total:
        raise ValueError(f"n_links must be in 0..{total}, got {n_links}")
    if n_links == 0:
        return empty_constraints(n)
    rng = np.random.default_rng(seed)
    ranks = np.sort(rng.choice(total, size=n_links, replace=False))
    pairs = _unrank_pairs(n, ranks)
    same = labels[pairs[:, 0]] == labels[pairs[:, 1]]
    return ConstraintSet(pairs[same], pairs[~same], n)


def save_constraints(cs: ConstraintSet, path) -> None:
    """Write links as ``i j +1`` (must) / ``i j -1`` (cannot), 1-based indices."""
    parts = ["# i j kind   (1-based indices; +1 must-link, -1 cannot-link)\n"]
    for pairs, kind in ((cs.must_links, "+1"), (cs.cannot_links, "-1")):
        parts.append((f"%d %d {kind}\n" * len(pairs)) % tuple((pairs + 1).ravel().tolist()))
    Path(path).write_text("".join(parts), encoding="utf-8")


def load_constraints(path, n: int) -> ConstraintSet:
    """Read a constraint file (see :func:`save_constraints` for the format).

    ``#`` starts a comment; indices are 1-based in the file and validated
    against the sample count ``n``.
    """
    must, cannot = [], []
    for lineno, raw in enumerate(_read_text(path, ConstraintFormatError).splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if len(parts) != 3:
            raise ConstraintFormatError(
                f"{path}: line {lineno}: expected 'i j kind', got {raw.strip()!r}"
            )
        try:
            i, j, kind = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise ConstraintFormatError(f"{path}: line {lineno}: non-integer field") from None
        if kind not in (1, -1):
            raise ConstraintFormatError(f"{path}: line {lineno}: kind must be +1 or -1, got {kind}")
        if not (1 <= i <= n and 1 <= j <= n):
            raise ConstraintFormatError(
                f"{path}: line {lineno}: index out of range 1..{n}: ({i}, {j})"
            )
        if i == j:
            raise ConstraintFormatError(f"{path}: line {lineno}: self-pair ({i}, {j})")
        (must if kind == 1 else cannot).append((i - 1, j - 1))
    return ConstraintSet(must, cannot, n)
