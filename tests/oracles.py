"""Slow, plain reference implementations that the faster program code must equal.

Only tests import this module.  Each function is the form some program code
once had (or the direct form of what it computes), kept here so property tests
can compare the fast path with it exactly.  It also holds the references the
paper's method is checked against: the labels of unsupervised SMIC (Sugiyama
et al., ICML 2011), to which the linked pipeline reduces without links, the
LSMI density ratio summed one center at a time, and the LSMI hold-out error
(Suzuki et al., BMC Bioinformatics 2009).
"""

import csv
import math
from itertools import chain, compress

import numpy as np
from scipy import sparse

from smiclust import lsmi, solver
from smiclust.data import (
    DATASET_FORMATS,
    ConstraintFormatError,
    DatasetFormatError,
    EmptyDatasetError,
    _is_numeric,
)
from smiclust.kernel import local_scaling_kernel


class Dense:
    """A dense symmetric array behind the operator protocol of ``top_eigenpairs``.

    ``kernel`` is the array's sparse pattern, which ``top_eigenpairs`` reads
    for the parts of the graph.
    """

    def __init__(self, array):
        self.entries = np.asarray(array, dtype=float)
        self.n = self.entries.shape[0]
        self.kernel = sparse.csr_matrix(self.entries)

    def matvec(self, v):
        return self.entries @ v


def objective_entries(u):
    """Dense ``U = K' B K'`` of a ``solver.ObjectiveMatrix``, symmetrized; O(n^3)."""
    k = u.kernel.toarray()
    dense = k @ (u.inner @ k)
    return (dense + dense.T) / 2.0


def eigh_top_eigenpairs(array, c):
    """Top-c eigenpairs of a dense symmetric ``array`` by ``eigh``, tie groups canonicalized.

    The oracle for ``top_eigenpairs``, which never runs a dense eigensolver;
    it refuses nothing.
    """
    w, v = np.linalg.eigh(array)
    w, v = w[::-1].copy(), v[:, ::-1].copy()
    solver._canonical_top(w, v, c)
    return w[:c], v[:, :c]


def unsupervised_labels(ds, t, c):
    """Labels of unsupervised SMIC: the top-c eigenvectors of the local-scaling kernel itself.

    Dense ``eigh`` of K with no link edit, then the program's sign rule and
    assignment.
    """
    _, phi = eigh_top_eigenpairs(local_scaling_kernel(ds.features, t).entries, c)
    return solver.assign_clusters(solver.fix_signs(phi))


def evaluate_ratio(model, x, y):
    """``r(x, y) = sum_l w_l exp(-||x - z_l||^2 / 2 kappa^2)``, summed one center at a time.

    ``x`` is one point (a float comes back) or a batch of rows.
    """
    k = model.classes.index(int(y))
    x = np.asarray(x, dtype=float)
    points = np.atleast_2d(x)
    values = np.zeros(points.shape[0])
    for center, weight in zip(model.centers[k], model.weights[k]):
        sqdist = np.sum((points - center) ** 2, axis=1)
        values += weight * np.exp(-sqdist / (2.0 * model.kappa**2))
    return float(values[0]) if x.ndim == 1 else values


def hold_error(model, x, y):
    """The LSMI hold-out error of ``model`` on ``(x, y)``, by the program's float operations.

    ``(1/2m^2) sum_{i,j} r(x_i, y_j)^2 - (1/m) sum_i r(x_i, y_i)``, computed
    as ``cross_validate`` computes a fold's score, so the two agree bit for bit.
    """
    return lsmi._hold_error(lsmi.ratio_matrix(model, x), *lsmi._class_columns(y, model.classes))


def ratio_model(x, y, centers, kappa, delta):
    """The density-ratio model fitted with its kernel centers pinned to ``centers[class]``."""
    systems = lsmi._class_systems(x, y, centers, kappa)
    classes = tuple(sorted(centers))
    return lsmi.RatioModel(
        classes=classes,
        centers=tuple(centers[cls] for cls in classes),
        weights=tuple(lsmi._solve_ridge(*systems[cls], delta) for cls in classes),
        kappa=kappa,
        delta=delta,
    )


def smi_score(kernel, alpha, c) -> float:
    """Estimated squared-loss mutual information of an assignment matrix.

    Computes ``(c / 2n) * sum_y alpha_y' K^2 alpha_y - 1/2`` for a dense
    symmetric kernel matrix K; the quadratic form is evaluated as
    ``||K alpha_y||^2``.
    """
    k = np.asarray(kernel, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    n = k.shape[0]
    return float(c / (2.0 * n) * np.sum((k @ alpha) ** 2) - 0.5)


def must_link_matrix(cs) -> np.ndarray:
    """Dense symmetric binary matrix with unit diagonal marking the must-links of ``cs``."""
    m = np.eye(cs.n)
    for i, j in cs.must_links:
        m[i, j] = m[j, i] = 1.0
    return m


def cannot_link_matrix(cs) -> np.ndarray:
    """Dense symmetric binary matrix with zero diagonal marking the cannot-links of ``cs``."""
    m = np.zeros((cs.n, cs.n))
    for i, j in cs.cannot_links:
        m[i, j] = m[j, i] = 1.0
    return m


def inner_matrix(cs, gamma: float, eta: float) -> np.ndarray:
    """The dense ``B = 2I + 2g M + g^2 M^2 - 2e C + e^2 C^2`` of the objective matrix."""
    m, c = must_link_matrix(cs), cannot_link_matrix(cs)
    return 2 * np.eye(cs.n) + 2 * gamma * m + gamma**2 * (m @ m) - 2 * eta * c + eta**2 * (c @ c)


def constraint_pairs(must_links, cannot_links, n: int):
    """Link lists checked and ordered one pair at a time, as ``(must, cannot)`` tuples.

    The first self-pair or out-of-range pair, must-links first, is refused;
    then pairs in both lists, named in sorted order.  Each pair becomes
    ``(i, j)`` with ``i < j``.
    """

    def check(pair):
        i, j = int(pair[0]), int(pair[1])
        if i == j:
            raise ConstraintFormatError(f"self-pair ({i}, {i}) is not a valid link")
        if not (0 <= i < n and 0 <= j < n):
            raise ConstraintFormatError(f"pair ({i}, {j}) out of range for n={n}")
        return (i, j) if i < j else (j, i)

    must = tuple(check(p) for p in must_links)
    cannot = tuple(check(p) for p in cannot_links)
    overlap = set(must) & set(cannot)
    if overlap:
        raise ConstraintFormatError(f"pairs present in both link lists: {sorted(overlap)}")
    return must, cannot


def link_matrix(pairs, n: int, diagonal: float) -> sparse.csr_matrix:
    """The sparse link matrix as a deduplicated COO sum, with ``diagonal`` on the diagonal."""
    i, j = np.unique(np.asarray(pairs, dtype=np.intp).reshape(-1, 2), axis=0).T
    links = sparse.coo_matrix((np.ones(i.size), (i, j)), shape=(n, n))
    return (links + links.T + diagonal * sparse.identity(n)).tocsr()


def csv_parse_rows(path, fmt):
    """CSV data rows as ``(line numbers, matrix)``, every file read by ``csv.reader``.

    The form ``_parse_rows`` had before its ``np.loadtxt`` route: the rows are
    converted and checked as one matrix, and walked one by one only to name a
    defect.
    """
    if fmt not in DATASET_FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {DATASET_FORMATS}")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = list(csv.reader(fh))
    kept = np.fromiter(map(bool, map(str.strip, map("".join, rows))), bool, len(rows))
    lines = np.flatnonzero(kept) + 1
    if lines.size < len(rows):
        rows = list(compress(rows, kept))
    first = next((k for k, cells in enumerate(rows) if _is_numeric(cells)), len(rows))
    rows, lines = rows[first:], lines[first:]
    if not rows:
        raise EmptyDatasetError(f"{path}: file contains no data rows")
    width = len(rows[0])
    matrix = None
    if (np.fromiter(map(len, rows), np.intp, len(rows)) == width).all():
        try:
            cells = map(float, chain.from_iterable(rows))
            matrix = np.fromiter(cells, float, len(rows) * width).reshape(len(rows), width)
        except ValueError:
            pass
    if matrix is None or not np.isfinite(matrix).all():
        _raise_first_defect(path, rows, lines.tolist())
    return lines, matrix


def _raise_first_defect(path, rows, lines):
    """Raise for the first bad data row, naming its line.

    A non-numeric cell anywhere comes first; then, row by row, a row whose
    width differs from the first row's or that holds a non-finite value.
    """
    for lineno, cells in zip(lines, rows):
        for cell in cells:
            try:
                float(cell)
            except ValueError:
                raise DatasetFormatError(
                    f"{path}: non-numeric cell {cell.strip()!r} on line {lineno}"
                ) from None
    width = len(rows[0])
    for lineno, cells in zip(lines, rows):
        if len(cells) != width:
            raise DatasetFormatError(
                f"{path}: ragged row on line {lineno} ({len(cells)} cells, expected {width})"
            )
        if not all(map(math.isfinite, map(float, cells))):
            raise DatasetFormatError(f"{path}: non-finite value on line {lineno}")


def parse_rows(path, fmt):
    """CSV data rows as ``(line numbers, matrix)``, parsed one cell and one check at a time."""
    if fmt not in DATASET_FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {DATASET_FORMATS}")
    rows = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        first_data_line = None
        for lineno, cells in enumerate(reader, start=1):
            if not cells or all(cell.strip() == "" for cell in cells):
                continue
            if first_data_line is None:
                try:
                    [float(cell) for cell in cells]
                except ValueError:
                    continue
                first_data_line = lineno
            values = []
            for cell in cells:
                try:
                    values.append(float(cell))
                except ValueError:
                    raise DatasetFormatError(
                        f"{path}: non-numeric cell {cell.strip()!r} on line {lineno}"
                    ) from None
            rows.append((lineno, values))
    if not rows:
        raise EmptyDatasetError(f"{path}: file contains no data rows")
    width = len(rows[0][1])
    for lineno, values in rows:
        if len(values) != width:
            raise DatasetFormatError(
                f"{path}: ragged row on line {lineno} ({len(values)} cells, expected {width})"
            )
        if not all(np.isfinite(v) for v in values):
            raise DatasetFormatError(f"{path}: non-finite value on line {lineno}")
    return np.array([lineno for lineno, _ in rows]), np.array([v for _, v in rows], dtype=float)


def labels(path, lines, column):
    """The label column checked one row at a time: a whole number in 1..n, n the row count."""
    n = len(column)
    for lineno, value in zip(lines, column):
        if value != int(value):
            raise DatasetFormatError(
                f"{path}: non-integer label {float(value)!r} on line {lineno}"
            )
        if value < 1:
            raise DatasetFormatError(f"{path}: label {int(value)} < 1 on line {lineno}")
        if value > n:
            raise DatasetFormatError(
                f"{path}: label {int(value)} exceeds the row count {n} on line {lineno}"
            )
    return column.astype(int)


def minmax_symmetric(x):
    """``2 (x - lo) / (hi - lo) - 1`` per column, constant columns 0: inf where it overflows."""
    lo, hi = x.min(axis=0), x.max(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        span = hi - lo
        constant = span == 0
        span[constant] = 1.0
        out = 2.0 * (x - lo) / span - 1.0
    out[:, constant] = 0.0
    return out
