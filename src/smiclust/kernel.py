"""Sparse local-scaling similarity matrix and link-based kernel editing.

The similarity between samples i and j is ``exp(-||x_i - x_j||^2 / (2 s_i s_j))``
where ``s_i`` is the distance from x_i to its t-th nearest neighbor, and the
entry is kept only when i is among the t nearest neighbors of j or vice versa.
Must-links overwrite entries with 1, cannot-links with 0.

The kernel is built sparse and held as canonical CSR (sorted indices, no
duplicates, no explicit zeros); no n x n array is formed.  One neighbour rule
(:func:`_tree_nearest`) and one entry rule (:func:`_kernel_csr`) serve both
the training kernel built here and the query kernel that labels new points in
:mod:`smiclust.solver`: a training point's t neighbours are its t + 1 nearest
points with itself dropped.  The neighbour rule queries a ``cKDTree`` for one
candidate more than it needs, recomputes the candidates' distances exactly
(bit for bit as ``cdist`` gives them) and orders them by (distance, index).
A row whose next candidate lies within a relative 1e-9 of its t-th distance
(or within 1e-150 of it, where squares lose precision) may hold a tie at the
cut that the tree cannot settle; that row takes every point of a ball query
on the same tree at its widened t-th distance and keeps the first t by exact
distance, then index.  Tied rows with equal coordinates and radius share one
ball, so d copies of a point cost one d-point ball, not d of them.  The entry
rule evaluates the exponential only on kept pairs.

Entries are addressed by int64 keys ``row * columns + column``, whose sorted
order is CSR order.  Key sets (neighbour pairs, the diagonal, the query radius
pairs, links) are merged by :func:`_union_keys`, one sort that drops adjacent
repeats, and each value is written at its key's ``searchsorted`` position.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.spatial import cKDTree

from .data import ConstraintSet

# Tied rows are settled on at most this many (row, point) ball pairs at a time, or one row.
_TIE_BLOCK = 1 << 20
_OVERFLOW = "squared distances between points overflow float64; rescale the features"
_UNDERFLOW = "squared distances between distinct points underflow; rescale the features"


class FeatureScaleError(ValueError):
    """Squared distances between the features overflow or underflow float64."""


def whole_number(name: str, value, top: int | None = None) -> int:
    """``value`` as an int in ``1..top`` (if given); ``2.0`` reads as 2, ``2.7`` or a bool fails."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Real) and value % 1 == 0):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    if top is not None and not 1 <= value <= top:
        raise ValueError(f"{name} must be in 1..{top}, got {int(value)}")
    return int(value)


def check_hyperparameters(n: int, c, ts=(), gammas=(), etas=()) -> tuple[int | None, tuple]:
    """The one rule for the clustering hyperparameters; returns c and the t values as ints.

    c in ``1..n`` (``None``: not checked) and t in ``1..n - 1`` are whole numbers, gamma and
    eta finite and >= 0, and eta 0 when c > 2: C^2 encodes must-links only for two clusters.
    """
    c = None if c is None else whole_number("c", c, n)
    ts = tuple(whole_number("t", t, n - 1) for t in ts)
    for name, value in [("gamma", gamma) for gamma in gammas] + [("eta", eta) for eta in etas]:
        if not (isinstance(value, numbers.Real) and math.isfinite(value) and value >= 0):
            raise ValueError(f"{name} must be finite and non-negative, got {value!r}")
    if c is not None and c > 2 and any(etas):
        raise ValueError(f"eta must be 0 when c > 2 (got eta={max(etas)}, c={c})")
    return c, ts


@dataclass(frozen=True, eq=False)
class KernelMatrix:
    """Symmetric similarity matrix with entries in [0, 1] and unit diagonal, held as CSR.

    ``csr`` may be passed as a dense array or any sparse matrix; it is stored
    as a canonical CSR copy, the form ``sparse.csr_matrix`` gives a dense
    array.  ``sigma`` holds the local scales the entries were built with,
    when known.  It is data, not an eigensolver operator: the solver reaches
    it only through :func:`smiclust.solver.objective_matrix`.
    """

    csr: sparse.csr_matrix
    t: int
    sigma: np.ndarray | None = None

    def __post_init__(self):
        matrix = sparse.csr_matrix(self.csr, dtype=float, copy=True)
        matrix.sum_duplicates()
        matrix.eliminate_zeros()
        object.__setattr__(self, "csr", matrix)

    @property
    def n(self) -> int:
        return self.csr.shape[0]

    @property
    def entries(self) -> np.ndarray:
        """Dense entries; O(n^2) memory, for tests and inspection."""
        return self.csr.toarray()


def _widened(dist):
    """``dist`` plus the slack within which tree and exact distances may disagree."""
    return dist * (1.0 + 1e-9) + 1e-150


def _pair_distances(a: np.ndarray, rows: np.ndarray, b: np.ndarray, cols: np.ndarray):
    """``||a[rows] - b[cols]||`` pairwise, bit for bit as ``cdist`` computes it.

    The squares are summed one dimension at a time, in order, then rooted.
    """
    total = np.zeros(rows.shape[0])
    for k in range(a.shape[1]):
        total += (a[rows, k] - b[cols, k]) ** 2
    return np.sqrt(total)


def _balls(tree: cKDTree, centers: np.ndarray, radii: np.ndarray, **kwargs):
    """``tree.query_ball_point``, whose refusal of overflowing box distances becomes ours."""
    try:
        return tree.query_ball_point(centers, radii, **kwargs)
    except ValueError as exc:
        raise FeatureScaleError(_OVERFLOW) if "overflow" in str(exc) else exc


def _ball_pairs(tree: cKDTree, centers: np.ndarray, radii: np.ndarray):
    """(row, point) arrays of every tree point within ``radii[row]`` of ``centers[row]``.

    Pairs come by row, and within a row by ascending point index.
    """
    balls = _balls(tree, centers, radii, return_sorted=True)
    counts = np.fromiter(map(len, balls), dtype=np.intp, count=len(balls))
    points = np.fromiter(itertools.chain.from_iterable(balls), dtype=np.intp, count=counts.sum())
    return np.repeat(np.arange(len(balls)), counts), points


def _tree_nearest(points: np.ndarray, queries: np.ndarray, t: int):
    """The t nearest points of every query by (distance, index) and the t-th distance.

    ``t`` is at most the number of points.
    """
    n, m = points.shape[0], queries.shape[0]
    k = min(t + 1, n)
    tree = cKDTree(points)
    cand = tree.query(queries, k=k)[1].reshape(m, k)
    if (cand == n).any():  # the tree reports no point where a squared distance overflows
        raise FeatureScaleError(_OVERFLOW)
    dist = _pair_distances(queries, np.repeat(np.arange(m), k), points, cand.ravel())
    dist = dist.reshape(m, k)
    rows, cols = np.nonzero(dist == 0)  # distinct points at 0 have underflowing squares
    if (queries[rows] != points[cand[rows, cols]]).any():
        raise FeatureScaleError(_UNDERFLOW)
    order = np.lexsort((cand, dist), axis=1)
    cand = np.take_along_axis(cand, order, axis=1)
    dist = np.take_along_axis(dist, order, axis=1)
    neighbors, kth = cand[:, :t].copy(), dist[:, t - 1].copy()
    tied = np.flatnonzero(dist[:, t] <= _widened(kth)) if k > t else np.arange(0)
    if not tied.size:
        return neighbors, kth
    # The ball at the widened t-th distance holds the true t nearest and every tie.
    # Rows with equal coordinates and radius share one ball: sort them together
    # and let the first of each run stand for it.
    radii = _widened(kth[tied])
    key = np.column_stack([queries[tied], radii])
    by_key = np.lexsort(key.T)
    tied, key = tied[by_key], key[by_key]
    head = np.r_[True, (key[1:] != key[:-1]).any(axis=1)]
    group = np.cumsum(head) - 1
    heads, radii = tied[head], radii[by_key][head]
    offsets = np.cumsum(np.r_[0, _balls(tree, queries[heads], radii, return_length=True)])
    first_cols = np.empty((heads.size, t), dtype=neighbors.dtype)
    first_dist = np.empty((heads.size, t))
    start = 0
    while start < heads.size:
        stop = max(start + 1, np.searchsorted(offsets, offsets[start] + _TIE_BLOCK, "right") - 1)
        block = heads[start:stop]
        rows, cols = _ball_pairs(tree, queries[block], radii[start:stop])
        dist = _pair_distances(queries, block[rows], points, cols)
        # Balls list points by index and the sort is stable: (row, distance, index) order.
        order = np.lexsort((dist, rows))
        first = order[(offsets[start:stop] - offsets[start])[:, None] + np.arange(t)]
        first_cols[start:stop], first_dist[start:stop] = cols[first], dist[first]
        start = stop
    neighbors[tied], kth[tied] = first_cols[group], first_dist[group, -1]
    return neighbors, kth


def _kernel_csr(keys: np.ndarray, a: np.ndarray, a_sigma, b: np.ndarray, b_sigma):
    """Canonical CSR of the kernel between ``a`` (rows) and ``b`` at keys ``row * len(b) + col``.

    Each entry is ``exp(-d^2 / (2 a_sigma[row] b_sigma[col]))``, or 1 where the
    distance ``d`` is 0; a zero scale at a positive distance divides to
    ``-inf`` and so gives 0, which is left out.
    """
    rows, cols = np.divmod(keys, b.shape[0])
    dist = _pair_distances(a, rows, b, cols)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.exp(-(dist**2) / (2.0 * (a_sigma[rows] * b_sigma[cols])))
    values[dist == 0] = 1.0
    return _pairs_csr(keys, values, (a.shape[0], b.shape[0]))


def _pairs_csr(keys: np.ndarray, values: np.ndarray, shape) -> sparse.csr_matrix:
    """Canonical CSR holding ``values`` at the sorted unique ``row * shape[1] + col`` keys.

    Zero values are left out.
    """
    keep = values != 0
    rows, cols = np.divmod(keys[keep], shape[1])
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return sparse.csr_matrix((values[keep], cols, indptr), shape=shape)


def _union_keys(*parts: np.ndarray) -> np.ndarray:
    """Sorted unique keys of all ``parts``, as ``np.union1d`` gives them.

    One sort and a drop of adjacent repeats; ``np.union1d``, a hash table in
    numpy 2, is several times slower on these int64 keys.
    """
    keys = np.sort(np.concatenate(parts))
    new = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    return keys[new]


def _pair_keys(pairs: np.ndarray, n: int) -> np.ndarray:
    """Keys ``i * n + j`` of both orientations of every row ``(i, j)`` of an int64 array."""
    i, j = pairs.T
    return np.concatenate([i * n + j, j * n + i])


def _link_matrix(pairs: np.ndarray, n: int, diagonal: float) -> sparse.csr_matrix:
    """Symmetric sparse 0/1 matrix marking ``pairs``, plus ``diagonal`` on the diagonal."""
    diag = np.arange(n, dtype=np.int64) * (n + 1)
    keys = _union_keys(_pair_keys(pairs, n), diag)
    values = np.ones(keys.size)
    values[np.searchsorted(keys, diag)] = diagonal
    return _pairs_csr(keys, values, (n, n))


def nearest_neighbors(features, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the t nearest neighbors of every point plus local scales.

    Neighbors are ordered by Euclidean distance, excluding the point itself;
    ties are broken by lower sample index.  The scale ``sigma[i]`` is the
    distance from point i to its t-th nearest neighbor (may be 0 when
    duplicates are present; the kernel handles that case).

    Returns
    -------
    neighbors : int ndarray of shape (n, t)
    sigma : float ndarray of shape (n,)
    """
    x = np.asarray(features, dtype=float)
    n = x.shape[0]
    _, (t,) = check_hyperparameters(n, None, [t])
    # Each point's t + 1 nearest hold the point itself unless t + 1 copies of
    # it come first by index; drop the point, or else the (t + 1)-th, whose
    # distance is then 0 like the t-th.
    cols, sigma = _tree_nearest(x, x, t + 1)
    keep = cols != np.arange(n)[:, None]
    keep[keep.all(axis=1), t] = False
    return cols[keep].reshape(n, t), sigma


def local_scaling_kernel(features, t: int) -> KernelMatrix:
    """Sparse local-scaling similarity matrix.

    Entry (i, j) is ``exp(-d_ij^2 / (2 sigma_i sigma_j))`` when the
    t-nearest-neighbor condition holds and 0 otherwise.  The diagonal is 1.
    Coincident points connected by the neighborhood condition get similarity 1
    regardless of their scales, so zero scales from duplicates never divide.
    """
    x = np.asarray(features, dtype=float)
    neighbors, sigma = nearest_neighbors(x, t)
    n = x.shape[0]
    pairs = np.column_stack([np.repeat(np.arange(n), t), neighbors.ravel()])
    keys = _union_keys(_pair_keys(pairs, n), np.arange(n) * (n + 1))
    return KernelMatrix(_kernel_csr(keys, x, sigma, x, sigma), t=t, sigma=sigma)


def query_kernel(features, sigma, t: int, queries) -> sparse.csr_matrix:
    """The unmodified kernel between ``queries`` (rows) and training ``features``, as CSR.

    A query's scale is the distance to its t-th nearest training point; a
    training point j participates when it is among the query's t nearest or
    the query lies within ``sigma[j]``, that point's own neighborhood radius.
    The points within each radius come from a ball query on a tree over the
    queries, kept only where the exact distance is within the radius.
    """
    m, n = queries.shape[0], features.shape[0]
    nearest, query_sigma = _tree_nearest(features, queries, t)
    cols, rows = _ball_pairs(cKDTree(queries), features, _widened(sigma))
    inside = _pair_distances(queries, rows, features, cols) <= sigma[cols]
    near = np.repeat(np.arange(m, dtype=np.int64), t) * n + nearest.ravel()
    keys = _union_keys(near, rows[inside].astype(np.int64) * n + cols[inside])
    del rows, cols  # the ball pairs would otherwise stay alive while the entries are built
    return _kernel_csr(keys, queries, query_sigma, features, sigma)


def apply_constraints(kernel: KernelMatrix, cs: ConstraintSet) -> KernelMatrix:
    """Overwrite similarities for linked pairs: must-links to 1, cannot-links to 0."""
    if cs.n != kernel.n:
        raise ValueError(f"constraint set is over n={cs.n} samples, kernel over n={kernel.n}")
    n, csr = kernel.n, kernel.csr
    present = np.repeat(np.arange(n, dtype=np.int64), np.diff(csr.indptr)) * n + csr.indices
    must, cannot = _pair_keys(cs.must_links, n), _pair_keys(cs.cannot_links, n)
    # Every key sits in the union, so each write finds its place by a search;
    # the cannot-links' zeros are then left out of the CSR.
    keys = _union_keys(present, must, cannot)
    values = np.empty(keys.shape[0])
    values[np.searchsorted(keys, present)] = csr.data
    values[np.searchsorted(keys, must)] = 1.0
    values[np.searchsorted(keys, cannot)] = 0.0
    edited = _pairs_csr(keys, values, (n, n))
    return KernelMatrix(edited, kernel.t, sigma=kernel.sigma)
