"""Sparse local-scaling similarity matrix and link-based kernel editing.

The similarity between samples i and j is ``exp(-||x_i - x_j||^2 / (2 s_i s_j))``
where ``s_i`` is the distance from x_i to its t-th nearest neighbor, and the
entry is kept only when i is among the t nearest neighbors of j or vice versa.
Must-links overwrite entries with 1, cannot-links with 0.

The kernel is built sparse and held as canonical CSR (sorted indices, no
duplicates, no explicit zeros); no n x n array is formed.  One neighbour rule
(:func:`_tree_nearest`) and one entry rule (:func:`_kernel_entries`) serve both
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

scipy places every entry: a boolean COO to CSR conversion (:func:`_pattern`)
marks the pairs a matrix holds, a repeated pair once, and the entry rule fills
them.  K is the maximum of its diagonal and neighbour entries and their
transpose.  :func:`apply_constraints` builds the link matrices M and C, the
only place that does, edits K to ``K - K o (M + C) + M`` and hands M and C on
with it.  Sparse ``maximum``, ``multiply``, ``-`` and ``+`` pass each value on
bit for bit.
"""

from __future__ import annotations

import itertools
import math
import numbers
import sys
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


def finite_number(name: str, value, positive: bool = False) -> float:
    """``value`` as a float, finite and > 0 (``positive``) or >= 0; a string or a bool fails."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    # An int beyond float64 compares below inf but has no float: it is not finite here.
    number = float(value) if real and abs(value) <= sys.float_info.max else math.nan
    if not (number > 0 if positive else number >= 0):
        sign = "positive" if positive else "non-negative"
        raise ValueError(f"{name} must be finite and {sign}, got {value!r}")
    return number


def check_hyperparameters(n: int, c, ts=(), gammas=(), etas=()) -> tuple[int | None, tuple]:
    """The one rule for the clustering hyperparameters; returns c and the t values as ints.

    c in ``1..n`` (``None``: not checked) and t in ``1..n - 1`` are whole numbers, gamma and
    eta finite and >= 0, and eta 0 when c > 2: C^2 encodes must-links only for two clusters.
    """
    c = None if c is None else whole_number("c", c, n)
    ts = tuple(whole_number("t", t, n - 1) for t in ts)
    for name, value in [("gamma", gamma) for gamma in gammas] + [("eta", eta) for eta in etas]:
        finite_number(name, value)
    if c is not None and c > 2 and any(etas):
        raise ValueError(f"eta must be 0 when c > 2 (got eta={max(etas)}, c={c})")
    return c, ts


@dataclass(frozen=True, eq=False)
class KernelMatrix:
    """Symmetric similarity matrix with entries in [0, 1] and unit diagonal, held as CSR.

    A canonical float CSR ``csr`` (sorted, no duplicates, no stored zero) is
    kept, not copied; a dense array or any other matrix is stored as such a
    copy.  ``sigma`` holds the local scales the entries were built with, when
    known; ``must`` and ``cannot`` the link matrices M and C that
    :func:`apply_constraints` edited them with, or None.  It is data, not an
    eigensolver operator: the solver reaches it only through
    :func:`smiclust.solver.objective_matrix`.
    """

    csr: sparse.csr_matrix
    t: int
    sigma: np.ndarray | None = None
    must: sparse.csr_matrix | None = None
    cannot: sparse.csr_matrix | None = None

    def __post_init__(self):
        matrix = self.csr
        if not (isinstance(matrix, sparse.csr_matrix) and matrix.dtype == float
                and matrix.has_canonical_format and matrix.data.all()):
            matrix = sparse.csr_matrix(matrix, dtype=float, copy=True)
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


def _tree_nearest(points: np.ndarray, queries: np.ndarray, t: int, tree: cKDTree | None = None):
    """The t nearest points of every query by (distance, index) and the t-th distance.

    ``t`` is at most the number of points; ``tree``, if given, is ``cKDTree(points)``.
    """
    n, m = points.shape[0], queries.shape[0]
    k = min(t + 1, n)
    tree = cKDTree(points) if tree is None else tree
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


def _pattern(rows: np.ndarray, cols: np.ndarray, shape) -> sparse.csr_matrix:
    """Boolean canonical CSR marking every ``(rows[k], cols[k])``; a repeat marks one entry."""
    return sparse.csr_matrix((np.ones(rows.size, dtype=bool), (rows, cols)), shape=shape)


def _kernel_entries(pattern: sparse.csr_matrix, a: np.ndarray, a_sigma, b: np.ndarray, b_sigma):
    """Canonical CSR of the kernel between ``a`` (rows) and ``b`` at the entries ``pattern`` marks.

    Each entry is ``exp(-d^2 / (2 a_sigma[row] b_sigma[col]))``, or 1 where the
    distance ``d`` is 0; a zero scale at a positive distance divides to
    ``-inf`` and so gives 0, which is left out.  The result takes over, and
    prunes, ``pattern``'s index arrays.
    """
    rows = np.repeat(np.arange(pattern.shape[0]), np.diff(pattern.indptr))
    dist = _pair_distances(a, rows, b, pattern.indices)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.exp(-(dist**2) / (2.0 * (a_sigma[rows] * b_sigma[pattern.indices])))
    values[dist == 0] = 1.0
    kernel = sparse.csr_matrix((values, pattern.indices, pattern.indptr), shape=pattern.shape)
    kernel.eliminate_zeros()
    return kernel


def _link_matrix(pairs: np.ndarray, n: int) -> sparse.csr_matrix:
    """Symmetric float 0/1 CSR marking ``pairs`` and their mirrors; the diagonal is 0."""
    i, j = pairs.T
    return _pattern(np.r_[i, j], np.r_[j, i], (n, n)).astype(float)


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
    # Row i holds i itself and its t neighbours.  An entry and its mirror are the
    # same bits, so the maximum with the transpose adds each missing mirror exactly.
    half = _pattern(np.repeat(np.arange(n), t + 1), np.c_[np.arange(n), neighbors].ravel(), (n, n))
    half = _kernel_entries(half, x, sigma, x, sigma)
    return KernelMatrix(half.maximum(half.T), t=t, sigma=sigma)


def query_kernel(features, sigma, t: int, queries, tree: cKDTree | None = None):
    """The unmodified kernel between ``queries`` (rows) and training ``features``, as CSR.

    A query's scale is the distance to its t-th nearest training point; a
    training point j participates when it is among the query's t nearest or
    the query lies within ``sigma[j]``, that point's own neighborhood radius.
    The points within each radius come from a ball query on a tree over the
    queries, kept only where the exact distance is within the radius.  Only
    the training points whose widened radius reaches the queries' bounding
    box ``[lo, hi]`` are ball-queried: ``max(lo - x_j, x_j - hi) <= r_j`` in
    every coordinate.  No query within the radius lies farther along any
    coordinate, and each gap is rounded once, relative to itself, so no pair
    is lost, however far the points lie from the origin.  Callers that score
    queries in blocks keep each block compact (:func:`smiclust.solver.predict`
    sorts them) so that a training point reaches few blocks.  ``tree``, if
    given, is ``cKDTree(features)`` and is not built again.
    """
    m, n = queries.shape[0], features.shape[0]
    nearest, query_sigma = _tree_nearest(features, queries, t, tree)
    radii = _widened(sigma)
    lo, hi = queries.min(axis=0, initial=np.inf), queries.max(axis=0, initial=-np.inf)
    reach = np.flatnonzero((np.maximum(lo - features, features - hi) <= radii[:, None]).all(axis=1))
    cols, rows = _ball_pairs(cKDTree(queries), features[reach], radii[reach])
    cols = reach[cols]
    inside = _pair_distances(queries, rows, features, cols) <= sigma[cols]
    rows = np.concatenate([np.repeat(np.arange(m), t), rows[inside]])
    cols = np.concatenate([nearest.ravel(), cols[inside]])
    pattern = _pattern(rows, cols, (m, n))
    del rows, cols  # the pairs would otherwise stay alive while the entries are built
    return _kernel_entries(pattern, queries, query_sigma, features, sigma)


def apply_constraints(kernel: KernelMatrix, cs: ConstraintSet) -> KernelMatrix:
    """Overwrite similarities for linked pairs (must-links to 1, cannot-links to 0); keep M, C."""
    if cs.n != kernel.n:
        raise ValueError(f"constraint set is over n={cs.n} samples, kernel over n={kernel.n}")
    n, csr = kernel.n, kernel.csr
    must, cannot = _link_matrix(cs.must_links, n), _link_matrix(cs.cannot_links, n)
    # K - K o (M + C) is exactly 0 on every link and K elsewhere; + M then sets the must-links.
    edited = csr - csr.multiply(must + cannot) + must
    return KernelMatrix(edited, kernel.t, kernel.sigma, must, cannot)
