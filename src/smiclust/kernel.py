"""Sparse local-scaling similarity matrix and link-based kernel editing.

The similarity between samples i and j is ``exp(-||x_i - x_j||^2 / (2 s_i s_j))``
where ``s_i`` is the distance from x_i to its t-th nearest neighbor, and the
entry is kept only when i is among the t nearest neighbors of j or vice versa.
Must-links overwrite entries with 1, cannot-links with 0.

One neighbour/scale rule (:func:`_nearest`) and one entry rule
(:func:`_scaled_entries`) serve both the training kernel built here and the
query kernel that labels new points in :mod:`smiclust.solver`.  The neighbour
rule partially sorts each row and falls back to a stable full sort only on
rows tied at the t-th distance; the entry rule evaluates the exponential only
inside the neighbourhood mask.  The kernel is held dense; the solver converts
it to CSR for its sparse eigensolve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .data import ConstraintSet


@dataclass(frozen=True, eq=False)
class KernelMatrix:
    """Symmetric similarity matrix with entries in [0, 1] and unit diagonal.

    ``sigma`` holds the local scales the entries were built with, when known.
    """

    entries: np.ndarray
    t: int
    modified: bool = False
    sigma: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def _nearest(dist: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
    """The t nearest columns of every row (ties to the lower index) and the t-th distance.

    A partial sort picks each row's t smallest distances and only those t are
    ordered, by (distance, index).  A row with more than t columns within its
    t-th distance has a tie at the cut, where the partial sort may keep any of
    the tied columns; those rows are redone with a stable full sort, which
    keeps the lower indices.
    """
    n = dist.shape[1]
    if not 1 <= t <= n - 1:
        raise ValueError(f"t must be in 1..{n - 1}, got {t}")
    candidates = np.argpartition(dist, t - 1, axis=1)[:, :t]
    candidate_dist = np.take_along_axis(dist, candidates, axis=1)
    order = np.lexsort((candidates, candidate_dist), axis=1)
    neighbors = np.take_along_axis(candidates, order, axis=1)
    kth = np.take_along_axis(candidate_dist, order[:, -1:], axis=1)[:, 0]
    tied = np.flatnonzero(np.count_nonzero(dist <= kth[:, None], axis=1) > t)
    if tied.size:
        neighbors[tied] = np.argsort(dist[tied], axis=1, kind="stable")[:, :t]
    return neighbors, kth


def _scaled_entries(dist, mask, row_sigma, col_sigma) -> np.ndarray:
    """``exp(-d^2 / (2 s_row s_col))`` where ``mask`` holds (1 if ``d == 0``), else 0.

    Only the masked entries are evaluated.  A zero scale at a positive
    distance divides to ``-inf`` and so gives 0.
    """
    rows, cols = np.nonzero(mask)
    d = dist[rows, cols]
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.exp(-(d**2) / (2.0 * (row_sigma[rows] * col_sigma[cols])))
    entries = np.zeros_like(dist)
    entries[rows, cols] = np.where(d == 0, 1.0, values)
    return entries


def _self_distances(features) -> np.ndarray:
    """Pairwise distances with an infinite diagonal, so no point is its own neighbor."""
    features = np.asarray(features, dtype=float)
    dist = cdist(features, features)
    np.fill_diagonal(dist, np.inf)
    return dist


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
    return _nearest(_self_distances(features), t)


def local_scaling_kernel(features, t: int) -> KernelMatrix:
    """Sparse local-scaling similarity matrix.

    Entry (i, j) is ``exp(-d_ij^2 / (2 sigma_i sigma_j))`` when the
    t-nearest-neighbor condition holds and 0 otherwise.  The diagonal is 1.
    Coincident points connected by the neighborhood condition get similarity 1
    regardless of their scales, so zero scales from duplicates never divide.
    """
    dist = _self_distances(features)
    neighbors, sigma = _nearest(dist, t)
    np.fill_diagonal(dist, 0.0)
    n = dist.shape[0]
    mask = np.zeros((n, n), dtype=bool)
    mask[np.repeat(np.arange(n), t), neighbors.ravel()] = True
    mask |= mask.T
    entries = _scaled_entries(dist, mask, sigma, sigma)
    np.fill_diagonal(entries, 1.0)
    return KernelMatrix(entries=entries, t=t, sigma=sigma)


def apply_constraints(kernel: KernelMatrix, cs: ConstraintSet) -> KernelMatrix:
    """Overwrite similarities for linked pairs: must-links to 1, cannot-links to 0."""
    if cs.n != kernel.n:
        raise ValueError(f"constraint set is over n={cs.n} samples, kernel over n={kernel.n}")
    entries = kernel.entries.copy()
    for i, j in cs.must_links:
        entries[i, j] = entries[j, i] = 1.0
    for i, j in cs.cannot_links:
        entries[i, j] = entries[j, i] = 0.0
    return KernelMatrix(entries=entries, t=kernel.t, modified=True, sigma=kernel.sigma)
