"""Least-squares mutual information (LSMI).

Estimates squared-loss mutual information between features and labels by
fitting the density ratio r(x, y) = p(x, y) / (p(x) p(y)) with a Gaussian
kernel model per class.  The ridge-regularized least-squares fit has the
closed-form solution ``w = (H + delta I)^-1 h``, and hyperparameters
(Gaussian width kappa, ridge delta) are picked by M-fold cross-validation on
the hold-out squared error.  That error, :func:`_hold_error`, is the one
formula behind both the CV score and :func:`lsmi_value`, which is its
negation over all samples, minus 1/2.

:func:`cross_validate` does each exact computation once: one pass of squared
distances to the centers per fold (training and hold-out rows), one ``exp``
of them per (fold, kappa), and one LAPACK ``posv`` (Cholesky factorization
and solve) per (fold, kappa, delta, class).  Every kappa and delta the stage
takes passes one rule, :func:`check_kappa_delta`; its settings are one
record, :class:`LsmiConfig`, checked when built and passed whole.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dposv
from scipy.spatial.distance import cdist, pdist

from .kernel import _OVERFLOW, FeatureScaleError, finite_number, whole_number

DEFAULT_DELTA_GRID = (1e-3, 1e-2, 1e-1, 1.0, 10.0)


def check_kappa_delta(kappas, deltas, what: str = "") -> tuple[tuple, tuple]:
    """The LSMI stage's one rule: each width kappa finite and > 0, each ridge delta finite and >= 0.

    Returns both as tuples of floats.  ``what`` (" grid values" for a grid) follows the name in
    the refusal.
    """
    return (tuple(finite_number(f"kappa{what}", kappa, positive=True) for kappa in kappas),
            tuple(finite_number(f"delta{what}", delta) for delta in deltas))


@dataclass(frozen=True)
class LsmiConfig:
    """The LSMI stage's settings; bad counts and grids are refused when built, grids kept sorted."""

    center_cap: int = 500
    folds: int = 5
    kappa_grid: tuple[float, ...] | None = None
    delta_grid: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "folds", whole_number("folds", self.folds))
        object.__setattr__(self, "center_cap", whole_number("center_cap", self.center_cap))
        if self.folds < 2:
            raise ValueError(f"folds must be >= 2, got {self.folds}")
        if self.center_cap < 1:
            raise ValueError(f"center cap must be >= 1, got {self.center_cap}")
        kappas, deltas = check_kappa_delta(
            () if self.kappa_grid is None else self.kappa_grid,
            DEFAULT_DELTA_GRID if self.delta_grid is None else self.delta_grid,
            " grid values",
        )
        if not deltas or self.kappa_grid is not None and not kappas:
            raise ValueError("kappa and delta grids must be nonempty")
        if self.kappa_grid is not None:
            object.__setattr__(self, "kappa_grid", tuple(sorted(kappas)))
        object.__setattr__(self, "delta_grid", tuple(sorted(deltas)))

    def resolve(self, x) -> LsmiConfig:
        """This config, a ``None`` kappa grid set to ``default_kappa_grid(x)`` by the same rule."""
        return self if self.kappa_grid else replace(self, kappa_grid=default_kappa_grid(x))


@dataclass(frozen=True, eq=False)
class RatioModel:
    """Per-class density-ratio estimate r(x, y) = sum_l w_l exp(-||x - z_l||^2 / 2k^2).

    ``centers[k]`` and ``weights[k]`` belong to ``classes[k]``.
    """

    classes: tuple[int, ...]
    centers: tuple[np.ndarray, ...]
    weights: tuple[np.ndarray, ...]
    kappa: float
    delta: float

    def __post_init__(self):
        check_kappa_delta([self.kappa], [self.delta])
        for cls, ctr, w in zip(self.classes, self.centers, self.weights):
            if ctr.shape[0] != w.shape[0]:
                raise ValueError(f"class {cls}: {ctr.shape[0]} centers but {w.shape[0]} weights")


def _kernel(sqdist: np.ndarray, kappa: float) -> np.ndarray:
    return np.exp(-sqdist / (2.0 * kappa**2))


def _gauss(x: np.ndarray, centers: np.ndarray, kappa: float) -> np.ndarray:
    return _kernel(cdist(x, centers, "sqeuclidean"), kappa)


def _center_quotas(counts: np.ndarray, cap: int) -> np.ndarray:
    """Largest-remainder allocation of ``cap`` centers, at least one per class."""
    k = counts.shape[0]
    if cap < k:
        raise ValueError(f"center cap {cap} is smaller than the number of classes {k}")
    raw = cap * counts / counts.sum()
    quotas = np.maximum(np.floor(raw).astype(int), 1)
    quotas = np.minimum(quotas, counts)
    while quotas.sum() > cap:
        excess = np.where(quotas > 1, quotas - raw, -np.inf)
        quotas[int(np.argmax(excess))] -= 1
    while quotas.sum() < cap:
        deficit = np.where(quotas < counts, raw - quotas, -np.inf)
        quotas[int(np.argmax(deficit))] += 1
    return quotas


def _stratified_centers(x, y, center_cap, rng) -> dict[int, np.ndarray]:
    classes = np.unique(y)
    counts = np.array([np.sum(y == cls) for cls in classes])
    cap = min(x.shape[0], center_cap)
    quotas = _center_quotas(counts, cap)
    centers = {}
    for cls, quota in zip(classes, quotas):
        idx = np.flatnonzero(y == cls)
        chosen = idx[rng.choice(idx.shape[0], size=int(quota), replace=False)]
        centers[int(cls)] = x[np.sort(chosen)]
    return centers


def _normal_system(lmat, own, n):
    """(H, h) of one class from ``lmat``, the kernel of all n samples against its centers.

    H is built from kernel values of *all* samples, h only from the class's
    own samples (the boolean mask ``own``).  Both are checked finite here, so
    ``H + delta I`` is too for any finite delta.
    """
    n_y = int(np.sum(own))
    h_mat = (n_y / n**2) * (lmat.T @ lmat)
    h_vec = lmat[own].sum(axis=0) / n
    if not (np.isfinite(h_mat).all() and np.isfinite(h_vec).all()):
        raise ValueError("array must not contain infs or NaNs")
    return h_mat, h_vec


def _class_systems(x, y, centers, kappa):
    """The least-squares normal systems (H, h) for every class."""
    n = x.shape[0]
    return {cls: _normal_system(_gauss(x, ctr, kappa), y == cls, n) for cls, ctr in centers.items()}


def _solve_ridge(h_mat, h_vec, delta):
    """``(H + delta I)^-1 h`` by Cholesky; a singular delta=0 system gets a pseudo-solution.

    One LAPACK ``posv`` call factors and solves; its wrapper derives every other
    argument from the arrays, so only a failed factorization (info > 0) comes
    back.  Delta is added to the diagonal of a copy of H; H's off-diagonal
    entries are non-negative, so this equals ``H + delta I`` bit for bit.
    """
    system = h_mat.copy()
    system.flat[:: system.shape[0] + 1] += delta
    _, weights, info = dposv(system, h_vec, lower=0)
    if info == 0:
        return weights
    if delta > 0:
        raise LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    warnings.warn(
        "singular least-squares system with delta=0; falling back to a "
        "pseudo-solution (consider delta > 0)",
        RuntimeWarning,
        stacklevel=3,
    )
    return np.linalg.lstsq(system, h_vec, rcond=None)[0]


def fit_ratio_model(
    x, y, kappa: float, delta: float, cfg: LsmiConfig | None = None, seed: int = 0
) -> RatioModel:
    """Fit the per-class density-ratio model analytically.

    Kernel centers are a per-class stratified sample of at most
    ``cfg.center_cap`` points (without replacement, proportional to class size).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=int)
    check_kappa_delta([kappa], [delta])
    cap = (cfg or LsmiConfig()).center_cap
    centers = _stratified_centers(x, y, cap, np.random.default_rng(seed))
    classes = tuple(sorted(centers))
    systems = _class_systems(x, y, centers, kappa)
    weights = tuple(_solve_ridge(*systems[cls], delta) for cls in classes)
    return RatioModel(
        classes=classes,
        centers=tuple(centers[cls] for cls in classes),
        weights=weights,
        kappa=float(kappa),
        delta=float(delta),
    )


def ratio_matrix(model: RatioModel, x) -> np.ndarray:
    """Matrix of r(x_i, class_k) over all samples and fitted classes."""
    x = np.asarray(x, dtype=float)
    return np.column_stack(
        [_gauss(x, ctr, model.kappa) @ w for ctr, w in zip(model.centers, model.weights)]
    )


def _class_columns(y, classes) -> tuple[np.ndarray, list[int]]:
    """Label counts per class of ``classes`` and each label's column in ``classes``."""
    y = np.asarray(y, dtype=int)
    index = {cls: k for k, cls in enumerate(classes)}
    counts = np.zeros(len(classes))
    for cls, count in zip(*np.unique(y, return_counts=True)):
        if cls not in index:
            raise ValueError(f"labels contain unfitted class {cls}")
        counts[index[cls]] = count
    return counts, [index[v] for v in y]


def lsmi_value(model: RatioModel, x, y) -> float:
    """The LSMI estimate of squared-loss mutual information between x and y.

    ``-(1/2n^2) sum_{i,j} r(x_i, y_j)^2 + (1/n) sum_i r(x_i, y_i) - 1/2``;
    note the first sum pairs every sample with every label occurrence.  This
    is :func:`_hold_error` over all n samples, negated, minus 1/2:
    ``fl(b - a) = -fl(a - b)``, so the negation is exact.
    """
    return -_hold_error(ratio_matrix(model, x), *_class_columns(y, model.classes)) - 0.5


def _hold_error(ratios, counts, columns) -> float:
    """Hold-out squared-error criterion of the m samples behind ``ratios``.

    ``(1/2m^2) sum_{i,j} r(x_i, y_j)^2 - (1/m) sum_i r(x_i, y_i)``, where the
    double sum covers all m^2 combinations, from ``ratios[i, k] = r(x_i,
    classes[k])`` and the counts and columns of :func:`_class_columns`.
    """
    ratios = np.asarray(ratios, dtype=float)
    cross = float((ratios**2 @ counts).sum())
    matched = float(ratios[np.arange(ratios.shape[0]), columns].sum())
    m = len(columns)
    return cross / (2.0 * m**2) - matched / m


@dataclass(frozen=True)
class CvRecord:
    kappa: float
    delta: float
    mean_cv: float
    fold_cv: tuple[float, ...]


def default_kappa_grid(x, size: int = 10) -> np.ndarray:
    """Log-spaced widths spanning 0.1x to 10x the median pairwise distance."""
    x = np.asarray(x, dtype=float)
    med = float(np.median(pdist(x))) if x.shape[0] > 1 else 0.0
    if not math.isfinite(med * 10.0):  # the widest width overflows float64
        raise FeatureScaleError(_OVERFLOW)
    if med == 0.0:
        med = 1.0
    return med * np.logspace(-1.0, 1.0, size)


def _fold_assignment(y: np.ndarray, folds: int, rng) -> np.ndarray:
    """Per-class shuffle, then near-equal contiguous blocks (stratified folds)."""
    fold_of = np.empty(y.shape[0], dtype=int)
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        idx = idx[rng.permutation(idx.shape[0])]
        for m, block in enumerate(np.array_split(idx, folds)):
            fold_of[block] = m
    return fold_of


def cross_validate(
    x, y, cfg: LsmiConfig | None = None, seed: int = 0
) -> tuple[float, float, list[CvRecord]]:
    """Grid search (kappa, delta) over ``cfg``'s grids by ``cfg.folds``-fold cross-validation.

    Returns the first pair of the kappa-major CV table with the least mean
    hold-out error (so ties go to the smaller kappa, then the smaller delta)
    and the table.  Raises before any solve when a fold holds out no point, or
    when some class of a hold-out fold never occurs in its training part.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=int)
    cfg = (cfg or LsmiConfig()).resolve(x)
    rng = np.random.default_rng(seed)
    fold_of = _fold_assignment(y, cfg.folds, rng)
    splits = []
    for m in range(cfg.folds):
        hold = fold_of == m
        train = ~hold
        if not hold.any():
            raise ValueError(f"fold {m} is empty: every class has fewer than {cfg.folds} points")
        missing = set(np.unique(y[hold])) - set(np.unique(y[train]))
        if missing:
            raise ValueError(
                f"class(es) {sorted(missing)} of fold {m} are absent from every training fold"
            )
        centers = _stratified_centers(x[train], y[train], cfg.center_cap, rng)
        splits.append((train, hold, centers))

    # fold_errors[m][a][b] is fold m's hold-out error at (cfg.kappa_grid[a], cfg.delta_grid[b]).
    fold_errors = []
    for train, hold, centers in splits:
        classes = tuple(sorted(centers))
        n = int(np.sum(train))
        own = [y[train] == cls for cls in classes]
        train_sq = [cdist(x[train], centers[cls], "sqeuclidean") for cls in classes]
        hold_sq = [cdist(x[hold], centers[cls], "sqeuclidean") for cls in classes]
        counts, columns = _class_columns(y[hold], classes)
        errors = []
        for kappa in cfg.kappa_grid:
            systems = [_normal_system(_kernel(d, kappa), mask, n) for d, mask in zip(train_sq, own)]
            hold_kernels = [_kernel(d, kappa) for d in hold_sq]
            row = []
            for delta in cfg.delta_grid:
                weights = [_solve_ridge(*system, delta) for system in systems]
                ratios = np.column_stack([lmat @ w for lmat, w in zip(hold_kernels, weights)])
                row.append(_hold_error(ratios, counts, columns))
            errors.append(row)
        fold_errors.append(errors)

    table = []
    for a, kappa in enumerate(cfg.kappa_grid):
        for b, delta in enumerate(cfg.delta_grid):
            fold_cv = tuple(errors[a][b] for errors in fold_errors)
            table.append(CvRecord(kappa, delta, float(np.mean(fold_cv)), fold_cv))
    best = min(table, key=lambda record: record.mean_cv)
    return best.kappa, best.delta, table
