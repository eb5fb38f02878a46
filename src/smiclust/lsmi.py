"""Least-squares mutual information (LSMI).

Estimates squared-loss mutual information between features and labels by
fitting the density ratio r(x, y) = p(x, y) / (p(x) p(y)) with a Gaussian
kernel model per class.  The ridge-regularized least-squares fit has the
closed-form solution ``w = (H + delta I)^-1 h``, and hyperparameters
(Gaussian width kappa, ridge delta) are picked by M-fold cross-validation on
the hold-out squared error.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.spatial.distance import cdist, pdist

DEFAULT_DELTA_GRID = (1e-3, 1e-2, 1e-1, 1.0, 10.0)
DEFAULT_CENTER_CAP = 500


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
        if self.kappa <= 0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        if self.delta < 0:
            raise ValueError(f"delta must be non-negative, got {self.delta}")
        for cls, ctr, w in zip(self.classes, self.centers, self.weights):
            if ctr.shape[0] != w.shape[0]:
                raise ValueError(f"class {cls}: {ctr.shape[0]} centers but {w.shape[0]} weights")

    def class_index(self, y: int) -> int:
        try:
            return self.classes.index(int(y))
        except ValueError:
            raise ValueError(f"class {y} was not fitted (classes: {self.classes})") from None


def _gauss(x: np.ndarray, centers: np.ndarray, kappa: float) -> np.ndarray:
    return np.exp(-cdist(x, centers, "sqeuclidean") / (2.0 * kappa**2))


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


def _class_systems(x, y, centers, kappa):
    """The least-squares normal systems (H, h, L) for every class.

    H is built from kernel values of *all* samples against the class centers,
    h only from the class's own samples.
    """
    n = x.shape[0]
    systems = {}
    for cls, ctr in centers.items():
        lmat = _gauss(x, ctr, kappa)
        n_y = int(np.sum(y == cls))
        h_mat = (n_y / n**2) * (lmat.T @ lmat)
        h_vec = lmat[y == cls].sum(axis=0) / n
        systems[cls] = (h_mat, h_vec)
    return systems


def _solve_ridge(h_mat, h_vec, delta):
    system = h_mat + delta * np.eye(h_mat.shape[0])
    try:
        return cho_solve(cho_factor(system), h_vec)
    except LinAlgError:
        if delta > 0:
            raise
        warnings.warn(
            "singular least-squares system with delta=0; falling back to a "
            "pseudo-solution (consider delta > 0)",
            RuntimeWarning,
            stacklevel=3,
        )
        return np.linalg.lstsq(system, h_vec, rcond=None)[0]


def fit_ratio_model(
    x,
    y,
    kappa: float,
    delta: float,
    center_cap: int = DEFAULT_CENTER_CAP,
    seed: int = 0,
    centers: dict[int, np.ndarray] | None = None,
) -> RatioModel:
    """Fit the per-class density-ratio model analytically.

    Kernel centers default to a per-class stratified sample of at most
    ``center_cap`` points (without replacement, proportional to class size);
    pass ``centers`` to pin them explicitly.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=int)
    if kappa <= 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    if delta < 0:
        raise ValueError(f"delta must be non-negative, got {delta}")
    if centers is None:
        centers = _stratified_centers(x, y, center_cap, np.random.default_rng(seed))
    else:
        missing = set(np.unique(y)) - set(centers)
        if missing:
            raise ValueError(f"no centers supplied for class(es) {sorted(missing)}")
    classes = tuple(sorted(centers))
    systems = _class_systems(x, y, centers, kappa)
    weights = tuple(_solve_ridge(*systems[cls], delta) for cls in classes)
    return RatioModel(
        classes=classes,
        centers=tuple(np.asarray(centers[cls], dtype=float) for cls in classes),
        weights=weights,
        kappa=float(kappa),
        delta=float(delta),
    )


def evaluate_ratio(model: RatioModel, x, y: int):
    """Estimated density ratio r(x, y) for one class, at one point or a batch."""
    k = model.class_index(y)
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    values = _gauss(x, model.centers[k], model.kappa) @ model.weights[k]
    return float(values[0]) if single else values


def ratio_matrix(model: RatioModel, x) -> np.ndarray:
    """Matrix of r(x_i, class_k) over all samples and fitted classes."""
    x = np.asarray(x, dtype=float)
    return np.column_stack(
        [_gauss(x, ctr, model.kappa) @ w for ctr, w in zip(model.centers, model.weights)]
    )


def _ratio_sums(ratios, y, classes) -> tuple[float, float]:
    """The cross sum ``sum_{i,j} r(x_i, y_j)^2`` and the matched sum ``sum_i r(x_i, y_i)``.

    ``ratios[i, k]`` is ``r(x_i, classes[k])``.
    """
    ratios = np.asarray(ratios, dtype=float)
    y = np.asarray(y, dtype=int)
    index = {cls: k for k, cls in enumerate(classes)}
    counts = np.zeros(ratios.shape[1])
    for cls, count in zip(*np.unique(y, return_counts=True)):
        if cls not in index:
            raise ValueError(f"labels contain unfitted class {cls}")
        counts[index[cls]] = count
    cross = float((ratios**2 @ counts).sum())
    matched = float(ratios[np.arange(ratios.shape[0]), [index[v] for v in y]].sum())
    return cross, matched


def lsmi_from_ratios(ratios, y, classes) -> float:
    """LSMI from precomputed ratio values ``ratios[i, k] = r(x_i, classes[k])``.

    ``-(1/2n^2) sum_{i,j} r(x_i, y_j)^2 + (1/n) sum_i r(x_i, y_i) - 1/2``;
    note the first sum pairs every sample with every label occurrence.
    """
    cross, matched = _ratio_sums(ratios, y, classes)
    n = len(y)
    return -cross / (2.0 * n**2) + matched / n - 0.5


def lsmi_value(model: RatioModel, x, y) -> float:
    """The LSMI estimate of squared-loss mutual information between x and y."""
    return lsmi_from_ratios(ratio_matrix(model, x), y, model.classes)


def cv_error(model: RatioModel, x_hold, y_hold) -> float:
    """Hold-out squared-error criterion for one fold.

    ``(1/2m^2) sum_{i,j} r(x_i, y_j)^2 - (1/m) sum_i r(x_i, y_i)`` over the
    ``m`` hold-out samples; the double sum covers all m^2 combinations.
    """
    cross, matched = _ratio_sums(ratio_matrix(model, x_hold), y_hold, model.classes)
    m = len(y_hold)
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
    x,
    y,
    kappa_grid=None,
    delta_grid=None,
    folds: int = 5,
    center_cap: int = DEFAULT_CENTER_CAP,
    seed: int = 0,
) -> tuple[float, float, list[CvRecord]]:
    """Grid search (kappa, delta) by M-fold cross-validation.

    Returns the pair minimizing the mean hold-out error (ties to the smaller
    kappa, then the smaller delta) together with the full CV table.  Raises
    when some class of a hold-out fold never occurs in its training part.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=int)
    if folds < 2:
        raise ValueError(f"folds must be >= 2, got {folds}")
    kappa_grid = sorted(float(k) for k in (default_kappa_grid(x) if kappa_grid is None else kappa_grid))
    delta_grid = sorted(float(d) for d in (DEFAULT_DELTA_GRID if delta_grid is None else delta_grid))
    if not kappa_grid or not delta_grid:
        raise ValueError("kappa and delta grids must be nonempty")
    rng = np.random.default_rng(seed)
    fold_of = _fold_assignment(y, folds, rng)
    splits = []
    for m in range(folds):
        hold = fold_of == m
        train = ~hold
        missing = set(np.unique(y[hold])) - set(np.unique(y[train]))
        if missing:
            raise ValueError(
                f"class(es) {sorted(missing)} of fold {m} are absent from every training fold"
            )
        centers = _stratified_centers(x[train], y[train], center_cap, rng)
        splits.append((train, hold, centers))

    table = []
    best = None
    for kappa in kappa_grid:
        fold_systems = [
            (_class_systems(x[train], y[train], centers, kappa), hold, centers)
            for train, hold, centers in splits
        ]
        for delta in delta_grid:
            fold_cv = []
            for systems, hold, centers in fold_systems:
                classes = tuple(sorted(centers))
                model = RatioModel(
                    classes=classes,
                    centers=tuple(centers[cls] for cls in classes),
                    weights=tuple(_solve_ridge(*systems[cls], delta) for cls in classes),
                    kappa=kappa,
                    delta=delta,
                )
                fold_cv.append(cv_error(model, x[hold], y[hold]))
            mean_cv = float(np.mean(fold_cv))
            table.append(CvRecord(kappa, delta, mean_cv, tuple(fold_cv)))
            if best is None or mean_cv < best[2]:
                best = (kappa, delta, mean_cv)
    return best[0], best[1], table
