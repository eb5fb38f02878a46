"""Hyperparameter search scored by normalized LSMI minus link violations.

Candidates over the (t, gamma, eta) grid are clustered, their LSMI is
estimated from the resulting labels (with its own cross-validated kappa and
delta), and each candidate is scored as

    lsmi / max_lsmi - n_v / max_nv

where n_v counts links the candidate's labeling violates.  The highest score
wins.

The search runs in two phases: every candidate is clustered, then LSMI (its
cross-validation, fit and value) and n_v are computed once per distinct
labeling and shared by the candidates that produced it.  One ``LsmiConfig``
serves every labeling; its default kappa grid is set once, between the phases.
"""

from __future__ import annotations

import math
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import lsmi as lsmi_mod
from . import solver
from .data import ConstraintSet, Dataset
from .kernel import FeatureScaleError
from .lsmi import LsmiConfig

DEFAULT_T_GRID = tuple(range(1, 11))
DEFAULT_GAMMA_GRID = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)
DEFAULT_ETA_GRID = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)


@dataclass
class Candidate:
    """One (t, gamma, eta) grid point with its clustering and score."""

    t: int
    gamma: float
    eta: float
    labels: np.ndarray | None = None
    lsmi: float = math.nan
    n_v: int = 0
    score: float = math.nan
    # Wall time of this candidate's clustering plus, for the first candidate
    # with its labeling, the LSMI scoring; a repeated labeling reuses its
    # first occurrence's LSMI and n_v, so its seconds cover clustering only.
    seconds: float = 0.0
    error: str | None = None


@dataclass(frozen=True)
class GridSearchResult:
    """The winner, its model, every candidate and the winner's LSMI cross-validation table."""

    best: Candidate
    model: solver.ClusterModel
    candidates: list[Candidate] = field(repr=False)
    best_cv: list[lsmi_mod.CvRecord] = field(repr=False)


def count_violations(labels, cs: ConstraintSet) -> int:
    """Must-links with differing labels plus cannot-links with equal labels."""
    labels = np.asarray(labels)
    if labels.shape[0] != cs.n:
        raise ValueError(f"labels length {labels.shape[0]} does not match cs.n={cs.n}")
    must, cannot = labels[cs.must_links], labels[cs.cannot_links]
    violated = np.count_nonzero(must[:, 0] != must[:, 1])
    violated += np.count_nonzero(cannot[:, 0] == cannot[:, 1])
    return int(violated)


def score_candidates(candidates: list[Candidate]) -> list[Candidate]:
    """Fill in scores; candidates that failed evaluation are skipped.

    The LSMI term is normalized by the largest LSMI when that is positive;
    otherwise (degenerate run) scores fall back to the shifted difference
    ``lsmi - max_lsmi`` and a warning is emitted.  The violation penalty
    vanishes when no candidate violates anything.
    """
    if not candidates:
        raise ValueError("no candidates to score")
    scorable = [cand for cand in candidates if cand.error is None]
    if not scorable:
        raise ValueError("all candidates failed; nothing to score")
    max_lsmi = max(cand.lsmi for cand in scorable)
    max_nv = max(cand.n_v for cand in scorable)
    if max_lsmi <= 0:
        warnings.warn(
            f"largest candidate LSMI is non-positive ({max_lsmi}); using shifted "
            "scores instead of ratio normalization",
            RuntimeWarning,
            stacklevel=2,
        )
    for cand in scorable:
        lsmi_term = cand.lsmi / max_lsmi if max_lsmi > 0 else cand.lsmi - max_lsmi
        penalty = cand.n_v / max_nv if max_nv > 0 else 0.0
        cand.score = lsmi_term - penalty
    return candidates


def _cluster_job(job):
    """(labels, error, seconds) of one candidate's clustering; labels is None on error."""
    ds, cs, t, gamma, eta, c = job
    start = time.perf_counter()
    labels, error = None, None
    try:
        labels, _ = solver.cluster(ds, cs, t, gamma, eta, c)
    except FeatureScaleError:  # the features fail every candidate alike
        raise
    except Exception as exc:  # candidate failure is data, not a crash
        error = f"{type(exc).__name__}: {exc}"
    return labels, error, time.perf_counter() - start


def _score_job(job):
    """((lsmi, n_v, cv_table), error, seconds) of one labeling; the triple is None on error."""
    features, cs, labels, cfg, seed = job
    start = time.perf_counter()
    scores, error = None, None
    try:
        kappa, delta, table = lsmi_mod.cross_validate(features, labels, cfg=cfg, seed=seed)
        model = lsmi_mod.fit_ratio_model(features, labels, kappa, delta, cfg=cfg, seed=seed)
        scores = (
            lsmi_mod.lsmi_value(model, features, labels), count_violations(labels, cs), table
        )
    except Exception as exc:  # candidate failure is data, not a crash
        error = f"{type(exc).__name__}: {exc}"
    return scores, error, time.perf_counter() - start


def _map(fn, items: list, jobs: int) -> list:
    """``fn`` over ``items`` in order, in this process or on a pool of ``jobs`` workers."""
    if jobs == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        return list(pool.map(fn, items))


def grid_search(
    ds: Dataset,
    cs: ConstraintSet,
    c: int,
    t_grid=None,
    gamma_grid=None,
    eta_grid=None,
    lsmi_cfg: LsmiConfig | None = None,
    seed: int = 0,
    jobs: int = 1,
) -> GridSearchResult:
    """Search the full (t, gamma, eta) Cartesian grid.

    Ties on the score are broken by smaller violation count, larger LSMI,
    then smaller t, gamma, eta.  With more than two clusters the eta grid is
    forced to {0}.  The default t grid keeps its values below n.  c, every grid
    value (eta before that forcing) and the LSMI center cap are checked before
    any clustering; a ``None`` kappa grid is set once, if some labeling is left
    to score.  Raises if every candidate fails.
    """
    if t_grid is None:  # the default t values the rule allows at this n (at n <= 1, none is)
        t_grid = [t for t in DEFAULT_T_GRID if t < ds.n] or DEFAULT_T_GRID
    t_grid = tuple(t_grid)
    gamma_grid = tuple(DEFAULT_GAMMA_GRID if gamma_grid is None else gamma_grid)
    eta_grid = tuple(DEFAULT_ETA_GRID if eta_grid is None else eta_grid)
    if not t_grid or not gamma_grid or not eta_grid:
        raise ValueError("grids must be nonempty")
    solver.check_hyperparameters(ds.n, None, etas=eta_grid)
    c, t_grid = solver.check_hyperparameters(ds.n, c, t_grid, gamma_grid)
    if c > 2 and any(e != 0 for e in eta_grid):
        warnings.warn(
            f"eta grid forced to {{0}} because c={c} > 2 (cannot-link squares "
            "only encode must-links for binary problems)",
            RuntimeWarning,
            stacklevel=2,
        )
        eta_grid = (0.0,)
    cfg = lsmi_cfg or LsmiConfig()
    if cfg.center_cap < c:
        raise ValueError(f"center cap {cfg.center_cap} is smaller than the number of classes {c}")
    jobs = max(1, int(jobs))
    candidates = [
        Candidate(t=t, gamma=float(gamma), eta=float(eta))
        for t in t_grid
        for gamma in gamma_grid
        for eta in eta_grid
    ]
    clustered = _map(
        _cluster_job, [(ds, cs, cand.t, cand.gamma, cand.eta, c) for cand in candidates], jobs
    )
    first = {}  # labels.tobytes() -> index of the first candidate with that labeling
    for i, (labels, _, _) in enumerate(clustered):
        if labels is not None:
            first.setdefault(labels.tobytes(), i)
    cfg = cfg.resolve(ds.features) if first else cfg
    score_work = [(ds.features, cs, clustered[i][0], cfg, seed) for i in first.values()]
    scored = dict(zip(first, _map(_score_job, score_work, jobs)))
    for i, (cand, (labels, error, seconds)) in enumerate(zip(candidates, clustered)):
        cand.seconds, cand.error = seconds, error
        if labels is None:
            continue
        scores, cand.error, score_seconds = scored[labels.tobytes()]
        if first[labels.tobytes()] == i:
            cand.seconds += score_seconds
        if scores is not None:
            cand.labels = labels
            cand.lsmi, cand.n_v, _ = scores

    failures = [cand for cand in candidates if cand.error is not None]
    if len(failures) == len(candidates):
        detail = "; ".join(
            f"(t={cand.t}, gamma={cand.gamma}, eta={cand.eta}): {cand.error}"
            for cand in failures
        )
        raise RuntimeError(f"all {len(candidates)} grid candidates failed: {detail}")

    score_candidates(candidates)
    best = min(
        (cand for cand in candidates if cand.error is None),
        key=lambda cand: (-cand.score, cand.n_v, -cand.lsmi, cand.t, cand.gamma, cand.eta),
    )
    _, model = solver.cluster(ds, cs, best.t, best.gamma, best.eta, c)
    best_cv = scored[best.labels.tobytes()][0][2]
    return GridSearchResult(best=best, model=model, candidates=candidates, best_cv=best_cv)
