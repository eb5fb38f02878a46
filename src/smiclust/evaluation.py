"""Adjusted Rand Index and the seeded benchmark harness.

The harness reruns clustering across a schedule of link counts, resampling
the constraints for every run from the ground-truth labels, and aggregates
ARI against the truth as mean and standard deviation per link count.
"""

from __future__ import annotations

from dataclasses import asdict, astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import solver
from .data import Dataset, load_dataset, make_blobs, normalize, sample_constraints
from .data import checked_json, save_json, save_table
from .kernel import finite_number, whole_number
from .model_select import LsmiConfig, grid_search


def adjusted_rand_index(labels_a, labels_b) -> float:
    """Chance-corrected agreement between two labelings, in [-1, 1].

    Computed from the pair-counting contingency table.  The maximum index
    equals its expectation only when both labelings are one cluster or both
    are all singletons; the partitions are then identical and the value is 1.
    """
    a = np.asarray(labels_a).ravel()
    b = np.asarray(labels_b).ravel()
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"label vectors differ in length: {a.shape[0]} vs {b.shape[0]}")
    if a.shape[0] < 2:
        raise ValueError("need at least two samples")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    contingency = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(contingency, (ai, bi), 1)

    def comb2(x):
        return x * (x - 1) // 2

    n = a.shape[0]
    index = int(comb2(contingency).sum())
    pairs_a = int(comb2(contingency.sum(axis=1)).sum())
    pairs_b = int(comb2(contingency.sum(axis=0)).sum())
    total = comb2(n)
    expected = pairs_a * pairs_b / total
    max_index = (pairs_a + pairs_b) / 2.0
    if max_index == expected:
        return 1.0
    return float((index - expected) / (max_index - expected))


@dataclass(frozen=True)
class BenchmarkConfig:
    """Inputs of one benchmark sweep.

    ``link_counts`` entries that are fractions (floats below 1) are resolved
    against the n(n-1)/2 possible pairs.  When ``theta = (t, gamma, eta)`` is
    given every run uses those hyperparameters; otherwise each run performs a
    grid search over the supplied (or default) grids.  Bad counts or theta are
    refused when built.
    """

    dataset: Dataset
    link_counts: tuple[float, ...]
    runs: int
    seed: int = 0
    theta: tuple[int, float, float] | None = None
    t_grid: tuple[int, ...] | None = None
    gamma_grid: tuple[float, ...] | None = None
    eta_grid: tuple[float, ...] | None = None
    lsmi: LsmiConfig = field(default_factory=LsmiConfig)
    method_name: str = "smiclust"
    jobs: int = 1
    snapshot: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("runs", "seed", "jobs"):
            object.__setattr__(self, name, whole_number(name, getattr(self, name)))
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")
        if self.theta is not None:
            (t, gamma, eta), ds = self.theta, self.dataset
            _, (t,) = solver.check_hyperparameters(ds.n, ds.c, [t], [gamma], [eta])
            object.__setattr__(self, "theta", (t, float(gamma), float(eta)))

    @classmethod
    def from_dict(cls, doc: dict, base_dir=".") -> "BenchmarkConfig":
        """Build a config from a parsed JSON document.

        The dataset comes either from ``{"path": ..., "format": ...}`` or from
        ``{"generator": "blobs", "n_per_class": ..., "classes": ..., "dim": ...,
        "separation": ..., "seed": ...}``; an optional top-level ``normalize``
        scheme is applied after loading.
        """
        doc = checked_json(doc, "config", required=("link_counts", "runs"))
        spec = doc.get("dataset")
        if not isinstance(spec, dict):
            raise ValueError("config needs a 'dataset' object")
        if "path" in spec:
            path = checked_json(spec["path"], "config", "dataset.path", str)
            ds = load_dataset(Path(base_dir) / path, spec.get("format", "labeled-csv"))
        elif spec.get("generator") == "blobs":
            checked_json(spec, "config", "dataset", required=("n_per_class", "classes"))
            ds = make_blobs(
                n_per_class=whole_number("n_per_class", spec["n_per_class"]),
                c=whole_number("classes", spec["classes"]),
                d=whole_number("dim", spec.get("dim", 2)),
                separation=finite_number("separation", spec.get("separation", 5.0)),
                seed=whole_number("seed", spec.get("seed", 0)),
            )
        else:
            raise ValueError("dataset must have a 'path' or be a 'blobs' generator")
        scheme = doc.get("normalize", "none")
        ds = normalize(ds, scheme)
        c, _ = solver.check_hyperparameters(ds.n, doc.get("classes", ds.c))
        if ds.c is not None and c != ds.c:
            raise ValueError(f"config says {c} classes but the dataset has {ds.c}")
        theta = doc.get("theta")
        if theta is not None:
            theta = checked_json(theta, "config", "theta", required=("t",))
            theta = (theta["t"], theta.get("gamma", 0.0), theta.get("eta", 0.0))
        grids = checked_json(doc.get("grids", {}), "config", "grids")
        grids = {
            key: tuple(checked_json(grids[key], "config", f"grids.{key}", list))
            for key in ("t", "gamma", "eta") if key in grids
        }
        lsmi_doc = checked_json(doc.get("lsmi", {}), "config", "lsmi")
        return cls(
            dataset=ds,
            link_counts=tuple(checked_json(doc["link_counts"], "config", "link_counts", list)),
            runs=doc["runs"],
            seed=doc.get("seed", 0),
            theta=theta,
            t_grid=grids.get("t"),
            gamma_grid=grids.get("gamma"),
            eta_grid=grids.get("eta"),
            lsmi=LsmiConfig(
                center_cap=lsmi_doc.get("center_cap", LsmiConfig.center_cap),
                folds=lsmi_doc.get("folds", LsmiConfig.folds),
            ),
            method_name=doc.get("method", "smiclust"),
            jobs=doc.get("jobs", 1),
            snapshot=doc,
        )


@dataclass(frozen=True)
class BenchmarkRow:
    dataset: str
    method: str
    links: int
    run: int
    seed: int
    ari: float


@dataclass(frozen=True)
class BenchmarkReport:
    dataset: str
    method: str
    link_counts: tuple[int, ...]
    mean_ari: tuple[float, ...]
    std_ari: tuple[float, ...]
    runs: int
    seeds: tuple[int, ...]
    rows: tuple[BenchmarkRow, ...]
    config: dict


def resolve_link_count(value, n: int) -> int:
    """Absolute counts pass through; fractions are taken of the n(n-1)/2 pairs."""
    total = n * (n - 1) // 2
    value = finite_number("link count", value)
    if 0 < value < 1:
        return int(round(value * total))
    return int(round(value))


def run_benchmark(config: BenchmarkConfig) -> BenchmarkReport:
    """Sweep link counts x runs, resampling constraints per run.

    Features stay fixed across runs; only the sampled links change.  Results
    are bitwise reproducible for a given config.
    """
    ds = config.dataset
    if ds.labels is None:
        raise ValueError("benchmark needs a dataset with ground-truth labels")
    counts = tuple(resolve_link_count(v, ds.n) for v in config.link_counts)
    seeds = tuple(config.seed + r for r in range(config.runs))
    rows = []
    means, stds = [], []
    for n_links in counts:
        scores = []
        for run, run_seed in enumerate(seeds):
            cs = sample_constraints(ds.labels, n_links, seed=run_seed)
            if config.theta is not None:
                t, gamma, eta = config.theta
                labels, _ = solver.cluster(ds, cs, t, gamma, eta, ds.c)
            else:
                result = grid_search(
                    ds,
                    cs,
                    ds.c,
                    t_grid=config.t_grid,
                    gamma_grid=config.gamma_grid,
                    eta_grid=config.eta_grid,
                    lsmi_cfg=config.lsmi,
                    seed=run_seed,
                    jobs=config.jobs,
                )
                labels = result.best.labels
            score = adjusted_rand_index(labels, ds.labels)
            scores.append(score)
            rows.append(
                BenchmarkRow(
                    dataset=ds.name,
                    method=config.method_name,
                    links=n_links,
                    run=run,
                    seed=run_seed,
                    ari=score,
                )
            )
        means.append(float(np.mean(scores)))
        stds.append(float(np.std(scores)))
    return BenchmarkReport(
        dataset=ds.name,
        method=config.method_name,
        link_counts=counts,
        mean_ari=tuple(means),
        std_ari=tuple(stds),
        runs=config.runs,
        seeds=seeds,
        rows=tuple(rows),
        config=config.snapshot,
    )


def write_report_csv(report: BenchmarkReport, path) -> None:
    """Long-format rows, one per (link count, run); plot-ready."""
    save_table(path, [[f.name for f in fields(BenchmarkRow)], *map(astuple, report.rows)])


def write_report_summary(report: BenchmarkReport, path) -> None:
    """Every field of the report but its rows, as JSON."""
    save_json(path, {k: v for k, v in asdict(report).items() if k != "rows"})
