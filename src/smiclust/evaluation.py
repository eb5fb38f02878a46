"""Adjusted Rand Index and the seeded benchmark harness.

The harness reruns clustering across a schedule of link counts, resampling
the constraints for every run from the ground-truth labels, and aggregates
ARI against the truth as mean and standard deviation per link count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import solver
from .data import Dataset, load_dataset, make_blobs, normalize, sample_constraints
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
    grid search over the supplied (or default) grids.
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

    @classmethod
    def from_dict(cls, doc: dict, base_dir=".") -> "BenchmarkConfig":
        """Build a config from a parsed JSON document.

        The dataset comes either from ``{"path": ..., "format": ...}`` or from
        ``{"generator": "blobs", "n_per_class": ..., "classes": ..., "dim": ...,
        "separation": ..., "seed": ...}``; an optional top-level ``normalize``
        scheme is applied after loading.
        """
        spec = doc.get("dataset")
        if not isinstance(spec, dict):
            raise ValueError("config needs a 'dataset' object")
        if "path" in spec:
            ds = load_dataset(
                Path(base_dir) / spec["path"], spec.get("format", "labeled-csv")
            )
        elif spec.get("generator") == "blobs":
            ds = make_blobs(
                n_per_class=int(spec["n_per_class"]),
                c=int(spec["classes"]),
                d=int(spec.get("dim", 2)),
                separation=float(spec.get("separation", 5.0)),
                seed=int(spec.get("seed", 0)),
            )
        else:
            raise ValueError("dataset must have a 'path' or be a 'blobs' generator")
        scheme = doc.get("normalize", "none")
        ds = normalize(ds, scheme)
        if "classes" in doc and ds.c is not None and int(doc["classes"]) != ds.c:
            raise ValueError(
                f"config says {doc['classes']} classes but the dataset has {ds.c}"
            )
        theta = doc.get("theta")
        if theta is not None:
            theta = (int(theta["t"]), float(theta.get("gamma", 0.0)), float(theta.get("eta", 0.0)))
        grids = doc.get("grids", {})
        lsmi_doc = doc.get("lsmi", {})
        return cls(
            dataset=ds,
            link_counts=tuple(doc["link_counts"]),
            runs=int(doc["runs"]),
            seed=int(doc.get("seed", 0)),
            theta=theta,
            t_grid=tuple(grids["t"]) if "t" in grids else None,
            gamma_grid=tuple(grids["gamma"]) if "gamma" in grids else None,
            eta_grid=tuple(grids["eta"]) if "eta" in grids else None,
            lsmi=LsmiConfig(
                center_cap=int(lsmi_doc.get("center_cap", 500)),
                folds=int(lsmi_doc.get("folds", 5)),
            ),
            method_name=doc.get("method", "smiclust"),
            jobs=int(doc.get("jobs", 1)),
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
    value = float(value)
    if value < 0:
        raise ValueError(f"link count must be non-negative, got {value}")
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
    if config.runs < 1:
        raise ValueError(f"runs must be >= 1, got {config.runs}")
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
    lines = ["dataset,method,links,run,seed,ari"]
    for row in report.rows:
        lines.append(
            f"{row.dataset},{row.method},{row.links},{row.run},{row.seed},{row.ari!r}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_report_summary(report: BenchmarkReport, path) -> None:
    doc = {
        "dataset": report.dataset,
        "method": report.method,
        "link_counts": list(report.link_counts),
        "mean_ari": list(report.mean_ari),
        "std_ari": list(report.std_ari),
        "runs": report.runs,
        "seeds": list(report.seeds),
        "config": report.config,
    }
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
