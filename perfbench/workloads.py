"""The benchmark's workloads: inputs made from a seed, one op, output checks.

Every workload is a closed loop with one client in one process: the next op
starts when the previous one returns.  The program receives only the arrays
or files generated here.  ``setup`` is the work a user pays before the first
op (it is timed in fresh processes); ``load`` gets the measuring process
ready from what ``setup`` left behind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from smiclust import cli, data, evaluation, kernel, model_select, solver

CLASSES = 2
# Centre distance of the two unit-variance blobs.  At 2.0 the blobs overlap
# so much that ARI moved 11-15% (quartile distance over median) from seed to
# seed, too wide for an ARI bound to gate; at 3.0 it moves 3-7%.
SEPARATION = 3.0
THETA = {"t": 5, "gamma": 1.0, "eta": 1.0}
SELECT_GRID = {
    "t_grid": (3, 5, 7),
    "gamma_grid": (0.0, 0.5, 1.0, 2.0),
    "eta_grid": (0.0, 0.5, 1.0, 2.0),
}


def child_seeds(seed: int) -> tuple[int, int, int]:
    """Independent seeds for the blobs, the links and the query points."""
    blobs, links, queries = np.random.SeedSequence(seed).generate_state(3)
    return int(blobs), int(links), int(queries)


def blobs_and_links(seed: int, n_per_class: int, links: int):
    blobs_seed, links_seed, _ = child_seeds(seed)
    ds = data.make_blobs(n_per_class, CLASSES, 2, SEPARATION, seed=blobs_seed)
    return ds, data.sample_constraints(ds.labels, links, seed=links_seed)


def label_problems(labels, n: int, c: int = CLASSES) -> list[str]:
    """Why ``labels`` is not a partition of ``n`` samples into ``1..c`` (empty if it is)."""
    labels = np.asarray(labels)
    if labels.shape != (n,):
        return [f"expected {n} labels, got shape {labels.shape}"]
    if not np.issubdtype(labels.dtype, np.integer):
        return [f"labels have dtype {labels.dtype}, expected integers"]
    outside = int(np.sum((labels < 1) | (labels > c)))
    return [f"{outside} labels outside 1..{c}"] if outside else []


def kernel_density(features, t_values) -> float | None:
    """Mean nonzero fraction of the unedited kernel over ``t_values``; None if absent."""
    build = getattr(kernel, "local_scaling_kernel", None)
    if build is None:
        return None
    fractions = []
    for t in t_values:
        matrix = build(features, t)
        entries = getattr(matrix, "entries", matrix)
        nonzero = entries.nnz if hasattr(entries, "nnz") else np.count_nonzero(entries)
        fractions.append(nonzero / (entries.shape[0] * entries.shape[1]))
    return float(np.mean(fractions))


@dataclass
class Outcome:
    """What one op produced, as the checks see it."""

    labels: np.ndarray
    winner: tuple | None = None
    distinct_ratio: float | None = None
    problems: list[str] = field(default_factory=list)


class ClusterWorkload:
    """One op is ``solver.cluster`` with fixed (t, gamma, eta) on n = 2000."""

    item = "cluster-calls"
    items_per_op = 1
    min_ops = 1
    # Fresh-process set-ups timed per untraced run; setup_s is their median.
    setup_samples = 9
    t_values = (THETA["t"],)

    def __init__(self, seed: int, workdir: Path, n_per_class: int = 1000, links: int = 2000):
        self.seed, self.workdir = seed, Path(workdir)
        self.n_per_class, self.links = n_per_class, links

    def setup(self) -> None:
        self.ds, self.cs = blobs_and_links(self.seed, self.n_per_class, self.links)

    load = setup

    def op(self):
        labels, _ = solver.cluster(self.ds, self.cs, c=CLASSES, **THETA)
        return labels

    warm_up = op

    def outcome(self, raw) -> Outcome:
        return Outcome(labels=np.asarray(raw))

    @property
    def truth(self) -> np.ndarray:
        return self.ds.labels

    def density(self) -> float | None:
        return kernel_density(self.ds.features, self.t_values)


class SelectWorkload(ClusterWorkload):
    """One op is ``model_select.grid_search`` over 48 (t, gamma, eta) candidates, n = 300."""

    item = "candidates"
    items_per_op = int(np.prod([len(grid) for grid in SELECT_GRID.values()]))
    # An op takes about ten seconds; at least three make a median.
    min_ops = 3
    t_values = SELECT_GRID["t_grid"]

    def __init__(self, seed: int, workdir: Path, n_per_class: int = 150, links: int = 450):
        super().__init__(seed, workdir, n_per_class, links)

    def op(self):
        return model_select.grid_search(
            self.ds, self.cs, CLASSES, lsmi_cfg=model_select.LsmiConfig(), jobs=1, **SELECT_GRID
        )

    def warm_up(self):
        # One candidate runs every layer of the search at a 48th of an op's cost.
        return model_select.grid_search(
            self.ds, self.cs, CLASSES, t_grid=(THETA["t"],), gamma_grid=(THETA["gamma"],),
            eta_grid=(THETA["eta"],), jobs=1,
        )

    def outcome(self, raw) -> Outcome:
        # grid_search turns a candidate's exception into ``cand.error`` and
        # goes on; every such candidate fails the op, winner or not.
        problems = [
            f"candidate (t={cand.t}, gamma={cand.gamma}, eta={cand.eta}) failed: {cand.error}"
            for cand in raw.candidates if cand.error is not None
        ]
        if len(raw.candidates) != self.items_per_op:
            problems.append(f"{len(raw.candidates)} candidates, expected {self.items_per_op}")
        ok = [cand for cand in raw.candidates if cand.error is None]
        best = raw.best
        return Outcome(
            labels=np.asarray(best.labels),
            winner=(int(best.t), float(best.gamma), float(best.eta)),
            distinct_ratio=len({cand.labels.tobytes() for cand in ok}) / len(raw.candidates),
            problems=problems,
        )


class PredictWorkload(ClusterWorkload):
    """One op is ``smiclust predict`` on 10 000 query points against a saved n = 2000 model."""

    item = "points"
    # Each set-up fits the n = 2000 model, about as long as two ops.
    setup_samples = 4

    def __init__(
        self, seed: int, workdir: Path, n_per_class: int = 1000, links: int = 2000,
        queries_per_class: int = 5000,
    ):
        super().__init__(seed, workdir, n_per_class, links)
        self.queries_per_class = queries_per_class
        self.items_per_op = CLASSES * queries_per_class
        self.model_path = self.workdir / "model.json"
        self.queries_path = self.workdir / "queries.csv"
        self.output_path = self.workdir / "predictions.csv"
        self.manifest_path = self.workdir / "predict.manifest.json"

    def _queries(self) -> data.Dataset:
        _, _, queries_seed = child_seeds(self.seed)
        return data.make_blobs(self.queries_per_class, CLASSES, 2, SEPARATION, seed=queries_seed)

    def setup(self) -> None:
        super().setup()
        _, model = solver.cluster(self.ds, self.cs, c=CLASSES, **THETA)
        self.workdir.mkdir(parents=True, exist_ok=True)
        solver.save_model(model, self.model_path)
        np.savetxt(self.queries_path, self._queries().features, fmt="%.17g", delimiter=",")

    def load(self) -> None:
        super().load()
        self.queries = self._queries()

    def op(self):
        self.output_path.unlink(missing_ok=True)  # so a stale file cannot pass the checks
        return cli.main([
            "predict", "--model", str(self.model_path), "--input", str(self.queries_path),
            "--output", str(self.output_path), "--manifest-out", str(self.manifest_path),
        ])

    warm_up = op

    def outcome(self, raw) -> Outcome:
        problems = [] if raw == 0 else [f"predict exited with code {raw}"]
        rows = self.output_path.read_text(encoding="utf-8").splitlines()[1:]
        labels = np.array([int(row.split(",")[1]) for row in rows], dtype=int)
        return Outcome(labels=labels, problems=problems)

    @property
    def truth(self) -> np.ndarray:
        return self.queries.labels


WORKLOADS = {
    "cluster_n2000": ClusterWorkload,
    "select_n300": SelectWorkload,
    "predict_n2000": PredictWorkload,
}


def check(workload, out: Outcome, first: Outcome | None, reference: dict, ari_bound: float):
    """Every way ``out`` fails its output checks; returns (ari, problems)."""
    problems = list(out.problems) + label_problems(out.labels, workload.truth.shape[0])
    if problems:
        return 0.0, problems
    ari = evaluation.adjusted_rand_index(out.labels, workload.truth)
    if first is not None and out.labels.tobytes() != first.labels.tobytes():
        problems.append("labels differ from the first op of this run")
    recorded_seeds = reference.get("seeds", {})
    recorded = recorded_seeds.get(str(workload.seed))
    if recorded is None:
        # Nothing was recorded for this seed, so the winner goes unchecked and
        # the ARI must reach the lowest recorded ARI less the bound.
        floor = (1.0 - ari_bound) * min((e["ari"] for e in recorded_seeds.values()), default=0.0)
        if ari < floor:
            problems.append(f"ari {ari:.4f} below the floor {floor:.4f} for unrecorded seeds")
        return ari, problems
    if abs(ari - recorded["ari"]) > ari_bound * abs(recorded["ari"]):
        problems.append(f"ari {ari:.6f} differs from the recorded {recorded['ari']:.6f}")
    if "winner" in recorded and list(out.winner) != recorded["winner"]:
        problems.append(f"winner {out.winner} differs from the recorded {recorded['winner']}")
    return ari, problems
