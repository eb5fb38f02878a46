"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench -q``."""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tracer  # noqa: E402
import workloads  # noqa: E402
from smiclust import solver  # noqa: E402

SMALL = {
    "cluster_n2000": {"n_per_class": 60, "links": 40},
    "select_n300": {"n_per_class": 30, "links": 20},
    "predict_n2000": {"n_per_class": 60, "links": 40, "queries_per_class": 50},
}


def small_workload(name, tmp_path, seed=3):
    wl = workloads.WORKLOADS[name](seed, tmp_path, **SMALL[name])
    wl.setup()
    wl.load()
    return wl


def test_self_time_subtracts_union_of_children():
    spans = [
        tracer.Span("root", 0.0, 10.0, None, 0),
        tracer.Span("a", 1.0, 4.0, 0, 0),
        tracer.Span("leaf", 2.0, 3.0, 1, 0),
        tracer.Span("b", 3.0, 6.0, 0, 0),  # overlaps a: the union [1, 6] counts once
        tracer.Span("c", 9.0, 12.0, 0, 0),  # runs past its parent: only [9, 10] counts
    ]
    assert tracer.self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 3.0, 3.0])
    totals = tracer.layer_totals(spans + [tracer.Span("leaf", 20.0, 20.5, None, 1)])
    assert totals["leaf"]["calls"] == 2
    assert totals["leaf"]["self_s"] == pytest.approx(1.5)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_labels_are_byte_identical(name, tmp_path):
    wl = small_workload(name, tmp_path)
    plain = wl.outcome(wl.op())
    tr = tracer.Tracer()
    tr.install()
    try:
        traced = wl.outcome(wl.op())
    finally:
        tr.uninstall()
    assert traced.labels.tobytes() == plain.labels.tobytes()
    assert traced.winner == plain.winner
    assert tr.absent == []
    assert tr.spans and all(span.end >= span.start for span in tr.spans)
    assert solver.cluster.__name__ == "cluster" and not hasattr(solver.cluster, "__wrapped__")


def test_cluster_trace_sees_each_call_site_once(tmp_path):
    wl = small_workload("cluster_n2000", tmp_path)
    tr = tracer.Tracer()
    tr.install()
    try:
        wl.op()
    finally:
        tr.uninstall()
    totals = tracer.layer_totals(tr.spans)
    assert totals["kernel.nearest_neighbors"]["calls"] == 2
    assert totals["solver.cluster"]["calls"] == 1
    assert totals["solver.objective_matrix"]["peak_bytes"] > 0
    assert "lsmi.cross_validate" not in totals


def test_missing_function_is_reported_absent():
    tr = tracer.Tracer()
    tr.install(tracer.TARGETS + (
        ("smiclust.solver", "no_such_function", "solver.gone", False),
        ("smiclust.no_such_module", "anything", "gone.module", False),
    ))
    tr.uninstall()
    assert tr.absent == ["smiclust.solver.no_such_function", "smiclust.no_such_module.anything"]


def test_checks_flag_permuted_then_corrupted_labels(tmp_path):
    wl = small_workload("cluster_n2000", tmp_path)
    first = wl.outcome(wl.op())
    ari, problems = workloads.check(wl, first, None, {}, 0.2)
    assert problems == []
    reference = {"seeds": {str(wl.seed): {"ari": ari}}}
    assert workloads.check(wl, first, first, reference, 0.2)[1] == []

    rng = np.random.default_rng(0)
    permuted = (workloads.CLASSES + 1 - first.labels)[rng.permutation(first.labels.shape[0])]
    corrupted = permuted.copy()
    corrupted[5] = workloads.CLASSES + 1
    for labels in (permuted, corrupted):
        out = workloads.Outcome(labels=labels)
        assert workloads.check(wl, out, first, reference, 0.2)[1]
    assert workloads.check(wl, workloads.Outcome(labels=permuted[:-1]), first, reference, 0.2)[1]


def test_checks_flag_a_changed_winner(tmp_path):
    wl = small_workload("select_n300", tmp_path)
    out = wl.outcome(wl.op())
    ari, _ = workloads.check(wl, out, None, {}, 0.2)
    reference = {"seeds": {str(wl.seed): {"ari": ari, "winner": list(out.winner)}}}
    assert workloads.check(wl, out, out, reference, 0.2)[1] == []
    reference["seeds"][str(wl.seed)]["winner"] = [99, 0.0, 0.0]
    assert workloads.check(wl, out, out, reference, 0.2)[1]


def test_checks_flag_a_failed_candidate(tmp_path, monkeypatch):
    wl = small_workload("select_n300", tmp_path)
    ari, problems = workloads.check(wl, wl.outcome(wl.op()), None, {}, 0.2)
    assert problems == []
    cluster = solver.cluster

    def failing(ds, cs, t, gamma, eta, c):
        # The last candidate of the grid: it fails, the search goes on.
        if (t, gamma, eta) == (7, 2.0, 2.0):
            raise FloatingPointError("injected")
        return cluster(ds, cs, t, gamma, eta, c)

    monkeypatch.setattr(solver, "cluster", failing)
    _, problems = workloads.check(wl, wl.outcome(wl.op()), None, {}, 0.2)
    assert len(problems) == 1 and "eta=2.0) failed: FloatingPointError" in problems[0]


def test_unrecorded_seed_must_reach_the_ari_floor(tmp_path):
    wl = small_workload("cluster_n2000", tmp_path)
    out = wl.outcome(wl.op())
    ari, _ = workloads.check(wl, out, None, {}, 0.2)
    other_seed = {"seeds": {str(wl.seed + 1): {"ari": ari}}}
    assert workloads.check(wl, out, None, other_seed, 0.2)[1] == []
    other_seed["seeds"][str(wl.seed + 1)]["ari"] = ari / 0.79
    assert "below the floor" in workloads.check(wl, out, None, other_seed, 0.2)[1][0]


def test_run_refuses_without_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "cluster_n2000", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
