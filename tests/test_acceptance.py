"""Acceptance suite.

Every test here checks one release criterion end to end at its stated
tolerance and prints a PASS/FAIL line (visible with ``pytest -s``).
"""

import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import smiclust
from oracles import (
    Dense,
    cannot_link_matrix,
    evaluate_ratio,
    hold_error,
    must_link_matrix,
    objective_entries,
    ratio_model,
    smi_score,
    unsupervised_labels,
)
from smiclust.data import ConstraintSet, empty_constraints, make_blobs, sample_constraints
from smiclust.evaluation import BenchmarkConfig, adjusted_rand_index, run_benchmark
from smiclust.kernel import KernelMatrix, local_scaling_kernel
from smiclust.lsmi import _class_systems, cross_validate, fit_ratio_model, lsmi_value
from smiclust.model_select import LsmiConfig, grid_search
from smiclust.solver import cluster, objective_matrix, top_eigenpairs


@contextmanager
def criterion(num, description):
    try:
        yield
    except Exception:
        print(f"FAIL criterion {num}: {description}")
        raise
    print(f"PASS criterion {num}: {description}")


def test_criterion_1_reduction_to_unsupervised():
    with criterion(1, "empty links + gamma=eta=0 reproduce the unsupervised labels"):
        started = time.perf_counter()
        for seed in range(20):
            ds = make_blobs(100, 2, 2, 4.0, seed=seed)
            linked, _ = cluster(ds, empty_constraints(ds.n), 5, 0.0, 0.0, 2)
            plain = unsupervised_labels(ds, 5, 2)
            assert adjusted_rand_index(linked, plain) == 1.0, f"seed {seed}"
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_2_eigenvectors_maximize_smi_estimate():
    with criterion(2, "top eigenvectors maximize the SMI estimate over orthonormal matrices"):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            n = int(rng.integers(5, 16))
            c = int(rng.integers(2, min(n, 5)))
            a = rng.standard_normal((n, n))
            k = a @ a.T / n  # positive semi-definite
            _, phi = top_eigenpairs(Dense(k), c)
            best = smi_score(k, phi, c)
            for _ in range(100):
                q = np.linalg.qr(rng.standard_normal((n, c)))[0]
                assert best + 1e-10 >= smi_score(k, q, c)


def test_criterion_3_constraints_help_on_overlapping_blobs():
    with criterion(3, "mean ARI non-decreasing in link fraction; +0.1 at 3 percent"):
        started = time.perf_counter()
        config = BenchmarkConfig(
            dataset=make_blobs(100, 2, 2, 2.0, seed=0),
            link_counts=(0.0, 0.01, 0.03),
            runs=20,
            seed=100,
            theta=(5, 1.0, 1.0),
        )
        report = run_benchmark(config)
        means = report.mean_ari
        assert means[0] <= means[1] <= means[2], f"not monotone: {means}"
        assert means[2] - means[0] >= 0.1, f"gain {means[2] - means[0]:.3f} < 0.1"
        elapsed = time.perf_counter() - started
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_criterion_4_lsmi_calibration():
    with criterion(4, "LSMI is 0.5 +/- 0.15 on separated classes and |LSMI| <= 0.1 shuffled"):
        started = time.perf_counter()
        ds = make_blobs(100, 2, 2, 10.0, seed=7)
        kappa, delta, _ = cross_validate(ds.features, ds.labels, seed=0)
        model = fit_ratio_model(ds.features, ds.labels, kappa, delta, seed=0)
        value = lsmi_value(model, ds.features, ds.labels)
        assert abs(value - 0.5) <= 0.15, f"LSMI {value:.3f}"
        shuffled = np.random.default_rng(1).permutation(ds.labels)
        kappa, delta, _ = cross_validate(ds.features, shuffled, seed=0)
        model = fit_ratio_model(ds.features, shuffled, kappa, delta, seed=0)
        value = lsmi_value(model, ds.features, shuffled)
        assert abs(value) <= 0.1, f"shuffled LSMI {value:.3f}"
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_5_lsmi_formula_oracles():
    with criterion(5, "LSMI value, normal systems and CV error match brute force at 1e-10"):

        def gauss(a, b, kappa):
            return np.exp(-np.sum((a - b) ** 2) / (2 * kappa**2))

        rng = np.random.default_rng(55)
        for _ in range(5):
            n = int(rng.integers(4, 11))
            x = rng.standard_normal((n, 2))
            y = rng.integers(1, 3, size=n)
            y[:2] = [1, 2]
            kappa = float(rng.uniform(0.5, 2.0))
            delta = float(rng.uniform(0.01, 1.0))
            centers = {1: x[y == 1], 2: x[y == 2]}
            # normal systems
            systems = _class_systems(x, y, centers, kappa)
            for cls, ctr in centers.items():
                m = ctr.shape[0]
                n_y = int(np.sum(y == cls))
                h_mat = np.array(
                    [
                        [
                            (n_y / n**2)
                            * sum(gauss(x[i], ctr[l1], kappa) * gauss(x[i], ctr[l2], kappa)
                                  for i in range(n))
                            for l2 in range(m)
                        ]
                        for l1 in range(m)
                    ]
                )
                h_vec = np.array(
                    [
                        sum(gauss(x[i], ctr[l], kappa) for i in range(n) if y[i] == cls) / n
                        for l in range(m)
                    ]
                )
                assert np.allclose(systems[cls][0], h_mat, atol=1e-10)
                assert np.allclose(systems[cls][1], h_vec, atol=1e-10)
            # LSMI value
            model = ratio_model(x, y, centers, kappa, delta)
            first = sum(
                evaluate_ratio(model, x[i], y[j]) ** 2 for i in range(n) for j in range(n)
            ) / (2 * n**2)
            second = sum(evaluate_ratio(model, x[i], y[i]) for i in range(n)) / n
            assert abs(lsmi_value(model, x, y) - (-first + second - 0.5)) <= 1e-10
            # held-out CV error on a fold of size <= 10
            m_hold = int(rng.integers(2, 9))
            x_hold = rng.standard_normal((m_hold, 2))
            y_hold = rng.integers(1, 3, size=m_hold)
            first = sum(
                evaluate_ratio(model, x_hold[i], y_hold[j]) ** 2
                for i in range(m_hold)
                for j in range(m_hold)
            ) / (2 * m_hold**2)
            second = sum(evaluate_ratio(model, x_hold[i], y_hold[i]) for i in range(m_hold)) / m_hold
            assert abs(hold_error(model, x_hold, y_hold) - (first - second)) <= 1e-10


def test_criterion_6_ari_oracle():
    with criterion(6, "ARI matches brute-force pair counting on 200 random instances"):
        rng = np.random.default_rng(66)
        checked = 0
        while checked < 200:
            n = int(rng.integers(3, 31))
            a = rng.integers(1, 5, size=n)
            b = rng.integers(1, 5, size=n)
            both = same_a = same_b = 0
            for i in range(n):
                for j in range(i + 1, n):
                    sa = a[i] == a[j]
                    sb = b[i] == b[j]
                    both += sa and sb
                    same_a += sa
                    same_b += sb
            total = n * (n - 1) // 2
            expected_index = same_a * same_b / total
            max_index = (same_a + same_b) / 2
            if max_index == expected_index:
                continue  # degenerate convention tested separately
            oracle = (both - expected_index) / (max_index - expected_index)
            assert abs(adjusted_rand_index(a, b) - oracle) <= 1e-12
            checked += 1
        assert adjusted_rand_index([1, 1, 2, 2], [1, 2, 1, 2]) == pytest.approx(-0.5, abs=1e-12)


def test_criterion_7_objective_matrix_oracle():
    with criterion(7, "objective matrix matches the dense-product formula at 1e-10"):
        rng = np.random.default_rng(77)
        for _ in range(10):
            n = int(rng.integers(5, 21))
            a = rng.uniform(0, 1, size=(n, n))
            k = (a + a.T) / 2
            np.fill_diagonal(k, 1.0)
            labels = rng.integers(1, 3, size=n)
            cs = sample_constraints(labels, int(rng.integers(0, n)), seed=int(rng.integers(1000)))
            gamma = float(rng.uniform(0, 4))
            eta = float(rng.uniform(0, 4))
            u = objective_matrix(KernelMatrix(k, t=1), cs, gamma, eta, 2)
            m = must_link_matrix(cs)
            c_mat = cannot_link_matrix(cs)
            eye = np.eye(n)
            inner = (
                2 * eye
                + 2 * gamma * m
                + gamma**2 * (m @ m)
                - 2 * eta * c_mat
                + eta**2 * (c_mat @ c_mat)
            )
            assert np.allclose(objective_entries(u), k @ inner @ k, atol=1e-10)
        with pytest.raises(ValueError):
            objective_matrix(
                KernelMatrix(np.eye(4), t=1), empty_constraints(4), 0.0, 1.0, 3
            )


def test_criterion_8_model_selection_sanity():
    with criterion(8, "grid-search winner violates nothing and beats the median candidate"):
        cfg = LsmiConfig(kappa_grid=(0.5, 1.0, 3.0), delta_grid=(0.01, 0.1), folds=3)
        for seed in range(10):
            ds = make_blobs(50, 2, 2, 8.0, seed=seed)
            cs = sample_constraints(ds.labels, 20, seed=seed)
            result = grid_search(
                ds,
                cs,
                2,
                t_grid=(3, 5, 7),
                gamma_grid=(0.0, 1.0),
                eta_grid=(0.0, 1.0),
                lsmi_cfg=cfg,
                seed=seed,
            )
            assert result.best.n_v == 0, f"seed {seed}: winner violates {result.best.n_v} links"
            aris = [
                adjusted_rand_index(cand.labels, ds.labels)
                for cand in result.candidates
                if cand.error is None
            ]
            winner_ari = adjusted_rand_index(result.best.labels, ds.labels)
            assert winner_ari >= np.median(aris), f"seed {seed}"


def _cli_env():
    """The environment for CLI subprocesses, with the package under test first.

    The subprocesses run in a temp ``cwd``, where a relative ``PYTHONPATH``
    entry such as ``src`` no longer resolves. Putting the absolute directory
    that holds the imported ``smiclust`` first makes the children run the same
    source tree as this process, installed or not.
    """
    env = os.environ.copy()
    package_root = str(Path(smiclust.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def _run_python(argv, cwd):
    env = _cli_env()
    proc = subprocess.run(
        [sys.executable, *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, (
        f"{argv} failed (PYTHONPATH={env['PYTHONPATH']!r}): {proc.stderr}"
    )
    return proc.stdout


def _run_cli(args, cwd):
    return _run_python(["-m", "smiclust", *args], cwd)


def _check_cli_package(cwd):
    """The CLI subprocesses must import the very ``smiclust`` under test."""
    out = _run_python(["-c", "import smiclust; print(smiclust.__file__)"], cwd)
    child = Path(out.strip()).resolve()
    assert child == Path(smiclust.__file__).resolve(), (
        f"subprocess imports {child}, tests import {smiclust.__file__}"
    )


def _cli_session(base):
    """Run every CLI command once in ``base``; return data artifacts as bytes."""
    base.mkdir()
    ds = make_blobs(20, 2, 2, 8.0, seed=1)
    data_rows = [
        ",".join(repr(float(v)) for v in row) + f",{label}"
        for row, label in zip(ds.features, ds.labels)
    ]
    (base / "blobs.csv").write_text("\n".join(data_rows) + "\n", encoding="utf-8")
    query_rows = [",".join(repr(float(v)) for v in row) for row in ds.features[:7]]
    (base / "query.csv").write_text("\n".join(query_rows) + "\n", encoding="utf-8")
    config = {
        "dataset": {"path": "blobs.csv", "format": "labeled-csv"},
        "link_counts": [0, 8],
        "runs": 2,
        "seed": 5,
        "theta": {"t": 4, "gamma": 1.0, "eta": 1.0},
    }
    (base / "config.json").write_text(json.dumps(config), encoding="utf-8")

    _check_cli_package(base)
    _run_cli(["constraints", "--input", "blobs.csv", "--links", "15", "--seed", "3",
              "--output", "links.txt"], base)
    _run_cli(["cluster", "--input", "blobs.csv", "--format", "labeled-csv", "--classes", "2",
              "--t", "4", "--gamma", "1", "--eta", "1", "--constraints", "links.txt",
              "--model-out", "model.json", "--dump-kernel", "kernel.csv"], base)
    _run_cli(["select", "--input", "blobs.csv", "--format", "labeled-csv", "--classes", "2",
              "--constraints", "links.txt", "--t-grid", "3,5", "--gamma-grid", "0,1",
              "--eta-grid", "0", "--folds", "3", "--jobs", "2", "--seed", "0",
              "--table-out", "candidates.csv", "--labels-out", "selected.csv",
              "--model-out", "selected_model.json", "--dump-cv", "cv.csv"], base)
    _run_cli(["predict", "--model", "model.json", "--input", "query.csv",
              "--output", "pred.csv"], base)
    ari_out = _run_cli(["ari", "--a", "labels.csv", "--b", "selected.csv"], base)
    _run_cli(["bench", "--config", "config.json", "--report-out", "report.csv",
              "--summary-out", "summary.json"], base)

    artifacts = {"ari.stdout": ari_out.encode()}
    for name in ("links.txt", "labels.csv", "model.json", "kernel.csv", "candidates.csv",
                 "selected.csv", "selected_model.json", "cv.csv", "pred.csv", "report.csv",
                 "summary.json"):
        artifacts[name] = (base / name).read_bytes()
    return artifacts


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "every CLI command is byte-identical across reruns"):
        first = _cli_session(tmp_path / "a")
        second = _cli_session(tmp_path / "b")
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], f"{name} differs between runs"
