import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import smiclust
from smiclust import kernel, lsmi
from smiclust.cli import _write_labels_csv, build_parser, main
from smiclust.data import load_constraints, make_blobs
from smiclust.solver import ClusterModel, save_model


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write_features_csv(path, features):
    rows = [",".join(repr(float(v)) for v in row) for row in features]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def write_labeled_csv(path, ds):
    rows = [
        ",".join(repr(float(v)) for v in row) + f",{label}"
        for row, label in zip(ds.features, ds.labels)
    ]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


@pytest.fixture
def blobs_csv(workdir):
    ds = make_blobs(20, 2, 2, 8.0, seed=1)
    path = workdir / "blobs.csv"
    write_labeled_csv(path, ds)
    return path, ds


class TestClusterCommand:
    def test_minimal_run_writes_labels(self, workdir, blobs_csv):
        path, ds = blobs_csv
        code = main(
            ["cluster", "--input", str(path), "--format", "labeled-csv",
             "--classes", "2", "--t", "4"]
        )
        assert code == 0
        lines = (workdir / "labels.csv").read_text().splitlines()
        assert lines[0] == "index,label"
        assert len(lines) == ds.n + 1
        assert (workdir / "cluster.manifest.json").exists()

    def test_auto_with_explicit_t_rejected(self, workdir, blobs_csv, capsys):
        path, _ = blobs_csv
        code = main(
            ["cluster", "--input", str(path), "--format", "labeled-csv",
             "--classes", "2", "--t", "4", "--auto"]
        )
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_t_or_auto_required(self, workdir, blobs_csv):
        path, _ = blobs_csv
        assert main(
            ["cluster", "--input", str(path), "--format", "labeled-csv", "--classes", "2"]
        ) == 2

    def test_missing_input_file(self, workdir):
        assert main(["cluster", "--input", "nope.csv", "--classes", "2", "--t", "3"]) == 2

    def test_constraint_index_out_of_range(self, workdir, blobs_csv, capsys):
        path, _ = blobs_csv
        links = workdir / "links.txt"
        links.write_text("1 999 +1\n")
        code = main(
            ["cluster", "--input", str(path), "--format", "labeled-csv",
             "--classes", "2", "--t", "4", "--constraints", str(links)]
        )
        assert code == 2
        assert "line 1" in capsys.readouterr().err

    def test_rank_below_classes_exits_1_with_one_line(self, workdir, capsys):
        # All points equal and t = n - 1: K' is all ones, so U has rank 1.
        write_features_csv(workdir / "same.csv", np.ones((30, 2)))
        assert main(["cluster", "--input", "same.csv", "--classes", "2", "--t", "29"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "U has rank below c=2" in err
        assert not (workdir / "labels.csv").exists()

    def test_rerun_is_byte_identical(self, workdir, blobs_csv):
        path, _ = blobs_csv
        argv = ["cluster", "--input", str(path), "--format", "labeled-csv",
                "--classes", "2", "--t", "4", "--seed", "3",
                "--model-out", "model.json"]
        assert main(argv) == 0
        first_labels = (workdir / "labels.csv").read_bytes()
        first_model = (workdir / "model.json").read_bytes()
        assert main(argv) == 0
        assert (workdir / "labels.csv").read_bytes() == first_labels
        assert (workdir / "model.json").read_bytes() == first_model

    def test_kernel_dump(self, workdir, blobs_csv):
        path, ds = blobs_csv
        code = main(
            ["cluster", "--input", str(path), "--format", "labeled-csv",
             "--classes", "2", "--t", "4", "--dump-kernel", "kernel.csv"]
        )
        assert code == 0
        rows = (workdir / "kernel.csv").read_text().splitlines()
        assert len(rows) == ds.n
        matrix = np.array([[float(v) for v in row.split(",")] for row in rows])
        assert np.array_equal(matrix, matrix.T)

    def test_auto_mode_selects(self, workdir, blobs_csv):
        path, ds = blobs_csv
        code = main(
            ["cluster", "--input", str(path), "--format", "labeled-csv",
             "--classes", "2", "--auto", "--t-grid", "3,5", "--gamma-grid", "0",
             "--eta-grid", "0", "--jobs", "1"]
        )
        assert code == 0
        manifest = json.loads((workdir / "cluster.manifest.json").read_text())
        assert manifest["command"] == "cluster"


class TestPredictCommand:
    def _fit(self, workdir, blobs_csv):
        path, ds = blobs_csv
        main(["cluster", "--input", str(path), "--format", "labeled-csv",
              "--classes", "2", "--t", "4", "--model-out", "model.json"])
        return ds

    def test_predict_training_points_matches(self, workdir, blobs_csv):
        ds = self._fit(workdir, blobs_csv)
        write_features_csv(workdir / "query.csv", ds.features)
        code = main(["predict", "--model", "model.json", "--input", "query.csv",
                     "--output", "pred.csv"])
        assert code == 0
        pred = [int(l.split(",")[1]) for l in (workdir / "pred.csv").read_text().splitlines()[1:]]
        train = [
            int(l.split(",")[1]) for l in (workdir / "labels.csv").read_text().splitlines()[1:]
        ]
        assert pred == train

    def test_dimension_mismatch_exits_2(self, workdir, blobs_csv):
        self._fit(workdir, blobs_csv)
        write_features_csv(workdir / "query.csv", np.zeros((3, 5)))
        assert main(["predict", "--model", "model.json", "--input", "query.csv"]) == 2

    @pytest.mark.parametrize("field", ["train_sigma", "train_features"])
    def test_truncated_model_exits_2_naming_the_field(self, workdir, blobs_csv, capsys, field):
        ds = self._fit(workdir, blobs_csv)
        doc = json.loads((workdir / "model.json").read_text())
        doc[field] = doc[field][:-1]
        (workdir / "model.json").write_text(json.dumps(doc))
        write_features_csv(workdir / "query.csv", ds.features[:3])
        assert main(["predict", "--model", "model.json", "--input", "query.csv"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {field} must be ")

    @pytest.mark.parametrize(
        "bad, message",
        [
            (lambda doc: {k: v for k, v in doc.items() if k != "phi"},
             "model field 'phi' is missing"),
            (lambda doc: [doc], "a model must be a JSON object, got list"),
            (lambda doc: {**doc, "eigenvalues": [float("nan")] * 2},
             "lam (the eigenvalues) must be finite, got [nan, nan]"),
            (lambda doc: {**doc, "eigenvalues": [float("inf"), 1.0]},
             "lam (the eigenvalues) must be finite, got [inf, 1.0]"),
            (lambda doc: {**doc, "t": 2.7}, "t must be a whole number, got 2.7"),
            (lambda doc: {**doc, "c": 2.5}, "c must be a whole number, got 2.5"),
            (lambda doc: {**doc, "gamma": [1]}, "model field 'gamma' must be a number"),
            (lambda doc: {**doc, "eta": "0"}, "model field 'eta' must be a number"),
            (lambda doc: {**doc, "phi": [doc["phi"][0][:1]] + doc["phi"][1:]},
             "model field 'phi' must be a rectangular array of numbers"),
            (lambda doc: {**doc, "eigenvalues": ["1", "2"]},
             "model field 'eigenvalues' must be a rectangular array of numbers"),
            (lambda doc: {**doc, "train_features": [[1.0, 2.0], [3.0]]},
             "model field 'train_features' must be a rectangular array of numbers"),
            (lambda doc: {**doc, "train_sigma": [None] * len(doc["train_sigma"])},
             "model field 'train_sigma' must be a rectangular array of numbers"),
        ],
        ids=["missing-phi", "list", "nan-eigenvalues", "inf-eigenvalue", "fractional-t",
             "fractional-c", "list-gamma", "text-eta", "ragged-phi", "text-eigenvalues",
             "ragged-train-features", "null-train-sigma"],
    )
    def test_bad_model_document_exits_2_naming_the_field(
        self, workdir, blobs_csv, capsys, bad, message
    ):
        ds = self._fit(workdir, blobs_csv)
        doc = json.loads((workdir / "model.json").read_text())
        (workdir / "model.json").write_text(json.dumps(bad(doc)))
        write_features_csv(workdir / "query.csv", ds.features[:3])
        capsys.readouterr()
        assert main(["predict", "--model", "model.json", "--input", "query.csv"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_empty_input_empty_output(self, workdir, blobs_csv):
        self._fit(workdir, blobs_csv)
        (workdir / "query.csv").write_text("")
        code = main(["predict", "--model", "model.json", "--input", "query.csv",
                     "--output", "pred.csv"])
        assert code == 0
        assert (workdir / "pred.csv").read_text() == "index,label\n"

    def test_negative_eigenvalue_refusal_exits_1(self, workdir, capsys):
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((8, 2))
        from smiclust.kernel import nearest_neighbors

        _, sigma = nearest_neighbors(feats, 2)
        model = ClusterModel(
            phi=np.linalg.qr(rng.standard_normal((8, 2)))[0],
            lam=np.array([1.0, -0.5]),
            c=2, t=2, gamma=0.0, eta=1.0,
            train_features=feats, train_sigma=sigma,
        )
        save_model(model, workdir / "model.json")
        write_features_csv(workdir / "query.csv", feats[:2])
        code = main(["predict", "--model", "model.json", "--input", "query.csv"])
        assert code == 1
        assert "non-positive eigenvalue" in capsys.readouterr().err


class TestConstraintsCommand:
    def test_zero_links_header_only(self, workdir, blobs_csv):
        path, _ = blobs_csv
        code = main(["constraints", "--input", str(path), "--links", "0",
                     "--output", "links.txt"])
        assert code == 0
        lines = (workdir / "links.txt").read_text().splitlines()
        assert len(lines) == 1 and lines[0].startswith("#")

    def test_fraction_of_pairs(self, workdir, blobs_csv):
        path, ds = blobs_csv
        main(["constraints", "--input", str(path), "--links", "0.1", "--output", "links.txt"])
        body = [
            l for l in (workdir / "links.txt").read_text().splitlines() if not l.startswith("#")
        ]
        assert len(body) == round(0.1 * ds.n * (ds.n - 1) / 2)

    @pytest.mark.parametrize("links", ["inf", "nan"])
    def test_non_finite_link_count_exits_2(self, workdir, blobs_csv, capsys, links):
        path, _ = blobs_csv
        assert main(["constraints", "--input", str(path), "--links", links]) == 2
        assert capsys.readouterr().err == (
            f"error: link count must be finite and non-negative, got {float(links)}\n"
        )

    def test_deterministic(self, workdir, blobs_csv):
        path, _ = blobs_csv
        main(["constraints", "--input", str(path), "--links", "12", "--seed", "5",
              "--output", "a.txt"])
        main(["constraints", "--input", str(path), "--links", "12", "--seed", "5",
              "--output", "b.txt"])
        assert (workdir / "a.txt").read_bytes() == (workdir / "b.txt").read_bytes()


class TestAriCommand:
    def test_identical_files_print_one(self, workdir, capsys):
        labels = "index,label\n1,1\n2,1\n3,2\n"
        (workdir / "a.csv").write_text(labels)
        (workdir / "b.csv").write_text(labels)
        assert main(["ari", "--a", "a.csv", "--b", "b.csv"]) == 0
        assert capsys.readouterr().out.strip() == "1.0"

    def test_known_value(self, workdir, capsys):
        (workdir / "a.csv").write_text("1\n1\n2\n2\n")
        (workdir / "b.csv").write_text("1\n2\n1\n2\n")
        assert main(["ari", "--a", "a.csv", "--b", "b.csv"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(-0.5)


    @pytest.mark.parametrize(
        "text, message",
        [
            ("index,label\n1,1.5\n2,2\n3,2\n", "non-integer label 1.5 on line 2"),
            ("1\n0\n2\n", "label 0 < 1 on line 2"),
            ("1\n2\n7\n", "label 7 exceeds the row count 3 on line 3"),
            ("1\n2\nx\n", "non-numeric cell 'x' on line 3"),
        ],
        ids=["fraction", "zero", "above-n", "non-numeric"],
    )
    def test_bad_label_exits_2_with_one_line(self, workdir, capsys, text, message):
        (workdir / "a.csv").write_text(text)
        (workdir / "b.csv").write_text("1\n1\n2\n")
        assert main(["ari", "--a", "a.csv", "--b", "b.csv"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: a.csv: {message}\n"


class TestSelectCommand:
    def test_writes_candidate_table(self, workdir, blobs_csv):
        path, _ = blobs_csv
        code = main(
            ["select", "--input", str(path), "--format", "labeled-csv", "--classes", "2",
             "--t-grid", "3,5", "--gamma-grid", "0,1", "--eta-grid", "0",
             "--jobs", "1", "--folds", "3"]
        )
        assert code == 0
        lines = (workdir / "candidates.csv").read_text().splitlines()
        assert lines[0] == "t,gamma,eta,lsmi,n_v,score,error"
        assert len(lines) == 1 + 4

    def test_bad_grid_value(self, workdir, blobs_csv, capsys):
        path, _ = blobs_csv
        code = main(
            ["select", "--input", str(path), "--format", "labeled-csv", "--classes", "2",
             "--t-grid", "3,x"]
        )
        assert code == 2

    def test_cv_table_dump(self, workdir, blobs_csv):
        path, _ = blobs_csv
        code = main(
            ["select", "--input", str(path), "--format", "labeled-csv", "--classes", "2",
             "--t-grid", "4", "--gamma-grid", "0", "--eta-grid", "0",
             "--jobs", "1", "--folds", "3", "--dump-cv", "cv.csv"]
        )
        assert code == 0
        lines = (workdir / "cv.csv").read_text().splitlines()
        assert lines[0] == "kappa,delta,mean_cv,fold_0,fold_1,fold_2"
        assert len(lines) == 1 + 10 * 5  # default kappa and delta grids


class TestBenchCommand:
    def test_report_row_count(self, workdir, blobs_csv):
        config = {
            "dataset": {
                "generator": "blobs", "n_per_class": 15, "classes": 2,
                "dim": 2, "separation": 6.0, "seed": 2,
            },
            "link_counts": [0, 10],
            "runs": 3,
            "seed": 0,
            "theta": {"t": 4, "gamma": 1.0, "eta": 1.0},
        }
        (workdir / "config.json").write_text(json.dumps(config))
        code = main(["bench", "--config", "config.json"])
        assert code == 0
        lines = (workdir / "report.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 3
        summary = json.loads((workdir / "summary.json").read_text())
        assert summary["link_counts"] == [0, 10]
        assert len(summary["mean_ari"]) == 2

    def test_jobs_overrides_the_config_without_changing_the_report(self, workdir):
        """With no theta every run grid-searches, so --jobs 2 runs the pool: same bytes."""
        config = {
            "dataset": {
                "generator": "blobs", "n_per_class": 12, "classes": 2,
                "dim": 2, "separation": 6.0, "seed": 2,
            },
            "link_counts": [0, 6],
            "runs": 2,
            "seed": 1,
            "grids": {"t": [3, 4], "gamma": [0, 1], "eta": [0]},
            "lsmi": {"folds": 3},
        }
        (workdir / "config.json").write_text(json.dumps(config))
        for jobs in ("1", "2"):
            assert main(["bench", "--config", "config.json", "--jobs", jobs,
                         "--report-out", f"report-{jobs}.csv",
                         "--summary-out", f"summary-{jobs}.json",
                         "--manifest-out", f"bench-{jobs}.manifest.json"]) == 0
        for name in ("report-{}.csv", "summary-{}.json"):
            one, two = (workdir / name.format(jobs) for jobs in (1, 2))
            assert one.read_bytes() == two.read_bytes()
        manifest = json.loads((workdir / "bench-2.manifest.json").read_text())
        assert manifest["parameters"]["jobs"] == 2

    def test_scale_refusal_names_the_config_key(self, workdir, capsys):
        ds = make_blobs(20, 2, 2, 3.0, seed=0)
        huge = dataclasses.replace(ds, features=ds.features * 1e155)
        write_labeled_csv(workdir / "huge.csv", huge)
        config = {"dataset": {"path": "huge.csv"}, "link_counts": [0], "runs": 1,
                  "theta": {"t": 3}}
        (workdir / "config.json").write_text(json.dumps(config))
        assert main(["bench", "--config", "config.json"]) == 2
        assert capsys.readouterr().err == (
            "error: squared distances between points overflow float64; rescale the features "
            '(a bench config takes "normalize": "minmax-symmetric")\n'
        )
        assert not (workdir / "bench.manifest.json").exists()
        config["normalize"] = "minmax-symmetric"
        (workdir / "config.json").write_text(json.dumps(config))
        assert main(["bench", "--config", "config.json"]) == 0


class TestParser:
    def test_jobs_env_default(self, monkeypatch):
        monkeypatch.setenv("SMICLUST_JOBS", "3")
        parser = build_parser()
        args = parser.parse_args(["cluster", "--input", "x.csv", "--classes", "2", "--t", "1"])
        assert args.jobs == 3

    def test_jobs_env_clamped_to_one(self, monkeypatch):
        monkeypatch.setenv("SMICLUST_JOBS", "-4")
        args = build_parser().parse_args(["select", "--input", "x.csv", "--classes", "2"])
        assert args.jobs == 1

    def test_non_integer_jobs_env_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("SMICLUST_JOBS", "abc")
        assert main(["--help"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: SMICLUST_JOBS must be an integer, got 'abc'\n"
        assert captured.out == ""

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(["frobnicate"])
        assert err.value.code == 2


class TestDumpCvReusesTheSearch:
    def test_cross_validate_runs_once_per_distinct_labeling(self, workdir, blobs_csv, monkeypatch):
        path, _ = blobs_csv
        seen = []
        original = lsmi.cross_validate

        def counted(x, y, *args, **kwargs):
            seen.append(np.asarray(y).tobytes())
            return original(x, y, *args, **kwargs)

        monkeypatch.setattr(lsmi, "cross_validate", counted)
        monkeypatch.setattr("smiclust.cli.cross_validate", counted, raising=False)
        code = main(
            ["select", "--input", str(path), "--format", "labeled-csv", "--classes", "2",
             "--t-grid", "3,4,5", "--gamma-grid", "0,1", "--eta-grid", "0",
             "--jobs", "1", "--folds", "3", "--dump-cv", "cv.csv"]
        )
        assert code == 0
        assert seen and len(seen) == len(set(seen))
        assert len((workdir / "cv.csv").read_text().splitlines()) == 1 + 10 * 5


class TestClusterDumpKernel:
    def test_dump_kernel_writes_the_edited_kernel(self, workdir, blobs_csv):
        path, ds = blobs_csv
        links = workdir / "links.txt"
        links.write_text("1 2 +1\n3 40 -1\n")
        code = main(
            ["cluster", "--input", str(path), "--format", "labeled-csv", "--classes", "2",
             "--t", "5", "--gamma", "1", "--eta", "1", "--constraints", str(links),
             "--dump-kernel", "kernel.csv"]
        )
        assert code == 0
        edited = kernel.apply_constraints(
            kernel.local_scaling_kernel(ds.features, 5), load_constraints(links, ds.n)
        )
        expected = "".join(",".join(map(repr, row.tolist())) + "\n" for row in edited.entries)
        assert (workdir / "kernel.csv").read_text() == expected


def sha256_of(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# Each command of one session in order: (argv, resolved parameters, inputs, outputs).
MANIFEST_SESSION = {
    "constraints": (
        ["--input", "blobs.csv", "--links", "15", "--seed", "3", "--output", "links.txt"],
        {"input": "blobs.csv", "links": 15.0, "output": "links.txt", "seed": 3},
        ["blobs.csv"], ["links.txt"],
    ),
    "cluster": (
        ["--input", "blobs.csv", "--format", "labeled-csv", "--classes", "2",
         "--constraints", "links.txt", "--t", "4", "--gamma", "1", "--eta", "1", "--jobs", "1",
         "--model-out", "model.json", "--dump-kernel", "kernel.csv"],
        {"auto": False, "center_cap": 500, "classes": 2, "constraints": "links.txt",
         "dump_kernel": "kernel.csv", "eta": 1.0, "eta_grid": None, "folds": 5,
         "format": "labeled-csv", "gamma": 1.0, "gamma_grid": None, "input": "blobs.csv",
         "jobs": 1, "labels_out": "labels.csv", "model_out": "model.json", "normalize": "none",
         "seed": 0, "t": 4, "t_grid": None},
        ["blobs.csv", "links.txt"], ["labels.csv", "model.json", "kernel.csv"],
    ),
    "select": (
        ["--input", "blobs.csv", "--format", "labeled-csv", "--classes", "2",
         "--constraints", "links.txt", "--t-grid", "3,5", "--gamma-grid", "0,1",
         "--eta-grid", "0", "--folds", "3", "--jobs", "1", "--seed", "2",
         "--normalize", "minmax-symmetric", "--table-out", "candidates.csv",
         "--labels-out", "selected.csv", "--model-out", "selected_model.json",
         "--dump-cv", "cv.csv"],
        {"center_cap": 500, "classes": 2, "constraints": "links.txt", "dump_cv": "cv.csv",
         "eta_grid": "0", "folds": 3, "format": "labeled-csv", "gamma_grid": "0,1",
         "input": "blobs.csv", "jobs": 1, "labels_out": "selected.csv",
         "model_out": "selected_model.json", "normalize": "minmax-symmetric", "seed": 2,
         "t_grid": "3,5", "table_out": "candidates.csv"},
        ["blobs.csv", "links.txt"],
        ["candidates.csv", "selected.csv", "selected_model.json", "cv.csv"],
    ),
    "predict": (
        ["--model", "model.json", "--input", "query.csv", "--output", "pred.csv"],
        {"input": "query.csv", "model": "model.json", "output": "pred.csv"},
        ["model.json", "query.csv"], ["pred.csv"],
    ),
    "ari": (
        ["--a", "labels.csv", "--b", "selected.csv"],
        {"a": "labels.csv", "b": "selected.csv"},
        ["labels.csv", "selected.csv"], [],
    ),
    "bench": (
        ["--config", "config.json"],
        {"config": "config.json", "jobs": None, "report_out": "report.csv",
         "summary_out": "summary.json"},
        ["config.json"], ["report.csv", "summary.json"],
    ),
}


@pytest.fixture(scope="module")
def manifest_session(tmp_path_factory):
    """Every subcommand run once, in the order above, in one directory."""
    base = tmp_path_factory.mktemp("session")
    ds = make_blobs(20, 2, 2, 8.0, seed=1)
    write_labeled_csv(base / "blobs.csv", ds)
    write_features_csv(base / "query.csv", ds.features[:7])
    config = {"dataset": {"path": "blobs.csv", "format": "labeled-csv"}, "link_counts": [0, 8],
              "runs": 2, "seed": 5, "theta": {"t": 4, "gamma": 1.0, "eta": 1.0}}
    (base / "config.json").write_text(json.dumps(config), encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(base)
    try:
        for command, (argv, *_) in MANIFEST_SESSION.items():
            assert main([command, *argv]) == 0, command
    finally:
        os.chdir(cwd)
    return base


@pytest.mark.parametrize("command", list(MANIFEST_SESSION))
def test_every_command_writes_its_manifest(manifest_session, command):
    """Parameters are every flag but the manifest path; files are keyed by path to SHA-256."""
    _, params, inputs, outputs = MANIFEST_SESSION[command]
    doc = json.loads((manifest_session / f"{command}.manifest.json").read_text())
    assert doc["command"] == command
    assert doc["parameters"] == {"command": command, **params}
    assert doc["inputs"] == {p: sha256_of(manifest_session / p) for p in inputs}
    assert doc["outputs"] == {p: sha256_of(manifest_session / p) for p in outputs}
    assert doc["wall_time_s"] >= 0
    extra = set(doc) - {"command", "parameters", "inputs", "outputs", "wall_time_s"}
    if command != "select":
        assert not extra
        return
    assert extra == {"candidate_seconds"}
    rows = (manifest_session / "candidates.csv").read_text().splitlines()[1:]
    grid = [(int(t), float(gamma), float(eta)) for t, gamma, eta, *_ in
            (row.split(",") for row in rows)]
    timings = doc["candidate_seconds"]
    assert [(rec["t"], rec["gamma"], rec["eta"]) for rec in timings] == grid
    assert all(set(rec) == {"t", "gamma", "eta", "seconds"} for rec in timings)
    assert all(rec["seconds"] >= 0 for rec in timings)


def test_refused_run_writes_no_manifest(workdir, capsys):
    write_features_csv(workdir / "sixty.csv", make_blobs(30, 2, 2, 3.0, seed=0).features)
    assert main(["select", "--input", "sixty.csv", "--classes", "61"]) == 2
    assert capsys.readouterr().err == "error: c must be in 1..60, got 61\n"
    assert not (workdir / "select.manifest.json").exists()


def test_labels_csv_is_index_then_label(workdir):
    _write_labels_csv(workdir / "labels.csv", np.array([2, 1, 2, 10]))
    assert (workdir / "labels.csv").read_bytes() == b"index,label\n1,2\n2,1\n3,2\n4,10\n"
    _write_labels_csv(workdir / "none.csv", [])
    assert (workdir / "none.csv").read_bytes() == b"index,label\n"


def run_cli(args, cwd):
    """``smiclust`` in a fresh process, importing the package under test."""
    env = os.environ.copy()
    package_root = str(Path(smiclust.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "smiclust", *args], cwd=cwd, env=env, capture_output=True,
        text=True, timeout=120,
    )


class TestUpFrontInputChecks:
    """Each bad value exits 2 with one stderr line naming it, before any clustering."""

    @pytest.mark.parametrize(
        "args, names",
        [
            (["cluster", "--t", "4", "--gamma", "nan"], "gamma"),
            (["cluster", "--t", "4", "--gamma", "inf"], "gamma"),
            (["cluster", "--t", "4", "--eta", "nan"], "eta"),
            (["select", "--folds", "1"], "folds"),
            (["select", "--center-cap", "0"], "center cap"),
            (["select", "--center-cap", "1"], "center cap"),
        ],
        ids=["gamma-nan", "gamma-inf", "eta-nan", "folds-1", "center-cap-0", "center-cap-1"],
    )
    def test_exits_2_with_one_line(self, workdir, blobs_csv, args, names):
        path, _ = blobs_csv
        proc = run_cli(
            [args[0], "--input", str(path), "--format", "labeled-csv", "--classes", "2",
             *args[1:]],
            workdir,
        )
        assert proc.returncode == 2
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: ")
        assert names in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (workdir / "labels.csv").exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (["select", "--classes", "61"], "c must be in 1..60, got 61"),
        (["select", "--classes", "2", "--t-grid", "0,3"], "t must be in 1..59, got 0"),
        (["select", "--classes", "2", "--t-grid", "3,2.7"], "t must be a whole number, got 2.7"),
        (["select", "--classes", "2", "--gamma-grid", "nan,1"],
         "gamma must be finite and non-negative, got nan"),
        (["predict", "--model", "nan-gamma.json"],
         "gamma must be finite and non-negative, got nan"),
    ],
    ids=["select-classes-61", "select-t-grid-0", "select-t-grid-2.7", "select-gamma-grid-nan",
         "predict-nan-gamma"],
)
def test_bad_hyperparameter_exits_2_before_clustering(workdir, args, message):
    """A bad c or grid value, or a model's NaN gamma, is refused with one line, not per candidate."""
    ds = make_blobs(30, 2, 2, 3.0, seed=0)
    write_features_csv(workdir / "points.csv", ds.features)
    assert main(["cluster", "--input", "points.csv", "--classes", "2", "--t", "5",
                 "--labels-out", "fit.csv", "--model-out", "model.json"]) == 0
    doc = json.loads((workdir / "model.json").read_text())
    (workdir / "nan-gamma.json").write_text(json.dumps({**doc, "gamma": float("nan")}))
    proc = run_cli([*args, "--input", "points.csv"], workdir)
    assert proc.returncode == 2
    assert proc.stderr == f"error: {message}\n"
    assert not (workdir / "candidates.csv").exists()
    assert not (workdir / "labels.csv").exists() and not (workdir / "predictions.csv").exists()


def test_overflowing_distances_exit_2_naming_normalize(workdir):
    """Features whose squared distances overflow float64 are refused, not crashed on."""
    x = make_blobs(20, 2, 2, 3.0, seed=0).features
    write_features_csv(workdir / "huge.csv", x * 1e155)
    args = ["cluster", "--input", "huge.csv", "--classes", "2", "--t", "3"]
    proc = run_cli(args, workdir)
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: ")
    assert "overflow" in proc.stderr and "--normalize" in proc.stderr
    assert not (workdir / "labels.csv").exists()
    # The same points at 1e150 still cluster, as the unscaled ones do.
    write_features_csv(workdir / "plain.csv", x)
    write_features_csv(workdir / "large.csv", x * 1e150)
    for name in ("plain", "large"):
        assert main(["cluster", "--input", f"{name}.csv", "--classes", "2", "--t", "3",
                     "--labels-out", f"{name}-labels.csv"]) == 0
    plain, large = (workdir / "plain-labels.csv"), (workdir / "large-labels.csv")
    assert plain.read_bytes() == large.read_bytes()
    # The flag the message names brings the refused points into range.
    assert main(args + ["--normalize", "minmax-symmetric"]) == 0


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("command", [["select"], ["cluster", "--auto"]], ids=["select", "auto"])
def test_grid_search_refuses_overflowing_features_once(workdir, command, jobs):
    """The overflow refusal ends the search with exit 2, not one error per candidate."""
    x = make_blobs(20, 2, 2, 3.0, seed=0).features
    write_features_csv(workdir / "huge.csv", x * 1e155)
    proc = run_cli(
        [*command, "--input", "huge.csv", "--classes", "2", "--t-grid", "3,4",
         "--gamma-grid", "0", "--eta-grid", "0", "--jobs", jobs],
        workdir,
    )
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: squared distances")
    assert not (workdir / "labels.csv").exists()


@pytest.mark.parametrize(
    "command",
    [["cluster", "--t", "3"],
     ["select", "--t-grid", "3", "--gamma-grid", "0,1", "--eta-grid", "0"]],
    ids=["cluster", "select"],
)
def test_overflow_inside_the_tree_exits_2_naming_normalize(workdir, command):
    """Blobs at +-1e154 overflow only in the k-d tree's ball query: one refusal line, no table."""
    ds = make_blobs(10, 2, 2, 3.0, seed=0)
    far = ds.features + np.where(ds.labels == 1, 1e154, -1e154)[:, None]
    write_features_csv(workdir / "far.csv", far)
    proc = run_cli([*command, "--input", "far.csv", "--classes", "2", "--jobs", "1"], workdir)
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: squared distances")
    assert "--normalize minmax-symmetric" in proc.stderr
    assert not (workdir / "candidates.csv").exists() and not (workdir / "labels.csv").exists()


def test_predict_scale_refusal_names_its_own_remedy(workdir, capsys):
    """Queries near 1.2e154 overflow the k-d tree's ball query against blobs near 0: predict
    exits 2 with one line saying the queries must be on the training scale, and names no
    flag, as predict takes no --normalize."""
    write_features_csv(workdir / "points.csv", make_blobs(50, 2, 2, 3.0, seed=0).features)
    assert main(["cluster", "--input", "points.csv", "--classes", "2", "--t", "5",
                 "--model-out", "model.json"]) == 0
    write_features_csv(workdir / "far.csv", [[1.2e154, 0.0], [-1.2e154, 0.0], [0.0, 1.2e154]])
    capsys.readouterr()
    assert main(["predict", "--model", "model.json", "--input", "far.csv"]) == 2
    err = capsys.readouterr().err
    assert err == (
        "error: squared distances between points overflow float64; rescale the features "
        "(the queries must be on the scale of the model's training features)\n"
    )
    assert "--" not in err
    assert not (workdir / "predictions.csv").exists()
    assert not (workdir / "predict.manifest.json").exists()


def test_overflowing_median_distance_exits_2_naming_normalize(workdir, capsys):
    """Blobs scaled by 1e150 at +-1e154 cluster, as their kNN distances are finite, but the
    median pairwise distance behind select's default kappa grid overflows: exit 2, one line."""
    ds = make_blobs(10, 2, 2, 3.0, seed=0)
    far = ds.features * 1e150 + np.where(ds.labels == 1, 1e154, -1e154)[:, None]
    write_features_csv(workdir / "far.csv", far)
    args = ["--input", "far.csv", "--classes", "2"]
    assert main(["cluster", *args, "--t", "3"]) == 0
    capsys.readouterr()
    grid = ["--t-grid", "3", "--gamma-grid", "0", "--eta-grid", "0", "--jobs", "1"]
    assert main(["select", *args, *grid, "--table-out", "far-candidates.csv"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: squared distances between points")
    assert "--normalize minmax-symmetric" in err and "kappa" not in err
    assert not (workdir / "far-candidates.csv").exists()


def test_select_names_an_empty_hold_out_fold(workdir):
    """Six points, 3 a class, leave two of the default 5 folds empty: exit 1, one line."""
    write_features_csv(workdir / "six.csv", make_blobs(3, 2, 2, 8.0, seed=0).features)
    proc = run_cli(["select", "--input", "six.csv", "--classes", "2", "--jobs", "1"], workdir)
    assert proc.returncode == 1
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: RuntimeError: ")
    assert "fold 3 is empty: every class has fewer than 5 points" in proc.stderr
    assert "ZeroDivisionError" not in proc.stderr
    assert not (workdir / "candidates.csv").exists()


def test_underflowing_distances_exit_2_naming_normalize(workdir):
    """Distinct points whose squared distances underflow to 0 are refused, not merged."""
    x = make_blobs(20, 2, 2, 3.0, seed=0).features
    write_features_csv(workdir / "tiny.csv", x * 1e-200)
    args = ["cluster", "--input", "tiny.csv", "--classes", "2", "--t", "3"]
    proc = run_cli(args, workdir)
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: squared distances")
    assert "underflow" in proc.stderr and "--normalize minmax-symmetric" in proc.stderr
    assert not (workdir / "labels.csv").exists()
    # At 1e-160 the squares are subnormal, not 0: the labels are the unscaled ones.
    write_features_csv(workdir / "plain.csv", x)
    write_features_csv(workdir / "small.csv", x * 1e-160)
    for name in ("plain", "small"):
        assert main(["cluster", "--input", f"{name}.csv", "--classes", "2", "--t", "3",
                     "--labels-out", f"{name}-labels.csv"]) == 0
    plain, small = (workdir / "plain-labels.csv"), (workdir / "small-labels.csv")
    assert plain.read_bytes() == small.read_bytes()
    # Equal points lie at distance 0 by right: doubled points still cluster, copies together.
    write_features_csv(workdir / "doubled.csv", np.repeat(x * 1e-160, 2, axis=0))
    assert main(["cluster", "--input", "doubled.csv", "--classes", "2", "--t", "3",
                 "--labels-out", "doubled-labels.csv"]) == 0
    doubled = np.loadtxt(workdir / "doubled-labels.csv", delimiter=",", skiprows=1)[:, 1]
    assert np.array_equal(doubled[0::2], doubled[1::2])
    assert main(args + ["--normalize", "minmax-symmetric"]) == 0


def test_zscore_refuses_overflowing_statistics(workdir):
    """zscore exits 2 with one line where a column's std overflows; minmax-symmetric works."""
    x = make_blobs(20, 2, 2, 3.0, seed=0).features
    for name, scale in [("plain", 1.0), ("large", 1e150), ("huge", 1e155)]:
        write_features_csv(workdir / f"{name}.csv", x * scale)
    args = ["cluster", "--input", "huge.csv", "--classes", "2", "--t", "3"]
    proc = run_cli(args + ["--normalize", "zscore"], workdir)
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: ")
    assert "zscore" in proc.stderr and "minmax-symmetric" in proc.stderr
    assert "Warning" not in proc.stderr
    assert not (workdir / "labels.csv").exists()
    for name in ("plain", "large"):
        assert main(["cluster", "--input", f"{name}.csv", "--classes", "2", "--t", "3",
                     "--normalize", "zscore", "--labels-out", f"{name}-labels.csv"]) == 0
    plain, large = (workdir / "plain-labels.csv"), (workdir / "large-labels.csv")
    assert plain.read_bytes() == large.read_bytes()
    assert main(args + ["--normalize", "minmax-symmetric"]) == 0


def test_warnings_print_one_line_each(workdir):
    """A warning reaches stderr as one ``warning:`` line, without the source line it came from."""
    ds = make_blobs(10, 3, 2, 8.0, seed=1)
    write_labeled_csv(workdir / "three.csv", ds)
    proc = run_cli(
        ["select", "--input", "three.csv", "--format", "labeled-csv", "--classes", "3",
         "--t-grid", "3", "--gamma-grid", "0", "--eta-grid", "0,1", "--jobs", "1"],
        workdir,
    )
    assert proc.returncode == 0
    warning, best = proc.stderr.splitlines()
    assert warning == (
        "warning: eta grid forced to {0} because c=3 > 2 (cannot-link squares only encode "
        "must-links for binary problems)"
    )
    assert best.startswith("best: t=3 gamma=0.0 eta=0.0 ")


def test_minmax_symmetric_maps_a_column_wider_than_float64(workdir):
    """A column from -1e308 to 1e308 clusters after --normalize minmax-symmetric, silently."""
    x = make_blobs(20, 2, 2, 3.0, seed=0).features
    wide = np.column_stack([np.r_[1e308, -1e308, np.zeros(len(x) - 2)] + x[:, 0], x[:, 1]])
    write_features_csv(workdir / "wide.csv", wide)
    proc = run_cli(["cluster", "--input", "wide.csv", "--classes", "2", "--t", "3",
                    "--normalize", "minmax-symmetric"], workdir)
    assert proc.returncode == 0 and proc.stderr == ""
    assert len((workdir / "labels.csv").read_text().splitlines()) == len(x) + 1
