"""Command-line front end.

Subcommands: ``cluster``, ``select``, ``predict``, ``constraints``, ``ari``
and ``bench``.  All randomness is controlled by ``--seed``, data goes to
files or stdout, logs to stderr.  :func:`main` runs every subcommand by one
rule: a successful run writes a manifest of the resolved parameters and the
checksums of the files it read and wrote, a failed one writes none and prints
one ``error:`` line.  A refusal of features on their scale ends with the
command's hint from ``_SCALE_HINTS``.

Exit codes: 0 success, 1 internal or numeric failure, 2 user input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    Dataset,
    EmptyDatasetError,
    empty_constraints,
    load_constraints,
    load_dataset,
    load_json,
    load_labels,
    normalize,
    sample_constraints,
    save_constraints,
    save_json,
    save_labels,
    save_table,
)
from .evaluation import (
    BenchmarkConfig,
    adjusted_rand_index,
    resolve_link_count,
    run_benchmark,
    write_report_csv,
    write_report_summary,
)
from .kernel import FeatureScaleError, apply_constraints, local_scaling_kernel
from .model_select import LsmiConfig, grid_search
from .solver import PredictionError, cluster, load_model, predict, save_model


class UserInputError(ValueError):
    """Bad flag combination or bad user-supplied value."""


# Appended to a FeatureScaleError's message, which ends "; rescale the features".
_SCALE_HINTS = {
    "cluster": " (cluster and select take --normalize minmax-symmetric)",
    "select": " (cluster and select take --normalize minmax-symmetric)",
    "predict": " (the queries must be on the scale of the model's training features)",
    "bench": ' (a bench config takes "normalize": "minmax-symmetric")',
}


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(args, started: float, inputs, outputs, extra=None) -> None:
    doc = {
        "command": args.command,
        "parameters": {k: v for k, v in vars(args).items() if k not in ("func", "manifest_out")},
        "inputs": {str(p): _sha256(p) for p in inputs if p and Path(p).exists()},
        "outputs": {str(p): _sha256(p) for p in outputs if p and Path(p).exists()},
        "wall_time_s": time.perf_counter() - started,
        **(extra or {}),
    }
    save_json(args.manifest_out, doc)


def _parse_grid(text):
    if not text:
        return None
    try:
        return tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise UserInputError(f"bad grid value in {text!r}") from None


def _grid_search(args, ds: Dataset, cs):
    return grid_search(
        ds,
        cs,
        args.classes,
        t_grid=_parse_grid(args.t_grid),
        gamma_grid=_parse_grid(args.gamma_grid),
        eta_grid=_parse_grid(args.eta_grid),
        lsmi_cfg=LsmiConfig(center_cap=args.center_cap, folds=args.folds),
        seed=args.seed,
        jobs=args.jobs,
    )


def _load_problem(args):
    ds = normalize(load_dataset(args.input, args.format), args.normalize)
    if args.constraints is None:
        return ds, empty_constraints(ds.n)
    return ds, load_constraints(args.constraints, ds.n)


def _write_fit(args, labels, model) -> list:
    """Write the labels and, with ``--model-out``, the model; return both paths."""
    save_labels(args.labels_out, labels)
    if args.model_out:
        save_model(model, args.model_out)
    return [args.labels_out, args.model_out]


def _add_io_flags(sub):
    sub.add_argument("--input", required=True, type=Path, help="input CSV file")
    sub.add_argument("--format", choices=("csv", "labeled-csv"), default="csv")
    sub.add_argument("--classes", required=True, type=int, help="number of clusters")
    sub.add_argument("--constraints", type=Path, help="link file (i j +1/-1, 1-based)")
    sub.add_argument(
        "--normalize", choices=("none", "minmax-symmetric", "zscore"), default="none"
    )
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--labels-out", type=Path, default=Path("labels.csv"))
    sub.add_argument("--model-out", type=Path)


def _add_search_flags(sub, grid_help=""):
    for name in ("t", "gamma", "eta"):
        sub.add_argument(f"--{name}-grid", help=f"comma-separated {name} values{grid_help}")
    sub.add_argument("--center-cap", type=int, default=LsmiConfig.center_cap)
    sub.add_argument("--folds", type=int, default=LsmiConfig.folds)
    sub.add_argument("--jobs", type=int, default=os.cpu_count() or 1)


def cmd_cluster(args):
    if args.auto and args.t is not None:
        raise UserInputError("--auto and an explicit --t are mutually exclusive")
    if not args.auto and args.t is None:
        raise UserInputError("either --t or --auto is required")
    ds, cs = _load_problem(args)
    if args.auto:
        result = _grid_search(args, ds, cs)
        labels, model = result.best.labels, result.model
        print(
            f"selected t={result.best.t} gamma={result.best.gamma} "
            f"eta={result.best.eta} (score {result.best.score:.4f})",
            file=sys.stderr,
        )
    else:
        labels, model = cluster(ds, cs, args.t, args.gamma, args.eta, args.classes)
    outputs = _write_fit(args, labels, model)
    if args.dump_kernel:
        edited = apply_constraints(local_scaling_kernel(ds.features, model.t), cs)
        save_table(args.dump_kernel, (row.toarray()[0].tolist() for row in edited.csr))
    return [args.input, args.constraints], outputs + [args.dump_kernel]


def cmd_select(args):
    ds, cs = _load_problem(args)
    result = _grid_search(args, ds, cs)
    # Per-candidate wall times go into the manifest, keeping this file
    # byte-reproducible across reruns.
    save_table(args.table_out, [
        ("t", "gamma", "eta", "lsmi", "n_v", "score", "error"),
        *((c.t, c.gamma, c.eta, c.lsmi, c.n_v, c.score, c.error) for c in result.candidates),
    ])
    outputs = [args.table_out, *_write_fit(args, result.best.labels, result.model)]
    if args.dump_cv:
        folds = range(len(result.best_cv[0].fold_cv))
        save_table(args.dump_cv, [
            ("kappa", "delta", "mean_cv", *(f"fold_{m}" for m in folds)),
            *((rec.kappa, rec.delta, rec.mean_cv, *rec.fold_cv) for rec in result.best_cv),
        ])
    print(
        f"best: t={result.best.t} gamma={result.best.gamma} eta={result.best.eta} "
        f"lsmi={result.best.lsmi:.4f} n_v={result.best.n_v}",
        file=sys.stderr,
    )
    timings = [
        {"t": cand.t, "gamma": cand.gamma, "eta": cand.eta, "seconds": cand.seconds}
        for cand in result.candidates
    ]
    return [args.input, args.constraints], outputs + [args.dump_cv], {"candidate_seconds": timings}


def cmd_predict(args):
    model = load_model(args.model)
    try:
        queries = load_dataset(args.input, "csv").features
    except EmptyDatasetError:  # no queries: predict checks the model, the labels are a header
        queries = np.empty((0, model.train_features.shape[1]))
    save_labels(args.output, predict(model, queries))
    return [args.model, args.input], [args.output]


def cmd_constraints(args):
    ds = load_dataset(args.input, "labeled-csv")
    n_links = resolve_link_count(args.links, ds.n)
    cs = sample_constraints(ds.labels, n_links, seed=args.seed)
    save_constraints(cs, args.output)
    return [args.input], [args.output]


def cmd_ari(args):
    labels_a = load_labels(args.a)
    labels_b = load_labels(args.b)
    print(adjusted_rand_index(labels_a, labels_b))
    return [args.a, args.b], []


def cmd_bench(args):
    doc = load_json(args.config)
    config = BenchmarkConfig.from_dict(doc, base_dir=Path(args.config).parent)
    if args.jobs is not None:
        config = dataclasses.replace(config, jobs=args.jobs)
    report = run_benchmark(config)
    write_report_csv(report, args.report_out)
    write_report_summary(report, args.summary_out)
    for links, mean, std in zip(report.link_counts, report.mean_ari, report.std_ari):
        print(f"links={links}: ARI {mean:.4f} +/- {std:.4f}", file=sys.stderr)
    inputs = [args.config]
    if "path" in doc["dataset"]:
        inputs.append(Path(args.config).parent / doc["dataset"]["path"])
    return inputs, [args.report_out, args.summary_out]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smiclust",
        description="Information-maximization clustering with pairwise link constraints",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cluster", help="cluster a dataset, optionally with links")
    _add_io_flags(p)
    p.add_argument("--t", type=int, help="neighborhood size of the local-scaling kernel")
    p.add_argument("--gamma", type=float, default=0.0, help="must-link strength")
    p.add_argument("--eta", type=float, default=0.0, help="cannot-link strength")
    p.add_argument("--auto", action="store_true", help="pick t, gamma, eta by grid search")
    _add_search_flags(p, " for --auto")
    p.add_argument("--dump-kernel", type=Path, help="write the edited kernel matrix as CSV")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("select", help="grid-search t, gamma, eta and report all candidates")
    _add_io_flags(p)
    _add_search_flags(p)
    p.add_argument("--table-out", type=Path, default=Path("candidates.csv"))
    p.add_argument(
        "--dump-cv", type=Path, help="write the winner's LSMI cross-validation table as CSV"
    )
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("predict", help="label new points with a saved model")
    p.add_argument("--model", required=True, type=Path)
    p.add_argument("--input", required=True, type=Path)
    p.add_argument("--output", type=Path, default=Path("predictions.csv"))
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("constraints", help="sample links from a labeled dataset")
    p.add_argument("--input", required=True, type=Path, help="labeled-csv dataset")
    p.add_argument(
        "--links", required=True, type=float, help="link count, or fraction of all pairs if < 1"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", type=Path, default=Path("constraints.txt"))
    p.set_defaults(func=cmd_constraints)

    p = sub.add_parser("ari", help="adjusted Rand index between two label files")
    p.add_argument("--a", required=True, type=Path)
    p.add_argument("--b", required=True, type=Path)
    p.set_defaults(func=cmd_ari)

    p = sub.add_parser("bench", help="run a benchmark sweep from a JSON config")
    p.add_argument("--config", required=True, type=Path)
    p.add_argument("--report-out", type=Path, default=Path("report.csv"))
    p.add_argument("--summary-out", type=Path, default=Path("summary.json"))
    p.add_argument("--jobs", type=int, default=None)
    p.set_defaults(func=cmd_bench)

    for name, p in sub.choices.items():
        p.add_argument("--manifest-out", type=Path, default=Path(f"{name}.manifest.json"))
    return parser


def main(argv=None) -> int:
    """Run one subcommand: ``args.func`` returns ``(inputs, outputs[, manifest fields])``."""
    with warnings.catch_warnings():
        # Each warning is one "warning:" line on stderr, without its source line.
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            args = build_parser().parse_args(argv)
            started = time.perf_counter()
            _write_manifest(args, started, *args.func(args))
            return 0
        except FeatureScaleError as exc:
            print(f"error: {exc}{_SCALE_HINTS.get(args.command, '')}", file=sys.stderr)
            return 2
        except (ValueError, FileNotFoundError) as exc:  # input and format errors are ValueErrors
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except PredictionError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except Exception as exc:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
