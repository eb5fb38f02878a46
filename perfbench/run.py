#!/usr/bin/env python3
"""smiclust benchmark.

One workload, untraced (end-to-end metrics) or traced (per-layer metrics):

    python3 perfbench/run.py --workload cluster_n2000 --seed 1 --seconds 20 --trace 0

Every workload, each in its own process, untraced and then traced, as a table:

    python3 perfbench/run.py --seed 1

Run from anywhere inside a checkout: the program is imported from the
checkout's ``src/`` and nothing is installed.  BLAS and OpenMP are pinned to
one thread before numpy loads, in this process and in every child.  Results,
spans and scratch files go to ``.bench_out/`` at the checkout root.  The last
line of standard output of a single-workload run is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

THREAD_PIN = {
    name: "1"
    for name in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
os.environ.update(THREAD_PIN)  # must precede every numpy import, children inherit it

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("cluster_n2000", "select_n300", "predict_n2000")


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def import_program():
    """Put the checkout's ``src`` first on the path and import the benchmark modules."""
    if not (SRC / "smiclust" / "__init__.py").is_file():
        raise SystemExit(f"error: no smiclust sources under {SRC}; run inside a checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import smiclust

    if Path(smiclust.__file__).resolve().parent != SRC / "smiclust":
        raise SystemExit(f"error: imported smiclust from {smiclust.__file__}, not {SRC}")
    import tracer
    import workloads

    return workloads, tracer


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {
        "thread_pin": {name: os.environ.get(name) for name in THREAD_PIN},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "machine": platform.machine(),
    }


def time_setup(args, workdir: Path) -> float:
    """Wall time of one fresh process that imports the program and builds the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload",
           args.workload, "--seed", str(args.seed), "--workdir", str(workdir)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: set-up of {args.workload} exited with {proc.returncode}")
    return elapsed


def tree_bytes(path: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())} if path.exists() else {}


def layer_metrics(spec: dict, totals: dict, traced_ops: int, extra: dict) -> dict:
    """Every per-layer metric named in BENCHMARK.json.

    ``<span>.self_s`` and ``<span>.calls`` are per traced op, ``<span>.peak_mb``
    the largest tracemalloc peak; a span that never ran reads 0.  Other names
    are looked up in ``extra``.
    """
    metrics = {}
    for metric in spec["per_layer"]:
        span, _, kind = metric["name"].rpartition(".")
        entry = totals.get(span, {"self_s": 0.0, "calls": 0, "peak_bytes": 0})
        value = {
            "self_s": entry["self_s"] / traced_ops,
            "calls": entry["calls"] / traced_ops,
            "peak_mb": entry["peak_bytes"] / 2**20,
        }.get(kind)
        metrics[metric["name"]] = (extra[metric["name"]] if value is None else value,
                                   metric["unit"])
    return metrics


def run_workload(args) -> int:
    workloads, tracer_mod = import_program()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT))
    try:
        return measure(args, workdir, workloads, tracer_mod)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: Path, workloads, tracer_mod) -> int:
    spec = benchmark_spec()
    ari_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "ari")
    references = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    reference = references.get(args.workload, {})
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir / "setup0")
    run_problems = []
    setup_times = [time_setup(args, workdir / "setup0")]
    setup_files = tree_bytes(workdir / "setup0")

    def sample_setup() -> None:
        target = workdir / f"setup{len(setup_times)}"
        setup_times.append(time_setup(args, target))
        if tree_bytes(target) != setup_files:
            run_problems.append(f"set-up {len(setup_times) - 1} wrote other files than set-up 0")
        shutil.rmtree(target, ignore_errors=True)

    wl.load()
    try:
        wl.warm_up()
    except Exception as exc:  # the ops that follow fail and are counted
        run_problems.append(f"warm-up failed: {type(exc).__name__}: {exc}")

    tracer = tracer_mod.Tracer() if args.trace else None
    # A traced run reports no setup_s, so it times no set-up beyond the first.
    setup_samples = 1 if tracer else wl.setup_samples
    durations, traced, aris, failures, notes = [], [], [], 0, []
    first = None
    distinct_ratio = None
    # A traced run alternates traced and untraced ops; the two medians give the
    # tracing overhead, so it needs at least one of each.
    min_ops = max(wl.min_ops, 2 if tracer else 1)
    while len(durations) < min_ops or sum(durations) < args.seconds:
        k = len(durations)
        is_traced = tracer is not None and k % 2 == 0
        if is_traced:
            tracer.op = k
            tracer.install()
        problems = []
        op_start = time.perf_counter()
        try:
            raw = wl.op()
        except Exception as exc:  # a failed op is counted, not fatal
            raw, problems = None, [f"{type(exc).__name__}: {exc}"]
        finally:
            durations.append(time.perf_counter() - op_start)
            if is_traced:
                tracer.uninstall()
        traced.append(is_traced)
        if not problems:
            try:
                out = wl.outcome(raw)
                ari, problems = workloads.check(wl, out, first, reference, ari_bound)
            except Exception as exc:
                problems = [f"output unreadable: {type(exc).__name__}: {exc}"]
        if problems:
            failures += 1
            notes.append({"op": k, "problems": problems})
            print(f"op {k} failed: {'; '.join(problems)}", file=sys.stderr)
        else:
            aris.append(ari)
            if first is None:
                first = out
            distinct_ratio = out.distinct_ratio
        # The machine's speed drifts over seconds, so fresh set-ups are spread
        # over the ops rather than run back to back: their median then sees
        # the same machine as the ops' median does.
        while len(setup_times) < setup_samples * min(1.0, sum(durations) / args.seconds):
            sample_setup()
    while len(setup_times) < setup_samples:
        sample_setup()

    attempted = len(durations)
    result = {
        "workload": args.workload,
        "why": {w["name"]: w["why"] for w in spec["workloads"]}.get(args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "op_durations_s": durations,
        "op_traced": traced,
        "setup_runs_s": setup_times,
        "failures": notes + [{"run": p} for p in run_problems],
        "loop": "closed, one client, jobs=1; no layer queues work, so wait time is not applicable",
    }
    if tracer is None:
        metrics = {
            "throughput": (wl.items_per_op * attempted / sum(durations), "items/s"),
            "op_p50_s": (statistics.median(durations), "s"),
            "ari": (statistics.median(aris) if aris else 0.0, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(setup_times), "s"),
        }
    else:
        traced_durations = [d for d, t in zip(durations, traced) if t]
        plain_durations = [d for d, t in zip(durations, traced) if not t]
        overhead = statistics.median(traced_durations) / statistics.median(plain_durations) - 1.0
        extra = {
            "kernel.density": wl.density() or 0.0,
            "model_select.distinct_labeling_ratio": distinct_ratio or 0.0,
            "trace.overhead": overhead,
        }
        totals = tracer_mod.layer_totals(tracer.spans)
        metrics = layer_metrics(spec, totals, len(traced_durations), extra)
        result["absent_wrappers"] = tracer.absent
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps([vars(s) for s in tracer.spans]) + "\n", encoding="utf-8")
        result["spans_file"] = str(spans_path.relative_to(ROOT))

    result["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    result["error_rate"] = failures / attempted
    results_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results_path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    print(f"{args.workload} seed={args.seed} trace={args.trace} ops={attempted} "
          f"(after one warm-up; set-ups timed x{len(setup_times)}) failed={failures}")
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    print(f"loop: {result['loop']}")
    for name, (value, unit) in metrics.items():
        if name == "throughput":
            unit = f"{wl.item}/s"
        print(f"  {name:40s} {value:.6g} {unit}")
    print(f"  {'error_rate':40s} {failures / attempted:.6g} ({failures}/{attempted} ops)")
    if tracer is not None:
        print(f"  absent wrappers: {', '.join(tracer.absent) or 'none'}")
    print(json.dumps({
        "correct": failures == 0 and not run_problems,
        "attempted": attempted,
        "failed": failures,
        "metrics": result["metrics"],
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced, printed as a table."""
    rows = []
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 or not proc.stdout.strip():
                print(f"{name} trace={trace}: exited with {proc.returncode}")
                return 1
            print(proc.stdout.rsplit("\n", 2)[0])
            rows.append((name, trace, json.loads(proc.stdout.strip().splitlines()[-1])))
    columns = ("throughput", "op_p50_s", "ari", "peak_rss_mb", "setup_s")
    header = ("workload",) + columns + ("error_rate", "overhead")
    print("\n" + " ".join(f"{c:>12s}" for c in header))
    for (name, _, plain), (_, _, traced) in zip(rows[::2], rows[1::2]):
        cells = [f"{plain['metrics'][c]['value']:12.5g}" for c in columns]
        cells.append(f"{plain['failed'] / plain['attempted']:12.5g}")
        cells.append(f"{traced['metrics']['trace.overhead']['value']:12.5g}")
        print(f"{name:>12s} " + " ".join(cells))
    OUT.mkdir(exist_ok=True)
    (OUT / f"summary-seed{args.seed}.json").write_text(
        json.dumps([{"workload": n, "trace": t, **d} for n, t, d in rows], indent=1) + "\n",
        encoding="utf-8",
    )
    return 0 if all(doc["correct"] for _, _, doc in rows) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=benchmark_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        workloads, _ = import_program()
        workloads.WORKLOADS[args.workload](args.seed, args.workdir).setup()
        return 0
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
