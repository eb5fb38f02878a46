#!/usr/bin/env python3
"""Run the benchmark once per seed and report each end-to-end metric's spread.

    python3 perfbench/sweep.py --workloads cluster_n2000 select_n300 --seeds 1-10

The spread of a metric is the distance between the first and third quartile
of its values (``statistics.quantiles(values, n=4)``) as a share of their
median; the benchmark is steady when every spread is below a third of the
metric's bound in ``BENCHMARK.json``.  The summary is written to
``.bench_out/sweep.json`` or to ``--out``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import HERE, ROOT, environment


def seed_list(text: str) -> list[int]:
    if "-" in text:
        low, high = (int(part) for part in text.split("-"))
        return list(range(low, high + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}:\n{proc.stderr}")
    return {**json.loads(proc.stdout.strip().splitlines()[-1]),
            "wall_s": time.perf_counter() - start}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out" / "sweep.json")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"seeds": args.seeds, "seconds": args.seconds, "environment": environment(),
               "workloads": {}}
    steady = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, args.seconds))
            print(f"{workload} seed {seed}: correct={runs[-1]['correct']} "
                  f"attempted={runs[-1]['attempted']} wall={runs[-1]['wall_s']:.1f}s", flush=True)
        rows = {}
        for name, bound in bounds.items():
            values = [run["metrics"][name]["value"] for run in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            ok = spread < bound / 3
            steady &= ok
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bound, "values": values}
            print(f"  {name:12s} median {median:.6g}  spread {spread:.4f}  "
                  f"bound/3 {bound / 3:.4f}  {'ok' if ok else 'WIDE'}")
        summary["workloads"][workload] = {
            "correct": all(run["correct"] for run in runs),
            "attempted": [run["attempted"] for run in runs],
            "wall_s": [run["wall_s"] for run in runs],
            "metrics": rows,
        }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
