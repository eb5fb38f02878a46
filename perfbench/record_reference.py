#!/usr/bin/env python3
"""Record the outputs the benchmark's checks compare against.

    python3 perfbench/record_reference.py --seeds 0-63

For every workload and seed this runs one op and stores its ARI against the
ground truth and, for ``select_n300``, the winning (t, gamma, eta) in
``perfbench/reference.json``, keeping the entries of seeds not named.  A run
on a recorded seed must reproduce these within the ARI bound of
``BENCHMARK.json``; a run on any other seed must reach the lowest recorded ARI
of its workload less that bound.  Re-record only when a change is meant to
alter the program's results, and say so.
"""

import argparse
import json
import sys
import tempfile

from run import HERE, OUT, import_program
from sweep import seed_list


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-63"))
    args = parser.parse_args(argv)
    workloads, _ = import_program()
    OUT.mkdir(exist_ok=True)
    path = HERE / "reference.json"
    reference = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    for name, cls in workloads.WORKLOADS.items():
        seeds = reference.setdefault(name, {}).setdefault("seeds", {})
        for seed in args.seeds:
            with tempfile.TemporaryDirectory(dir=OUT) as tmp:
                wl = cls(seed, tmp)
                wl.setup()
                wl.load()
                out = wl.outcome(wl.op())
                ari, problems = workloads.check(wl, out, None, {}, 0.0)
            if problems:
                raise SystemExit(f"{name} seed {seed}: {'; '.join(problems)}")
            seeds[str(seed)] = {"ari": ari}
            if out.winner is not None:
                seeds[str(seed)]["winner"] = list(out.winner)
            print(f"{name} seed {seed}: {seeds[str(seed)]}", flush=True)
        reference[name]["seeds"] = dict(sorted(seeds.items(), key=lambda item: int(item[0])))
    path.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
