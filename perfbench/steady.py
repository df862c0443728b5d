"""Steadiness check for the benchmark.

    python3 perfbench/steady.py --seeds 1-10 [--workloads a,b] [--seconds S]
                                [--save runs.json] [--against runs.json]
                                [--counters-seed N]

Runs run.py once per seed and workload with tracing off, then reports for
each end-to-end metric the median and the quartile spread (q3 - q1) / median
over the seeds, against the metric's bound in BENCHMARK.json.  --against
compares the medians with a saved earlier set.  --counters-seed runs the
traced run twice on one seed per workload and requires every work counter
(calls, lanes, steps, nodes, evaluations, points and their ratios) to repeat
exactly.  Exits 1 when a spread exceeds its bound, a median moved by more
than its bound, a counter did not repeat, or a run reported failed ops.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
TIMED_SUFFIXES = (".self_s", "overhead_ratio", "unattributed_s")


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--save")
    parser.add_argument("--against")
    parser.add_argument("--counters-seed", type=int)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    earlier = json.loads(Path(args.against).read_text()) if args.against else {}
    runs, status = {}, 0
    for workload in args.workloads.split(","):
        results = []
        for seed in args.seeds:
            res = run(workload, seed, args.seconds, 0)
            results.append(res)
            if res["failed"]:
                print(f"{workload} seed {seed}: {res['failed']} of {res['attempted']} ops failed")
                status = 1
        runs[workload] = [r["metrics"] for r in results]
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            line = (f"{workload:20s} {name:12s} median {med:.6g}  spread {spread:.3f}"
                    f"  bound {bound}  ({'ok' if spread < bound / 3 else 'WIDE'})")
            if name != "setup_s" and spread > bound:
                status = 1
            if workload in earlier:
                old = statistics.median(m[name]["value"] for m in earlier[workload])
                better = next(m["better"] for m in spec["end_to_end"] if m["name"] == name)
                worse = (med - old) / old if better == "lower" else (old - med) / old
                line += f"  vs earlier {worse:+.3f}"
                status = 1 if worse > bound else status
            print(line, flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps(runs))
    if args.counters_seed is not None:
        for workload in args.workloads.split(","):
            a, b = (run(workload, args.counters_seed, args.seconds, 1)["metrics"]
                    for _ in range(2))
            moved = [n for n in a if not n.endswith(TIMED_SUFFIXES)
                     and a[n]["value"] != b[n]["value"]]
            print(f"{workload:20s} work counters {'repeat exactly' if not moved else 'MOVED: ' + ', '.join(moved)}")
            status = 1 if moved else status
    return status


if __name__ == "__main__":
    sys.exit(main())
