"""Alternating pairs of perfbench runs: a parent revision against the working tree.

    python3 tools/pairs.py PARENT --workload NAME --seed N --pairs N
                           [--seconds S] [--out BENCH.json]

Exports PARENT with `git archive` into a temporary directory, then runs the
unchanged `perfbench/run.py` N times on each side, alternating which side
goes first (even-numbered pairs, from 0, run the parent first).  Every run is
a fresh process of its side's own perfbench on its side's own sources.

The summary holds, per end-to-end metric of BENCHMARK.json, both sides'
medians and quartiles and the number of pairs the change wins (ties count for
neither side), with the failed ops of each side and whether every run was
correct.  With --out the series "NAME seed N" is written into that file,
beside the series already there, in the layout of the committed BENCH_*.json
files; a "claim" already in the file is kept.  Run from anywhere inside the
repository; the tree under test is the repository's working tree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev, into):
    """The files of commit rev under the directory into."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def perfbench(tree, workload, seed, seconds):
    """One run of tree's perfbench: (its last JSON line, its "# env" line)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=1800)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench in {tree} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-500:]}")
    env = next((json.loads(line[len("# env "):]) for line in lines
                if line.startswith("# env ")), {})
    return json.loads(lines[-1]), env


def summarise(runs, metrics):
    """Medians, quartiles and change wins per metric over paired runs."""
    summary = {"pairs": len(runs["parent"]),
               "failed_ops": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
               "correct": all(r["correct"] for side in SIDES for r in runs[side])}
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        values = {side: [r[name]["value"] for r in runs[side]] for side in SIDES}
        entry = {}
        for side in SIDES:
            quartiles = statistics.quantiles(values[side], n=4, method="inclusive")
            entry[f"{side}_median"] = round(statistics.median(values[side]), 6)
            entry[f"{side}_quartiles"] = [round(quartiles[0], 6), round(quartiles[2], 6)]
        entry["change_wins"] = sum(sign * (c - p) > 0.0
                                   for p, c in zip(values["parent"], values["change"]))
        summary[name] = entry
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="the revision to measure the working tree against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs needs at least 2 pairs for quartiles")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    parent = git("rev-parse", "--short", args.parent)

    runs, env = {side: [] for side in SIDES}, {}
    with tempfile.TemporaryDirectory() as tmp:
        export(parent, tmp)
        trees = {"parent": Path(tmp), "change": ROOT}
        for pair in range(args.pairs):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                result, env = perfbench(trees[side], args.workload, args.seed, args.seconds)
                runs[side].append({"pair": pair, "correct": result["correct"],
                                   "failed": result["failed"],
                                   "attempted": result["attempted"], **result["metrics"]})
                print(f"pair {pair} {side}: ops_per_s "
                      f"{result['metrics']['ops_per_s']['value']:.4g}", file=sys.stderr)

    series = f"{args.workload} seed {args.seed}"
    summary = summarise(runs, metrics)
    print(json.dumps({series: summary}, indent=1))
    if args.out:
        bench = json.loads(args.out.read_text()) if args.out.exists() else {}
        dirty = git("status", "--porcelain", "--untracked-files=no")
        bench.update({
            "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g}",
            "host": (f"{env.get('nproc', '?')} CPU, Python {env.get('python', '?')}, "
                     f"numpy {env.get('numpy', '?')}, scipy {env.get('scipy', '?')}"),
            "parent": parent,
            "change": git("rev-parse", "--short", "HEAD") + (" with uncommitted edits" if dirty
                                                             else ""),
            "order": ("alternating pairs; even-numbered pairs (from 0) run the parent first, "
                      "odd pairs the change first; the parent a fresh `git archive` of its "
                      "commit, the change the working tree"),
        })
        bench.setdefault("summary", {})[series] = summary
        bench.setdefault("runs", {})[series] = runs
        args.out.write_text(json.dumps(bench, indent=1) + "\n")


if __name__ == "__main__":
    main()
