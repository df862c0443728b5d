"""Alternating pairs of perfbench runs: a parent revision against the working tree.

    python3 tools/pairs.py PARENT --workload NAME|all --seed N --pairs N
                           [--seconds S] [--out BENCH.json]

Exports both sides alike, each with `git archive` into its own temporary
directory: PARENT, and the working tree's tracked files as `git stash create`
records them (HEAD when the tree is clean), so that neither side runs beside
a `__pycache__` or other untracked files; stage a new file to include it.
Then runs the unchanged `perfbench/run.py` N times on each side, alternating
which side goes first (even-numbered pairs, from 0, run the parent first).
Every run is a fresh process of its side's own perfbench on its side's own
sources.  With --workload all each run is one `perfbench/run.py --workload
all`, which runs every workload of BENCHMARK.json in turn; its last line holds
one result per workload, and each workload becomes a series of its own.

The summary holds, per end-to-end metric of BENCHMARK.json, both sides'
medians and quartiles and the number of pairs the change wins (ties count for
neither side), with the failed ops of each side and whether every run was
correct.  Per metric it also says whether the change shows a gain (at least
10 pairs, 9 in 10 of them won, and medians further apart than the parent's
quartiles) and whether the change's median is worse than the parent's by
more than the metric's bound in BENCHMARK.json, a share of the parent's
median (worse_by gives that share).  Each series "NAME seed N" is summarised
on its own and printed; with --out every series is written into that file,
beside the series already there, in the layout of the committed BENCH_*.json
files; a "claim" already in the file is kept.
Run from anywhere inside the repository.
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


def working_tree():
    """A commit holding the working tree's tracked files: HEAD when clean."""
    return git("stash", "create") or git("rev-parse", "HEAD")


def export(rev, into):
    """The files of commit rev under the directory into."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def perfbench(tree, workload, seed, seconds):
    """One run of tree's perfbench: ({workload: result} from its last JSON
    line, one entry per workload under `all`; its "# env" line)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=1800)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench in {tree} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-500:]}")
    env = next((json.loads(line[len("# env "):]) for line in lines
                if line.startswith("# env ")), {})
    result = json.loads(lines[-1])
    return (result if workload == "all" else {workload: result}), env


def summarise(runs, metrics):
    """Medians, quartiles and change wins per metric over paired runs."""
    summary = {"pairs": len(runs["parent"]),
               "failed_ops": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
               "correct": all(r["correct"] for side in SIDES for r in runs[side])}
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        values = {side: [r[name]["value"] for r in runs[side]] for side in SIDES}
        entry, medians, spread = {}, {}, {}
        for side in SIDES:
            q1, _, q3 = statistics.quantiles(values[side], n=4, method="inclusive")
            medians[side], spread[side] = statistics.median(values[side]), q3 - q1
            entry[f"{side}_median"] = round(medians[side], 6)
            entry[f"{side}_quartiles"] = [round(q1, 6), round(q3, 6)]
        pairs = len(values["parent"])
        wins = sum(sign * (c - p) > 0.0 for p, c in zip(values["parent"], values["change"]))
        gap = sign * (medians["change"] - medians["parent"])
        # the share of the parent's median by which the change's median is worse
        worse = -gap / medians["parent"] if medians["parent"] else 0.0
        entry.update(change_wins=wins,
                     gain=pairs >= 10 and 10 * wins >= 9 * pairs and gap > spread["parent"],
                     worse_by=round(worse, 4), worse_beyond_bound=worse > metric["bound"])
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

    runs, env = {}, {}     # series -> side -> one entry per pair
    with tempfile.TemporaryDirectory() as old, tempfile.TemporaryDirectory() as new:
        export(parent, old)
        export(working_tree(), new)
        trees = {"parent": Path(old), "change": Path(new)}
        for pair in range(args.pairs):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                results, env = perfbench(trees[side], args.workload, args.seed, args.seconds)
                for workload, result in results.items():
                    series = f"{workload} seed {args.seed}"
                    runs.setdefault(series, {s: [] for s in SIDES})[side].append(
                        {"pair": pair, "correct": result["correct"],
                         "failed": result["failed"], "attempted": result["attempted"],
                         **result["metrics"]})
                    print(f"pair {pair} {side} {workload}: ops_per_s "
                          f"{result['metrics']['ops_per_s']['value']:.4g}", file=sys.stderr)

    summaries = {series: summarise(sides, metrics) for series, sides in runs.items()}
    print(json.dumps(summaries, indent=1))
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
                      "odd pairs the change first; each side a fresh `git archive` in its "
                      "own temporary directory, the parent of its commit, the change of the "
                      "working tree's tracked files (`git stash create`, or HEAD when clean)"),
        })
        bench.setdefault("summary", {}).update(summaries)
        bench.setdefault("runs", {}).update(runs)
        args.out.write_text(json.dumps(bench, indent=1) + "\n")


if __name__ == "__main__":
    main()
