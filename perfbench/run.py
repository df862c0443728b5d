"""chspectral benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

One client, one process, one thread, closed loop: each op is one CLI
invocation run in-process through `chspectral.cli.entry(argv)` with `--out`
set to a scratch directory, and the next op starts when the previous one
returns.  Inputs come from the seed and are written as JSON configs before
timing starts.  Every op's output is checked after the timed loop.

With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json;
with --trace 1 it runs one traced cycle of the workload's ops (spans around
every public function of the package, installed from outside), then whole
untraced cycles for at least half of --seconds for the overhead ratio, and
reports the per-layer metrics.  The last
line of stdout is one JSON object; the lines before it say the same for a
reader.  Run from the repository root; the package is imported from src/.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 3       # fresh-interpreter set-ups before the loop, and again after it
TAIL_BEYOND = 10        # the tail percentile leaves at least this many ops above it

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import chspectral.cli
from chspectral import load_coefficient
for path in sys.argv[2:]:
    load_coefficient(path)
print(time.perf_counter() - t0)
"""


def load_program():
    """Import the package from this checkout's src/, and nowhere else."""
    if not (SRC / "chspectral" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no chspectral sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import chspectral.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "chspectral").resolve():
        raise SystemExit(f"perfbench: chspectral was imported from {cli.__file__}")
    return cli


@dataclass
class Result:
    index: int          # position in the workload's op list
    seconds: float
    digest: str


class Runner:
    """Runs ops through the CLI entry point; keeps the first output of each op."""

    def __init__(self, cli, workload, work_dir):
        self.cli = cli
        self.workload = workload
        self.cfg_dir = work_dir / "configs"
        self.out_dir = work_dir / "out"
        self.cfg_dir.mkdir(parents=True)
        self.out_dir.mkdir()
        for name, spec in workload.configs.items():
            (self.cfg_dir / f"{name}.json").write_text(json.dumps(spec, indent=1))
        self.first = {}     # op key -> (digest, rc, files, stdout)

    def config_path(self, name):
        return str(self.cfg_dir / f"{name}.json")

    def argv(self, op):
        return [self.config_path(a) if prev == "--config" else a
                for prev, a in zip(("",) + op.argv[:-1], op.argv)]

    def run(self, index):
        op = self.workload.ops[index]
        argv = self.argv(op) + ["--out", str(self.out_dir)]
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = self.cli.entry(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # an op that raises is a failed op, not a failed run
            rc = "raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1]
        seconds = perf_counter() - t0
        files = {}
        for path in sorted(self.out_dir.iterdir()):
            files[path.name] = path.read_bytes()
            path.unlink()
        h = hashlib.sha256(repr(rc).encode())
        for name, data in files.items():
            h.update(name.encode() + b"\0" + data)
        digest = h.hexdigest()
        self.first.setdefault(op.key, (digest, rc, files, out.getvalue()))
        return Result(index, seconds, digest)


def run_rounds(runner, rounds, seconds=None, cycles=None, tracer=None):
    """Whole rounds until `seconds` have passed, or exactly `cycles` cycles."""
    results = []
    t0 = perf_counter()
    done = 0
    while True:
        if cycles is not None and done == cycles * len(rounds):
            break
        if cycles is None and done and perf_counter() - t0 >= seconds:
            break
        for index in rounds[done % len(rounds)]:
            first_span = len(tracer.spans) if tracer else 0
            res = runner.run(index)
            if tracer:
                tracer.mark_op(first_span, res.seconds)
            results.append(res)
        done += 1
    return results, perf_counter() - t0


def measure_setup(runner):
    """Times for fresh interpreters to import the package and load the configs."""
    paths = [runner.config_path(name) for name in runner.workload.configs]
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), *paths],
                              capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def check_outputs(runner, results):
    """Problems per op key, and the number of timed ops that failed."""
    from chspectral import load_coefficient

    from checks import check_op

    ops = {op.key: op for op in runner.workload.ops}
    problems = {}
    for key, (digest, rc, files, stdout) in runner.first.items():
        op = ops[key]
        try:
            found = check_op(op, runner.workload.configs[op.config],
                             load_coefficient(runner.config_path(op.config)),
                             rc, files, stdout)
        except (ValueError, KeyError, IndexError) as exc:
            found = [f"unreadable output: {exc!r}"]
        if found:
            problems[key] = found
    failed = 0
    for res in results:
        key = runner.workload.ops[res.index].key
        if res.digest != runner.first[key][0]:
            problems.setdefault(key, []).append("artifacts differ between runs of this op")
            failed += 1
        elif key in problems:
            failed += 1
    return problems, failed


def tail(times):
    """(percentile, value): the highest percentile with TAIL_BEYOND ops above it."""
    q = max(0.5, 1.0 - TAIL_BEYOND / len(times))
    return 100.0 * q, float(np.quantile(times, q))


def layer_values(summary, n_ops, traced_p50, untraced_p50):
    """Per-op averages of every traced name, work counts and their ratios."""
    values = {}
    for name, calls in summary["calls"].items():
        values[f"{name}.calls"] = calls / n_ops
    for name, secs in summary["self_s"].items():
        values[f"{name}.self_s"] = secs / n_ops
    work = summary["work"]
    for name, count in work.items():
        values[name] = count / n_ops
    points = work.get("floquet.points", 0)
    aux_calls = summary["calls"].get("floquet.auxiliary_spectrum", 0)
    values["floquet.nodes_per_point"] = work.get("floquet.scan_nodes", 0) / points if points else 0.0
    values["floquet.evals_per_point"] = work.get("floquet.root_evals", 0) / points if points else 0.0
    values["floquet.rescans_per_call"] = ((work.get("floquet.aux_scans", 0) - aux_calls) / aux_calls
                                         if aux_calls else 0.0)
    values["trace.overhead_ratio"] = traced_p50 / untraced_p50
    values["trace.unattributed_s"] = summary["unattributed_s"] / n_ops
    values["trace.ops"] = float(n_ops)
    return values


def environment():
    import scipy

    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "loadavg": [round(x, 2) for x in os.getloadavg()],
            "threads": os.environ["OMP_NUM_THREADS"]}


def run_workload(args, spec):
    cli = load_program()
    import workloads

    env = environment()
    workload = workloads.build(args.workload, args.seed)
    work_dir = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        runner = Runner(cli, workload, work_dir)
        setups = measure_setup(runner)
        runner.run(workload.rounds[0][0])      # warm-up; its output is checked too
        if args.trace:
            from spans import Tracer

            cycle = [sum(workload.rounds, [])]  # compare whole cycles only
            tracer = Tracer()
            tracer.install()
            try:
                traced, _ = run_rounds(runner, cycle, cycles=1, tracer=tracer)
            finally:
                tracer.uninstall()
            plain, _ = run_rounds(runner, cycle, seconds=args.seconds / 2)
            results = traced + plain
        else:
            results, wall = run_rounds(runner, workload.rounds, seconds=args.seconds)
        setup_s = statistics.median(setups + measure_setup(runner))
        problems, failed = check_outputs(runner, results)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# env " + json.dumps(env))
    print(f"# ops attempted={len(results)} failed={failed} "
          f"fail_ratio={failed / len(results):.4f} distinct={len(runner.first)}")
    for key, found in sorted(problems.items()):
        for text in found[:3]:
            print(f"FAIL {key}: {text}")

    if args.trace:
        summary = tracer.summary()
        WORK.mkdir(exist_ok=True)
        tracer.dump(WORK / f"spans-{args.workload}.jsonl")
        traced_p50 = statistics.median(r.seconds for r in traced)
        values = layer_values(summary, len(traced), traced_p50,
                              statistics.median(r.seconds for r in plain))
        for name in sorted(summary["calls"], key=lambda n: -summary["self_s"][n]):
            print(f"# span {name} calls/op={summary['calls'][name] / len(traced):.6g} "
                  f"self_s/op={summary['self_s'][name] / len(traced):.6g}")
        for name, count in sorted(summary["uncounted"].items()):
            print(f"# warning: work of {count} {name} calls could not be counted")
        wanted = spec["per_layer"]
    else:
        times = [r.seconds for r in results]
        pct, tail_s = tail(times)
        print(f"# op_s.tail is the p{pct:.1f} of {len(times)} op times")
        values = {"setup_s": setup_s, "op_s.p50": statistics.median(times),
                  "op_s.tail": tail_s, "ops_per_s": len(times) / wall,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        wanted = spec["end_to_end"]

    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
        print(f"metric {args.workload} {m['name']} {metrics[m['name']]['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(results),
                      "failed": failed, "metrics": metrics}))


def run_all(args, spec):
    """Each workload in its own process, then every metric in one table."""
    combined, status = {}, 0
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"# {w['name']} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
            status = 1
            continue
        print("\n".join(line for line in lines[:-1] if not line.startswith("# span")))
        combined[w["name"]] = json.loads(lines[-1])
    print(json.dumps(combined))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise SystemExit(f"perfbench: {spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in names:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; one of {names} or all")
    run_workload(args, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
