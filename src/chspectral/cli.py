"""Command-line front end: sweeps, spectra, and verification suites.

Exit codes: 0 success, 1 a verification suite failed, 2 usage or config
error or an overflow (BlowUpError).  All floats are serialized with 17
significant digits so identical inputs give byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .coefficient import CoefficientError, load_coefficient
from .corpus import CorpusMember
from .floquet import (
    GUARD_BAND,
    auxiliary_spectrum,
    discriminant_sweep,
    hill_problems,
    periodic_spectrum,
)
from .shooting import DEFAULT_STEPS, BlowUpError
from .suites import SUITE_NAMES, run_suite


def _g(x):
    return format(float(x), ".17g")


def _csv(header, columns):
    """The header, then one row per index of the equal-length columns, every
    value as _g writes it: one %-format call over the whole table."""
    if not columns:
        return header + "\n"
    values = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    line = ",".join(["%.17g"] * values.shape[1]) + "\n"
    return header + "\n" + (line * len(values)) % tuple(values.ravel().tolist())


def _fail(message):
    print(f"chspectral: {message}", file=sys.stderr)
    raise SystemExit(2)


def _power_of_two(k):
    return k > 0 and (k & (k - 1)) == 0


def build_parser():
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", metavar="PATH",
                        help="coefficient spec (JSON); verify runs the "
                             "built-in corpus when omitted")
    shared.add_argument("--n", type=int, default=256,
                        help="grid size for field sampling (power of two)")
    shared.add_argument("--steps", type=int, default=DEFAULT_STEPS,
                        help="integrator steps per period (power of two)")
    shared.add_argument("--lambda-min", dest="lambda_min", type=float,
                        default=None, help="lower edge of the spectral window")
    shared.add_argument("--lambda-max", dest="lambda_max", type=float,
                        default=None, help="upper edge of the spectral window")
    shared.add_argument("--count", type=int, default=None,
                        help="sweep samples / max eigenvalue count")
    shared.add_argument("--eps", type=float, default=1e-5,
                        help="step for finite-difference checks")
    shared.add_argument("--out", metavar="DIR",
                        help="write artifacts here instead of stdout")

    parser = argparse.ArgumentParser(
        prog="chspectral",
        description="Floquet spectra, spectral gradients, and canonical "
                    "conjugacy checks for a periodic string with point masses.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("discriminant", parents=[shared],
                   help="CSV sweep of the Floquet discriminant")
    sub.add_parser("spectrum", parents=[shared],
                   help="CSV of band edges and auxiliary eigenvalues")
    verify = sub.add_parser("verify", parents=[shared],
                            help="run a verification suite, emit a JSON report")
    verify.add_argument("suite", choices=SUITE_NAMES + ("all",))
    return parser


def _validated(args):
    for flag, value in (("--lambda-min", args.lambda_min),
                        ("--lambda-max", args.lambda_max), ("--eps", args.eps)):
        if value is not None and not math.isfinite(value):
            _fail(f"{flag} must be finite, got {value}")
    if not _power_of_two(args.n):
        _fail(f"--n must be a positive power of two, got {args.n}")
    if not _power_of_two(args.steps):
        _fail(f"--steps must be a positive power of two, got {args.steps}")
    if args.count is not None and args.count < 1:
        _fail(f"--count must be positive, got {args.count}")
    if args.eps <= 0.0:
        _fail(f"--eps must be positive, got {args.eps}")


def _load_config(args):
    if not args.config:
        _fail(f"{args.command} needs --config")
    try:
        return load_coefficient(args.config)
    except (OSError, CoefficientError) as exc:
        _fail(str(exc))


def _emit(text, out_dir, filename):
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, filename)
        with open(path, "w") as fh:
            fh.write(text)
        return path
    sys.stdout.write(text)
    return None


def cmd_discriminant(args):
    m = _load_config(args)
    lo = 0.0 if args.lambda_min is None else args.lambda_min
    hi = 50.0 if args.lambda_max is None else args.lambda_max
    count = 200 if args.count is None else args.count
    columns = ()
    if hi > lo:
        lams = np.linspace(lo, hi, count)
        columns = (lams, discriminant_sweep(m, lams, steps=args.steps))
    _emit(_csv("lambda,delta", columns), args.out, "discriminant.csv")
    return 0


def cmd_spectrum(args):
    m = _load_config(args)
    lo = GUARD_BAND if args.lambda_min is None else args.lambda_min
    hi = 50.0 if args.lambda_max is None else args.lambda_max
    rows = []
    if hi > lo:
        points = auxiliary_spectrum(m, lam_min=lo, lam_max=hi, steps=args.steps)
        edges = periodic_spectrum(m, lo, hi, steps=args.steps, points=points)
        problems = hill_problems(points, edges) if 0.0 <= lo <= GUARD_BAND else []
        if problems:
            print("chspectral: warning: the spectrum breaks Hill's pattern: "
                  + "; ".join(problems), file=sys.stderr)
        counters = {"periodic": 0, "antiperiodic": 0}
        for edge in edges:
            counters[edge.kind] += 1
            rho = 1.0 if edge.kind == "periodic" else -1.0
            rows.append((edge.lam, edge.kind, counters[edge.kind], rho,
                         edge.multiplicity == 2))
        for pt in points[:args.count]:
            rows.append((pt.mu, "aux", pt.index, pt.rho, pt.degenerate))
    rows.sort(key=lambda r: (r[0], r[1]))
    lines = ["kind,index,lambda,rho,degenerate"]
    lines += [f"{kind},{idx},{_g(lam)},{_g(rho)},{'true' if deg else 'false'}"
              for lam, kind, idx, rho, deg in rows]
    _emit("\n".join(lines) + "\n", args.out, "spectrum.csv")
    return 0


def cmd_verify(args):
    if args.config:
        try:
            members = [CorpusMember("config", load_coefficient(args.config))]
        except (OSError, CoefficientError) as exc:
            _fail(str(exc))
        strict = True
    else:
        members, strict = None, False
    count = 3 if args.count is None else args.count
    try:
        results = run_suite(args.suite, members=members, strict=strict,
                            n=args.n, eps=args.eps, count=count,
                            steps=args.steps)
    except ValueError as exc:
        _fail(str(exc))
    for name, report in results:
        for note in report.notes:
            print(f"{name}: {note}", file=sys.stderr)
    if args.out:
        for name, report in results:
            path = _emit(report.to_json() + "\n", args.out, f"verify_{name}.json")
            state = "PASS" if report.passed else "FAIL"
            print(f"{name}: {state} ({len(report.residuals)} cases) -> {path}")
            for stem, (header, columns) in report.tables.items():
                _emit(_csv(header, columns), args.out, f"{stem}.csv")
    else:
        docs = [report.to_dict() for _, report in results]
        payload = docs[0] if len(docs) == 1 else docs
        print(json.dumps(payload, indent=2))
    return 0 if all(report.passed for _, report in results) else 1


def entry(argv=None):
    args = build_parser().parse_args(argv)
    _validated(args)
    try:
        if args.command == "discriminant":
            return cmd_discriminant(args)
        if args.command == "spectrum":
            return cmd_spectrum(args)
        return cmd_verify(args)
    except BlowUpError as exc:
        _fail(str(exc))


def main(argv=None):
    raise SystemExit(entry(argv))
