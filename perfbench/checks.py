"""Output checks for benchmark ops, run outside the timed region.

Each check takes the op, its exit code, its artifacts (file name -> bytes)
and its captured stdout, and returns a list of problems; an empty list means
the output is correct.  Checks use closed forms and oracles independent of
the package where they exist; the Sturm index check uses the package's own
dense trajectory, because it asks whether a reported root carries the index
the oscillation count gives it.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.integrate import solve_ivp

AUX_REL_TOL = 1e-9          # closed-form auxiliary points (roots polished by brentq)
EDGE_REL_TOL = 1e-6         # closed-form double edges (located by a minimiser)
DELTA_TOL = 1e-6            # discriminant against an independent ODE solve
STURM_SHIFT = 1e-6          # relative offset of the Sturm probes from mu_k


def _g(x):
    return format(float(x), ".17g")


def _arg(op, flag, default):
    return float(op.argv[op.argv.index(flag) + 1]) if flag in op.argv else default


def _hill_kinds(count):
    """periodic, anti, anti, periodic, periodic, anti, anti, ... (count long)."""
    cycle = ("antiperiodic", "antiperiodic", "periodic", "periodic")
    return (["periodic"] + [cycle[i % 4] for i in range(count)])[:count]


def _parse_spectrum(text):
    lines = text.splitlines()
    if not lines or lines[0] != "kind,index,lambda,rho,degenerate":
        raise ValueError("spectrum.csv header is missing or wrong")
    rows = []
    for line in lines[1:]:
        kind, index, lam, rho, deg = line.split(",")
        rows.append((kind, int(index), float(lam), float(rho), deg == "true"))
    return rows


def _interior_zeros(psi):
    s = np.sign(psi[1:])          # psi(0) = 0 for y2; psi(1) is included
    s = s[s != 0.0]
    return int(np.count_nonzero(s[1:] != s[:-1]))


def _sturm_problems(m, aux):
    from chspectral.shooting import solve_fundamental

    problems = []
    for _, k, mu, _, _ in aux:
        shift = STURM_SHIFT * max(1.0, abs(mu))
        below = _interior_zeros(solve_fundamental(m, mu - shift)[1].psi)
        above = _interior_zeros(solve_fundamental(m, mu + shift)[1].psi)
        if (below, above) != (k - 1, k):
            problems.append(f"Sturm index of mu_{k}={mu:.12g}: y2 has "
                            f"{below}/{above} zeros below/above, want {k - 1}/{k}")
    return problems


def _const_spectrum_problems(rows, top):
    problems = []
    aux = [r for r in rows if r[0] == "aux"]
    edges = [r for r in rows if r[0] != "aux"]
    want_aux = [0.25 + (k * math.pi) ** 2 for k in range(1, 100)
                if 0.25 + (k * math.pi) ** 2 <= top]
    if len(aux) != len(want_aux):
        problems.append(f"const: {len(aux)} auxiliary points, want {len(want_aux)}")
    for (_, k, mu, _, deg), want in zip(aux, want_aux):
        if abs(mu - want) > AUX_REL_TOL * want or not deg:
            problems.append(f"const: mu_{k}={mu!r}, want {want!r} flagged degenerate")
    want_edges = [(0.25, "periodic", False)]
    want_edges += [(v, "antiperiodic" if k % 2 else "periodic", True)
                   for k, v in enumerate(want_aux, start=1)]
    if len(edges) != len(want_edges):
        problems.append(f"const: {len(edges)} edge rows, want {len(want_edges)}")
    for (kind, _, lam, _, deg), (want, wkind, wdeg) in zip(edges, want_edges):
        if kind != wkind or deg != wdeg or abs(lam - want) > EDGE_REL_TOL * want:
            problems.append(f"const: edge {kind} {lam!r} (double={deg}), "
                            f"want {wkind} {want!r} (double={wdeg})")
    return problems


def check_spectrum(op, m, text, top):
    rows = _parse_spectrum(text)
    edges = [r for r in rows if r[0] != "aux"]
    aux = [r for r in rows if r[0] == "aux"]
    problems = []
    kinds = [kind for kind, _, _, _, deg in edges for _ in range(2 if deg else 1)]
    if kinds != _hill_kinds(len(kinds)):
        problems.append("band edges break Hill's pattern: "
                        + "".join(k[0] for k in kinds))
    if [r[1] for r in aux] != list(range(1, len(aux) + 1)):
        problems.append(f"auxiliary indices {[r[1] for r in aux]} are not 1..{len(aux)}")
    if op.config == "const":
        problems += _const_spectrum_problems(rows, top)
    if "aux_exact" in op.meta:
        exact = op.meta["aux_exact"]
        if len(aux) != len(exact):
            problems.append(f"{len(aux)} auxiliary points, the Green's-matrix "
                            f"oracle has {len(exact)}")
        for (_, k, mu, _, _), want in zip(aux, exact):
            if abs(mu - want) > AUX_REL_TOL * want:
                problems.append(f"mu_{k}={mu!r}, oracle {want!r}")
    return problems + _sturm_problems(m, aux)


def _smooth_fn(spec):
    smooth = spec.get("smooth", {"kind": "const", "value": 0.0})
    if smooth["kind"] == "const":
        return lambda x: smooth["value"]
    a0, cos, sin = smooth.get("a0", 0.0), smooth.get("cos", []), smooth.get("sin", [])

    def value(x):
        out = a0
        for k, a in enumerate(cos, start=1):
            out += a * math.cos(2.0 * math.pi * k * x)
        for k, b in enumerate(sin, start=1):
            out += b * math.sin(2.0 * math.pi * k * x)
        return out
    return value


def reference_discriminant(spec, lam):
    """Delta(lam) from an adaptive eighth-order solve of both columns."""
    mfun = _smooth_fn(spec)

    def rhs(x, y):
        c = 0.25 - lam * mfun(x)
        return [y[1], c * y[0], y[3], c * y[2]]

    sol = solve_ivp(rhs, (0.0, 1.0), [1.0, 0.0, 0.0, 1.0], method="DOP853",
                    rtol=1e-12, atol=1e-12)
    y = sol.y[:, -1]
    return 0.5 * (y[0] + y[3])


def check_discriminant(op, spec, text):
    lines = text.splitlines()
    top = _arg(op, "--lambda-max", 50.0)
    count = int(_arg(op, "--count", 200))
    if not lines or lines[0] != "lambda,delta":
        return ["discriminant.csv header is missing or wrong"]
    rows = [line.split(",") for line in lines[1:]]
    lams = np.linspace(0.0, top, count)
    if len(rows) != count or any(r[0] != _g(x) for r, x in zip(rows, lams)):
        return [f"lambda column is not linspace(0, {top:g}, {count}) in 17 digits"]
    deltas = np.array([float(r[1]) for r in rows])
    if op.config == "const":
        w = lams - 0.25
        want = np.where(w >= 0.0, np.cos(np.sqrt(np.abs(w))), np.cosh(np.sqrt(np.abs(w))))
        picks = range(count)
    else:
        picks = (0, count // 3, 2 * count // 3, count - 1)
        want = {j: reference_discriminant(spec, lams[j]) for j in picks}
    problems = []
    for j in picks:
        if abs(deltas[j] - want[j]) > DELTA_TOL * max(1.0, abs(want[j])):
            problems.append(f"Delta({lams[j]:.6g}) = {deltas[j]!r}, reference {want[j]!r}")
            break
    return problems


def check_verify(op, files, stdout):
    suite = op.argv[1]
    problems = []
    report = files.get(f"verify_{suite}.json")
    if report is None:
        return [f"verify_{suite}.json was not written"]
    doc = json.loads(report)
    if doc.get("pass") is not True or not doc.get("residuals"):
        problems.append(f"{suite} report does not pass: {doc.get('residuals')}")
    if f"{suite}: PASS" not in stdout:
        problems.append(f"stdout does not announce '{suite}: PASS'")
    extra = {"gradients": "gradients_config.csv",
             "hamiltonian": "hamiltonian_config.csv"}.get(suite)
    if extra and extra not in files:
        problems.append(f"{extra} was not written")
    return problems


def check_op(op, spec, m, rc, files, stdout):
    """Problems with one op's output; m is the loaded coefficient."""
    if rc != 0:
        return [f"exit code {rc}"]
    if op.command == "verify":
        return check_verify(op, files, stdout)
    name = f"{op.command}.csv"
    if name not in files:
        return [f"{name} was not written"]
    text = files[name].decode()
    if op.command == "discriminant":
        return check_discriminant(op, spec, text)
    return check_spectrum(op, m, text, _arg(op, "--lambda-max", 50.0))
