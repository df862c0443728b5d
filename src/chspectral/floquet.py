"""Floquet discriminant, multipliers, auxiliary spectrum, and band/gap layout.

The discriminant is half the monodromy trace; auxiliary points are the zeros
mu_i of y2(1, .) with multiplier rho_i = y2'(1, mu_i).  Band edges are the
lambda where the discriminant meets +-1, found by a coarse batched scan plus
full-step polishing; closed gaps appear as tangencies of multiplicity two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .shooting import (
    DEFAULT_STEPS,
    ShootingState,
    endpoint_column,
    fundamental_matrix,
    positive_part_vanishes,
    propagate,
    solve_fundamental,
)

SCAN_DENSITY = 512      # coarse scan nodes per unit of lambda
GUARD_BAND = 1e-6       # roots with |lambda| at or below this are discarded
DEGENERATE_TOL = 1e-8   # | |Delta(mu)| - 1 | cut for the band-edge flag
JORDAN_TOL = 1e-6       # |y1'(1, mu)| scale separating U = +-I from a Jordan block
TANGENCY_TOL = 1e-7     # |Delta -+ 1| at a polished extremum for a closed gap
_BRENT_XTOL = 1e-13
_BRENT_RTOL = 8.9e-16   # scipy refuses anything below 4 * machine eps


class JordanGapError(RuntimeError):
    """Monodromy is a nontrivial Jordan block; no second Floquet solution."""


@dataclass(frozen=True)
class AuxiliaryPoint:
    """One zero mu of y2(1, .) with the monodromy data evaluated there."""

    index: int
    mu: float
    rho: float          # y2'(1, mu), the multiplier carried by y2
    rho_tilde: float    # y1(1, mu), the reciprocal multiplier
    delta: float
    dy1_end: float      # y1'(1, mu); nonzero at a degenerate point means Jordan
    degenerate: bool
    steps: int


@dataclass(frozen=True)
class BandEdge:
    """Root of Delta = +1 (periodic) or Delta = -1 (antiperiodic)."""

    lam: float
    kind: str
    multiplicity: int


@dataclass(frozen=True)
class GapCount:
    lo: float
    hi: float
    closed: bool
    cut: bool           # upper edge beyond the scanned window
    mus: tuple


@dataclass
class GapCheck:
    """Auxiliary points sorted into spectral gaps over a window."""

    edges: list
    gaps: list
    aux: list
    ground: tuple       # mus below the lowest band edge (expected none)
    stray: tuple        # mus inside a band (expected none)
    passed: bool


def discriminant(m, lam, steps=DEFAULT_STEPS):
    """Delta(lambda) = (y1(1) + y2'(1)) / 2."""
    return 0.5 * fundamental_matrix(m, lam, 1.0, steps).trace


def discriminant_sweep(m, lams, steps=DEFAULT_STEPS):
    """Delta over an array of spectral points: both columns in one batched pass."""
    psi, dpsi = endpoint_column(m, lams, np.eye(2), steps)
    return 0.5 * (psi[0] + dpsi[1])


def multipliers(delta):
    """Roots of rho^2 - 2 delta rho + 1 = 0 in a cancellation-free form.

    Returns (expanding, contracting) with product exactly 1; inside a band
    (|delta| <= 1) the pair is complex conjugate on the unit circle.
    """
    if abs(delta) <= 1.0:
        im = math.sqrt(max(0.0, 1.0 - delta * delta))
        return complex(delta, im), complex(delta, -im)
    s = math.copysign(1.0, delta)
    big = delta + s * math.sqrt(delta * delta - 1.0)
    return big, 1.0 / big


def _scan_nodes(lo, hi, density=SCAN_DENSITY):
    # anchored at integer multiples of 1/density so lambda = 0 lands on a node
    k0 = math.ceil(lo * density)
    k1 = math.floor(hi * density)
    nodes = np.arange(k0, k1 + 1, dtype=float) / density
    if nodes.size == 0 or nodes[0] > lo + 1e-15:
        nodes = np.concatenate(([lo], nodes))
    if nodes[-1] < hi - 1e-15:
        nodes = np.concatenate((nodes, [hi]))
    return nodes


def _polish_bracket(g, a, b, max_expand=4):
    """brentq with sign re-checks; expands the bracket if the signs moved."""
    fa, fb = g(a), g(b)
    width = b - a
    tries = 0
    while fa * fb > 0.0 and tries < max_expand:
        a, b = a - width, b + width
        fa, fb = g(a), g(b)
        tries += 1
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        return None
    return brentq(g, a, b, xtol=_BRENT_XTOL, rtol=_BRENT_RTOL)


def _dedupe(values, scale_tol=1e-9):
    out = []
    for v in sorted(values):
        if not out or abs(v - out[-1]) > scale_tol * max(1.0, abs(v)):
            out.append(v)
    return out


def auxiliary_spectrum(m, lam_min=GUARD_BAND, lam_max=None, count=None,
                       steps=DEFAULT_STEPS):
    """Zeros of y2(1, .) in a window, polished at full step resolution.

    Give lam_max, count, or both.  With count alone the window grows until
    enough roots appear; with both, at most count roots are returned.  The
    coarse scan runs at steps // 8 and every bracket is re-polished at the
    full step count.  With count alone and lam_min >= 0, a coefficient with
    no positive part raises ValueError at once: it has no point above 0.
    """
    if lam_max is None and count is None:
        raise ValueError("auxiliary_spectrum needs lam_max or count")
    if lam_max is None and lam_min >= 0.0 and positive_part_vanishes(m, steps):
        raise ValueError("m has no positive part (no atom weight and no sampled smooth "
                         "value is > 0), so y2(1, lambda) > 0 for every lambda > 0 and "
                         "there is no auxiliary point to count")
    if count is not None and m.smooth_is_zero:
        # purely atomic coefficient: y2(1, .) is a polynomial of degree
        # len(atoms), so the auxiliary spectrum is finite
        count = min(count, len(m.atoms))
    lo = float(lam_min)
    hi = float(lam_max) if lam_max is not None else max(2.0 * lo, lo + 50.0)
    scan_steps = max(256, steps // 8)
    roots = []
    for _ in range(12):
        roots = _aux_roots(m, lo, hi, scan_steps, steps)
        if count is None or len(roots) >= count or lam_max is not None:
            break
        hi *= 2.0
    if count is not None and len(roots) < count and lam_max is None:
        raise RuntimeError(f"found only {len(roots)} auxiliary points below lambda={hi:g}")
    if count is not None:
        roots = roots[:count]
    return [_assemble_point(m, k + 1, mu, steps) for k, mu in enumerate(roots)]


def _aux_roots(m, lo, hi, scan_steps, steps):
    nodes = _scan_nodes(lo, hi)
    vals, _ = endpoint_column(m, nodes, (0.0, 1.0), scan_steps)

    def g(lam):
        return propagate(m, lam, ShootingState(0.0, 0.0, 1.0, lam), 1.0, steps).psi

    sign = np.sign(vals)
    roots = [float(nodes[j]) for j in np.nonzero(sign == 0.0)[0]]
    for j in np.nonzero(sign[:-1] * sign[1:] < 0.0)[0]:
        root = _polish_bracket(g, float(nodes[j]), float(nodes[j + 1]))
        if root is not None:
            roots.append(root)
    return [r for r in _dedupe(roots) if abs(r) > GUARD_BAND]


def _assemble_point(m, index, mu, steps):
    U = fundamental_matrix(m, mu, 1.0, steps)
    delta = 0.5 * U.trace
    return AuxiliaryPoint(index=index, mu=mu, rho=U.dy2, rho_tilde=U.y1,
                          delta=delta, dy1_end=U.dy1,
                          degenerate=abs(abs(delta) - 1.0) <= DEGENERATE_TOL,
                          steps=steps)


def refine_point(m, point, steps):
    """Re-polish an auxiliary point at a different step count."""
    def g(lam):
        return propagate(m, lam, ShootingState(0.0, 0.0, 1.0, lam), 1.0, steps).psi

    w = max(1e-7, 1e-9 * max(1.0, abs(point.mu)))
    mu = _polish_bracket(g, point.mu - w, point.mu + w, max_expand=8)
    if mu is None:
        raise RuntimeError(f"lost the root near mu={point.mu:.12g} at steps={steps}")
    pt = _assemble_point(m, point.index, mu, steps)
    return pt


def second_floquet(m, point, steps=None, periods=2):
    """Fundamental trajectories (y2, y) at mu over one or two periods.

    y2 carries multiplier rho; the returned companion y has y(0) = 1 and
    multiplier 1/rho.  Away from band edges y = y1 + b y2 with
    b = y1'(1) / (1/rho - rho).  At a band edge with U = +-I the first
    fundamental solution is itself Floquet and comes back with b = 0; a
    nontrivial Jordan block admits no second Floquet solution and raises
    JordanGapError.
    """
    steps = steps or point.steps
    t1, t2 = solve_fundamental(m, point.mu, steps=steps, periods=periods)
    if point.degenerate:
        if abs(point.dy1_end) > JORDAN_TOL * max(1.0, abs(point.mu)):
            raise JordanGapError(
                f"monodromy at mu={point.mu:.8g} is a nontrivial Jordan block; "
                "gradient of the multiplier is undefined there")
        return t2, t1, 0.0
    b = point.dy1_end / (1.0 / point.rho - point.rho)
    return t2, t1.combine(t2, b), b


def periodic_spectrum(m, lam_min, lam_max, steps=DEFAULT_STEPS):
    """Band edges (Delta = +-1) in a window, tangencies counted twice."""
    scan_steps = max(256, steps // 8)
    nodes = _scan_nodes(lam_min, lam_max)
    deltas = discriminant_sweep(m, nodes, scan_steps)
    edges = []
    for target, kind in ((1.0, "periodic"), (-1.0, "antiperiodic")):
        # Delta = +1 and Delta = -1 never meet, so only same-kind repeats merge
        merged = []
        for e in sorted(_edge_hunt(m, nodes, deltas - target, target, kind, steps),
                        key=lambda e: e.lam):
            if not merged or abs(e.lam - merged[-1].lam) > 1e-9 * max(1.0, abs(e.lam)):
                merged.append(e)
        edges.extend(merged)
    edges.sort(key=lambda e: e.lam)
    return edges


def _edge_hunt(m, nodes, vals, target, kind, steps):
    def f(lam):
        return discriminant(m, lam, steps) - target

    out = []
    crossed = set()
    sign = np.sign(vals)
    for j in np.nonzero(sign[:-1] * sign[1:] < 0.0)[0]:
        root = _polish_bracket(f, float(nodes[j]), float(nodes[j + 1]), max_expand=0)
        if root is not None:
            out.append(BandEdge(lam=root, kind=kind, multiplicity=1))
            crossed.add(int(j))
    for j in np.nonzero(sign == 0.0)[0]:
        mult = 2 if (0 < j < len(vals) - 1 and vals[j - 1] * vals[j + 1] > 0) else 1
        out.append(BandEdge(lam=float(nodes[j]), kind=kind, multiplicity=mult))
        crossed.add(int(j))
        crossed.add(int(j) - 1)
    mag = np.abs(vals)
    for j in range(1, len(nodes) - 1):
        if j in crossed or (j - 1) in crossed:
            continue
        if not (mag[j] < mag[j - 1] and mag[j] <= mag[j + 1]
                and vals[j - 1] * vals[j + 1] > 0.0 and mag[j] <= 0.5):
            continue
        out.extend(_tangency(f, float(nodes[j - 1]), float(nodes[j + 1]), kind))
    return out


def _tangency(f, a, b, kind):
    """Classify an extremum candidate of Delta near the target line.

    Polishes the extremum at full steps from both directions (the coarse sign
    can be noise near a closed gap), then either records a double edge, a pair
    of close simple crossings, or nothing (extremum short of the line).
    """
    opts = {"xatol": 1e-12}
    down = minimize_scalar(f, bounds=(a, b), method="bounded", options=opts)
    up = minimize_scalar(lambda t: -f(t), bounds=(a, b), method="bounded", options=opts)
    if abs(down.fun) <= abs(up.fun):
        lam, extremum, inward = float(down.x), float(down.fun), 1.0
    else:
        lam, extremum, inward = float(up.x), -float(up.fun), -1.0
    if abs(extremum) <= TANGENCY_TOL:
        return [BandEdge(lam=lam, kind=kind, multiplicity=2)]
    if extremum * inward > 0.0:
        return []  # extremum stops short of the target line: no edge here
    # dipped through at full resolution: two nearby simple roots
    roots = []
    for lo, hi in ((a, lam), (lam, b)):
        root = _polish_bracket(f, lo, hi, max_expand=0)
        if root is not None:
            roots.append(BandEdge(lam=root, kind=kind, multiplicity=1))
    return roots


def gap_check(m, lam_min, lam_max, steps=DEFAULT_STEPS, edge_tol=1e-6):
    """Count auxiliary points per spectral gap over [lam_min, lam_max].

    Passes when every interior gap holds exactly one mu (closed gaps count
    the pinned mu through an edge tolerance), the region below the lowest
    band edge holds none, and no mu sits inside a band.  A gap cut off by
    the window top may hold at most one.
    """
    edges = periodic_spectrum(m, lam_min, lam_max, steps)
    aux = auxiliary_spectrum(m, lam_min=max(lam_min, GUARD_BAND), lam_max=lam_max,
                             steps=steps)
    seq = []
    for e in edges:
        seq.extend([e.lam] * e.multiplicity)

    def tol_at(x):
        return edge_tol * max(1.0, abs(x))

    raw_gaps = []
    i = 1
    while i < len(seq):
        if i + 1 < len(seq):
            raw_gaps.append((seq[i], seq[i + 1], False))
        else:
            raw_gaps.append((seq[i], lam_max, True))
        i += 2

    gap_mus = [[] for _ in raw_gaps]
    ground, stray = [], []
    for pt in aux:
        for k, (lo, hi, cut) in enumerate(raw_gaps):
            if lo - tol_at(lo) <= pt.mu <= hi + tol_at(hi):
                gap_mus[k].append(pt.mu)
                break
        else:
            if seq and pt.mu < seq[0]:
                ground.append(pt.mu)
            else:
                stray.append(pt.mu)

    passed = not ground and not stray
    gaps = []
    for (lo, hi, cut), mus in zip(raw_gaps, gap_mus):
        ok = len(mus) <= 1 if cut else len(mus) == 1
        passed = passed and ok
        gaps.append(GapCount(lo=lo, hi=hi, closed=hi - lo <= tol_at(hi),
                             cut=cut, mus=tuple(mus)))
    return GapCheck(edges=edges, gaps=gaps, aux=aux,
                    ground=tuple(ground), stray=tuple(stray), passed=passed)
