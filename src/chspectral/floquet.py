"""Floquet discriminant, multipliers, auxiliary spectrum, and band/gap layout.

The discriminant is half the monodromy trace; auxiliary points are the zeros
mu_i of y2(1, .) with multiplier rho_i = y2'(1, mu_i), found by a coarse
batched scan plus full-step polishing.  Band edges are the lambda where the
discriminant meets +-1.  Each spectral gap holds exactly one mu_i (Hill's
theorem), so the edges are bracketed between consecutive auxiliary points;
an auxiliary point on an edge is that edge, counted twice when it closes
its gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

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
EDGE_TOL = 1e-6         # relative distance at which a point counts as on an edge
_BRENT_XTOL = 1e-13
_BRENT_RTOL = 8.9e-16   # scipy refuses anything below 4 * machine eps
_KINDS = {1.0: "periodic", -1.0: "antiperiodic"}


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
    roots = _aux_roots(m, lo, hi, scan_steps, steps)
    for _ in range(11):
        if lam_max is not None or len(roots) >= count:
            break
        # grow upward by the rule that set the first window; scan only the new part
        lo, hi = hi, max(2.0 * hi, hi + 50.0)
        roots = _dedupe(roots + _aux_roots(m, lo, hi, scan_steps, steps))
    if lam_max is None and len(roots) < count:
        raise RuntimeError(f"found only {len(roots)} auxiliary points below lambda={hi:g}")
    if count is not None:
        roots = roots[:count]
    return [_assemble_point(m, k + 1, mu, steps) for k, mu in enumerate(roots)]


def _dirichlet(m, steps):
    """lam -> y2(1, lam), whose zeros are the auxiliary points."""
    def g(lam):
        return propagate(m, lam, ShootingState(0.0, 0.0, 1.0, lam), 1.0, steps).psi
    return g


def _aux_roots(m, lo, hi, scan_steps, steps):
    nodes = _scan_nodes(lo, hi)
    vals, _ = endpoint_column(m, nodes, (0.0, 1.0), scan_steps)
    g = _dirichlet(m, steps)
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
    w = max(1e-7, 1e-9 * max(1.0, abs(point.mu)))
    mu = _polish_bracket(_dirichlet(m, steps), point.mu - w, point.mu + w, max_expand=8)
    if mu is None:
        raise RuntimeError(f"lost the root near mu={point.mu:.12g} at steps={steps}")
    return _assemble_point(m, point.index, mu, steps)


def _jordan(point):
    """Degenerate point whose monodromy is a nontrivial Jordan block, not +-I."""
    return point.degenerate and abs(point.dy1_end) > JORDAN_TOL * max(1.0, abs(point.mu))


def second_floquet(m, point, steps=None):
    """Trajectories (y1, y2, y, b) at mu over one period [0, 1].

    y1, y2 are the fundamental pair it integrates, returned so that callers
    need not integrate them again.  y2 carries multiplier rho, y2(x+1) =
    rho y2(x); the companion y has y(0) = 1 and multiplier 1/rho.  Away from
    band edges y = y1 + b y2 with b = y1'(1) / (1/rho - rho).  At a band edge
    with U = +-I the first fundamental solution is itself Floquet and comes
    back as y with b = 0; a nontrivial Jordan block admits no second Floquet
    solution and raises JordanGapError before anything is integrated.
    """
    if _jordan(point):
        raise JordanGapError(
            f"monodromy at mu={point.mu:.8g} is a nontrivial Jordan block; "
            "gradient of the multiplier is undefined there")
    t1, t2 = solve_fundamental(m, point.mu, steps=steps or point.steps)
    if point.degenerate:
        return t1, t2, t1, 0.0
    b = point.dy1_end / (1.0 / point.rho - point.rho)
    return t1, t2, t1.combine(t2, b), b


def periodic_spectrum(m, lam_min, lam_max, steps=DEFAULT_STEPS, points=None):
    """Band edges (Delta = +-1) in a window, closed gaps counted twice.

    points is the window's full auxiliary set at the same steps, computed
    when not given.  Each gap holds one point, so between consecutive
    anchors (window ends, lambda = 0, points) Delta - 1 and Delta + 1 each
    change sign at most once.  A degenerate point with U = +-I closes its
    gap: a double edge.  Any other degenerate point may sit on an edge,
    where the sign of Delta -+ 1 is rounding, so two anchors EDGE_TOL to
    either side replace it; when neither lies in its gap, mu is a double edge.
    """
    if points is None:
        points = auxiliary_spectrum(m, lam_min=lam_min, lam_max=lam_max, steps=steps)

    def anchor(lam):
        return lam, discriminant(m, lam, steps)

    anchors = [anchor(lam_min), anchor(lam_max)]
    if lam_min < 0.0 < lam_max:
        anchors.append((0.0, math.cosh(0.5)))
    edges = []
    for pt in points:
        t = math.copysign(1.0, pt.delta)
        if not pt.degenerate:
            anchors.append((pt.mu, pt.delta))
        elif not _jordan(pt):
            edges.append(BandEdge(pt.mu, _KINDS[t], 2))
            anchors.append((pt.mu, 0.0))    # Delta on both sides lies in the band
        else:
            w = EDGE_TOL * max(1.0, abs(pt.mu))
            probes = [anchor(min(max(lam, lam_min), lam_max)) for lam in (pt.mu - w, pt.mu + w)]
            if all((d - t) * t <= 0.0 for _, d in probes):
                edges.append(BandEdge(pt.mu, _KINDS[t], 2))
            anchors.extend(probes)
    anchors.sort()
    for (a, fa), (b, fb) in zip(anchors, anchors[1:]):
        for t, kind in _KINDS.items():
            if (fa - t) * (fb - t) <= 0.0:
                lam = brentq(lambda x: discriminant(m, x, steps) - t, a, b,
                             xtol=_BRENT_XTOL, rtol=_BRENT_RTOL)
                edges.append(BandEdge(lam, kind, 1))
    edges.sort(key=lambda e: e.lam)
    return edges


def gap_check(m, lam_min, lam_max, steps=DEFAULT_STEPS, edge_tol=EDGE_TOL):
    """Count auxiliary points per spectral gap over [max(lam_min, GUARD_BAND), lam_max].

    Passes when every interior gap holds exactly one mu (closed gaps count
    the pinned mu through an edge tolerance), the region below the lowest
    band edge holds none, and no mu sits inside a band.  A gap cut off by
    the window top may hold at most one.
    """
    lo = max(lam_min, GUARD_BAND)
    aux = auxiliary_spectrum(m, lam_min=lo, lam_max=lam_max, steps=steps)
    edges = periodic_spectrum(m, lo, lam_max, steps, points=aux)
    seq = [e.lam for e in edges for _ in range(e.multiplicity)]

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
