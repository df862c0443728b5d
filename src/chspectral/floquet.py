"""Floquet discriminant, multipliers, auxiliary spectrum, and band/gap layout.

The discriminant is half the monodromy trace; auxiliary points are the zeros
mu_i of y2(1, .) with multiplier rho_i = y2'(1, mu_i).  The Sturm count (the
sign changes of y2(., lambda) on (0, 1), #{0 < mu_i < lambda} for lambda > 0)
brackets each point alone and gives its index; brentq polishes it at the full
step count.  Band edges are the lambda where the discriminant meets +-1.
Each spectral gap holds exactly one mu_i (Hill's theorem), so the edges are
bracketed between consecutive auxiliary points; an auxiliary point on an
edge is that edge, counted twice when it closes its gap.  hill_problems
checks a window's points and edges against that pattern without
integrating anything.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .roots import _brentq as brentq
from .shooting import (
    DEFAULT_STEPS,
    endpoint_column,
    fundamental_matrix,
    positive_part_vanishes,
    solve_fundamental,
    zero_count,
)

GUARD_BAND = 1e-6       # default lower edge of the auxiliary window, just above 0
DEGENERATE_TOL = 1e-8   # |y1(1, mu) - y2'(1, mu)| (= 1/rho - rho) cut for the band-edge flag
JORDAN_TOL = 1e-6       # |y1'(1, mu)| scale separating U = +-I from a Jordan block
EDGE_TOL = 1e-6         # relative distance at which a point counts as on an edge
_BRENT_XTOL = 1e-13
_BRENT_RTOL = 8.9e-16   # just above 4 * machine eps, the least rtol brentq accepts
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


def discriminant(m, lam, steps=DEFAULT_STEPS):
    """Delta(lambda) = (y1(1) + y2'(1)) / 2."""
    return 0.5 * fundamental_matrix(m, lam, 1.0, steps).trace


def discriminant_sweep(m, lams, steps=DEFAULT_STEPS):
    """Delta over an array of spectral points: both columns in one batched pass."""
    psi, dpsi = endpoint_column(m, lams, np.eye(2), steps)
    return 0.5 * (psi[0] + dpsi[1])


def auxiliary_spectrum(m, lam_min=GUARD_BAND, lam_max=None, count=None,
                       steps=DEFAULT_STEPS):
    """Zeros mu_i of y2(1, .) in a window, each bracketed alone by the Sturm count.

    Give lam_max, count, or both; count keeps the window's lowest points.  The
    window, cut at 0 when it straddles 0, is bisected on zero_count until each
    piece holds one point, which brentq polishes at the full step count.  A
    point above 0 has index N(mu) + 1, one below 0 has -1, -2, ... downward.
    With count alone the top grows by max(2 hi, hi + 50), one count a step, to
    at most 12 tops; with lam_min >= 0 a coefficient with no positive part
    raises ValueError at once: it has no point above 0.
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

    @functools.lru_cache(maxsize=None)
    def monodromy(lam):
        # U(1, lam), each lambda integrated once per search
        return fundamental_matrix(m, lam, 1.0, steps)

    def g(lam):
        return monodromy(lam).y2

    @functools.lru_cache(maxsize=None)
    def signed(lam):
        # #{0 < mu < lam} above 0, -#{lam < mu < 0} below: nondecreasing in lam
        return int(math.copysign(zero_count(m, lam, steps), lam))

    lo = float(lam_min)
    tops = [float(lam_max) if lam_max is not None else max(2.0 * lo, lo + 50.0)]
    while lam_max is None and signed(tops[-1]) - signed(lo) < count and len(tops) < 12:
        tops.append(max(2.0 * tops[-1], tops[-1] + 50.0))
    if lam_max is None and signed(tops[-1]) - signed(lo) < count:
        raise RuntimeError(f"found only {signed(tops[-1]) - signed(lo)} auxiliary points "
                           f"below lambda={tops[-1]:g}")
    cuts = [c for c in sorted({lo, 0.0, *tops}) if lo <= c <= tops[-1]]

    def points(a, b):
        # (mu, index) of the points in (a, b), ascending
        inside = signed(b) - signed(a)
        index = signed(a) + 1 if a >= 0.0 else signed(b) - 1
        c = 0.5 * (a + b)
        if inside == 1 and g(a) * g(b) < 0.0:
            yield brentq(g, a, b, xtol=_BRENT_XTOL, rtol=_BRENT_RTOL), index
        elif inside and a < c < b:
            yield from points(a, c)
            yield from points(c, b)
        elif inside == 1:
            # too narrow to split: the point sits at an end, within rounding of y2(1)
            yield min((a, b), key=lambda x: abs(g(x))), index
        elif inside:
            raise RuntimeError(f"{inside} auxiliary points counted in an unsplittable "
                               f"piece at lambda={a:.17g}")

    found = itertools.chain.from_iterable(points(a, b) for a, b in zip(cuts, cuts[1:]))
    return [_assemble_point(index, mu, monodromy(mu), steps)
            for mu, index in itertools.islice(found, count)]


def _assemble_point(index, mu, U, steps):
    delta = 0.5 * U.trace
    return AuxiliaryPoint(index=index, mu=mu, rho=U.dy2, rho_tilde=U.y1,
                          delta=delta, dy1_end=U.dy1,
                          degenerate=abs(U.y1 - U.dy2) <= DEGENERATE_TOL,
                          steps=steps)


def refine_point(m, point, steps):
    """The point of the same Sturm index at a different step count, searched
    for by auxiliary_spectrum within 17 max(1e-7, 1e-9 max(1, |mu|)) of mu."""
    w = 17.0 * max(1e-7, 1e-9 * max(1.0, abs(point.mu)))
    for pt in auxiliary_spectrum(m, point.mu - w, point.mu + w, steps=steps):
        if pt.index == point.index:
            return pt
    raise RuntimeError(f"lost the root near mu={point.mu:.12g} at steps={steps}")


def _jordan(point):
    """Degenerate point whose monodromy is a nontrivial Jordan block, not +-I."""
    return point.degenerate and abs(point.dy1_end) > JORDAN_TOL * max(1.0, abs(point.mu))


def second_floquet(m, point):
    """Trajectories (y1, y2, y, b) at mu over one period [0, 1], integrated at
    the point's own step count, the one its mu was polished at.

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
    t1, t2 = solve_fundamental(m, point.mu, steps=point.steps)
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
    # Delta at every lambda met so far; a point's delta is Delta at its mu, bit for bit
    known = {pt.mu: pt.delta for pt in points if pt.steps == steps}

    def delta_at(lam):
        if lam not in known:
            known[lam] = discriminant(m, lam, steps)
        return known[lam]

    def anchor(lam):
        return lam, delta_at(lam)

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
                lam = brentq(lambda x: delta_at(x) - t, a, b,
                             xtol=_BRENT_XTOL, rtol=_BRENT_RTOL)
                edges.append(BandEdge(lam, kind, 1))
    edges.sort(key=lambda e: e.lam)
    return edges


def hill_problems(points, edges):
    """What breaks Hill's pattern in a window whose bottom lies in [0, GUARD_BAND].

    points and edges are the window's full auxiliary set and band edges, as
    auxiliary_spectrum and periodic_spectrum give them; nothing is
    integrated, and an empty list means the pattern holds.  Counted with
    multiplicity, the edges e_0 <= e_1 <= ... read periodic, antiperiodic
    twice, periodic twice, and so on; the points carry the indices 1..N; mu_n
    lies in gap n, [e_(2n-1), e_(2n)], within EDGE_TOL relative, where
    e_(2n) may be missing only above the window (a gap cut by the window
    top, or the half-infinite last gap of a purely atomic m); so there are
    2N to 2N + 2 edges.
    """
    seq = [e for e in edges for _ in range(e.multiplicity)]
    n = len(points)
    problems = []
    kinds = "".join(e.kind[0] for e in seq)
    order = "".join("pa"[(i + 1) // 2 % 2] for i in range(len(seq)))
    if kinds != order:
        problems.append(f"edge kinds {kinds}, Hill's order {order}")
    indices = [pt.index for pt in points]
    if indices != list(range(1, n + 1)):
        problems.append(f"point indices {indices} are not 1..{n}")
    if not 2 * n <= len(seq) <= 2 * n + 2:
        problems.append(f"{len(seq)} edges for {n} points, not {2 * n} to {2 * n + 2}")
    for pt in points:
        a, b = 2 * pt.index - 1, 2 * pt.index
        if not 0 < a < len(seq):
            continue    # no lower edge: the index or the edge count is wrong
        lo, hi = seq[a].lam, seq[b].lam if b < len(seq) else math.inf
        if not lo - EDGE_TOL * max(1.0, lo) <= pt.mu <= hi + EDGE_TOL * max(1.0, hi):
            problems.append(f"mu_{pt.index} = {pt.mu:.9g} lies outside gap {pt.index}, "
                            f"[{lo:.9g}, {hi:.9g}]")
    return problems
