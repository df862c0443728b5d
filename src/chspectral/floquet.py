"""Floquet discriminant, multipliers, auxiliary spectrum, and band/gap layout.

The discriminant is half the monodromy trace; auxiliary points are the zeros
mu_i of y2(1, .) with multiplier rho_i, y2'(1, mu_i) or 1/y1(1, mu_i),
whichever comes from the larger entry.  Band edges are the lambda where the
discriminant meets +-1; an auxiliary point on an edge is that edge, counted
twice when it closes its gap.

For purely atomic m = sum p_i delta(x - q_i), psi'' = psi/4 between the
atoms, so each spectrum is that of an n x n matrix: the reciprocal
eigenvalues of G P, G the Dirichlet, periodic or antiperiodic Green's
matrix of -D^2 + 1/4 at the q_i (the multipeakon problem of Beals,
Sattinger & Szmigielski).  Each root is polished by one secant step on the
monodromy's own y2(1, .) or Delta -+ 1, and its index is its rank.

Otherwise the Sturm count (the sign changes of y2(., lambda) on (0, 1),
#{0 < mu_i < lambda} for lambda > 0) brackets each point alone and gives its
index; brentq polishes it at the full step count.  Each spectral gap holds
exactly one mu_i (Hill's theorem), so the edges are bracketed between
consecutive auxiliary points.  hill_problems checks a window's points and
edges against that pattern without integrating anything.
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
_EIG_ERR = 4.0 * np.finfo(float).eps   # eigvalsh error, in n max|nu|, that a secant step may mend
_KINDS = {1.0: "periodic", -1.0: "antiperiodic"}


class JordanGapError(RuntimeError):
    """Monodromy is a nontrivial Jordan block; no second Floquet solution."""


@dataclass(frozen=True)
class AuxiliaryPoint:
    """One zero mu of y2(1, .) with the monodromy data evaluated there."""

    index: int
    mu: float
    rho: float          # the multiplier carried by y2: y2'(1, mu) or 1/y1(1, mu)
    rho_tilde: float    # 1/rho, the reciprocal multiplier
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
    """Zeros mu_i of y2(1, .) in a window, each with its Sturm index.

    Give lam_max, count, or both; count keeps the window's lowest points.  A
    point above 0 has index N(mu) + 1, one below 0 has -1, -2, ... downward.
    With lam_min >= 0 and no lam_max, a coefficient with no positive part
    raises ValueError at once: it has no point above 0.

    For purely atomic m the points are the reciprocal eigenvalues of the
    Dirichlet Green's matrix (_green_roots), each polished by one secant step
    on y2(1, .); the spectrum is finite, so count keeps at most all of it.
    Otherwise the window, cut at 0 when it straddles 0, is bisected on
    zero_count until each piece holds one point, which brentq polishes at
    the full step count; with count alone the top grows by max(2 hi, hi + 50),
    one count a step, to at most 12 tops.
    """
    if lam_max is None and count is None:
        raise ValueError("auxiliary_spectrum needs lam_max or count")
    if lam_max is None and lam_min >= 0.0 and positive_part_vanishes(m, steps):
        raise ValueError("m has no positive part (no atom weight and no sampled smooth "
                         "value is > 0), so y2(1, lambda) > 0 for every lambda > 0 and "
                         "there is no auxiliary point to count")

    @functools.lru_cache(maxsize=None)
    def monodromy(lam):
        # U(1, lam), each lambda integrated once per call
        return fundamental_matrix(m, lam, 1.0, steps)

    def g(lam):
        return monodromy(lam).y2

    roots = _green_roots(m, 0) if m.smooth_is_zero else None
    if roots is None:
        found = _searched_points(m, float(lam_min), lam_max, count, steps, g)
    else:
        found = _green_points(roots, lam_min, lam_max, g)
    return [_assemble_point(index, mu, monodromy(mu), steps)
            for mu, index in itertools.islice(found, count)]


def _searched_points(m, lo, lam_max, count, steps, g):
    """(mu, index) of the points of the window from lo up, ascending: the
    Sturm-count bisection of auxiliary_spectrum."""

    @functools.lru_cache(maxsize=None)
    def signed(lam):
        # #{0 < mu < lam} above 0, -#{lam < mu < 0} below: nondecreasing in lam
        return int(math.copysign(zero_count(m, lam, steps), lam))

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

    return itertools.chain.from_iterable(points(a, b) for a, b in zip(cuts, cuts[1:]))


def _green_points(roots, lam_min, lam_max, g):
    """(mu, index) of the Dirichlet roots (_green_roots) in the window,
    ascending, each polished on g = y2(1, .); the index is the root's rank
    within its sign, 1, 2, ... upward above 0 and -1, -2, ... downward below."""
    lams, bounds = roots
    below = int(np.count_nonzero(lams < 0.0))
    for i, (lam, bound) in enumerate(zip(lams.tolist(), bounds.tolist())):
        if lam_min <= lam and (lam_max is None or lam <= lam_max):
            yield _secant(g, lam, bound), i - below + (i >= below)


def _green(kind, q):
    """Green's matrix of -D^2 + 1/4 at the positions q: Dirichlet on [0, 1]
    (kind 0), periodic (kind 1) or antiperiodic (kind -1) on the unit circle."""
    if kind == 0:
        lo, hi = np.minimum.outer(q, q), np.maximum.outer(q, q)
        return 2.0 * np.sinh(0.5 * lo) * np.sinh(0.5 * (1.0 - hi)) / math.sinh(0.5)
    r = np.abs(np.subtract.outer(q, q))
    if kind == 1:
        return np.cosh(0.5 * (r - 0.5)) / math.sinh(0.25)
    return np.sinh(0.5 * (0.5 - r)) / math.cosh(0.25)


def _green_roots(m, kind):
    """The Dirichlet (kind 0), periodic (1) or antiperiodic (-1) spectrum of
    the purely atomic m, ascending, with the distance within which a secant
    step may move each root; None when the Green's matrix G does not factor.

    Between the atoms psi'' = psi/4, so psi(q_i) = lambda sum_j G_ij p_j
    psi(q_j), and 1/lambda are the eigenvalues of G P = L L^T P, those of the
    symmetric L^T P L.  Atoms of weight 0 would give eigenvalues 0, and an
    atom at q = 0 a zero row of the Dirichlet G: neither is seen, so both
    are left out.  An eigenvalue nu carries an error of about n eps max|nu|,
    lambda^2 times that in lambda; a step also stays within half the
    distance to the neighbouring roots.
    """
    atoms = [(a.q, a.p) for a in m.atoms if a.p != 0.0 and (kind or a.q != 0.0)]
    if not atoms:
        return np.empty(0), np.empty(0)
    q, p = np.array(atoms).T
    try:
        chol = np.linalg.cholesky(_green(kind, q))
    except np.linalg.LinAlgError:
        return None     # atoms a rounding apart: G is singular to working precision
    nu = np.linalg.eigvalsh(chol.T @ (p[:, None] * chol))
    lams = np.sort(1.0 / nu)
    gaps = np.diff(lams, prepend=-np.inf, append=np.inf)
    bounds = np.minimum(_EIG_ERR * len(q) * np.max(np.abs(nu)) * lams ** 2,
                        0.5 * np.minimum(gaps[:-1], gaps[1:]))
    return lams, bounds


def _secant(f, x, bound):
    """x after one secant step on f through x and x + bound, kept only when
    it moves x by less than bound."""
    fx = f(x)
    y = x + bound
    fy = f(y)
    if fx == 0.0 or fy == fx:
        return x
    root = y - fy * (y - x) / (fy - fx)
    return root if abs(root - x) < bound else x


def _assemble_point(index, mu, U, steps):
    """The point at mu from its monodromy U.  At mu, y1(1) y2'(1) = det U = 1,
    and the smaller of the two entries loses its digits to cancellation, so
    rho comes from the larger: y2'(1) when |y2'(1)| >= |y1(1)|, else
    1/y1(1); rho_tilde = 1/rho."""
    rho = U.dy2 if abs(U.dy2) >= abs(U.y1) else 1.0 / U.y1
    return AuxiliaryPoint(index=index, mu=mu, rho=rho, rho_tilde=1.0 / rho,
                          delta=0.5 * U.trace, dy1_end=U.dy1,
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


def periodic_spectrum(m, lam_min, lam_max, steps=DEFAULT_STEPS, *, points):
    """Band edges (Delta = +-1) in a window, closed gaps counted twice.

    points is the window's full auxiliary set at the same steps, from
    auxiliary_spectrum.  A degenerate point with U = +-I closes its gap: a
    double edge at its mu.  For purely atomic m the edges are the reciprocal
    eigenvalues of the periodic and antiperiodic Green's matrices
    (_green_roots), each simple one polished by one secant step on Delta -+ 1;
    a closed gap's two nearest ones give way to its double edge.  Otherwise
    each gap holds one point, so between consecutive anchors (window ends,
    lambda = 0, points) Delta - 1 and Delta + 1 each change sign at most once.
    Any other degenerate point may sit on an edge, where the sign of
    Delta -+ 1 is rounding, so two anchors EDGE_TOL to either side replace it;
    when neither lies in its gap, mu is a double edge.
    """
    # Delta at every lambda met so far; a point's delta is Delta at its mu, bit for bit
    known = {pt.mu: pt.delta for pt in points if pt.steps == steps}

    def delta_at(lam):
        if lam not in known:
            known[lam] = discriminant(m, lam, steps)
        return known[lam]

    if m.smooth_is_zero:
        edges = _green_edges(m, lam_min, lam_max, points, delta_at)
        if edges is not None:
            return edges

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


def _green_edges(m, lam_min, lam_max, points, delta_at):
    """periodic_spectrum of purely atomic m from its Green's matrices, in
    Hill's order (_hill_slots); None when one of them does not factor."""
    slotted = []
    for t, kind in _KINDS.items():
        roots = _green_roots(m, int(t))
        if roots is None:
            return None
        lams, bounds = roots
        slots = _hill_slots(lams, t)
        simple = np.ones(lams.size, dtype=bool)
        for pt in points:
            if pt.degenerate and not _jordan(pt) and math.copysign(1.0, pt.delta) == t:
                # U = +-I at mu: the two roots nearest it are one double root
                pair = np.argsort(np.abs(lams - pt.mu))[:2]
                simple[pair] = False
                slotted.append((slots[pair].min(), BandEdge(pt.mu, kind, 2)))
        for lam, bound, slot in zip(*(a[simple].tolist() for a in (lams, bounds, slots))):
            if lam_min <= lam <= lam_max:
                lam = _secant(lambda x: delta_at(x) - t, lam, bound)
                slotted.append((slot, BandEdge(lam, kind, 1)))
    return [edge for _, edge in sorted(slotted, key=lambda s: s[0])]


def _hill_slots(lams, t):
    """Places of the ascending periodic (t = 1) or antiperiodic (t = -1)
    roots lams in Hill's order: outward from lambda = 0 on either side the
    edges read periodic, antiperiodic twice, periodic twice, ..., so the
    j-th root of a kind from 0 (j = 0, 1, ...) takes place 2j + j % 2 if
    periodic, 2j + 1 - j % 2 if antiperiodic; the places below 0 count
    down from -1.  In a band narrower than rounding the polished values of
    its two edges may read an ulp or two against this order."""
    j = np.arange(lams.size) - np.count_nonzero(lams < 0.0)
    j = np.where(j < 0, -1 - j, j)
    place = 2 * j + (j % 2 if t > 0 else 1 - j % 2)
    return np.where(lams < 0.0, -1 - place, place)


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
