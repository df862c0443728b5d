"""Shooting integration of psi'' = psi/4 - lambda m psi across one or two periods.

Smooth stretches use fixed-step classical RK4 in step-matrix form: one step
over [x, x+h] is a 2x2 matrix built from c = 1/4 - lambda m at x, x+h/2 and
x+h, with entries quadratic in lambda.  For one lambda a pairwise tree
multiplies a stretch's step matrices; a batch of lambdas advances its columns
step by step with the lambdas as vector lanes; a dense trajectory is a prefix
scan.  Only rounding depends on the association: the scheme is RK4 and
doubling the step count cuts its error by about 16.  Stretches where the
smooth part vanishes identically use the exact propagator; delta atoms act
through the jump psi' -> psi' - lambda p psi(q).  Trajectories are stored
segment by segment with atom positions duplicated (pre/post derivative).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

DEFAULT_STEPS = 4096
BLOWUP_GUARD = 1e300


class BlowUpError(RuntimeError):
    """Trajectory magnitude exceeded the overflow guard."""


@dataclass(frozen=True)
class ShootingState:
    """Cauchy data (psi, psi') at position x for spectral parameter lam."""

    x: float
    psi: float
    dpsi: float
    lam: float


@dataclass(frozen=True)
class FundamentalMatrix:
    """Transfer matrix U(x, lam) = [[y1, y2], [dy1, dy2]] with unit det."""

    x: float
    lam: float
    y1: float
    y2: float
    dy1: float
    dy2: float

    @property
    def det(self):
        return self.y1 * self.dy2 - self.dy1 * self.y2

    @property
    def trace(self):
        return self.y1 + self.dy2


@dataclass(frozen=True)
class SolutionTrajectory:
    """Dense (psi, psi') samples along segment grids over [0, periods].

    xs contains each atom position twice (pre- and post-jump row); segments
    lists inclusive index ranges (start, stop) of the uniform pieces.
    """

    lam: float
    xs: np.ndarray
    psi: np.ndarray
    dpsi: np.ndarray
    segments: tuple[tuple[int, int], ...]
    periods: int
    steps: int
    period_stride: int
    segments_per_period: int

    def first_period(self):
        """View restricted to [0, 1]."""
        if self.periods == 1:
            return self
        stop = self.period_stride
        return replace(self, xs=self.xs[:stop], psi=self.psi[:stop], dpsi=self.dpsi[:stop],
                       segments=self.segments[: self.segments_per_period], periods=1)

    def combine(self, other, coeff):
        """Trajectory of self + coeff * other (same lam, same grid)."""
        if other.lam != self.lam or other.xs.shape != self.xs.shape:
            raise ValueError("trajectories live on different grids or spectral points")
        return replace(self, psi=self.psi + coeff * other.psi,
                       dpsi=self.dpsi + coeff * other.dpsi)

    def value_at(self, x):
        """psi at a stored grid position (exact match required)."""
        idx = np.nonzero(self.xs == x)[0]
        if idx.size == 0:
            raise ValueError(f"x={x} is not a stored grid point")
        return float(self.psi[idx[0]])


def _segment_breaks(atoms, x0, x1):
    """Atom crossing positions in [x0, x1), ordered."""
    return sorted((max(a.q + k, x0), a.p) for a in atoms
                  for k in range(math.ceil(x0 - a.q), math.ceil(x1 - 1e-14 - a.q)))


def _segment(steps, a, b):
    # even step count so Simpson applies segment-wise; returns (n, h)
    n = max(2, int(math.ceil(steps * (b - a))))
    n += n % 2
    return n, (b - a) / n


def _check_guard(psi, dpsi):
    bad = (np.any(np.abs(psi) > BLOWUP_GUARD) or np.any(np.abs(dpsi) > BLOWUP_GUARD)
           or not (np.all(np.isfinite(psi)) and np.all(np.isfinite(dpsi))))
    if bad:
        raise BlowUpError("trajectory exceeded the overflow guard 1e300")


def _march(atoms, lam, psi, dpsi, x0, x1, advance):
    """Carry Cauchy data from x0 to x1: advance(psi, dpsi, a, b) across each
    atom-free stretch, psi' -> psi' - lam p psi at each atom (arrays change in
    place).  Overflow ends as inf or nan, which the guard turns into BlowUpError.
    """
    pos = x0
    for break_x, weight in _segment_breaks(atoms, x0, x1):
        if break_x > pos:
            psi, dpsi = advance(psi, dpsi, pos, break_x)
            pos = break_x
        dpsi -= lam * weight * psi
    if x1 > pos:
        psi, dpsi = advance(psi, dpsi, pos, x1)
    _check_guard(psi, dpsi)
    return psi, dpsi


def _exact_advance(psi, dpsi, a, b):
    """Exact propagator over a zero-coefficient stretch (arrays change in place)."""
    ch, sh = np.cosh(0.5 * (b - a)), np.sinh(0.5 * (b - a))
    half = 0.5 * sh * psi
    psi *= ch
    psi += 2.0 * sh * dpsi
    dpsi *= ch
    dpsi += half
    return psi, dpsi


# ---------------------------------------------------------------------------
# RK4 step matrices.  With c at x, x+h/2, x+h (ca, cb, cc), s = h^2/6 and
# q = h^4/24, the four RK4 stages over [x, x+h] compose to I + D with
#     d00 = s (ca + 2 cb) + q ca cb        d01 = h (1 + s cb)
#     d10 = h (ca + 4 cb + cc) / 6 + (h s / 2) cb (ca + cc)
#     d11 = s (2 cb + cc) + q cb cc
# A matrix travels as I + D, D as rows (d00, d01, d10, d11): the identity is
# never rounded into a step, so n equal steps do not gather n roundings of 1 + d.

def _step_entries(ca, cb, cc, h):
    """Rows of D from c at the three nodes: the steps of one lambda, or lanes."""
    s = h * h / 6.0
    q = h ** 4 / 24.0
    return (s * (ca + 2.0 * cb) + q * ca * cb,
            h + (h * s) * cb,
            (h / 6.0) * (ca + 4.0 * cb + cc) + (0.5 * h * s) * cb * (ca + cc),
            s * (2.0 * cb + cc) + q * cb * cc)


def _step_polys(msub, h):
    """Coefficients (n, 4, 3) of lambda^0, ^1, ^2 in the rows of D for c = 1/4 - lambda m
    (msub: m at the 2n+1 nodes); a batch sharing m pays one matmul per step."""
    ma, mb, mc = msub[0:-1:2], msub[1::2], msub[2::2]
    s = h * h / 6.0
    q = h ** 4 / 24.0
    zero = np.zeros_like(mb)
    diag = 0.75 * s + q / 16.0 + zero
    polys = ((diag, -s * (ma + 2.0 * mb) - 0.25 * q * (ma + mb), q * ma * mb),
             (h * (1.0 + 0.25 * s) + zero, -(h * s) * mb, zero),
             (h * (0.25 + s / 16.0) + zero,
              -(h / 6.0) * (ma + 4.0 * mb + mc) - (0.125 * h * s) * (ma + 2.0 * mb + mc),
              (0.5 * h * s) * mb * (ma + mc)),
             (diag, -s * (2.0 * mb + mc) - 0.25 * q * (mb + mc), q * mb * mc))
    return np.moveaxis(np.array(polys), -1, 0)


def _compose(a, b):
    """D of (I + a)(I + b), b acting first."""
    return (a[0] + b[0] + (a[0] * b[0] + a[1] * b[2]), a[1] + b[1] + (a[0] * b[1] + a[1] * b[3]),
            a[2] + b[2] + (a[2] * b[0] + a[3] * b[2]), a[3] + b[3] + (a[2] * b[1] + a[3] * b[3]))


def _apply(d, psi, dpsi):
    """(I + d) applied to the column (psi, dpsi)."""
    return psi + (d[0] * psi + d[1] * dpsi), dpsi + (d[2] * psi + d[3] * dpsi)


def _step_rows(m, lam, a, h, n):
    c = 0.25 - lam * m.smooth_value(a + 0.5 * h * np.arange(2 * n + 1))
    return np.array(_step_entries(c[0:-1:2], c[1::2], c[2::2], h))


def _tree_product(e):
    """e[:, n-1] ... e[:, 0] for rows e of shape (4, n), multiplied pairwise."""
    while e.shape[1] > 1:
        k = e.shape[1] // 2
        e = np.concatenate((_compose(e[:, 1:2 * k:2], e[:, 0:2 * k:2]), e[:, 2 * k:]), axis=1)
    return e[:, 0]


def _prefix_products(e):
    """In place, e[:, k] <- e[:, k] ... e[:, 0] (Hillis-Steele inclusive scan)."""
    shift = 1
    while shift < e.shape[1]:
        e[:, shift:] = _compose(e[:, shift:], e[:, :-shift])
        shift *= 2
    return e


def _one_lambda(m, lam, steps):
    """advance() for a single lambda: the tree product of each stretch."""
    if m.smooth_is_zero:
        return _exact_advance

    @np.errstate(over="ignore", invalid="ignore")
    def advance(psi, dpsi, a, b):
        n, h = _segment(steps, a, b)
        return _apply(_tree_product(_step_rows(m, lam, a, h, n)), psi, dpsi)
    return advance


# ---------------------------------------------------------------------------
# public operations

def delta_jump(state, p):
    """Cross an atom of weight p: psi continuous, psi' -> psi' - lam p psi."""
    return ShootingState(x=state.x, psi=state.psi,
                         dpsi=state.dpsi - state.lam * p * state.psi,
                         lam=state.lam)


def propagate(m, lam, state, x1, steps=DEFAULT_STEPS):
    """Advance Cauchy data from state.x to x1 (endpoint only).

    steps counts RK4 steps per unit length; stretches with an identically zero
    smooth part use the exact propagator instead.
    """
    if x1 < state.x:
        raise ValueError("backward propagation is not supported")
    psi, dpsi = _march(m.atoms, lam, state.psi, state.dpsi, state.x, x1,
                       _one_lambda(m, lam, steps))
    return ShootingState(x=x1, psi=float(psi), dpsi=float(dpsi), lam=lam)


def solve_fundamental(m, lam, steps=DEFAULT_STEPS, periods=1):
    """Dense fundamental pair y1 (1,0) and y2 (0,1) over [0, periods].

    Returns two SolutionTrajectory objects sharing one grid: a uniform grid per
    segment between atoms, atom positions stored twice (pre/post jump).  The
    state after every step is the prefix product of the step matrices applied
    to the state at the segment start.
    """
    if periods not in (1, 2):
        raise ValueError("periods must be 1 or 2")
    grids, states = [], []

    @np.errstate(over="ignore", invalid="ignore")
    def advance(psi, dpsi, a, b):
        n, h = _segment(steps, a, b)
        grid = a + (b - a) * np.arange(n + 1) / n
        if m.smooth_is_zero:
            ch, sh = np.cosh(0.5 * (grid - a)), np.sinh(0.5 * (grid - a))
            d = (ch - 1.0, 2.0 * sh, 0.5 * sh, ch - 1.0)
        else:
            d = np.zeros((4, n + 1))
            d[:, 1:] = _step_rows(m, lam, a, h, n)
            d = _prefix_products(d)
        # rows (y1, y2) of psi and of psi' at every grid point of the stretch
        psi, dpsi = _apply(d, psi[:, None], dpsi[:, None])
        grids.append(grid)
        states.append(np.vstack((psi, dpsi)))
        return psi[:, -1].copy(), dpsi[:, -1].copy()

    psi, dpsi = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    for k in range(periods):
        psi, dpsi = _march(m.atoms, lam, psi, dpsi, float(k), float(k + 1), advance)
    sizes = np.cumsum([0] + [g.size for g in grids])
    segments = tuple((int(i), int(j) - 1) for i, j in zip(sizes, sizes[1:]))
    segments_per_period = len(segments) // periods
    xs = np.concatenate(grids)
    rows = np.hstack(states)
    _check_guard(rows[:2], rows[2:])
    stride = segments[segments_per_period - 1][1] + 1 if periods == 2 else len(xs)
    common = dict(xs=xs, segments=segments, periods=periods, steps=steps,
                  period_stride=stride, segments_per_period=segments_per_period)
    return tuple(SolutionTrajectory(lam=lam, psi=rows[k], dpsi=rows[k + 2], **common)
                 for k in (0, 1))


def fundamental_matrix(m, lam, x=1.0, steps=DEFAULT_STEPS):
    """Transfer matrix U(x, lam) from the identity at 0: one product per stretch."""
    if not 0.0 <= x <= 2.0:
        raise ValueError("fundamental matrix is tracked over [0, 2] only")
    if x == 0.0:
        return FundamentalMatrix(x=0.0, lam=lam, y1=1.0, y2=0.0, dy1=0.0, dy2=1.0)
    # columns y1, y2 ride as the real and imaginary parts of one scalar lane
    psi, dpsi = _march(m.atoms, lam, 1.0 + 0.0j, 1.0j, 0.0, x, _one_lambda(m, lam, steps))
    return FundamentalMatrix(x=x, lam=lam, y1=float(psi.real), y2=float(psi.imag),
                             dy1=float(dpsi.real), dy2=float(dpsi.imag))


def wronskian(state_a, state_b):
    """psi_a psi_b' - psi_a' psi_b at matching position and spectral point."""
    if state_a.x != state_b.x:
        raise ValueError(f"states at different positions: {state_a.x} vs {state_b.x}")
    if state_a.lam != state_b.lam:
        raise ValueError(f"states at different spectral points: {state_a.lam} vs {state_b.lam}")
    return state_a.psi * state_b.dpsi - state_a.dpsi * state_b.psi


def trajectory_wronskian(ta, tb):
    """Pointwise Wronskian grid of two trajectories on one grid."""
    if ta.lam != tb.lam or ta.xs.shape != tb.xs.shape:
        raise ValueError("trajectories live on different grids or spectral points")
    return ta.psi * tb.dpsi - ta.dpsi * tb.psi


def positive_part_vanishes(m, steps=DEFAULT_STEPS):
    """True when no atom weight and no smooth value at an RK4 substep node is > 0.

    Then c >= 1/4 at every node for lambda > 0, so every step-matrix entry is
    positive and y2(1, lambda) > 0: no auxiliary point lies above lambda = 0.
    """
    peaks = [atom.p for atom in m.atoms]

    def record(psi, dpsi, a, b):
        n, h = _segment(steps, a, b)
        peaks.append(np.max(m.smooth_value(a + 0.5 * h * np.arange(2 * n + 1))))
        return psi, dpsi

    _march(m.atoms, 0.0, 0.0, 0.0, 0.0, 1.0, record)
    return max(peaks) <= 0.0


# ---------------------------------------------------------------------------
# batched endpoint maps over arrays of lambda (scan workhorse)

def endpoint_column(m, lams, column=(0.0, 1.0), steps=DEFAULT_STEPS, x1=1.0):
    """Endpoint (psi, psi') at x1 for an array of spectral points.

    column is the Cauchy data (psi, psi') at 0 shared by the batch; a (2, k)
    array holds k columns, which advance in one pass and give results with a
    leading axis of length k.  Each step matrix is evaluated once per step for
    the whole batch, as its lambda-polynomial coefficients times (1, lam, lam^2).
    """
    lams = np.asarray(lams, dtype=float)
    psi, dpsi = (np.multiply.outer(c, np.ones(lams.shape)) for c in np.asarray(column, float))
    shape = (4,) + lams.shape

    def advance(psi, dpsi, a, b):
        # _apply written out in place: no allocation per step
        powers = np.stack((np.ones(lams.size), lams.ravel(), lams.ravel() ** 2))
        n, h = _segment(steps, a, b)
        polys = _step_polys(m.smooth_value(a + 0.5 * h * np.arange(2 * n + 1)), h)
        d = np.empty((4, lams.size))
        d00, d01, d10, d11 = d.reshape(shape)
        inc, dinc, tmp = np.empty_like(psi), np.empty_like(psi), np.empty_like(psi)
        for i in range(n):
            np.matmul(polys[i], powers, out=d)
            np.multiply(d00, psi, out=inc)
            inc += np.multiply(d01, dpsi, out=tmp)
            np.multiply(d10, psi, out=dinc)
            dinc += np.multiply(d11, dpsi, out=tmp)
            psi += inc
            dpsi += dinc
        return psi, dpsi

    return _march(m.atoms, lams, psi, dpsi, 0.0, x1,
                  _exact_advance if m.smooth_is_zero else advance)


def endpoint_column_variants(msub_fn, atoms, lams, column, steps, x0=0.0, x1=1.0):
    """Endpoint map where the coefficient varies across the batch.

    msub_fn(x) must return the smooth-part values at x as an array matching
    lams (the finite-difference oracle passes one hat-perturbed variant per
    batch member).  atoms is shared across variants.  Each step matrix comes
    from the lanes' own c; msub_fn is called once per substep node.
    """
    lams = np.asarray(lams, dtype=float)
    psi, dpsi = (np.multiply.outer(c, np.ones(lams.shape)) for c in np.asarray(column, float))

    def advance(psi, dpsi, a, b):
        n, h = _segment(steps, a, b)
        cc = 0.25 - lams * msub_fn(a)
        for j in range(1, 2 * n, 2):
            ca = cc
            cb = 0.25 - lams * msub_fn(a + 0.5 * h * j)
            cc = 0.25 - lams * msub_fn(a + 0.5 * h * (j + 1))
            psi, dpsi = _apply(_step_entries(ca, cb, cc, h), psi, dpsi)
        return psi, dpsi

    return _march(atoms, lams, psi, dpsi, x0, x1, advance)
