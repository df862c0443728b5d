"""Shooting integration of psi'' = psi/4 - lambda m psi across one period.

Every operation reduces one step table over [0, x1].  A row of the table is
a step, a 2x2 matrix I + D: the smooth stretches between the atoms come at
an even RK4 step count each, and every atom is a zero-length step whose D
carries the jump psi' -> psi' - lambda p psi(q).  Where the smooth part
vanishes identically a stretch is one exact step (psi'' = psi/4), except in
the dense pair, which keeps the RK4 grid; so purely atomic coefficients
bypass the integrator, and the table holds their exact steps, which do not
depend on lambda.  An RK4 step over [x, x+h] is built from c = 1/4 - lambda m
at x, x+h/2 and x+h, with entries quadratic in lambda; the table samples m_s
at those nodes once, when it is built.

Every operation but the dense pair and the hat runs reads the plain table.
An RK4 table composes runs of 16 rows into blocks I + B, whose entries are
polynomials in lambda, once, when it is built: a pairwise tree whose sums
run with the blocks as the innermost axis, the blocks stored C-contiguous
for the evaluations to read.  It also fixes the largest |lambda| at which
every block keeps a phase within 1 and its highest power of lambda within
2^1000.  For one lambda it admits, one matvec with the powers of
lambda evaluates the blocks.  Every other lambda, and every lambda of an
exact table, takes the rows themselves, formed from c as the dense pair
forms them, so that no lambda^2 overflows.  The transfer matrix is the
product of the blocks or rows: a short list is folded in Python floats, a
long one is a pairwise tree of 2x2 matrices.  The Sturm count folds y2 alone
at the block or row ends in Python floats, whatever the length.  A batch of
lambdas splits into the lanes the blocks admit and the rest, and each group
advances its columns block by block, or row by row, with the lambdas as
vector lanes.  The dense pair is a prefix scan of single rows.
Only rounding depends on the association: the scheme is RK4 and doubling
the step count cuts its error by about 16.

The dense pair's table starts with a zero-length step at x = 0 (the atom
there, if any) and the pair stores the state at the end of every row, so
x = 0 appears once and every other atom position twice (pre/post jump).
The dense table also gives the pair its integration weights: Simpson weights
w at the row ends, stretch by stretch, and the atom weights p, so that every
integral over the grid is a dot product with them.  It samples m_s and m_s'
at its row ends too, once, when it is built, and the pair carries them, so
no other module samples m on its grid.  The finite-difference hat runs
(bumped_endpoints) read the dense table too: a hat bump of m_s changes only
the steps under it, so over a run [a, b) of them the bumped monodromy is
U(1) U(b)^-1 H U(a), from the base pair U at the runs' ends and at x = 1 and
the run H alone.  Those base states alone are formed, for every lambda at
once: the rows between consecutive ends compose by a pairwise tree, and one
prefix scan over these runs gives the states.  H steps the rows under the
hat, their coefficients in lambda formed once from m_s + eps hat at their
nodes, as _rows forms a table's.  The hat at x = 0 wraps, so it has a run
from 0 and one to 1, a factor each.

A table is built once per (m, steps, x1, dense) per process, however a
caller spells the defaults, and kept read-only in a small LRU memo keyed by
the coefficient object (a coefficient loaded afresh builds its own): every
operation on the same m shares it, its one sampling of m and its blocks.  The
Floquet property y(x+1) = rho y(x) is a statement about U(1) alone, so
nothing here integrates past one period.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

DEFAULT_STEPS = 4096
BLOWUP_GUARD = 1e300
# up to this many rows _transfer folds in Python floats, above it numpy's
# pairwise tree wins (two_mode at 256 rows, interleaved medians on 2 vCPUs:
# tree ~90 us, fold ~120 us)
_FOLD_ROWS = 128
# step tables memoised per process: an op reads at most a plain and a dense
# table per coefficient; at 4096 steps they hold 0.1 and 0.33 MB, and an RK4
# plain one 0.27 MB more for its blocks
_TABLES_KEPT = 4
# runs of this many rows (a power of two) of an RK4 table compose into one
# block, for every |lambda| that keeps a run's phase within 1 (_block_limit)
_BLOCK_ROWS = 16


class BlowUpError(RuntimeError):
    """Trajectory magnitude exceeded the overflow guard."""


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
    """Dense (psi, psi') samples at the row ends of the dense table over [0, 1].

    xs contains each atom position twice (pre- and post-jump row).  The
    integral of f over the period is w @ f (Simpson's rule, stretch by
    stretch), and the atoms add p @ f, p being nonzero on post-jump rows only.
    """

    lam: float
    xs: np.ndarray
    psi: np.ndarray
    dpsi: np.ndarray
    w: np.ndarray
    p: np.ndarray
    ms: np.ndarray       # m_s and m_s' at xs
    dms: np.ndarray

    def combine(self, other, coeff):
        """Trajectory of self + coeff * other (same lam, same grid)."""
        if other.lam != self.lam or other.xs.shape != self.xs.shape:
            raise ValueError("trajectories live on different grids or spectral points")
        return replace(self, psi=self.psi + coeff * other.psi,
                       dpsi=self.dpsi + coeff * other.dpsi)


def _check_guard(*values):
    """Raise BlowUpError unless every value, a float or an array, stays
    within the guard; nan and inf fail the comparison too."""
    for v in values:
        within = abs(v) <= BLOWUP_GUARD
        if not (within if isinstance(within, bool) else within.all()):
            raise BlowUpError("trajectory exceeded the overflow guard 1e300")


# ---------------------------------------------------------------------------
# the step table

class _Table(NamedTuple):
    """Every step over [0, x1].  Row r has length h[r] (0 on an atom; h is
    one float when the rows are the steps of one stretch) and atom weight p[r]
    (0 off the atoms); m_s takes the values ms[2r : 2r + 3] at its RK4 nodes
    (ms is None when the rows are exact, and then exact holds their D, which
    does not depend on lambda).  Only the dense pair's table keeps the nodes,
    nodes[2r : 2r + 3], the row ends, row r ending at xs[r], and at the row
    ends the Simpson weights w and m_s, m_s' (mx, dmx).  Only a plain RK4
    table keeps blocks, the coefficients of its blocks of _BLOCK_ROWS rows as
    polynomials in lambda (_blocks), and limit, the largest |lambda| that
    admits them (_block_limit); any other table has no blocks and limit -1,
    which admits no lambda.  Every array is read-only."""

    xs: np.ndarray | None
    h: np.ndarray | float
    p: np.ndarray
    nodes: np.ndarray | None
    ms: np.ndarray | None
    w: np.ndarray | None
    mx: np.ndarray | None
    dmx: np.ndarray | None
    exact: np.ndarray | None
    blocks: np.ndarray | None = None
    limit: float = -1.0


def _table(m, steps, x1=1.0, dense=False):
    """The step table of m over [0, x1] at `steps` RK4 steps per unit length,
    the dense pair's with dense=True: one memo entry per table, however a
    caller spells the defaults."""
    return _built_table(m, steps, x1, dense)


@functools.lru_cache(maxsize=_TABLES_KEPT)
def _built_table(m, steps, x1, dense):
    """Build _table(m, steps, x1, dense): at least two RK4 steps per stretch,
    and an even count, so that Simpson's rule applies stretch by stretch;
    atoms at or above x1 - 1e-14 are left out.  The smooth part is sampled
    here, once, at the RK4 nodes and, for the dense pair, at the row ends.

    Row 0, the zero-length step at x = 0, is the atom there; the dense pair's
    table has it without one too, so that its grid holds x = 0 once.  A
    stretch of n steps of length h after row s adds h/3 [1, 4, 2, ..., 4, 1]
    to w[s : s + n + 1]: its first weight lands on row 0 or on the previous
    atom's post-jump row, its last on the next atom's pre-jump row.
    """
    atoms = [(a.q, a.p) for a in m.atoms if a.q < x1 - 1e-14]
    head = [atoms.pop(0)] if atoms and atoms[0][0] == 0.0 else [(0.0, 0.0)] if dense else []
    if m.smooth_is_zero and not dense:
        # rows [0,] stretch, atom, stretch, ..., atom, stretch
        h, p, pos = [0.0] * len(head), [w for _, w in head], 0.0
        for q, w in atoms:
            h += (q - pos, 0.0)
            p += (0.0, w)
            pos = q
        h = np.array(h + [x1 - pos])
        return _plain(_Table(None, h, np.array(p + [0.0]), None, None, None, None, None,
                             _exact(h)))
    # pieces (rows, h, p, row ends, nodes); row r's first node is row r-1's last
    pieces = [(1, 0.0, w, [0.0], [0.0, 0.0]) for _, w in head]
    size, pos, stretches = len(head), 0.0, []
    for q, w in atoms + [(x1, None)]:
        n = max(2, int(math.ceil(steps * (q - pos))))
        n += n % 2
        step = (q - pos) / n
        grid = pos + (q - pos) * np.arange(1, n + 1) / n if dense else ()
        pieces.append((n, step, 0.0, grid, pos + 0.5 * step * np.arange(1, 2 * n + 1)))
        stretches.append((size - 1, n, step))
        size += n
        if w is not None:
            pieces.append((1, 0.0, w, [q], [q, q]))
            size += 1
        pos = q
    rows, h, p, xs, nodes = zip(*pieces)
    # one stretch and no atom: every row has the same length, kept as one float
    h = h[0] if len(rows) == 1 else np.repeat(h, rows)
    nodes = np.concatenate(([0.0],) + nodes)
    if not dense:
        return _plain(_Table(None, h, np.repeat(p, rows), None, m.smooth_value(nodes),
                             None, None, None, None))
    xs = np.concatenate(xs)
    # one sampling of m_s: the nodes, then the row ends
    ms, mx = np.split(m.smooth_value(np.concatenate((nodes, xs))), [nodes.size])
    weights = np.zeros(size)
    for s, n, step in stretches:
        weights[s:s + n + 1] += step / 3.0 * np.r_[1.0, np.tile((4.0, 2.0), n // 2 - 1), 4.0, 1.0]
    ms = None if m.smooth_is_zero else ms
    return _frozen(_Table(xs, h, np.repeat(p, rows), nodes, ms, weights, mx,
                          m.smooth_derivative(xs), _exact(h) if ms is None else None))


def _plain(t):
    """The plain table t, frozen: an RK4 table with its blocks and their
    limit, an exact one with none, limit -1."""
    if t.ms is None:
        return _frozen(t)
    return _frozen(t._replace(blocks=_blocks(_rows(t)), limit=_block_limit(t)))


def _frozen(t):
    """t with every array read-only, as the memo shares it."""
    for a in t:
        if isinstance(a, np.ndarray):
            a.setflags(write=False)
    return t


# ---------------------------------------------------------------------------
# RK4 step matrices.  With c at x, x+h/2, x+h (ca, cb, cc), s = h^2/6 and
# q = h^4/24, the four RK4 stages over [x, x+h] compose to I + D with
#     d00 = s (ca + 2 cb) + q ca cb        d01 = h (1 + s cb)
#     d10 = h (ca + 4 cb + cc) / 6 + (h s / 2) cb (ca + cc)
#     d11 = s (2 cb + cc) + q cb cc
# A matrix travels as I + D, D as rows (d00, d01, d10, d11): the identity is
# never rounded into a step, so n equal steps do not gather n roundings of 1 + d.
# h = 0 gives the zero step.

def _step_entries(ca, cb, cc, h):
    """Rows of D from c at the three nodes: the steps of one lambda, or lanes."""
    s = h * h / 6.0
    q = h ** 4 / 24.0
    return (s * (ca + 2.0 * cb) + q * ca * cb,
            h + (h * s) * cb,
            (h / 6.0) * (ca + 4.0 * cb + cc) + (0.5 * h * s) * cb * (ca + cc),
            s * (2.0 * cb + cc) + q * cb * cc)


def _step_polys(ma, mb, mc, h):
    """Coefficients (..., 4, 3) of lambda^0, ^1, ^2 in the rows of D for
    c = 1/4 - lambda m, m taking the values ma, mb, mc at the steps' three
    nodes; a batch sharing m pays one matmul per step."""
    s = h * h / 6.0
    q = h ** 4 / 24.0
    polys = np.empty((4, 3) + np.broadcast_shapes(np.shape(mb), np.shape(h)))
    polys[0, 0] = polys[3, 0] = 0.75 * s + q / 16.0
    polys[0, 1] = -s * (ma + 2.0 * mb) - 0.25 * q * (ma + mb)
    polys[0, 2] = q * ma * mb
    polys[1, 0] = h * (1.0 + 0.25 * s)
    polys[1, 1] = -(h * s) * mb
    polys[1, 2] = 0.0
    polys[2, 0] = h * (0.25 + s / 16.0)
    polys[2, 1] = -(h / 6.0) * (ma + 4.0 * mb + mc) - (0.125 * h * s) * (ma + 2.0 * mb + mc)
    polys[2, 2] = (0.5 * h * s) * mb * (ma + mc)
    polys[3, 1] = -s * (2.0 * mb + mc) - 0.25 * q * (mb + mc)
    polys[3, 2] = q * mb * mc
    return np.moveaxis(polys, (0, 1), (-2, -1))


def _exact(h):
    """Rows of D of the exact propagator of psi'' = psi/4 over rows of length h."""
    # cosh(h/2) - 1 = 2 sinh(h/4)^2 keeps its digits on short steps
    ch1, sh = 2.0 * np.sinh(0.25 * h) ** 2, np.sinh(0.5 * h)
    return np.array((ch1, 2.0 * sh, 0.5 * sh, ch1))


def _entries(t, lam):
    """Rows of D of every row of the table t at one lambda, the jump
    -lambda p in d10."""
    if t.ms is None:
        d = t.exact.copy()
    else:
        c = 0.25 - lam * t.ms
        d = np.array(_step_entries(c[0:-1:2], c[1::2], c[2::2], t.h))
    d[2] -= lam * t.p
    return d


def _compose(a, b):
    """D of (I + a)(I + b), b acting first."""
    return (a[0] + b[0] + (a[0] * b[0] + a[1] * b[2]), a[1] + b[1] + (a[0] * b[1] + a[1] * b[3]),
            a[2] + b[2] + (a[2] * b[0] + a[3] * b[2]), a[3] + b[3] + (a[2] * b[1] + a[3] * b[3]))


def _apply(d, psi, dpsi):
    """(I + d) applied to the column (psi, dpsi)."""
    return psi + (d[0] * psi + d[1] * dpsi), dpsi + (d[2] * psi + d[3] * dpsi)


def _transfer(e):
    """Floats (y1, y2, y1', y2') of the product of the rows e (n, 4) of D, the
    first acting first: a short table folded row by row in Python floats, a
    long one multiplied pairwise as stacked 2x2 matrices."""
    if len(e) <= _FOLD_ROWS:
        y1, y2, dy1, dy2 = 1.0, 0.0, 0.0, 1.0
        for d00, d01, d10, d11 in e.tolist():
            y1, dy1 = y1 + (d00 * y1 + d01 * dy1), dy1 + (d10 * y1 + d11 * dy1)
            y2, dy2 = y2 + (d00 * y2 + d01 * dy2), dy2 + (d10 * y2 + d11 * dy2)
        return y1, y2, dy1, dy2
    # stacked matmuls take fewer numpy calls per level than _compose, which
    # wins on the long rows of a prefix scan instead
    e = e.reshape(-1, 2, 2)
    while len(e) > 1:
        k = len(e) % 2      # an odd row out waits at the front
        a, b = e[k + 1::2], e[k::2]
        ab = a + b
        ab += a @ b
        e = np.concatenate((e[:1], ab)) if k else ab
    return (e[0].ravel() + (1.0, 0.0, 0.0, 1.0)).tolist()


def _sign_changes(e):
    """Sign changes of y2 at the ends of the rows e (n, 4) of D, the first
    acting first, folded in Python floats; the guard holds at every row end."""
    y2, dy2, negative, changes = 0.0, 1.0, False, 0     # y2 > 0 just right of x = 0
    for d00, d01, d10, d11 in e.tolist():
        y2, dy2 = y2 + (d00 * y2 + d01 * dy2), dy2 + (d10 * y2 + d11 * dy2)
        if not (abs(y2) <= BLOWUP_GUARD and abs(dy2) <= BLOWUP_GUARD):
            _check_guard(y2, dy2)       # raises
        # -0.0 counts as negative, as np.signbit has it
        if (math.copysign(1.0, y2) < 0.0) is not negative:
            negative, changes = not negative, changes + 1
    return changes


def _prefix_products(e):
    """In place, e[:, k] <- e[:, k] ... e[:, 0] (Hillis-Steele inclusive scan)."""
    shift = 1
    while shift < e.shape[1]:
        e[:, shift:] = _compose(e[:, shift:], e[:, :-shift])
        shift *= 2
    return e


# ---------------------------------------------------------------------------
# public operations

def solve_fundamental(m, lam, steps=DEFAULT_STEPS):
    """Dense fundamental pair y1 (1,0) and y2 (0,1) over one period [0, 1].

    Returns two SolutionTrajectory objects sharing one grid, its weights and
    m_s, m_s' on it: a uniform grid per stretch between atoms, atom positions
    stored twice (pre/post jump).  The state after every row of the dense
    step table is the prefix product of the rows applied to the identity.
    """
    t = _table(m, steps, dense=True)
    psi, dpsi = _dense(t, lam)
    return tuple(SolutionTrajectory(lam=lam, xs=t.xs, psi=psi[k], dpsi=dpsi[k], w=t.w, p=t.p,
                                    ms=t.mx, dms=t.dmx) for k in (0, 1))


@np.errstate(over="ignore", invalid="ignore")
def _dense(t, lam):
    """Rows (y1, y2) of psi and of psi' at the end of every row of the dense table t."""
    d = _prefix_products(_entries(t, lam))
    psi, dpsi = _apply(d, np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]))
    _check_guard(psi, dpsi)
    return psi, dpsi


def _times(u, col):
    """The matrix with rows (u[0], u[1]), (u[2], u[3]) applied to a column."""
    return np.array((u[0] * col[0] + u[1] * col[1], u[2] * col[0] + u[3] * col[1]))


def bumped_endpoints(m, lams, sites, n, eps, steps=DEFAULT_STEPS):
    """(y2(1), y2'(1)) for m_s + eps hat, then m_s - eps hat, at each site and
    each lambda of the array lams, axes (sign, site, lambda).  A site's hat has
    unit mass and width 2/n and wraps; each run of steps under a hat is
    stepped in turn, all lanes together, on one dense table.  The base pair
    is formed only at the runs' ends and at x = 1 (_states); a run's rows
    come from their coefficients in lambda, formed once, one matmul per
    step."""
    t = _table(m, steps, dense=True)
    xs = t.xs
    lams = np.asarray(lams, dtype=float)
    centre = np.mod(sites, n) / n
    v = np.multiply.outer([0.0, 1.0], np.ones((2, centre.size, lams.size)))
    # every site's run from max(centre - 1/n, 0), then site 0's tail run to 1
    head = (np.arange(centre.size), np.maximum(centre - 1.0 / n, 0.0), centre + 1.0 / n)
    runs = [(j, np.searchsorted(xs, np.broadcast_to(lo, j.shape), "right") - 1,
             np.searchsorted(xs, np.broadcast_to(hi, j.shape), "left"))
            for j, lo, hi in (head, (np.nonzero(centre == 0.0)[0], 1.0 - 1.0 / n, 1.0))]
    ends, u = _states(t, np.concatenate([r for _, a, b in runs for r in (a, b)]), lams)
    powers = _powers(lams, 3)
    for j, a, b in runs:
        # rows (offset, site): table rows a + 1 ... b take state a to state b;
        # an offset past a run's end is a zero-length step
        off = np.arange(np.max(b - a, initial=0))[:, None]
        r = np.minimum(a + off, xs.size - 2) + 1
        node = 2 * r[:, None] + np.arange(3)[:, None]
        hat = n * np.clip(1.0 - n * np.abs(np.mod(t.nodes[node] - centre[j] + 0.5, 1.0) - 0.5),
                          0.0, None)
        base = 0.0 if t.ms is None else t.ms[node][:, :, None]
        # m at the nodes, axes (offset, node, sign, site)
        mk = base + hat[:, :, None] * [[eps], [-eps]]
        h, p = (np.where(off < b - a, w[r], 0.0)[:, None] for w in (t.h, t.p))
        polys = _step_polys(mk[:, 0], mk[:, 1], mk[:, 2], h)
        polys[..., 2, 1] -= p
        # axes (offset, entry, sign, site, power): one matmul per offset
        polys = np.moveaxis(polys, -2, 1)
        ua, ub = u[:, np.searchsorted(ends, a)], u[:, np.searchsorted(ends, b)]
        col = _times(ua, v[:, :, j])
        for k in range(len(off)):
            col = _apply(polys[k] @ powers, *col)
        # v + U(b)^-1 (H U(a) v - U(b) v): U(b)^-1 amplifies rounding where
        # c = 1/4 - lambda m > 0, so it maps back only the change H makes
        v[:, :, j] += (_times((ub[3], -ub[1], -ub[2], ub[0]), col - _times(ub, v[:, :, j]))
                       / (ub[0] * ub[3] - ub[1] * ub[2]))
    return _times(u[:, -1], v)


@np.errstate(over="ignore", invalid="ignore")
def _states(t, rows, lams):
    """(ends, u): u the rows (y1, y2, y1', y2') of the dense pair at the ends
    of the rows `ends` of the dense table t, lambda last.  ends holds the
    rows asked for and the last row, and inside a longer gap every width-th
    row, width the power of two at or above the mean gap, so that no run of
    rows between consecutive ends is longer than width.  The runs, padded
    with zero steps, are evaluated at every lambda from their coefficients
    (_rows) by one matmul and compose by a pairwise tree; one prefix scan
    over the runs gives the states."""
    polys = _rows(t)
    size, terms = len(polys), polys.shape[-1]
    rows = sorted({*rows.tolist(), size - 1})
    width = 1 << (-(-size // len(rows)) - 1).bit_length()
    # a run longer than width ends every width rows as well
    ends, last = [], -1
    for r in rows:
        ends += range(last + width, r, width)
        ends.append(r)
        last = r
    ends = np.array(ends)
    # the rows of the runs, axes (entry, row of the run, run, power), a zero
    # row, which composes as the identity, padding each run; then at every
    # lambda, by one matmul
    e = np.zeros((4, size + 1, terms))
    e[:, :-1] = np.moveaxis(polys, 1, 0)
    run = ends - np.arange(width)[::-1, None]
    d = e[:, np.where(run > np.r_[-1, ends[:-1]], run, size)] @ _powers(lams, terms)
    while len(d[0]) > 1:
        d = np.array(_compose(d[:, 1::2], d[:, 0::2]))
    u = _prefix_products(d[:, 0]) + np.array((1.0, 0.0, 0.0, 1.0))[:, None, None]
    _check_guard(u)
    return ends, u


def fundamental_matrix(m, lam, x=1.0, steps=DEFAULT_STEPS):
    """Transfer matrix U(x, lam) for x in one period [0, 1]: the product of
    the table's blocks, or of its rows where lam is past their limit."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("fundamental matrix is tracked over one period [0, 1] only")
    with np.errstate(over="ignore", invalid="ignore"):
        u = _transfer(_evaluated(_table(m, steps, x), lam))
    _check_guard(*u)
    return FundamentalMatrix(x, lam, *u)


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
    t = _table(m, steps)
    return np.max(t.p) <= 0.0 and (t.ms is None or np.max(t.ms) <= 0.0)


@np.errstate(over="ignore", invalid="ignore")
def zero_count(m, lam, steps=DEFAULT_STEPS):
    """Sign changes of y2(., lam) over (0, 1]: the Sturm count of auxiliary points.

    It is #{0 < mu_i < lam} for lam > 0 and #{lam < mu_i < 0} for lam < 0, for
    sign-indefinite m too.  The count runs over y2 at the end of every block,
    or of every row past the blocks' limit: a block turns by a phase of at
    most 1 < pi, and an exact stretch (psi'' = psi/4) is one row, so y2 has
    at most one zero inside either.
    """
    return _sign_changes(_evaluated(_table(m, steps), lam))


# ---------------------------------------------------------------------------
# blocks of rows as polynomials in lambda

def _block_limit(t):
    """The largest |lambda| that admits the blocks of _BLOCK_ROWS rows of the
    RK4 table t.  A block of length H carrying atom mass P turns by about
    sqrt(H^2 (1/4 + |lambda| max|m_s|) + |lambda| P H); within a phase of 1
    the terms of a block's polynomials, summed in magnitude, stay within a
    small factor (about cosh 1) of its entries, so evaluating them cancels
    few digits, and y2 has at most one zero inside the block.  The highest
    power of lambda in a block, 2 _BLOCK_ROWS, also stays within 2^1000, so
    that it is finite where m_s and the atoms are too small to bound the
    phase (m = 0 bounds nothing); a coefficient that underflows there drops
    a term below 1e-22."""
    h, p = np.broadcast_to(t.h, t.p.shape), np.abs(t.p)
    starts = np.arange(0, p.size, _BLOCK_ROWS)
    length, mass = np.add.reduceat(h, starts), np.add.reduceat(p, starts)
    # H^2/4 + L (H^2 max|m_s| + H P) <= 1; a block with neither length nor
    # mass admits every L
    with np.errstate(divide="ignore"):
        phase = np.min((1.0 - 0.25 * length ** 2)
                       / (length * (length * np.max(np.abs(t.ms)) + mass)))
    return min(float(phase), 2.0 ** (1000 / (2 * _BLOCK_ROWS)))


def _rows(t):
    """Coefficients (n, 4, d + 1) of the rows of D of the table t as
    polynomials in lambda, the jump -lambda p in d10: d = 1 on exact rows,
    whose D is affine in lambda, d = 2 on RK4 rows."""
    if t.ms is None:
        polys = np.zeros((t.h.size, 4, 2))
        polys[:, :, 0] = t.exact.T
    else:
        polys = _step_polys(t.ms[0:-1:2], t.ms[1::2], t.ms[2::2], t.h)
    polys[:, 2, 1] -= t.p
    return polys


def _evaluated(t, lam):
    """Rows (n / k, 4) of D of the plain table t at one lambda: its blocks
    (k = _BLOCK_ROWS) where |lambda| admits them, by one matvec with the
    powers of lambda, else its rows (k = 1) from c = 1/4 - lambda m_s, which
    stay finite where lambda^2 overflows."""
    if not abs(lam) <= t.limit:
        return _entries(t, lam).T
    terms = t.blocks.shape[-1]
    return (t.blocks.reshape(-1, terms) @ _powers(lam, terms)).reshape(-1, 4)


def _powers(lams, terms):
    """1, lambda, ..., lambda^(terms - 1): a list for one lambda, or along a
    new leading axis for an array; repeated products, as np.vander forms
    them."""
    if not isinstance(lams, np.ndarray):
        powers = [1.0]
        for _ in range(terms - 1):
            powers.append(powers[-1] * lams)
        return powers
    powers = np.empty((terms,) + np.shape(lams))
    powers[0] = 1.0
    powers[1:] = lams
    return np.multiply.accumulate(powers, out=powers)


@np.errstate(over="ignore", invalid="ignore")
def endpoint_column(m, lams, column=(0.0, 1.0), steps=DEFAULT_STEPS):
    """Endpoint (psi, psi') at x = 1 for an array of spectral points.

    column is the Cauchy data (psi, psi') at 0 shared by the batch; a (2, k)
    array holds k columns, which advance in one pass and give results with a
    leading axis of length k.  The lanes whose |lambda| the table's blocks
    admit walk them, each block one matmul of its coefficients with the
    powers of lambda and one update of the columns; the other lanes walk the
    rows the same way (_rows), whose lambda^2 overflows above 1.3e154.
    """
    lams = np.asarray(lams, dtype=float)
    column = np.asarray(column, dtype=float)
    flat = lams.ravel()
    t = _table(m, steps)
    blocked = np.abs(flat) <= t.limit
    out = np.empty((2,) + column.shape[1:] + flat.shape)
    if blocked.any():
        out[..., blocked] = _walk(t.blocks, flat[blocked], column)
    if not blocked.all():
        out[..., ~blocked] = _walk(_rows(t), flat[~blocked], column)
    _check_guard(out)
    psi, dpsi = out.reshape((2,) + column.shape[1:] + lams.shape)
    return psi, dpsi


def _walk(blocks, lams, column):
    """(psi, psi') after the blocks, the first acting first, for the lanes
    lams from the Cauchy data column."""
    psi, dpsi = (np.multiply.outer(c, np.ones(lams.size)) for c in column)
    powers = _powers(lams, blocks.shape[-1])
    # _apply written out in place: no allocation per block
    d = np.empty((4, lams.size))
    d00, d01, d10, d11 = d
    inc, dinc, tmp = np.empty_like(psi), np.empty_like(psi), np.empty_like(psi)
    for block in blocks:
        np.matmul(block, powers, out=d)
        np.multiply(d00, psi, out=inc)
        inc += np.multiply(d01, dpsi, out=tmp)
        np.multiply(d10, psi, out=dinc)
        dinc += np.multiply(d11, dpsi, out=tmp)
        psi += inc
        dpsi += dinc
    return psi, dpsi


def _blocks(polys):
    """Coefficients (ceil(n / _BLOCK_ROWS), 4, _BLOCK_ROWS d + 1), C-contiguous,
    of D of each run of _BLOCK_ROWS rows of polys (n, 4, d + 1), the rows of D
    as polynomials in lambda; the last block is padded with zero rows.  A
    pairwise tree composes all blocks at once, one level per halving, its
    sums running over the blocks as the innermost axis (_compose_polys); the
    last level's strided result is copied once, so that every evaluation
    reads contiguous blocks."""
    e = np.concatenate((polys, np.zeros((-len(polys) % _BLOCK_ROWS,) + polys.shape[1:])))
    k = _BLOCK_ROWS
    while k > 1:
        e = _compose_polys(e[1::2], e[0::2])
        k //= 2
    return np.ascontiguousarray(e)


def _compose_polys(a, b):
    """_compose for rows (N, 4, d + 1) of polynomial coefficients: D of
    (I + a)(I + b), b acting first, of degree 2d, a view of an array whose
    innermost axis is N.  The sums run over that axis, each add over N
    contiguous lanes, in the order of a loop over the coefficients, and one
    matmul forms every product (it fuses multiply-adds, as elementwise
    products would not), so the bits are the loop's (tests pin them)."""
    n, terms = len(a), a.shape[-1]
    a, b = a.reshape(n, 2, 2, terms), b.reshape(n, 2, 2, terms)
    # (a b)[i, j] coefficient by coefficient, one matmul over l:
    # prod[i, r, j, s, n] = sum_l a[n, i, l, r] b[n, l, j, s], of degree r + s
    prod = np.moveaxis(np.matmul(a.transpose(0, 1, 3, 2).reshape(n, 2 * terms, 2),
                                 b.reshape(n, 2, 2 * terms)).reshape(n, 2, terms, 2, terms), 0, -1)
    out = np.zeros((2, 2, 2 * terms - 1, n))
    out[:, :, :terms] = np.moveaxis(a + b, 0, -1)
    for r in range(terms):
        out[:, :, r:r + terms] += prod[:, r]
    return np.moveaxis(out, -1, 0).reshape(n, 4, 2 * terms - 1)
