"""Test oracles: helpers that only the tests call.

Each one checks a package result from an independent route:

- BumpedSmooth and perturb build m + eps * hat as a coefficient of its own,
  so a whole-period integration of it checks shooting.bumped_endpoints, and
  differences of h3 over it check grad_h3.
- atom_velocity and momentum_from_velocity check the velocity solve of
  coefficient.velocity_from_momentum: an atom's Green's function at any
  point, and (1 - D^2) applied back to the smooth velocity.
- h3, grad_h2 and grad_h3 are the energy H3 and the gradients of H2 and H3.
  hamiltonian_fields reaches K dH3/dm through _h3_source in one symbol;
  differences of h3 check grad_h3, and through it _h3_source, and
  differences of h2 check dH2/dm = v, the input of J.
- positivity_residual checks mu integral(m y2^2) = integral((y2/2)^2 + y2'^2),
  which pins the sign of the norming constant A.
- trajectory_wronskian is the pointwise Wronskian of two trajectories.
"""

from __future__ import annotations

import numpy as np

from chspectral.coefficient import (
    _G_NORM,
    CoefficientError,
    FourierSmooth,
    GridFunction,
    PeriodicCoefficient,
    SampleSmooth,
    _helmholtz_symbol,
    grid_points,
    velocity_from_momentum,
)
from chspectral.hamiltonians import TWO_PI, _h3_source, _require_smooth, _velocity_derivatives
from chspectral.shooting import solve_fundamental
from chspectral.variations import weighted_integral


class BumpedSmooth:
    """Base smooth part plus a scaled unit-mass hat bump at a grid site.

    The hat is the triangle of width 2/n centred at site/n with integral 1,
    so base + eps * hat realises an approximate point perturbation of mass eps.
    """

    kind = "bumped"

    def __init__(self, base, site, n, eps):
        self.base = base
        self.site = int(site)
        self.n = int(n)
        self.eps = float(eps)
        if not 0 <= self.site < self.n:
            raise CoefficientError(f"perturbation site {site} outside grid of size {n}")
        self._center = self.site / self.n

    @property
    def is_zero(self):
        return False

    def hat(self, x):
        d = np.abs(np.mod(x - self._center + 0.5, 1.0) - 0.5)
        out = self.n * np.clip(1.0 - self.n * d, 0.0, None)
        return out if isinstance(x, np.ndarray) else float(out)

    def value(self, x):
        return self.base.value(x) + self.eps * self.hat(x)

    def derivative(self, x):
        # one-sided at the three hat knots; measure zero, never used under J/K
        t = np.mod(x - self._center + 0.5, 1.0) - 0.5
        slope = np.where(np.abs(t) < 1.0 / self.n, -np.sign(t) * self.n * self.n, 0.0)
        out = self.base.derivative(x) + self.eps * slope
        return out if isinstance(x, np.ndarray) else float(out)

    def spec(self):
        return {"kind": "bumped", "base": self.base.spec(), "site": self.site,
                "n": self.n, "eps": self.eps}


def perturb(m, site, n, eps):
    """Coefficient with eps times a unit-mass hat at site/n added to the smooth part.

    Fourier smooth parts are first resampled onto the n-grid (periodic spline);
    constant and sample parts are kept as they are.  Atoms are unchanged.
    eps = 0 returns m itself.
    """
    if eps == 0.0:
        return m
    base = m.smooth
    if isinstance(base, FourierSmooth):
        base = SampleSmooth(base.value(grid_points(n)))
    return PeriodicCoefficient(smooth=BumpedSmooth(base, site, n, eps), atoms=m.atoms)


def atom_velocity(atom, x):
    """Green's-function velocity of a single atom at arbitrary points."""
    d = np.abs(np.mod(x - atom.q + 0.5, 1.0) - 0.5)
    out = atom.p * np.cosh(d - 0.5) / _G_NORM
    return out if isinstance(x, np.ndarray) else float(out)


def momentum_from_velocity(v):
    """Apply (1 - D^2) by Fourier symbol; inverse of the smooth velocity solve."""
    vhat = np.fft.rfft(v.values)
    return GridFunction(v.n, np.fft.irfft(vhat * _helmholtz_symbol(v.n), v.n))


def h3(m, n=256):
    """H3 = integral (v^3 + v v'^2)."""
    _require_smooth(m, "h3")
    v, v1, _ = _velocity_derivatives(m, n)
    return float(np.mean(v ** 3 + v * v1 ** 2))


def grad_h2(m, n=256):
    """dH2/dm is the velocity itself."""
    _require_smooth(m, "grad_h2")
    return velocity_from_momentum(m, n)


def grad_h3(m, n=256):
    """dH3/dm = (1 - D^2)^{-1} (3 v^2 - v'^2 - 2 v v'')."""
    _require_smooth(m, "grad_h3")
    source = _h3_source(*_velocity_derivatives(m, n))
    k = np.arange(n // 2 + 1)
    out = np.fft.irfft(np.fft.rfft(source) / (1.0 + (TWO_PI * k) ** 2), n)
    return GridFunction(n, out)


def positivity_residual(m, point):
    """Relative residual of mu integral(m y2^2) = integral((y2/2)^2 + y2'^2).

    Both sides are strictly positive for admissible coefficients, which pins
    the sign of A and hence of the mu gradient.
    """
    _, t2 = solve_fundamental(m, point.mu, steps=point.steps)
    lhs = point.mu * weighted_integral(t2, t2)
    rhs = t2.w @ ((0.5 * t2.psi) ** 2 + t2.dpsi ** 2)
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs))


def trajectory_wronskian(ta, tb):
    """Pointwise Wronskian grid of two trajectories on one grid."""
    if ta.lam != tb.lam or ta.xs.shape != tb.xs.shape:
        raise ValueError("trajectories live on different grids or spectral points")
    return ta.psi * tb.dpsi - ta.dpsi * tb.psi
