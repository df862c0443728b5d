"""Functional gradients of the auxiliary spectrum and Floquet multipliers.

For an auxiliary point mu with Dirichlet solution y2 and companion Floquet
solution y (normalised y(0) = 1, wronskian y2 y' - y2' y = -1):

    dmu/dm        = -A mu y2^2,          A = 1 / integral(m y2^2)
    dlog|rho|/dm  = A B mu y2^2 - mu y2 y,   B = integral(m y2 y)

The canonically conjugate partners are f = -log|rho| / mu^2 under the first
bracket and g = -log|rho| / mu^3 under the second; their gradients follow by
the chain rule.  A gradient bundle is built from second_floquet's solutions
at the point, so it lives on the grid and step count the point was polished
at.  The integrals A and B are dot products with what the dense pair carries
on that grid: m_s and the Simpson weights w for the smooth part, the atom
weights p for the atoms; nothing here samples m on it.

The finite-difference check takes a bundle and compares its fields with
centered differences of hat-bump perturbations of the smooth part, at the
bundle point's step count; shooting.bumped_endpoints runs the bumped
integrations, and the check fits and solves their endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev

from .brackets import ProductField
from .shooting import bumped_endpoints, solve_fundamental

VANISH_GUARD = 1e-12
_CHEB_NODES = np.cos(np.pi * (np.arange(8) + 0.5) / 8.0)
_COMPANION = chebyshev.chebcompanion(np.eye(8)[7])  # chebroots' degree-7 band
_COMPANION_SCALE = 0.5 / np.array([math.sqrt(0.5)] + [1.0] * 6)


def weighted_integral(ta, tb):
    """integral of m psi_a psi_b over one period, delta atoms included: the
    smooth part through m_s and the grid's Simpson weights, each atom through
    its weight on its post-jump row, whose psi is the pre-jump psi up to rounding."""
    return ta.w @ (ta.ms * ta.psi * tb.psi) + ta.p @ (ta.psi * tb.psi)


def norming_constant(t2):
    """A = 1 / integral(m y2^2), guarded against a vanishing denominator."""
    denom = weighted_integral(t2, t2)
    scale = max(1.0, float(np.max(t2.psi ** 2)))
    if abs(denom) <= VANISH_GUARD * scale:
        raise RuntimeError("norming integral of m y2^2 vanished; gradient undefined")
    return 1.0 / denom


def positivity_residual(m, point):
    """Relative residual of mu integral(m y2^2) = integral((y2/2)^2 + y2'^2).

    Both sides are strictly positive for admissible coefficients, which pins
    the sign of A and hence of the mu gradient.
    """
    _, t2 = solve_fundamental(m, point.mu, steps=point.steps)
    lhs = point.mu * weighted_integral(t2, t2)
    rhs = t2.w @ ((0.5 * t2.psi) ** 2 + t2.dpsi ** 2)
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs))


@dataclass(frozen=True)
class SpectralGradient:
    """Gradient fields and scalars attached to one auxiliary point."""

    point: object
    t2: object
    y: object
    b: float
    norming: float       # A
    cross: float         # B
    log_rho: float
    f: float
    g: float
    grad_mu: ProductField
    grad_log_rho: ProductField
    grad_f: ProductField
    grad_g: ProductField


def gradient_bundle(point, solutions):
    """All gradient data at one auxiliary point, from solutions =
    second_floquet(m, point).

    second_floquet raises JordanGapError at a band edge whose monodromy is a
    nontrivial Jordan block; at a plus-or-minus-identity monodromy the
    multiplier is still differentiable and log|rho| is taken as exactly zero.
    """
    _, t2, y, b = solutions
    a = norming_constant(t2)
    bb = weighted_integral(t2, y)
    mu = point.mu
    pf22 = ProductField.from_trajectories(t2, t2)
    pf2y = ProductField.from_trajectories(t2, y)
    grad_mu = pf22.scaled(-a * mu)
    grad_log_rho = pf22.scaled(a * bb * mu).plus(pf2y, -mu)
    log_rho = 0.0 if point.degenerate else math.log(abs(point.rho))
    f = -log_rho / mu ** 2
    g = -log_rho / mu ** 3
    grad_f = grad_log_rho.scaled(-1.0 / mu ** 2).plus(grad_mu, 2.0 * log_rho / mu ** 3)
    grad_g = grad_log_rho.scaled(-1.0 / mu ** 3).plus(grad_mu, 3.0 * log_rho / mu ** 4)
    return SpectralGradient(point=point, t2=t2, y=y, b=b, norming=a, cross=bb,
                            log_rho=log_rho, f=f, g=g, grad_mu=grad_mu,
                            grad_log_rho=grad_log_rho, grad_f=grad_f, grad_g=grad_g)


# ---------------------------------------------------------------------------
# finite-difference verification

@dataclass
class GradientCheck:
    """Analytic gradient samples against centered hat-bump differences."""

    n: int
    eps: float
    sites: np.ndarray
    analytic_mu: np.ndarray
    fd_mu: np.ndarray
    analytic_log_rho: np.ndarray
    fd_log_rho: np.ndarray
    analytic_f: np.ndarray
    fd_f: np.ndarray
    analytic_g: np.ndarray
    fd_g: np.ndarray
    bundle: SpectralGradient     # the analytic data the samples come from

    @staticmethod
    def _rel(analytic, fd):
        scale = float(np.max(np.abs(analytic)))
        if scale == 0.0:
            return float(np.max(np.abs(fd)))
        return float(np.max(np.abs(analytic - fd))) / scale

    @property
    def rel_mu(self):
        return self._rel(self.analytic_mu, self.fd_mu)

    @property
    def rel_log_rho(self):
        return self._rel(self.analytic_log_rho, self.fd_log_rho)

    @property
    def rel_f(self):
        return self._rel(self.analytic_f, self.fd_f)

    @property
    def rel_g(self):
        return self._rel(self.analytic_g, self.fd_g)


def _fields_at(bundle, xs):
    """The four gradient fields at xs; np.interp returns a grid node's value exactly."""
    return [np.interp(xs, f.xs, f.values)
            for f in (bundle.grad_mu, bundle.grad_log_rho, bundle.grad_f, bundle.grad_g)]


def gradient_table(bundle, n):
    """All four analytic gradient fields sampled at the n uniform sites."""
    xs = np.arange(n) / n
    return (xs, *_fields_at(bundle, xs))


def _cheb_roots(coef):
    """Per column of Chebyshev coefficients, the real root nearest 0 within
    [-1.02, 1.02] (nan if none): chebroots' companion matrices, one eigvals call."""
    mats = _COMPANION - np.zeros((coef.shape[1], 1, 1))
    mats[:, :, -1] -= (coef[:-1] / coef[-1]).T * _COMPANION_SCALE
    t = np.linalg.eigvals(mats[:, ::-1, ::-1])
    dist = np.where((np.abs(t.imag) < 1e-9) & (np.abs(t.real) <= 1.02), np.abs(t.real), np.inf)
    best = np.argmin(dist, axis=1)
    return np.where(np.isfinite(dist.min(axis=1)), t.real[np.arange(t.shape[0]), best], np.nan)


def verify_gradients(m, bundle, n=256, eps=1e-5, sites=None):
    """Compare the bundle's gradients against centered differences over hat
    bumps, integrated at the bundle point's step count.

    For every requested grid site, the smooth part is perturbed by
    +-eps * hat (the hat has unit mass and width 2/n) and mu, log|rho|, f, g
    are recomputed; the centered quotients approximate the gradient fields at
    the site up to the O(1/n^2) smearing of the hat.  Each bump's y2(1) and
    y2'(1) come at 8 Chebyshev nodes in [mu - d, mu + d] (bumped_endpoints).
    Each perturbed mu, the root of the y2(1) interpolant, moves by about
    eps max|grad mu| <= d/50; a lost root raises RuntimeError naming mu and
    the site.
    """
    point = bundle.point
    steps = point.steps
    if steps % n:
        raise ValueError(f"steps={steps} must be a multiple of the site grid n={n}")
    sites = np.arange(n) if sites is None else np.asarray(sites, dtype=int)
    nsite = sites.size
    xq = np.mod(sites, n) / n     # site -1 is site n - 1, as for the hat

    mu = point.mu
    gm_max = float(np.max(np.abs(bundle.grad_mu.values)))
    d = max(1e-3 * max(1.0, abs(mu)), 50.0 * eps * max(gm_max, 1.0))
    # variants run +eps over the sites, then -eps; one column of 8 nodes each
    y2, dy2 = (end.reshape(2 * nsite, 8).T for end in
               bumped_endpoints(m, mu + d * _CHEB_NODES, sites, n, eps, steps))
    t = _cheb_roots(chebyshev.chebfit(_CHEB_NODES, y2, 7))
    lost = np.nonzero(np.isnan(t))[0]
    if lost.size:
        v = int(lost[0])
        raise RuntimeError(f"lost the perturbed root near mu={mu:.8g} at site "
                           f"{int(sites[v % nsite])} ({'+' if v < nsite else '-'}eps)")

    mu_p, mu_m = np.split(mu + d * t, 2)
    rho = chebyshev.chebval(t, chebyshev.chebfit(_CHEB_NODES, dy2, 7), tensor=False)
    log_p, log_m = np.split(np.log(np.abs(rho)), 2)

    fd_mu = (mu_p - mu_m) / (2.0 * eps)
    fd_log = (log_p - log_m) / (2.0 * eps)
    fd_f = (-log_p / mu_p ** 2 + log_m / mu_m ** 2) / (2.0 * eps)
    fd_g = (-log_p / mu_p ** 3 + log_m / mu_m ** 3) / (2.0 * eps)

    a_mu, a_log, a_f, a_g = _fields_at(bundle, xq)
    return GradientCheck(n=n, eps=eps, sites=sites, analytic_mu=a_mu, fd_mu=fd_mu,
                         analytic_log_rho=a_log, fd_log_rho=fd_log, analytic_f=a_f,
                         fd_f=fd_f, analytic_g=a_g, fd_g=fd_g, bundle=bundle)
