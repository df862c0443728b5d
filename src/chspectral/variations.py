"""Functional gradients of the auxiliary spectrum and Floquet multipliers.

For an auxiliary point mu with Dirichlet solution y2 and companion Floquet
solution y (normalised y(0) = 1, wronskian y2 y' - y2' y = -1):

    dmu/dm        = -A mu y2^2,          A = 1 / integral(m y2^2)
    dlog|rho|/dm  = A B mu y2^2 - mu y2 y,   B = integral(m y2 y)

The canonically conjugate partners are f = -log|rho| / mu^2 under the first
bracket and g = -log|rho| / mu^3 under the second; their gradients follow by
the chain rule.  Everything is checked here against centered finite
differences of hat-bump perturbations of the smooth part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .brackets import ProductField
from .floquet import second_floquet
from .quadrature import grid_integral, trajectory_integral
from .shooting import endpoint_column_variants, solve_fundamental

VANISH_GUARD = 1e-12
_CHEB_NODES = np.cos(np.pi * (np.arange(8) + 0.5) / 8.0)


def weighted_integral(m, ta, tb):
    """integral of m psi_a psi_b over one period, delta atoms included."""
    ms = np.asarray(m.smooth_value(ta.xs), dtype=float)
    total = grid_integral(ta.xs, ms * ta.psi * tb.psi, ta.segments)
    for atom in m.atoms:
        total += atom.p * ta.value_at(atom.q) * tb.value_at(atom.q)
    return total


def norming_constant(m, t2):
    """A = 1 / integral(m y2^2), guarded against a vanishing denominator."""
    denom = weighted_integral(m, t2, t2)
    scale = max(1.0, float(np.max(t2.psi ** 2)))
    if abs(denom) <= VANISH_GUARD * scale:
        raise RuntimeError("norming integral of m y2^2 vanished; gradient undefined")
    return 1.0 / denom


def positivity_residual(m, point, steps=None):
    """Relative residual of mu integral(m y2^2) = integral((y2/2)^2 + y2'^2).

    Both sides are strictly positive for admissible coefficients, which pins
    the sign of A and hence of the mu gradient.
    """
    _, t2 = solve_fundamental(m, point.mu, steps=steps or point.steps)
    lhs = point.mu * weighted_integral(m, t2, t2)
    rhs = trajectory_integral(t2, (0.5 * t2.psi) ** 2 + t2.dpsi ** 2)
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


def mu_gradient(m, point, steps=None):
    """Gradient field of mu alone; defined even where the multiplier's is not."""
    steps = steps or point.steps
    _, t2 = solve_fundamental(m, point.mu, steps=steps)
    a = norming_constant(m, t2)
    pf = ProductField.from_trajectories(m, t2, t2)
    return pf.scaled(-a * point.mu)


def gradient_bundle(m, point, steps=None):
    """All gradient data at one auxiliary point.

    Raises JordanGapError at a band edge whose monodromy is a nontrivial
    Jordan block; at a plus-or-minus-identity monodromy the multiplier is
    still differentiable and log|rho| is taken as exactly zero.
    """
    steps = steps or point.steps
    _, t2, y, b = second_floquet(m, point, steps=steps)
    a = norming_constant(m, t2)
    bb = weighted_integral(m, t2, y)
    mu = point.mu
    pf22 = ProductField.from_trajectories(m, t2, t2)
    pf2y = ProductField.from_trajectories(m, t2, y)
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


def _field_at_sites(field, xs_query):
    if len(field.segments) == 1:
        steps = len(field.xs) - 1
        pos = steps * xs_query
        idx = np.rint(pos).astype(int)
        if np.max(np.abs(pos - idx)) < 1e-9:
            return field.values[idx]
    return np.interp(xs_query, field.xs, field.values)


def gradient_table(bundle, n):
    """All four analytic gradient fields sampled at the n uniform sites."""
    xs = np.arange(n) / n
    return (xs,
            _field_at_sites(bundle.grad_mu, xs),
            _field_at_sites(bundle.grad_log_rho, xs),
            _field_at_sites(bundle.grad_f, xs),
            _field_at_sites(bundle.grad_g, xs))


def _variant_roots(m, mu, d, lam_flat, msub_fn, steps):
    """Zeros of the perturbed y2(1, .) near mu via Chebyshev interpolation.

    lam_flat holds the same 8 nodes per variant; returns one root per variant
    (nan where the interpolant has no acceptable root).
    """
    psi, _ = endpoint_column_variants(msub_fn, m.atoms, lam_flat, (0.0, 1.0), steps)
    nvar = lam_flat.size // 8
    table = psi.reshape(nvar, 8)
    coef = np.polynomial.chebyshev.chebfit(_CHEB_NODES, table.T, 7)
    roots = np.full(nvar, np.nan)
    for v in range(nvar):
        cand = np.polynomial.chebyshev.chebroots(coef[:, v])
        cand = cand[np.abs(cand.imag) < 1e-9].real
        cand = cand[np.abs(cand) <= 1.02]
        if cand.size:
            roots[v] = mu + d * cand[np.argmin(np.abs(cand))]
    return roots


def verify_gradients(m, point, n=256, eps=1e-5, steps=None, sites=None):
    """Compare each gradient against centered differences over hat bumps.

    For every requested grid site, the smooth part is perturbed by
    +-eps * hat (the hat has unit mass and width 2/n) and mu, log|rho|, f, g
    are recomputed; the centered quotients approximate the gradient fields at
    the site up to the O(1/n^2) smearing of the hat.  Each perturbed mu moves
    by about eps max|grad mu| <= d/50, well inside the interpolation interval
    [mu - d, mu + d]; a variant whose root is lost there raises RuntimeError
    naming mu and the site.
    """
    steps = steps or point.steps
    if steps % n:
        raise ValueError(f"steps={steps} must be a multiple of the site grid n={n}")
    bundle = gradient_bundle(m, point, steps=steps)
    if sites is None:
        sites = np.arange(n)
    sites = np.asarray(sites, dtype=int)
    nsite = sites.size
    xq = sites / n

    mu = point.mu
    gm_max = float(np.max(np.abs(bundle.grad_mu.values)))
    d = max(1e-3 * max(1.0, abs(mu)), 50.0 * eps * max(gm_max, 1.0))
    lam_flat = np.tile(mu + d * _CHEB_NODES, 2 * nsite)

    def msub_fn(x):
        # smooth part of each variant at x: m + eps hat, then m - eps hat, per site
        base = float(m.smooth_value(x))
        dist = np.abs(np.mod(x - xq + 0.5, 1.0) - 0.5)
        hats = n * np.clip(1.0 - n * dist, 0.0, None)
        return base + eps * np.concatenate((hats, -hats))

    roots = _variant_roots(m, mu, d, lam_flat, lambda x: np.repeat(msub_fn(x), 8), steps)
    lost = np.nonzero(np.isnan(roots))[0]
    if lost.size:
        v = int(lost[0])
        raise RuntimeError(f"lost the perturbed root near mu={mu:.8g} at site "
                           f"{int(sites[v % nsite])} ({'+' if v < nsite else '-'}eps)")

    # one more sweep exactly at the perturbed roots gives the multipliers
    _, dpsi = endpoint_column_variants(msub_fn, m.atoms, roots, (0.0, 1.0), steps)
    mu_p, mu_m = roots[:nsite], roots[nsite:]
    rho_p, rho_m = dpsi[:nsite], dpsi[nsite:]
    log_p, log_m = np.log(np.abs(rho_p)), np.log(np.abs(rho_m))

    fd_mu = (mu_p - mu_m) / (2.0 * eps)
    fd_log = (log_p - log_m) / (2.0 * eps)
    fd_f = (-log_p / mu_p ** 2 + log_m / mu_m ** 2) / (2.0 * eps)
    fd_g = (-log_p / mu_p ** 3 + log_m / mu_m ** 3) / (2.0 * eps)

    return GradientCheck(
        n=n, eps=eps, sites=sites,
        analytic_mu=_field_at_sites(bundle.grad_mu, xq), fd_mu=fd_mu,
        analytic_log_rho=_field_at_sites(bundle.grad_log_rho, xq), fd_log_rho=fd_log,
        analytic_f=_field_at_sites(bundle.grad_f, xq), fd_f=fd_f,
        analytic_g=_field_at_sites(bundle.grad_g, xq), fd_g=fd_g, bundle=bundle)
