"""Poisson brackets of spectral functionals through their gradient fields.

The two operators are J = m D + D m, acting as J f = 2 m f' + m' f, and
K = (D - D^3) / 2.  Every gradient field handled here is a combination of
products of two solutions at one spectral point, so all derivatives up to the
third close through the differential equation itself; nothing is
differentiated numerically.

A field lives on the dense pair's grid and carries what the pair carries
there: m_s and m_s' at the row ends, the Simpson weights w and the atom
weights p.  J and the closure read m_s and m_s' from the field, and every
bracket integral is the dot product of its integrand with w, so nothing
here takes or samples the coefficient.  A nonzero atom weight puts the
integrands outside this implementation's domain (products of
distributions), so J and the first bracket reject fields with one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


class BracketDomainError(ValueError):
    """Bracket requested outside the smooth-coefficient domain."""


@dataclass(frozen=True)
class ProductField:
    """phi(x) built from solutions at lam, with ODE-closed derivative grids."""

    lam: float
    xs: np.ndarray
    w: np.ndarray        # Simpson weights of the grid
    p: np.ndarray        # atom weights of the grid
    ms: np.ndarray       # m_s and m_s' on the grid
    dms: np.ndarray
    values: np.ndarray
    d1: np.ndarray
    d3: np.ndarray

    @classmethod
    def from_trajectories(cls, ta, tb):
        """Field phi = psi_a psi_b for two trajectories on one grid.

        With c = 1/4 - lam m_s the closure is phi''' = 4 c phi' - 2 lam m_s' phi.
        """
        if ta.lam != tb.lam or ta.xs.shape != tb.xs.shape:
            raise ValueError("trajectories live on different grids or spectral points")
        lam = ta.lam
        phi = ta.psi * tb.psi
        d1 = ta.dpsi * tb.psi + ta.psi * tb.dpsi
        d3 = 4.0 * (0.25 - lam * ta.ms) * d1 - 2.0 * lam * ta.dms * phi
        return cls(lam=lam, xs=ta.xs, w=ta.w, p=ta.p, ms=ta.ms, dms=ta.dms,
                   values=phi, d1=d1, d3=d3)

    def scaled(self, a):
        return replace(self, values=a * self.values, d1=a * self.d1, d3=a * self.d3)

    def plus(self, other, coeff=1.0):
        if other.xs.shape != self.xs.shape or other.lam != self.lam:
            raise ValueError("fields live on different grids or spectral points")
        return replace(self, values=self.values + coeff * other.values,
                       d1=self.d1 + coeff * other.d1,
                       d3=self.d3 + coeff * other.d3)


def _reject_atoms(field, what):
    if np.any(field.p):
        raise BracketDomainError(
            f"{what} needs a smooth coefficient; delta atoms make the integrand "
            "a product of distributions")


def apply_j(field):
    """(m D + D m) f = 2 m f' + m' f on the field's grid."""
    _reject_atoms(field, "J")
    return 2.0 * field.ms * field.d1 + field.dms * field.values


def apply_k(field):
    """(D - D^3) f / 2 on the field's grid."""
    return 0.5 * (field.d1 - field.d3)


def lemma_residual(field):
    """max |lam J f - K f| and max |K f| for a solution-product field.

    The identity lam J phi = K phi holds exactly for products of solutions at lam,
    so the first number is a pure roundoff measure of the closure grids.
    """
    _reject_atoms(field, "the commutation identity")
    k = apply_k(field)
    res = field.lam * apply_j(field) - k
    return float(np.max(np.abs(res))), float(np.max(np.abs(k)))


def bracket1(fa, fb):
    """First bracket: integral of fa J fb over one period.

    Written in the antisymmetric form integral m (fa fb' - fa' fb); the
    boundary term [m fa fb] vanishes because every gradient field here
    carries a factor y2, which is zero at both period ends.
    """
    _reject_atoms(fa, "the first bracket")
    if fa.xs.shape != fb.xs.shape:
        raise ValueError("fields live on different grids")
    return fa.w @ (fa.ms * (fa.values * fb.d1 - fa.d1 * fb.values))


def bracket2(fa, fb):
    """Second bracket: integral of fa K fb over one period."""
    if fa.xs.shape != fb.xs.shape:
        raise ValueError("fields live on different grids")
    return fa.w @ (fa.values * (0.5 * (fb.d1 - fb.d3)))


def log_multiplier_matrix(bundles):
    """Matrix of first-bracket pairings {mu_i, log|rho_j|}.

    The expected value is -mu_i^2 on the diagonal and zero off it.
    """
    n = len(bundles)
    out = np.empty((n, n))
    for i, bi in enumerate(bundles):
        for j, bj in enumerate(bundles):
            out[i, j] = bracket1(bi.grad_mu, bj.grad_log_rho)
    return out


def conjugacy_matrix(bundles, which="first"):
    """Full 2N x 2N pairing matrix of (mu_1..N, F_1..N) from N gradient bundles.

    which = "first" pairs mu with f = -log|rho| / mu^2 under the first
    bracket; which = "second" pairs mu with g = -log|rho| / mu^3 under the
    second.  Canonical conjugacy means the result is [[0, I], [-I, 0]].
    """
    if which not in ("first", "second"):
        raise ValueError("which must be 'first' or 'second'")
    fields = [b.grad_mu for b in bundles]
    fields += [b.grad_f if which == "first" else b.grad_g for b in bundles]
    pair = bracket1 if which == "first" else bracket2
    out = np.empty((len(fields), len(fields)))
    for i, fi in enumerate(fields):
        for j, fj in enumerate(fields):
            out[i, j] = pair(fi, fj)
    return out


def conjugacy_target(n):
    """The canonical block matrix [[0, I], [-I, 0]] of size 2n."""
    out = np.zeros((2 * n, 2 * n))
    out[:n, n:] = np.eye(n)
    out[n:, :n] = -np.eye(n)
    return out
