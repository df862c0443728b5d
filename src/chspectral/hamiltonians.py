"""Energy functionals of the velocity and the bi-Hamiltonian compatibility.

With v = (1 - D^2)^{-1} m on the unit circle:

    H2 = 1/2 integral (v^2 + v'^2) = 1/2 integral v m,   dH2/dm = v
    H3 = integral (v^3 + v v'^2),   dH3/dm = (1 - D^2)^{-1} (3 v^2 - v'^2 - 2 v v'')

and the two gradients are tied together by J dH2/dm = K dH3/dm.  All spatial
operators act through Fourier symbols on a power-of-two grid, so smooth
band-limited coefficients are handled exactly up to roundoff.  Delta atoms
kink the velocity and are outside this module's domain.

h3, grad_h2 and grad_h3 have no caller in the package: hamiltonian_fields
reaches K dH3/dm through _h3_source in one symbol.  They stay as the tests'
finite-difference oracles: differences of h3 check grad_h3, and through it
_h3_source, and differences of h2 check dH2/dm = v, the input of J.
"""

from __future__ import annotations

import numpy as np

from .coefficient import GridFunction, grid_points, momentum_grid, velocity_from_momentum

TWO_PI = 2.0 * np.pi


class SmoothDomainError(ValueError):
    """Energy functional requested for a coefficient with delta atoms."""


def _require_smooth(m, what):
    if m.has_atoms:
        raise SmoothDomainError(f"{what} is implemented for smooth coefficients only")


def _velocity_derivatives(m, n):
    # v, v', v'' from one momentum spectrum.  Each combined symbol
    # (i k)^j / (1 + k^2), j <= 2, is bounded, so FFT roundoff stays flat
    # instead of riding an unbounded differentiation symbol.
    mhat = np.fft.rfft(momentum_grid(m, n).values)
    k = TWO_PI * np.arange(n // 2 + 1)
    vhat = mhat / (1.0 + k ** 2)
    v = np.fft.irfft(vhat, n)
    v1 = np.fft.irfft(1j * k * vhat, n)
    v2 = np.fft.irfft(-(k ** 2) * vhat, n)
    return v, v1, v2


def h2(m, n=256):
    """H2 through the flux form 1/2 integral v m."""
    _require_smooth(m, "h2")
    v = velocity_from_momentum(m, n).values
    return 0.5 * float(np.mean(v * m.smooth_value(grid_points(n))))


def h2_energy(m, n=256):
    """H2 through the energy form 1/2 integral (v^2 + v'^2)."""
    _require_smooth(m, "h2")
    v, v1, _ = _velocity_derivatives(m, n)
    return 0.5 * float(np.mean(v ** 2 + v1 ** 2))


def h3(m, n=256):
    """H3 = integral (v^3 + v v'^2)."""
    _require_smooth(m, "h3")
    v, v1, _ = _velocity_derivatives(m, n)
    return float(np.mean(v ** 3 + v * v1 ** 2))


def grad_h2(m, n=256):
    """dH2/dm is the velocity itself."""
    _require_smooth(m, "grad_h2")
    return velocity_from_momentum(m, n)


def _h3_source(v, v1, v2):
    return 3.0 * v ** 2 - v1 ** 2 - 2.0 * v * v2


def grad_h3(m, n=256):
    """dH3/dm = (1 - D^2)^{-1} (3 v^2 - v'^2 - 2 v v'')."""
    _require_smooth(m, "grad_h3")
    source = _h3_source(*_velocity_derivatives(m, n))
    k = np.arange(n // 2 + 1)
    out = np.fft.irfft(np.fft.rfft(source) / (1.0 + (TWO_PI * k) ** 2), n)
    return GridFunction(n, out)


def _k_of_grad_h3(v, v1, v2):
    # K (1 - D^2)^{-1} collapses to the single symbol (i k) / 2; applying the
    # raw k^3 growth of K to the stored grad_h3 grid would amplify roundoff
    n = v.size
    k = np.arange(n // 2 + 1)
    symbol = 0.5 * (1j * TWO_PI * k)
    return np.fft.irfft(symbol * np.fft.rfft(_h3_source(v, v1, v2)), n)


def bihamiltonian_residual(m, n=256):
    """max |J dH2/dm - K dH3/dm| and max |K dH3/dm| on the n-grid.

    J g = 2 m g' + m' g with the analytic coefficient derivative; K combined
    with the Helmholtz inverse acts as the single symbol (i 2 pi k) / 2.
    """
    _require_smooth(m, "the bi-Hamiltonian residual")
    _, _, k_side, diff = hamiltonian_fields(m, n)
    return float(np.max(np.abs(diff))), float(np.max(np.abs(k_side)))


def hamiltonian_fields(m, n=256):
    """Grids (x, J dH2/dm, K dH3/dm, difference) for reporting."""
    _require_smooth(m, "hamiltonian fields")
    x = grid_points(n)
    v, v1, v2 = _velocity_derivatives(m, n)
    j_side = 2.0 * m.smooth_value(x) * v1 + m.smooth_derivative(x) * v
    k_side = _k_of_grad_h3(v, v1, v2)
    return x, j_side, k_side, j_side - k_side
