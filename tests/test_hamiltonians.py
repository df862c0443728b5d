"""Energy functionals and the bi-Hamiltonian compatibility identity."""

import math

import numpy as np
import pytest

from chspectral.coefficient import make_coefficient
from chspectral.hamiltonians import (
    SmoothDomainError,
    bihamiltonian_residual,
    h2,
    h2_energy,
    hamiltonian_fields,
)
from oracles import grad_h2, grad_h3, h3, perturb


def fourier(a0, cos=(), sin=()):
    return make_coefficient({"smooth": {"kind": "fourier", "a0": a0,
                                        "cos": list(cos), "sin": list(sin)},
                             "atoms": []})


def test_h2_single_mode_closed_form():
    # m = cos(2 pi x): v = m / (1 + 4 pi^2), H2 = 1 / (4 (1 + 4 pi^2))
    m = fourier(0.0, cos=[1.0])
    want = 1.0 / (4.0 * (1.0 + 4.0 * math.pi ** 2))
    assert h2(m) == pytest.approx(want, rel=1e-13)
    assert h2_energy(m) == pytest.approx(want, rel=1e-13)


def test_h2_constant():
    m = fourier(1.0)
    assert h2(m) == pytest.approx(0.5, rel=1e-14)
    assert h2_energy(m) == pytest.approx(0.5, rel=1e-14)


def test_h2_flux_equals_energy_form():
    m = fourier(1.0, cos=[0.25], sin=[0.0, 0.1])
    assert h2(m) == pytest.approx(h2_energy(m), rel=1e-13)


def test_h3_closed_form():
    # v = 1 + a cos(2 pi x): H3 = 1 + (3/2) a^2 + 2 pi^2 a^2
    m = fourier(1.0, cos=[0.3])
    a = 0.3 / (1.0 + 4.0 * math.pi ** 2)
    want = 1.0 + 1.5 * a ** 2 + 2.0 * math.pi ** 2 * a ** 2
    assert h3(m) == pytest.approx(want, rel=1e-13)


def test_grad_h2_is_velocity():
    m = fourier(1.0, cos=[0.3])
    g = grad_h2(m, 128)
    xs = g.x
    want = 1.0 + 0.3 * np.cos(2 * np.pi * xs) / (1.0 + 4.0 * math.pi ** 2)
    np.testing.assert_allclose(g.values, want, atol=1e-13)


def test_grad_h3_constant():
    # v = 1: source is 3, Helmholtz inverse of a constant is itself
    m = fourier(1.0)
    g = grad_h3(m, 64)
    np.testing.assert_allclose(g.values, 3.0, atol=1e-13)


def test_grad_h3_finite_difference():
    # dH3 = integral (dH3/dm) dm for a hat perturbation of the coefficient
    m = fourier(1.0, cos=[0.25], sin=[0.0, 0.1])
    n = 256
    g = grad_h3(m, n)
    eps = 1e-6
    for site in (10, 100, 201):
        plus = h3(perturb(m, site, n, eps), n)
        minus = h3(perturb(m, site, n, -eps), n)
        fd = (plus - minus) / (2.0 * eps)
        # hat smearing leaves an O(1/n^2) bias
        assert fd == pytest.approx(g.values[site], rel=2e-4, abs=1e-6)


def _mode_fd(func, kind, k, eps=1e-5):
    # central difference in one Fourier coefficient of the momentum
    base_cos, base_sin = [0.3, 0.0], [0.0, 0.1]
    out = []
    for sgn in (eps, -eps):
        cos, sin = list(base_cos), list(base_sin)
        (cos if kind == "cos" else sin)[k - 1] += sgn
        out.append(func(fourier(1.0, cos, sin), 256))
    return (out[0] - out[1]) / (2.0 * eps)


@pytest.mark.parametrize("func,grad", [(h2, grad_h2), (h3, grad_h3)])
def test_gradient_mode_projections(func, grad):
    # d(functional)/d(mode coefficient) equals the gradient projected on the
    # mode; spectral quadrature makes both sides exact for band-limited m
    from chspectral.coefficient import grid_points

    x = grid_points(256)
    gvals = grad(fourier(1.0, [0.3, 0.0], [0.0, 0.1]), 256).values
    for k, kind in [(1, "cos"), (2, "cos"), (1, "sin"), (2, "sin")]:
        mode = np.cos(2 * np.pi * k * x) if kind == "cos" else np.sin(2 * np.pi * k * x)
        an = float(np.mean(gvals * mode))
        fd = _mode_fd(func, kind, k)
        assert abs(fd - an) <= max(1e-8 * abs(an), 5e-10)


def test_bihamiltonian_residual_spline_member():
    # a sampled coefficient is only C^2, so the Fourier route for v carries
    # an O(n^-2) interpolation tail against the analytic spline derivative;
    # the residual must shrink steadily and land under 1e-6 * scale
    vals = np.exp(np.sin(2.0 * np.pi * np.arange(32) / 32.0))
    m = make_coefficient({"smooth": {"kind": "samples", "values": vals.tolist()}})
    res = {n: bihamiltonian_residual(m, n) for n in (256, 512, 1024)}
    assert res[256][0] / res[512][0] >= 3.0
    assert res[512][0] / res[1024][0] >= 3.0
    assert res[1024][0] <= 1e-6 * res[1024][1]


def test_bihamiltonian_identity_band_limited():
    # band-limited coefficients make every Fourier operation exact, so the
    # compatibility identity holds to roundoff
    cases = [fourier(1.0), fourier(1.0, cos=[0.3]),
             fourier(1.0, cos=[0.25], sin=[0.0, 0.1]),
             fourier(2.0, cos=[0.4, 0.2], sin=[0.3])]
    for m in cases:
        res, scale = bihamiltonian_residual(m, 256)
        assert res <= 1e-10 * max(scale, 1.0)


def test_bihamiltonian_residual_scale_nonzero():
    res, scale = bihamiltonian_residual(fourier(1.0, cos=[0.3]), 256)
    assert scale > 0.1


def test_hamiltonian_fields_shapes():
    m = fourier(1.0, cos=[0.3])
    x, j_side, k_side, diff = hamiltonian_fields(m, 128)
    assert x.shape == j_side.shape == k_side.shape == diff.shape == (128,)
    np.testing.assert_allclose(diff, j_side - k_side)


def test_atoms_rejected():
    m = make_coefficient({"smooth": {"kind": "const", "value": 0.0},
                          "atoms": [{"q": 0.5, "p": 1.0}]})
    for fn in (h2, h3, grad_h2, grad_h3):
        with pytest.raises(SmoothDomainError):
            fn(m)
    with pytest.raises(SmoothDomainError):
        bihamiltonian_residual(m)
