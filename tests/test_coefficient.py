"""Momentum representation, Helmholtz velocity solve, hat perturbations."""

import dataclasses
import json
import math

import numpy as np
import pytest

from chspectral.coefficient import (
    Atom,
    CoefficientError,
    ConstantSmooth,
    FourierSmooth,
    GridFunction,
    PeriodicCoefficient,
    SampleSmooth,
    grid_points,
    load_coefficient,
    make_coefficient,
    momentum_grid,
    velocity_from_momentum,
)
from oracles import BumpedSmooth, atom_velocity, momentum_from_velocity, perturb


def test_constant_smooth_values():
    s = ConstantSmooth(1.5)
    assert s.value(0.3) == 1.5
    assert s.derivative(0.3) == 0.0
    vals = s.value(np.array([0.0, 0.25, 0.9]))
    assert vals.shape == (3,)
    assert np.all(vals == 1.5)
    assert not s.is_zero
    assert ConstantSmooth(0.0).is_zero


def test_fourier_smooth_matches_series():
    # m(x) = 1 + 0.3 cos(2 pi x) - 0.1 sin(4 pi x)
    s = FourierSmooth(a0=1.0, cos=(0.3,), sin=(0.0, -0.1))
    for x in (0.0, 0.17, 0.25, 0.5, 0.99):
        want = 1.0 + 0.3 * math.cos(2 * math.pi * x) - 0.1 * math.sin(4 * math.pi * x)
        dwant = (-0.3 * 2 * math.pi * math.sin(2 * math.pi * x)
                 - 0.1 * 4 * math.pi * math.cos(4 * math.pi * x))
        assert s.value(x) == pytest.approx(want, abs=1e-15)
        assert s.derivative(x) == pytest.approx(dwant, abs=1e-13)
    xs = np.linspace(0.0, 1.0, 7)
    np.testing.assert_allclose(
        s.value(xs), 1.0 + 0.3 * np.cos(2 * np.pi * xs) - 0.1 * np.sin(4 * np.pi * xs),
        atol=1e-15)


def test_scalar_takes_the_array_path():
    xs = np.array([0.0, 0.17, 0.5, 0.99])
    for s in (ConstantSmooth(1.5), FourierSmooth(a0=1.0, cos=(0.3,), sin=(0.0, -0.1))):
        for method in (s.value, s.derivative):
            got = [method(x) for x in xs]
            assert all(type(v) is float for v in got)
            np.testing.assert_array_equal(got, method(xs))


def test_fourier_smooth_periodic():
    s = FourierSmooth(a0=0.5, cos=(0.2, 0.05), sin=(0.1,))
    assert s.value(1.3) == pytest.approx(s.value(0.3), abs=1e-14)


def test_sample_smooth_interpolates_and_wraps():
    xs = np.arange(64) / 64.0
    vals = 1.0 + 0.3 * np.cos(2 * np.pi * xs)
    s = SampleSmooth(tuple(vals))
    # spline through dense smooth samples reproduces the function closely
    for x in (0.1, 0.33, 0.71):
        assert s.value(x) == pytest.approx(1.0 + 0.3 * math.cos(2 * math.pi * x), abs=1e-7)
    assert s.value(1.1) == pytest.approx(s.value(0.1), abs=1e-14)
    assert s.value(-0.2) == pytest.approx(s.value(0.8), abs=1e-14)


def test_sample_smooth_evaluates_through_the_periodic_cubic_spline():
    from scipy.interpolate import CubicSpline

    vals = 1.0 + 0.2 * np.cos(2 * np.pi * np.arange(16) / 16.0)
    s = SampleSmooth(tuple(vals))
    spline = CubicSpline(np.linspace(0.0, 1.0, 17), np.append(vals, vals[0]),
                         bc_type="periodic")
    xs = np.array([0.0, 0.03, 0.1, 0.33, 0.5, 0.71, 0.999])
    np.testing.assert_array_equal(s.value(xs), spline(xs))
    np.testing.assert_array_equal(s.derivative(xs), spline(xs, 1))
    assert s.value(1.1) == float(spline(np.mod(1.1, 1.0)))


def test_sample_smooth_needs_enough_points():
    with pytest.raises(CoefficientError):
        SampleSmooth((1.0, 2.0, 3.0))


def test_bumped_smooth_hat_geometry():
    n = 256
    base = ConstantSmooth(1.0)
    b = BumpedSmooth(base=base, site=10, n=n, eps=1e-3)
    c = 10 / n
    assert b.value(c) == pytest.approx(1.0 + 1e-3 * n, abs=1e-12)
    assert b.value(c + 0.5 / n) == pytest.approx(1.0 + 1e-3 * n / 2, abs=1e-12)
    # zero outside the width-2/n support
    assert b.value(c + 1.0 / n) == pytest.approx(1.0, abs=1e-15)
    assert b.value(c - 1.5 / n) == pytest.approx(1.0, abs=1e-15)


def test_bumped_smooth_wraps_around_origin():
    n = 64
    b = BumpedSmooth(base=ConstantSmooth(0.0), site=0, n=n, eps=1.0)
    assert b.value(0.0) == pytest.approx(n)
    assert b.value(1.0 - 0.5 / n) == pytest.approx(n / 2, abs=1e-10)


def test_bump_integral_is_eps():
    # trapezoid over a fine grid: hat has unit mass, so the bump adds eps
    n = 32
    eps = 2e-4
    b = BumpedSmooth(base=ConstantSmooth(0.0), site=5, n=n, eps=eps)
    xs = np.linspace(0.0, 1.0, 200001)
    total = np.trapezoid(b.value(xs), xs)
    assert total == pytest.approx(eps, rel=1e-6)


def test_make_coefficient_const():
    m = make_coefficient({"smooth": {"kind": "const", "value": 1.0}, "atoms": []})
    assert isinstance(m.smooth, ConstantSmooth)
    assert m.smooth_value(0.4) == 1.0
    assert not m.has_atoms


def test_make_coefficient_fourier_and_atoms():
    cfg = {"smooth": {"kind": "fourier", "a0": 1.0, "cos": [0.25], "sin": [0.0, 0.1]},
           "atoms": [{"q": 0.7, "p": 0.5}, {"q": 0.2, "p": 1.0}]}
    m = make_coefficient(cfg)
    assert m.atoms == (Atom(q=0.2, p=1.0), Atom(q=0.7, p=0.5))  # sorted by q
    assert m.smooth_value(0.0) == pytest.approx(1.25)


def test_make_coefficient_rejects_bad_input():
    with pytest.raises(CoefficientError):
        make_coefficient({"smooth": {"kind": "mystery"}, "atoms": []})
    with pytest.raises(CoefficientError):
        make_coefficient({"smooth": {"kind": "const", "value": 1.0},
                          "atoms": [{"q": 1.0, "p": 1.0}]})  # q outside [0, 1)
    with pytest.raises(CoefficientError):
        make_coefficient({"smooth": {"kind": "const", "value": 1.0},
                          "atoms": [{"q": 0.5, "p": 1.0}, {"q": 0.5, "p": 2.0}]})
    with pytest.raises(CoefficientError):
        make_coefficient({"smooth": {"kind": "const", "value": 1.0, "extra": 3},
                          "atoms": []})


def test_atom_at_the_period_end_is_refused():
    # the step tables would leave out an atom this close to x = 1
    with pytest.raises(CoefficientError, match="q = 0"):
        make_coefficient({"smooth": {"kind": "const", "value": 1.0},
                          "atoms": [{"q": 1.0 - 5e-15, "p": 1.0}]})
    m = make_coefficient({"smooth": {"kind": "const", "value": 1.0},
                          "atoms": [{"q": 0.999999, "p": 1.0}]})
    assert m.atoms == (Atom(q=0.999999, p=1.0),)


def test_equal_coefficients_hash_and_compare_equal():
    # the hash is computed once, as the dataclass computed it on every call
    smooth = FourierSmooth(1.0, [0.3])
    atoms = tuple(Atom(q, 1.0 + q) for q in (0.1, 0.5, 0.9))
    a, b = PeriodicCoefficient(smooth, atoms), PeriodicCoefficient(smooth, atoms[:2] + atoms[2:])
    assert a == b and hash(a) == hash(b) == hash((smooth, atoms))
    c = dataclasses.replace(a, atoms=atoms[:2])
    assert c != a and hash(c) == hash((smooth, atoms[:2]))
    assert a != PeriodicCoefficient(FourierSmooth(1.0, [0.3]), atoms)
    assert "_hash" not in repr(a)


def test_load_coefficient_roundtrip(tmp_path):
    cfg = {"smooth": {"kind": "fourier", "a0": 1.0, "cos": [0.3]}, "atoms": []}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(cfg))
    m = load_coefficient(path)
    assert m.smooth_value(0.0) == pytest.approx(1.3)
    assert m.spec()["smooth"]["kind"] == "fourier"


def test_grid_function_validation():
    g = GridFunction(n=8, values=np.zeros(8))
    assert g.x[0] == 0.0 and g.x[-1] == 7 / 8
    with pytest.raises(CoefficientError):
        GridFunction(n=12, values=np.zeros(12))  # not a power of two
    with pytest.raises(CoefficientError):
        GridFunction(n=8, values=np.zeros(9))


def test_velocity_constant_momentum():
    # (1 - d^2/dx^2) v = 1 on the circle gives v = 1
    m = make_coefficient({"smooth": {"kind": "const", "value": 1.0}, "atoms": []})
    v = velocity_from_momentum(m, 64)
    np.testing.assert_allclose(v.values, 1.0, atol=1e-14)


def test_velocity_single_fourier_mode():
    # each mode is divided by 1 + (2 pi k)^2
    m = make_coefficient({"smooth": {"kind": "fourier", "a0": 1.0, "cos": [0.3]},
                          "atoms": []})
    n = 128
    v = velocity_from_momentum(m, n)
    xs = grid_points(n)
    want = 1.0 + 0.3 * np.cos(2 * np.pi * xs) / (1.0 + 4.0 * np.pi ** 2)
    np.testing.assert_allclose(v.values, want, atol=1e-13)


def test_atom_velocity_peak_value():
    # Green's function of 1 - d^2 on the circle: peak p cosh(1/2) / (2 sinh(1/2))
    atom = Atom(q=0.5, p=1.0)
    peak = 1.0 * math.cosh(0.5) / (2.0 * math.sinh(0.5))
    assert atom_velocity(atom, 0.5) == pytest.approx(peak, abs=1e-14)
    # exponential-type decay away from the peak, even about q
    assert atom_velocity(atom, 0.3) == pytest.approx(atom_velocity(atom, 0.7), abs=1e-14)
    assert atom_velocity(atom, 0.3) == pytest.approx(
        math.cosh(abs(0.3 - 0.5) - 0.5) / (2.0 * math.sinh(0.5)), abs=1e-14)


def test_atom_velocity_periodic_distance():
    atom = Atom(q=0.9, p=2.0)
    assert atom_velocity(atom, 0.1) == pytest.approx(atom_velocity(atom, 0.7), abs=1e-14)


def test_velocity_atom_superposition():
    m = make_coefficient({"smooth": {"kind": "const", "value": 0.0},
                          "atoms": [{"q": 0.25, "p": 1.0}, {"q": 0.75, "p": 0.5}]})
    n = 64
    v = velocity_from_momentum(m, n)
    xs = grid_points(n)
    want = (atom_velocity(Atom(0.25, 1.0), xs) + atom_velocity(Atom(0.75, 0.5), xs))
    np.testing.assert_allclose(v.values, want, atol=1e-13)


def test_momentum_velocity_roundtrip():
    m = make_coefficient({"smooth": {"kind": "fourier", "a0": 1.0,
                                     "cos": [0.25], "sin": [0.0, 0.1]}, "atoms": []})
    n = 256
    v = velocity_from_momentum(m, n)
    back = momentum_from_velocity(v)
    np.testing.assert_allclose(back.values, momentum_grid(m, n).values, atol=1e-10)


def test_smooth_derivative_grid():
    m = make_coefficient({"smooth": {"kind": "fourier", "a0": 1.0, "cos": [0.3]},
                          "atoms": []})
    n = 64
    xs = grid_points(n)
    np.testing.assert_allclose(m.smooth_derivative(xs),
                               -0.3 * 2 * np.pi * np.sin(2 * np.pi * xs), atol=1e-12)


def test_perturb_zero_eps_is_identity():
    m = make_coefficient({"smooth": {"kind": "const", "value": 1.0}, "atoms": []})
    assert perturb(m, site=3, n=64, eps=0.0) is m


def test_perturb_adds_hat():
    m = make_coefficient({"smooth": {"kind": "const", "value": 1.0}, "atoms": []})
    n = 64
    eps = 1e-5
    mp = perturb(m, site=7, n=n, eps=eps)
    assert mp.smooth_value(7 / n) == pytest.approx(1.0 + eps * n, abs=1e-12)
    assert mp.smooth_value(9 / n) == pytest.approx(1.0, abs=1e-15)
    assert mp.atoms == m.atoms


def test_perturb_keeps_atoms():
    m = make_coefficient({"smooth": {"kind": "const", "value": 0.0},
                          "atoms": [{"q": 0.3, "p": 1.0}]})
    mp = perturb(m, site=2, n=32, eps=1e-4)
    assert mp.atoms == (Atom(q=0.3, p=1.0),)
    assert not mp.smooth_is_zero
