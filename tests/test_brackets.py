"""Product-field closures, J/K operators, brackets, conjugacy matrices."""

import math

import numpy as np
import pytest

from chspectral.brackets import (
    BracketDomainError,
    ProductField,
    apply_j,
    apply_k,
    bracket1,
    bracket2,
    conjugacy_matrix,
    conjugacy_target,
    lemma_residual,
    log_multiplier_matrix,
)
from chspectral.coefficient import make_coefficient
from chspectral.floquet import auxiliary_spectrum, second_floquet
from chspectral.shooting import solve_fundamental
from chspectral.variations import gradient_bundle


def const_m(c):
    return make_coefficient({"smooth": {"kind": "const", "value": c}, "atoms": []})


def two_mode():
    return make_coefficient({"smooth": {"kind": "fourier", "a0": 1.0,
                                        "cos": [0.25], "sin": [0.0, 0.1]},
                             "atoms": []})


def bundles_at(m, pts):
    return [gradient_bundle(p, second_floquet(m, p)) for p in pts]


def test_product_field_closed_derivatives():
    # m = 1 at mu_1: w = y2^2 = sin^2(pi x)/pi^2 has elementary derivatives
    m = const_m(1.0)
    mu = 0.25 + math.pi ** 2
    _, t2 = solve_fundamental(m, mu, steps=512)
    f = ProductField.from_trajectories(t2, t2)
    xs = f.xs
    w = np.sin(math.pi * xs) ** 2 / math.pi ** 2
    np.testing.assert_allclose(f.values, w, atol=1e-10)
    np.testing.assert_allclose(f.d1, np.sin(2 * math.pi * xs) / math.pi, atol=1e-9)
    np.testing.assert_allclose(f.d3, -4 * math.pi * np.sin(2 * math.pi * xs), atol=1e-7)


def difference_residual(field):
    """Worst deviation of central differences of the values from d1, stretch
    by stretch (the runs between repeated xs entries, the atoms' pre- and
    post-jump rows), relative to max(1, max |d1|)."""
    cut = np.nonzero(field.xs[1:] == field.xs[:-1])[0]
    worst = 0.0
    for start, stop in zip(np.append(0, cut + 1), np.append(cut, field.xs.size - 1)):
        xs = field.xs[start: stop + 1]
        h = (xs[-1] - xs[0]) / (len(xs) - 1)
        v, d = field.values[start: stop + 1], field.d1[start: stop + 1]
        fd = (v[2:] - v[:-2]) / (2.0 * h)
        worst = max(worst, float(np.max(np.abs(fd - d[1:-1]))) / max(1.0, float(np.max(np.abs(d)))))
    return worst


def test_closure_residual_small():
    m = two_mode()
    pt = auxiliary_spectrum(m, count=1, steps=512)[0]
    t1, t2 = solve_fundamental(m, pt.mu, steps=512)
    for ta, tb in ((t2, t2), (t1, t2)):
        f = ProductField.from_trajectories(ta, tb)
        assert difference_residual(f) < 1e-4  # finite differences are only O(h^2)


def test_field_arithmetic():
    m = const_m(1.0)
    _, t2 = solve_fundamental(m, 7.0, steps=128)
    f = ProductField.from_trajectories(t2, t2)
    g = f.scaled(2.0).plus(f, -2.0)
    assert np.all(g.values == 0.0) and np.all(g.d3 == 0.0)


def test_lemma_residual_is_roundoff():
    # lam J w = K w closes exactly for solution products; the measured
    # residual is pure floating-point noise, many orders below |K w|
    m = two_mode()
    pt = auxiliary_spectrum(m, count=1)[0]
    t1, t2 = solve_fundamental(m, pt.mu, steps=1024)
    for ta, tb in ((t1, t1), (t1, t2), (t2, t2)):
        f = ProductField.from_trajectories(ta, tb)
        res, kmax = lemma_residual(f)
        assert kmax > 0.0
        assert res <= 1e-12 * kmax


def test_apply_j_apply_k_constant_coefficient():
    # m = 1: J f = 2 f', and K on sin(2 pi x)/pi fields is elementary
    m = const_m(1.0)
    mu = 0.25 + math.pi ** 2
    _, t2 = solve_fundamental(m, mu, steps=512)
    f = ProductField.from_trajectories(t2, t2)
    np.testing.assert_allclose(apply_j(f), 2.0 * f.d1, atol=1e-12)
    want_k = 0.5 * (np.sin(2 * math.pi * f.xs) / math.pi
                    + 4 * math.pi * np.sin(2 * math.pi * f.xs))
    np.testing.assert_allclose(apply_k(f), want_k, atol=1e-7)


def test_atoms_rejected():
    # a field carries its grid's atom weights, and any nonzero one is rejected:
    # a peakon, an atom at x = 0 beside a smooth part, a negative weight
    for spec in ({"smooth": {"kind": "const", "value": 0.0}, "atoms": [{"q": 0.3, "p": 1.0}]},
                 {"smooth": {"kind": "fourier", "a0": 1.0, "cos": [0.3]},
                  "atoms": [{"q": 0.0, "p": 0.5}, {"q": 0.999, "p": 0.4}]},
                 {"smooth": {"kind": "const", "value": 1.0}, "atoms": [{"q": 0.5, "p": -0.2}]}):
        m = make_coefficient(spec)
        pt = auxiliary_spectrum(m, lam_max=20.0)[0]
        _, t2 = solve_fundamental(m, pt.mu, steps=512)
        f = ProductField.from_trajectories(t2, t2)
        with pytest.raises(BracketDomainError):
            apply_j(f)
        with pytest.raises(BracketDomainError):
            lemma_residual(f)
        with pytest.raises(BracketDomainError):
            bracket1(f, f)
    # an atom of weight 0 has no mass: the field is smooth and goes through
    m = make_coefficient({"smooth": {"kind": "const", "value": 1.0},
                          "atoms": [{"q": 0.3, "p": 0.0}]})
    _, t2 = solve_fundamental(m, 0.25 + math.pi ** 2, steps=512)
    f = ProductField.from_trajectories(t2, t2)
    np.testing.assert_allclose(apply_j(f), 2.0 * f.d1, atol=1e-12)
    res, kmax = lemma_residual(f)
    assert res <= 1e-12 * kmax
    assert bracket1(f, f) == 0.0


def test_bracket1_antisymmetric():
    m = two_mode()
    pts = auxiliary_spectrum(m, count=2)
    ba, bb = bundles_at(m, pts)
    lhs = bracket1(ba.grad_mu, bb.grad_log_rho)
    rhs = bracket1(bb.grad_log_rho, ba.grad_mu)
    assert lhs == pytest.approx(-rhs, rel=1e-14, abs=1e-14)


def test_bracket2_antisymmetric_up_to_quadrature():
    m = two_mode()
    pts = auxiliary_spectrum(m, count=2)
    ba, bb = bundles_at(m, pts)
    lhs = bracket2(ba.grad_mu, bb.grad_log_rho)
    rhs = bracket2(bb.grad_log_rho, ba.grad_mu)
    scale = max(1.0, abs(lhs), abs(rhs))
    assert abs(lhs + rhs) <= 1e-8 * scale


def test_bracket2_is_spectral_multiple_of_bracket1():
    # K fb = lam_b J fb for solution products, so the second bracket equals
    # the first scaled by the spectral point of its second argument; the two
    # quadratures use different integrand forms, so they agree to O(h^4)
    m = two_mode()
    pts = auxiliary_spectrum(m, count=2)
    ba, bb = bundles_at(m, pts)
    scale = max(1.0, pts[0].mu ** 2, pts[1].mu ** 2)
    for fa in (ba.grad_mu, ba.grad_log_rho):
        for fb in (bb.grad_mu, bb.grad_log_rho):
            v2 = bracket2(fa, fb)
            v1 = bracket1(fa, fb)
            assert abs(v2 - pts[1].mu * v1) <= 1e-7 * scale


def test_log_multiplier_matrix_constant_coefficient():
    # analytic value: {mu_i, log|rho_j|} = -mu_i^2 delta_ij
    m = const_m(1.0)
    pts = auxiliary_spectrum(m, count=2)
    bundles = bundles_at(m, pts)
    mat = log_multiplier_matrix(bundles)
    want = np.diag([-p.mu ** 2 for p in pts])
    for i in range(2):
        for j in range(2):
            scale = max(1.0, pts[i].mu ** 2, pts[j].mu ** 2)
            assert abs(mat[i, j] - want[i, j]) <= 1e-8 * scale


def test_conjugacy_matrix_constant_coefficient():
    # the canonical relations hold in closed form for m = 1
    m = const_m(1.0)
    pts = auxiliary_spectrum(m, count=2)
    bundles = bundles_at(m, pts)
    mat = conjugacy_matrix(bundles, which="first")
    want = conjugacy_target(2)
    mus = [p.mu for p in pts] * 2
    for i in range(4):
        for j in range(4):
            scale = max(1.0, mus[i] ** 2, mus[j] ** 2)
            assert abs(mat[i, j] - want[i, j]) <= 1e-7 * scale


def test_conjugacy_matrix_second_bracket():
    m = const_m(1.0)
    pts = auxiliary_spectrum(m, count=2)
    bundles = bundles_at(m, pts)
    mat = conjugacy_matrix(bundles, which="second")
    want = conjugacy_target(2)
    mus = [p.mu for p in pts] * 2
    for i in range(4):
        for j in range(4):
            scale = max(1.0, mus[i] ** 2, mus[j] ** 2)
            assert abs(mat[i, j] - want[i, j]) <= 1e-7 * scale


def test_conjugacy_matrix_rejects_unknown_bracket():
    with pytest.raises(ValueError):
        conjugacy_matrix([], which="third")


def test_conjugacy_target_layout():
    t = conjugacy_target(3)
    assert t.shape == (6, 6)
    assert np.all(t[:3, 3:] == np.eye(3))
    assert np.all(t[3:, :3] == -np.eye(3))
    assert np.all(t + t.T == 0.0)
