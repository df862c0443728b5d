"""Norming constants, gradient fields, positivity, finite-difference checks."""

import math

import numpy as np
import pytest

from chspectral import shooting, variations
from chspectral.coefficient import BumpedSmooth, PeriodicCoefficient, make_coefficient
from chspectral.floquet import auxiliary_spectrum, second_floquet
from chspectral.shooting import fundamental_matrix, solve_fundamental, trajectory_wronskian
from chspectral.variations import (
    gradient_bundle,
    norming_constant,
    positivity_residual,
    verify_gradients,
    weighted_integral,
)


def const_m(c):
    return make_coefficient({"smooth": {"kind": "const", "value": c}, "atoms": []})


def peakon(p, q):
    return make_coefficient({"smooth": {"kind": "const", "value": 0.0},
                             "atoms": [{"q": q, "p": p}]})


def two_mode():
    return make_coefficient({"smooth": {"kind": "fourier", "a0": 1.0,
                                        "cos": [0.25], "sin": [0.0, 0.1]},
                             "atoms": []})


def cosine():
    return make_coefficient({"smooth": {"kind": "fourier", "a0": 1.0, "cos": [0.3]},
                             "atoms": []})


def bundle_at(m, pt):
    return gradient_bundle(pt, second_floquet(m, pt))


def test_norming_constant_constant_coefficient():
    # m = 1: integral of y2^2 = integral sin^2(n pi x)/(n pi)^2 = 1/(2 n^2 pi^2)
    m = const_m(1.0)
    for n, pt in enumerate(auxiliary_spectrum(m, count=2), start=1):
        _, t2 = solve_fundamental(m, pt.mu, steps=1024)
        a = norming_constant(t2)
        assert a == pytest.approx(2.0 * n ** 2 * math.pi ** 2, rel=1e-9)


def test_norming_constant_peakon():
    # zero smooth part: integral m y2^2 = p y2(q)^2 with y2(q) = 2 sinh(q/2)
    m = peakon(1.0, 0.3)
    pt = auxiliary_spectrum(m, lam_max=20.0)[0]
    _, t2 = solve_fundamental(m, pt.mu, steps=1024)
    a = norming_constant(t2)
    assert a == pytest.approx(1.0 / (4.0 * math.sinh(0.15) ** 2), rel=1e-11)


def test_weighted_integral_atom_terms():
    m = peakon(2.0, 0.5)
    pt = auxiliary_spectrum(m, lam_max=20.0)[0]
    _, t2 = solve_fundamental(m, pt.mu, steps=512)
    want = 2.0 * (2.0 * math.sinh(0.25)) ** 2
    assert weighted_integral(t2, t2) == pytest.approx(want, rel=1e-12)


def test_gradient_fields_constant_coefficient():
    # closed forms at mu_n for m = 1:
    #   dmu/dm      = -2 mu sin^2(n pi x)
    #   dlog|rho|/dm = -mu sin(n pi x) cos(n pi x) / (n pi)
    m = const_m(1.0)
    pt = auxiliary_spectrum(m, count=1)[0]
    bundle = bundle_at(m, pt)
    xs = bundle.grad_mu.xs
    mu = pt.mu
    want_mu = -2.0 * mu * np.sin(math.pi * xs) ** 2
    want_lr = -mu * np.sin(math.pi * xs) * np.cos(math.pi * xs) / math.pi
    np.testing.assert_allclose(bundle.grad_mu.values, want_mu, atol=1e-7)
    np.testing.assert_allclose(bundle.grad_log_rho.values, want_lr, atol=1e-8)
    assert bundle.cross == pytest.approx(0.0, abs=1e-10)
    assert bundle.log_rho == 0.0 and bundle.f == 0.0 and bundle.g == 0.0
    assert bundle.b == 0.0


def test_gradient_bundle_wronskian_and_start():
    m = two_mode()
    pt = auxiliary_spectrum(m, count=1)[0]
    bundle = bundle_at(m, pt)
    w = trajectory_wronskian(bundle.t2, bundle.y)
    np.testing.assert_allclose(w, -1.0, atol=1e-8 * max(1.0, abs(bundle.b)))
    assert bundle.y.psi[0] == 1.0


def test_gradient_invariant_under_companion_shift():
    # adding c y2 to the companion shifts B but leaves the field unchanged
    m = two_mode()
    pt = auxiliary_spectrum(m, count=1)[0]
    bundle = bundle_at(m, pt)
    from chspectral.brackets import ProductField

    c = 37.0
    y_shift = bundle.y.combine(bundle.t2, c)
    bb = weighted_integral(bundle.t2, y_shift)
    pf22 = ProductField.from_trajectories(bundle.t2, bundle.t2)
    pf2y = ProductField.from_trajectories(bundle.t2, y_shift)
    shifted = pf22.scaled(bundle.norming * bb * pt.mu).plus(pf2y, -pt.mu)
    scale = float(np.max(np.abs(bundle.grad_log_rho.values)))
    np.testing.assert_allclose(shifted.values, bundle.grad_log_rho.values,
                               atol=1e-9 * scale)


def test_chain_rule_fields():
    m = two_mode()
    pt = auxiliary_spectrum(m, count=1)[0]
    bundle = bundle_at(m, pt)
    mu = pt.mu
    want_f = (-bundle.grad_log_rho.values / mu ** 2
              + 2.0 * bundle.log_rho / mu ** 3 * bundle.grad_mu.values)
    want_g = (-bundle.grad_log_rho.values / mu ** 3
              + 3.0 * bundle.log_rho / mu ** 4 * bundle.grad_mu.values)
    np.testing.assert_allclose(bundle.grad_f.values, want_f, atol=1e-15)
    np.testing.assert_allclose(bundle.grad_g.values, want_g, atol=1e-15)
    assert bundle.f == pytest.approx(-bundle.log_rho / mu ** 2)
    assert bundle.g == pytest.approx(-bundle.log_rho / mu ** 3)


def test_positivity_residual_small_everywhere():
    cases = [(const_m(1.0), dict(count=2)),
             (cosine(), dict(count=2)),
             (two_mode(), dict(count=2)),
             (peakon(1.0, 0.3), dict(lam_max=20.0)),
             (peakon(1.0, 0.5), dict(lam_max=20.0))]
    for m, window in cases:
        for pt in auxiliary_spectrum(m, **window):
            assert positivity_residual(m, pt) < 1e-9


# the coarse n = 64 site grid smears the hat over width 2/n, an O(1/n^2)
# comparison bias of roughly (2 omega)^2 / (6 n^2) ~ 1e-3 here; the production
# setting n = 256 brings it far below the 5e-4 working tolerance

def test_verify_gradients_constant_coefficient():
    m = const_m(1.0)
    pt = auxiliary_spectrum(m, count=1, steps=1024)[0]
    chk = verify_gradients(m, bundle_at(m, pt), n=64, eps=1e-5)
    assert chk.rel_mu < 5e-4
    assert chk.rel_log_rho < 2.5e-3
    assert chk.rel_f < 2.5e-3
    assert chk.rel_g < 2.5e-3


def test_verify_gradients_two_mode():
    m = two_mode()
    pt = auxiliary_spectrum(m, count=1, steps=2048)[0]
    chk = verify_gradients(m, bundle_at(m, pt), n=64, eps=1e-5)
    assert chk.rel_mu < 5e-4
    assert chk.rel_log_rho < 2.5e-3
    assert chk.rel_f < 2.5e-3
    assert chk.rel_g < 2.5e-3


def test_verify_gradients_samples_m_once(monkeypatch):
    # one dense table gives the 8 base pairs and m_s at the hat nodes; the
    # memo already holds the table the bundle was built on, so clear it
    m = two_mode()
    bundle = bundle_at(m, auxiliary_spectrum(m, count=1, steps=1024)[0])
    shooting._built_table.cache_clear()
    tables, values = [], []
    table, value = shooting._table, PeriodicCoefficient.smooth_value

    def counted_table(*args, **kwargs):
        tables.append(args)
        return table(*args, **kwargs)

    def counted_value(self, x):
        values.append(x)
        return value(self, x)

    monkeypatch.setattr(shooting, "_table", counted_table)
    monkeypatch.setattr(PeriodicCoefficient, "smooth_value", counted_value)
    chk = verify_gradients(m, bundle, n=64, eps=1e-5)
    assert len(tables) == 1 and len(values) == 1
    assert chk.rel_mu < 5e-4


def test_verify_gradients_atom_coefficient():
    # the gradient field kinks at the atom, so hats overlapping q carry an
    # O(1/n) smearing bias; check the sites clear of the atom
    m = peakon(1.0, 0.3)
    pt = auxiliary_spectrum(m, lam_max=20.0, steps=1024)[0]
    n = 64
    sites = [s for s in range(n) if abs(s / n - 0.3) > 1.5 / n]
    chk = verify_gradients(m, bundle_at(m, pt), n=n, eps=1e-5, sites=sites)
    assert chk.rel_mu < 2.5e-3
    assert chk.rel_log_rho < 2.5e-3


def test_verify_gradients_site_subset():
    m = const_m(1.0)
    pt = auxiliary_spectrum(m, count=1, steps=512)[0]
    chk = verify_gradients(m, bundle_at(m, pt), n=64, eps=1e-5, sites=[3, 17, 40])
    assert chk.sites.tolist() == [3, 17, 40]
    assert chk.fd_mu.shape == (3,)
    assert chk.rel_mu < 5e-4


def test_verify_gradients_sites_wrap_like_the_hat():
    # sites 64, -1 and 69 on the n = 64 grid are sites 0, 63 and 5, for the
    # analytic fields as for the finite-difference hats
    m = two_mode()
    bundle = bundle_at(m, auxiliary_spectrum(m, count=1, steps=1024)[0])
    wrapped = verify_gradients(m, bundle, n=64, sites=[64, -1, 69])
    plain = verify_gradients(m, bundle, n=64, sites=[0, 63, 5])
    for field in ("mu", "log_rho", "f", "g"):
        np.testing.assert_array_equal(getattr(wrapped, "analytic_" + field),
                                      getattr(plain, "analytic_" + field))
        np.testing.assert_array_equal(getattr(wrapped, "fd_" + field),
                                      getattr(plain, "fd_" + field))
    table = variations.gradient_table(plain.bundle, 64)
    np.testing.assert_array_equal(plain.analytic_mu, table[1][[0, 63, 5]])


def test_verify_gradients_lost_root_names_site(monkeypatch):
    m = const_m(1.0)
    pt = auxiliary_spectrum(m, count=1, steps=512)[0]

    def lose_one(coef):
        # variants run +eps over the sites, then -eps: index 4 is site 17, -eps
        t = np.zeros(coef.shape[1])
        t[4] = np.nan
        return t

    monkeypatch.setattr(variations, "_cheb_roots", lose_one)
    with pytest.raises(RuntimeError, match=r"mu=.* at site 17 \(-eps\)"):
        verify_gradients(m, bundle_at(m, pt), n=64, eps=1e-5, sites=[3, 17, 40])


def test_verify_gradients_grid_mismatch():
    m = const_m(1.0)
    pt = auxiliary_spectrum(m, count=1, steps=512)[0]
    with pytest.raises(ValueError):
        verify_gradients(m, bundle_at(m, pt), n=100, eps=1e-5)


BUMPED_MEMBERS = {
    "two_mode": {"smooth": {"kind": "fourier", "a0": 1.0, "cos": [0.25],
                            "sin": [0.0, 0.1]}},
    "mixed": {"smooth": {"kind": "fourier", "a0": 1.0, "cos": [0.3], "sin": [0.0, 0.1]},
              "atoms": [{"q": 0.37, "p": 0.6}, {"q": 0.999, "p": 0.4}]},
    "peakon_offset": {"smooth": {"kind": "const", "value": 0.0},
                      "atoms": [{"q": 0.3, "p": 1.0}]},
    "indefinite": {"smooth": {"kind": "fourier", "a0": 0.2, "cos": [1.0]}},
    # the grid of the stretch [0.03, 0.3] ends at 0.03 + 0.27 != 0.3
    "grid_end_off_atom": {"smooth": {"kind": "fourier", "a0": 1.0, "cos": [0.3]},
                          "atoms": [{"q": 0.03, "p": 0.5}, {"q": 0.3, "p": 0.4}]},
}


@pytest.mark.parametrize("name", sorted(BUMPED_MEMBERS))
def test_bumped_endpoints_match_the_bumped_coefficient(name):
    # the oracle's factorisation U(1) U(b)^-1 H U(a) against a whole-period
    # integration of m +- eps hat: the hat at site 0 wraps, the one at 63 ends
    # at x = 1, and those at 0, 1, 19, 24 and 63 straddle an atom of mixed,
    # peakon_offset or grid_end_off_atom, where the run takes the atom's jump
    m = make_coefficient(BUMPED_MEMBERS[name])
    n, steps, eps = 64, 1024, 1e-3
    sites = [0, 1, 19, 24, n // 2, n - 1]
    lams = np.array([-50.0, 0.3, 39.4, 551.5])
    y2, dy2 = shooting.bumped_endpoints(m, lams, sites, n, eps, steps)
    for i, sign in enumerate((eps, -eps)):
        for k, site in enumerate(sites):
            bumped = PeriodicCoefficient(BumpedSmooth(m.smooth, site, n, sign), m.atoms)
            for j, lam in enumerate(lams):
                U = fundamental_matrix(bumped, lam, steps=steps)
                scale = max(abs(U.y2), abs(U.dy2))
                assert abs(y2[i, k, j] - U.y2) <= 1e-10 * scale
                assert abs(dy2[i, k, j] - U.dy2) <= 1e-10 * scale


def bumped_endpoints_by_dense_scan(m, lams, sites, n, eps, steps):
    """shooting.bumped_endpoints as first written, the oracle for its run-end
    states and its hat rows' coefficients in lambda: the base pairs from one
    full dense prefix scan per lambda, each hat row from c = 1/4 - lambda m
    at its nodes."""
    t = shooting._table(m, steps, dense=True)
    xs = t.xs
    u = np.array([shooting._dense(t, lam) for lam in lams]).reshape(len(lams), 4, -1)
    u = u.transpose(1, 2, 0)
    centre = np.mod(sites, n) / n
    v = np.multiply.outer([0.0, 1.0], np.ones((2, centre.size, len(lams))))
    head = (np.arange(centre.size), np.maximum(centre - 1.0 / n, 0.0), centre + 1.0 / n)
    for j, lo, hi in (head, (np.nonzero(centre == 0.0)[0], 1.0 - 1.0 / n, 1.0)):
        a = np.searchsorted(xs, np.broadcast_to(lo, j.shape), "right") - 1
        b = np.searchsorted(xs, np.broadcast_to(hi, j.shape), "left")
        off = np.arange(np.max(b - a, initial=0))[:, None]
        r = np.minimum(a + off, xs.size - 2) + 1
        node = 2 * r[:, None] + np.arange(3)[:, None]
        hat = n * np.clip(1.0 - n * np.abs(np.mod(t.nodes[node] - centre[j] + 0.5, 1.0) - 0.5),
                          0.0, None)
        base = 0.0 if t.ms is None else t.ms[node][:, :, None]
        msub = (base + hat[:, :, None] * [[eps], [-eps]])[..., None]
        h, p = (np.where(off < b - a, w[r], 0.0)[..., None] for w in (t.h, t.p))
        col = shooting._times(u[:, a], v[:, :, j])
        for k in range(off.size):
            d00, d01, d10, d11 = shooting._step_entries(*(0.25 - lams * msub[k]), h[k])
            col = shooting._apply((d00, d01, d10 - lams * p[k], d11), *col)
        ub = u[:, b]
        v[:, :, j] += (shooting._times((ub[3], -ub[1], -ub[2], ub[0]),
                                       col - shooting._times(ub, v[:, :, j]))
                       / (ub[0] * ub[3] - ub[1] * ub[2]))
    return shooting._times(u[:, -1], v)


@pytest.mark.parametrize("sites", [[0, 1, 19, 24, 32, 63], [1, 19, 24, 63]])
@pytest.mark.parametrize("name", sorted(BUMPED_MEMBERS))
def test_bumped_endpoints_match_the_dense_scan(name, sites):
    # the hat at site 0 wraps, the one at 63 ends at x = 1, those at 0, 1,
    # 19, 24 and 63 straddle an atom of mixed, peakon_offset or
    # grid_end_off_atom, and a site list without 0 has an empty tail run.
    # The map-back U(1) U(b)^-1 amplifies the rounding of the base states by
    # up to |U(1)|, so the bound is 1e-12 relative times |U(1)| (Frobenius),
    # which is below 2 at lambda = 0.3 and reaches 5.6e4 at lambda = -50
    m = make_coefficient(BUMPED_MEMBERS[name])
    n, steps, eps = 64, 1024, 1e-3
    lams = np.array([-50.0, 0.3, 39.4, 551.5])
    got = np.array(shooting.bumped_endpoints(m, lams, sites, n, eps, steps))
    want = np.array(bumped_endpoints_by_dense_scan(m, lams, sites, n, eps, steps))
    norm = [math.hypot(U.y1, U.y2, U.dy1, U.dy2)
            for U in (fundamental_matrix(m, lam, steps=steps) for lam in lams)]
    scale = np.max(np.abs(want), axis=0)
    assert np.all(np.abs(got - want) <= 1e-12 * np.array(norm) * scale)


def test_batched_chebyshev_roots_match_chebroots():
    rng = np.random.default_rng(3)
    nodes = np.cos(np.pi * (np.arange(8) + 0.5) / 8.0)
    tables = rng.normal(size=(8, 400)) + np.linspace(-1.5, 1.5, 400)
    coef = np.polynomial.chebyshev.chebfit(nodes, tables, 7)
    want = np.full(coef.shape[1], np.nan)
    for v in range(coef.shape[1]):
        cand = np.polynomial.chebyshev.chebroots(coef[:, v])
        cand = cand[np.abs(cand.imag) < 1e-9].real
        cand = cand[np.abs(cand) <= 1.02]
        if cand.size:
            want[v] = cand[np.argmin(np.abs(cand))]
    assert 0 < np.sum(np.isnan(want)) < want.size
    np.testing.assert_array_equal(variations._cheb_roots(coef), want)
