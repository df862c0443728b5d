"""Norming constants, gradient fields, positivity, finite-difference checks."""

import math
import random

import numpy as np
import pytest

from chspectral import shooting, suites, variations
from chspectral.coefficient import PeriodicCoefficient, make_coefficient
from chspectral.corpus import default_corpus
from chspectral.floquet import auxiliary_spectrum, second_floquet
from chspectral.shooting import fundamental_matrix, solve_fundamental
from chspectral.variations import (
    gradient_bundle,
    norming_constant,
    verify_gradients,
    weighted_integral,
)
from oracles import BumpedSmooth, positivity_residual, trajectory_wronskian


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


def nearest_chebroot(coef):
    """Per column, chebroots' real root nearest 0 within [-1.02, 1.02], or nan."""
    want = np.full(coef.shape[1], np.nan)
    for v in range(coef.shape[1]):
        cand = np.polynomial.chebyshev.chebroots(coef[:, v])
        cand = cand[np.abs(cand.imag) < 1e-9].real
        cand = cand[np.abs(cand) <= 1.02]
        if cand.size:
            want[v] = cand[np.argmin(np.abs(cand))]
    return want


def random_fourier(seed):
    rng = np.random.default_rng(seed)
    cos, sin = 0.3 * rng.normal(size=(2, 3)) / np.arange(1, 4)
    return make_coefficient({"smooth": {"kind": "fourier", "a0": 1.0, "cos": cos.tolist(),
                                        "sin": sin.tolist()}})


@pytest.mark.parametrize("n", [256, 64])
@pytest.mark.parametrize("name", ["two_mode", "fourier_5", "fourier_6"])
def test_newton_roots_match_chebroots_on_the_gradient_fits(monkeypatch, name, n):
    # the interpolants verify_gradients fits, at every site and both signs of
    # eps: Newton from 0 lands within 3e-17, about 9 ulps of 0.02, of
    # chebroots' nearest root (measured: 1.4e-17 at most over these members)
    m = two_mode() if name == "two_mode" else random_fourier(int(name[-1]))
    fits = []

    def spy(coef):
        fits.append(coef)
        return newton(coef)

    newton = variations._cheb_roots
    monkeypatch.setattr(variations, "_cheb_roots", spy)
    for pt in auxiliary_spectrum(m, count=2, steps=2048):
        verify_gradients(m, bundle_at(m, pt), n=n)
    assert len(fits) == 2 and all(coef.shape == (8, 2 * n) for coef in fits)
    for coef in fits:
        t, want = newton(coef), nearest_chebroot(coef)
        assert not np.any(np.isnan(want))
        assert np.max(np.abs(t - want)) <= 3e-17


def test_newton_roots_match_chebroots_on_one_simple_root():
    # a simple root at |t0| <= 1/2 times a smooth positive factor, plus a
    # smooth perturbation: one real root in range per column.  chebroots'
    # eigenvalues carry up to 2e-15 of rounding here, Newton's residual less
    nodes = np.cos(np.pi * (np.arange(8) + 0.5) / 8.0)[:, None]
    rng = np.random.default_rng(11)
    t0 = rng.uniform(-0.5, 0.5, 400)
    slope = rng.uniform(0.5, 2.0, 400) * rng.choice([-1.0, 1.0], 400)
    a, b, phase = rng.normal(size=(3, 400))
    tables = (slope * (nodes - t0) * (1.0 + 0.1 * a * np.cos(2.0 * nodes + phase))
              + 0.02 * b * np.sin(3.0 * nodes + phase))
    coef = np.polynomial.chebyshev.chebfit(nodes[:, 0], tables, 7)
    t, want = variations._cheb_roots(coef), nearest_chebroot(coef)
    assert not np.any(np.isnan(want))
    assert np.max(np.abs(t - want)) <= 1e-14
    residual = np.polynomial.chebyshev.chebval
    assert (np.max(np.abs(residual(t, coef, tensor=False)))
            <= np.max(np.abs(residual(want, coef, tensor=False))))


def test_newton_roots_are_nan_without_a_root_newton_reaches():
    # 2 + t has its root outside [-1.02, 1.02], t^2 + t/2 + 1 none that is
    # real, and t^2 - 1/4 has roots at +-1/2 but a vanishing derivative at 0
    nodes = np.cos(np.pi * (np.arange(8) + 0.5) / 8.0)
    tables = np.stack([nodes + 2.0, nodes ** 2 + 0.5 * nodes + 1.0, nodes ** 2 - 0.25], 1)
    coef = np.polynomial.chebyshev.chebfit(nodes, tables, 7)
    assert np.all(np.isnan(variations._cheb_roots(coef)))


def test_verify_gradients_solves_no_eigenproblem(monkeypatch):
    def eigvals(*args, **kwargs):
        raise AssertionError("verify_gradients called np.linalg.eigvals")

    m = two_mode()
    bundle = bundle_at(m, auxiliary_spectrum(m, count=1, steps=1024)[0])
    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    assert verify_gradients(m, bundle, n=64).rel_mu < 5e-4


# ---------------------------------------------------------------------------
# the peakon phase space as an oracle.  On m = sum p_k delta(x - q_k) the
# first bracket is {F, G} = sum_k (dF/dp_k dG/dq_k - dF/dq_k dG/dp_k), from
# integral(phi J psi) = integral(m (phi psi' - phi' psi)) and dm = dp delta(x
# - q) - p dq delta'(x - q) (Camassa & Holm, PRL 71, 1993).  The exact
# transfer product gives every derivative by a complex step, with no
# integrator; from the package it takes only the points' mu.

QP_STEP = 1e-30


def qp_members():
    """The corpus peakons and six seeded members of 2-16 atoms."""
    members = {mb.name: mb.m for mb in default_corpus() if mb.m.smooth_is_zero}
    for seed in range(6):
        rng = random.Random(seed)
        q = sorted(rng.uniform(0.02, 0.98) for _ in range(rng.randint(2, 16)))
        members[f"atoms_seed{seed}"] = make_coefficient(
            {"atoms": [{"q": x, "p": rng.uniform(0.2, 1.5)} for x in q]})
    return members


QP_MEMBERS = qp_members()


def qp_monodromy(q, p, lam):
    """U(1, lam) of the atoms (q, p), ascending in q, in complex arithmetic:
    the free propagators of psi'' = psi/4 between the jumps."""
    def free(d):
        ch, sh = np.cosh(0.5 * d), np.sinh(0.5 * d)
        return np.array([[ch, 2.0 * sh], [0.5 * sh, ch]])

    u, pos = np.eye(2), 0.0
    for qk, pk in zip(q, p):
        u = np.array([[1.0, 0.0], [-lam * pk, 1.0]]) @ free(qk - pos) @ u
        pos = qk
    return free(1.0 - pos) @ u


def qp_derivatives(m, mu):
    """(dmu, df) with respect to (p_1, ..., p_n, q_1, ..., q_n) at the point
    mu, f = -log|rho| / mu^2, by a complex step in each coordinate and in
    lambda: dmu = -dy2(1) / d_lambda y2(1), and rho from the larger of
    y2'(1) and 1/y1(1), as the package takes it."""
    pq = np.array([[a.p for a in m.atoms], [a.q for a in m.atoms]], dtype=complex)
    n = pq.shape[1]
    u = qp_monodromy(pq[1], pq[0], mu).real
    dlam = qp_monodromy(pq[1], pq[0], mu + 1j * QP_STEP).imag / QP_STEP
    du = []
    for k in range(2 * n):
        step = pq.copy()
        step[k // n, k % n] += 1j * QP_STEP
        du.append(qp_monodromy(step[1], step[0], mu).imag / QP_STEP)
    dmu = -np.array(du)[:, 0, 1] / dlam[0, 1]
    du = np.array(du) + dmu[:, None, None] * dlam
    if abs(u[1, 1]) >= abs(u[0, 0]):
        rho, dlog = u[1, 1], du[:, 1, 1] / u[1, 1]
    else:
        rho, dlog = 1.0 / u[0, 0], -du[:, 0, 0] / u[0, 0]
    return dmu, -dlog / mu ** 2 + 2.0 * math.log(abs(rho)) * dmu / mu ** 3


def qp_points(m):
    return auxiliary_spectrum(m, count=min(len(m.atoms), 5))


@pytest.mark.parametrize("name", sorted(QP_MEMBERS))
def test_peakon_brackets_of_mu_and_f_are_canonical(name):
    # theorem 1 on the phase space: the (mu, f) bracket matrix against
    # conjugacy_target, scaled as the theorem suites scale it; measured at
    # most 2.0e-15 (atoms_seed4) over these members, up to 5 points each
    m = QP_MEMBERS[name]
    points = qp_points(m)
    dmu, df = zip(*(qp_derivatives(m, pt.mu) for pt in points))
    x = np.array(dmu + df)
    dp, dq = np.split(x, 2, axis=1)
    deviations = suites._scaled_block_deviations(dp @ dq.T - dq @ dp.T, [pt.mu for pt in points])
    assert max(deviations) <= 2e-14


# peakon_centered's one point is a Jordan block, which has no bundle
@pytest.mark.parametrize("name", sorted(set(QP_MEMBERS) - {"peakon_centered"}))
def test_gradients_at_the_atoms_are_the_qp_derivatives(name):
    # dmu/dp_k = grad_mu(q_k) and dmu/dq_k = p_k avg(grad_mu'(q_k)), avg the
    # mean of the atom's pre- and post-jump rows; f likewise.  Measured,
    # relative to the row's largest entry: grad_mu at most 4.6e-15, grad_f at
    # most 5.9e-14 max(1, mu^2), the mu^2 the theorem suites scale f by
    # (2.7e-9 at atoms_seed3's mu = 214; rounding, the same at 1024 and
    # 16384 steps, of the companion y = y1 + b y2 on the dense pair)
    m = QP_MEMBERS[name]
    for pt in qp_points(m):
        bundle = bundle_at(m, pt)
        post = np.nonzero(bundle.grad_mu.p)[0]      # each follows its pre-jump row
        np.testing.assert_allclose(bundle.grad_mu.xs[post - 1], [a.q for a in m.atoms],
                                   rtol=0.0, atol=1e-15)
        dmu, df = qp_derivatives(m, pt.mu)
        for field, want, bound in ((bundle.grad_mu, dmu, 5e-14),
                                   (bundle.grad_f, df, 2e-13 * max(1.0, pt.mu ** 2))):
            at = 0.5 * (field.values[post - 1] + field.values[post])
            slope = 0.5 * (field.d1[post - 1] + field.d1[post]) * field.p[post]
            err = np.max(np.abs(np.concatenate((at, slope)) - want))
            assert err <= bound * np.max(np.abs(want)), (pt.index, err)
