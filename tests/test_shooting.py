"""Transfer matrices and trajectories against constant-coefficient closed forms."""

import ast
import dataclasses
import json
import math
import pathlib

import numpy as np
import pytest

from chspectral import shooting
from chspectral.coefficient import make_coefficient
from chspectral.shooting import (
    BlowUpError,
    endpoint_column,
    fundamental_matrix,
    positive_part_vanishes,
    solve_fundamental,
    trajectory_wronskian,
    zero_count,
)


def const_m(c):
    return make_coefficient({"smooth": {"kind": "const", "value": c}, "atoms": []})


def peakon(p, q):
    return make_coefficient({"smooth": {"kind": "const", "value": 0.0},
                             "atoms": [{"q": q, "p": p}]})


def exact_zero_propagator(d):
    # psi'' = psi/4 over a stretch of length d
    ch, sh = math.cosh(d / 2), math.sinh(d / 2)
    return np.array([[ch, 2 * sh], [sh / 2, ch]])


def test_zero_momentum_transfer_matrix():
    # no momentum at all: U(1) is the cosh/sinh matrix of psi'' = psi/4
    U = fundamental_matrix(const_m(0.0), lam=5.0)
    want = exact_zero_propagator(1.0)
    assert U.y1 == pytest.approx(want[0, 0], abs=1e-15)
    assert U.y2 == pytest.approx(want[0, 1], abs=1e-15)
    assert U.dy1 == pytest.approx(want[1, 0], abs=1e-15)
    assert U.dy2 == pytest.approx(want[1, 1], abs=1e-15)


def test_constant_momentum_closed_form():
    # m = 1, lam = 1: psi'' = -(lam - 1/4) psi, omega = sqrt(3)/2
    lam = 1.0
    omega = math.sqrt(lam - 0.25)
    U = fundamental_matrix(const_m(1.0), lam=lam)
    assert U.y1 == pytest.approx(math.cos(omega), abs=1e-12)
    assert U.y2 == pytest.approx(math.sin(omega) / omega, abs=1e-12)
    assert U.dy1 == pytest.approx(-omega * math.sin(omega), abs=1e-12)
    assert U.dy2 == pytest.approx(math.cos(omega), abs=1e-12)


def test_constant_momentum_negative_side():
    # lam < 1/4 on m = 1: hyperbolic branch
    lam = -2.0
    kappa = math.sqrt(0.25 - lam)
    U = fundamental_matrix(const_m(1.0), lam=lam)
    assert U.y1 == pytest.approx(math.cosh(kappa), rel=1e-11)
    assert U.y2 == pytest.approx(math.sinh(kappa) / kappa, rel=1e-11)


def test_det_one_across_coefficients():
    configs = [
        const_m(1.0),
        make_coefficient({"smooth": {"kind": "fourier", "a0": 1.0, "cos": [0.3]},
                          "atoms": []}),
        peakon(1.0, 0.3),
        make_coefficient({"smooth": {"kind": "fourier", "a0": 1.0, "cos": [0.25],
                                     "sin": [0.0, 0.1]},
                          "atoms": [{"q": 0.6, "p": 0.4}]}),
    ]
    for m in configs:
        for lam in (-3.0, 0.0, 1.7, 25.0, 90.0):
            U = fundamental_matrix(m, lam)
            assert U.det == pytest.approx(1.0, abs=1e-11)


def test_peakon_transfer_matrix_exact():
    # zero smooth part: exact product P(1-q) . jump . P(q), lam-independent pieces
    p, q, lam = 1.0, 0.3, 2.5
    U = fundamental_matrix(peakon(p, q), lam)
    jump = np.array([[1.0, 0.0], [-lam * p, 1.0]])
    want = exact_zero_propagator(1 - q) @ jump @ exact_zero_propagator(q)
    got = np.array([[U.y1, U.y2], [U.dy1, U.dy2]])
    np.testing.assert_allclose(got, want, atol=1e-14)


def test_peakon_discriminant_affine():
    # trace/2 = cosh(1/2) - lam p sinh(1/2), independent of q
    p = 0.8
    for q in (0.2, 0.5, 0.9):
        for lam in (0.0, 1.0, 4.0):
            U = fundamental_matrix(peakon(p, q), lam)
            want = 2 * (math.cosh(0.5) - lam * p * math.sinh(0.5))
            assert U.trace == pytest.approx(want, abs=1e-13)


def test_atom_at_origin_applies_once():
    # q = 0 jump acts on the initial data before the smooth stretch
    p, lam = 0.7, 2.0
    U = fundamental_matrix(peakon(p, 0.0), lam)
    jump = np.array([[1.0, 0.0], [-lam * p, 1.0]])
    want = exact_zero_propagator(1.0) @ jump
    got = np.array([[U.y1, U.y2], [U.dy1, U.dy2]])
    np.testing.assert_allclose(got, want, atol=1e-14)


def test_transfer_matrix_at_zero_is_the_identity():
    # the table over [0, 0] holds no step of length > 0 and leaves out the
    # atom at q = 0, whose jump acts just right of 0
    members = [
        {"smooth": {"kind": "fourier", "a0": 1.0, "cos": [0.25], "sin": [0.0, 0.1]}},
        {"smooth": {"kind": "fourier", "a0": 1.0, "cos": [0.3]},
         "atoms": [{"q": 0.0, "p": 0.5}, {"q": 0.999, "p": 0.4}]},
        {"atoms": [{"q": 0.3, "p": 1.0}]},
    ]
    for spec in members:
        for lam in (-50.0, 0.0, 39.4, 4000.0, 1e20, -1e150, 1e200, -1e300):
            U = fundamental_matrix(make_coefficient(spec), lam, x=0.0)
            assert (U.y1, U.y2, U.dy1, U.dy2) == (1.0, 0.0, 0.0, 1.0)


def test_rk4_fourth_order_convergence():
    # halving h divides the endpoint error by about 16
    lam = 30.0
    omega = math.sqrt(lam - 0.25)
    exact = math.sin(omega) / omega
    errs = []
    for steps in (64, 128):
        U = fundamental_matrix(const_m(1.0), lam, steps=steps)
        errs.append(abs(U.y2 - exact))
    ratio = errs[0] / errs[1]
    assert 13.0 < ratio < 19.0


def test_trajectory_matches_closed_form():
    lam = 1.0
    omega = math.sqrt(lam - 0.25)
    t1, t2 = solve_fundamental(const_m(1.0), lam, steps=512)
    np.testing.assert_allclose(t2.psi, np.sin(omega * t2.xs) / omega, atol=1e-11)
    np.testing.assert_allclose(t1.psi, np.cos(omega * t1.xs), atol=1e-11)
    np.testing.assert_allclose(t1.dpsi, -omega * np.sin(omega * t1.xs), atol=1e-11)
    assert t2.xs[0] == 0.0 and t2.xs[-1] == 1.0


def test_trajectory_wronskian_is_one():
    m = make_coefficient({"smooth": {"kind": "fourier", "a0": 1.0, "cos": [0.25],
                                     "sin": [0.0, 0.1]},
                          "atoms": [{"q": 0.4, "p": 0.6}]})
    t1, t2 = solve_fundamental(m, lam=11.0, steps=512)
    w = trajectory_wronskian(t1, t2)
    np.testing.assert_allclose(w, 1.0, atol=1e-11)


def test_trajectory_atom_rows():
    # atom position appears twice: pre-jump and post-jump derivative rows
    m = peakon(1.0, 0.5)
    lam = 2.0
    t1, _ = solve_fundamental(m, lam, steps=128)
    hits = np.nonzero(t1.xs == 0.5)[0]
    assert hits.size == 2
    i, j = hits
    assert t1.psi[i] == pytest.approx(t1.psi[j], abs=1e-15)
    assert t1.dpsi[j] - t1.dpsi[i] == pytest.approx(-lam * 1.0 * t1.psi[i], abs=1e-13)
    # both rows close a stretch, so both carry Simpson weight; the delta mass
    # sits on the post-jump row alone
    assert t1.w[i] > 0.0 and t1.w[j] > 0.0
    assert np.nonzero(t1.p)[0].tolist() == [j] and t1.p[j] == 1.0


def test_one_period_trajectory():
    # the dense pair ends at x = 1 on the columns of the monodromy U(1)
    m = const_m(1.0)
    lam = 3.0
    t1, t2 = solve_fundamental(m, lam, steps=256)
    assert t1.xs[-1] == t2.xs[-1] == 1.0
    U = fundamental_matrix(m, lam, steps=256)
    for t, column in ((t1, (U.y1, U.dy1)), (t2, (U.y2, U.dy2))):
        assert t.psi[-1] == pytest.approx(column[0], rel=1e-12)
        assert t.dpsi[-1] == pytest.approx(column[1], rel=1e-12)


def test_combine_trajectories():
    t1, t2 = solve_fundamental(const_m(1.0), lam=2.0, steps=128)
    y = t1.combine(t2, 3.0)
    np.testing.assert_allclose(y.psi, t1.psi + 3.0 * t2.psi, atol=1e-15)
    np.testing.assert_allclose(y.dpsi, t1.dpsi + 3.0 * t2.dpsi, atol=1e-15)


def test_endpoint_column_matches_scalar():
    m = make_coefficient({"smooth": {"kind": "fourier", "a0": 1.0, "cos": [0.3]},
                          "atoms": [{"q": 0.25, "p": 0.5}]})
    lams = np.array([0.5, 4.0, 17.0])
    psi, dpsi = endpoint_column(m, lams, column=(0.0, 1.0), steps=256)
    for k, lam in enumerate(lams):
        U = fundamental_matrix(m, lam, steps=256)
        assert psi[k] == pytest.approx(U.y2, rel=1e-12)
        assert dpsi[k] == pytest.approx(U.dy2, rel=1e-12)


def test_blowup_guard():
    with pytest.raises(BlowUpError):
        fundamental_matrix(const_m(1.0), lam=-1e8, steps=256)
    # the Sturm count's fold over 4096 one-row blocks
    with pytest.raises(BlowUpError):
        zero_count(const_m(1.0), lam=-1e8, steps=4096)


def test_zero_count_matches_the_dense_trajectory():
    # sign changes of y2 on (0, 1] at the ends of the plain table's blocks
    # against those at every row end of the dense pair, which keeps the RK4
    # grid on atom-only stretches too; negative lambda, atoms and every block
    # size from 16 rows down to one
    mixed = {"smooth": {"kind": "fourier", "a0": 0.2, "cos": [1.0]},
             "atoms": [{"q": 0.3, "p": 0.5}]}
    atoms = {"smooth": {"kind": "const", "value": 0.0},
             "atoms": [{"q": 0.2, "p": 1.0}, {"q": 0.6, "p": 2.0}, {"q": 0.9, "p": -0.5}]}
    lams = np.concatenate((np.linspace(-3000.0, 3000.0, 25), [-40.0, 0.3, 5.0, 50.0, 551.6]))
    # blocks of 8, 4 and 2 rows on the smooth members, on the side where m
    # oscillates (the other side grows past the overflow guard)
    wide = np.array([1.5e5, 5e5, 1e6])
    for name, spec in [("mixed", mixed), ("atoms", atoms), *SWEEP_MEMBERS.items()]:
        m = make_coefficient(spec)
        for lam in np.concatenate((lams, -wide if name == "negative" else wide)):
            _, t2 = solve_fundamental(m, lam, steps=4096)
            negative = np.signbit(t2.psi[1:])
            assert zero_count(m, lam) == np.count_nonzero(negative[1:] != negative[:-1]), lam
    # m = 1: the auxiliary points are 1/4 + (n pi)^2
    for lam in (5.0, 10.5, 100.0, 400.0):
        want = sum(0.25 + (n * math.pi) ** 2 < lam for n in range(1, 10))
        assert zero_count(const_m(1.0), lam) == want


@pytest.mark.parametrize("seed", range(6))
def test_zero_count_of_atoms_matches_the_green_matrix(seed):
    # 4-16 atoms, one per cell, weights in [0.5, 1.5]: between the atoms
    # psi'' = psi/4, so the auxiliary points are the reciprocal eigenvalues of
    # P^(1/2) G P^(1/2), G(x, s) = 2 sinh(min/2) sinh((1 - max)/2) / sinh(1/2)
    # the Dirichlet Green's function of -D^2 + 1/4; the count is #{mu_i < lam}
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 17))
    q = (np.arange(n) + rng.uniform(0.1, 0.9, n)) / n
    p = rng.uniform(0.5, 1.5, n)
    m = make_coefficient({"atoms": [{"q": float(a), "p": float(b)} for a, b in zip(q, p)]})
    lo, hi = np.minimum.outer(q, q), np.maximum.outer(q, q)
    green = 2.0 * np.sinh(0.5 * lo) * np.sinh(0.5 * (1.0 - hi)) / math.sinh(0.5)
    s = np.sqrt(p)
    mus = np.sort(1.0 / np.linalg.eigvalsh(s[:, None] * green * s[None, :]))
    lams = np.concatenate((0.5 * (np.r_[0.0, mus[:-1]] + mus), 2.0 * mus[-1:],
                           mus * (1.0 - 1e-6), mus * (1.0 + 1e-6), [-50.0]))
    for lam in lams:
        assert zero_count(m, lam) == np.count_nonzero(mus < lam), lam


# ---------------------------------------------------------------------------
# the step-matrix kernels against plain stage-form RK4

def stage_rk4(m, lam, steps):
    """Both fundamental columns by classical RK4 stages, one step at a time.

    Segments split at the atoms with an even step count of at least two, as
    the integrator splits them; returns rows (y1, y2, y1', y2') at every grid
    point, atom positions stored twice (pre/post jump).
    """
    cuts = sorted({0.0, 1.0, *(a.q for a in m.atoms)})
    weight = {a.q: a.p for a in m.atoms}
    p, d = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    d = d - lam * weight.get(0.0, 0.0) * p
    rows = []
    for a, b in zip(cuts, cuts[1:]):
        n = max(2, math.ceil(steps * (b - a)))
        n += n % 2
        h = (b - a) / n
        c = 0.25 - lam * m.smooth_value(a + 0.5 * h * np.arange(2 * n + 1))
        rows.append(np.concatenate((p, d)))
        for ca, cb, cc in zip(c[0:-1:2], c[1::2], c[2::2]):
            k1p, k1d = d, ca * p
            k2p, k2d = d + 0.5 * h * k1d, cb * (p + 0.5 * h * k1p)
            k3p, k3d = d + 0.5 * h * k2d, cb * (p + 0.5 * h * k2p)
            k4p, k4d = d + h * k3d, cc * (p + h * k3p)
            p = p + h / 6.0 * (k1p + 2.0 * (k2p + k3p) + k4p)
            d = d + h / 6.0 * (k1d + 2.0 * (k2d + k3d) + k4d)
            rows.append(np.concatenate((p, d)))
        d = d - lam * weight.get(b, 0.0) * p
    return np.array(rows).T


REFERENCE_STEPS = 1024
REFERENCE_LAMS = (-50.0, 0.3, 551.5, 1e4)
# the atom at 0.999 leaves a 2-step segment; the other two segments have 380
# and 646 steps, so the pairwise tree meets odd lengths (95, 323)
REFERENCE_MEMBERS = {
    "two_mode": {"smooth": {"kind": "fourier", "a0": 1.0, "cos": [0.25],
                            "sin": [0.0, 0.1]}, "atoms": []},
    "mixed": {"smooth": {"kind": "fourier", "a0": 1.0, "cos": [0.3], "sin": [0.0, 0.1]},
              "atoms": [{"q": 0.37, "p": 0.6}, {"q": 0.999, "p": 0.4}]},
    # the jump at x = 0 acts on the initial data; x = 0 is stored once, post-jump
    "atom_at_zero": {"smooth": {"kind": "fourier", "a0": 1.0, "cos": [0.3]},
                     "atoms": [{"q": 0.0, "p": 0.5}, {"q": 0.999, "p": 0.4}]},
}


def assert_matches(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.fixture(scope="module", params=sorted(REFERENCE_MEMBERS))
def reference(request):
    m = make_coefficient(REFERENCE_MEMBERS[request.param])
    return m, {lam: stage_rk4(m, lam, REFERENCE_STEPS) for lam in REFERENCE_LAMS}


def test_single_lambda_kernels_match_stage_rk4(reference):
    m, ref = reference
    for lam, rows in ref.items():
        y1, y2, dy1, dy2 = rows[:, -1]
        U = fundamental_matrix(m, lam, steps=REFERENCE_STEPS)
        assert_matches([U.y1, U.y2], [y1, y2])
        assert_matches([U.dy1, U.dy2], [dy1, dy2])


def test_dense_pair_matches_stage_rk4(reference):
    m, ref = reference
    for lam, rows in ref.items():
        t1, t2 = solve_fundamental(m, lam, steps=REFERENCE_STEPS)
        for got, want in zip((t1.psi, t2.psi, t1.dpsi, t2.dpsi), rows):
            assert got.shape == want.shape
            assert_matches(got, want)


def test_batched_kernels_match_stage_rk4(reference):
    m, ref = reference
    lams = np.array(REFERENCE_LAMS)
    psi, dpsi = endpoint_column(m, lams, np.eye(2), REFERENCE_STEPS)
    y2, dy2 = endpoint_column(m, lams, (0.0, 1.0), REFERENCE_STEPS)
    for k, lam in enumerate(REFERENCE_LAMS):
        want = ref[lam][:, -1]
        assert_matches(psi[:, k], want[:2])
        assert_matches(dpsi[:, k], want[2:])
        assert_matches([y2[k]], [want[1]])
        assert_matches([dy2[k]], [want[3]])


def test_det_one_at_large_lambda():
    # RK4 itself drifts det U by about (h omega)^6 / 72 per step: 1.3e-8 over
    # 4096 steps at lambda = 1e4, 1.3e-11 over 16384
    m = make_coefficient(REFERENCE_MEMBERS["mixed"])
    assert abs(fundamental_matrix(m, 1e4, steps=16384).det - 1.0) <= 1e-10


WEIGHT_MEMBERS = dict(REFERENCE_MEMBERS, grid_end_off_atom={
    "smooth": {"kind": "fourier", "a0": 1.0, "cos": [0.3]},
    "atoms": [{"q": 0.03, "p": 0.5}, {"q": 0.3, "p": 0.4}]})


@pytest.mark.parametrize("steps", [256, 1000, 4096])
@pytest.mark.parametrize("name", sorted(WEIGHT_MEMBERS))
def test_dense_pair_integration_weights(name, steps):
    # Simpson's rule is exact for cubics on every stretch, so the weights
    # integrate 1 and x^3 over [0, 1] to rounding
    m = make_coefficient(WEIGHT_MEMBERS[name])
    t, _ = solve_fundamental(m, 1.0, steps=steps)
    assert abs(t.w.sum() - 1.0) <= 4e-16
    assert abs(t.w @ t.xs ** 3 - 0.25) <= 1e-15
    # p is nonzero on the atoms' rows alone, one row each, in order
    post = np.nonzero(t.p)[0]
    assert t.p[post].tolist() == [atom.p for atom in m.atoms]
    assert t.xs[post].tolist() == [atom.q for atom in m.atoms]
    # x = 0 is stored once; any other atom closes a stretch whose last row,
    # its pre-jump row, ends at q up to rounding, and both rows carry weight
    pre = post[post > 0] - 1
    np.testing.assert_allclose(t.xs[pre], t.xs[post[post > 0]], rtol=0, atol=1e-15)
    assert np.all(t.w[post] > 0.0) and np.all(t.w[pre] > 0.0)


# the spline samples two_mode at 16 points (the CI rerun loop's two_mode16.json)
SAMPLED_MEMBERS = {
    "const": {"smooth": {"kind": "const", "value": 1.0}},
    "two_mode": REFERENCE_MEMBERS["two_mode"],
    "two_mode16": {"smooth": {"kind": "samples", "values": [
        1.25, 1.301680561246, 1.276776695297, 1.16638153621, 1.0, 0.83361846379,
        0.723223304703, 0.698319438754, 0.75, 0.839740794991, 0.923223304703,
        0.975039820027, 1.0, 1.024960179973, 1.076776695297, 1.160259205009]}},
    "atom_at_zero": REFERENCE_MEMBERS["atom_at_zero"],
}


@pytest.mark.parametrize("name", sorted(SAMPLED_MEMBERS))
def test_dense_pair_carries_m_on_its_grid(name):
    # m_s and m_s' at the row ends, the atoms' repeated rows included, are
    # what sampling m on the grid gives, bit for bit, shared by the pair
    m = make_coefficient(SAMPLED_MEMBERS[name])
    t1, t2 = solve_fundamental(m, 39.4, steps=1000)
    assert np.array_equal(t1.ms, m.smooth_value(t1.xs))
    assert np.array_equal(t1.dms, m.smooth_derivative(t1.xs))
    assert t2.ms is t1.ms and t2.dms is t1.dms
    y = t1.combine(t2, 0.5)
    assert y.ms is t1.ms and y.dms is t1.dms


# ---------------------------------------------------------------------------
# the per-process memo of step tables

MEMO_MEMBERS = dict(SAMPLED_MEMBERS, peakon_offset={"atoms": [{"q": 0.3, "p": 1.0}]})


def memo_results(m):
    """Bytes of every shooting operation at one lambda, in a fixed order."""
    t1, t2 = solve_fundamental(m, 39.4, steps=1000)
    out = [dataclasses.astuple(fundamental_matrix(m, 39.4, steps=1000)),
           dataclasses.astuple(fundamental_matrix(m, 39.4, 0.61, steps=1000)),
           [zero_count(m, 39.4, steps=1000)],
           *endpoint_column(m, [3.0, 39.4], steps=1000),
           *endpoint_column(m, [3.0, 39.4], np.eye(2), steps=1000),
           *(getattr(t, f) for t in (t1, t2) for f in ("xs", "psi", "dpsi", "w", "p", "ms", "dms"))]
    return [np.asarray(v, dtype=float).tobytes() for v in out]


@pytest.mark.parametrize("name", sorted(MEMO_MEMBERS))
def test_memoised_tables_give_the_cold_results(name):
    m = make_coefficient(MEMO_MEMBERS[name])
    shooting._built_table.cache_clear()
    cold = memo_results(m)
    misses = shooting._built_table.cache_info().misses
    assert memo_results(m) == cold
    assert shooting._built_table.cache_info().misses == misses


def test_memoised_tables_are_read_only():
    m = make_coefficient(MEMO_MEMBERS["atom_at_zero"])
    t = shooting._table(m, 1000, dense=True)
    arrays = [a for a in t if isinstance(a, np.ndarray)]
    assert len(arrays) == 8
    for a in arrays + [solve_fundamental(m, 39.4, steps=1000)[0].ms]:
        with pytest.raises(ValueError):
            a[0] = 1.0
    # the plain RK4 table's arrays, its blocks among them, built with it
    plain = shooting._table(m, 1000)
    # C-contiguous: a strided block array would make every evaluation copy it
    assert plain.blocks is not None and plain.blocks.flags.c_contiguous
    for a in (a for a in plain if isinstance(a, np.ndarray)):
        with pytest.raises(ValueError):
            a.flat[0] = 1.0


def test_memo_stays_bounded():
    shooting._built_table.cache_clear()
    for c in range(shooting._TABLES_KEPT + 3):
        fundamental_matrix(const_m(1.0 + c), 5.0, steps=64)
    assert shooting._built_table.cache_info().currsize == shooting._TABLES_KEPT


def test_default_spellings_share_one_table():
    m = make_coefficient(MEMO_MEMBERS["two_mode"])
    shooting._built_table.cache_clear()
    t = shooting._table(m, 1000)
    assert shooting._table(m, 1000, 1.0) is t
    assert shooting._table(m, 1000, x1=1.0, dense=False) is t
    zero_count(m, 39.4, 1000)
    fundamental_matrix(m, 39.4, 1.0, 1000)
    positive_part_vanishes(m, 1000)
    endpoint_column(m, [39.4], steps=1000)
    assert shooting._built_table.cache_info().currsize == 1


def test_a_coefficient_loaded_afresh_builds_its_own_table():
    # the memo keys the coefficient object, whose smooth part hashes by identity
    a, b = (make_coefficient(MEMO_MEMBERS["two_mode"]) for _ in range(2))
    shooting._built_table.cache_clear()
    ta, tb = shooting._table(a, 1000), shooting._table(b, 1000)
    assert ta is not tb and np.array_equal(ta.ms, tb.ms)
    assert shooting._built_table.cache_info().misses == 2


# ---------------------------------------------------------------------------
# the batched sweep's blocks of rows against the one-lambda kernels

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"
# every shipped config and the five inline members of tools/artifacts.sh
SWEEP_MEMBERS = {
    **{path.stem: json.loads(path.read_text()) for path in sorted(CONFIGS.glob("*.json"))},
    "negative": {"smooth": {"kind": "const", "value": -1.0}},
    "atom_at_zero": REFERENCE_MEMBERS["atom_at_zero"],
    "atoms16": {"atoms": [{"q": (2 * i + 1) / 32, "p": 1.0 + 0.25 * (i % 4)} for i in range(16)]},
    "samples16": {"smooth": {"kind": "samples", "values": [
        1.2, 1.184775906502, 1.141421356237, 1.076536686473, 1.0, 0.923463313527,
        0.858578643763, 0.815224093498, 0.8, 0.815224093498, 0.858578643763,
        0.923463313527, 1.0, 1.076536686473, 1.141421356237, 1.184775906502]}},
    "two_mode16": SAMPLED_MEMBERS["two_mode16"],
}
SWEEP_WINDOWS = [(0.0, 50.0), (-500.0, 500.0), (0.0, 5e4), (0.0, 1e6)]


def swing_bound(m, lam, u):
    """1e-13 of the size a column reaches on its way: max|U| at x = 1, times the
    frequency sqrt(|lam| max|m_s|), since psi' swings to about omega |psi| and
    rounding along the way lands on U at that size even where U(1) is near I."""
    ms = shooting._table(m, shooting.DEFAULT_STEPS).ms
    omega = 0.0 if ms is None else math.sqrt(abs(lam) * np.max(np.abs(ms)))
    return 1e-13 * np.max(np.abs(u)) * max(1.0, omega)


@pytest.mark.parametrize("window", SWEEP_WINDOWS, ids=lambda w: f"{w[0]:g}..{w[1]:g}")
@pytest.mark.parametrize("name", sorted(SWEEP_MEMBERS))
def test_blocked_sweep_matches_the_transfer_matrix(name, window):
    m = make_coefficient(SWEEP_MEMBERS[name])
    lams = np.linspace(*window, 17)
    if name == "negative" and window[1] == 1e6:
        # c = 1/4 + lambda grows psi by e^1000: both kernels refuse
        with pytest.raises(BlowUpError):
            fundamental_matrix(m, window[1])
        with pytest.raises(BlowUpError):
            endpoint_column(m, lams, np.eye(2))
        return
    psi, dpsi = endpoint_column(m, lams, np.eye(2))
    y2, dy2 = endpoint_column(m, lams, (0.0, 1.0))
    # a column is a lane: one pass of two columns is two passes of one
    assert np.array_equal(y2, psi[1]) and np.array_equal(dy2, dpsi[1])
    for k, lam in enumerate(lams):
        # the dense pair folds single rows, not the sweep's blocks
        t1, t2 = solve_fundamental(m, lam)
        want = np.array([[t1.psi[-1], t2.psi[-1]], [t1.dpsi[-1], t2.dpsi[-1]]])
        got = np.array([psi[:, k], dpsi[:, k]])
        assert np.max(np.abs(got - want)) <= swing_bound(m, lam, want), lam
    t = shooting._table(m, shooting.DEFAULT_STEPS)
    top = max(abs(window[0]), window[1])
    if t.ms is None:
        assert t.blocks is None     # exact rows: every lambda walks them one by one
    elif window[1] == 1e6:
        assert not top <= t.limit   # a wide window passes the blocks' limit
    elif not m.atoms and window[1] == 50.0:
        assert top <= t.limit


@pytest.mark.parametrize("name", sorted(n for n, spec in SWEEP_MEMBERS.items() if "smooth" in spec))
def test_blocked_sweep_matches_stage_rk4(name):
    # 1024 steps up to 5e4: blocks, and rows past their limit, each lane
    # against plain RK4 (a stretch with no smooth part is one exact row,
    # which RK4 only approximates)
    m = make_coefficient(SWEEP_MEMBERS[name])
    lams = (-500.0, 0.3, 50.0, 5e4)
    psi, dpsi = endpoint_column(m, lams, np.eye(2), REFERENCE_STEPS)
    for k, lam in enumerate(lams):
        y1, y2, dy1, dy2 = stage_rk4(m, lam, REFERENCE_STEPS)[:, -1]
        want = np.array([[y1, y2], [dy1, dy2]])
        got = np.array([psi[:, k], dpsi[:, k]])
        assert np.max(np.abs(got - want)) <= swing_bound(m, lam, want), lam


# blocks of 16 rows on the smooth members up to their limit, single rows
# above it; single rows on the atomic ones at every lambda
BLOCK_LAMS = (-500.0, 0.3, 37.3, 551.5, 5e4, 1.5e5, 5e5, 1e6)


@pytest.mark.parametrize("name", sorted(SWEEP_MEMBERS))
def test_blocked_transfer_matrix_matches_the_dense_pair(name):
    # the one-lambda product of blocks against the last row of the dense pair,
    # a prefix scan of single rows (RK4 rows on atom-only stretches too, whose
    # error at 4096 steps is far below rounding); m = -1 grows past the guard
    # at lambda = 5e5, so it is checked at -lambda
    m = make_coefficient(SWEEP_MEMBERS[name])
    t = shooting._table(m, shooting.DEFAULT_STEPS)
    blocked = set()
    for lam in (-np.array(BLOCK_LAMS) if name == "negative" else BLOCK_LAMS):
        U = fundamental_matrix(m, lam)
        t1, t2 = solve_fundamental(m, lam)
        want = np.array([[t1.psi[-1], t2.psi[-1]], [t1.dpsi[-1], t2.dpsi[-1]]])
        got = np.array([[U.y1, U.y2], [U.dy1, U.dy2]])
        assert np.max(np.abs(got - want)) <= swing_bound(m, lam, want), lam
        blocked.add(bool(abs(lam) <= t.limit))
    # both walks on an RK4 table, rows alone on an exact one
    assert blocked == ({False} if t.ms is None else {True, False})


def walks_blocks(monkeypatch, t, m, lams):
    """Per lane of endpoint_column(m, lams): True where it walked the blocks of
    the table t, False where it walked its rows."""
    def spy(blocks, lanes, column):
        assert blocks is t.blocks or np.array_equal(blocks, shooting._rows(t))
        return np.full((2, lanes.size), float(blocks is t.blocks))

    monkeypatch.setattr(shooting, "_walk", spy)
    return (endpoint_column(m, lams)[0] == 1.0).tolist()


@pytest.mark.parametrize("name", sorted(SWEEP_MEMBERS))
def test_block_limits_admit_a_phase_of_at_most_one(name, monkeypatch):
    # restated from the rule: a block of length H and atom mass P at |lambda|
    # = L turns by sqrt(H^2 (1/4 + L max|m_s|) + L P H); the limit is the
    # largest L at which every block of 16 RK4 rows stays within 1, unless
    # L^32 would pass 2^1000 first; exact rows get no blocks and limit -1
    m = make_coefficient(SWEEP_MEMBERS[name])
    t = shooting._table(m, shooting.DEFAULT_STEPS)
    limit = t.limit
    if t.ms is None:
        assert t.blocks is None and limit == -1.0
    else:
        h, p = np.broadcast_to(t.h, t.p.shape), np.abs(t.p)
        starts = np.arange(0, h.size, shooting._BLOCK_ROWS)
        length, mass = np.add.reduceat(h, starts), np.add.reduceat(p, starts)

        def phase(top):
            return np.max(np.sqrt(length ** 2 * (0.25 + top * np.max(np.abs(t.ms)))
                                  + top * mass * length))

        cap = 2.0 ** (1000 / 32)
        assert t.blocks.shape == (starts.size, 4, 33)
        assert phase(limit) <= 1.0 + 1e-15 and limit <= cap
        assert phase(limit * (1.0 + 1e-9)) > 1.0 or limit == cap
    # one lambda, a Python float, or the lanes of a sweep: blocks at and
    # below the limit, rows above it and at nan and inf
    tops = [0.0, -0.0, limit, -limit, math.nextafter(limit, -math.inf),
            math.nextafter(limit, math.inf), math.inf, -math.inf, math.nan]
    want = [limit >= 0.0] * 5 + [False] * 4
    with np.errstate(all="ignore"):
        rows = [len(shooting._evaluated(t, top)) for top in tops]
    assert [n != t.p.size for n in rows] == want
    assert walks_blocks(monkeypatch, t, m, tops) == want


@pytest.mark.parametrize("lam", [0.0, -0.0, 0.3, -37.3, 551.5, 1e6, -1e20, 1e160, math.nan])
def test_powers_of_one_lambda_are_the_array_powers(lam):
    # one lambda's powers, formed in Python, against the lanes' products,
    # bit for bit, at every number of terms a walk uses (exact rows, RK4
    # rows, blocks), past overflow too
    for terms in (2, 3, 2 * shooting._BLOCK_ROWS + 1):
        one = np.array(shooting._powers(lam, terms))
        with np.errstate(over="ignore"):
            lanes = shooting._powers(np.array([lam]), terms)[:, 0]
        assert one.tobytes() == lanes.tobytes()


@pytest.mark.parametrize("m, lam", [
    (const_m(1e-6), 1e10), (const_m(1e-6), 3e9), (const_m(1e-9), 1e13),
    (peakon(1e-12, 0.5), 1e14), (const_m(0.0), 1e20), (const_m(0.0), 1e300),
], ids=["1e-6@1e10", "1e-6@3e9", "1e-9@1e13", "atom1e-12@1e14", "zero@1e20", "zero@1e300"])
def test_blocks_stay_finite_where_a_small_m_admits_a_large_lambda(m, lam):
    # a tiny m turns slowly at a huge lambda: the phase admits the blocks,
    # whose powers of lambda would overflow unless the limit caps them
    t1, t2 = solve_fundamental(m, lam)
    want = np.array([[t1.psi[-1], t2.psi[-1]], [t1.dpsi[-1], t2.dpsi[-1]]])
    U = fundamental_matrix(m, lam)
    got = np.array([[U.y1, U.y2], [U.dy1, U.dy2]])
    assert np.max(np.abs(got - want)) <= swing_bound(m, lam, want)
    psi, dpsi = endpoint_column(m, [lam, 0.5 * lam, 1.0], np.eye(2))
    assert np.max(np.abs(np.array([psi[:, 0], dpsi[:, 0]]) - want)) <= swing_bound(m, lam, want)
    negative = np.signbit(t2.psi[1:])
    assert zero_count(m, lam) == np.count_nonzero(negative[1:] != negative[:-1])
    if m.smooth_is_zero and not m.atoms:
        np.testing.assert_allclose(got, exact_zero_propagator(1.0), rtol=1e-14)


@pytest.mark.parametrize("lam", [1e160, -1e160])
def test_single_rows_stay_finite_where_lambda_squared_overflows(lam):
    # past the limit, single rows: a row's polynomial holds lambda^2, which overflows
    # above |lambda| = 1.3e154, while its entries from c = 1/4 - lambda m_s,
    # here c ~ 1/4, do not
    m = const_m(1e-200)
    t1, t2 = solve_fundamental(m, lam)
    want = np.array([[t1.psi[-1], t2.psi[-1]], [t1.dpsi[-1], t2.dpsi[-1]]])
    U = fundamental_matrix(m, lam)
    got = np.array([[U.y1, U.y2], [U.dy1, U.dy2]])
    assert np.max(np.abs(got - want)) <= swing_bound(m, lam, want)
    np.testing.assert_allclose(got, exact_zero_propagator(1.0), rtol=1e-12)
    negative = np.signbit(t2.psi[1:])
    assert zero_count(m, lam) == np.count_nonzero(negative[1:] != negative[:-1]) == 0


def test_sweep_lanes_walk_the_blocks_their_lambda_admits(monkeypatch):
    # one atom of weight 0.5 puts the blocks' limit near 541; the lanes below
    # it walk the blocks, the lanes above walk the rows
    m = make_coefficient(SWEEP_MEMBERS["atom_at_zero"])
    lams = np.linspace(-500.0, 5e4, 101)
    t = shooting._table(m, shooting.DEFAULT_STEPS)
    assert 500.0 < t.limit < 5e4
    assert walks_blocks(monkeypatch, t, m, lams) == (np.abs(lams) <= t.limit).tolist()


@pytest.mark.parametrize("name", ["two_mode", "atoms16"])
def test_empty_sweep_keeps_the_shapes(name):
    m = make_coefficient(SWEEP_MEMBERS[name])
    psi, dpsi = endpoint_column(m, [])
    assert psi.shape == dpsi.shape == (0,)
    psi, dpsi = endpoint_column(m, np.array([]), np.eye(2))
    assert psi.shape == dpsi.shape == (2, 0)


@pytest.mark.parametrize("name", ["two_mode", "atom_at_zero", "atoms16"])
def test_repeated_sweeps_are_byte_identical(name):
    m = make_coefficient(SWEEP_MEMBERS[name])
    lams = np.linspace(-500.0, 5e4, 101)
    first = [a.tobytes() for a in endpoint_column(m, lams, np.eye(2))]
    shooting._built_table.cache_clear()
    assert [a.tobytes() for a in endpoint_column(m, lams, np.eye(2))] == first
    assert [a.tobytes() for a in endpoint_column(m, lams, np.eye(2))] == first


def test_exact_rows_are_built_with_the_table():
    # exact rows do not depend on lambda: the table holds them, read-only,
    # and no blocks, which only an RK4 table composes, when it is built
    shooting._built_table.cache_clear()
    t = shooting._table(make_coefficient(SWEEP_MEMBERS["atoms16"]), 1000)
    assert t.ms is None and t.exact.shape == (4, t.h.size)
    assert np.array_equal(t.exact, shooting._exact(t.h))
    with pytest.raises(ValueError):
        t.exact[0, 0] = 1.0
    assert t.blocks is None and t.limit == -1.0
    rk4 = shooting._table(make_coefficient(SWEEP_MEMBERS["two_mode"]), 1000)
    assert rk4.exact is None and rk4.blocks.shape == (63, 4, 33) and rk4.limit > 0.0


def compose_polys_by_coefficient(a, b):
    """The composition of rows of polynomial coefficients as first written,
    one coefficient at a time with the rows outermost: the oracle for the
    bits of shooting._compose_polys."""
    n, terms = len(a), a.shape[-1]
    a, b = a.reshape(n, 2, 2, terms), b.reshape(n, 2, 2, terms)
    prod = np.matmul(a.transpose(0, 1, 3, 2).reshape(n, 2 * terms, 2),
                     b.reshape(n, 2, 2 * terms)).reshape(n, 2, terms, 2, terms)
    out = np.zeros((n, 2, 2, 2 * terms - 1))
    out[..., :terms] = a + b
    for r in range(terms):
        out[..., r:r + terms] += prod[:, :, r]
    return out.reshape(n, 4, 2 * terms - 1)


def assert_same_bits(got, want):
    assert got.shape == want.shape and np.array_equal(got, want)
    assert np.ascontiguousarray(got).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 37, 2048])
@pytest.mark.parametrize("degree", [2, 4, 8, 16])
def test_composed_polynomials_keep_the_bits_of_the_coefficient_loop(degree, n):
    # magnitudes over six decades and exact zeros, as padded rows have
    rng = np.random.default_rng(1000 * degree + n)
    a, b = (rng.standard_normal((n, 4, degree + 1)) * 10.0 ** rng.uniform(-3, 3, (n, 4, 1))
            * (rng.random((n, 4, degree + 1)) > 0.1) for _ in range(2))
    assert_same_bits(shooting._compose_polys(a, b), compose_polys_by_coefficient(a, b))


@pytest.mark.parametrize("name", ["two_mode", "const"])
def test_blocks_keep_the_bits_of_the_coefficient_loop(name):
    t = shooting._table(make_coefficient(SAMPLED_MEMBERS[name]), shooting.DEFAULT_STEPS)
    polys = shooting._rows(t)
    e = np.concatenate((polys, np.zeros((-len(polys) % shooting._BLOCK_ROWS,) + polys.shape[1:])))
    for _ in range(int(math.log2(shooting._BLOCK_ROWS))):
        e = compose_polys_by_coefficient(e[1::2], e[0::2])
    assert_same_bits(shooting._blocks(polys), e)
    assert_same_bits(t.blocks, e)


def transfer_by_concatenate(e):
    """shooting._transfer as first written, every level of the pairwise tree
    concatenating its odd row out, empty or not, in front of a + b + a @ b:
    the oracle for the bits of the tree."""
    if len(e) <= shooting._FOLD_ROWS:
        y1, y2, dy1, dy2 = 1.0, 0.0, 0.0, 1.0
        for d00, d01, d10, d11 in e.tolist():
            y1, dy1 = y1 + (d00 * y1 + d01 * dy1), dy1 + (d10 * y1 + d11 * dy1)
            y2, dy2 = y2 + (d00 * y2 + d01 * dy2), dy2 + (d10 * y2 + d11 * dy2)
        return y1, y2, dy1, dy2
    e = e.reshape(-1, 2, 2)
    while len(e) > 1:
        k = len(e) % 2
        a, b = e[k + 1::2], e[k::2]
        e = np.concatenate((e[:k], a + b + a @ b))
    return (e[0].ravel() + (1.0, 0.0, 0.0, 1.0)).tolist()


@pytest.mark.parametrize("transposed", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 129, 256, 257])
def test_transfer_keeps_the_bits_of_the_concatenating_tree(n, transposed):
    # rows over six decades, some exactly zero; transposed, as _evaluated
    # passes a table's rows
    rng = np.random.default_rng(n)
    e = (rng.standard_normal((4, n)) * 10.0 ** rng.uniform(-6, 0, n)
         * (rng.random((4, n)) > 0.1))
    e = e.T if transposed else np.ascontiguousarray(e.T)
    assert (np.array(shooting._transfer(e)).tobytes()
            == np.array(transfer_by_concatenate(e)).tobytes())


def step_polys_stacked(ma, mb, mc, h):
    """shooting._step_polys as first written, its twelve coefficient arrays
    broadcast against zeros and stacked: the oracle for its bits."""
    s = h * h / 6.0
    q = h ** 4 / 24.0
    zero = np.zeros_like(mb)
    diag = 0.75 * s + q / 16.0 + zero
    polys = ((diag, -s * (ma + 2.0 * mb) - 0.25 * q * (ma + mb), q * ma * mb),
             (h * (1.0 + 0.25 * s) + zero, -(h * s) * mb, zero),
             (h * (0.25 + s / 16.0) + zero,
              -(h / 6.0) * (ma + 4.0 * mb + mc) - (0.125 * h * s) * (ma + 2.0 * mb + mc),
              (0.5 * h * s) * mb * (ma + mc)),
             (diag, -s * (2.0 * mb + mc) - 0.25 * q * (mb + mc), q * mb * mc))
    return np.moveaxis(np.array(polys), (0, 1), (-2, -1))


@pytest.mark.parametrize("dense", [False, True])
@pytest.mark.parametrize("name", ["two_mode", "two_mode16", "atom_at_zero"])
def test_step_polys_keep_the_bits_of_the_stacked_formula(name, dense):
    # a plain table of one stretch has one float h, a dense one an array
    t = shooting._table(make_coefficient(SAMPLED_MEMBERS[name]), 1000, dense=dense)
    nodes = (t.ms[0:-1:2], t.ms[1::2], t.ms[2::2], t.h)
    assert_same_bits(shooting._step_polys(*nodes), step_polys_stacked(*nodes))


def test_step_polys_of_hat_rows_keep_the_bits_of_the_stacked_formula():
    # axes (offset, sign, site) for m, (offset, 1, site) for h, zero-length
    # steps among them, as the hat runs form them
    rng = np.random.default_rng(5)
    ma, mb, mc = rng.uniform(-1.0, 2.0, (3, 33, 2, 64))
    h = np.where(rng.random((33, 1, 64)) < 0.2, 0.0, 1.0 / 4096)
    assert_same_bits(shooting._step_polys(ma, mb, mc, h), step_polys_stacked(ma, mb, mc, h))


def test_only_shooting_knows_the_grid():
    # no other module imports a private name of shooting or reads one off it
    src = pathlib.Path(shooting.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "shooting.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("shooting"):
                found += [(path.name, a.name) for a in node.names if a.name.startswith("_")]
            if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and isinstance(node.value, ast.Name) and node.value.id == "shooting"):
                found.append((path.name, node.attr))
    assert found == []
