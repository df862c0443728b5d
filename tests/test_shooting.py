"""Transfer matrices and trajectories against constant-coefficient closed forms."""

import math

import numpy as np
import pytest

from chspectral.coefficient import make_coefficient
from chspectral.shooting import (
    BlowUpError,
    ShootingState,
    delta_jump,
    endpoint_column,
    endpoint_column_variants,
    fundamental_matrix,
    propagate,
    solve_fundamental,
    trajectory_wronskian,
    wronskian,
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


def test_delta_jump():
    s = ShootingState(x=0.3, psi=2.0, dpsi=0.5, lam=3.0)
    out = delta_jump(s, p=0.4)
    assert out.psi == 2.0
    assert out.dpsi == pytest.approx(0.5 - 3.0 * 0.4 * 2.0)
    assert out.x == 0.3 and out.lam == 3.0


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


def test_propagate_linearity():
    m = make_coefficient({"smooth": {"kind": "fourier", "a0": 1.0, "cos": [0.3]},
                          "atoms": []})
    lam = 7.0
    a = propagate(m, lam, ShootingState(0.0, 1.0, 0.0, lam), 1.0)
    b = propagate(m, lam, ShootingState(0.0, 0.0, 1.0, lam), 1.0)
    c = propagate(m, lam, ShootingState(0.0, 2.0, -3.0, lam), 1.0)
    assert c.psi == pytest.approx(2 * a.psi - 3 * b.psi, rel=1e-12)
    assert c.dpsi == pytest.approx(2 * a.dpsi - 3 * b.dpsi, rel=1e-12)


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


def test_wronskian_helpers():
    sa = ShootingState(0.5, 1.0, 2.0, 3.0)
    sb = ShootingState(0.5, 4.0, 5.0, 3.0)
    assert wronskian(sa, sb) == pytest.approx(1.0 * 5.0 - 2.0 * 4.0)
    with pytest.raises(ValueError):
        wronskian(sa, ShootingState(0.6, 4.0, 5.0, 3.0))
    with pytest.raises(ValueError):
        wronskian(sa, ShootingState(0.5, 4.0, 5.0, 2.0))


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
    assert len(t1.segments) == 2


def test_two_period_trajectory():
    m = const_m(1.0)
    lam = 3.0
    t1, t2 = solve_fundamental(m, lam, steps=256, periods=2)
    assert t2.xs[-1] == 2.0
    stride = t2.period_stride
    assert t2.xs[stride - 1] == 1.0
    # second-period endpoint equals U^2 acting on the starting column
    U = fundamental_matrix(m, lam, steps=256)
    M = np.array([[U.y1, U.y2], [U.dy1, U.dy2]])
    end = M @ M @ np.array([0.0, 1.0])
    assert t2.psi[-1] == pytest.approx(end[0], rel=1e-10)
    assert t2.dpsi[-1] == pytest.approx(end[1], rel=1e-10)
    first = t2.first_period()
    assert first.xs[-1] == 1.0
    assert first.psi[-1] == pytest.approx(U.y2, rel=1e-12)


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
        for column, want in (((1.0, 0.0), (y1, dy1)), ((0.0, 1.0), (y2, dy2))):
            end = propagate(m, lam, ShootingState(0.0, *column, lam), 1.0, REFERENCE_STEPS)
            assert_matches([end.psi], [want[0]])
            assert_matches([end.dpsi], [want[1]])


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
    vy2, vdy2 = endpoint_column_variants(
        lambda x: np.full(lams.shape, m.smooth_value(x)), m.atoms, lams, (0.0, 1.0),
        REFERENCE_STEPS)
    for k, lam in enumerate(REFERENCE_LAMS):
        want = ref[lam][:, -1]
        assert_matches(psi[:, k], want[:2])
        assert_matches(dpsi[:, k], want[2:])
        assert_matches([y2[k], vy2[k]], [want[1]] * 2)
        assert_matches([dy2[k], vdy2[k]], [want[3]] * 2)


def test_det_one_at_large_lambda():
    # RK4 itself drifts det U by about (h omega)^6 / 72 per step: 1.3e-8 over
    # 4096 steps at lambda = 1e4, 1.3e-11 over 16384
    m = make_coefficient(REFERENCE_MEMBERS["mixed"])
    assert abs(fundamental_matrix(m, 1e4, steps=16384).det - 1.0) <= 1e-10
