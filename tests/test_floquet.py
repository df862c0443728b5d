"""Discriminant, multipliers, auxiliary spectrum, band edges, gap counting."""

import math
import time

import numpy as np
import pytest

from chspectral.coefficient import make_coefficient
from chspectral.floquet import (
    JordanGapError,
    auxiliary_spectrum,
    discriminant,
    discriminant_sweep,
    gap_check,
    multipliers,
    periodic_spectrum,
    refine_point,
    second_floquet,
)
from chspectral.shooting import trajectory_wronskian


def const_m(c):
    return make_coefficient({"smooth": {"kind": "const", "value": c}, "atoms": []})


def peakon(p, q):
    return make_coefficient({"smooth": {"kind": "const", "value": 0.0},
                             "atoms": [{"q": q, "p": p}]})


def two_mode():
    return make_coefficient({"smooth": {"kind": "fourier", "a0": 1.0,
                                        "cos": [0.25], "sin": [0.0, 0.1]},
                             "atoms": []})


def test_discriminant_constant_coefficient():
    # m = 1: Delta = cos(sqrt(lambda - 1/4)) above the turning value
    for lam in (1.0, 10.0, 30.0):
        want = math.cos(math.sqrt(lam - 0.25))
        assert discriminant(const_m(1.0), lam) == pytest.approx(want, abs=1e-11)


def test_discriminant_at_zero_is_universal():
    # lambda = 0 removes the coefficient entirely: Delta(0) = cosh(1/2)
    configs = [const_m(1.0), peakon(1.0, 0.3), two_mode()]
    for m in configs:
        assert discriminant(m, 0.0) == pytest.approx(math.cosh(0.5), abs=1e-12)


def test_discriminant_peakon_affine():
    # Delta(lambda) = cosh(1/2) - lambda p sinh(1/2)
    p = 0.8
    for lam in (0.0, 1.5, 6.0):
        want = math.cosh(0.5) - lam * p * math.sinh(0.5)
        assert discriminant(peakon(p, 0.4), lam) == pytest.approx(want, abs=1e-13)


def test_discriminant_sweep_matches_scalar():
    m = two_mode()
    lams = np.array([0.0, 3.0, 11.0, 47.0])
    sweep = discriminant_sweep(m, lams, steps=512)
    for k, lam in enumerate(lams):
        assert sweep[k] == pytest.approx(discriminant(m, lam, steps=512), rel=1e-13)


def test_multipliers_real_pair():
    big, small = multipliers(1.25)
    assert big == pytest.approx(2.0)
    assert small == pytest.approx(0.5)
    assert big * small == pytest.approx(1.0, rel=1e-15)


def test_multipliers_negative_and_huge():
    big, small = multipliers(-3.0)
    assert big == pytest.approx(-3.0 - math.sqrt(8.0))
    assert small == pytest.approx(-3.0 + math.sqrt(8.0), rel=1e-12)
    big, small = multipliers(1e8)
    assert big == pytest.approx(2e8, rel=1e-8)
    assert small == pytest.approx(5e-9, rel=1e-8)
    assert big * small == pytest.approx(1.0, rel=1e-15)


def test_multipliers_inside_band():
    a, b = multipliers(0.3)
    assert a == b.conjugate()
    assert abs(a) == pytest.approx(1.0, rel=1e-15)
    assert a * b == pytest.approx(1.0, rel=1e-14)


def test_auxiliary_spectrum_constant_coefficient():
    # m = 1: y2(1, lambda) = sin(omega)/omega, roots at 1/4 + (n pi)^2
    pts = auxiliary_spectrum(const_m(1.0), count=3)
    assert len(pts) == 3
    for n, pt in enumerate(pts, start=1):
        assert pt.mu == pytest.approx(0.25 + (n * math.pi) ** 2, rel=1e-9)
        assert pt.rho == pytest.approx((-1.0) ** n, abs=1e-9)
        assert pt.rho_tilde == pytest.approx((-1.0) ** n, abs=1e-9)
        assert pt.degenerate
        assert abs(pt.dy1_end) < 1e-7  # monodromy is +-identity here
        assert pt.rho * pt.rho_tilde == pytest.approx(1.0, abs=1e-9)


def test_auxiliary_spectrum_peakon_closed_form():
    p, q = 1.0, 0.3
    mu_want = math.sinh(0.5) / (2 * p * math.sinh(q / 2) * math.sinh((1 - q) / 2))
    rho_want = -math.sinh(q / 2) / math.sinh((1 - q) / 2)
    pts = auxiliary_spectrum(peakon(p, q), lam_max=20.0)
    assert len(pts) == 1
    pt = pts[0]
    assert pt.mu == pytest.approx(mu_want, rel=1e-12)
    assert pt.rho == pytest.approx(rho_want, rel=1e-12)
    assert pt.rho_tilde == pytest.approx(1.0 / rho_want, rel=1e-12)
    assert not pt.degenerate


def test_auxiliary_spectrum_peakon_band_edge():
    # symmetric site: mu lands exactly on the band edge with rho = -1
    pts = auxiliary_spectrum(peakon(1.0, 0.5), lam_max=20.0)
    assert len(pts) == 1
    pt = pts[0]
    assert pt.mu == pytest.approx(1.0 / math.tanh(0.25), rel=1e-12)
    assert pt.rho == pytest.approx(-1.0, abs=1e-12)
    assert pt.degenerate
    # but the off-diagonal entry survives: nontrivial Jordan block
    assert abs(pt.dy1_end) > 1.0


def test_auxiliary_spectrum_needs_window_or_count():
    with pytest.raises(ValueError):
        auxiliary_spectrum(const_m(1.0))


def test_auxiliary_spectrum_count_truncates():
    pts = auxiliary_spectrum(const_m(1.0), lam_max=120.0, count=2)
    assert len(pts) == 2


def test_refine_point_tracks_root():
    m = two_mode()
    pt = auxiliary_spectrum(m, count=1, steps=1024)[0]
    finer = refine_point(m, pt, steps=2048)
    assert finer.steps == 2048
    assert finer.mu == pytest.approx(pt.mu, rel=1e-8)


def test_second_floquet_multiplier_property():
    # y2(x+1) = rho y2(x), y(x+1) = y(x)/rho, wronskian -1, y(0) = 1
    m = peakon(1.0, 0.3)
    pt = auxiliary_spectrum(m, lam_max=20.0)[0]
    t2, y, b = second_floquet(m, pt, periods=2)
    stride = t2.period_stride
    np.testing.assert_allclose(t2.psi[stride:], pt.rho * t2.psi[:stride], atol=1e-10)
    np.testing.assert_allclose(y.psi[stride:], y.psi[:stride] / pt.rho, atol=1e-9)
    assert y.psi[0] == 1.0
    w = trajectory_wronskian(t2, y)
    np.testing.assert_allclose(w, -1.0, atol=1e-10)


def test_second_floquet_smooth_member():
    m = two_mode()
    pt = auxiliary_spectrum(m, count=1)[0]
    assert not pt.degenerate
    t2, y, b = second_floquet(m, pt, periods=2)
    stride = t2.period_stride
    np.testing.assert_allclose(y.psi[stride:], y.psi[:stride] / pt.rho,
                               atol=1e-7 * np.max(np.abs(y.psi)))
    w = trajectory_wronskian(t2, y)
    np.testing.assert_allclose(w, -1.0, atol=1e-8 * max(1.0, np.max(np.abs(w))))


def test_second_floquet_band_edge_identity_monodromy():
    # m = 1 at mu_n: U = +-I, first fundamental solution is already Floquet
    m = const_m(1.0)
    pt = auxiliary_spectrum(m, count=1)[0]
    t2, y, b = second_floquet(m, pt, periods=2)
    assert b == 0.0
    omega = math.sqrt(pt.mu - 0.25)
    np.testing.assert_allclose(y.psi, np.cos(omega * y.xs), atol=1e-8)


def test_second_floquet_jordan_rejected():
    m = peakon(1.0, 0.5)
    pt = auxiliary_spectrum(m, lam_max=20.0)[0]
    with pytest.raises(JordanGapError):
        second_floquet(m, pt)


def test_periodic_spectrum_constant_coefficient():
    # Delta = cos(sqrt(lambda - 1/4)): simple edge at 1/4, tangencies at
    # 1/4 + (n pi)^2 where every gap closes
    edges = periodic_spectrum(const_m(1.0), 1e-6, 50.0)
    lams = [e.lam for e in edges]
    kinds = [e.kind for e in edges]
    mults = [e.multiplicity for e in edges]
    want = [0.25, 0.25 + math.pi ** 2, 0.25 + 4 * math.pi ** 2]
    assert len(edges) == 3
    np.testing.assert_allclose(lams, want, rtol=1e-7)
    assert kinds == ["periodic", "antiperiodic", "periodic"]
    assert mults == [1, 2, 2]


def test_periodic_spectrum_peakon():
    edges = periodic_spectrum(peakon(1.0, 0.3), 1e-6, 20.0)
    assert len(edges) == 2
    assert edges[0].kind == "periodic"
    assert edges[0].lam == pytest.approx(math.tanh(0.25), rel=1e-10)
    assert edges[1].kind == "antiperiodic"
    assert edges[1].lam == pytest.approx(1.0 / math.tanh(0.25), rel=1e-10)
    assert [e.multiplicity for e in edges] == [1, 1]


def test_periodic_spectrum_near_edge_auxiliary_point():
    # first gap of the two-mode coefficient is wide open, but mu sits within
    # about 1e-6 of its upper edge; edge-tolerant counting must still place it
    m = two_mode()
    edges = periodic_spectrum(m, 1e-6, 15.0)
    assert [e.multiplicity for e in edges] == [1, 1, 1]
    assert [e.kind for e in edges] == ["periodic", "antiperiodic", "antiperiodic"]
    lo, hi = edges[1].lam, edges[2].lam
    assert 1.0 < hi - lo < 4.0
    mu = auxiliary_spectrum(m, count=1)[0].mu
    assert lo < mu <= hi + 1e-5 * max(1.0, abs(hi))
    assert abs(mu - hi) < 1e-4


def five_atoms():
    # a band of this coefficient near 1173 is only 2.6e-7 wide
    q = [0.03302392466573567, 0.12313365606638971, 0.1249063821776657,
         0.17630437136812716, 0.503336447986407]
    p = [2.6093319052813384, 1.5558797521750076, 0.7143698588566982,
         2.075620767488474, 0.9444216575454945]
    return make_coefficient({"smooth": {"kind": "const", "value": 0.0},
                             "atoms": [{"q": a, "p": b} for a, b in zip(q, p)]})


def test_periodic_spectrum_keeps_close_edges_of_both_kinds():
    edges = periodic_spectrum(five_atoms(), 1100.0, 1200.0)
    assert [e.kind for e in edges] == ["periodic", "antiperiodic"]
    assert edges[0].lam == pytest.approx(1173.3637247263, abs=1e-9)
    assert edges[1].lam == pytest.approx(1173.3637249907, abs=1e-9)
    # Delta is a polynomial of degree 5: each of Delta = +-1 has five roots
    edges = periodic_spectrum(five_atoms(), 1e-6, 1200.0)
    assert sum(e.multiplicity for e in edges) == 10


@pytest.mark.parametrize("spec", [
    {"smooth": {"kind": "const", "value": -1.0}, "atoms": []},
    {"smooth": {"kind": "const", "value": 0.0}, "atoms": [{"q": 0.3, "p": -1.0}]},
], ids=["negative_const", "negative_atom"])
def test_auxiliary_spectrum_without_positive_part_fails_fast(spec):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="no positive part"):
        auxiliary_spectrum(make_coefficient(spec), count=2)
    assert time.perf_counter() - start < 1.0


def test_gap_check_constant_coefficient():
    chk = gap_check(const_m(1.0), 1e-6, 50.0)
    assert chk.passed
    assert len(chk.gaps) == 2
    for gap in chk.gaps:
        assert gap.closed and not gap.cut
        assert len(gap.mus) == 1
    assert chk.ground == () and chk.stray == ()


def test_gap_check_peakon_half_infinite_gap():
    chk = gap_check(peakon(1.0, 0.3), 1e-6, 20.0)
    assert chk.passed
    assert len(chk.gaps) == 1
    gap = chk.gaps[0]
    assert gap.cut and not gap.closed
    assert len(gap.mus) == 1


def test_gap_check_pinned_edge_counts_inside():
    chk = gap_check(peakon(1.0, 0.5), 1e-6, 20.0)
    assert chk.passed
    assert len(chk.gaps[0].mus) == 1


def test_gap_check_two_mode_window():
    chk = gap_check(two_mode(), 1e-6, 15.0)
    assert chk.passed
    assert len(chk.gaps) == 1
    assert not chk.gaps[0].closed
