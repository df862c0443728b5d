"""Discriminant, multipliers, auxiliary spectrum, band edges, gap counting."""

import math
import time

import numpy as np
import pytest

from chspectral import floquet
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


def test_auxiliary_spectrum_count_scans_only_the_added_window(monkeypatch):
    scanned = []
    real = floquet._aux_roots

    def recording(m, lo, hi, *args):
        scanned.append((lo, hi))
        return real(m, lo, hi, *args)

    monkeypatch.setattr(floquet, "_aux_roots", recording)
    grown = auxiliary_spectrum(two_mode(), count=3)
    # two_mode has two points below 50: the window grows once, and the second
    # scan starts where the first one stopped
    assert len(scanned) == 2 and scanned[1][0] == scanned[0][1]
    window = auxiliary_spectrum(two_mode(), lam_max=100.0)
    assert [(p.index, p.mu) for p in grown] == [(p.index, p.mu) for p in window[:3]]


def test_auxiliary_spectrum_count_grows_upward_from_negative_lam_min():
    # [-60, -10] holds no point; the window must grow toward +inf, by the
    # rule that set it, and reach the points found from lam_min = -10
    low = auxiliary_spectrum(two_mode(), lam_min=-60.0, count=2, steps=1024)
    ref = auxiliary_spectrum(two_mode(), lam_min=-10.0, count=2, steps=1024)
    assert [p.mu for p in low] == [p.mu for p in ref]
    np.testing.assert_allclose([p.mu for p in low], [11.528, 39.445], atol=1e-3)


def test_refine_point_tracks_root():
    m = two_mode()
    pt = auxiliary_spectrum(m, count=1, steps=1024)[0]
    finer = refine_point(m, pt, steps=2048)
    assert finer.steps == 2048
    assert finer.mu == pytest.approx(pt.mu, rel=1e-8)


def ends(t):
    """Cauchy data (psi, psi') at x = 0 and at x = 1."""
    return np.array([t.psi[0], t.dpsi[0]]), np.array([t.psi[-1], t.dpsi[-1]])


def test_second_floquet_multiplier_property():
    # y2(x+1) = rho y2(x), y(x+1) = y(x)/rho, wronskian -1, y(0) = 1; the
    # Floquet property is U(1) acting on the data at 0
    m = peakon(1.0, 0.3)
    pt = auxiliary_spectrum(m, lam_max=20.0)[0]
    t1, t2, y, b = second_floquet(m, pt)
    start, end = ends(t2)
    np.testing.assert_allclose(end, pt.rho * start, atol=1e-10)
    start, end = ends(y)
    np.testing.assert_allclose(end, start / pt.rho, atol=1e-9)
    assert y.psi[0] == 1.0
    w = trajectory_wronskian(t2, y)
    np.testing.assert_allclose(w, -1.0, atol=1e-10)
    # the pair it integrated comes back with it: y1(0) = 1, y1'(0) = 0
    assert (t1.psi[0], t1.dpsi[0], t2.psi[0], t2.dpsi[0]) == (1.0, 0.0, 0.0, 1.0)


def test_second_floquet_smooth_member():
    m = two_mode()
    pt = auxiliary_spectrum(m, count=1)[0]
    assert not pt.degenerate
    t1, t2, y, b = second_floquet(m, pt)
    start, end = ends(y)
    np.testing.assert_allclose(end, start / pt.rho, atol=1e-7 * np.max(np.abs(y.psi)))
    w = trajectory_wronskian(t2, y)
    np.testing.assert_allclose(w, -1.0, atol=1e-8 * max(1.0, np.max(np.abs(w))))


def test_second_floquet_band_edge_identity_monodromy():
    # m = 1 at mu_n: U = +-I, first fundamental solution is already Floquet
    m = const_m(1.0)
    pt = auxiliary_spectrum(m, count=1)[0]
    t1, t2, y, b = second_floquet(m, pt)
    assert b == 0.0 and y is t1
    omega = math.sqrt(pt.mu - 0.25)
    np.testing.assert_allclose(y.psi, np.cos(omega * y.xs), atol=1e-8)
    start, end = ends(y)
    np.testing.assert_allclose(end, start / pt.rho, atol=1e-8)


def test_second_floquet_jordan_rejected(monkeypatch):
    m = peakon(1.0, 0.5)
    pt = auxiliary_spectrum(m, lam_max=20.0)[0]

    def no_integration(*args, **kwargs):
        raise AssertionError("integrated before rejecting the Jordan block")

    # the Jordan test reads the stored point, so nothing is integrated
    monkeypatch.setattr(floquet, "solve_fundamental", no_integration)
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


def hill_kinds(edges):
    """Edge kinds with double edges repeated, and Hill's pattern of that length."""
    kinds = [e.kind for e in edges for _ in range(e.multiplicity)]
    cycle = ("antiperiodic", "antiperiodic", "periodic", "periodic")
    return kinds, (["periodic"] + [cycle[i % 4] for i in range(len(kinds))])[:len(kinds)]


def test_periodic_spectrum_cosine_keeps_the_narrow_sixth_gap():
    # gap 6 peaks at Delta - 1 of about 1e-7 and its mu sits on the lower
    # edge (a Jordan block); the partner edge must not be dropped
    edges = periodic_spectrum(make_coefficient({"smooth": {
        "kind": "fourier", "a0": 1.0, "cos": [0.3]}}), 1e-6, 420.0)
    kinds, want = hill_kinds(edges)
    assert len(edges) == 13 and kinds == want
    assert [e.multiplicity for e in edges] == [1] * 13
    np.testing.assert_allclose([e.lam for e in edges[-2:]],
                               [359.79357, 359.82846], atol=1e-5)


def test_periodic_spectrum_closed_gaps_are_the_auxiliary_points():
    m = const_m(1.0)
    points = auxiliary_spectrum(m, lam_min=1e-6, lam_max=100.0)
    edges = periodic_spectrum(m, 1e-6, 100.0, points=points)
    assert [(e.lam, e.multiplicity) for e in edges[1:]] == [(p.mu, 2) for p in points]
    assert [e.lam for e in periodic_spectrum(m, 1e-6, 100.0)] == [e.lam for e in edges]


def test_periodic_spectrum_degenerate_point_inside_an_open_gap():
    # |Delta(mu_11)| - 1 is 1.1e-9, below the degeneracy cut, and y1'(1, mu)
    # is far from 0, yet mu sits 82% of the way into a gap 8.5e-3 wide: the
    # edges are polished on both sides of it, not pinned to it
    m = two_mode()
    points = auxiliary_spectrum(m, lam_min=1200.0, lam_max=1210.0)
    assert len(points) == 1 and points[0].degenerate
    with pytest.raises(JordanGapError):
        second_floquet(m, points[0])
    edges = periodic_spectrum(m, 1200.0, 1210.0, points=points)
    assert [(e.kind, e.multiplicity) for e in edges] == [("antiperiodic", 1)] * 2
    np.testing.assert_allclose([e.lam for e in edges],
                               [1205.7563199166, 1205.7648216580], rtol=1e-11)
    assert edges[0].lam < points[0].mu < edges[1].lam


def test_periodic_spectrum_sign_indefinite_member_straddling_zero():
    m = make_coefficient({"smooth": {"kind": "fourier", "a0": 0.2, "cos": [1.0]}})
    edges = periodic_spectrum(m, -300.0, 300.0)
    want = [-243.88788633940365, -243.7383706934033, -27.17144826784753,
            -18.319393220345795, 1.1642029200959867, 13.680673079578607,
            96.27862991356348, 100.92314218353344, 279.4279745434218,
            280.414790458543]
    np.testing.assert_allclose([e.lam for e in edges], want, rtol=1e-12)
    assert "".join(e.kind[0] for e in edges) == "paappaappa"
    assert [e.multiplicity for e in edges] == [1] * 10


def test_spectra_share_one_auxiliary_scan(monkeypatch, tmp_path):
    from chspectral import cli

    scans, columns = [], []
    real_aux, real_column = floquet.auxiliary_spectrum, floquet.endpoint_column

    def counted_aux(*args, **kwargs):
        scans.append(args)
        return real_aux(*args, **kwargs)

    def counted_column(*args, **kwargs):
        columns.append(args)
        return real_column(*args, **kwargs)

    points = auxiliary_spectrum(two_mode(), lam_max=15.0)
    monkeypatch.setattr(floquet, "auxiliary_spectrum", counted_aux)
    monkeypatch.setattr(cli, "auxiliary_spectrum", counted_aux)
    monkeypatch.setattr(floquet, "endpoint_column", counted_column)
    periodic_spectrum(two_mode(), 1e-6, 15.0, points=points)
    assert scans == [] and columns == []
    gap_check(two_mode(), 1e-6, 15.0)
    assert len(scans) == 1
    cfg = tmp_path / "m.json"
    cfg.write_text('{"smooth": {"kind": "const", "value": 1.0}}')
    cli.entry(["spectrum", "--config", str(cfg), "--lambda-max", "15", "--count", "1",
               "--out", str(tmp_path)])
    assert len(scans) == 2


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
