"""Discriminant, auxiliary spectrum, band edges, Hill's pattern."""

import dataclasses
import math
import time

import numpy as np
import pytest

from chspectral import floquet
from chspectral.coefficient import make_coefficient
from chspectral.floquet import (
    GUARD_BAND,
    JordanGapError,
    auxiliary_spectrum,
    discriminant,
    discriminant_sweep,
    hill_problems,
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


def test_auxiliary_spectrum_never_calls_endpoint_column(monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("auxiliary_spectrum ran a batched scan")

    monkeypatch.setattr(floquet, "endpoint_column", no_scan)
    grown = auxiliary_spectrum(two_mode(), count=3)
    window = auxiliary_spectrum(two_mode(), lam_max=100.0)
    assert [p.index for p in grown] == [p.index for p in window] == [1, 2, 3]
    # the two searches polish each point from different brackets, so the mus
    # agree within what each brentq polish guarantees, not bit for bit
    for a, b in zip(grown, window):
        assert abs(a.mu - b.mu) <= 2.0 * (1e-13 + 8.9e-16 * abs(b.mu))


def test_auxiliary_spectrum_window_matches_count_on_two_mode():
    # every point below 4000, the top three included, whether asked for by
    # window or by count
    window = auxiliary_spectrum(two_mode(), lam_max=4000.0)
    counted = auxiliary_spectrum(two_mode(), count=20)
    assert [p.index for p in window] == list(range(1, 21))
    assert [p.index for p in counted] == list(range(1, 21))
    np.testing.assert_allclose([p.mu for p in window], [p.mu for p in counted], rtol=1e-12)
    np.testing.assert_allclose([p.mu for p in window[-3:]],
                               [3227.97, 3596.55, 3985.06], atol=1e-2)


def test_auxiliary_spectrum_indices_are_sturm_indices():
    # [20, 100] holds mu_2 and mu_3 of two_mode, not a first and a second point
    pts = auxiliary_spectrum(two_mode(), lam_min=20.0, lam_max=100.0)
    assert [p.index for p in pts] == [2, 3]
    np.testing.assert_allclose([p.mu for p in pts], [39.445, 90.465], atol=1e-3)
    # below 0 the index counts down from 0: -1 is the point nearest 0
    m = make_coefficient({"smooth": {"kind": "fourier", "a0": 0.2, "cos": [1.0]}})
    pts = auxiliary_spectrum(m, lam_min=-300.0, lam_max=120.0)
    assert [p.index for p in pts] == [-2, -1, 1, 2]
    np.testing.assert_allclose([p.mu for p in pts], [-243.888, -27.171, 96.279, 100.923],
                               atol=1e-3)


def test_auxiliary_spectrum_separates_the_close_pair():
    # 551.511 and 551.691 of 0.2 + cos 2 pi x are 0.18 apart; y2(1) has the
    # same sign at 540 and 560, the count tells them apart
    m = make_coefficient({"smooth": {"kind": "fourier", "a0": 0.2, "cos": [1.0]}})
    pts = auxiliary_spectrum(m, lam_min=540.0, lam_max=560.0)
    assert [p.index for p in pts] == [3, 4]
    np.testing.assert_allclose([p.mu for p in pts], [551.511, 551.691], atol=1e-3)


def test_auxiliary_spectrum_window_ending_on_a_point():
    # a window edge at a polished mu leaves y2(1) there at rounding level, so
    # the count and the sign of y2(1) may disagree: the point is kept or
    # dropped, never lost from the interior, and the call neither fails nor
    # renumbers
    for m in (const_m(1.0), two_mode()):
        ref = auxiliary_spectrum(m, lam_max=200.0)
        for k, pt in enumerate(ref):
            below = auxiliary_spectrum(m, lam_max=pt.mu)
            above = auxiliary_spectrum(m, lam_min=pt.mu, lam_max=200.0)
            assert len(below) in (k, k + 1) and len(above) in (len(ref) - k, len(ref) - k - 1)
            got = below + above
            assert [p.index for p in got] == [p.index for p in ref]
            np.testing.assert_allclose([p.mu for p in got], [p.mu for p in ref], rtol=1e-13)


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


def test_refine_point_is_the_windowed_point_of_the_same_index():
    m = two_mode()
    for pt in auxiliary_spectrum(m, count=3):
        w = 17.0 * max(1e-7, 1e-9 * max(1.0, pt.mu))
        for steps in (512, 2048):
            finer = refine_point(m, pt, steps=steps)
            window = auxiliary_spectrum(m, pt.mu - w, pt.mu + w, steps=steps)
            assert finer.index == pt.index
            assert finer in window


def test_refine_point_loses_a_root_that_moved_out_of_its_window():
    # 256 steps move two_mode's third point by more than 17 w
    pt = auxiliary_spectrum(two_mode(), count=3)[2]
    with pytest.raises(RuntimeError, match="lost the root"):
        refine_point(two_mode(), pt, steps=256)


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


def test_periodic_spectrum_point_inside_an_open_gap_is_not_degenerate():
    # |Delta(mu_11)| - 1 is 1.1e-9, yet mu sits 82% of the way into a gap
    # 8.5e-3 wide, where |rho - 1/rho| is 9.4e-5: the point is not degenerate,
    # it has a second Floquet solution, and the edges lie on both sides of it
    m = two_mode()
    points = auxiliary_spectrum(m, lam_min=1200.0, lam_max=1210.0)
    assert len(points) == 1 and not points[0].degenerate
    _, _, y, _ = second_floquet(m, points[0])
    assert y.psi[-1] == pytest.approx(y.psi[0] / points[0].rho, rel=1e-9)
    assert y.dpsi[-1] == pytest.approx(y.dpsi[0] / points[0].rho, rel=1e-9)
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
    # the CLI scans once, and its Hill's-pattern check adds no scan
    cfg = tmp_path / "m.json"
    cfg.write_text('{"smooth": {"kind": "const", "value": 1.0}}')
    cli.entry(["spectrum", "--config", str(cfg), "--lambda-max", "15", "--count", "1",
               "--out", str(tmp_path)])
    assert len(scans) == 1 and columns == []


@pytest.mark.parametrize("cos,sin", [([0.25], [0.0, 0.1]), ([0.3], [])],
                         ids=["two_mode", "cosine"])
def test_no_lambda_is_integrated_twice(monkeypatch, cos, sin):
    # the polished mu's monodromy is the one brentq evaluated last, and the
    # edge brackets start from the anchors' Delta, a point's delta included
    m = make_coefficient({"smooth": {"kind": "fourier", "a0": 1.0, "cos": cos, "sin": sin}})
    lams, real = [], floquet.fundamental_matrix

    def counted(m, lam, *args, **kwargs):
        lams.append(lam)
        return real(m, lam, *args, **kwargs)

    monkeypatch.setattr(floquet, "fundamental_matrix", counted)
    points = auxiliary_spectrum(m, 1e-6, 50.0)
    assert len(points) == 2 and len(lams) == len(set(lams))
    lams.clear()
    edges = periodic_spectrum(m, 1e-6, 50.0, points=points)
    assert len(edges) >= 5 and len(lams) == len(set(lams))
    assert not {p.mu for p in points} & set(lams)


@pytest.mark.parametrize("spec", [
    {"smooth": {"kind": "const", "value": -1.0}, "atoms": []},
    {"smooth": {"kind": "const", "value": 0.0}, "atoms": [{"q": 0.3, "p": -1.0}]},
], ids=["negative_const", "negative_atom"])
def test_auxiliary_spectrum_without_positive_part_fails_fast(spec):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="no positive part"):
        auxiliary_spectrum(make_coefficient(spec), count=2)
    assert time.perf_counter() - start < 1.0


def window_spectrum(m, lam_max, lam_min=GUARD_BAND):
    points = auxiliary_spectrum(m, lam_min, lam_max)
    return points, periodic_spectrum(m, lam_min, lam_max, points=points)


def test_hill_pattern_constant_coefficient():
    # both gaps closed: each point is a double edge
    points, edges = window_spectrum(const_m(1.0), 50.0)
    assert hill_problems(points, edges) == []
    assert [e.kind for e in edges] == ["periodic", "antiperiodic", "periodic"]
    assert [e.multiplicity for e in edges] == [1, 2, 2]
    assert [e.lam for e in edges[1:]] == pytest.approx([p.mu for p in points], rel=1e-12)


def test_hill_pattern_peakon_half_infinite_gap():
    # one atom: two edges in all, and the one point lies above both, open to infinity
    points, edges = window_spectrum(peakon(1.0, 0.3), 20.0)
    assert hill_problems(points, edges) == []
    assert [(e.kind, e.multiplicity) for e in edges] == [("periodic", 1), ("antiperiodic", 1)]
    assert [p.index for p in points] == [1]
    assert points[0].mu > edges[1].lam * (1.0 + floquet.EDGE_TOL)
    wide = window_spectrum(peakon(1.0, 0.3), 1e4)[1]
    assert [e.lam for e in wide] == pytest.approx([e.lam for e in edges], rel=1e-12)


def test_hill_pattern_pinned_edge_counts_inside():
    points, edges = window_spectrum(peakon(1.0, 0.5), 20.0)
    assert hill_problems(points, edges) == []
    assert len(points) == 1 and len(edges) == 2
    assert points[0].mu == pytest.approx(edges[1].lam, rel=floquet.EDGE_TOL)


def test_hill_pattern_two_mode_window():
    # gap 1 is open and cut by no window top: mu_1 lies between its edges
    points, edges = window_spectrum(two_mode(), 15.0)
    assert hill_problems(points, edges) == []
    assert "".join(e.kind[0] for e in edges) == "paa"
    assert [e.multiplicity for e in edges] == [1, 1, 1]
    assert edges[1].lam < points[0].mu < edges[2].lam


def test_hill_problems_names_each_break():
    points, edges = window_spectrum(two_mode(), 100.0)
    assert hill_problems(points, edges) == []
    [count] = hill_problems(points, edges[:-2])
    assert count.startswith(f"{len(edges) - 2} edges for {len(points)} points")
    relabelled = dataclasses.replace(edges[1], kind="periodic")
    [kinds] = hill_problems(points, [edges[0], relabelled, *edges[2:]])
    assert kinds.startswith("edge kinds ppa")
    shifted = [dataclasses.replace(p, index=p.index + 1) for p in points]
    assert any(text.startswith("point indices [2, 3, 4]")
               for text in hill_problems(shifted, edges))
    # a point halfway up band 1 lies outside gap 1
    stray = dataclasses.replace(points[0], mu=0.5 * (edges[0].lam + edges[1].lam))
    [outside] = hill_problems([stray, *points[1:]], edges)
    assert outside.startswith("mu_1 = ") and "outside gap 1" in outside


# 14 atoms whose band [74.0171942, 74.0171989] is narrower than EDGE_TOL:
# mu_14 = 74.0172209 lies within EDGE_TOL of gap 13's top edge, but in gap 14
ATOMS14 = [(0.023772, 1.27984), (0.100482, 1.070363), (0.203613, 0.751434),
           (0.271191, 1.351111), (0.33135, 1.008917), (0.40964, 1.330969),
           (0.444179, 0.762728), (0.543585, 1.289451), (0.613189, 0.87113),
           (0.698871, 1.131657), (0.759217, 1.457776), (0.823202, 1.030305),
           (0.908731, 1.337113), (0.950525, 1.183404)]


def test_hill_pattern_holds_beside_a_narrow_band():
    q, p = np.array(ATOMS14).T
    m = make_coefficient({"atoms": [{"q": a, "p": b} for a, b in ATOMS14]})
    points, edges = window_spectrum(m, 81.42)
    assert hill_problems(points, edges) == []
    # between atoms psi'' = psi/4, so the edges are the reciprocal eigenvalues
    # of S G S, S = diag(sqrt p), with the periodic and antiperiodic Green's
    # functions of -D^2 + 1/4 at r = |q_i - q_j|
    r, s = np.abs(q[:, None] - q[None, :]), np.sqrt(p)
    greens = (np.cosh((r - 0.5) / 2.0) / math.sinh(0.25),
              np.sinh((0.5 - r) / 2.0) / math.cosh(0.25))
    want = np.sort([1.0 / v for g in greens
                    for v in np.linalg.eigvalsh(s[:, None] * g * s[None, :])])
    got = [e.lam for e in edges for _ in range(e.multiplicity)]
    assert len(got) == 28 and [pt.index for pt in points] == list(range(1, 15))
    np.testing.assert_allclose(got, want, rtol=1e-11)


@pytest.mark.xfail(strict=True, reason=(
    "periodic_spectrum drops two_mode's band edges above lambda ~ 1680: the "
    "4096-step monodromy's det U - 1 (-6e-11..-8e-10) exceeds the gap heights, "
    "so |Delta(mu)| < 1 at points that are not degenerate and their edges "
    "vanish; 27 edges where Hill's pattern needs 41"))
def test_hill_pattern_two_mode_up_to_4000():
    points, edges = window_spectrum(two_mode(), 4000.0)
    assert sum(e.multiplicity for e in edges) == 41
    assert hill_problems(points, edges) == []
