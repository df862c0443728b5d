"""Discriminant, auxiliary spectrum, band edges, Hill's pattern."""

import dataclasses
import math
import random
import time

import numpy as np
import pytest

from chspectral import floquet
from chspectral.coefficient import make_coefficient
from chspectral.corpus import default_corpus
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
from chspectral.shooting import zero_count
from oracles import trajectory_wronskian


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
    # a root 1 away from the point's mu lies outside even the widest window,
    # 4^8 17e-7 = 0.11 about mu ~ 90: the Sturm count holds the index nowhere
    pt = auxiliary_spectrum(two_mode(), count=3)[2]
    with pytest.raises(RuntimeError, match="lost the root"):
        refine_point(two_mode(), dataclasses.replace(pt, mu=pt.mu + 1.0), steps=4096)


@pytest.mark.parametrize("name", ["const", "cosine", "two_mode"])
def test_refine_point_widens_its_window_at_coarse_steps(name):
    # 256 steps move the third point by 2.7e-6 (const), 3.1e-6 (cosine) and
    # 3.0e-6 (two_mode) from its 4096-step mu, past the first window, 1.7e-6
    # wide: a window 4 times wider, which the Sturm count says holds the
    # index, finds the point the 256-step search finds
    m = next(member.m for member in default_corpus() if member.name == name)
    pt = auxiliary_spectrum(m, count=3)[2]
    w = 17.0 * max(1e-7, 1e-9 * pt.mu)
    assert not auxiliary_spectrum(m, pt.mu - w, pt.mu + w, steps=256)
    coarse = refine_point(m, pt, steps=256)
    assert coarse.index == pt.index == 3 and coarse.steps == 256
    assert w < abs(coarse.mu - pt.mu) <= 3.5e-6
    assert coarse == auxiliary_spectrum(m, count=3, steps=256)[2]


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


def window_spectrum(m, lam_max, lam_min=GUARD_BAND):
    points = auxiliary_spectrum(m, lam_min, lam_max)
    return points, periodic_spectrum(m, lam_min, lam_max, points=points)


def test_periodic_spectrum_constant_coefficient():
    # Delta = cos(sqrt(lambda - 1/4)): simple edge at 1/4, tangencies at
    # 1/4 + (n pi)^2 where every gap closes
    _, edges = window_spectrum(const_m(1.0), 50.0)
    lams = [e.lam for e in edges]
    kinds = [e.kind for e in edges]
    mults = [e.multiplicity for e in edges]
    want = [0.25, 0.25 + math.pi ** 2, 0.25 + 4 * math.pi ** 2]
    assert len(edges) == 3
    np.testing.assert_allclose(lams, want, rtol=1e-7)
    assert kinds == ["periodic", "antiperiodic", "periodic"]
    assert mults == [1, 2, 2]


def test_periodic_spectrum_peakon():
    _, edges = window_spectrum(peakon(1.0, 0.3), 20.0)
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
    _, edges = window_spectrum(m, 15.0)
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
    _, edges = window_spectrum(five_atoms(), 1200.0, lam_min=1100.0)
    assert [e.kind for e in edges] == ["periodic", "antiperiodic"]
    assert edges[0].lam == pytest.approx(1173.3637247263, abs=1e-9)
    assert edges[1].lam == pytest.approx(1173.3637249907, abs=1e-9)
    # Delta is a polynomial of degree 5: each of Delta = +-1 has five roots
    _, edges = window_spectrum(five_atoms(), 1200.0)
    assert sum(e.multiplicity for e in edges) == 10


def hill_kinds(edges):
    """Edge kinds with double edges repeated, and Hill's pattern of that length."""
    kinds = [e.kind for e in edges for _ in range(e.multiplicity)]
    cycle = ("antiperiodic", "antiperiodic", "periodic", "periodic")
    return kinds, (["periodic"] + [cycle[i % 4] for i in range(len(kinds))])[:len(kinds)]


def test_periodic_spectrum_cosine_keeps_the_narrow_sixth_gap():
    # gap 6 peaks at Delta - 1 of about 1e-7 and its mu sits on the lower
    # edge (a Jordan block); the partner edge must not be dropped
    _, edges = window_spectrum(make_coefficient({"smooth": {
        "kind": "fourier", "a0": 1.0, "cos": [0.3]}}), 420.0)
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
    assert [e.lam for e in window_spectrum(m, 100.0)[1]] == [e.lam for e in edges]


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
    _, edges = window_spectrum(m, 300.0, lam_min=-300.0)
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


# ---------------------------------------------------------------------------
# purely atomic m: the Green's-matrix spectra against independent oracles

def atoms_m(pairs):
    return make_coefficient({"atoms": [{"q": q, "p": p} for q, p in pairs]})


# seed-1 atoms16_0 of the peakon_spectra benchmark workload, written out
ATOMS16_0 = [(0.054947, 1.220337), (0.112156, 0.574942), (0.137412, 0.951089),
             (0.21982, 1.145802), (0.278559, 0.928698), (0.338694, 0.717005),
             (0.393148, 0.6866), (0.478924, 1.453969), (0.54209, 0.635327),
             (0.618089, 1.323877), (0.64739, 0.520061), (0.69534, 0.769764),
             (0.788637, 0.625196), (0.859288, 1.111637), (0.886389, 1.315816),
             (0.961354, 0.897268)]
FIVE_ATOMS = [(a.q, a.p) for a in five_atoms().atoms]
INDEFINITE = [(0.1, 1.0), (0.35, -0.7), (0.6, 1.3), (0.8, -0.4)]
ATOMIC_WINDOWS = {"atoms16_0": (ATOMS16_0, GUARD_BAND, 151.9),
                  "five_atoms": (FIVE_ATOMS, GUARD_BAND, 1200.0),
                  "indefinite": (INDEFINITE, -200.0, 200.0)}


def atomic_window(name):
    pairs, lo, hi = ATOMIC_WINDOWS[name]
    m = atoms_m(pairs)
    points = auxiliary_spectrum(m, lo, hi)
    return pairs, m, points, periodic_spectrum(m, lo, hi, points=points)


def exact_monodromy(pairs, lam):
    """U(1, lam) of the atoms (q, p) as a 60-digit transfer product: exact
    stretches of psi'' = psi/4 between the atoms, a jump at each."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        lam = mp.mpf(lam)
        y1, y2, dy1, dy2 = mp.mpf(1), mp.mpf(0), mp.mpf(0), mp.mpf(1)
        pos = mp.mpf(0)
        for q, p in pairs + [(1.0, 0.0)]:
            h = mp.mpf(q) - pos
            c, s = mp.cosh(h / 2), mp.sinh(h / 2)
            y1, dy1 = c * y1 + 2 * s * dy1, s / 2 * y1 + c * dy1
            y2, dy2 = c * y2 + 2 * s * dy2, s / 2 * y2 + c * dy2
            dy1, dy2 = dy1 - lam * mp.mpf(p) * y1, dy2 - lam * mp.mpf(p) * y2
            pos = mp.mpf(q)
        return y1, y2, dy1, dy2


def exact_root(pairs, f, x0):
    """The root of f(U(1, lam)) next to x0, at 60 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        return mp.findroot(lambda lam: f(*exact_monodromy(pairs, lam)), mp.mpf(x0),
                           solver="secant", tol=mp.mpf(10) ** -50)


@pytest.mark.parametrize("name", list(ATOMIC_WINDOWS))
def test_atomic_spectra_match_a_60_digit_transfer_product(name):
    pairs, _, points, edges = atomic_window(name)
    for pt in points:
        mu = exact_root(pairs, lambda y1, y2, dy1, dy2: y2, pt.mu)
        assert abs(pt.mu - float(mu)) <= 1e-12 * abs(float(mu)), pt
    for e in edges:
        t = 1 if e.kind == "periodic" else -1
        lam = exact_root(pairs, lambda y1, y2, dy1, dy2: (y1 + dy2) / 2 - t, e.lam)
        assert abs(e.lam - float(lam)) <= 1e-12 * abs(float(lam)), e


def test_the_secant_step_mends_what_the_eigenvalues_lose():
    # six atoms 1e-4 apart: the top roots near 3e4 come out of eigvalsh off by
    # up to 3.5e-11 relative (periodic); after the step the worst measured
    # is 3.3e-16
    pairs = [(0.3 + 1e-4 * k, 1.0) for k in range(6)] + [(0.7, 0.5)]
    m = atoms_m(pairs)
    points = auxiliary_spectrum(m, GUARD_BAND, 4e4)
    edges = periodic_spectrum(m, GUARD_BAND, 4e4, points=points)
    assert len(points) == 7 and len(edges) == 14 and hill_problems(points, edges) == []
    for pt in points[-3:]:
        mu = exact_root(pairs, lambda y1, y2, dy1, dy2: y2, pt.mu)
        assert abs(pt.mu - float(mu)) <= 2e-15 * abs(float(mu)), pt
    for e in edges[-6:]:
        t = 1 if e.kind == "periodic" else -1
        lam = exact_root(pairs, lambda y1, y2, dy1, dy2: (y1 + dy2) / 2 - t, e.lam)
        assert abs(e.lam - float(lam)) <= 2e-15 * abs(float(lam)), e


def test_atomic_rho_matches_a_60_digit_transfer_product():
    # at mu, y1(1) y2'(1) = 1 and the smaller entry loses its digits: with
    # rho = y2'(1) alone, mu_16 of atoms16_0 got rho = -3.8e-7 for 9.0e-8;
    # measured worst relative error with the rule: 5.2e-9 (mu_15).  y1'(1),
    # which second_floquet's b reads, measured worst: 6.2e-9 (atoms16_0),
    # 1.4e-9 (five_atoms), 7.2e-15 (indefinite)
    for name in ATOMIC_WINDOWS:
        pairs, _, points, _ = atomic_window(name)
        for pt in points:
            mu = exact_root(pairs, lambda y1, y2, dy1, dy2: y2, pt.mu)
            _, _, dy1, rho = map(float, exact_monodromy(pairs, mu))
            assert abs(pt.rho - rho) <= 1e-8 * abs(rho), (name, pt.index, pt.rho, rho)
            assert abs(pt.dy1_end - dy1) <= 1e-8 * abs(dy1), (name, pt.index, pt.dy1_end, dy1)
            assert pt.rho_tilde == 1.0 / pt.rho
        if name == "atoms16_0":
            assert len(points) == 16
            assert points[-1].rho == pytest.approx(8.98578533598489e-08, rel=1e-12)


@pytest.mark.parametrize("name", list(ATOMIC_WINDOWS))
def test_atomic_points_carry_the_sturm_count(name):
    # zero_count midway between consecutive points, and past the outermost,
    # counts the points between there and 0: the index
    _, m, points, _ = atomic_window(name)
    mus = [pt.mu for pt in points]
    assert mus == sorted(mus)
    for k, pt in enumerate(points):
        if pt.index > 0:
            nxt = mus[k + 1] if k + 1 < len(mus) else 2.0 * pt.mu
            assert zero_count(m, 0.5 * (pt.mu + nxt)) == pt.index
        else:
            prv = mus[k - 1] if k > 0 else 2.0 * pt.mu
            assert zero_count(m, 0.5 * (pt.mu + prv)) == -pt.index


@pytest.mark.parametrize("name", list(ATOMIC_WINDOWS))
def test_discriminant_crosses_one_at_each_simple_atomic_edge(name):
    _, m, _, edges = atomic_window(name)
    assert edges
    for e in edges:
        assert e.multiplicity == 1
        t = 1.0 if e.kind == "periodic" else -1.0
        w = 1e-9 * abs(e.lam)
        below, above = discriminant(m, e.lam - w) - t, discriminant(m, e.lam + w) - t
        assert below * above < 0.0, e


def test_atomic_spectra_replace_the_search(monkeypatch):
    def banned(*args, **kwargs):
        raise AssertionError("a purely atomic spectrum searched")

    monkeypatch.setattr(floquet, "zero_count", banned)
    monkeypatch.setattr(floquet, "brentq", banned)
    for name in ATOMIC_WINDOWS:
        _, _, points, edges = atomic_window(name)
        assert points and edges
    assert len(auxiliary_spectrum(atoms_m(ATOMS16_0), count=3)) == 3


def test_atomic_points_straddling_zero_count_down_below_it():
    m = atoms_m([(0.05, -0.8), (0.3, 1.2), (0.55, -1.5), (0.75, 0.6), (0.9, -0.3)])
    points = auxiliary_spectrum(m, -1e4, 1e4)
    assert [pt.index for pt in points] == [-3, -2, -1, 1, 2]
    assert all((pt.mu < 0.0) == (pt.index < 0) for pt in points)
    for pt in points:
        assert zero_count(m, pt.mu * (1.0 + 1e-9)) == abs(pt.index)
        assert zero_count(m, pt.mu * (1.0 - 1e-9)) == abs(pt.index) - 1
    # a window below 0 keeps the global indices
    assert [pt.index for pt in auxiliary_spectrum(m, points[0].mu + 1.0, -1e-6)] == [-2, -1]


def test_atoms_the_dirichlet_problem_cannot_see_give_no_point():
    # an atom at q = 0 meets y2(0) = 0, and one of weight 0 is no atom: the
    # points are those of the other two, and the edges those without the
    # weight-0 atom
    seen = [(0.3, 0.9), (0.7, 1.4)]
    m = atoms_m([(0.0, 1.1), (0.5, 0.0)] + seen)
    points = auxiliary_spectrum(m, -1e3, 1e3)
    ref = auxiliary_spectrum(atoms_m(seen), -1e3, 1e3)
    assert [pt.index for pt in points] == [pt.index for pt in ref] == [1, 2]
    np.testing.assert_allclose([pt.mu for pt in points], [pt.mu for pt in ref], rtol=1e-13)
    edges = periodic_spectrum(m, -1e3, 1e3, points=points)
    with_zero = atoms_m([(0.0, 1.1)] + seen)
    ref = periodic_spectrum(with_zero, -1e3, 1e3, points=auxiliary_spectrum(with_zero, -1e3, 1e3))
    assert [(e.kind, e.multiplicity) for e in edges] == [(e.kind, e.multiplicity) for e in ref]
    np.testing.assert_allclose([e.lam for e in edges], [e.lam for e in ref], rtol=1e-13)
    assert len(edges) == 6 and hill_problems(points, edges) == []


def test_count_on_atoms_keeps_at_most_the_whole_spectrum():
    # the spectrum of n atoms is finite: count keeps the lowest points of the
    # window and, past its end, returns all there are instead of searching on
    m = atoms_m(INDEFINITE)
    window = auxiliary_spectrum(m, -200.0, 200.0)
    assert [pt.index for pt in window] == [-2, -1, 1, 2]
    assert auxiliary_spectrum(m, -200.0, count=3) == window[:3]
    assert auxiliary_spectrum(m, count=1) == window[2:3]
    assert auxiliary_spectrum(m, count=4) == window[2:]
    # one atom the Dirichlet problem sees: one point, however many are asked for
    [pt] = auxiliary_spectrum(atoms_m([(0.0, 0.8)] + INDEFINITE[:1]), count=2)
    [ref] = auxiliary_spectrum(atoms_m(INDEFINITE[:1]), count=2)
    assert (pt.index, pt.mu) == (ref.index, ref.mu)


def test_closed_atomic_gaps_are_double_edges_at_the_points():
    # 16 atoms repeating with period 1/4: every gap whose number is not a
    # multiple of 4 closes (U = +-I at its mu), and the two Green's roots
    # there give way to one double edge at mu
    pairs = [((k + 0.5) / 16, 1.0 + 0.25 * (k % 4)) for k in range(16)]
    m = atoms_m(pairs)
    points = auxiliary_spectrum(m, GUARD_BAND, 62.0)
    edges = periodic_spectrum(m, GUARD_BAND, 62.0, points=points)
    assert len(points) == 16 and hill_problems(points, edges) == []
    doubles = [e for e in edges if e.multiplicity == 2]
    closed = [pt for pt in points if pt.degenerate]
    assert [e.lam for e in doubles] == [pt.mu for pt in closed]
    assert [pt.index for pt in closed] == [k for k in range(1, 17) if k % 4]
    assert sum(e.multiplicity for e in edges) == 32


def test_two_hundred_atoms_keep_hills_pattern_below_1000():
    # bands near 1000 are narrower than an ulp; the edges still come in
    # Hill's order, and every point carries the Sturm count
    rng = random.Random(1)
    pairs = [(i / 200 + 0.001, rng.uniform(0.1, 1.0)) for i in range(200)]
    m = atoms_m(pairs)
    points = auxiliary_spectrum(m, GUARD_BAND, 1000.0)
    edges = periodic_spectrum(m, GUARD_BAND, 1000.0, points=points)
    assert hill_problems(points, edges) == []
    assert len(points) == zero_count(m, 1000.0) == 121
    assert sum(e.multiplicity for e in edges) == 242
    lams = [e.lam for e in edges]
    np.testing.assert_allclose(lams, sorted(lams), rtol=1e-15)


def test_atoms_a_rounding_apart_fall_back_to_the_search():
    # the periodic Green's matrix of atoms one ulp apart does not factor;
    # they act as one atom of their summed weight
    q = 0.3
    m = atoms_m([(0.1, 0.5), (q, 0.4), (math.nextafter(q, 1.0), 0.6), (0.7, 0.8)])
    merged = atoms_m([(0.1, 0.5), (q, 1.0), (0.7, 0.8)])
    points, edges = window_spectrum(m, 100.0)
    ref_points, ref_edges = window_spectrum(merged, 100.0)
    assert hill_problems(points, edges) == []
    np.testing.assert_allclose([pt.mu for pt in points], [pt.mu for pt in ref_points],
                               rtol=1e-12)
    np.testing.assert_allclose([e.lam for e in edges], [e.lam for e in ref_edges], rtol=1e-12)


def peakon_field(y):
    """(dq/dt, dp/dt) of the periodic peakons y = (q, p) under
    H = 1/2 sum p_i p_j G(q_i - q_j), G(d) = cosh(d - 1/2) / (2 sinh 1/2) on
    0 <= d < 1, periodic, whose slope at d = 0 averages to 0."""
    q, p = y
    r = np.mod(q[:, None] - q[None, :], 1.0)
    slope = np.sinh(r - 0.5) / (2.0 * math.sinh(0.5))
    np.fill_diagonal(slope, 0.0)
    return np.array((np.cosh(r - 0.5) / (2.0 * math.sinh(0.5)) @ p, -p * (slope @ p)))


def peakon_flow(y, t, steps):
    """y = (q, p) after time t of the peakon flow, by `steps` RK4 steps."""
    h = t / steps
    for _ in range(steps):
        k1 = peakon_field(y)
        k2 = peakon_field(y + 0.5 * h * k1)
        k3 = peakon_field(y + 0.5 * h * k2)
        k4 = peakon_field(y + h * k3)
        y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


@pytest.mark.parametrize("seed", range(3))
def test_band_edges_stay_put_along_the_peakon_flow(seed):
    # the Camassa-Holm flow of m = sum p_i delta(x - q_i) is isospectral
    # (Camassa & Holm, PRL 71, 1993): the band edges below 300 are constants
    # of motion while the points move.  Five peakons, 400 steps to t = 0.3,
    # each draw 10 edges; measured worst drift 2.0e-13 relative (seed 2; 2.5e-13
    # and 1.6e-13 with 200 and 800 steps, so rounding, not the flow's error),
    # while some mu_i moved by 35% (seed 1) to 190% (seed 0)
    rng = random.Random(seed)
    q = sorted(rng.random() for _ in range(5))
    y = np.array((q, [rng.uniform(0.5, 1.5) for _ in range(5)]))

    def spectra(y):
        m = atoms_m(list(zip(np.mod(y[0], 1.0).tolist(), y[1].tolist())))
        return window_spectrum(m, 300.0)

    points, edges = spectra(y)
    assert len(edges) == 10
    moved = 0.0
    for _ in range(4):
        y = peakon_flow(y, 0.075, 100)
        now, now_edges = spectra(y)
        assert [(e.kind, e.multiplicity) for e in now_edges] == \
            [(e.kind, e.multiplicity) for e in edges]
        np.testing.assert_allclose([e.lam for e in now_edges], [e.lam for e in edges], rtol=5e-13)
        assert len(now) == len(points)
        moved = max(moved, *(abs(a.mu - b.mu) / b.mu for a, b in zip(now, points)))
    assert moved > 0.1
