"""Acceptance gate: the numbered end-to-end checks this library promises.

Run with -v for one pass/fail line per check; each test also prints the
measured extreme so the log doubles as a numerical record.  Checks cover
the full built-in corpus at production resolution and finish in well under
three minutes together.
"""

import math

import numpy as np
import pytest

from chspectral.brackets import ProductField, conjugacy_matrix, conjugacy_target, lemma_residual
from chspectral.corpus import default_corpus
from chspectral.floquet import (
    EDGE_TOL,
    GUARD_BAND,
    auxiliary_spectrum,
    discriminant_sweep,
    hill_problems,
    periodic_spectrum,
    refine_point,
    second_floquet,
)
from chspectral.shooting import DEFAULT_STEPS, fundamental_matrix
from chspectral.suites import run_suite
from chspectral.variations import gradient_bundle
from chspectral.hamiltonians import bihamiltonian_residual
from oracles import positivity_residual

CORPUS = {member.name: member for member in default_corpus()}
SMOOTH = ["const", "cosine", "two_mode"]


@pytest.fixture(scope="module")
def corpus_points():
    """First three auxiliary points of every member at full resolution."""
    return {name: auxiliary_spectrum(member.m, count=3, steps=DEFAULT_STEPS)
            for name, member in CORPUS.items()}


def test_01_transfer_matrix_determinant_is_one():
    worst = 0.0
    for member in CORPUS.values():
        for lam in (0.7, 5.3, 17.9, 42.0):
            for x in (0.37, 1.0):
                fm = fundamental_matrix(member.m, lam, x=x)
                worst = max(worst, abs(fm.det - 1.0))
    print(f"max |det U - 1| = {worst:.3e} (tolerance 1e-9)")
    assert worst <= 1e-9


def test_02_constant_coefficient_closed_forms(corpus_points):
    m = CORPUS["const"].m
    pts = auxiliary_spectrum(m, count=5, steps=DEFAULT_STEPS)
    worst_mu = max(abs(p.mu - (0.25 + (k * math.pi) ** 2))
                   / (0.25 + (k * math.pi) ** 2)
                   for k, p in enumerate(pts, start=1))
    lams = np.linspace(0.3, 50.0, 200)
    deltas = discriminant_sweep(m, lams, steps=DEFAULT_STEPS)
    worst_delta = float(np.max(np.abs(deltas - np.cos(np.sqrt(lams - 0.25)))))
    print(f"max rel mu error = {worst_mu:.3e}, max |Delta error| = {worst_delta:.3e} "
          f"(tolerance 1e-8)")
    assert worst_mu <= 1e-8
    assert worst_delta <= 1e-8


def test_03_single_atom_closed_forms(corpus_points):
    offset = corpus_points["peakon_offset"]
    assert len(offset) == 1
    exact = math.sinh(0.5) / (2.0 * math.sinh(0.15) * math.sinh(0.35))
    rel = abs(offset[0].mu - exact) / exact
    centered = corpus_points["peakon_centered"]
    assert len(centered) == 1
    rho_err = abs(centered[0].rho + 1.0)
    print(f"offset atom: rel mu error = {rel:.3e} (tolerance 1e-10); "
          f"centered atom: |rho + 1| = {rho_err:.3e}, degenerate = {centered[0].degenerate}")
    assert rel <= 1e-10
    assert rho_err <= 1e-10
    assert centered[0].degenerate


def test_04_product_identity_on_smooth_members():
    report = run_suite("lemma", members=[CORPUS[name] for name in SMOOTH], count=3)[0][1]
    assert report.tolerance == 1e-7
    worst = max(res / max(scale, 1.0) for res, scale in report.residuals)
    print(f"max residual / scale = {worst:.3e} over {len(report.residuals)} "
          f"products (tolerance 1e-7)")
    assert report.passed


def test_05_gradients_match_central_differences():
    report = run_suite("gradients", members=[CORPUS["two_mode"]], n=256, eps=1e-5)[0][1]
    assert report.tolerance == 5e-4
    print(f"rel errors (mu, log rho, f, g) = "
          f"{['%.2e' % r for r in report.residuals[0]]} (tolerance 5e-4)")
    assert report.passed
    assert len(report.residuals) == 1


def test_06_positivity_identity_everywhere(corpus_points):
    worst = 0.0
    for name, pts in corpus_points.items():
        for pt in pts:
            worst = max(worst, positivity_residual(CORPUS[name].m, pt))
    print(f"max relative positivity residual = {worst:.3e} (tolerance 1e-7)")
    assert worst <= 1e-7


def test_07_first_bracket_conjugacy():
    report = run_suite("theorem1", members=[CORPUS["two_mode"]], count=3)[0][1]
    assert report.tolerance == 1e-5
    print(f"scaled block deviations + pairing = "
          f"{['%.2e' % r for r in report.residuals[0]]} (tolerance 1e-5)")
    assert report.passed


def test_08_second_bracket_conjugacy():
    report = run_suite("theorem2", members=[CORPUS["two_mode"]], count=3)[0][1]
    assert report.tolerance == 1e-5
    print(f"scaled block deviations = "
          f"{['%.2e' % r for r in report.residuals[0]]} (tolerance 1e-5)")
    assert report.passed


def _conjugacy_deviation(m, points, steps, which):
    pts = [refine_point(m, p, steps) for p in points]
    bundles = [gradient_bundle(p, second_floquet(m, p)) for p in pts]
    mus = [p.mu for p in pts]
    mat = conjugacy_matrix(bundles, which=which)
    dev = np.abs(mat - conjugacy_target(len(mus)))
    for i in range(len(mus) * 2):
        for j in range(len(mus) * 2):
            mi, mj = mus[i % len(mus)], mus[j % len(mus)]
            dev[i, j] /= max(1.0, mi * mi, mj * mj)
    return float(np.max(dev))


def _lemma_deviation(m, points, steps):
    worst = 0.0
    for p in points:
        pt = refine_point(m, p, steps)
        t1, t2, y, _ = second_floquet(m, pt)
        for ta in (t1, t2, y):
            for tb in (t1, t2, y):
                res, scale = lemma_residual(ProductField.from_trajectories(ta, tb))
                worst = max(worst, res / max(scale, 1.0))
    return worst


def test_09_doubling_steps_cuts_residuals_by_eight(corpus_points):
    m = CORPUS["two_mode"].m
    points = corpus_points["two_mode"]
    for which in ("first", "second"):
        coarse = _conjugacy_deviation(m, points, 512, which)
        fine = _conjugacy_deviation(m, points, 1024, which)
        print(f"{which} bracket conjugacy: {coarse:.3e} -> {fine:.3e} "
              f"(ratio {coarse / fine:.1f})")
        assert coarse / fine >= 8.0
    coarse = _lemma_deviation(m, points, 512)
    fine = _lemma_deviation(m, points, 1024)
    print(f"product identity: {coarse:.3e} -> {fine:.3e}")
    # the closure eliminates every derivative of the product analytically, so
    # this residual is roundoff at any step count; the ratio test only applies
    # when there is discretization error left to reduce
    floor = 1e-11
    assert coarse / fine >= 8.0 or max(coarse, fine) <= floor


def test_10_bihamiltonian_compatibility():
    worst = 0.0
    for name in SMOOTH:
        res, scale = bihamiltonian_residual(CORPUS[name].m, 256)
        assert res <= 1e-6 * scale or (res == 0.0 and scale == 0.0)
        if scale > 0.0:
            worst = max(worst, res / scale)
    print(f"max residual / scale = {worst:.3e} (tolerance 1e-6)")


def test_11_open_gaps_hold_exactly_one_auxiliary_point():
    open_gaps = 0
    for name, member in CORPUS.items():
        hi = 120.0 if not member.m.has_atoms else 20.0
        points = auxiliary_spectrum(member.m, GUARD_BAND, hi, steps=DEFAULT_STEPS)
        edges = periodic_spectrum(member.m, GUARD_BAND, hi, DEFAULT_STEPS, points=points)
        assert hill_problems(points, edges) == [], f"{name}: Hill's pattern fails"
        # gap n is [e_(2n-1), e_(2n)], the last one cut at hi when e_(2n) lies above
        seq = [e.lam for e in edges for _ in range(e.multiplicity)] + [hi]
        for lo, top in zip(seq[1::2], seq[2::2]):
            tol = EDGE_TOL * max(1.0, top)
            if top - lo > tol:
                open_gaps += 1
                assert sum(lo - tol <= pt.mu <= top + tol for pt in points) == 1
    print(f"{open_gaps} open gaps across the corpus, each holding one point")
    assert open_gaps >= 4
