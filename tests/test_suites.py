import collections
import sys

import pytest

from chspectral import floquet, shooting, suites, variations
from chspectral.coefficient import PeriodicCoefficient, make_coefficient
from chspectral.corpus import CorpusMember, default_corpus
from chspectral.suites import SUITE_NAMES, run_suite


def member(name):
    return next(mb for mb in default_corpus() if mb.name == name)


def report_of(suite, members, **settings):
    """The report of one suite run on the given members."""
    [(_, report)] = run_suite(suite, members=members, **settings)
    return report


def test_corpus_has_expected_members():
    names = [m.name for m in default_corpus()]
    assert names == ["const", "cosine", "two_mode",
                     "peakon_offset", "peakon_centered"]
    atoms = {m.name: m.m.has_atoms for m in default_corpus()}
    assert atoms == {"const": False, "cosine": False, "two_mode": False,
                     "peakon_offset": True, "peakon_centered": True}


def test_lemma_suite_counts_pairs():
    # const carries a scalar period map (y duplicates y1: 3 pairs per point),
    # two_mode has a genuine second Floquet solution (6 pairs per point)
    report = report_of("lemma", [member("const"), member("two_mode")], count=1)
    assert report.passed
    assert len(report.residuals) == 3 + 6
    assert all(len(row) == 2 for row in report.residuals)


def test_lemma_suite_skips_atoms_in_corpus_mode():
    report = report_of("lemma", [member("peakon_offset")], count=1)
    assert report.passed
    assert report.residuals == []
    assert "peakon_offset" in report.notes[0]


def test_lemma_suite_strict_fails_on_atoms():
    report = report_of("lemma", [member("peakon_offset")], count=1, strict=True)
    assert not report.passed


def test_gradients_suite_skip_note_on_degenerate_spectrum():
    report = report_of("gradients", [member("const")], n=64, steps=1024)
    assert report.passed and report.residuals == []
    assert report.notes == ["const: no non-degenerate points"]
    strict = report_of("gradients", [member("const")], n=64, steps=1024, strict=True)
    assert not strict.passed


def test_gradients_suite_runs_on_peakon_with_kink_clearance():
    # coarse grid keeps this test quick; hat smearing costs accuracy there,
    # and the suite's tolerance at n = 64 is 8e-3, so 5e-3 is checked here
    report = report_of("gradients", [member("peakon_offset")], n=64, steps=2048)
    assert report.passed
    assert len(report.residuals) == 1 and len(report.residuals[0]) == 4
    assert max(report.residuals[0]) <= 5e-3


@pytest.mark.parametrize("n, tol", [(64, 8e-3), (32, 3.2e-2)])
def test_gradients_tolerance_follows_the_grid(n, tol):
    # the hat-smearing bias grows as n^-2 below n = 256 (two_mode: 8.6e-4 at
    # n = 64, 3.4e-3 at n = 32), and so does the tolerance, 5e-4 (256 / n)^2
    report = report_of("gradients", [member("two_mode")], n=n)
    assert report.tolerance == tol
    assert report.passed and len(report.residuals) == 1
    assert max(report.residuals[0]) > 5e-4


def test_gradients_suite_rejects_misaligned_steps():
    with pytest.raises(ValueError):
        run_suite("gradients", members=[member("two_mode")], n=64, steps=1000)


def test_theorem_suites_pass_on_two_mode():
    mem = [member("two_mode")]
    t1 = report_of("theorem1", mem, count=2, steps=2048)
    assert t1.passed and len(t1.residuals) == 1 and len(t1.residuals[0]) == 5
    t2 = report_of("theorem2", mem, count=2, steps=2048)
    assert t2.passed and len(t2.residuals) == 1 and len(t2.residuals[0]) == 4


def test_theorem_suite_skips_jordan_member():
    report = report_of("theorem1", [member("cosine")], count=1)
    assert report.passed and report.residuals == []
    assert "cosine" in report.notes[0]


def test_hamiltonian_suite_rows_and_strict_atoms():
    report = report_of("hamiltonian", [member("const"), member("two_mode")])
    assert report.passed and len(report.residuals) == 2
    strict = report_of("hamiltonian", [member("peakon_centered")], strict=True)
    assert not strict.passed


def test_hamiltonian_suite_skips_samples_members():
    # the Fourier symbols are exact only for band-limited m; a spline's
    # O(n^-2) tail would fail the 1e-6 tolerance at n = 256
    spline = CorpusMember("spline", make_coefficient(
        {"smooth": {"kind": "samples", "values": [1.2, 1.1, 0.9, 0.8, 0.9, 1.1]}}))
    report = report_of("hamiltonian", [member("two_mode"), spline])
    assert report.passed and len(report.residuals) == 1
    assert list(report.tables) == ["hamiltonian_two_mode"]
    assert report.notes[0].startswith("spline: a spline is not band-limited")
    strict = report_of("hamiltonian", [spline], strict=True)
    assert not strict.passed and strict.residuals == [] and strict.tolerance == 1e-6
    assert strict.notes == report.notes


def test_run_suite_dispatch_and_all_order():
    names = [name for name, _ in
             run_suite("all", members=[member("peakon_centered")], strict=False)]
    assert tuple(names) == SUITE_NAMES
    with pytest.raises(ValueError):
        run_suite("bogus")


def count_calls(monkeypatch, modules, name):
    """Route name in each module through one wrapper recording each call's arguments."""
    calls = []
    real = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


def test_run_suite_computes_only_the_spectra_it_reads(monkeypatch):
    calls = count_calls(monkeypatch, [suites], "auxiliary_spectrum")
    run_suite("hamiltonian")
    assert calls == []
    run_suite("lemma", count=1, steps=1024)
    assert len(calls) == 3 and len({id(args[0]) for args in calls}) == 3


def test_lemma_integrates_one_dense_pair_per_point(monkeypatch):
    # one point each: a scalar period map (const), a Jordan block that
    # second_floquet refuses before integrating (cosine), a regular point (two_mode)
    mems = [member("const"), member("cosine"), member("two_mode")]
    pts = suites._spectra(mems, count=1, steps=1024)
    mus = [spectrum()[0].point.mu for spectrum in pts]
    calls = count_calls(monkeypatch, [floquet, suites], "solve_fundamental")
    report = suites._lemma(mems, pts, False, 256, 1e-5, 1024)
    assert report.passed and len(report.residuals) == 3 + 3 + 6
    assert [args[1] for args in calls] == mus


def test_run_suite_builds_each_point_once(monkeypatch):
    # the corpus holds 10 distinct points: 3 per smooth member and the offset
    # peakon's, the one the gradients suite reads from a member with atoms; 8
    # of them are not Jordan blocks and so have a gradient bundle
    mods = [floquet, suites, variations]
    floquets = count_calls(monkeypatch, mods[:2], "second_floquet")
    bundles = count_calls(monkeypatch, mods[1:], "gradient_bundle")
    pairs = count_calls(monkeypatch, [shooting], "_dense")
    run_suite("all")
    # second_floquet(m, point) and gradient_bundle(point, solutions)
    for calls, k, most in ((floquets, 1, 10), (bundles, 0, 8)):
        mus = [args[k].mu for args in calls]
        assert len(set(mus)) == len(mus) <= most
    # one dense pair per point; the gradient checks' oracle takes its base
    # states at the hat runs' ends, not from dense pairs
    assert len(pairs) == 10
    bundles.clear()
    run_suite("lemma")
    assert bundles == []


def test_strict_suites_read_m_from_the_dense_pairs(monkeypatch):
    # the dense pair carries m_s and m_s' on its grid, so only shooting
    # samples the coefficient; brackets, variations and the suites read it
    callers = []
    for name in ("smooth_value", "smooth_derivative"):
        real = getattr(PeriodicCoefficient, name)

        def spied(self, x, real=real):
            callers.append(sys._getframe(1).f_globals["__name__"])
            return real(self, x)

        monkeypatch.setattr(PeriodicCoefficient, name, spied)
    for suite in ("lemma", "gradients", "theorem1", "theorem2"):
        [(_, report)] = run_suite(suite, members=[member("two_mode")], strict=True)
        assert report.passed
    assert "chspectral.shooting" in callers
    outside = [c for c in callers if c in {"chspectral.brackets", "chspectral.variations",
                                           "chspectral.suites"}]
    assert outside == [], collections.Counter(outside)


def test_report_schema_keys():
    report = report_of("hamiltonian", [member("const")])
    doc = report.to_dict()
    assert list(doc) == ["identity", "n", "residuals", "tolerance", "pass"]
    assert doc["pass"] is True
