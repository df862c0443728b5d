"""Verification suites behind the `verify` command.

Each suite checks one analytic identity over a set of coefficients and
returns a VerificationReport.  Corpus mode (strict=False) quietly skips
members the identity does not apply to; strict mode, used when the caller
supplies a single coefficient, turns inapplicability into failure so a CI
run cannot pass vacuously.

Suites reach a member's auxiliary points only through `points`, a list
aligned with the members: entry k is a call that returns member k's first
`count` points as _Point records, finding them on the first call.  A record
builds its point's second Floquet solutions, and from them its gradient
bundle, once each, on first read, at the point's own step count.  run_suite
makes one such list and hands it to every suite it runs, so the suites share
every spectrum, dense pair and bundle, and nothing a run does not read is
built; a suite called without points makes its own list.
"""

from __future__ import annotations

import functools

import numpy as np

from .brackets import (
    ProductField,
    conjugacy_matrix,
    conjugacy_target,
    lemma_residual,
    log_multiplier_matrix,
)
from .corpus import default_corpus
from .floquet import JordanGapError, auxiliary_spectrum, second_floquet
from .hamiltonians import h2, h2_energy, hamiltonian_fields
from .report import VerificationReport
from .shooting import DEFAULT_STEPS, solve_fundamental
from .variations import gradient_bundle, gradient_table, verify_gradients


def _members(members):
    return default_corpus() if members is None else list(members)


class _Point:
    """One auxiliary point and the solutions the suites read from it."""

    def __init__(self, m, point):
        self.m, self.point = m, point

    @functools.cached_property
    def floquet(self):
        """second_floquet's (y1, y2, y, b); None at a nontrivial Jordan block,
        which second_floquet rejects before integrating."""
        try:
            return second_floquet(self.m, self.point)
        except JordanGapError:
            return None

    @functools.cached_property
    def pair(self):
        """(y1, y2), integrated on its own only at a Jordan block."""
        if self.floquet is None:
            return solve_fundamental(self.m, self.point.mu, self.point.steps)
        return self.floquet[:2]

    @functools.cached_property
    def bundle(self):
        """The gradient bundle built from floquet (read only off Jordan blocks)."""
        return gradient_bundle(self.point, self.floquet)


def _records(m, count, steps):
    return [_Point(m, p) for p in auxiliary_spectrum(m, count=count, steps=steps)]


def _spectra(members, count, steps):
    """Per member, a call returning its first count auxiliary points as _Point
    records: the first call finds them, later calls return the same list."""
    return [functools.cache(functools.partial(_records, mb.m, count, steps))
            for mb in members]


def _skip(report, strict, note):
    # strict callers asked for this specific coefficient, so an identity
    # that cannot even be evaluated on it counts as a failure
    if strict:
        report.passed = False
    report.notes.append(note)


def _weighted_atoms(m):
    """True when an atom has nonzero weight, the brackets' rule for rejecting
    a field; an atom of weight 0 has no mass and passes."""
    return any(a.p != 0.0 for a in m.atoms)


def _clear_sites(m, n):
    """Grid sites whose perturbation hat stays clear of every atom kink."""
    if not m.has_atoms:
        return None
    x = np.arange(n) / n
    keep = np.ones(n, dtype=bool)
    for atom in m.atoms:
        d = np.abs(x - atom.q)
        keep &= np.minimum(d, 1.0 - d) > 1.5 / n
    return np.nonzero(keep)[0]


def suite_lemma(members=None, count=3, steps=DEFAULT_STEPS, tol=1e-7, strict=False,
                points=None):
    report = VerificationReport(
        identity="lambda*J(phi*psi) = K(phi*psi) for solution products",
        n=steps, tolerance=tol)
    members = _members(members)
    for member, spectrum in zip(members, points or _spectra(members, count, steps)):
        if _weighted_atoms(member.m):
            _skip(report, strict,
                  f"{member.name}: delta atoms put solution products outside the brackets")
            continue
        for rec in spectrum():
            trajs = list(zip(("y1", "y2"), rec.pair))
            # a degenerate point has a scalar period map or a Jordan block:
            # no y that is new to pair
            if not rec.point.degenerate:
                trajs.append(("y", rec.floquet[2]))
            for i in range(len(trajs)):
                for j in range(i, len(trajs)):
                    field = ProductField.from_trajectories(trajs[i][1], trajs[j][1])
                    res, kmax = lemma_residual(field)
                    ok = res <= tol * max(kmax, 1.0)
                    report.add_case([res, kmax], ok,
                                    f"{member.name}: mu_{rec.point.index} "
                                    f"{trajs[i][0]}*{trajs[j][0]}")
    return report


def suite_gradients(members=None, n=256, eps=1e-5, count=3,
                    steps=DEFAULT_STEPS, tol=5e-4, strict=False, points=None):
    report = VerificationReport(
        identity="analytic gradients of mu and log|rho| match central differences",
        n=n, tolerance=tol)
    if steps % n:
        raise ValueError("steps must be a multiple of n for site-aligned hats")
    members = _members(members)
    for member, spectrum in zip(members, points or _spectra(members, count, steps)):
        rec = next((r for r in spectrum() if not r.point.degenerate), None)
        if rec is None:
            _skip(report, strict, f"{member.name}: no non-degenerate points")
            continue
        sites = _clear_sites(member.m, n)
        chk = verify_gradients(member.m, rec.bundle, n=n, eps=eps, sites=sites)
        row = [chk.rel_mu, chk.rel_log_rho, chk.rel_f, chk.rel_g]
        report.add_case(row, max(row) <= tol, f"{member.name}: mu_{rec.point.index}")
        report.tables[f"gradients_{member.name}"] = (
            "x,d_mu,d_logrho,d_f,d_g", gradient_table(chk.bundle, n))
    return report


def _scaled_block_deviations(mat, mus):
    """Max |entry - target| per block, each entry scaled by max(1, mu^2)."""
    k = len(mus)
    dev = np.abs(mat - conjugacy_target(k))
    for i in range(2 * k):
        for j in range(2 * k):
            mi, mj = mus[i % k], mus[j % k]
            dev[i, j] /= max(1.0, mi * mi, mj * mj)
    return [float(np.max(dev[:k, :k])), float(np.max(dev[:k, k:])),
            float(np.max(dev[k:, :k])), float(np.max(dev[k:, k:]))]


def _theorem_suite(identity, which, members, count, steps, tol, strict, points):
    report = VerificationReport(identity=identity, n=steps, tolerance=tol)
    members = _members(members)
    for member, spectrum in zip(members, points or _spectra(members, count, steps)):
        if _weighted_atoms(member.m):
            _skip(report, strict, f"{member.name}: brackets need a smooth coefficient")
            continue
        if any(rec.floquet is None for rec in spectrum()):
            _skip(report, strict,
                  f"{member.name}: Jordan degeneracy admits no second Floquet solution")
            continue
        bundles = [rec.bundle for rec in spectrum()]
        mus = [b.point.mu for b in bundles]
        mat = conjugacy_matrix(bundles, which=which)
        row = _scaled_block_deviations(mat, mus)
        if which == "first":
            # {mu_i, log|rho_j|} = -mu_i^2 delta_ij, row i scaled by max(1, mu_i^2)
            inter = np.abs(log_multiplier_matrix(bundles)
                           - np.diag([-mu * mu for mu in mus]))
            for i, mu in enumerate(mus):
                inter[i, :] /= max(1.0, mu * mu)
            row.append(float(np.max(inter)))
        report.add_case(row, max(row) <= tol, member.name)
    return report


def suite_theorem1(members=None, count=3, steps=DEFAULT_STEPS, tol=1e-5, strict=False,
                   points=None):
    return _theorem_suite(
        "(mu_i, f_i) are canonically conjugate under the first bracket", "first",
        members, count, steps, tol, strict, points)


def suite_theorem2(members=None, count=3, steps=DEFAULT_STEPS, tol=1e-5, strict=False,
                   points=None):
    return _theorem_suite(
        "(mu_i, g_i) are canonically conjugate under the second bracket", "second",
        members, count, steps, tol, strict, points)


def suite_hamiltonian(members=None, n=256, tol=1e-6, strict=False):
    report = VerificationReport(
        identity="J dH2/dm = K dH3/dm pointwise",
        n=n, tolerance=tol)
    for member in _members(members):
        if member.m.has_atoms:
            _skip(report, strict,
                  f"{member.name}: energy functionals need a smooth coefficient")
            continue
        if member.m.smooth.kind == "samples":
            _skip(report, strict,
                  f"{member.name}: a spline is not band-limited, so the Fourier "
                  "symbols leave its O(n^-2) tail in the residual")
            continue
        xs, j_side, k_side, diff = hamiltonian_fields(member.m, n)
        res, scale = float(np.max(np.abs(diff))), float(np.max(np.abs(k_side)))
        flux, energy = h2(member.m, n), h2_energy(member.m, n)
        h2_dev = abs(flux - energy) / max(1.0, abs(energy))
        ok = res <= tol * max(scale, 1.0) and h2_dev <= tol
        report.add_case([res, scale, h2_dev], ok, member.name)
        report.tables[f"hamiltonian_{member.name}"] = (
            "x,j_gradh2,k_gradh3,residual", (xs, j_side, k_side, diff))
    return report


# name -> (suite, the run_suite settings it takes)
_SUITES = {
    "lemma": (suite_lemma, ("count", "steps", "points")),
    "gradients": (suite_gradients, ("n", "eps", "count", "steps", "points")),
    "theorem1": (suite_theorem1, ("count", "steps", "points")),
    "theorem2": (suite_theorem2, ("count", "steps", "points")),
    "hamiltonian": (suite_hamiltonian, ("n",)),
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name, members=None, strict=False, n=256, eps=1e-5,
              count=3, steps=DEFAULT_STEPS):
    """Run one suite by CLI name, or every suite in order for 'all'.

    Returns [(name, report), ...].  The suites share one list of lazy
    per-member spectra: a member's auxiliary points, and each point's
    solutions and gradient bundle, are built once, when a suite first reads
    them.
    """
    if name != "all" and name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}")
    names = SUITE_NAMES if name == "all" else (name,)
    members = _members(members)
    settings = {"n": n, "eps": eps, "count": count, "steps": steps,
                "points": _spectra(members, count, steps)}
    return [(s, _SUITES[s][0](members, strict=strict,
                              **{k: settings[k] for k in _SUITES[s][1]}))
            for s in names]
