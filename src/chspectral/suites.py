"""Verification suites behind the `verify` command.

Each suite checks one analytic identity over a set of coefficients and
returns a VerificationReport.  Corpus mode (strict=False) quietly skips
members the identity does not apply to; strict mode, used when the caller
supplies a single coefficient, turns inapplicability into failure so a CI
run cannot pass vacuously.
"""

from __future__ import annotations

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
from .hamiltonians import bihamiltonian_residual, h2, h2_energy
from .report import VerificationReport
from .shooting import DEFAULT_STEPS, solve_fundamental
from .variations import gradient_bundle, verify_gradients

SUITE_NAMES = ("lemma", "gradients", "theorem1", "theorem2", "hamiltonian")


def _members(members):
    return default_corpus() if members is None else list(members)


def _skip(report, strict, note):
    # strict callers asked for this specific coefficient, so an identity
    # that cannot even be evaluated on it counts as a failure
    if strict:
        report.passed = False
    report.notes.append(note)


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


def _lemma_trajectories(m, pt, steps):
    t1, t2 = solve_fundamental(m, pt.mu, steps=steps)
    names = [("y1", t1), ("y2", t2)]
    try:
        _, y, b = second_floquet(m, pt, steps=steps)
    except JordanGapError:
        return names
    if pt.degenerate and b == 0.0:
        # scalar period map: y is y1 itself, nothing new to pair
        return names
    return names + [("y", y)]


def suite_lemma(members=None, count=3, steps=DEFAULT_STEPS, tol=1e-7, strict=False):
    report = VerificationReport(
        identity="lambda*J(phi*psi) = K(phi*psi) for solution products",
        n=steps, tolerance=tol)
    for member in _members(members):
        if member.m.has_atoms:
            _skip(report, strict,
                  f"{member.name}: delta atoms put solution products outside the brackets")
            continue
        for pt in auxiliary_spectrum(member.m, count=count, steps=steps):
            trajs = _lemma_trajectories(member.m, pt, steps)
            for i in range(len(trajs)):
                for j in range(i, len(trajs)):
                    field = ProductField.from_trajectories(
                        member.m, trajs[i][1], trajs[j][1])
                    res, kmax = lemma_residual(member.m, field)
                    ok = res <= tol * max(kmax, 1.0)
                    report.add_case([res, kmax], ok,
                                    f"{member.name}: mu_{pt.index} "
                                    f"{trajs[i][0]}*{trajs[j][0]}")
    return report


def suite_gradients(members=None, n=256, eps=1e-5, count=3,
                    steps=DEFAULT_STEPS, tol=5e-4, strict=False):
    report = VerificationReport(
        identity="analytic gradients of mu and log|rho| match central differences",
        n=n, tolerance=tol)
    if steps % n:
        raise ValueError("steps must be a multiple of n for site-aligned hats")
    for member in _members(members):
        pts = auxiliary_spectrum(member.m, count=count, steps=steps)
        pt = next((p for p in pts if not p.degenerate), None)
        if pt is None:
            _skip(report, strict, f"{member.name}: no non-degenerate points")
            continue
        sites = _clear_sites(member.m, n)
        chk = verify_gradients(member.m, pt, n=n, eps=eps, steps=steps, sites=sites)
        row = [chk.rel_mu, chk.rel_log_rho, chk.rel_f, chk.rel_g]
        report.add_case(row, max(row) <= tol, f"{member.name}: mu_{pt.index}")
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


def _bundles_or_skip(report, member, count, steps, strict):
    if member.m.has_atoms:
        _skip(report, strict, f"{member.name}: brackets need a smooth coefficient")
        return None
    pts = auxiliary_spectrum(member.m, count=count, steps=steps)
    try:
        return [gradient_bundle(member.m, p, steps=steps) for p in pts]
    except JordanGapError:
        _skip(report, strict,
              f"{member.name}: Jordan degeneracy admits no second Floquet solution")
        return None


def suite_theorem1(members=None, count=3, steps=DEFAULT_STEPS, tol=1e-5, strict=False):
    report = VerificationReport(
        identity="(mu_i, f_i) are canonically conjugate under the first bracket",
        n=steps, tolerance=tol)
    for member in _members(members):
        bundles = _bundles_or_skip(report, member, count, steps, strict)
        if bundles is None:
            continue
        mus = [b.point.mu for b in bundles]
        mat = conjugacy_matrix(member.m, bundles=bundles, which="first")
        row = _scaled_block_deviations(mat, mus)
        inter = np.abs(log_multiplier_matrix(member.m, bundles)
                       - np.diag([-mu * mu for mu in mus]))
        for i, mu in enumerate(mus):
            inter[i, :] /= max(1.0, mu * mu)
        row.append(float(np.max(inter)))
        report.add_case(row, max(row) <= tol, member.name)
    return report


def suite_theorem2(members=None, count=3, steps=DEFAULT_STEPS, tol=1e-5, strict=False):
    report = VerificationReport(
        identity="(mu_i, g_i) are canonically conjugate under the second bracket",
        n=steps, tolerance=tol)
    for member in _members(members):
        bundles = _bundles_or_skip(report, member, count, steps, strict)
        if bundles is None:
            continue
        mus = [b.point.mu for b in bundles]
        mat = conjugacy_matrix(member.m, bundles=bundles, which="second")
        row = _scaled_block_deviations(mat, mus)
        report.add_case(row, max(row) <= tol, member.name)
    return report


def suite_hamiltonian(members=None, n=256, tol=1e-6, strict=False):
    report = VerificationReport(
        identity="J dH2/dm = K dH3/dm pointwise",
        n=n, tolerance=tol)
    for member in _members(members):
        if member.m.has_atoms:
            _skip(report, strict,
                  f"{member.name}: energy functionals need a smooth coefficient")
            continue
        res, scale = bihamiltonian_residual(member.m, n)
        flux, energy = h2(member.m, n), h2_energy(member.m, n)
        h2_dev = abs(flux - energy) / max(1.0, abs(energy))
        ok = res <= tol * max(scale, 1.0) and h2_dev <= tol
        report.add_case([res, scale, h2_dev], ok, member.name)
    return report


def run_suite(name, members=None, strict=False, n=256, eps=1e-5,
              count=3, steps=DEFAULT_STEPS):
    """Dispatch one suite by CLI name; 'all' returns every suite in order."""
    if name == "all":
        return [(s, run_suite(s, members=members, strict=strict, n=n,
                              eps=eps, count=count, steps=steps)[0][1])
                for s in SUITE_NAMES]
    if name == "lemma":
        report = suite_lemma(members, count=count, steps=steps, strict=strict)
    elif name == "gradients":
        report = suite_gradients(members, n=n, eps=eps, count=count,
                                 steps=steps, strict=strict)
    elif name == "theorem1":
        report = suite_theorem1(members, count=count, steps=steps, strict=strict)
    elif name == "theorem2":
        report = suite_theorem2(members, count=count, steps=steps, strict=strict)
    elif name == "hamiltonian":
        report = suite_hamiltonian(members, n=n, strict=strict)
    else:
        raise ValueError(f"unknown suite {name!r}")
    return [(name, report)]
