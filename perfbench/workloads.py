"""Seeded inputs for the benchmark workloads.

Every workload is a list of ops, each one CLI invocation of `chspectral`
over a coefficient config that is written to disk before timing starts.
Ops are grouped into rounds: the timed loop stops only at a round boundary,
so every run sees the same mix of op kinds whatever its length.  The same
(workload, seed) pair always gives the same configs and ops.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field

import numpy as np

# Copies of the shipped corpus members, so the benchmark does not depend on
# where the repository keeps its configs.
CORPUS = {
    "const": {"smooth": {"kind": "const", "value": 1.0}},
    "cosine": {"smooth": {"kind": "fourier", "a0": 1.0, "cos": [0.3]}},
    "two_mode": {"smooth": {"kind": "fourier", "a0": 1.0,
                            "cos": [0.25], "sin": [0.0, 0.1]}},
}

SUITES = ("lemma", "gradients", "theorem1", "theorem2", "hamiltonian")
DISCRIMINANT_ARGS = ["--lambda-max", "500", "--count", "4000"]
PEAKON_ATOMS = range(4, 17)     # every atom count from 4 to 16 ...
PEAKON_REPEATS = 4              # ... four times per seed
PEAKON_WINDOW_MARGIN = 1.1      # window top over the largest auxiliary point


@dataclass(frozen=True)
class Op:
    """One CLI invocation; argv lacks only the --out directory."""

    key: str
    argv: tuple
    config: str                 # config name (file stem)
    meta: dict = field(default_factory=dict, hash=False, compare=False)

    @property
    def command(self):
        return self.argv[0]


@dataclass
class Workload:
    configs: dict               # config name -> JSON-ready spec
    ops: list
    rounds: list                # lists of op indices; a cycle is all rounds once


def _rng(name, seed):
    return np.random.default_rng([int(seed), zlib.crc32(name.encode())])


def random_fourier(rng):
    """m = 1 + sum_{k<=3} r_k cos(2 pi k x + phase_k), r_k in [0.05, 0.15].

    Every mode is present, so the first three gaps are open to first order,
    and m >= 0.55 > 0.  The auxiliary spectrum is generic: no point sits on
    a band edge, so no Jordan block arises.
    """
    r = rng.uniform(0.05, 0.15, 3)
    phase = rng.uniform(0.0, 2.0 * math.pi, 3)
    return {"smooth": {"kind": "fourier", "a0": 1.0,
                       "cos": [round(float(v), 6) for v in r * np.cos(phase)],
                       "sin": [round(float(v), 6) for v in r * np.sin(phase)]}}


def random_peakons(rng, n):
    """n atoms, one per cell [j/n, (j+1)/n), weights in [0.5, 1.5].

    Each atom sits in the middle 80% of its cell.  Clustered atoms push the
    top auxiliary point, and with it the window and the op cost, up by orders
    of magnitude; one atom per cell keeps every op within a run's budget.
    """
    q = (np.arange(n) + rng.uniform(0.1, 0.9, n)) / n
    p = rng.uniform(0.5, 1.5, n)
    return {"atoms": [{"q": round(float(a), 6), "p": round(float(b), 6)}
                      for a, b in zip(q, p)]}


def dirichlet_atoms(spec):
    """Auxiliary points of a purely atomic coefficient, in increasing order.

    Between atoms psi'' = psi/4, so psi(q_i) = lambda sum_j G(q_i, q_j) p_j
    psi(q_j) with the Dirichlet Green's function
    G(x, s) = 2 sinh(min/2) sinh((1 - max)/2) / sinh(1/2) of -D^2 + 1/4.
    The mu are the reciprocal eigenvalues of P^(1/2) G P^(1/2); for one
    atom this is the closed form mu = sinh(1/2) / (2 p sinh(q/2) sinh((1-q)/2)).
    """
    q = np.array([a["q"] for a in spec["atoms"]], dtype=float)
    p = np.array([a["p"] for a in spec["atoms"]], dtype=float)
    lo, hi = np.minimum.outer(q, q), np.maximum.outer(q, q)
    green = 2.0 * np.sinh(0.5 * lo) * np.sinh(0.5 * (1.0 - hi)) / math.sinh(0.5)
    s = np.sqrt(p)
    return np.sort(1.0 / np.linalg.eigvalsh(s[:, None] * green * s[None, :]))


def _smooth_pairs(rng, name, args_for):
    """Random and corpus configs alternating; rounds of [r, const, r, cosine]."""
    configs, ops = {}, []
    for i in range(4):
        rname = f"fourier{i}"
        configs[rname] = random_fourier(rng)
        corpus = "const" if i % 2 == 0 else "cosine"
        configs[corpus] = CORPUS[corpus]
        for cname in (rname, corpus):
            ops.append(Op(key=f"{name}:{cname}", argv=tuple(args_for(cname)),
                          config=cname))
    rounds = [list(range(k, k + 4)) for k in range(0, len(ops), 4)]
    return configs, ops, rounds


def spectra_smooth(seed):
    configs, ops, rounds = _smooth_pairs(
        _rng("spectra_smooth", seed), "spectra_smooth",
        lambda c: ["spectrum", "--config", c])
    return Workload(configs, ops, rounds)


def discriminant_sweep(seed):
    configs, ops, rounds = _smooth_pairs(
        _rng("discriminant_sweep", seed), "discriminant_sweep",
        lambda c: ["discriminant", "--config", c] + DISCRIMINANT_ARGS)
    return Workload(configs, ops, rounds)


def verify_smooth(seed):
    rng = _rng("verify_smooth", seed)
    configs = {"two_mode": CORPUS["two_mode"]}
    ops, rounds = [], []
    for cname in ("two_mode", "fourier0", "two_mode", "fourier1"):
        if cname not in configs:
            configs[cname] = random_fourier(rng)
        start = len(ops)
        for suite in SUITES:
            ops.append(Op(key=f"verify_smooth:{suite}:{cname}",
                          argv=("verify", suite, "--config", cname), config=cname))
        rounds.append(list(range(start, len(ops))))
    return Workload(configs, ops, rounds)


def peakon_spectra(seed):
    rng = _rng("peakon_spectra", seed)
    configs, ops = {}, []
    for rep in range(PEAKON_REPEATS):
        for n in PEAKON_ATOMS:
            cname = f"atoms{n}_{rep}"
            spec = random_peakons(rng, n)
            mus = dirichlet_atoms(spec)
            top = float(f"{PEAKON_WINDOW_MARGIN * mus[-1]:.4g}")
            configs[cname] = spec
            ops.append(Op(key=f"peakon_spectra:{cname}",
                          argv=("spectrum", "--config", cname,
                                "--lambda-max", repr(top)),
                          config=cname, meta={"aux_exact": mus.tolist()}))
    return Workload(configs, ops, [[i] for i in range(len(ops))])


WORKLOADS = {f.__name__: f for f in (spectra_smooth, discriminant_sweep,
                                      verify_smooth, peakon_spectra)}


def build(name, seed):
    """The workload's configs and ops; config names in argv are bare stems."""
    return WORKLOADS[name](seed)
