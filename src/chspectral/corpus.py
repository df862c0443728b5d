"""Stock coefficients exercising every regime the solvers distinguish.

const closes every spectral gap (a scalar period map); cosine opens them
but pins each auxiliary point on a gap edge (a nontrivial Jordan block);
two_mode carries a generic non-degenerate auxiliary spectrum; the two
peakon members concentrate all momentum in a single delta atom, and the
centered one pins its auxiliary eigenvalue to a band edge.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coefficient import PeriodicCoefficient, make_coefficient

_SPECS = (
    ("const", {"smooth": {"kind": "const", "value": 1.0}}),
    ("cosine", {"smooth": {"kind": "fourier", "a0": 1.0, "cos": [0.3]}}),
    ("two_mode", {"smooth": {"kind": "fourier", "a0": 1.0,
                             "cos": [0.25], "sin": [0.0, 0.1]}}),
    ("peakon_offset", {"atoms": [{"q": 0.3, "p": 1.0}]}),
    ("peakon_centered", {"atoms": [{"q": 0.5, "p": 1.0}]}),
)


@dataclass(frozen=True)
class CorpusMember:
    name: str
    m: PeriodicCoefficient


def corpus_specs():
    """Name -> JSON-ready coefficient spec for each stock member."""
    return {name: spec for name, spec in _SPECS}


def default_corpus():
    return [CorpusMember(name, make_coefficient(spec)) for name, spec in _SPECS]
