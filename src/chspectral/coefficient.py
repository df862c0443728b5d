"""Periodic momentum coefficients m = m_s + sum_n p_n delta(x - q_n).

The smooth part m_s is a constant, a finite Fourier series, or a periodic
cubic spline through samples; delta atoms carry positions q in [0, 1) and
real weights p.  The velocity v solves (1 - D^2) v = m on the unit circle.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi

# Green's function of (1 - D^2) on the circle: G(x) = cosh(d(x) - 1/2) / (2 sinh 1/2)
_G_NORM = 2.0 * math.sinh(0.5)


class CoefficientError(ValueError):
    """Raised for malformed coefficient specifications."""


def _as_float(value, what):
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise CoefficientError(f"{what} must be a real number, got {value!r}") from None
    if not math.isfinite(out):
        raise CoefficientError(f"{what} must be finite, got {out}")
    return out


@dataclass(frozen=True)
class Atom:
    """Delta component p * delta(x - q) with q in [0, 1)."""

    q: float
    p: float


class ConstantSmooth:
    """Constant smooth part m_s(x) = c."""

    kind = "const"

    def __init__(self, value):
        self.c = _as_float(value, "constant smooth value")

    @property
    def is_zero(self):
        return self.c == 0.0

    def value(self, x):
        out = np.full(np.shape(x), self.c)
        return out if isinstance(x, np.ndarray) else float(out)

    def derivative(self, x):
        out = np.zeros(np.shape(x))
        return out if isinstance(x, np.ndarray) else float(out)

    def spec(self):
        return {"kind": "const", "value": self.c}


class FourierSmooth:
    """Finite Fourier series a0 + sum_k (a_k cos 2 pi k x + b_k sin 2 pi k x)."""

    kind = "fourier"

    def __init__(self, a0, cos=(), sin=()):
        self.a0 = _as_float(a0, "fourier a0")
        self.cos = tuple(_as_float(c, "fourier cosine coefficient") for c in cos)
        self.sin = tuple(_as_float(s, "fourier sine coefficient") for s in sin)

    @property
    def is_zero(self):
        return self.a0 == 0.0 and not any(self.cos) and not any(self.sin)

    def value(self, x):
        xa = np.asarray(x, dtype=float)
        out = np.full(xa.shape, self.a0)
        for k, a in enumerate(self.cos, start=1):
            if a:
                out += a * np.cos(TWO_PI * k * xa)
        for k, b in enumerate(self.sin, start=1):
            if b:
                out += b * np.sin(TWO_PI * k * xa)
        return out if isinstance(x, np.ndarray) else float(out)

    def derivative(self, x):
        xa = np.asarray(x, dtype=float)
        out = np.zeros(xa.shape)
        for k, a in enumerate(self.cos, start=1):
            if a:
                out -= a * TWO_PI * k * np.sin(TWO_PI * k * xa)
        for k, b in enumerate(self.sin, start=1):
            if b:
                out += b * TWO_PI * k * np.cos(TWO_PI * k * xa)
        return out if isinstance(x, np.ndarray) else float(out)

    def spec(self):
        return {"kind": "fourier", "a0": self.a0, "cos": list(self.cos), "sin": list(self.sin)}


class SampleSmooth:
    """Periodic cubic spline through samples at x_k = k / len(values)."""

    kind = "samples"

    def __init__(self, values):
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 1 or vals.size < 4:
            raise CoefficientError("samples smooth part needs a flat list of at least 4 values")
        if not np.all(np.isfinite(vals)):
            raise CoefficientError("samples smooth part contains non-finite values")
        self.samples = vals
        from scipy.interpolate import CubicSpline   # here: only samples pay for scipy

        grid = np.linspace(0.0, 1.0, vals.size + 1)
        self._spline = CubicSpline(grid, np.append(vals, vals[0]), bc_type="periodic")

    @property
    def is_zero(self):
        return bool(np.all(self.samples == 0.0))

    def value(self, x):
        out = self._spline(np.mod(x, 1.0))
        return out if isinstance(x, np.ndarray) else float(out)

    def derivative(self, x):
        out = self._spline(np.mod(x, 1.0), 1)
        return out if isinstance(x, np.ndarray) else float(out)

    def spec(self):
        return {"kind": "samples", "values": self.samples.tolist()}


@dataclass(frozen=True)
class PeriodicCoefficient:
    """Momentum coefficient on the unit circle: smooth part plus delta atoms."""

    smooth: object
    atoms: tuple[Atom, ...] = ()
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # the dataclass hash, computed once: the step-table memo hashes m on
        # every lookup, which would otherwise hash every atom again
        object.__setattr__(self, "_hash", hash((self.smooth, self.atoms)))

    def __hash__(self):
        return self._hash

    @property
    def has_atoms(self):
        return len(self.atoms) > 0

    @property
    def smooth_is_zero(self):
        return self.smooth.is_zero

    def smooth_value(self, x):
        return self.smooth.value(x)

    def smooth_derivative(self, x):
        return self.smooth.derivative(x)

    def spec(self):
        return {"smooth": self.smooth.spec(),
                "atoms": [{"q": a.q, "p": a.p} for a in self.atoms]}


_SMOOTH_FIELDS = {"const": {"kind", "value"},
                  "fourier": {"kind", "a0", "cos", "sin"},
                  "samples": {"kind", "values"}}


def _build_smooth(spec):
    if not isinstance(spec, dict):
        raise CoefficientError("smooth spec must be an object with a 'kind' field")
    kind = spec.get("kind")
    if kind not in _SMOOTH_FIELDS:
        raise CoefficientError(f"unknown smooth kind {kind!r} (expected const, fourier, or samples)")
    unknown = set(spec) - _SMOOTH_FIELDS[kind]
    if unknown:
        raise CoefficientError(f"unknown fields in {kind} smooth spec: {sorted(unknown)}")
    if kind == "const":
        if "value" not in spec:
            raise CoefficientError("const smooth spec needs a 'value' field")
        return ConstantSmooth(spec["value"])
    if kind == "fourier":
        return FourierSmooth(spec.get("a0", 0.0), spec.get("cos", ()), spec.get("sin", ()))
    if "values" not in spec:
        raise CoefficientError("samples smooth spec needs a 'values' field")
    return SampleSmooth(spec["values"])


def make_coefficient(spec):
    """Build a validated PeriodicCoefficient from a plain dict spec.

    Expected shape::

        {"smooth": {"kind": "const" | "fourier" | "samples", ...},
         "atoms": [{"q": 0.3, "p": 1.0}, ...]}
    """
    if not isinstance(spec, dict):
        raise CoefficientError("coefficient spec must be a JSON object")
    unknown = set(spec) - {"smooth", "atoms"}
    if unknown:
        raise CoefficientError(f"unknown coefficient fields: {sorted(unknown)}")
    smooth = _build_smooth(spec.get("smooth", {"kind": "const", "value": 0.0}))
    atoms = []
    for entry in spec.get("atoms", []):
        if not isinstance(entry, dict) or "q" not in entry or "p" not in entry:
            raise CoefficientError("each atom needs 'q' and 'p' fields")
        q = _as_float(entry["q"], "atom position q")
        p = _as_float(entry["p"], "atom weight p")
        if not 0.0 <= q < 1.0:
            raise CoefficientError(f"atom position q={q} outside [0, 1)")
        if q >= 1.0 - 1e-14:
            # the step tables leave out atoms this close to the period's end
            raise CoefficientError(f"atom position q={q} is within 1e-14 of the period end "
                                   "x = 1; put the atom at q = 0")
        atoms.append(Atom(q=q, p=p))
    atoms.sort(key=lambda a: a.q)
    for left, right in zip(atoms, atoms[1:]):
        if left.q == right.q:
            raise CoefficientError(f"duplicate atom position q={left.q}")
    return PeriodicCoefficient(smooth=smooth, atoms=tuple(atoms))


def load_coefficient(path):
    """Read a coefficient spec from a JSON file."""
    with open(path) as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CoefficientError(f"invalid JSON in {path}: {exc}") from None
    return make_coefficient(spec)


@dataclass(frozen=True)
class GridFunction:
    """Real samples at x_k = k/n, k = 0..n-1, on the unit circle."""

    n: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.n < 8 or self.n & (self.n - 1):
            raise CoefficientError(f"grid size must be a power of two >= 8, got {self.n}")
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.n,):
            raise CoefficientError(f"expected {self.n} samples, got shape {vals.shape}")
        object.__setattr__(self, "values", vals)

    @property
    def x(self):
        return np.arange(self.n) / self.n


def grid_points(n):
    return np.arange(n) / n


def momentum_grid(m, n):
    """Samples of the smooth part of m on the n-grid (atoms reported separately)."""
    return GridFunction(n, m.smooth_value(grid_points(n)))


def _helmholtz_symbol(n):
    k = np.arange(n // 2 + 1)
    return 1.0 + (TWO_PI * k) ** 2


def velocity_from_momentum(m, n):
    """Solve (1 - D^2) v = m periodically on the n-grid.

    The smooth part goes through Fourier symbol division; each atom
    contributes its exact Green's function p * cosh(d(x,q) - 1/2) / (2 sinh 1/2).
    """
    x = grid_points(n)
    mhat = np.fft.rfft(m.smooth_value(x))
    v = np.fft.irfft(mhat / _helmholtz_symbol(n), n)
    for atom in m.atoms:
        d = np.abs(np.mod(x - atom.q + 0.5, 1.0) - 0.5)
        v += atom.p * np.cosh(d - 0.5) / _G_NORM
    return GridFunction(n, v)
