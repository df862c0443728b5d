"""The Brent port returns scipy.optimize.brentq's root bit for bit."""

import math
import random

import pytest
from scipy.optimize import brentq as scipy_brentq

from chspectral import floquet
from chspectral.corpus import default_corpus
from chspectral.roots import _brentq


def outcome(finder, f, a, b, **kwargs):
    """The root, sign bit included, or the type of the exception raised."""
    try:
        root = finder(f, a, b, **kwargs)
    except (ValueError, RuntimeError) as exc:
        return type(exc)
    return root, math.copysign(1.0, root)


def assert_same(f, a, b, **kwargs):
    ours = outcome(_brentq, f, a, b, **kwargs)
    assert ours == outcome(scipy_brentq, f, a, b, **kwargs), (a, b, kwargs)
    return ours


def used_brackets(monkeypatch):
    """Every (f, a, b, options) the package's searches hand to brentq on the corpus,
    each checked against scipy when made (edge closures read the loop's current t)."""
    calls = []

    def checking(f, a, b, **kwargs):
        calls.append(f.__qualname__)
        root = assert_same(f, a, b, **kwargs)
        assert type(root) is tuple, (a, b, root)
        return root[0]

    monkeypatch.setattr(floquet, "brentq", checking)
    for member in default_corpus():
        points = floquet.auxiliary_spectrum(member.m, lam_max=4000.0)
        floquet.periodic_spectrum(member.m, floquet.GUARD_BAND, 4000.0, points=points)
        floquet.refine_point(member.m, points[0], steps=2048)
    return calls


def test_port_matches_scipy_on_the_corpus_brackets(monkeypatch):
    calls = used_brackets(monkeypatch)
    # y2(1, .) brackets (auxiliary points, refine_point's included) and
    # Delta -+ 1 ones (edges)
    assert len(calls) > 100
    assert {name.split(".")[0] for name in calls} == {
        "auxiliary_spectrum", "periodic_spectrum"}


def test_port_matches_scipy_at_a_bracket_end():
    line = lambda x: x - 1.0    # noqa: E731
    assert assert_same(line, 1.0, 2.0) == (1.0, 1.0)
    assert assert_same(line, 0.0, 1.0) == (1.0, 1.0)
    assert assert_same(lambda x: -0.0 if x == 0.5 else x, 0.5, 2.0) == (0.5, 1.0)
    # a zero hit exactly mid-iteration
    assert assert_same(lambda x: x, -1.0, 3.0)[0] == 0.0


def test_port_matches_scipy_on_random_smooth_functions():
    rng = random.Random(13)
    for trial in range(600):
        amps = [rng.uniform(-1.0, 1.0) for _ in range(rng.randint(1, 5))]
        phases = [rng.uniform(0.0, 2.0 * math.pi) for _ in amps]
        shift = rng.uniform(-0.5, 0.5)
        if trial % 3 == 0:
            def f(x):
                return shift + sum(a * math.sin((k + 1) * x + p)
                                   for k, (a, p) in enumerate(zip(amps, phases)))
        elif trial % 3 == 1:
            def f(x):
                return (x - shift) ** 3 * (1.0 + amps[0] ** 2)
        else:
            def f(x):
                return math.exp(amps[0] * x) - 1.0 - shift * x
        a = rng.uniform(-5.0, 5.0)
        b = a + rng.uniform(1e-6, 10.0)
        xtol = rng.choice([2e-12, 1e-13, 1e-6, 1e-3, 0.1])
        rtol = rng.choice([4.0 * 2.0 ** -52, 8.9e-16, 1e-10])
        assert_same(f, a, b, xtol=xtol, rtol=rtol)
        assert_same(f, a, b, xtol=xtol, rtol=rtol, maxiter=4)


def test_port_refuses_what_scipy_refuses():
    line = lambda x: x - 1.0    # noqa: E731
    with pytest.raises(ValueError, match="different signs"):
        _brentq(line, 2.0, 3.0)
    with pytest.raises(ValueError, match="rtol"):
        _brentq(line, 0.0, 2.0, rtol=3.9 * 2.0 ** -52)
    with pytest.raises(ValueError, match="xtol"):
        _brentq(line, 0.0, 2.0, xtol=0.0)
    with pytest.raises(ValueError, match="NaN"):
        _brentq(lambda x: math.nan if x > 1.0 else -1.0, 0.0, 2.0)
    with pytest.raises(RuntimeError, match="converge"):
        _brentq(lambda x: x ** 3 - 2.0, 0.0, 4.0, maxiter=3)
    for f, a, b, kwargs in [(line, 2.0, 3.0, {}), (line, 0.0, 2.0, {"rtol": 3.9 * 2.0 ** -52}),
                            (lambda x: x ** 3 - 2.0, 0.0, 4.0, {"maxiter": 3})]:
        assert type(assert_same(f, a, b, **kwargs)) is type
