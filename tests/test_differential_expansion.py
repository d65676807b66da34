"""Differential check of the expansion route against ``mpmath.iv``.

On an explicit set, listed elements followed by every natural above the
largest, gamma is an exact rational, and so is the mass past any stage.
The p-th power of |t - sum_j a_j f_j| then has a closed form with finitely
many powers, for any depth D at or past the last coefficient and the
target's support:

    |t_0 - a_0 (1 - gamma)^(1/p)|^p
        + sum_{n=1..D} |t_n - a_n - a_0 2^(-c_{n-1}/p)|^p
        + |a_0|^p (gamma - sum_{n<D} 2^(-c_n)).

``mpmath.iv`` evaluates it with outward-rounded binary floating point at a
working precision well past the requested one; the certified enclosure
from ``expanded_residual_norm`` must intersect that interval, on both
exponent tracks, and be narrower than 2^-k.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

pytest.importorskip("mpmath")
from mpmath import iv  # noqa: E402

from lpcat import (  # noqa: E402
    CeSet,
    ComputableReal,
    CRat,
    Exponent,
    FiniteVector,
    expanded_residual_norm,
)
from test_differential import _check, _iv  # noqa: E402

F = Fraction

coefficient = st.builds(F, st.integers(-(10**4), 10**4), st.integers(1, 10**4))
complex_coefficient = st.builds(CRat, coefficient, coefficient)


@st.composite
def exponents(draw):
    """(p, Exponent) on the rational track or behind a constant oracle."""
    q = draw(st.sampled_from((F(1), F(3, 2), F(2), F(3), F(7, 3))))
    if draw(st.booleans()):
        return q, Exponent.from_rational(q)
    return q, Exponent.from_real(ComputableReal.constant(q))


@st.composite
def explicit_sets(draw):
    """(elements, delays): at most 8 elements of [1, 24] with one missing
    below the largest, and up to two of them pinned to late stages."""
    elements = draw(
        st.sets(st.integers(1, 24), min_size=1, max_size=8).filter(lambda s: len(s) < max(s))
    )
    stages = draw(st.lists(st.integers(0, 12), unique=True, max_size=2))
    return sorted(elements), list(zip(sorted(elements)[-len(stages):], stages)) if stages else []


def enumeration(elements, delays, stages):
    """The first stages elements enumerated: each delayed element at its
    stage, the rest in increasing order, then every natural above the
    largest element."""
    pinned = {stage: e for e, stage in delays}
    rest = (
        n
        for n in itertools.chain(elements, itertools.count(max(elements) + 1))
        if n not in pinned.values()
    )
    return [pinned[s] if s in pinned else next(rest) for s in range(stages)]


@given(
    spec=explicit_sets(),
    coeffs=st.lists(complex_coefficient, min_size=1, max_size=6),
    target=st.lists(st.tuples(st.integers(0, 9), complex_coefficient), max_size=3),
    p=exponents(),
    k=st.integers(1, 40),
)
def test_expanded_residual_norm_matches_closed_form(spec, coeffs, target, p, k):
    elements, delays = spec
    q, exponent = p
    ce = CeSet.explicit(elements)
    if delays:
        ce = ce.with_delays(delays)
    v = FiniteVector.from_items(target)
    ours = expanded_residual_norm(ce, exponent, coeffs, v, k)

    depth = max(len(coeffs) - 1, max(v.support(), default=0)) + 2
    order = enumeration(elements, delays, depth)
    gamma = sum(F(1, 2**e) for e in elements) + F(1, 2 ** max(elements))
    tail = gamma - sum(F(1, 2**c) for c in order)

    iv.prec = 4 * k + 64
    a0 = coeffs[0]
    u0 = (1 - _iv(gamma)) ** (1 / _iv(q))
    re = _iv(v.get(0).re) - _iv(a0.re) * u0
    im = _iv(v.get(0).im) - _iv(a0.im) * u0
    power_sum = (re**2 + im**2) ** (_iv(q) / 2)
    for n in range(1, depth + 1):
        a_n = coeffs[n] if n < len(coeffs) else CRat(0)
        u = iv.mpf(2) ** (-order[n - 1] / _iv(q))
        re = _iv(v.get(n).re - a_n.re) - _iv(a0.re) * u
        im = _iv(v.get(n).im - a_n.im) - _iv(a0.im) * u
        power_sum += (re**2 + im**2) ** (_iv(q) / 2)
    power_sum += _iv(a0.abs2()) ** (_iv(q) / 2) * _iv(tail)
    _check(ours, power_sum ** (1 / _iv(q)), k)
