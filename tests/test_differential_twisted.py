"""Differential check of the telescoping twisted norm against ``mpmath.iv``.

For the odd numbers gamma = 2/3 and c_n = 2n + 1, so the p-th power of the
norm of a_0 f_0 + ... + a_m f_m has a closed form:

    |a_0|^p / 3 + sum_{n<m} |a_0 2^(-(2n+1)/p) + a_{n+1}|^p
                + |a_0|^p (4/3) 2^-(2m+1).

``mpmath.iv`` evaluates it with outward-rounded binary floating point at a
working precision well past the requested one; the certified enclosure
must intersect that interval, on both exponent tracks, and be narrower
than 2^-k.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

pytest.importorskip("mpmath")
from mpmath import iv  # noqa: E402

from lpcat import CeSet, ComputableReal, CRat, Enclosure, Exponent, TwistedGenSet  # noqa: E402
from test_differential import _check, _iv  # noqa: E402

F = Fraction

coefficient = st.builds(F, st.integers(-(10**4), 10**4), st.integers(1, 10**4))


@st.composite
def exponents(draw):
    """(p, Exponent) on the rational track or behind a constant oracle."""
    q = draw(st.sampled_from((F(1), F(3, 2), F(2), F(7, 3))))
    if draw(st.booleans()):
        return q, Exponent.from_rational(q)
    return q, Exponent.from_real(ComputableReal.constant(q))


@given(
    coords=st.lists(st.tuples(coefficient, coefficient), min_size=1, max_size=9),
    p=exponents(),
    k=st.integers(0, 60),
)
def test_twisted_norm_matches_closed_form(coords, p, k):
    q, exponent = p
    cs = [CRat(re, im) for re, im in coords]
    ours = TwistedGenSet(CeSet.odds(), exponent).norm_enclosure(cs, k)
    if all(c.is_zero for c in cs):
        assert ours == Enclosure.point(0)
        return
    iv.prec = 4 * k + 64
    m = len(cs) - 1
    a0 = cs[0]
    a0_pow = _iv(a0.abs2()) ** (_iv(q) / 2)
    power_sum = a0_pow / 3 + a0_pow * 4 / 3 / iv.mpf(2) ** (2 * m + 1)
    for n in range(m):
        u = iv.mpf(2) ** (-(2 * n + 1) / _iv(q))
        re = _iv(a0.re) * u + _iv(cs[n + 1].re)
        im = _iv(a0.im) * u + _iv(cs[n + 1].im)
        power_sum += (re * re + im * im) ** (_iv(q) / 2)
    _check(ours, power_sum ** (1 / _iv(q)), k)
