"""Differential check against an independent interval library.

``mpmath.iv`` computes the same powers, roots and norms with outward-
rounded binary floating point at a working precision well past the
requested one.  Every certified enclosure must intersect its interval,
on both exponent tracks, and meet the 2^-k width contract on point
inputs.  At the irrational p = sqrt(2), known only through its oracle,
each end of a power or root of an interval is checked on its own.
Endpoints are compared as exact rationals.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

pytest.importorskip("mpmath")
from mpmath import iv  # noqa: E402
from mpmath.libmp import to_rational  # noqa: E402

from lpcat import (  # noqa: E402
    ComputableReal,
    CRat,
    Enclosure,
    Exponent,
    FiniteVector,
    norm_p,
    pow2,
    pow_p,
    root_p,
    sqrt_real,
)
from test_rigor import between  # noqa: E402

F = Fraction

P_VALUES = (F(1), F(3, 2), F(2), F(3), F(7, 3))

positive = st.builds(F, st.integers(1, 10**6), st.integers(1, 10**6))
signed = st.builds(F, st.integers(-(10**6), 10**6), st.integers(1, 10**6))
precision = st.integers(0, 60)


@st.composite
def exponents(draw):
    """(p, Exponent) on the rational track or behind a constant oracle."""
    q = draw(st.sampled_from(P_VALUES))
    if draw(st.booleans()):
        return q, Exponent.from_rational(q)
    return q, Exponent.from_real(ComputableReal.constant(q))


def _iv(q: Fraction):
    return iv.mpf(q.numerator) / q.denominator


def _exact(x) -> Enclosure:
    """An mpmath interval as an Enclosure with its exact binary endpoints."""
    lo, hi = (F(*to_rational(end)) for end in x._mpi_)
    return between(lo, hi)


def _check(ours: Enclosure, reference, k: int) -> None:
    theirs = _exact(reference)
    assert ours.intersects(theirs), (ours, theirs)
    assert ours.width < pow2(-k)


@given(t=positive, p=exponents(), k=precision)
def test_pow_p_matches_mpmath(t, p, k):
    q, exponent = p
    iv.prec = 4 * k + 64
    _check(pow_p(Enclosure.point(t), exponent, k), _iv(t) ** _iv(q), k)


@given(t=positive, p=exponents(), k=precision)
def test_root_p_matches_mpmath(t, p, k):
    q, exponent = p
    iv.prec = 4 * k + 64
    # iv.root is not implemented; x ** (1/p) is outward rounded all the same.
    _check(root_p(Enclosure.point(t), exponent, k), _iv(t) ** (1 / _iv(q)), k)


@given(
    coords=st.lists(st.tuples(signed, signed), min_size=1, max_size=6),
    p=exponents(),
    k=precision,
)
def test_norm_p_matches_mpmath(coords, p, k):
    q, exponent = p
    v = FiniteVector.from_items((n, CRat(re, im)) for n, (re, im) in enumerate(coords))
    ours = norm_p(v, exponent, k)
    if v.is_zero:
        assert ours == Enclosure.point(0)
        return
    iv.prec = 4 * k + 64
    power_sum = iv.mpf(0)
    for _, c in v.coords:
        power_sum += _iv(c.abs2()) ** (_iv(q) / 2)
    _check(ours, power_sum ** (1 / _iv(q)), k)


SQRT2 = Exponent.from_real(sqrt_real(2))

# Points and intervals of positive rationals, below 1, above 1 and across it.
bases = positive.map(lambda t: (t, t)) | st.builds(
    lambda a, b: (min(a, b), max(a, b)), positive, positive
)


def _check_image(ours: Enclosure, lo, hi, k: int) -> None:
    """ours encloses the image [t_lo^e, t_hi^e] whose ends mpmath encloses
    in lo and hi, and is wider than that image by less than 2^-k."""
    lo, hi = _exact(lo), _exact(hi)
    assert ours.lo <= lo.hi and hi.lo <= ours.hi, (ours, lo, hi)
    assert ours.width < hi.hi - lo.lo + pow2(-k)


@given(x=bases, k=precision)
def test_sqrt2_pow_and_root_match_mpmath(x, k):
    """pow_p and root_p at p = sqrt(2) on the oracle track."""
    iv.prec = 4 * k + 64
    q = iv.sqrt(iv.mpf(2))
    t_lo, t_hi = x
    enc = between(t_lo, t_hi)
    _check_image(pow_p(enc, SQRT2, k), _iv(t_lo) ** q, _iv(t_hi) ** q, k)
    _check_image(root_p(enc, SQRT2, k), _iv(t_lo) ** (1 / q), _iv(t_hi) ** (1 / q), k)


@given(coords=st.lists(st.tuples(signed, signed), min_size=1, max_size=6), k=precision)
def test_sqrt2_norm_p_matches_mpmath(coords, k):
    """norm_p at p = sqrt(2) on the oracle track."""
    v = FiniteVector.from_items((n, CRat(re, im)) for n, (re, im) in enumerate(coords))
    ours = norm_p(v, SQRT2, k)
    if v.is_zero:
        assert ours == Enclosure.point(0)
        return
    iv.prec = 4 * k + 64
    q = iv.sqrt(iv.mpf(2))
    power_sum = iv.mpf(0)
    for _, c in v.coords:
        power_sum += _iv(c.abs2()) ** (q / 2)
    _check(ours, power_sum ** (1 / q), k)
