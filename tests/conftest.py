from fractions import Fraction

import pytest
from hypothesis import settings

from lpcat import CeSet, CRat, Enclosure, Exponent

settings.register_profile("suite", max_examples=60, derandomize=True, deadline=None)
settings.load_profile("suite")


@pytest.fixture
def p1():
    return Exponent.from_rational(1)


@pytest.fixture
def p2():
    return Exponent.from_rational(2)


@pytest.fixture
def p32():
    return Exponent.from_rational(Fraction(3, 2))


@pytest.fixture
def p3():
    return Exponent.from_rational(3)


@pytest.fixture
def odds():
    return CeSet.odds()


@pytest.fixture
def primes():
    return CeSet.primes()


@pytest.fixture
def crats_built(monkeypatch):
    """A list that gains one entry per CRat constructed from here on,
    counted at ``CRat.from_ints``, the one constructor every CRat goes
    through."""
    built = []
    from_ints = CRat.from_ints.__func__

    def counted(cls, re, im, den):
        built.append(1)
        return from_ints(cls, re, im, den)

    monkeypatch.setattr(CRat, "from_ints", classmethod(counted))
    return built


@pytest.fixture
def enclosures_built(monkeypatch):
    """A list that gains one entry per Enclosure constructed from here on,
    counted at ``Enclosure.__new__``, the one constructor every Enclosure
    goes through."""
    built = []
    new = Enclosure.__new__

    def counted(cls, lo, hi, den):
        built.append(1)
        return new(cls, lo, hi, den)

    monkeypatch.setattr(Enclosure, "__new__", counted)
    return built
