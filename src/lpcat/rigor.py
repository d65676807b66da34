"""Exact rational enclosures and precision-indexed reals.

The whole library runs on three numeric currencies:

* exact rationals (``fractions.Fraction``),
* ``Enclosure``, a closed interval with exact rational endpoints that
  certifiably contains the exact value it stands for, and
* ``ComputableReal``, a query interface mapping a precision index k to a
  rational within 2^-k of the represented real.

Every operation is outward rounded: the result encloses the exact image of
every point of its inputs.  There is no floating point anywhere.  Powers
t^(a/b) reduce to an exact integer power followed by an integer Newton
floor-root, so every bound is certified by integer comparisons alone.
Exponents come in two tracks: an exact rational fast path, and a general
track where the exponent is only known through its own approximation
oracle; the general track brackets the exponent by simple rationals and
compares t^(a/b) against targets via t^a versus target^b.

Precision bookkeeping convention: an operation asked for precision k
returns an enclosure that exceeds the width of the exact image of its
input set by less than 2^-k.  On point inputs that means output width
below 2^-k.  Each operation documents the guard bits it adds on top of k;
a bounded escalation loop backs the guard up when the initial estimate is
too optimistic.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Callable, NamedTuple, Optional, Union

RatLike = Union[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)
_HALF = Fraction(1, 2)


class NegativeBase(ValueError):
    """Powers and roots are only defined on nonnegative enclosures."""


class OracleFailure(RuntimeError):
    """An approximation oracle refused a query or ran out of fuel."""


class ConfigError(ValueError):
    """Invalid construction parameters (bad exponent, bad set file, ...)."""


class DegenerateScaleWarning(UserWarning):
    """A scale oracle is certified at or below 1, contradicting 0 < gamma."""


# ---------------------------------------------------------------------------
# small integer / rational helpers
# ---------------------------------------------------------------------------


def pow2(k: int) -> Fraction:
    """2**k as an exact rational, for either sign of k."""
    if k >= 0:
        return Fraction(1 << k)
    return Fraction(1, 1 << (-k))


def frac_ceil(q: Fraction) -> int:
    return -((-q.numerator) // q.denominator)


def frac_floor(q: Fraction) -> int:
    return q.numerator // q.denominator


def ceil_log2(q: Fraction) -> int:
    """Least t with 2**t >= q, for q > 0."""
    if q <= 0:
        raise ValueError("ceil_log2 needs a positive argument")
    t = q.numerator.bit_length() - q.denominator.bit_length() + 1
    while pow2(t - 1) >= q:
        t -= 1
    return t


def iroot(n: int, b: int) -> int:
    """Floor of the b-th root of a nonnegative integer, by Newton iteration.

    The iterate is monotonically decreasing once above the root, so the
    first non-decrease certifies the floor root.
    """
    if n < 0:
        raise NegativeBase("iroot of a negative integer")
    if b < 1:
        raise ValueError("root index must be positive")
    if b == 1 or n in (0, 1):
        return n
    if b == 2:
        return isqrt(n)
    if n.bit_length() <= b:
        return 1
    x = 1 << -((-n.bit_length()) // b)
    while True:
        y = ((b - 1) * x + n // x ** (b - 1)) // b
        if y >= x:
            return x
        x = y


def simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """Rational with the smallest denominator (then numerator) in [lo, hi].

    Stern-Brocot descent; used to pick canonical representatives out of
    certified intervals and to bracket oracle-track exponents by simple
    rationals.
    """
    if hi < lo:
        raise ValueError("empty interval")
    if lo <= 0 <= hi:
        return _ZERO
    if hi < 0:
        return -simplest_between(-hi, -lo)

    def rec(a: Fraction, b: Fraction) -> Fraction:
        ia = a.numerator // a.denominator
        if a == ia:
            return Fraction(ia)
        if ia + 1 <= b:
            return Fraction(ia + 1)
        return ia + 1 / rec(1 / (b - ia), 1 / (a - ia))

    return rec(lo, hi)


# ---------------------------------------------------------------------------
# Enclosure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Enclosure:
    """Closed interval with exact rational endpoints; the certified-value
    carrier for every inexact quantity in the library."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if not isinstance(self.lo, Fraction):
            object.__setattr__(self, "lo", Fraction(self.lo))
        if not isinstance(self.hi, Fraction):
            object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"inverted enclosure [{self.lo}, {self.hi}]")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def point(q: RatLike) -> "Enclosure":
        q = Fraction(q)
        return Enclosure(q, q)

    @staticmethod
    def from_center(center: RatLike, radius: RatLike) -> "Enclosure":
        center, radius = Fraction(center), Fraction(radius)
        return Enclosure(center - radius, center + radius)

    # -- geometry ----------------------------------------------------------

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, value: RatLike) -> bool:
        return self.lo <= value <= self.hi

    def encloses(self, other: "Enclosure") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def intersects(self, other: "Enclosure") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def pad(self, slack: RatLike) -> "Enclosure":
        slack = Fraction(slack)
        return Enclosure(self.lo - slack, self.hi + slack)

    def hull(self, other: "Enclosure") -> "Enclosure":
        return Enclosure(min(self.lo, other.lo), max(self.hi, other.hi))

    def clamp_nonneg(self) -> "Enclosure":
        """Intersect with [0, inf); sound whenever the enclosed value is
        known to be nonnegative."""
        return Enclosure(max(self.lo, _ZERO), max(self.hi, _ZERO))

    # -- arithmetic (exact endpoints, outward by construction) -------------

    def __add__(self, other: "Enclosure") -> "Enclosure":
        return Enclosure(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Enclosure") -> "Enclosure":
        return Enclosure(self.lo - other.hi, self.hi - other.lo)

    def __neg__(self) -> "Enclosure":
        return Enclosure(-self.hi, -self.lo)

    def __mul__(self, other: "Enclosure") -> "Enclosure":
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Enclosure(min(products), max(products))

    def __abs__(self) -> "Enclosure":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return Enclosure(_ZERO, max(-self.lo, self.hi))

    def scale(self, q: RatLike) -> "Enclosure":
        q = Fraction(q)
        if q >= 0:
            return Enclosure(self.lo * q, self.hi * q)
        return Enclosure(self.hi * q, self.lo * q)

    def recip(self) -> "Enclosure":
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError("reciprocal of an enclosure containing 0")
        return Enclosure(1 / self.hi, 1 / self.lo)

    def __repr__(self) -> str:
        return f"[{self.lo}, {self.hi}]"

    def as_json(self) -> list[str]:
        return [str(self.lo), str(self.hi)]


# ---------------------------------------------------------------------------
# complex rational scalars
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CRat:
    """Rational point of the complex plane.  In real-field mode the
    imaginary part is identically zero."""

    re: Fraction
    im: Fraction = _ZERO

    def __post_init__(self):
        for name in ("re", "im"):
            v = getattr(self, name)
            if isinstance(v, float):
                raise TypeError("floats are not accepted; use Fraction")
            if not isinstance(v, Fraction):
                object.__setattr__(self, name, Fraction(v))

    @classmethod
    def of(cls, value) -> "CRat":
        if isinstance(value, CRat):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(Fraction(value))
        if isinstance(value, tuple) and len(value) == 2:
            return cls(Fraction(value[0]), Fraction(value[1]))
        raise TypeError(f"cannot interpret {value!r} as a rational point")

    def __add__(self, other: "CRat") -> "CRat":
        return CRat(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "CRat") -> "CRat":
        return CRat(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "CRat":
        return CRat(-self.re, -self.im)

    def __mul__(self, other: "CRat") -> "CRat":
        return CRat(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conj(self) -> "CRat":
        return CRat(self.re, -self.im)

    def abs2(self) -> Fraction:
        """Exact squared modulus."""
        return self.re * self.re + self.im * self.im

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def abs_exact(self) -> Optional[Fraction]:
        """Exact modulus when it is rational (real, imaginary, or
        Pythagorean points), else None."""
        if self.im == 0:
            return abs(self.re)
        if self.re == 0:
            return abs(self.im)
        m2 = self.abs2()
        rn = iroot(m2.numerator, 2)
        if rn * rn == m2.numerator:
            rd = iroot(m2.denominator, 2)
            if rd * rd == m2.denominator:
                return Fraction(rn, rd)
        return None

    def abs_enclosure(self, k: int) -> Enclosure:
        exact = self.abs_exact()
        if exact is not None:
            return Enclosure.point(exact)
        m2 = Enclosure.point(self.abs2())
        return _pow_box(m2, _HALF, _HALF, k + 2)

    def __repr__(self) -> str:
        if self.im == 0:
            return f"({self.re})"
        return f"({self.re} + {self.im}i)"

    def as_json(self) -> list[str]:
        return [str(self.re), str(self.im)]


CRAT_ZERO = CRat(_ZERO)
CRAT_ONE = CRat(_ONE)


# ---------------------------------------------------------------------------
# precision-indexed oracles
# ---------------------------------------------------------------------------


class Counters:
    """Lock-guarded event counters.  Each owner names its fields and their
    starting values; ``as_dict`` reports exactly those fields."""

    def __init__(self, **fields: int):
        self._lock = threading.Lock()
        self._fields = tuple(fields)
        vars(self).update(fields)

    def record(self, add: str = "", **highs: int) -> None:
        """Add one to the field named ``add``, and raise each field named
        in ``highs`` to at least its value."""
        with self._lock:
            if add:
                setattr(self, add, getattr(self, add) + 1)
            for name, value in highs.items():
                if value > getattr(self, name):
                    setattr(self, name, value)

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}


class ComputableReal:
    """A real known through an approximation algorithm: ``approx(k)``
    returns a rational q with |q - x| < 2^-k.

    Results are memoised per precision so repeated queries are
    deterministic and cheap; ``stats`` counts queries and the largest
    precision requested, which is how reductions downstream get their
    empirical cost accounting.
    """

    def __init__(self, fn: Callable[[int], Fraction], label: str = "real"):
        self._fn = fn
        self._cache: dict[int, Fraction] = {}
        self._lock = threading.RLock()
        self.label = label
        self.stats = Counters(count=0, max_k=-1)

    @staticmethod
    def _coerce(value) -> Fraction:
        if not isinstance(value, (int, Fraction)):
            raise TypeError("approximation oracles must return rationals")
        return Fraction(value)

    def approx(self, k: int) -> Fraction:
        if k < 0:
            raise ValueError("precision index must be nonnegative")
        with self._lock:
            self.stats.record("count", max_k=k)
            got = self._cache.get(k)
            if got is None:
                got = self._coerce(self._fn(k))
                self._cache[k] = got
            return got

    def enclosure(self, k: int) -> Enclosure:
        """Certified [approx(k) - 2^-k, approx(k) + 2^-k]."""
        return Enclosure.from_center(self.approx(k), pow2(-k))

    @classmethod
    def constant(cls, q, label: str = "") -> "ComputableReal":
        q = cls._coerce(q)
        return cls(lambda _k: q, label or f"const({q})")

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.label})"


class ComputablePoint(ComputableReal):
    """Complex analogue of ComputableReal: approx(k) returns a rational
    point within 2^-k of the represented complex scalar."""

    _coerce = staticmethod(CRat.of)


# ---------------------------------------------------------------------------
# exponents: exact rational fast path plus general oracle track
# ---------------------------------------------------------------------------


class _Exp(NamedTuple):
    """Internal positive exponent handle: either an exact rational or a
    bracket provider yielding simple rationals around the value."""

    fast: Optional[Fraction]
    bracket_fn: Optional[Callable[[int], tuple[Fraction, Fraction]]]

    def bracket(self, k: int) -> tuple[Fraction, Fraction]:
        if self.fast is not None:
            return (self.fast, self.fast)
        return self.bracket_fn(max(k, 4))

    def ub(self) -> Fraction:
        return self.bracket(4)[1]


def _real_bracket(real: ComputableReal) -> Callable[[int], tuple[Fraction, Fraction]]:
    def bracket(k: int) -> tuple[Fraction, Fraction]:
        q = real.approx(k)
        eps = pow2(-k)
        lo = _round_dyadic(q - eps, k, up=False)
        hi = _round_dyadic(q + eps, k, up=True)
        return (lo, hi)

    return bracket


class Exponent:
    """The norm exponent p >= 1, carried on two tracks at once: an exact
    rational when one is known, and always a precision oracle.

    The rational fast path makes the frequent cases (p = 1, 3/2, 2, 3)
    exact wherever the arithmetic permits; the oracle track keeps every
    algorithm meaningful for exponents that are merely computable.
    """

    def __init__(self, real: ComputableReal, fast: Optional[Fraction], _checked: bool = False):
        self.real = real
        self.fast = fast
        if not _checked:
            raise ConfigError("use Exponent.from_rational or Exponent.from_real")

    @classmethod
    def from_rational(cls, q: RatLike) -> "Exponent":
        q = Fraction(q)
        if q < 1:
            raise ConfigError(f"exponent {q} < 1 is out of range")
        return cls(ComputableReal.constant(q, f"p={q}"), q, _checked=True)

    @classmethod
    def from_real(cls, real: ComputableReal, check_k: int = 12) -> "Exponent":
        if not real.approx(check_k) > 1 - pow2(-check_k):
            raise ConfigError("exponent oracle is not certified >= 1")
        return cls(real, None, _checked=True)

    # -- views used by the power machinery ---------------------------------

    def _exp(self) -> _Exp:
        if self.fast is not None:
            return _Exp(self.fast, None)
        return _Exp(None, _real_bracket(self.real))

    def half(self) -> _Exp:
        if self.fast is not None:
            return _Exp(self.fast / 2, None)
        inner = _real_bracket(self.real)

        def bracket(k: int) -> tuple[Fraction, Fraction]:
            lo, hi = inner(k + 1)
            return (lo / 2, hi / 2)

        return _Exp(None, bracket)

    def reciprocal(self) -> _Exp:
        if self.fast is not None:
            return _Exp(1 / self.fast, None)
        inner = _real_bracket(self.real)

        def bracket(k: int) -> tuple[Fraction, Fraction]:
            lo, hi = inner(k + 1)
            return (1 / hi, 1 / lo)

        return _Exp(None, bracket)

    def ub(self) -> Fraction:
        return self._exp().ub()

    @property
    def is_one(self) -> bool:
        return self.fast == 1

    def __repr__(self) -> str:
        if self.fast is not None:
            return f"Exponent({self.fast})"
        return f"Exponent(~{self.real.label})"

    def as_json(self):
        if self.fast is not None:
            return str(self.fast)
        return {"oracle": self.real.label}


# ---------------------------------------------------------------------------
# directed powers and roots
# ---------------------------------------------------------------------------


def _root_dir(y: Fraction, b: int, K: int, up: bool) -> Fraction:
    """Dyadic bound on y^(1/b) at scale 2^-K, outward in the requested
    direction; exact when the root is rational."""
    if y < 0:
        raise NegativeBase("root of a negative rational")
    if y == 0 or y == 1 or b == 1:
        return y
    n, d = y.numerator, y.denominator
    rn = iroot(n, b)
    if rn ** b == n:
        rd = iroot(d, b)
        if rd ** b == d:
            return Fraction(rn, rd)
    scaled = iroot(n * (1 << (b * K)) * d ** (b - 1), b) // d
    if up:
        return Fraction(scaled + 1, 1 << K)
    return Fraction(scaled, 1 << K)


def _round_dyadic(x: Fraction, P: int, up: bool) -> Fraction:
    scaled = x * (1 << P)
    n = scaled.numerator // scaled.denominator
    if up and n < scaled:
        n += 1
    return Fraction(n, 1 << P)


def _sqrt_dyadic(x: Fraction, P: int, up: bool) -> Fraction:
    """Directed square root at P dyadic bits, for x >= 1."""
    n = (x.numerator << (2 * P)) // x.denominator
    r = isqrt(n)
    if up and r * r != n:
        r += 1
    return Fraction(r, 1 << P)


def _ipow_dyadic(base: Fraction, m: int, P: int, up: bool) -> Fraction:
    """Directed base**m by binary exponentiation with per-step rounding to
    P dyadic bits; sound for base >= 0 (down) resp. base >= true (up)."""
    result = _ONE
    b = base
    while m:
        if m & 1:
            result = _round_dyadic(result * b, P, up)
        m >>= 1
        if m:
            b = _round_dyadic(b * b, P, up)
    return result


_DYADIC_POW_CACHE: dict = {}
_EXACT_POW_LIMIT = 256


def _pow_dyadic_enclosure(t: Fraction, e: Fraction, tb: int) -> Enclosure:
    """Certified enclosure of t**e of width below 2^-tb, for t > 0, t != 1
    and rational e > 0 of arbitrary height.

    Writes e as an interval of dyadics m/2^j, takes j iterated directed
    square roots of t, then powers back up with directed binary
    exponentiation at P working bits.  Cost is O(j + log m) rounded
    multiplies, independent of e's denominator.
    """
    key = (t, e, tb)
    got = _DYADIC_POW_CACHE.get(key)
    if got is not None:
        return got
    invert = t < 1
    tt = 1 / t if invert else t
    mag = tt.numerator.bit_length() - tt.denominator.bit_length() + 1
    j = tb + 8
    for _ in range(64):
        P = tb + j + 2 * mag + frac_ceil(e * mag) + 16
        m_lo = frac_floor(e * (1 << j))
        m_hi = frac_ceil(e * (1 << j))
        r_lo, r_hi = tt, tt
        for _ in range(j):
            r_lo = _sqrt_dyadic(r_lo, P, up=False)
            r_hi = _sqrt_dyadic(r_hi, P, up=True)
        lo = _ipow_dyadic(r_lo, m_lo, P, up=False)
        hi = _ipow_dyadic(r_hi, m_hi, P, up=True)
        enc = Enclosure(1 / hi, 1 / lo) if invert else Enclosure(lo, hi)
        if enc.width < pow2(-tb):
            if len(_DYADIC_POW_CACHE) > 4096:
                _DYADIC_POW_CACHE.clear()
            _DYADIC_POW_CACHE[key] = enc
            return enc
        j += max(16, tb // 2)
    raise OracleFailure("dyadic power failed to converge")


def _pow_dir(t: Fraction, e: Fraction, K: int, up: bool) -> Fraction:
    """Directed bound on t**e for t >= 0 and rational e > 0.

    Low-height exponents go through exact integer powering plus an integer
    Newton floor-root (exact on perfect powers); high-height exponents,
    as produced by oracle-track brackets, take the dyadic route.
    """
    if t < 0:
        raise NegativeBase("power of a negative rational")
    if t == 0:
        return _ZERO
    if t == 1 or e == 1:
        return t if e == 1 else _ONE
    a, b = e.numerator, e.denominator
    if a <= _EXACT_POW_LIMIT and b <= _EXACT_POW_LIMIT:
        y = t ** a
        if b == 1:
            return y
        return _root_dir(y, b, K, up)
    enc = _pow_dyadic_enclosure(t, e, K)
    return enc.hi if up else enc.lo


def _pow_box(x: Enclosure, e_lo: Fraction, e_hi: Fraction, K: int) -> Enclosure:
    """Outward enclosure of {t**e : t in x, e in [e_lo, e_hi]} for x >= 0.

    t**e is increasing in t, and monotone in e with direction decided by
    the position of t relative to 1, so corner evaluation is sound.
    """
    lo_e = e_hi if x.lo < 1 else e_lo
    hi_e = e_hi if x.hi > 1 else e_lo
    return Enclosure(_pow_dir(x.lo, lo_e, K, up=False), _pow_dir(x.hi, hi_e, K, up=True))


def _exp_gap(x: Enclosure, e_lo: Fraction, e_hi: Fraction, K: int) -> Fraction:
    """Upper bound on the width contributed by exponent uncertainty, which
    peaks at the t-endpoint farthest from 1."""
    gap = _ZERO
    for t in (x.lo, x.hi):
        if t in (0, 1):
            continue
        a = _pow_dir(t, e_lo, K, up=False)
        b = _pow_dir(t, e_hi, K, up=True)
        gap = max(gap, abs(b - a))
    return gap


def _pow_slack(x: Enclosure, exp: _Exp, K: int) -> Enclosure:
    """Enclosure of {t**exp : t in x} exceeding the exact image width by
    less than 2^-K.

    Rational track: direct directed rounding at K + 2 (guard g = 2).
    Oracle track: exponent bracket refined until the corner gap falls
    under 2^-(K+2), with rounding at K + 3.
    """
    if x.lo < 0:
        raise NegativeBase(f"negative base enclosure {x}")
    if exp.fast is not None:
        if exp.fast == 1:
            return x
        return _pow_box(x, exp.fast, exp.fast, K + 2)
    kp = max(6, K // 2)
    threshold = pow2(-(K + 2))
    for _ in range(64):
        e_lo, e_hi = exp.bracket(kp)
        if _exp_gap(x, e_lo, e_hi, K + 3) < threshold:
            return _pow_box(x, e_lo, e_hi, K + 3)
        kp += max(8, K // 2)
    raise OracleFailure("exponent bracket failed to converge")


def pow_p(x: Enclosure, p: Exponent, k: int) -> Enclosure:
    """Certified enclosure of {t**p : t in x} for a nonnegative enclosure.

    The result exceeds the exact image width by less than 2^-k; point
    inputs therefore come back with width below 2^-k, exactly when the
    power is rational.  For inputs strictly inside (0, 1) extra guard bits
    g = ceil((ub(p) - 1) * log2(1/x.lo)) keep the slack small relative to
    the output's magnitude, so that a subsequent root at the same k
    recovers the base without amplifying the rounding.
    """
    if x.lo < 0:
        raise NegativeBase(f"pow_p on negative enclosure {x}")
    if p.is_one:
        return x
    extra = 0
    if x.hi < 1 and x.lo > 0:
        over = p.ub() - 1
        if over > 0:
            extra = frac_ceil(over * ceil_log2(1 / x.lo))
    return _pow_slack(x, p._exp(), k + extra)


def root_p(x: Enclosure, p: Exponent, k: int) -> Enclosure:
    """Certified enclosure of {t**(1/p) : t in x} for a nonnegative
    enclosure, exceeding the exact image width by less than 2^-k.

    Roots reduce to integer Newton floor-roots after exact integer
    powering, so both endpoints carry integer-arithmetic certificates;
    rational roots (perfect powers) are detected and returned exactly.
    """
    if x.lo < 0:
        raise NegativeBase(f"root_p on negative enclosure {x}")
    if p.is_one:
        return x
    return _pow_slack(x, p.reciprocal(), k)


def sqrt_real(q: RatLike, label: str = "") -> ComputableReal:
    """The square root of a nonnegative rational as a ComputableReal."""
    q = Fraction(q)
    if q < 0:
        raise NegativeBase("sqrt of a negative rational")
    point = Enclosure.point(q)

    def fn(k: int) -> Fraction:
        return _pow_box(point, _HALF, _HALF, k + 2).midpoint

    return ComputableReal(fn, label or f"sqrt({q})")


# ---------------------------------------------------------------------------
# certified norm extraction from power sums
# ---------------------------------------------------------------------------


def norm_from_power_sum(
    sum_at: Callable[[int], Enclosure], p: Exponent, k: int
) -> Enclosure:
    """Certified S^(1/p) where ``sum_at(K)`` encloses the exact power sum
    S >= 0 with slack below 2^-K.

    Guards: the root's derivative on [S_lo, ..] is at most
    S_lo^(1/p - 1) / p, so for S_lo < 1 the sum is recomputed with
    g = ceil(L * (ub(p) - 1) / ub(p)) + 2 extra bits, L = ceil(log2(1/S_lo)).
    When the sum cannot be bounded away from 0 but is certified below
    2^-(k+1)p the norm is returned as [0, 2^-(k+1)].  A bounded escalation
    loop covers the remaining cases.
    """
    recip = p.reciprocal()
    p_ub = p.ub()
    K = k + 4
    for _ in range(64):
        s = sum_at(K).clamp_nonneg()
        if s.hi == 0:
            return Enclosure.point(0)
        if s.lo == 0:
            t0 = pow2(-(k + 1))
            kt = frac_ceil(Fraction(k + 2) * p_ub) + 4
            _, e_hi = p._exp().bracket(kt)
            threshold = _pow_dir(t0, e_hi, kt, up=False)
            if s.hi <= threshold:
                return Enclosure(_ZERO, t0)
            K += max(8, k // 2)
            continue
        guard = 0
        if s.lo < 1:
            bits = ceil_log2(1 / s.lo)
            guard = frac_ceil(Fraction(bits) * (p_ub - 1) / p_ub) + 2
        if guard and K < k + 2 + guard:
            K = k + 2 + guard
            s = sum_at(K).clamp_nonneg()
            if s.lo <= 0:
                K += max(8, k // 2)
                continue
        out = _pow_slack(s, recip, k + 2)
        if out.width < pow2(-k):
            return out
        K += max(8, k // 2)
    raise OracleFailure("norm extraction failed to converge")
