"""Exact rational enclosures and precision-indexed reals.

The whole library runs on three numeric currencies:

* exact rationals: ``fractions.Fraction`` for reals, and ``CRat`` for
  complex scalars, which stores the three integers (re, im, den) in
  lowest terms; its arithmetic, its printed forms and the readers of its
  fields (squared moduli, residuals, ball maps, the twisted quadratics)
  run on those integers, and ``.re`` and ``.im`` build a Fraction only
  when read,
* ``Enclosure``, a closed interval with exact rational endpoints that
  certifiably contains the exact value it stands for, and
* ``ComputableReal``, a query interface mapping a precision index k to a
  rational within 2^-k of the represented real.

Every operation is outward rounded: the result encloses the exact image of
every point of its inputs.  There is no floating point anywhere: each
rational entry takes an int or a Fraction only (``_ratio``).  The power
kernels take and return one integer form, (lo, hi, den) for [lo, hi] /
den, lo == hi for a point, which ``Enclosure`` stores as ``ints``.
``_pow_slack`` reduces each end once by gcd, so every route reads a value
and not how it was written, and no kernel builds a Fraction.  A power
t^(a/b) of a rational point n / d is routed in one place, ``_pow_route``,
which takes one of two routes, chosen by cost, and returns that form
either way, equal ends for an exact power.  The exact route is an exact
integer power followed by an integer floor-root: nested integer square
roots when b is a power of two, Newton iteration seeded from the root of
the top bits otherwise, and exact on perfect powers; a dyadic base 2^-c
reads its root from one table entry per residue of c a mod b.  It is taken
when its largest operand, bounded by ``_exact_pow_bits`` at scale 2^-K,
fits a fixed bit budget; the two ends then differ only by 2^-K on the one
floor-root s, (s, s + 1, 2^K), so ``_pow_sum``, the one power-sum loop
(behind ``lpspace.norm_of_abs2_terms`` and the twisted expansion route),
sums the numerators of each denominator as one integer, and those sums
over the lcm of the denominators, many of them by a balanced tree
(``_tree_sum``).  The same floor-root, under the same budget, takes powers
of integer ratios m / den straight to integer mantissas at scale 2^-K, a
power-of-two den by a shift: ``_pow_mantissas`` takes every term of a sum
in one call, so the twisted norm makes one kernel call per sum.  Otherwise
the dyadic route computes t^e = exp(e ln t) in fixed point: ln t by square
roots and an atanh series after splitting off the power of two, exp by a
Taylor series after argument reduction and halving, each value an integer
mantissa with a radius counted in ulps.  Its working precision is sized
from K and the size of t^e, ln t is shared by every exponent of one base,
and its ends lie on the grid 2^-(K+2), the denominator it returns.  Either
way every bound is certified by integer operations alone.
Exponents come in two tracks: an exact rational fast path, and a general
track where the exponent is only known through its own approximation
oracle; the general track brackets the exponent by dyadics at 2^-k
(``_round_dyadic``) and reads the corner gaps of t^e_lo and t^e_hi,
refining the bracket until they fall under the width asked for.
``_pow_slack`` answers in the integer form on both tracks.  It takes
every base of a sum in one call: on the oracle track one bracket
escalation serves them all, reading the bracket once per round and the
corner gaps of each distinct base once per round until it passes.

Precision bookkeeping convention: an operation asked for precision k
returns an enclosure that exceeds the width of the exact image of its
input set by less than 2^-k.  On point inputs that means output width
below 2^-k.  Each operation documents the guard bits it adds on top of k;
a bounded escalation loop, ``escalate``, backs the guard up when the
initial estimate is too optimistic: it yields the working precisions of
the retries, up to a cap, and raises OracleFailure when they run out.
Each round makes one attempt at the precision it yields; a round that
finds it needs a higher one ends, and the loop's step yields that next.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Callable, Iterator, Optional, Sequence, Union

RatLike = Union[int, Fraction]

_ZERO = Fraction(0)
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


def strict_int(value) -> int:
    """An integer field of a JSON input, taken as it is: bool, float, str
    and every other type raise ConfigError, where int() would truncate
    1.9 to 1 or parse "3"."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"expected an integer, got {value!r}")
    return value


def strict_keys(obj: dict, keys: tuple[str, ...], what: str) -> None:
    """Refuse a JSON object holding any key outside keys, naming the first
    such key as an unknown key of what."""
    for key in obj:
        if key not in keys:
            raise ConfigError(f"unknown {what} key {key!r}")


def _ratio(q: RatLike) -> tuple[int, int]:
    """q's numerator and denominator, the one check at every rational
    entry: an int or a Fraction, never a float or a string."""
    if not isinstance(q, (int, Fraction)):
        raise TypeError(f"expected an int or a Fraction, got {q!r}")
    return q.numerator, q.denominator


def _ratio_str(n: int, d: int) -> str:
    """n / d, d >= 1, printed as the Fraction it reduces to prints."""
    g = gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"


def frac_ceil(q: Fraction) -> int:
    return -((-q.numerator) // q.denominator)


def frac_floor(q: Fraction) -> int:
    return q.numerator // q.denominator


def _log2_floor(n: int, d: int) -> int:
    """floor(log2(n / d)) for integers n, d >= 1."""
    f = n.bit_length() - d.bit_length()
    # 2^(f-1) < n/d < 2^(f+1); one integer comparison settles n/d < 2^f.
    if (n < d << f) if f >= 0 else (n << -f < d):
        f -= 1
    return f


def ceil_log2(q: Fraction) -> int:
    """Least t with 2**t >= q, for q > 0."""
    if q <= 0:
        raise ValueError("ceil_log2 needs a positive argument")
    return -_log2_floor(q.denominator, q.numerator)


def iroot(n: int, b: int) -> int:
    """Floor of the b-th root of a nonnegative integer.

    A power-of-two index 2^j takes j nested integer square roots, exact
    because floor(sqrt(floor(y))) = floor(sqrt(y)).  Any other index takes
    Newton iteration: the iterate is monotonically decreasing once above
    the root, so the first non-decrease certifies the floor root.
    Started from 2^ceil(bits/b), Newton first shrinks by a factor of about
    1 - 1/b per step; so past h = bits // 2b > 16 it starts from
    (iroot(n >> bh, b) + 1) << h, an upper bound on the root, and takes
    that inner root the same way (Brent & Zimmermann, Modern Computer
    Arithmetic, ch. 1).
    """
    if n < 0:
        raise NegativeBase("iroot of a negative integer")
    if b < 1:
        raise ValueError("root index must be positive")
    if b == 1 or n in (0, 1):
        return n
    if b & (b - 1) == 0:
        while b > 1:
            n = isqrt(n)
            b >>= 1
        return n
    if n.bit_length() <= b:
        return 1
    # (operand, h) of every seeded level, the outermost first.
    levels = []
    while (h := n.bit_length() // (2 * b)) > 16:
        levels.append((n, h))
        n >>= b * h
    x = 1 << -((-n.bit_length()) // b)
    while True:
        y = ((b - 1) * x + n // x ** (b - 1)) // b
        if y < x:
            x = y
        elif levels:
            n, h = levels.pop()
            x = (x + 1) << h
        else:
            return x


def simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """Rational with the smallest denominator (then numerator) in [lo, hi].

    Stern-Brocot descent; used to pick a canonical representative out of
    a certified interval, as approx_e0 picks its q1.
    """
    if hi < lo:
        raise ValueError("empty interval")
    if lo <= 0 <= hi:
        return _ZERO
    if hi < 0:
        return -simplest_between(-hi, -lo)
    # While [lo, hi] holds no integer, strip the shared integer part and
    # invert; then fold the continued fraction back up.
    parts: list[int] = []
    while frac_ceil(lo) > hi:
        ia = frac_floor(lo)
        parts.append(ia)
        lo, hi = 1 / (hi - ia), 1 / (lo - ia)
    q = Fraction(frac_ceil(lo))
    for ia in reversed(parts):
        q = ia + 1 / q
    return q


# ---------------------------------------------------------------------------
# precision escalation
# ---------------------------------------------------------------------------


def escalate(start: int, step: Callable[[int], int], cap: int, failure: str) -> Iterator[int]:
    """The working precisions start, start + step(start), ... of a bounded
    escalation loop, at most cap of them, each raised by step of the one
    before; a caller returns or breaks once its certificate holds.  Run
    dry, it raises OracleFailure(failure).  Every cold retry loop in the
    library runs on it, Ziv-style: try at a precision, and on failure try
    again higher, up to a cap."""
    k = start
    for _ in range(cap):
        yield k
        k += step(k)
    raise OracleFailure(failure)


# ---------------------------------------------------------------------------
# Enclosure
# ---------------------------------------------------------------------------


class Enclosure:
    """Closed interval [lo, hi] / den, integers over one positive
    denominator: the certified-value carrier for every inexact quantity.
    ``ints`` holds the power kernels' form divided by gcd(lo, hi, den), so
    equality and hashing go by value.  Only the readers ``lo``, ``hi``,
    ``width`` and ``midpoint`` build a Fraction; printed ends read as one."""

    __slots__ = ("ints",)

    def __new__(cls, lo: int, hi: int, den: int) -> "Enclosure":
        g = gcd(lo, hi, den)
        if den < 1 or lo > hi:
            raise ValueError(f"malformed enclosure [{lo}, {hi}] / {den}")
        self = object.__new__(cls)
        object.__setattr__(self, "ints", (lo // g, hi // g, den // g))
        return self

    def __setattr__(self, _name, _value):
        raise AttributeError("Enclosure is immutable")

    def __reduce__(self):
        return Enclosure, self.ints

    def __eq__(self, other) -> bool:
        return isinstance(other, Enclosure) and self.ints == other.ints

    def __hash__(self) -> int:
        return hash(self.ints)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def point(q: RatLike) -> "Enclosure":
        n, d = _ratio(q)
        return Enclosure(n, n, d)

    @staticmethod
    def from_center(center: RatLike, radius: RatLike) -> "Enclosure":
        (c, d), (r, e) = _ratio(center), _ratio(radius)
        return Enclosure(c * e - r * d, c * e + r * d, d * e)

    # -- geometry ----------------------------------------------------------

    @property
    def lo(self) -> Fraction:
        return Fraction(self.ints[0], self.ints[2])

    @property
    def hi(self) -> Fraction:
        return Fraction(self.ints[1], self.ints[2])

    @property
    def width(self) -> Fraction:
        lo, hi, den = self.ints
        return Fraction(hi - lo, den)

    @property
    def midpoint(self) -> Fraction:
        lo, hi, den = self.ints
        return Fraction(lo + hi, 2 * den)

    def contains(self, value: RatLike) -> bool:
        (lo, hi, den), (n, d) = self.ints, _ratio(value)
        return lo * d <= n * den <= hi * d

    def intersects(self, other: "Enclosure") -> bool:
        (lo, hi, d), (olo, ohi, e) = self.ints, other.ints
        return lo * e <= ohi * d and olo * d <= hi * e

    def pad(self, slack: RatLike) -> "Enclosure":
        (lo, hi, den), (n, d) = self.ints, _ratio(slack)
        return Enclosure(lo * d - n * den, hi * d + n * den, den * d)

    def clamp_nonneg(self) -> "Enclosure":
        """Intersect with [0, inf); sound whenever the enclosed value is
        known to be nonnegative."""
        lo, hi, den = self.ints
        return self if lo >= 0 else Enclosure(0, max(hi, 0), den)

    # -- arithmetic (exact endpoints, outward by construction) -------------

    def __add__(self, other: "Enclosure") -> "Enclosure":
        (lo, hi, d), (olo, ohi, e) = self.ints, other.ints
        return Enclosure(lo * e + olo * d, hi * e + ohi * d, d * e)

    def __sub__(self, other: "Enclosure") -> "Enclosure":
        (lo, hi, d), (olo, ohi, e) = self.ints, other.ints
        return Enclosure(lo * e - ohi * d, hi * e - olo * d, d * e)

    def __neg__(self) -> "Enclosure":
        lo, hi, den = self.ints
        return Enclosure(-hi, -lo, den)

    def scale(self, q: RatLike) -> "Enclosure":
        (lo, hi, den), (n, d) = self.ints, _ratio(q)
        return Enclosure(*sorted((lo * n, hi * n)), den * d)

    def recip(self) -> "Enclosure":
        lo, hi, den = self.ints
        if lo <= 0 <= hi:
            raise ZeroDivisionError("reciprocal of an enclosure containing 0")
        # [den / hi, den / lo] over lo hi, which is positive: lo, hi share a sign.
        return Enclosure(den * lo, den * hi, lo * hi)

    def __repr__(self) -> str:
        return "[{}, {}]".format(*self.as_json())

    def as_json(self) -> list[str]:
        lo, hi, den = self.ints
        return [_ratio_str(lo, den), _ratio_str(hi, den)]


# ---------------------------------------------------------------------------
# complex rational scalars
# ---------------------------------------------------------------------------


class CRat:
    """Rational point (re + im i) / den of the complex plane, stored as
    the three integers ``ints`` = (re, im, den) with den >= 1 and
    gcd(re, im, den) = 1.  The form is canonical, so equality and hashing
    go by value.  In real-field mode the imaginary part is identically
    zero.

    ``CRat(re, im)`` takes two rationals and ``from_ints`` three integers;
    the first calls the second, which is the one constructor that builds
    a CRat.  Arithmetic and every hot reader work on the integers; ``re``
    and ``im`` build a Fraction when read, and the printed forms reduce
    each part once by gcd, so they read as a Fraction would print.
    """

    __slots__ = ("ints",)

    def __new__(cls, re: RatLike, im: RatLike = 0) -> "CRat":
        (x, dr), (y, di) = _ratio(re), _ratio(im)
        return cls.from_ints(x * di, y * dr, dr * di)

    @classmethod
    def from_ints(cls, re: int, im: int, den: int) -> "CRat":
        """(re + im i) / den for integers, den != 0, in the canonical form:
        one gcd, taken negative for a negative den, divides all three."""
        if not den:
            raise ZeroDivisionError("CRat with a zero denominator")
        g = gcd(re, im, den) if den > 0 else -gcd(re, im, den)
        self = object.__new__(cls)
        object.__setattr__(self, "ints", (re // g, im // g, den // g))
        return self

    def __setattr__(self, _name, _value):
        raise AttributeError("CRat is immutable")

    def __reduce__(self):
        return CRat.from_ints, self.ints

    def __eq__(self, other) -> bool:
        return isinstance(other, CRat) and self.ints == other.ints

    def __hash__(self) -> int:
        return hash(self.ints)

    @classmethod
    def of(cls, value) -> "CRat":
        return value if isinstance(value, CRat) else cls(value)

    @property
    def re(self) -> Fraction:
        re, _, den = self.ints
        return Fraction(re, den)

    @property
    def im(self) -> Fraction:
        _, im, den = self.ints
        return Fraction(im, den)

    def __add__(self, other: "CRat") -> "CRat":
        x, y, d = self.ints
        u, v, e = other.ints
        return CRat.from_ints(x * e + u * d, y * e + v * d, d * e)

    def __sub__(self, other: "CRat") -> "CRat":
        x, y, d = self.ints
        u, v, e = other.ints
        return CRat.from_ints(x * e - u * d, y * e - v * d, d * e)

    def __neg__(self) -> "CRat":
        x, y, d = self.ints
        return CRat.from_ints(-x, -y, d)

    def __mul__(self, other: "CRat") -> "CRat":
        x, y, d = self.ints
        u, v, e = other.ints
        return CRat.from_ints(x * u - y * v, x * v + y * u, d * e)

    def abs2(self) -> Fraction:
        """Exact squared modulus."""
        x, y, d = self.ints
        return Fraction(x * x + y * y, d * d)

    @property
    def is_zero(self) -> bool:
        return not self.ints[0] and not self.ints[1]

    @property
    def is_real(self) -> bool:
        return not self.ints[1]

    def abs_exact(self) -> Optional[Fraction]:
        """Exact modulus when it is rational (real, imaginary, or
        Pythagorean points), else None: (x^2 + y^2) / d^2 is the square of
        a rational only if x^2 + y^2 is a square."""
        x, y, d = self.ints
        m2 = x * x + y * y
        r = iroot(m2, 2)
        return Fraction(r, d) if r * r == m2 else None

    def abs_enclosure(self, k: int) -> Enclosure:
        exact = self.abs_exact()
        if exact is not None:
            return Enclosure.point(exact)
        m2 = self.abs2()
        return Enclosure(*_pow_route(m2.numerator, m2.denominator, _HALF, k + 2))

    def parts(self) -> tuple[int, int, int, int]:
        """(re numerator, re denominator, im numerator, im denominator),
        each part in lowest terms, as Fraction reads them."""
        x, y, d = self.ints
        g, h = gcd(x, d), gcd(y, d)
        return x // g, d // g, y // h, d // h

    def __repr__(self) -> str:
        re, im = self.as_json()
        return f"({re})" if im == "0" else f"({re} + {im}i)"

    def as_json(self) -> list[str]:
        x, y, d = self.ints
        return [_ratio_str(x, d), _ratio_str(y, d)]


CRAT_ZERO = CRat(_ZERO)
CRAT_ONE = CRat(1)


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


# Entries a MemoTable holds before it evicts its oldest.
_MEMO_BOUND = 1 << 13
_MISSING = object()


class MemoTable:
    """The one memo table type: every cache that outlives a call is one.

    ``get(key, compute)`` returns the value stored under key, or stores and
    returns ``compute()``.  A hit is one dict read, without the lock.  A
    miss computes under the table's reentrant lock, so racing threads
    compute each key once, and a computation may fill other keys of the
    same table.  Past ``_MEMO_BOUND`` entries the oldest stored is evicted.
    ``stats`` counts misses and evictions; hits go uncounted, so a hit
    stays one read.
    """

    def __init__(self):
        self._data: dict = {}
        self._lock = threading.RLock()
        self.stats = Counters(misses=0, evictions=0)

    def get(self, key, compute: Callable[[], object]):
        try:
            return self._data[key]
        except KeyError:
            pass
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                value = compute()
                self.stats.record("misses")
                while len(self._data) >= _MEMO_BOUND:
                    del self._data[next(iter(self._data))]
                    self.stats.record("evictions")
                self._data[key] = value
            return value

    def __contains__(self, key) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()


class PrecisionOracle:
    """An answer function ``fn(k)`` of a precision index k, memoised.

    Each k is computed once, in a MemoTable, and coerced by the subclass's
    ``_coerce``, so repeated queries are deterministic and cheap; ``stats``
    counts queries and the largest precision requested, which is how
    reductions downstream get their empirical cost accounting.  Hits are
    ``stats.count`` less the table's misses.
    """

    def __init__(self, fn: Callable[[int], object], label: str):
        self._fn = fn
        self._cache = MemoTable()
        self.label = label
        self.stats = Counters(count=0, max_k=-1)

    def _lookup(self, k: int):
        if k < 0:
            raise ValueError("precision index must be nonnegative")
        self.stats.record("count", max_k=k)
        return self._cache.get(k, lambda: self._coerce(self._fn(k)))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.label})"


class ComputableReal(PrecisionOracle):
    """A real known through an approximation algorithm: ``approx(k)``
    returns a rational q with |q - x| < 2^-k."""

    def __init__(self, fn: Callable[[int], Fraction], label: str = "real"):
        super().__init__(fn, label)

    @staticmethod
    def _coerce(value) -> Fraction:
        return Fraction(*_ratio(value))

    def approx(self, k: int) -> Fraction:
        return self._lookup(k)

    def enclosure(self, k: int) -> Enclosure:
        """Certified [approx(k) - 2^-k, approx(k) + 2^-k]."""
        return Enclosure.from_center(self.approx(k), pow2(-k))

    @classmethod
    def constant(cls, q) -> "ComputableReal":
        q = cls._coerce(q)
        return cls(lambda _k: q, f"const({q})")


# ---------------------------------------------------------------------------
# exponents: exact rational fast path plus general oracle track
# ---------------------------------------------------------------------------


def _real_bracket(real: ComputableReal) -> Callable[[int], tuple[Fraction, Fraction]]:
    """Dyadic brackets of an exponent oracle at precision k.  A bracket
    whose upper end lies below 1 certifies p < 1, which ``from_real``'s
    one check at precision 12 cannot rule out, so it raises; the p/2 and
    1/p views read these brackets and inherit the check."""

    def bracket(k: int) -> tuple[Fraction, Fraction]:
        q = real.approx(k)
        eps = pow2(-k)
        lo = _round_dyadic(q - eps, k, up=False)
        hi = _round_dyadic(q + eps, k, up=True)
        if hi < 1:
            raise OracleFailure(f"exponent oracle {real.label} is certified below 1")
        return (lo, hi)

    return bracket


class Exponent:
    """The norm exponent p >= 1: an exact rational when one is known,
    and otherwise a precision oracle read through dyadic brackets.

    The rational fast path makes the frequent cases (p = 1, 3/2, 2, 3)
    exact wherever the arithmetic permits; the oracle track keeps every
    algorithm meaningful for exponents that are merely computable.  The
    power machinery reads an exponent through ``fast`` and ``bracket``;
    ``half()`` and ``reciprocal()`` give p/2 and 1/p as Exponents of their
    own (values below 1 occur only there), each built once.
    """

    def __init__(self, fast: Optional[Fraction], bracket, label: str, _checked: bool = False):
        if not _checked:
            raise ConfigError("use Exponent.from_rational or Exponent.from_real")
        self.fast = fast
        self.label = label
        self._bracket = bracket
        self._brackets = MemoTable() if fast is None else None
        self._views = MemoTable()

    @classmethod
    def from_rational(cls, q: RatLike) -> "Exponent":
        q = Fraction(*_ratio(q))
        if q < 1:
            raise ConfigError(f"exponent {q} < 1 is out of range")
        return cls(q, None, f"p={q}", _checked=True)

    @classmethod
    def from_real(cls, real: ComputableReal) -> "Exponent":
        if not real.approx(12) > 1 - pow2(-12):
            raise ConfigError("exponent oracle is not certified >= 1")
        return cls(None, _real_bracket(real), real.label, _checked=True)

    # -- views used by the power machinery ---------------------------------

    def bracket(self, k: int) -> tuple[Fraction, Fraction]:
        """Rationals lo <= value <= hi from the oracle at precision
        at least max(k, 4); (fast, fast) on the rational track, which
        builds no ``_brackets`` table.  On the oracle track each
        precision's bracket is computed once, in ``_brackets``; a bracket
        that raises OracleFailure is not stored, so it raises again."""
        if self.fast is not None:
            return (self.fast, self.fast)
        k = max(k, 4)
        return self._brackets.get(k, lambda: self._bracket(k))

    def ub(self) -> Fraction:
        return self.bracket(4)[1]

    def half(self) -> "Exponent":
        """p/2, which takes a squared modulus |a|^2 to |a|^p."""
        return self._views.get("p/2", lambda: self._view("p/2", lambda lo, hi: (lo / 2, hi / 2)))

    def reciprocal(self) -> "Exponent":
        """1/p, the exponent of a p-th root."""
        return self._views.get("1/p", lambda: self._view("1/p", lambda lo, hi: (1 / hi, 1 / lo)))

    def _view(self, name: str, f: Callable[[Fraction, Fraction], tuple]) -> "Exponent":
        """The exponent whose bracket is f(lo, hi) of this exponent's
        memoised bracket taken one bit finer, and whose fast value is f
        at the point fast; ``half`` and ``reciprocal`` build each view
        once, in ``_views``."""
        fast = None if self.fast is None else f(self.fast, self.fast)[0]
        return Exponent(
            fast, lambda k: f(*self.bracket(k + 1)), f"{name}[{self.label}]", _checked=True
        )

    def __repr__(self) -> str:
        if self.fast is not None:
            return f"Exponent({self.fast})"
        return f"Exponent(~{self.label})"

    def as_json(self):
        if self.fast is not None:
            return str(self.fast)
        return {"oracle": self.label}


# ---------------------------------------------------------------------------
# directed powers and roots
# ---------------------------------------------------------------------------


def _round_dyadic(x: Fraction, P: int, up: bool) -> Fraction:
    scaled = x * (1 << P)
    n = scaled.numerator // scaled.denominator
    if up and n < scaled:
        n += 1
    return Fraction(n, 1 << P)


# The dyadic route computes t**e = exp(e ln t) in fixed point.  An integer
# M at scale 2^W with a radius R, counted in ulps of 2^-W, stands for every
# real x with |2^W x - M| <= R.  Each step carries its own R, bounded by
# integer arithmetic alone (midpoint-radius arithmetic, as in Arb), so the
# ends read off the last M and R are certified at any working precision;
# the precision only decides whether they are narrow enough.

# Dyadic-route values, keyed by integers only, so a lookup hashes no
# Fraction: the integer ends (lo, hi, 2^(K+2)) of (n/d)**(a/b) at 2^-K by
# (n, d, a, b, K), ln(u / 2^f) for u = num/den in [2^f, 2^(f+1)) at scale
# 2^W by (num, den, W), and ln 2 at scale 2^W by (W,).  Both ends of an
# exponent bracket, and each refinement of it, share the one logarithm of
# their base.
_DYADIC_POW_CACHE = MemoTable()
# The exact route's roots of dyadic bases: floor(2^(K - r/b)) by (b, r, K),
# which serves 2^(-c a/b) for every c with c a = r mod b (see _pow_route).
_DYADIC_ROOTS = MemoTable()
# Largest operand, in bits, the exact power route may build (see _pow_route).
# Rational-track powers stay far below it (about 11k bits at most in the
# tests and benchmark workloads); the Newton roots past it run to millions
# of bits.
_EXACT_POW_BUDGET = 1 << 16


def _shift_down(m: int, r: int, k: int) -> tuple[int, int]:
    """A value within r of m at scale 2^W, as a value within the returned
    radius of the returned mantissa at scale 2^(W-k), k >= 0: the floor
    of m / 2^k is low by less than 1, and r / 2^k is below (r >> k) + 1."""
    return m >> k, (r >> k) + 2


def _atanh_recip(n: int, W: int) -> tuple[int, int]:
    """(s, i) with 0 <= 2^W atanh(1/n) - s < i + 2, for an integer n >= 2,
    from the i nonzero terms of the series of n^-(2j+1) / (2j+1).

    Nested floor divisions by positive integers floor once, so each term
    is floor(2^W / (n^(2j+1) (2j+1))), low by less than 1.  The loop ends
    at the first j with 2^W < n^(2j+1), and the terms from there on sum to
    less than n^2 / (n^2 - 1) <= 4/3."""
    s = i = 0
    p = (1 << W) // n
    n2 = n * n
    while p:
        s += p // (2 * i + 1)
        p //= n2
        i += 1
    return s, i


def _ln2(W: int) -> tuple[int, int]:
    """(M, R) with |2^W ln 2 - M| <= R <= 3, from
    ln 2 = 18 atanh(1/26) - 2 atanh(1/4801) + 8 atanh(1/8749).

    The sum is taken at a scale Wq, a multiple of 64 that passes W by more
    bits than the sum's radius has, so nearby precisions share one cached
    value."""
    Wq = (W + W.bit_length() + 71) >> 6 << 6

    def compute() -> tuple[int, int]:
        (a, i), (b, j), (c, k) = (_atanh_recip(n, Wq) for n in (26, 4801, 8749))
        return 18 * a - 2 * b + 8 * c, 18 * (i + 2) + 2 * (j + 2) + 8 * (k + 2)

    return _shift_down(*_DYADIC_POW_CACHE.get((Wq,), compute), Wq - W)


def _ln_fixed(num: int, den: int, f: int, W: int) -> tuple[int, int]:
    """(M, R) with |2^W ln v - M| <= R for v = num / (den 2^f) in [1, 2).

    ln v = 2^(r+1) atanh(x) with x = (w - 1) / (w + 1) and w = v^(2^-r).
    The r >= 2 square roots leave w below 2^(1/4), so x < 0.087 and each
    series term gains more than 2r + 4 bits.  It all runs at Wl = W + r + 14
    bits, which covers the factor 2^(r+1) and the term count.  The base
    enters once, in the division that rounds v to Wl bits, so the cost is
    set by W, not by the base's bit length.

    Radii, in ulps of 2^-Wl: 2^Wl v lies in [w, w + 1) for the first w,
    and a floored square root takes [w, w + D) into [w', w' + 1 + D/2)
    when w >= 2^Wl, so 2^Wl v^(2^-r) stays within [w, w + 2).  x rises
    with w at slope at most 1/2, so the floored x, lifted by one, is
    within 1.  Then x^2 is within 1.18,
    each power of x within 1.2 and each term within 2.2, and the terms past
    the last sum to at most 1.21: the series is within 2.2 i + 1.21 <=
    (5i + 3) / 2 for i terms."""
    r = isqrt(W >> 2) + 2
    Wl = W + r + 14
    one = 1 << Wl
    sh = Wl - f
    w = (num << sh) // den if sh >= 0 else num // (den << -sh)
    for _ in range(r):
        w = isqrt(w << Wl)
    x = ((w - one) << Wl) // (w + one) + 1
    x2 = (x * x) >> Wl
    s = i = 0
    p = x
    while p:
        s += p // (2 * i + 1)
        p = (p * x2) >> Wl
        i += 1
    return _shift_down(s << (r + 1), (5 * i + 3) << r, r + 14)


def _exp_fixed(z: int, rz: int, W: int, ln2: tuple[int, int]) -> tuple[int, int, int]:
    """(n, M, R) with |2^(W-n) exp(x) - M| <= R for every real x with
    |2^W x - z| <= rz, given ln 2 at 2^-W as a mantissa and radius:
    exp(x) = 2^n exp(h) with h = x - n ln 2.

    n is floor(z / ln 2) read from the mantissas, so h lies within
    rz + |n| R(ln 2) ulps of [0, ln 2).  h is halved s times, its Taylor
    series summed until a term rounds to 0, and the sum squared s times.
    Radii, in ulps of 2^-W: the halved h is a point within rh of the true
    one; each Taylor term at that point is within 1.54 and the tail past
    the last term within 2.37, so the sum is within 2i for an i-step loop,
    and the true argument moves it by at most 1.5 rh more.  Squaring a
    value within R of M >= 0 lands within (2M + R) R / 2^W + 2 of the
    floored square."""
    l2, r2 = ln2
    n = z // l2
    s = isqrt(W >> 1) + 1
    h, rh = _shift_down(z - n * l2, rz + abs(n) * r2, s)
    one = 1 << W
    total = term = one
    i = 1
    while term:
        term = (term * h >> W) // i
        total += term
        i += 1
    rad = 2 * (i + rh)
    for _ in range(s):
        rad = ((2 * total + rad) * rad >> W) + 2
        total = total * total >> W
    return n, total, rad


def _pow_dyadic_enclosure(num: int, den: int, e: Fraction, tb: int) -> tuple[int, int, int]:
    """Certified enclosure (lo, hi, 2^(tb+2)) of t**e, lo / 2^(tb+2) <=
    t**e <= hi / 2^(tb+2) with hi - lo <= 3, for t = num / den in lowest
    terms, t > 0, t != 1, and rational e > 0 of arbitrary height: its ends
    on the grid 2^-(tb+2), as integers over that one denominator.

    t**e = exp(+-e ln u) for u = max(t, 1/t), negative for t < 1, and
    ln u = f ln 2 + ln v with 2^f <= u < 2^(f+1).  ln v comes from
    _ln_fixed once per base and precision: it is cached, so both ends of an
    exponent bracket and every refinement of it share it.  ln 2 is read
    once, at the precision f ln 2 needs, and serves the range reduction of
    _exp_fixed too.  e ln u is one integer product and division.

    The precision W is sized from tb and from mag, an upper bound on
    log2 t**e: e (f + 1) rounded up for t > 1, -e f rounded up for t < 1.
    It is never sized from the base's bit length.  W passes tb + 2 + mag by
    guard bits for the radius, so the ends, rounded outward to the grid,
    are at most 3 units apart; a round that misses doubles the guard, on
    escalate.  _exp_fixed returns the power as 2^n times a mantissa at
    2^-W, n = floor(z / ln 2) for z about ln t**e; mag bounds log2 t**e
    from above, so n <= mag, and the shift to the grid, W - G - n = mag +
    guard - n, is a right shift by at least guard >= 8 bits.  A power
    certified below 2^-(tb+2) is (0, 1, 2^(tb+2)), with no series.
    """
    invert = num < den
    if invert:
        num, den = den, num
    a, b = e.numerator, e.denominator
    f = _log2_floor(num, den)
    G = tb + 2
    if invert:
        if a * f >= b * G:  # t**e <= 2^-(e f) <= 2^-G
            return 0, 1, 1 << G
        mag = -(a * f // b)
    else:
        mag = -(-a * (f + 1) // b)
    # ln u is taken c bits finer than y = e ln u, with e < 2^(c-2), so e
    # times its radius shrinks to a quarter; f ln 2 is taken d bits finer
    # than ln u, with f < 2^(d-2).  Rounding its precision up to a multiple
    # of 32 lets the exponents of one bracket, which differ in their last
    # bits, share the cached ln v.
    c = (a // b).bit_length() + 2
    d = f.bit_length() + 2
    bits = G + abs(mag)
    start = isqrt(bits >> 1) + 2 * bits.bit_length() + 8
    for guard in escalate(start, lambda g: g, 8, "dyadic power failed to converge"):
        W = G + mag + guard
        Wl = (W + c + 31) >> 5 << 5
        v, rv = _DYADIC_POW_CACHE.get((num, den, Wl), lambda: _ln_fixed(num, den, f, Wl))
        l2, r2 = _ln2(Wl + d)
        m, rl = _shift_down(f * l2, f * r2, d)
        y, ry = _shift_down(a * (m + v), a * (rl + rv), Wl - W)
        y, ry = y // b, ry // b + 2
        n, M, R = _exp_fixed(-y if invert else y, ry, W, _shift_down(l2, r2, Wl + d - W))
        lo, hi = M - R, M + R
        sh = W - G - n
        lo, hi = lo >> sh, -(-hi >> sh)
        if hi - lo <= 3:
            return max(lo, 0), hi, 1 << G


def _exact_pow_bits(num_bits: int, den_bits: int, a: int, b: int, K: int) -> int:
    """Upper bound on the bit length of the largest operand the exact route
    builds for (n/d)**(a/b) at scale 2^-K, n and d of num_bits and den_bits
    bits and a/b in lowest terms: the larger of n^a * 2^K and d^a for
    b = 1, else the bound n^a * 2^(bK) * d^(a(b-1)) on the root operand
    n^a * 2^(bK), which also covers d^a.  The (b-1) term is kept because this bound decides which
    powers take the exact route, and with it the digits that reports
    print."""
    if b == 1:
        return max(a * num_bits + K, a * den_bits)
    return a * num_bits + (b - 1) * a * den_bits + b * K


def _floor_root(num: int, den: int, b: int) -> tuple[int, bool]:
    """(r, exact): r = floor((num / den)^(1/b)) for integers num >= 0 and
    den >= 1, and whether r is the root itself.

    The one integer floor-root of the exact route.  For integer r,
    r^b <= num / den holds iff r^b <= num // den, so one division comes
    first and iroot sees only the quotient, or nothing when b = 1.
    """
    q, rem = divmod(num, den)
    r = iroot(q, b) if b > 1 else q
    return r, not rem and r ** b == q


def _pow_route(n: int, d: int, e: Fraction, K: int) -> tuple[int, int, int]:
    """t**e for t = n / d >= 0 in lowest terms and rational e > 0 at 2^-K,
    the one router of a point power, in the one form every reader takes:
    integers (lo, hi, den) with lo / den <= t**e <= hi / den and
    (hi - lo) / den <= 2^-K, lo == hi exactly when the power is rational
    on the exact route.  The exact route gives a rational power over its
    own denominator and a floor-root s as (s, s + 1, 2^K); the dyadic
    route gives its grid ends over 2^(K+2).  ``_pow_slack`` takes and
    returns the same form for an interval.

    The route is chosen by cost, not by the height of e = a/b.  The exact
    route forms t**a and takes one integer floor-root of it, and returns
    perfect powers exactly.  It is taken whenever its largest operand
    (bounded by _exact_pow_bits) fits in _EXACT_POW_BUDGET bits.  Past the
    budget, typically a base of thousands of bits under a bracket exponent
    such as 128/193, Newton's method would run on millions of bits and
    converge only linearly; the dyadic route is taken instead: exp(e ln t)
    in fixed point, with a certified radius, at a precision sized from K
    and log2 t**e, its ends on the grid 2^-(K+2).
    """
    if n == d or not n or e == 1:
        return n, n, d
    a, b = e.numerator, e.denominator
    scale = K if b > 1 else 0  # an integer power is built unshifted
    if _exact_pow_bits(n.bit_length(), d.bit_length(), a, b, scale) > _EXACT_POW_BUDGET:
        return _DYADIC_POW_CACHE.get((n, d, a, b, K), lambda: _pow_dyadic_enclosure(n, d, e, K))
    if n == 1 and not d & (d - 1):
        # t = 2^-c: with (q, r) = divmod(c a, b), the power is 2^-q when
        # r = 0, and otherwise floor(2^(K - r/b)) >> q, one root per (b, r, K).
        q, r = divmod((d.bit_length() - 1) * a, b)
        if not r:
            return 1, 1, 1 << q
        s = _DYADIC_ROOTS.get((b, r, K), lambda: iroot(1 << (b * K - r), b) if b * K >= r else 0)
        return s >> q, (s >> q) + 1, 1 << K
    n, d = n ** a, d ** a
    if b == 1:
        return n, n, d
    rn = iroot(n, b)
    if rn ** b == n:
        rd = iroot(d, b)
        if rd ** b == d:
            return rn, rn, rd
    s = _floor_root(n << (b * K), d, b)[0]
    return s, s + 1, 1 << K


def _exp_gap(
    base: tuple[int, int, int, int], e_lo: Fraction, e_hi: Fraction, K: int
) -> Optional[tuple[int, int, int]]:
    """The corner box (lo, hi, den) of [n_lo / d_lo, n_hi / d_hi], base =
    (n_lo, d_lo, n_hi, d_hi) in lowest terms, under the exponent bracket
    [e_lo, e_hi], or None when a corner gap reads 2^(1-K) or more:
    t**e_lo and t**e_hi by _pow_route at 2^-K, for each end t.

    The gap read at t, |hi(t**e_hi) - lo(t**e_lo)|, is one integer
    comparison of routed ends, each within 2^-K of its power; g =
    |t**e_hi - t**e_lo| is the true corner gap.  For t > 1 the difference
    lies in [g, g + 2^(1-K)], an upper bound on g.  For t < 1 it lies in
    [-g, -g + 2^(1-K)], so its absolute value is not an upper bound on g;
    a gap below 2^(1-K) still gives g < 2^(2-K).  Ends 0 and 1 read 0.

    The box is made of those same powers: t**e is increasing in t and
    monotone in e, rising for t > 1 and falling for t < 1, so the lower end
    at the lower end and the upper end at the upper end, each at the
    exponent its side of 1 picks, enclose {t**e : t in the base, e in
    [e_lo, e_hi]}.
    """

    def corners(n: int, d: int) -> Optional[tuple]:
        low, high = _pow_route(n, d, e_lo, K), _pow_route(n, d, e_hi, K)
        gap = abs(high[1] * low[2] - low[0] * high[2]) << (K - 1)
        return (low, high) if gap < low[2] * high[2] else None

    n_lo, d_lo, n_hi, d_hi = base
    at_lo = corners(n_lo, d_lo)
    at_hi = at_lo if n_hi == n_lo and d_hi == d_lo else corners(n_hi, d_hi)
    if at_lo is None or at_hi is None:
        return None
    lo, _, d = at_lo[n_lo < d_lo]
    _, hi, den = at_hi[n_hi > d_hi]
    return (lo, hi, den) if d == den else (lo * den, hi * d, d * den)


def _gap_terms(n: int, d: int) -> tuple[bool, int, int]:
    """(t < 1, f, l) for a power base t = n / d > 0, t != 1, and u =
    max(t, 1/t): f = floor(log2 u) and 2^l <= ln u, all from integer bit
    lengths.  They are what _gap_must_fail reads of t, taken once per
    distinct base of a _pow_slack call."""
    below = n < d
    n, d = (d, n) if below else (n, d)
    f = _log2_floor(n, d)
    # ln u >= f ln 2 > f / 2 once u >= 2, and ln u >= (u - 1) / u below 2.
    ln_bits = f.bit_length() - 2 if f else (n - d).bit_length() - 1 - n.bit_length()
    return below, f, ln_bits


def _gap_bits(e_lo: Fraction, e_hi: Fraction, K: int) -> int:
    """floor(log2(e_hi - e_lo)) + K + 1 for a bracket e_lo < e_hi: what
    _gap_must_fail reads of a round's bracket width at K, taken once per
    round for every base of the round; the one Fraction built is the
    width."""
    width = e_hi - e_lo
    return _log2_floor(width.numerator, width.denominator) + K + 1


def _gap_must_fail(terms: list[tuple[bool, int, int]], bits: int, e_hi: Fraction) -> bool:
    """Whether the bracket [e_lo, e_hi], bits = _gap_bits(e_lo, e_hi, K),
    certifies a true corner gap g >= 2^-(K+1) at some endpoint whose
    _gap_terms are in terms; then _exp_gap at K + 3 reads at least
    2^-(K+2), and the base cannot pass _pow_slack's round at K.

    By the mean value theorem g = t**xi ln(u) (e_hi - e_lo) for some xi in
    the bracket.  t**xi >= 1 for t > 1, as e_lo > 0 in every bracket, and
    t**xi >= u**-e_hi >= 2^-ceil(e_hi (f + 1)) for t < 1.  Each factor is
    bounded below by a power of two from integer bit lengths, so the test
    builds no Fraction.
    """
    for below, f, ln_bits in terms:
        if below:
            ln_bits += e_hi.numerator * (f + 1) // -e_hi.denominator
        if bits + ln_bits >= 0:
            return True
    return False


def _pow_slack(
    bases: Sequence[tuple[int, int, int]], exp: Exponent, K: int
) -> list[tuple[int, int, int]]:
    """For each base (lo, hi, den) of bases, integers 0 <= lo <= hi and
    den >= 1, lo == hi for a point, an enclosure of {t**exp : t in
    [lo / den, hi / den]} exceeding the exact image width by less than
    2^-K, on both tracks in that same form.  A caller that takes many
    powers under one exponent, a power sum, passes every base in one call.
    Each end is reduced to lowest terms once, by gcd, on entry, so equal
    values give equal boxes: every route choice reads the value.

    Rational track: direct directed rounding at K + 2 (guard g = 2), one
    base at a time.  t**e is increasing in t, so the lower end of the lower
    end's power and the upper end of the upper end's bound the image, put
    over one denominator; a point takes both from one _pow_route result.
    Oracle track: one escalation for every base.  The exponent bracket is
    refined from precision max(6, K // 2) in steps of max(8, K // 2), read
    once per round, until each base's corner gaps, which _exp_gap reads at
    K + 3, fall under 2^-(K+2); that leaves each true corner gap below
    2^-(K+1).  A base passes in the first round that certifies it and
    leaves the round loop; the loop ends when no base is left.  Equal
    bases, keyed by their reduced ends, share one box.  A round whose
    bracket _gap_must_fail certifies a true gap of at least 2^-(K+1) at a
    base cannot pass it, so its corner powers are never computed.  The
    schedule does not depend on the base, so every base passes in the
    round, and gets the box, of the unskipped loop on that base alone.  The
    passing round's box is built from the corner powers its gaps were read
    from.
    """
    reduced = []  # (n_lo, d_lo, n_hi, d_hi)
    for lo, hi, den in bases:
        if lo < 0:
            raise NegativeBase(f"negative base enclosure [{lo}, {hi}] / {den}")
        g = gcd(lo, den)
        h = g if hi == lo else gcd(hi, den)
        reduced.append((lo // g, den // g, hi // h, den // h))
    e = exp.fast
    if e is not None:
        out = []
        for n_lo, d_lo, n_hi, d_hi in reduced:
            lo, hi, den = _pow_route(n_lo, d_lo, e, K + 2)
            if n_hi != n_lo or d_hi != d_lo:
                _, hi, d = _pow_route(n_hi, d_hi, e, K + 2)
                if d != den:
                    lo, hi, den = lo * d, hi * den, den * d
            out.append((lo, hi, den))
        return out
    # Each distinct base once, as (slot, base, its _gap_terms).
    slots: dict[tuple[int, int, int, int], int] = {}
    index = []
    pending = []
    for base in reduced:
        slot = slots.get(base)
        if slot is None:
            slot = slots[base] = len(pending)
            terms = [_gap_terms(n, d) for n, d in {base[:2], base[2:]} if n and n != d]
            pending.append((slot, base, terms))
        index.append(slot)
    if not pending:
        return []
    boxes: list = [None] * len(pending)
    step = max(8, K // 2)
    for kp in escalate(max(6, K // 2), lambda _: step, 64, "exponent bracket failed to converge"):
        e_lo, e_hi = exp.bracket(kp)
        bits = _gap_bits(e_lo, e_hi, K)
        waiting = []
        for slot, base, terms in pending:
            if not _gap_must_fail(terms, bits, e_hi):
                box = _exp_gap(base, e_lo, e_hi, K + 3)
                if box is not None:
                    boxes[slot] = box
                    continue
            waiting.append((slot, base, terms))
        if not waiting:
            return [boxes[slot] for slot in index]
        pending = waiting


def _pow_sum(
    bases: Sequence[tuple[int, int, int]], exp: Exponent, K: int
) -> tuple[int, int, int]:
    """The sum, over bases (lo, hi, den) in _pow_slack's form, of the
    enclosure _pow_slack gives of {t**exp : t in [lo / den, hi / den]} at
    K, added exactly, in that form too: the one power-sum loop.

    One _pow_slack call takes every base, on both exponent tracks, so an
    oracle-track sum runs one bracket escalation; the exponent 1 takes the
    bases as their own powers and skips it.  Each end sums integer
    numerators per denominator, so the floor-roots all add up over the one
    2^(K+2), and the per-denominator sums add up over the lcm of the
    denominators, 1 for no base.  Up to 32 denominators scale every sum up
    to the lcm at once; more add up in ``_tree_sum``.  Each of its pair
    steps costs more interpreter work than one scale-up, but m
    denominators form products of about log m times the lcm's bits in all,
    where the scale-up forms m times them.  Under CPython 3.11 the two
    took the same time at 32 distinct denominators of 34 bits (squares
    below 10^10); the tree was slower below that, up to 1.7 times with
    smaller denominators, and faster from 24 with 40-bit ones.
    """
    lows: dict[int, int] = {}
    highs: dict[int, int] = {}
    for n_lo, n_hi, den in bases if exp.fast == 1 else _pow_slack(bases, exp, K):
        lows[den] = lows.get(den, 0) + n_lo
        highs[den] = highs.get(den, 0) + n_hi
    if len(lows) > 32:
        den, lo, hi = _tree_sum([(d, n, highs[d]) for d, n in lows.items()])
        return lo, hi, den
    den = lcm(*lows)
    lo = sum(n * (den // d) for d, n in lows.items())
    return lo, lo if highs == lows else sum(n * (den // d) for d, n in highs.items()), den


def _tree_sum(terms: list[tuple[int, int, int]]) -> tuple[int, int, int]:
    """(L, N_lo, N_hi) for terms (d, n_lo, n_hi): L the lcm of the d and
    N / L the sum of the n / d on each end, the N that scaling every n up
    to L gives.  lcm is associative, so a balanced tree of pairwise sums,
    each over the lcm of its two denominators by one gcd, ends at it; a
    pair of points, n_lo == n_hi on both sides, forms its products once.
    """
    while len(terms) > 1:
        pairs = []
        for (d, a_lo, a_hi), (e, b_lo, b_hi) in zip(terms[::2], terms[1::2]):
            g = gcd(d, e)
            u, v = e // g, d // g
            lo = a_lo * u + b_lo * v
            pairs.append((d * u, lo, lo if a_hi == a_lo and b_hi == b_lo else a_hi * u + b_hi * v))
        if len(terms) & 1:
            pairs.append(terms[-1])
        terms = pairs
    return terms[0]


def _pow_mantissas(
    items: Sequence[tuple[int, int, int]], exp: Exponent, K: int
) -> list[tuple[int, int]]:
    """For each (lo, hi, den) of items, in _pow_slack's base form,
    mantissas (l, h) at scale 2^-(K+2) with l <= 2^(K+2) t**exp <= h for
    every t in [lo/den, hi/den]; like _pow_slack, they exceed the exact
    image width by less than 2^-K.  A caller that sums many powers under
    one exponent, the twisted norm, passes all of them in one call.

    Rational track, exponent a/b: each end is the exact route's floor-root
    of (m/den)^a 2^(b(K+2)), read from one integer numerator and
    denominator; the upper end steps up one unit unless the root is exact.
    A power-of-two den divides by a shift and a mask.  An item whose
    operand would pass the budget takes _pow_slack.  The oracle track makes
    one _pow_slack call for the whole sum, which keys equal items to one
    box.  _pow_slack's ends lie within 2^-(K+1) of the image, and each is
    rounded outward to the grid.
    """
    T = K + 2
    e = exp.fast
    if e is None:
        return [((l << T) // d, -((-h << T) // d)) for l, h, d in _pow_slack(items, exp, K)]
    a, b = e.numerator, e.denominator
    bT = b * T
    out = []
    for lo, hi, den in items:
        if _exact_pow_bits(hi.bit_length(), den.bit_length(), a, b, T) > _EXACT_POW_BUDGET:
            ((l, h, d),) = _pow_slack([(lo, hi, den)], exp, K)
            out.append(((l << T) // d, -((-h << T) // d)))
            continue
        if den & (den - 1):
            den_a = den ** a
            h, exact = _floor_root(hi ** a << bT, den_a, b)
            l = h if lo == hi else _floor_root(lo ** a << bT, den_a, b)[0]
        else:
            # den^a is 2^(bT + s): the quotient of m^a 2^bT by it is m^a
            # shifted by s, exact when no bit is shifted out.
            s = (den.bit_length() - 1) * a - bT
            num = hi ** a
            q = num >> s if s >= 0 else num << -s
            h = iroot(q, b) if b > 1 else q
            exact = (s <= 0 or not num & ((1 << s) - 1)) and h ** b == q
            if lo == hi:
                l = h
            else:
                q = lo ** a >> s if s >= 0 else lo ** a << -s
                l = iroot(q, b) if b > 1 else q
        out.append((l, h if exact else h + 1))
    return out


def pow_p(x: Enclosure, p: Exponent, k: int) -> Enclosure:
    """Certified enclosure of {t**p : t in x} for a nonnegative enclosure.

    The result exceeds the exact image width by less than 2^-k; point
    inputs therefore come back with width below 2^-k, exactly when the
    power is rational.  For inputs strictly inside (0, 1) extra guard bits
    g = ceil((ub(p) - 1) * log2(1/x.lo)) keep the slack small relative to
    the output's magnitude, so that a subsequent root at the same k
    recovers the base without amplifying the rounding.
    """
    lo, hi, den = x.ints
    extra = 0
    if hi < den and lo > 0:
        over = p.ub() - 1
        if over > 0:
            extra = frac_ceil(over * -_log2_floor(lo, den))
    return Enclosure(*_pow_slack([x.ints], p, k + extra)[0])


def root_p(x: Enclosure, p: Exponent, k: int) -> Enclosure:
    """Certified enclosure of {t**(1/p) : t in x} for a nonnegative
    enclosure, exceeding the exact image width by less than 2^-k.

    A root is the power x^(1/p), each end or corner routed by _pow_route:
    an integer floor-root after exact integer powering, or past the operand
    budget the dyadic route's fixed-point exp((1/p) ln t).  Either way both
    endpoints carry integer-arithmetic certificates; on the exact route
    rational roots (perfect powers) are detected and returned exactly.
    """
    return Enclosure(*_pow_slack([x.ints], p.reciprocal(), k)[0])


def sqrt_real(q: RatLike, label: str = "") -> ComputableReal:
    """The square root of a nonnegative rational as a ComputableReal."""
    q = Fraction(*_ratio(q))
    if q < 0:
        raise NegativeBase("sqrt of a negative rational")

    def fn(k: int) -> Fraction:
        lo, hi, den = _pow_route(q.numerator, q.denominator, _HALF, k + 2)
        return Fraction(lo + hi, 2 * den)

    return ComputableReal(fn, label or f"sqrt({q})")


# ---------------------------------------------------------------------------
# certified norm extraction from power sums
# ---------------------------------------------------------------------------


def norm_from_power_sum(
    sum_at: Callable[[int], tuple[int, int, int]], p: Exponent, k: int
) -> Enclosure:
    """Certified S^(1/p) where ``sum_at(K)`` encloses the exact power sum
    S >= 0 as the power kernels' integer form (lo, hi, den), over any
    denominator: every test below is an integer comparison on the value,
    and the root's one _pow_slack call reduces each end by gcd.  Any
    enclosure is sound: every return is certified from [lo, hi] / den ⊇ S
    alone, and one whose root is not narrower than 2^-k is not returned.
    The slack should fall below 2^-K for large enough K; a wider sum, such
    as the twisted E_j kernel's on a near-cancelling term, is the loop's
    to retry at a higher K.

    The loop runs on ``escalate``, and each round reads one sum, at the K
    it yields.  Guards: the root's derivative on [S_lo, ..] is at most
    S_lo^(1/p - 1) / p, so for 0 < S_lo < 1 the root needs a sum taken at
    K >= need = k + 4 + ceil(L * (ub(p) - 1) / ub(p)), L = ceil(log2(1/S_lo)).
    A round below need ends there, and the next round runs at need: the
    guard jump.  When the sum cannot be bounded away from 0 but is
    certified below 2^-(k+1)p the norm is returned as [0, 2^-(k+1)].  Any
    other round steps by max(8, k // 2), or by the distance of its K from
    k + 4 once that is larger, so K doubles past k + 4 and a sum far below
    2^-K, whose lower end stays 0 until K nears log2(1/S), is reached in
    logarithmically many rounds.  At most 64 sums are read.

    A zero-width sum is S itself, so its root is taken at once, at k + 2,
    with no guard jump.  A jumped sum would be the same point S unless the
    larger K pushed a term past the exact route's operand budget, so the
    answer is the one the guard jump would give.
    """
    a, b = p.ub().as_integer_ratio()
    step = max(8, k // 2)
    # The K the last guard asked for; escalate yields it next if K was below.
    need = 0
    failure = "norm extraction failed to converge"
    for K in escalate(k + 4, lambda K: need - K if need > K else max(step, K - k - 4), 64, failure):
        lo, hi, den = sum_at(K)
        if hi <= 0:
            return Enclosure.point(0)
        lo = max(lo, 0)
        if lo == 0:
            kt = -(-(k + 2) * a // b) + 4
            _, e_hi = p.bracket(kt)
            t_lo, _, t_den = _pow_route(1, 2 << k, e_hi, kt)
            if hi * t_den <= t_lo * den:
                return Enclosure(0, 1, 2 << k)
            continue
        if lo < den and lo != hi:
            need = k + 4 + -(_log2_floor(lo, den) * (a - b) // a)
            if K < need:
                continue
        r_lo, r_hi, r_den = _pow_slack([(lo, hi, den)], p.reciprocal(), k + 2)[0]
        if lo == hi or (r_hi - r_lo) << k < r_den:
            return Enclosure(r_lo, r_hi, r_den)
