"""Vector layer: exact sparse arithmetic, certified norms, norm axioms."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from lpcat import (
    CeSet,
    CRat,
    Enclosure,
    Exponent,
    FiniteVector,
    basis,
    ceil_log2,
    norm_p,
    pow2,
    rigor,
    sqrt_real,
    TwistedGenSet,
)
from lpcat import lpspace
from lpcat.lpspace import norm_of_abs2_terms
from test_rigor import as_ends, between, ref_pow_slack

F = Fraction

scalars = st.fractions(min_value=-6, max_value=6, max_denominator=12)


def abs2_terms(v: FiniteVector) -> list[Fraction]:
    """The squared-modulus terms norm_p sums, one exact term per coordinate."""
    return [c.abs2() for _, c in v.coords]


def abs2_power_sum(terms: list[Fraction], p: Exponent, k: int) -> Enclosure:
    """The power sum norm_of_abs2_terms takes the root of, read at k: the
    sum_at it hands to norm_from_power_sum, with that patched out, on the
    terms as points (m, m, den), as an Enclosure; no terms give point 0."""
    real = lpspace.norm_from_power_sum
    lpspace.norm_from_power_sum = lambda sum_at, p, k: sum_at
    try:
        sum_at = norm_of_abs2_terms([as_ends(m2, m2) for m2 in terms], p, k)
    finally:
        lpspace.norm_from_power_sum = real
    return Enclosure(*sum_at(k)) if terms else sum_at


def random_vector(rng: random.Random, width: int = 5) -> FiniteVector:
    items = []
    for i in range(rng.randint(0, width)):
        re = F(rng.randint(-6, 6), rng.randint(1, 6))
        im = F(rng.randint(-6, 6), rng.randint(1, 6))
        items.append((i, CRat(re, im)))
    return FiniteVector.from_items(items)


class TestVectorAlgebra:
    def test_basis(self):
        assert basis(0).coords == ((0, CRat.of(1)),)
        assert basis(3).support() == frozenset({3})

    def test_add_cancels_to_zero(self):
        assert (basis(0) + basis(0).scale(-1)).is_zero

    def test_scale(self):
        assert basis(1).scale(2).get(1) == CRat.of(2)

    def test_add_disjoint(self):
        v = basis(0) + basis(1)
        assert v.support() == frozenset({0, 1})

    def test_zero_pruning(self):
        v = FiniteVector.from_items([(0, F(1)), (0, F(-1)), (2, F(5))])
        assert v.support() == frozenset({2})

    def test_json_round_trip(self):
        v = FiniteVector.from_items([(1, CRat(F(1, 3), F(-2, 7))), (4, F(5))])
        rows = v.to_quintuples()
        assert rows == [[1, 1, 3, -2, 7], [4, 5, 1, 0, 1]]
        assert FiniteVector.from_quintuples(rows) == v

    @given(st.lists(st.tuples(st.integers(0, 6), scalars), max_size=6),
           st.lists(st.tuples(st.integers(0, 6), scalars), max_size=6))
    def test_add_commutes(self, items_a, items_b):
        a, b = FiniteVector.from_items(items_a), FiniteVector.from_items(items_b)
        assert a + b == b + a


class TestNorms:
    def test_unit_vectors(self, p1, p32, p2, p3):
        for p in (p1, p32, p2, p3):
            assert norm_p(basis(5), p, 30) == Enclosure.point(1)

    def test_three_four_five(self, p2):
        v = FiniteVector.from_items([(0, F(3)), (4, F(4))])
        assert norm_p(v, p2, 20) == Enclosure.point(5)

    def test_exact_l1_sum(self, p1):
        v = FiniteVector.from_items([(0, F(1, 3)), (1, F(1, 2)), (2, F(1, 8))])
        assert norm_p(v, p1, 10) == Enclosure.point(F(23, 24))

    def test_pythagorean_complex_modulus(self, p1):
        v = FiniteVector.from_items([(0, CRat(F(3, 5), F(4, 5)))])
        assert norm_p(v, p1, 10) == Enclosure.point(1)

    def test_zero_vector(self, p32):
        assert norm_p(FiniteVector.zero(), p32, 30) == Enclosure.point(0)

    def test_width_contract(self, p32):
        rng = random.Random(5)
        for _ in range(25):
            v = random_vector(rng)
            for k in (8, 20, 33):
                enc = norm_p(v, p32, k)
                assert enc.width < pow2(-k)
                assert enc.lo >= 0


class TestNormAxioms:
    """Norm axioms checked through certified enclosures at width 2^-40."""

    K = 40

    @pytest.fixture(params=["1", "3/2", "2", "3"])
    def p(self, request):
        return Exponent.from_rational(F(request.param))

    def test_positivity(self, p):
        rng = random.Random(11)
        for _ in range(20):
            v = random_vector(rng)
            enc = norm_p(v, p, self.K)
            if v.is_zero:
                assert enc == Enclosure.point(0)
            else:
                assert enc.hi > 0

    def test_homogeneity(self, p):
        rng = random.Random(12)
        for _ in range(15):
            v = random_vector(rng)
            a = F(rng.randint(-9, 9), rng.randint(1, 9))
            left = norm_p(v.scale(a), p, self.K)
            right = norm_p(v, p, self.K).scale(abs(a))
            assert left.intersects(right.pad(pow2(-self.K + 1)))

    def test_triangle(self, p):
        rng = random.Random(13)
        for _ in range(15):
            u, v = random_vector(rng), random_vector(rng)
            lhs = norm_p(u + v, p, self.K)
            rhs = norm_p(u, p, self.K) + norm_p(v, p, self.K)
            assert lhs.lo <= rhs.hi + pow2(-self.K + 1)

    def test_disjoint_power_additivity(self, p):
        """For disjointly supported u, v the p-th power masses add."""
        rng = random.Random(14)
        for _ in range(15):
            u = FiniteVector.from_items(
                [(i, F(rng.randint(-5, 5), rng.randint(1, 5))) for i in range(3)]
            )
            v = FiniteVector.from_items(
                [(i + 5, F(rng.randint(-5, 5), rng.randint(1, 5))) for i in range(3)]
            )
            assert not (u.support() & v.support())
            k = 30
            joint = abs2_power_sum(abs2_terms(u + v), p, k)
            split = abs2_power_sum(abs2_terms(u), p, k) + abs2_power_sum(abs2_terms(v), p, k)
            assert joint.intersects(split.pad(2 * pow2(-k)))


def ref_pow_point(t: Fraction, e: Fraction, K: int) -> tuple[Fraction, Fraction]:
    """_pow_point as it stood when every point power came back as two
    Fractions, floor-root ends included."""
    if t in (0, 1) or e == 1:
        return t, t
    n, d = t.numerator, t.denominator
    a, b = e.numerator, e.denominator
    scale = K if b > 1 else 0
    if rigor._exact_pow_bits(n.bit_length(), d.bit_length(), *e.as_integer_ratio(), scale) > rigor._EXACT_POW_BUDGET:
        lo, hi, den = rigor._pow_dyadic_enclosure(t.numerator, t.denominator, e, K)
        assert den == 1 << (K + 2)
        return F(lo, den), F(hi, den)
    if b == 1:
        q = t ** a
        return q, q
    n, d = n ** a, d ** a
    rn = rigor.iroot(n, b)
    if rn ** b == n:
        rd = rigor.iroot(d, b)
        if rd ** b == d:
            q = F(rn, rd)
            return q, q
    s = rigor._floor_root(n << (b * K), d, b)[0]
    return F(s, 1 << K), F(s + 1, 1 << K)


def ref_abs2_pow_sum(terms: list[Fraction], p: Exponent, k: int) -> Enclosure:
    """The power sum of norm_of_abs2_terms as a sum of one Enclosure per
    term, at per = k + ceil(log2(n + 1)) for n terms: _pow_slack's
    rational track (the point power at per + 2, or the term itself at
    p = 2) and its oracle track, ref_pow_slack."""
    if not terms:
        return Enclosure.point(0)
    half = p.half()
    per = k + ceil_log2(F(len(terms) + 1))
    total = Enclosure.point(0)
    for m2 in terms:
        if half.fast is None:
            term = ref_pow_slack(Enclosure.point(m2), half, per)
        elif half.fast == 1:
            term = Enclosure.point(m2)
        else:
            term = between(*ref_pow_point(m2, half.fast, per + 2))
        total = total + term
    return total


def squared_moduli():
    """Exact squared moduli: of random complex points (floor-root terms,
    and Pythagorean ones such as |3 + 4i|^2), twelfth powers (perfect
    under every p/2 below), 0 and 1, and terms of about 34k bits a side,
    whose operand passes _EXACT_POW_BUDGET under every p/2 but 1."""

    def big(seed):
        rng = random.Random(seed)
        bits = 34_000
        return F(rng.getrandbits(bits) | 1 << (bits - 1), rng.getrandbits(bits) | 1 << (bits - 1))

    points = st.builds(lambda re, im: CRat(re, im).abs2(), scalars, scalars)
    pythagorean = st.sampled_from([F(25), F(169, 25), F(25, 169), F(289, 64)])
    perfect = st.builds(lambda s: s ** 12, st.fractions(F(1, 9), 9, max_denominator=9))
    return st.one_of(
        points, pythagorean, perfect, st.sampled_from([F(0), F(1)]),
        st.builds(big, st.integers(0, 2**32)),
    )


SUM_EXPONENTS = {
    "1": lambda: Exponent.from_rational(1),
    "3/2": lambda: Exponent.from_rational(F(3, 2)),
    "2": lambda: Exponent.from_rational(2),
    "7/3": lambda: Exponent.from_rational(F(7, 3)),
    "4": lambda: Exponent.from_rational(4),
    "sqrt2": lambda: Exponent.from_real(sqrt_real(2)),
}


class TestPowerSumAccumulator:
    """The power sum of norm_of_abs2_terms keeps its sum in integers and
    one Fraction per denominator: it must give the very ends of the
    per-term Enclosure sum it replaced."""

    @pytest.mark.parametrize("p_name", sorted(SUM_EXPONENTS))
    @settings(max_examples=40)
    @given(st.lists(squared_moduli(), max_size=6), st.integers(0, 60))
    def test_ends_equal_the_per_term_sum(self, p_name, terms, k):
        p = SUM_EXPONENTS[p_name]()
        got = abs2_power_sum(terms, p, k)
        want = ref_abs2_pow_sum(terms, p, k)
        assert (got.lo, got.hi) == (want.lo, want.hi)
        assert got.width < pow2(-k)

    def test_every_route_is_covered(self):
        """The strategy above reaches each kind of term, and _pow_route
        gives each as its one form (lo, hi, den): a floor-root, an exact
        power, and a dyadic-route pair past the budget, here at p = 3/2
        (p/2 = 3/4); and the pass-throughs at t = 0, t = 1 and e = 1, an
        integer exponent, and a power below the dyadic grid."""
        e, K = F(3, 4), 32
        big = F((1 << 34_000) + 1, (1 << 33_999) + 3)
        tiny = F(3, (1 << 34_000) + 1)
        assert rigor._pow_route(0, 1, e, K) == (0, 0, 1)
        assert rigor._pow_route(1, 1, e, K) == (1, 1, 1)
        assert rigor._pow_route(5, 7, F(1), K) == (5, 5, 7)
        assert rigor._pow_route(2, 3, F(3), K) == (8, 8, 27)
        assert rigor._pow_route(2 ** 12, 1, e, K) == (2 ** 9, 2 ** 9, 1)
        assert rigor._pow_route(16, 81, e, K) == (8, 8, 27)
        s = math.isqrt(math.isqrt(2 ** 3 << (4 * K)))
        assert rigor._pow_route(2, 1, e, K) == (s, s + 1, 1 << K)
        lo, hi, den = rigor._pow_route(big.numerator, big.denominator, e, K)
        assert den == 1 << (K + 2) and 0 < lo < hi <= lo + 3
        assert lo ** 4 <= big ** 3 * den ** 4 <= hi ** 4
        assert rigor._pow_route(tiny.numerator, tiny.denominator, e, K) == (0, 1, 1 << (K + 2))
        terms = [F(2), F(2) ** 12, big, F(25), tiny]
        p = Exponent.from_rational(F(3, 2))
        assert abs2_power_sum(terms, p, 30) == ref_abs2_pow_sum(terms, p, 30)


def interval_bases():
    """Bases [x_lo, x_hi] for rigor._pow_sum: points and ordered pairs of
    squared_moduli, so 0 and 1, exact twelfth powers, and bases past
    _EXACT_POW_BUDGET, at either end."""
    terms = squared_moduli()
    points = terms.map(lambda t: (t, t))
    pairs = st.builds(lambda a, b: (min(a, b), max(a, b)), terms, terms)
    return points | pairs


# The exponents _pow_sum takes are p/2 views: 1/2, 3/4, 1, 7/6, 3/2, sqrt(2)/2.
KERNEL_EXPONENTS = {
    "1/2": lambda: Exponent.from_rational(1).half(),
    "3/4": lambda: Exponent.from_rational(F(3, 2)).half(),
    "1": lambda: Exponent.from_rational(2).half(),
    "7/6": lambda: Exponent.from_rational(F(7, 3)).half(),
    "3/2": lambda: Exponent.from_rational(3).half(),
    "sqrt2/2": lambda: Exponent.from_real(sqrt_real(2)).half(),
}


def ref_pow_sum(bases, exp: Exponent, K: int) -> Enclosure:
    """_pow_sum as a sum of one Enclosure per base: on the rational track
    the lower end of x_lo**e and the upper end of x_hi**e by ref_pow_point
    at K + 2, on the oracle track ref_pow_slack."""
    total = Enclosure.point(0)
    for x_lo, x_hi in bases:
        if exp.fast is None:
            term = ref_pow_slack(between(x_lo, x_hi), exp, K)
        else:
            lo = ref_pow_point(x_lo, exp.fast, K + 2)[0]
            term = between(lo, ref_pow_point(x_hi, exp.fast, K + 2)[1])
        total = total + term
    return total


# Points whose ends the scale of the test below also writes over an
# unreduced denominator: 0 and 1 among them, which the routes pass through.
POINTS = [(t, t) for t in (F(2), F(2) ** 12, F(0), F(1), F(25, 169))]


class TestPowerSumKernel:
    """rigor._pow_sum on interval bases gives the very ends of the sum of
    one Enclosure per base, whether the bases come over their own
    denominators or over six times those."""

    @pytest.mark.parametrize("name", sorted(KERNEL_EXPONENTS))
    @settings(max_examples=30)
    @given(st.lists(interval_bases(), max_size=5), st.integers(0, 60))
    @example(POINTS, 30)
    def test_ends_equal_the_per_base_sum(self, name, bases, K):
        exp = KERNEL_EXPONENTS[name]()
        want = ref_pow_sum(bases, exp, K)
        for scale in (1, 6):
            ends = [as_ends(x_lo, x_hi, scale) for x_lo, x_hi in bases]
            assert Enclosure(*rigor._pow_sum(ends, exp, K)) == want


class _ProductBits(int):
    """An int that adds the bit length of every product it forms to
    ``formed``, and keeps its type through the sums, quotients and
    products _pow_sum makes of it, so the products of products count too.
    ``gcd`` and ``lcm`` add their operands' bits, so work that moves into
    them counts as well."""

    formed = 0

    def __mul__(self, other):
        product = int.__mul__(self, other)
        _ProductBits.formed += product.bit_length()
        return _ProductBits(product)

    __rmul__ = __mul__

    def __add__(self, other):
        return _ProductBits(int.__add__(self, other))

    __radd__ = __add__

    def __floordiv__(self, other):
        return _ProductBits(int.__floordiv__(self, other))

    def __rfloordiv__(self, other):
        return _ProductBits(int.__rfloordiv__(self, other))

    @staticmethod
    def gcd(a: int, b: int) -> int:
        _ProductBits.formed += a.bit_length() + b.bit_length()
        return math.gcd(a, b)

    @staticmethod
    def lcm(*args: int) -> int:
        """math.lcm, which folds its arguments left to right, counting the
        bits of each partial lcm and argument it reads."""
        acc = 1
        for a in args:
            _ProductBits.formed += acc.bit_length() + a.bit_length()
            acc = math.lcm(acc, a)
        return _ProductBits(acc)


def _long_sum_bases(m: int, seed: int, points: bool) -> list[tuple[int, int, int]]:
    """m bases over distinct random 40-bit denominators, whose lcm has
    about 40 bits per base."""
    rng = random.Random(seed)
    dens = rng.sample(range(1 << 39, 1 << 40), m)
    bases = []
    for d in dens:
        lo = rng.randrange(1 << 40)
        bases.append((lo, lo if points else lo + rng.randrange(1, 1 << 20), d))
    return bases


class TestLongPowerSums:
    """rigor._pow_sum over many denominators: the (lo, hi, den) of
    scaling every numerator up to the lcm of all, on both sides of the
    count, 32, where it starts to add them up as a tree."""

    @pytest.mark.parametrize("points", [True, False])
    @pytest.mark.parametrize("m", [1, 2, 32, 33, 65, 300])
    def test_the_ends_of_one_scale_up_to_the_lcm(self, m, points):
        bases = _long_sum_bases(m, m, points)
        den = math.lcm(*(d for _, _, d in bases))
        want = (
            sum(lo * (den // d) for lo, _, d in bases),
            sum(hi * (den // d) for _, hi, d in bases),
            den,
        )
        assert rigor._pow_sum(bases, Exponent.from_rational(1), 30) == want

    def test_operand_bits_grow_near_linearly(self, monkeypatch):
        """Size guard, free of timing noise: the bits of the products one
        exponent-1 sum forms and of the operands of its gcd and lcm calls,
        at m and at 4m distinct denominators.  One scale-up of every
        numerator to the lcm forms m products of the lcm's size, so 4m
        bases form 16 times the bits; a balanced tree of pairwise sums
        forms about the lcm's size per level, 4 (1 + 2 / log2 m) times.
        This bounds operand sizes, not time: CPython's multiplication and
        gcd cost more than linear time in the size of their operands."""
        monkeypatch.setattr(rigor, "gcd", _ProductBits.gcd)
        monkeypatch.setattr(rigor, "lcm", _ProductBits.lcm)
        exp = Exponent.from_rational(1)
        formed = []
        for m in (64, 256):
            bases = [tuple(map(_ProductBits, b)) for b in _long_sum_bases(m, 5, True)]
            _ProductBits.formed = 0
            lo, _, den = rigor._pow_sum(bases, exp, 30)
            formed.append(_ProductBits.formed)
            assert F(lo, den) == sum(F(n, d) for n, _, d in bases)
        assert formed[1] < 7 * formed[0]


def test_norm_p_enclosure_work(enclosures_built, p32):
    """Work guard, free of timing noise: Enclosure constructions in one
    seeded m = 64, k = 30 norm at p = 3/2.  It made 185 while every term's
    power was an Enclosure added to a running Enclosure sum."""
    rng = random.Random(7)
    vector = FiniteVector.from_items(
        [(i, F(rng.randint(-9, 9), rng.randint(1, 9))) for i in range(64)]
    )
    norm_p(vector, p32, 30)
    enclosures_built.clear()
    norm_p(vector, p32, 30)
    assert len(enclosures_built) <= 4 < 185


def test_sqrt2_norm_enclosure_work(enclosures_built):
    """Work guard, free of timing noise: Enclosure constructions in one
    warm, seeded m = 64, k = 30 norm at p = sqrt(2), by norm_p on a real
    vector and by the telescoping norm of the odds' twisted presentation
    on complex coefficients.  They built 124 and 130 while every oracle-
    track power was an Enclosure of Fraction corner powers; on the integer
    form of _pow_slack each builds as few as at p = 3/2."""
    rng = random.Random(7)
    vector = FiniteVector.from_items(
        [(i, F(rng.randint(-9, 9), rng.randint(1, 9))) for i in range(64)]
    )
    p = Exponent.from_real(sqrt_real(2))
    presentation = TwistedGenSet(CeSet.odds(), p)
    rng = random.Random(7)

    def rat():
        return F(rng.randint(-9, 9), rng.randint(1, 9))

    coeffs = [CRat(rat(), rat()) for _ in range(64)]
    norm_p(vector, p, 30)
    presentation.norm_enclosure(coeffs, 30)
    enclosures_built.clear()
    norm_p(vector, p, 30)
    assert len(enclosures_built) <= 4 < 124
    enclosures_built.clear()
    presentation.norm_enclosure(coeffs, 30)
    assert len(enclosures_built) <= 4 < 130
