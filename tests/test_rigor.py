"""Substrate tests: enclosure soundness, certified powers and roots,
approximation-oracle contracts.

Expected values for the inexact cases come from an independent interval
bisection oracle that certifies its brackets by squaring (or cubing, ...)
endpoints; the library path under test goes through integer Newton
floor-roots instead.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lpcat import (
    ComputableReal,
    ConfigError,
    Enclosure,
    Exponent,
    NegativeBase,
    ceil_log2,
    iroot,
    pow2,
    pow_p,
    root_p,
    simplest_between,
    sqrt_real,
)

F = Fraction


def bisect_root(y: Fraction, b: int, k: int) -> Enclosure:
    """Independent oracle: bracket y^(1/b) by plain halving, each step
    certified by comparing the b-th power of the midpoint against y."""
    lo, hi = F(0), max(F(1), y)
    while hi - lo > pow2(-k):
        mid = (lo + hi) / 2
        if mid ** b <= y:
            lo = mid
        else:
            hi = mid
    return Enclosure(lo, hi)


class TestEnclosureArithmetic:
    def test_add_exact(self):
        assert Enclosure.point(1) + Enclosure.point(2) == Enclosure.point(3)

    def test_mul_sign_analysis(self):
        sym = Enclosure(F(-1), F(1))
        assert sym * sym == Enclosure(F(-1), F(1))

    def test_abs_contains_zero_case(self):
        assert abs(Enclosure(F(-3), F(2))) == Enclosure(F(0), F(3))

    def test_inverted_rejected(self):
        with pytest.raises(ValueError):
            Enclosure(F(1), F(0))

    def test_recip_needs_sign(self):
        with pytest.raises(ZeroDivisionError):
            Enclosure(F(-1), F(1)).recip()

    @given(
        st.fractions(min_value=-10, max_value=10, max_denominator=100),
        st.fractions(min_value=-10, max_value=10, max_denominator=100),
        st.fractions(min_value=-10, max_value=10, max_denominator=100),
        st.fractions(min_value=-10, max_value=10, max_denominator=100),
    )
    def test_mul_sound(self, a, b, c, d):
        x = Enclosure(min(a, b), max(a, b))
        y = Enclosure(min(c, d), max(c, d))
        out = x * y
        for s in (x.lo, x.hi, x.midpoint):
            for t in (y.lo, y.hi, y.midpoint):
                assert out.contains(s * t)

    def test_composition_fuzz_10k(self):
        """Soundness of composed expressions: the exact rational value of a
        random expression tree stays inside the composed enclosure."""
        rng = random.Random(2024)
        ops = ("add", "sub", "mul", "neg", "abs")
        for _ in range(10_000):
            value = F(rng.randint(-8, 8), rng.randint(1, 8))
            enc = Enclosure.point(value)
            pad = F(1, rng.randint(1, 1 << 20))
            enc = enc.pad(pad)
            for _ in range(rng.randint(1, 5)):
                op = rng.choice(ops)
                if op == "neg":
                    value, enc = -value, -enc
                elif op == "abs":
                    value, enc = abs(value), abs(enc)
                else:
                    other = F(rng.randint(-8, 8), rng.randint(1, 8))
                    oenc = Enclosure.point(other).pad(F(1, rng.randint(1, 1 << 10)))
                    if op == "add":
                        value, enc = value + other, enc + oenc
                    elif op == "sub":
                        value, enc = value - other, enc - oenc
                    else:
                        value, enc = value * other, enc * oenc
            assert enc.contains(value)


class TestIntegerRoots:
    @given(st.integers(min_value=0, max_value=10**12), st.integers(min_value=1, max_value=7))
    def test_iroot_floor_property(self, n, b):
        r = iroot(n, b)
        assert r ** b <= n < (r + 1) ** b

    def test_iroot_exact_cubes(self):
        assert iroot(8, 3) == 2
        assert iroot(10**18, 3) == 10**6


class TestPowRoot:
    def test_p1_identity(self, p1):
        x = Enclosure(F(2), F(2))
        assert pow_p(x, p1, 50) == x
        assert root_p(x, p1, 50) == x

    def test_exact_rational_power(self, p3):
        assert pow_p(Enclosure.point(F(1, 2)), p3, 10) == Enclosure.point(F(1, 8))

    def test_perfect_cube_root(self, p3):
        assert root_p(Enclosure.point(8), p3, 30) == Enclosure.point(2)

    def test_root_of_one(self, p32, p2, p3):
        for p in (p32, p2, p3):
            assert root_p(Enclosure.point(1), p, 40) == Enclosure.point(1)

    def test_root_p_third(self, p1):
        assert root_p(Enclosure.point(F(1, 3)), p1, 20) == Enclosure.point(F(1, 3))

    def test_sqrt2_against_bisection_oracle(self, p2):
        oracle = bisect_root(F(2), 2, 24)
        got = root_p(Enclosure.point(2), p2, 20)
        assert got.width < pow2(-20)
        assert got.intersects(oracle)
        # endpoint certificates: squaring brackets 2
        assert got.lo ** 2 <= 2 <= got.hi ** 2

    def test_two_to_three_halves(self, p32):
        # independent oracle: bisection on t^2 = 8 refined past 2^-20
        oracle = bisect_root(F(8), 2, 24)
        got = pow_p(Enclosure.point(2), p32, 20)
        assert got.width < pow2(-20)
        assert got.intersects(oracle)

    def test_negative_base_rejected(self, p2):
        with pytest.raises(NegativeBase):
            pow_p(Enclosure(F(-1), F(1)), p2, 10)
        with pytest.raises(NegativeBase):
            root_p(Enclosure(F(-1), F(1)), p2, 10)

    def test_monotone_in_inclusion(self, p32):
        inner = Enclosure(F(1, 3), F(1, 2))
        outer = Enclosure(F(1, 4), F(1))
        assert pow_p(outer, p32, 16).encloses(pow_p(inner, p32, 16))

    def test_root_pow_contraction(self):
        """root_p(pow_p([x,x], p, k), p, k) recovers x within width 2^-k+2."""
        rng = random.Random(7)
        ps = [Exponent.from_rational(q) for q in (F(1), F(3, 2), F(2), F(3))]
        cases = [F(0), F(8), F(1, 20)]
        cases += [F(rng.randint(0, 160), 20) for _ in range(40)]
        for p in ps:
            for x in cases:
                for k in (10, 24, 40):
                    mid = pow_p(Enclosure.point(x), p, k)
                    back = root_p(mid, p, k)
                    assert back.contains(x)
                    assert back.width < pow2(-k + 2), (x, p, k, back.width)

    def test_wide_input_encloses_image(self, p2):
        out = pow_p(Enclosure(F(0), F(1)), p2, 30)
        assert out.contains(0) and out.contains(1) and out.contains(F(1, 4))


class TestOracleTrackExponent:
    def make_oracle_p(self, value: Fraction) -> Exponent:
        return Exponent.from_real(ComputableReal(lambda k: value, "p-oracle"))

    def test_pow_matches_fast_path(self):
        slow = self.make_oracle_p(F(3, 2))
        fast = Exponent.from_rational(F(3, 2))
        for t in (F(2), F(1, 3), F(7, 5)):
            a = pow_p(Enclosure.point(t), slow, 16)
            b = pow_p(Enclosure.point(t), fast, 16)
            assert a.intersects(b)
            assert a.width < pow2(-16)

    def test_root_matches_fast_path(self):
        slow = self.make_oracle_p(F(2))
        oracle = bisect_root(F(2), 2, 20)
        got = root_p(Enclosure.point(2), slow, 14)
        assert got.intersects(oracle)
        assert got.width < pow2(-14)

    def test_validation(self):
        with pytest.raises(ConfigError):
            Exponent.from_rational(F(1, 2))
        with pytest.raises(ConfigError):
            Exponent.from_real(ComputableReal.constant(F(9, 10)))


class TestComputableReal:
    def test_refine_contract(self):
        third = ComputableReal.constant(F(1, 3))
        enc = third.enclosure(5)
        assert enc.width == pow2(-4)
        assert enc.contains(F(1, 3))

    def test_refine_exponent_fast_path(self):
        p = Exponent.from_rational(F(3, 2))
        enc = p.real.enclosure(8)
        assert enc.width == pow2(-7)
        assert enc.contains(F(3, 2))

    def test_consistency_up_to_64(self):
        reals = [
            ComputableReal.constant(F(1, 3)),
            sqrt_real(2),
            sqrt_real(F(1, 2)),
        ]
        for x in reals:
            for k in (0, 1, 7, 33, 64):
                for kp in (2, 16, 64):
                    assert abs(x.approx(k) - x.approx(kp)) < pow2(-k) + pow2(-kp)

    def test_deterministic(self):
        x = sqrt_real(5)
        assert x.approx(40) == x.approx(40)

    def test_query_accounting(self):
        x = sqrt_real(7)
        x.approx(3)
        x.approx(9)
        assert x.stats.count == 2 and x.stats.max_k == 9


class TestSimplestBetween:
    def test_examples(self):
        assert simplest_between(F(2885, 1000), F(3115, 1000)) == 3
        assert simplest_between(F(1, 2), F(5, 2)) == 1
        assert simplest_between(F(2, 3), F(3, 4)) == F(2, 3)
        assert simplest_between(F(-1, 3), F(1, 5)) == 0
        assert simplest_between(F(-7, 2), F(-10, 3)) == F(-7, 2)

    @given(
        st.fractions(min_value=-50, max_value=50, max_denominator=40),
        st.fractions(min_value=F(1, 64), max_value=3, max_denominator=64),
    )
    def test_membership_and_minimality(self, lo, width):
        hi = lo + width
        q = simplest_between(lo, hi)
        assert lo <= q <= hi
        # no rational with a smaller denominator fits in the interval
        for d in range(1, q.denominator):
            n_lo = -((-lo.numerator * d) // lo.denominator)  # ceil(lo*d)
            assert not (lo <= F(n_lo, d) <= hi)


def test_ceil_log2():
    assert ceil_log2(F(1)) == 0
    assert ceil_log2(F(3)) == 2
    assert ceil_log2(F(1, 3)) == -1
    assert ceil_log2(F(4)) == 2
