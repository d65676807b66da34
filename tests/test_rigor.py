"""Substrate tests: enclosure soundness, certified powers and roots,
approximation-oracle contracts.

Expected values for the inexact cases come from an independent interval
bisection oracle that certifies its brackets by squaring (or cubing, ...)
endpoints; the library path under test goes through integer
floor-roots instead.
"""

import argparse
import ast
import copy
import json
import math
import pickle
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lpcat import cli, rigor
from lpcat.cli import parse_p
from lpcat import (
    ComputableReal,
    ConfigError,
    CRat,
    Enclosure,
    Exponent,
    FiniteVector,
    IsometryDescriptor,
    NegativeBase,
    OracleFailure,
    StandardGenSet,
    VectorRep,
    ceil_log2,
    iroot,
    norm_p,
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
    return between(lo, hi)


def newton_iroot(n: int, b: int) -> int:
    """Independent floor-root: Newton iteration from above for any index,
    the route iroot takes for indices that are not powers of two."""
    if n in (0, 1) or n.bit_length() <= b:
        return min(n, 1)
    x = 1 << -((-n.bit_length()) // b)
    while True:
        y = ((b - 1) * x + n // x ** (b - 1)) // b
        if y >= x:
            return x
        x = y


class TestEnclosureArithmetic:
    def test_add_exact(self):
        assert Enclosure.point(1) + Enclosure.point(2) == Enclosure.point(3)

    def test_inverted_rejected(self):
        with pytest.raises(ValueError):
            Enclosure(1, 0, 1)

    def test_recip_needs_sign(self):
        with pytest.raises(ZeroDivisionError):
            Enclosure(-1, 1, 1).recip()

    def test_composition_fuzz_10k(self):
        """Soundness of composed expressions: the exact rational value of a
        random expression tree stays inside the composed enclosure."""
        rng = random.Random(2024)
        ops = ("add", "sub", "scale", "neg")
        for _ in range(10_000):
            value = F(rng.randint(-8, 8), rng.randint(1, 8))
            enc = Enclosure.point(value)
            pad = F(1, rng.randint(1, 1 << 20))
            enc = enc.pad(pad)
            for _ in range(rng.randint(1, 5)):
                op = rng.choice(ops)
                if op == "neg":
                    value, enc = -value, -enc
                else:
                    other = F(rng.randint(-8, 8), rng.randint(1, 8))
                    oenc = Enclosure.point(other).pad(F(1, rng.randint(1, 1 << 10)))
                    if op == "add":
                        value, enc = value + other, enc + oenc
                    elif op == "sub":
                        value, enc = value - other, enc - oenc
                    else:
                        value, enc = value * other, enc.scale(other)
            assert enc.contains(value)


class TestIntegerRoots:
    @given(st.integers(min_value=0, max_value=10**12), st.integers(min_value=1, max_value=7))
    def test_iroot_floor_property(self, n, b):
        r = iroot(n, b)
        assert r ** b <= n < (r + 1) ** b

    def test_iroot_exact_cubes(self):
        assert iroot(8, 3) == 2
        assert iroot(10**18, 3) == 10**6

    @settings(max_examples=80)
    @given(
        st.integers(0, 4000).flatmap(lambda bits: st.integers(0, 1 << bits)),
        st.integers(1, 4),
        st.booleans(),
    )
    def test_power_of_two_index_by_nested_isqrt(self, n, j, near_power):
        """iroot(n, 2^j) takes j nested isqrt calls; floor(sqrt(floor(y)))
        = floor(sqrt(y)) makes that exact.  near_power moves n to a
        perfect power r^b or just below one, where an off-by-one shows."""
        b = 1 << j
        if near_power:
            n = newton_iroot(n, b) ** b - (n & 1)
            n = max(n, 0)
        r = iroot(n, b)
        assert r ** b <= n < (r + 1) ** b
        assert r == newton_iroot(n, b)

    @settings(max_examples=60)
    @given(
        st.integers(2, 193),
        st.integers(1, 40_000),
        st.integers(0, 2**32),
        st.sampled_from(["drawn", "onto", "below"]),
    )
    def test_seeded_newton_floor_property(self, b, bits, seed, where):
        """Past h = bits // 2b > 16, Newton starts from the root of n's top
        bits; the floor property holds for b up to 193 and n up to 40,000
        bits, also for n moved onto a perfect power r^b and just below it,
        where an off-by-one shows."""
        rng = random.Random(seed)
        n = rng.getrandbits(bits) | 1 << (bits - 1)
        if where != "drawn":
            root = max(1, rng.getrandbits(max(1, bits // b)))
            n = root ** b - (where == "below")
        r = iroot(n, b)
        assert r ** b <= n < (r + 1) ** b
        if where == "onto":
            assert r == root


class TestPowRoot:
    def test_p1_identity(self, p1):
        x = between(F(2), F(2))
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
            pow_p(between(F(-1), F(1)), p2, 10)
        with pytest.raises(NegativeBase):
            root_p(between(F(-1), F(1)), p2, 10)

    def test_monotone_in_inclusion(self, p32):
        inner = between(F(1, 3), F(1, 2))
        outer = between(F(1, 4), F(1))
        big, small = pow_p(outer, p32, 16), pow_p(inner, p32, 16)
        assert big.lo <= small.lo and small.hi <= big.hi

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
        out = pow_p(between(F(0), F(1)), p2, 30)
        assert out.contains(0) and out.contains(1) and out.contains(F(1, 4))


class TestEscalation:
    """rigor.escalate and the schedules of the loops it drives."""

    def test_yields_the_schedule_at_most_cap_times(self):
        gen = rigor.escalate(6, lambda k: max(6, k // 2), 5, "dry")
        got = [next(gen) for _ in range(5)]
        assert got == [6, 12, 18, 27, 40]
        with pytest.raises(OracleFailure, match="^dry$"):
            next(gen)

    def test_raises_only_when_run_dry(self):
        with pytest.raises(OracleFailure, match="^ran out$"):
            for _ in rigor.escalate(0, lambda _: 1, 3, "ran out"):
                pass
        with pytest.raises(OracleFailure, match="^none$"):
            for _ in rigor.escalate(0, lambda _: 1, 0, "none"):
                pytest.fail("a cap of 0 yields nothing")

    def test_early_exit_raises_nothing(self):
        seen = []
        for K in rigor.escalate(3, lambda _: 4, 10, "unreachable"):
            seen.append(K)
            if K == 11:
                break
        assert seen == [3, 7, 11]

        def first_past(bound):
            for K in rigor.escalate(1, lambda k: k, 64, "unreachable"):
                if K > bound:
                    return K

        assert first_past(100) == 128
        gen = rigor.escalate(0, lambda _: 1, 1, "unreachable")
        next(gen)
        gen.close()

    def test_norm_from_power_sum_schedule(self):
        """A guard jump ends its round, and the next round reads one sum at
        the jumped precision.  S = 2^-40 at p = 3/2 and k = 10 needs a
        guard of 16 bits, so K jumps from 14 to 28.  The sum there reaches
        0, which sends it to the tiny-sum test like any other round, and it
        is certified small enough for [0, 2^-11], with no third sum."""
        S = pow2(-40)
        asked = []

        def sum_at(K):
            asked.append(K)
            slack = pow2(-(K + 1))
            return between(S if K == 14 else max(F(0), S - slack), S + slack).ints

        got = rigor.norm_from_power_sum(sum_at, Exponent.from_rational(F(3, 2)), 10)
        assert asked == [14, 28]
        assert got == between(F(0), F(1, 2048))

    def test_steps_count_from_the_jumped_precision(self):
        """A jumped sum too wide for the root steps on from the K it was
        read at: 28 + max(8, 28 - 14) = 42, where the sum is narrow enough.
        S = 2^-40 at p = 3/2 and k = 10 jumps from 14 to 28 as above."""
        S = pow2(-40)
        asked = []

        def sum_at(K):
            asked.append(K)
            return between(S, S + pow2(-14 if K == 28 else -(K + 1))).ints

        p = Exponent.from_rational(F(3, 2))
        got = rigor.norm_from_power_sum(sum_at, p, 10)
        assert asked == [14, 28, 42]
        assert got.width < pow2(-10)
        assert got.intersects(bisect_root(S * S, 3, 30))


def ref_norm_from_power_sum(sum_at, p: Exponent, k: int) -> Enclosure:
    """norm_from_power_sum as it stood when a guard jump read a second sum
    inside its round and carried the jump into every later round's K,
    without its point-sum branch: a point sum goes through the guard jump
    like any other."""
    p_ub = p.ub()
    step = max(8, k // 2)
    jump = 0
    failure = "norm extraction failed to converge"
    for K in rigor.escalate(k + 4, lambda K: max(step, K - k - 4), 64, failure):
        K += jump
        s = sum_at(K).clamp_nonneg()
        if s.hi == 0:
            return Enclosure.point(0)
        if s.lo == 0:
            t0 = pow2(-(k + 1))
            kt = rigor.frac_ceil(F(k + 2) * p_ub) + 4
            _, e_hi = p.bracket(kt)
            if s.hi <= point_ends(t0, e_hi, kt)[0]:
                return between(F(0), t0)
            continue
        guard = 0
        if s.lo < 1:
            bits = ceil_log2(1 / s.lo)
            guard = rigor.frac_ceil(F(bits) * (p_ub - 1) / p_ub) + 2
        if guard and K < k + 2 + guard:
            jump += k + 2 + guard - K
            K = k + 2 + guard
            s = sum_at(K).clamp_nonneg()
            if s.lo <= 0:
                continue
        out = root_p(s, p, k + 2)
        if out.width < pow2(-k):
            return out


NORM_EXPONENTS = {
    "1": lambda: Exponent.from_rational(1),
    "3/2": lambda: Exponent.from_rational(F(3, 2)),
    "2": lambda: Exponent.from_rational(2),
    "3": lambda: Exponent.from_rational(3),
    "sqrt2": lambda: Exponent.from_real(sqrt_real(2)),
}


def point_sums():
    """Exact power sums: 0, 1, small (a guard jump), large, and p-th
    powers of simple rationals (an exact root at p = 1, 2, 3)."""
    return st.one_of(
        st.sampled_from([F(0), F(1)]),
        st.builds(lambda q, m: q * pow2(-m), st.fractions(F(1, 9), 9, max_denominator=9),
                  st.integers(1, 120)),
        st.fractions(F(1, 100), 10**6, max_denominator=10**6),
        st.builds(lambda q: q ** 6, st.fractions(F(1, 9), 9, max_denominator=9)),
    )


class TestPointPowerSum:
    """A zero-width power sum is the exact value, so norm_from_power_sum
    reads it once and takes its root; the answer must be the one the
    guard-jump loop gave."""

    @pytest.mark.parametrize("p_name", sorted(NORM_EXPONENTS))
    @settings(max_examples=30)
    @given(point_sums(), st.integers(0, 60))
    def test_one_read_and_the_same_root(self, p_name, S, k):
        p = NORM_EXPONENTS[p_name]()
        asked = []

        def sum_at(K):
            asked.append(K)
            return Enclosure.point(S).ints

        got = rigor.norm_from_power_sum(sum_at, p, k)
        assert asked == [k + 4]
        assert got == ref_norm_from_power_sum(lambda _K: Enclosure.point(S), p, k)
        assert got.width < pow2(-k)


class TestGuardJump:
    """Each round reads one sum: a guard jump ends its round, and the next
    round runs at the jumped precision.  On sums whose slack 2^-(K+w)
    shrinks with K, a jumped sum's lower end never falls back, so the
    answer is the one the loop that read a second sum inside the round
    gave, from no more sums."""

    @pytest.mark.parametrize("p_name", sorted(NORM_EXPONENTS))
    @settings(max_examples=100)
    @given(st.fractions(F(0), F(9), max_denominator=9), st.integers(0, 300),
           st.sampled_from([1, 2, 3]), st.integers(0, 80))
    def test_matches_the_second_sum_loop(self, p_name, q, m, w, k):
        p = NORM_EXPONENTS[p_name]()
        S = q * pow2(-m)

        def counted(asked):
            def sum_at(K):
                asked.append(K)
                slack = pow2(-(K + w))
                return between(max(F(0), S - slack), S + slack)
            return sum_at

        asked, ref_asked = [], []
        sum_at = counted(asked)
        got = rigor.norm_from_power_sum(lambda K: sum_at(K).ints, p, k)
        assert got == ref_norm_from_power_sum(counted(ref_asked), p, k)
        assert len(asked) <= len(ref_asked)


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

    def test_half_and_reciprocal_views(self):
        """p/2 and 1/p are Exponents built once per exponent; on both
        tracks their brackets hold the true value."""
        inexact = Exponent.from_real(ComputableReal(lambda k: F(7, 3) - pow2(-k - 1), "p"))
        for p in (Exponent.from_rational(F(7, 3)), inexact):
            assert p.half() is p.half() and p.reciprocal() is p.reciprocal()
            for view, value in ((p.half(), F(7, 6)), (p.reciprocal(), F(3, 7))):
                assert isinstance(view, Exponent)
                for k in (0, 4, 20, 60):
                    lo, hi = view.bracket(k)
                    assert lo <= value <= hi

    def test_views_build_no_oracle(self, monkeypatch):
        """Work guard: an exponent holds no precision oracle of its own.
        A rational exponent and its views, and the views of an oracle
        exponent, construct no PrecisionOracle.  An Exponent that wrapped
        a ComputableReal of its own built four for the rational exponent
        and one per oracle view here, and nothing queried them."""
        built = []
        init = rigor.PrecisionOracle.__init__

        def counted(self, *args, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)

        sqrt2 = Exponent.from_real(sqrt_real(2))
        monkeypatch.setattr(rigor.PrecisionOracle, "__init__", counted)
        p = Exponent.from_rational(F(3, 2))
        views = [p.half(), p.reciprocal(), p.half().reciprocal()]
        assert [v.fast for v in views] == [F(3, 4), F(2, 3), F(4, 3)]
        assert built == []
        for view in (sqrt2.half(), sqrt2.reciprocal(), sqrt2.half().reciprocal()):
            lo, hi = view.bracket(20)
            assert lo < hi
        assert built == []
        assert repr(sqrt2.half()) == "Exponent(~p/2[sqrt(2)])"

    def test_rational_exponent_builds_no_bracket_table(self, monkeypatch):
        """Work guard: a rational exponent and each of its views build one
        MemoTable, the views table, and no bracket table, since ``bracket``
        returns (fast, fast) before reading one; a bracket table in every
        Exponent made 8 here.  An oracle exponent and its two views build
        both tables each: 7 with the oracle's own."""
        built = []
        init = rigor.MemoTable.__init__

        def counted(self):
            built.append(1)
            init(self)

        monkeypatch.setattr(rigor.MemoTable, "__init__", counted)
        p = Exponent.from_rational(F(3, 2))
        views = [p.half(), p.reciprocal(), p.half().reciprocal()]
        assert [v.bracket(20) for v in views] == [(F(3, 4),) * 2, (F(2, 3),) * 2, (F(4, 3),) * 2]
        assert len(built) == 4
        built.clear()
        sqrt2 = Exponent.from_real(sqrt_real(2))
        for view in (sqrt2.half(), sqrt2.reciprocal()):
            lo, hi = view.bracket(20)
            assert lo < hi
        assert len(built) == 7

    def test_validation(self):
        with pytest.raises(ConfigError):
            Exponent.from_rational(F(1, 2))
        with pytest.raises(ConfigError):
            Exponent.from_real(ComputableReal.constant(F(9, 10)))

    def test_oracle_below_one_raises_once_certified(self):
        """from_real's check at precision 12 passes p = 9999/10000; the
        first bracket whose upper end falls below 1 (here at precision 15)
        raises, in the exponent and in both of its views."""
        below = Exponent.from_real(ComputableReal.constant(F(9999, 10000)))
        assert below.bracket(14)[1] == 1
        with pytest.raises(OracleFailure):
            pow_p(Enclosure.point(2), below, 30)
        for view in (below.half(), below.reciprocal()):
            with pytest.raises(OracleFailure):
                view.bracket(15)
        for real in (ComputableReal.constant(1), sqrt_real(2)):
            p = Exponent.from_real(real)
            for k in (4, 15, 60):
                lo, hi = p.bracket(k)
                assert lo <= hi and hi >= 1
            assert pow_p(Enclosure.point(2), p, 30).width < pow2(-30)


class TestBracketMemo:
    """Exponent.bracket(k) is computed once per exponent and precision;
    the p/2 and 1/p views read their parent's memoised brackets."""

    def counted_exponent(self, value: Fraction, claimed_bits: int = 4096):
        """An exponent on a decimal oracle that refuses precisions past
        claimed_bits, as ``--p oracle:<value>:<bits>`` builds it, with a
        log of the precisions its fn was asked for, and the oracle."""
        asked = []

        def fn(k):
            asked.append(k)
            if k > claimed_bits:
                raise OracleFailure(f"oracle claims {claimed_bits} bits, asked for {k}")
            return value

        real = ComputableReal(fn, "counted")
        return Exponent.from_real(real), asked, real

    def test_fn_and_rounding_once_per_precision(self, monkeypatch):
        p, asked, real = self.counted_exponent(F(7, 3))
        rounded = []
        round_dyadic = rigor._round_dyadic

        def counted(x, P, up):
            rounded.append(P)
            return round_dyadic(x, P, up)

        monkeypatch.setattr(rigor, "_round_dyadic", counted)
        ks = [0, 4, 5, 9, 30, 9, 0, 61]
        first = {k: p.bracket(k) for k in ks}
        views = {k: (p.half().bracket(k), p.reciprocal().bracket(k)) for k in ks}
        for _ in range(3):
            for k in ks:
                assert p.bracket(k) == first[k]
                assert (p.half().bracket(k), p.reciprocal().bracket(k)) == views[k]
            p.ub()
        precisions = {max(k, 4) for k in ks} | {max(k, 4) + 1 for k in ks}
        assert sorted(asked) == sorted(precisions | {12})
        assert sorted(rounded) == sorted(2 * list(precisions))
        for k, (lo, hi) in first.items():
            assert (lo, hi) == rigor._real_bracket(real)(max(k, 4))
            half, recip = views[k]
            lo, hi = p.bracket(max(k, 4) + 1)
            assert half == (lo / 2, hi / 2) and recip == (1 / hi, 1 / lo)

    def test_failures_are_not_cached(self):
        """A bracket that raises raises again, and asks its oracle again:
        the decimal oracle past its claimed bits, and a bracket below 1."""
        p, asked, _ = self.counted_exponent(F(3, 2), claimed_bits=20)
        for _ in range(2):
            with pytest.raises(OracleFailure, match="claims 20 bits"):
                p.bracket(21)
            with pytest.raises(OracleFailure, match="claims 20 bits"):
                p.half().bracket(20)
        assert asked.count(21) == 4
        assert p.bracket(20)[0] <= F(3, 2)

        below = Exponent.from_real(ComputableReal.constant(F(9999, 10000)))
        for _ in range(2):
            for exp, k in ((below, 15), (below.half(), 14), (below.reciprocal(), 14)):
                with pytest.raises(OracleFailure, match="certified below 1"):
                    exp.bracket(k)
        assert below.bracket(14)[1] == 1

    def test_sqrt2_norm_rounding_work(self, monkeypatch):
        """Work guard, free of timing noise: _round_dyadic calls in one
        seeded m = 64, k = 30 norm at p = sqrt(2), with a fresh exponent
        and an empty dyadic cache.  It made 336 while every term's
        _pow_slack rounds rebuilt the brackets."""
        rng = random.Random(7)
        vector = FiniteVector.from_items(
            [(i, F(rng.randint(-9, 9), rng.randint(1, 9))) for i in range(64)]
        )
        calls = 0
        round_dyadic = rigor._round_dyadic

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return round_dyadic(*args, **kwargs)

        monkeypatch.setattr(rigor, "_round_dyadic", counted)
        rigor._DYADIC_POW_CACHE.clear()
        norm_p(vector, Exponent.from_real(sqrt_real(2)), 30)
        assert calls <= 40 < 336


def ref_sqrt_dyadic(x: Fraction, P: int, up: bool) -> Fraction:
    """The Fraction form of the dyadic kernel's square root, kept as the
    reference for the integer-mantissa kernel."""
    n = (x.numerator << (2 * P)) // x.denominator
    r = math.isqrt(n)
    if up and r * r != n:
        r += 1
    return F(r, 1 << P)


def ref_ipow_dyadic(base: Fraction, m: int, P: int, up: bool) -> Fraction:
    result, b = F(1), base
    while m:
        if m & 1:
            result = rigor._round_dyadic(result * b, P, up)
        m >>= 1
        if m:
            b = rigor._round_dyadic(b * b, P, up)
    return result


def ref_pow_dyadic_enclosure(t: Fraction, e: Fraction, tb: int) -> Enclosure:
    invert = t < 1
    tt = 1 / t if invert else t
    mag = tt.numerator.bit_length() - tt.denominator.bit_length() + 1
    j = tb + 8
    while True:
        P = tb + j + 2 * mag + rigor.frac_ceil(e * mag) + 16
        m_lo = rigor.frac_floor(e * (1 << j))
        m_hi = rigor.frac_ceil(e * (1 << j))
        r_lo, r_hi = tt, tt
        for _ in range(j):
            r_lo = ref_sqrt_dyadic(r_lo, P, up=False)
            r_hi = ref_sqrt_dyadic(r_hi, P, up=True)
        lo = ref_ipow_dyadic(r_lo, m_lo, P, up=False)
        hi = ref_ipow_dyadic(r_hi, m_hi, P, up=True)
        enc = between(1 / hi, 1 / lo) if invert else between(lo, hi)
        if enc.width < pow2(-tb):
            return enc
        j += max(16, tb // 2)


def dyadic_enclosure(t: Fraction, e: Fraction, tb: int) -> Enclosure:
    """The dyadic kernel's integer ends (lo, hi, den) of t**e at tb as an
    Enclosure, checked to be integers over the grid denominator 2^(tb+2)."""
    lo, hi, den = rigor._pow_dyadic_enclosure(t.numerator, t.denominator, e, tb)
    assert type(lo) is int and type(hi) is int and den == 1 << (tb + 2)
    return between(F(lo, den), F(hi, den))


def chain_and_ladder_steps(t: Fraction, e: Fraction, tb: int) -> int:
    """The loop steps the square-root-chain kernel took for t**e over all
    of its rounds: j directed square roots for each of the two chains and
    one ladder step per bit of each end's exponent, from j = tb + 8 up by
    max(16, tb // 2) until its width test passed.  A reference copy of that
    kernel on integer mantissas, kept to size the log/exp kernel's work."""
    invert = t < 1
    num, den = (t.denominator, t.numerator) if invert else (t.numerator, t.denominator)
    a, b = e.numerator, e.denominator
    mag = num.bit_length() - den.bit_length() + 1
    P0 = tb + 2 * mag - (-a * mag // b) + 16

    def sqrt_up(n: int) -> int:
        r = math.isqrt(n)
        return r + (r * r != n)

    def ladder(m: int, n: int, P: int, up: bool) -> int:
        result = 1 << P
        while n:
            if n & 1:
                result = -((-result * m) >> P) if up else (result * m) >> P
            n >>= 1
            if n:
                m = -((-m * m) >> P) if up else (m * m) >> P
        return result

    steps = 0
    for j in rigor.escalate(tb + 8, lambda _: max(16, tb // 2), 64, "dyadic power failed"):
        P = P0 + j
        n_lo, rem = divmod(num << (2 * P), den)
        r_lo, r_hi = math.isqrt(n_lo), sqrt_up(n_lo + (rem != 0))
        for _ in range(j - 1):
            r_lo, r_hi = math.isqrt(r_lo << P), sqrt_up(r_hi << P)
        m_lo, m_hi = (a << j) // b, -(-(a << j) // b)
        steps += 2 * j + m_lo.bit_length() + m_hi.bit_length()
        lo, hi = ladder(r_lo, m_lo, P, up=False), ladder(r_hi, m_hi, P, up=True)
        if (hi - lo) << (P + tb) < lo * hi if invert else hi - lo < 1 << (P - tb):
            return steps


def kernel_work(t: Fraction, e: Fraction, tb: int) -> tuple[Enclosure, int, int]:
    """(enclosure, steps, rounds) of the dyadic kernel on t**e at tb: the
    iterations of its big-integer loops (series terms, square roots,
    squarings), counted as line events on their loop headers, and its
    escalation rounds, one _exp_fixed call each.  Deterministic: no
    timing."""
    names = ("_atanh_recip", "_ln2", "_ln_fixed", "_exp_fixed")
    with open(rigor.__file__) as fh:
        tree = ast.parse(fh.read())
    headers = {
        loop.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in names
        for loop in ast.walk(node)
        if isinstance(loop, (ast.For, ast.While))
    }
    steps = rounds = 0

    def in_kernel(frame, event, arg):
        nonlocal steps
        if event == "line" and frame.f_lineno in headers:
            steps += 1
        return in_kernel

    def on_call(frame, event, arg):
        nonlocal rounds
        code = frame.f_code
        if code.co_filename == rigor.__file__ and code.co_name in names:
            rounds += code.co_name == "_exp_fixed"
            return in_kernel
        return None

    sys.settrace(on_call)
    try:
        enc = dyadic_enclosure(t, e, tb)
    finally:
        sys.settrace(None)
    return enc, steps, rounds


def point_ends(t: Fraction, e: Fraction, K: int) -> tuple[Fraction, Fraction]:
    """_pow_route's integer ends of t**e at 2^-K as two Fractions."""
    lo, hi, den = rigor._pow_route(t.numerator, t.denominator, e, K)
    return F(lo, den), F(hi, den)


def as_ends(lo: Fraction, hi: Fraction, scale: int = 1) -> tuple[int, int, int]:
    """The base [lo, hi] in the power kernels' integer form (lo, hi, den):
    a point over its own denominator, an interval over the product of its
    two, and every part times scale, so that scale > 1 writes the same
    value over an unreduced denominator."""
    if lo == hi:
        n, m, d = lo.numerator, lo.numerator, lo.denominator
    else:
        n, m = lo.numerator * hi.denominator, hi.numerator * lo.denominator
        d = lo.denominator * hi.denominator
    return n * scale, m * scale, d * scale


def between(lo: Fraction, hi: Fraction) -> Enclosure:
    """The Enclosure [lo, hi] of two rationals, over as_ends' denominator."""
    return Enclosure(*as_ends(F(lo), F(hi)))


def exact_bits(t: Fraction, e: Fraction, K: int) -> int:
    """The exact route's operand bound for the point power t**e."""
    return rigor._exact_pow_bits(t.numerator.bit_length(), t.denominator.bit_length(), *e.as_integer_ratio(), K)


def positive_rationals_but_one():
    side = st.integers(min_value=1, max_value=10**12)
    return st.builds(F, side, side).filter(lambda t: t != 1)


def exponents_up_to_three():
    """Rationals in (0, 3] of height up to 2^60."""
    return st.integers(min_value=1, max_value=2**60).flatmap(
        lambda b: st.integers(min_value=1, max_value=min(3 * b, 2**60)).map(lambda a: F(a, b))
    )


def check_dyadic_enclosure(t: Fraction, e: Fraction, tb: int) -> None:
    """The dyadic kernel's enclosure of t**e at tb passes the checks any
    correct kernel passes: it meets the square-root-chain kernel's, is
    narrower than 2^-tb, has its ends on the 2^-(tb+2) grid and, for b <= 8,
    brackets t**e exactly: lo^b <= t^a <= hi^b."""
    enc = dyadic_enclosure(t, e, tb)
    assert enc.intersects(ref_pow_dyadic_enclosure(t, e, tb))
    assert enc.width < pow2(-tb)
    a, b = e.numerator, e.denominator
    if b <= 8:
        assert enc.lo ** b <= t ** a <= enc.hi ** b


class TestDyadicPowerKernel:
    """The dyadic route of _pow_route, the one router of a point power,
    computes t**e = exp(e ln t) in fixed point with a certified radius.
    Its ends differ from those of the square-root-chain kernel it
    replaced, so each enclosure is checked to meet that kernel's, to be
    narrower than 2^-tb and to bracket t**e exactly where that is cheap."""

    @settings(max_examples=40)
    @given(positive_rationals_but_one(), exponents_up_to_three(), st.integers(1, 80))
    def test_matches_fraction_kernel(self, t, e, tb):
        check_dyadic_enclosure(t, e, tb)

    @settings(max_examples=80)
    @given(
        positive_rationals_but_one(),
        st.booleans(),
        exponents_up_to_three() | st.integers(0, 20).flatmap(
            lambda j: st.integers(1, 3 << j).map(lambda a: F(a, 1 << j))
        ),
        st.integers(0, 80),
    )
    def test_meets_the_reference_on_both_sides_of_one(self, t, below, e, tb):
        """The same checks on both sides of 1, for dyadic and non-dyadic
        e, and at tb = 0."""
        t = min(t, 1 / t) if below else max(t, 1 / t)
        check_dyadic_enclosure(t, e, tb)

    @pytest.mark.parametrize("shift", [64, 640])
    def test_work_is_sized_from_the_power(self, shift):
        """Work guard, free of timing noise.  A base 2^shift above 1, under
        an exponent of 400-bit height near 1/2, from an empty cache: at
        tb = 10 the square-root chains took 3 rounds for shift = 64 and 20
        for shift = 640.  Now both take one round, and at tb = 60 and 2000
        the kernel's loop steps are at most a third of the chains' and
        ladders' over all of their rounds."""
        rng = random.Random(shift)
        t = F(rng.getrandbits(shift + 60) | 1 << (shift + 59), rng.getrandbits(60) | 1 << 59)
        e = F(2**399 + 1, 2**400 + 3)
        for tb in (10, 60, 2000):
            rigor._DYADIC_POW_CACHE.clear()
            enc, steps, rounds = kernel_work(t, e, tb)
            assert enc.width < pow2(-tb) and rounds == 1
            if tb > 10:
                assert 0 < 3 * steps <= chain_and_ladder_steps(t, e, tb)

    def test_ln_once_per_base_and_precision(self, monkeypatch):
        """Every _pow_slack round reads both corner powers of each end, and
        they share the cached ln of their base: one _ln_fixed call per
        base over all the rounds and bracket ends of a call, on seeded
        bases of 100 to 3000 bits under oracle exponents and their views."""
        calls = []
        ln_fixed = rigor._ln_fixed

        def counted(num, den, f, W):
            calls.append((num, den))
            return ln_fixed(num, den, f, W)

        monkeypatch.setattr(rigor, "_ln_fixed", counted)
        rng = random.Random(3)
        reals = [sqrt_real(2), sqrt_real(3), ComputableReal.constant(F(3, 2))]
        for _ in range(60):
            bits = rng.choice([100, 1000, 3000])
            t = F(rng.getrandbits(bits) | 1 << (bits - 1), rng.getrandbits(bits) | 1 << (bits - 1))
            p = Exponent.from_real(rng.choice(reals))
            exp = rng.choice([p, p.half(), p.reciprocal()])
            rigor._DYADIC_POW_CACHE.clear()
            calls.clear()
            rigor._pow_slack([as_ends(t, t)], exp, rng.choice([10, 30, 60, 200]))
            assert len(calls) == len(set(calls)) == 1

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3000), st.integers(1, 3000), st.integers(0, 2**32), st.integers(8, 2000))
    def test_radii_bound_the_error(self, num_bits, den_bits, seed, W):
        """Each fixed-point helper's radius bounds its own error: mpmath.iv
        at W + 64 bits puts 2^W ln 2, 2^W ln v and 2^(W-n) exp(x) inside
        [M - R, M + R].  The kernel's ends are on a grid far coarser than
        these radii, so only this test sees a radius that is too small."""
        pytest.importorskip("mpmath")
        from mpmath import iv
        from mpmath.libmp import to_rational

        iv.prec = W + 64
        rng = random.Random(seed)
        num, den = rng.getrandbits(num_bits) | 1 << (num_bits - 1), rng.getrandbits(den_bits) | 1

        def holds(m, r, value):
            lo, hi = (F(*to_rational(end)) for end in value._mpi_)
            return m - r <= lo and hi <= m + r

        scale = iv.mpf(2) ** W
        l2 = rigor._ln2(W)
        assert holds(*l2, scale * iv.log(2))
        if num < den:
            num, den = den, num
        f = rigor._log2_floor(num, den)
        v = iv.mpf(num) / (iv.mpf(den) * iv.mpf(2) ** f)
        assert holds(*rigor._ln_fixed(num, den, f, W), scale * iv.log(v))
        z = rng.randrange(-(W + 8) << W, (W + 8) << W)
        n, m, r = rigor._exp_fixed(z, 0, W, l2)
        assert holds(m, r, iv.mpf(2) ** (W - n) * iv.exp(iv.mpf(z) / scale))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 2000),
        st.integers(1, 2000),
        st.integers(0, 2**32),
        st.sampled_from(["1/p", "p/2", "p"]),
        st.sampled_from([F(1), F(3, 2), F(2), F(7, 3), F(64), "sqrt2"]),
        st.sampled_from([1, 10, 60, 200, 2000]),
    )
    def test_matches_mpmath(self, num_bits, den_bits, seed, view, p, tb):
        """Differential against mpmath.iv at p <= 64 and tb <= 2000, bases
        of up to 2000 bits on both sides of 1, and exponents from bracket
        views of p: the dyadic enclosure meets mpmath's interval of t**e,
        evaluated with outward rounding at enough bits that its width is
        far below 2^-tb.  p = sqrt2 reads its exponent from the bracket of
        sqrt_real(2), 60 bits fine."""
        pytest.importorskip("mpmath")
        from mpmath import iv
        from mpmath.libmp import to_rational

        rng = random.Random(seed)
        t = F(rng.getrandbits(num_bits) | 1 << (num_bits - 1),
              rng.getrandbits(den_bits) | 1 << (den_bits - 1))
        if t == 1:
            return
        if p == "sqrt2":
            exp = Exponent.from_real(sqrt_real(2))
        else:
            exp = Exponent.from_real(ComputableReal.constant(p))
        exp = {"1/p": exp.reciprocal, "p/2": exp.half, "p": lambda: exp}[view]()
        e = exp.bracket(60)[rng.getrandbits(1)]
        enc = dyadic_enclosure(t, e, tb)
        assert enc.width < pow2(-tb)
        log2_size = abs(e * (num_bits - den_bits + 1))
        iv.prec = tb + int(log2_size) + 64
        power = (iv.mpf(t.numerator) / t.denominator) ** (iv.mpf(e.numerator) / e.denominator)
        lo, hi = (F(*to_rational(end)) for end in power._mpi_)
        assert hi - lo < pow2(-(tb + 8))
        assert enc.intersects(between(lo, hi)), (enc, lo, hi)

    def test_exact_route_at_the_budget(self):
        """Rational-track powers of large bases stay on the exact route: a
        budget set too low would turn this perfect power into an interval."""
        rng = random.Random(11)
        s = F(rng.getrandbits(1000) | 1 << 999, rng.getrandbits(1000) | 1 << 999)
        assert min(s.numerator.bit_length(), s.denominator.bit_length()) > 990
        for up in (False, True):
            assert point_ends(s ** 2, F(3, 2), 120)[up] == s ** 3
        got = pow_p(Enclosure.point(s ** 2), Exponent.from_rational(F(3, 2)), 120)
        assert got == Enclosure.point(s ** 3)

    def test_large_operands_take_the_dyadic_route(self):
        """An oracle-track bracket exponent on a 1500-bit base: the exact
        route would hand iroot a root operand of millions of bits."""
        rng = random.Random(12)
        t = F(rng.getrandbits(1500) | 1 << 1499, rng.getrandbits(1500) | 1 << 1499)
        e = F(128, 193)
        assert exact_bits(t, e, 15) > rigor._EXACT_POW_BUDGET
        lo, hi = point_ends(t, e, 15)
        assert hi - lo < pow2(-15)
        assert lo ** 193 <= t ** 128 <= hi ** 193


def point_powers():
    """(t, e, K) for point powers: small bases, perfect powers t = s^b
    (exact answers), and bases of 31k-34k bits under e = 1/2, whose root
    operand of about 2 * bits(t) + 2K bits straddles _EXACT_POW_BUDGET."""
    exps = st.sampled_from([F(1, 2), F(3, 4), F(3, 2), F(2), F(5, 3), F(1), F(2, 7)])
    precision = st.integers(1, 160)
    small = st.tuples(positive_rationals_but_one(), exps, precision)
    perfect = st.builds(
        lambda s, e, K: (s ** e.denominator, e, K), positive_rationals_but_one(), exps, precision
    )

    def large(bits, seed, K):
        rng = random.Random(seed)
        return (F(rng.getrandbits(bits) | 1 << (bits - 1), rng.getrandbits(bits) | 1), F(1, 2), K)

    big = st.builds(large, st.integers(31_000, 34_000), st.integers(0, 2**32), st.integers(1, 40))
    return st.one_of(small, perfect, big, st.tuples(st.sampled_from([F(0), F(1)]), exps, precision))


def point_box(t: F, e: F, K: int) -> Enclosure:
    """The rational-track _pow_slack box of the point t under e, whose
    directed rounding runs at K.  from_rational takes e >= 1, so a
    smaller e is the 1/p view of 1/e."""
    exp = Exponent.from_rational(e) if e >= 1 else Exponent.from_rational(1 / e).reciprocal()
    return Enclosure(*rigor._pow_slack([as_ends(t, t)], exp, K - 2)[0])


class TestPointPowers:
    """A rational-track point box reads both of its ends off one
    _pow_route result; it must give the very endpoints of that directed
    pair."""

    @settings(max_examples=60)
    @given(point_powers())
    def test_point_box_equals_two_directed_ends(self, case):
        t, e, K = case
        got = point_box(t, e, K)
        assert got == between(*point_ends(t, e, K))

    @pytest.mark.parametrize("half_bits, over", [(16_000, False), (16_500, True)])
    def test_both_sides_of_the_budget(self, half_bits, over):
        """Square roots of a perfect square s^2 and of a non-square next to
        it: exact below the budget, a dyadic interval past it.  The
        mantissa power reads the same budget: on a square m^2 / 4^(K+2),
        whose root lies on its 2^-(K+2) grid, it returns l == h exactly
        when the base is below the budget, at p = 1 so that p/2 = 1/2."""
        rng = random.Random(half_bits)
        s = F(rng.getrandbits(half_bits) | 1 << (half_bits - 1),
              rng.getrandbits(half_bits) | 1 << (half_bits - 1))
        e, K = F(1, 2), 10
        for t in (s * s, F(s.numerator ** 2 + 1, s.denominator ** 2)):
            assert (exact_bits(t, e, K) > rigor._EXACT_POW_BUDGET) == over
            got = point_box(t, e, K)
            assert got == between(*point_ends(t, e, K))
            assert got.lo ** 2 <= t <= got.hi ** 2
            assert got.width <= pow2(-K)
        assert (point_box(s * s, e, K) == Enclosure.point(s)) != over
        T = K + 2
        m = rng.getrandbits(2 * half_bits) | 1 << (2 * half_bits - 1) | 1
        num, den = m * m, 1 << (2 * T)
        assert (exact_bits(F(num, den), e, T) > rigor._EXACT_POW_BUDGET) == over
        ((l, h),) = rigor._pow_mantissas([(num, num, den)], Exponent.from_rational(1).half(), K)
        assert l <= m <= h
        assert (l == h) != over


def ref_dyadic_route(c: int, e: F, K: int) -> tuple[int, int, int]:
    """The exact route of 2^-c under e = a/b as _pow_route took it before
    dyadic bases took one root per residue: the perfect-power test on
    d^a = 2^(c a), then the floor-root of 2^(bK) / d^a, each by the
    independent newton_iroot."""
    a, b = e.numerator, e.denominator
    d = 1 << (c * a)
    if b == 1:
        return 1, 1, d
    rd = newton_iroot(d, b)
    if rd ** b == d:
        return 1, 1, rd
    s = newton_iroot((1 << (b * K)) // d, b)
    return s, s + 1, 1 << K


@st.composite
def dyadic_powers(draw):
    """(c, e, K) with c <= 4000, e = a/b for b <= 193 and K <= 2000, c and
    K cut down to the exact route's budget; some with b | c a, where the
    power is exact, and some with a small K, where bK < r."""
    budget = rigor._EXACT_POW_BUDGET
    b = draw(st.integers(1, 193))
    e = F(draw(st.integers(1, min(400, budget // (4 * b)))), b)
    a, b = e.numerator, e.denominator
    K = draw(st.integers(0, 3) | st.integers(0, 2000))
    while rigor._exact_pow_bits(1, 2, *e.as_integer_ratio(), K if b > 1 else 0) > budget:
        K //= 2
    c_max = 1
    while c_max < 4000 and rigor._exact_pow_bits(1, c_max + 2, *e.as_integer_ratio(), K if b > 1 else 0) <= budget:
        c_max += 1
    c = draw(st.integers(1, c_max))
    if not draw(st.integers(0, 3)) and b <= c_max:
        c -= c % b
    return c, e, K


class TestDyadicBaseRoots:
    """_pow_route on t = 2^-c takes (q, r) = divmod(c a, b): exact when
    r = 0, else floor(2^(K - r/b)) >> q from one root per (b, r, K)."""

    @settings(max_examples=150)
    @given(dyadic_powers())
    def test_equals_the_perfect_power_route(self, case):
        c, e, K = case
        t = F(1, 1 << c)
        assert exact_bits(t, e, K if e.denominator > 1 else 0) <= rigor._EXACT_POW_BUDGET
        assert rigor._pow_route(1, 1 << c, e, K) == ref_dyadic_route(c, e, K)

    def test_residue_cases(self):
        """b | c a gives the exact power; bK < r gives the floor 0; a root
        of the table serves every c of its residue."""
        e = F(1, 39)
        assert rigor._pow_route(1, 1 << 78, e, 50) == (1, 1, 4)
        assert rigor._pow_route(1, 1 << 5, e, 0) == (0, 1, 1)
        for c in (5, 44, 83):
            assert rigor._pow_route(1, 1 << c, e, 60) == ref_dyadic_route(c, e, 60)
        assert (39, 5, 60) in rigor._DYADIC_ROOTS


@pytest.mark.parametrize("value", [1.5, (1, 2), (F(1, 2), F(1, 3))])
def test_crat_of_takes_exact_scalars_only(value):
    """CRat.of reads a CRat, an int or a Fraction; a float or a pair is
    refused, not converted."""
    with pytest.raises(TypeError):
        CRat.of(value)


RATIONAL_ENTRIES = {
    "Enclosure": lambda q: Enclosure(q, 1, 1),
    "Enclosure.point": Enclosure.point,
    "Enclosure.from_center": lambda q: Enclosure.from_center(q, 1),
    "Enclosure.from_center radius": lambda q: Enclosure.from_center(0, q),
    "Enclosure.pad": lambda q: Enclosure.point(0).pad(q),
    "Enclosure.scale": lambda q: Enclosure.point(1).scale(q),
    "Enclosure.contains": lambda q: Enclosure.point(0).contains(q),
    "CRat": CRat,
    "CRat im": lambda q: CRat(0, q),
    "ComputableReal.approx": lambda q: ComputableReal(lambda _k: q).approx(3),
    "ComputableReal.constant": ComputableReal.constant,
    "Exponent.from_rational": Exponent.from_rational,
    "sqrt_real": sqrt_real,
}


@pytest.mark.parametrize("entry", sorted(RATIONAL_ENTRIES))
@pytest.mark.parametrize("value", [0.5, "1/2"])
def test_rational_entries_refuse_floats_and_strings(entry, value):
    """Every rational entry of rigor takes an int or a Fraction only: a
    float's binary value and a string are refused, not converted."""
    with pytest.raises(TypeError):
        RATIONAL_ENTRIES[entry](value)


crat_parts = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)
nonzero_scales = st.integers(-1000, 1000).filter(bool)


def unreduced(re: Fraction, im: Fraction, scale: int) -> tuple[int, int, int]:
    """re + im i as integers over the product of the two denominators,
    times scale: unreduced, and with a negative denominator for scale < 0."""
    dr, di = re.denominator, im.denominator
    return scale * re.numerator * di, scale * im.numerator * dr, scale * dr * di


def fraction_quadruple(re: Fraction, im: Fraction) -> list[int]:
    return [re.numerator, re.denominator, im.numerator, im.denominator]


class TestCanonicalCRat:
    """A CRat is the three integers (re, im, den), den >= 1 and
    gcd(re, im, den) = 1, however it was written: built from Fractions or
    from unreduced integers over a denominator of either sign, it is one
    value, and each printed form is the one the Fractions give."""

    @given(crat_parts, crat_parts, nonzero_scales)
    def test_one_value_from_fractions_and_integers(self, re, im, scale):
        z = CRat(re, im)
        w = CRat.from_ints(*unreduced(re, im, scale))
        assert z == w and hash(z) == hash(w)
        x, y, den = z.ints
        assert den >= 1 and math.gcd(x, y, den) == 1
        assert w.ints == z.ints and (w.re, w.im) == (re, im)
        assert copy.deepcopy(w) == w and pickle.loads(pickle.dumps(w)) == w
        with pytest.raises(AttributeError):
            w.ints = (1, 0, 1)

    @given(crat_parts, crat_parts, nonzero_scales)
    def test_printed_forms_read_as_the_fractions(self, re, im, scale):
        z = CRat.from_ints(*unreduced(re, im, scale))
        assert z.as_json() == [str(re), str(im)]
        assert repr(z) == (f"({re})" if im == 0 else f"({re} + {im}i)")
        rows = FiniteVector.from_items([(3, z)]).to_quintuples()
        assert rows == ([] if re == im == 0 else [[3, *fraction_quadruple(re, im)]])

    @given(crat_parts, nonzero_scales)
    def test_descriptor_json_reads_as_the_fractions(self, t, scale):
        """A Pythagorean scalar ((1 - t^2) + 2t i) / (1 + t^2), written
        unreduced in the descriptor file, prints back in lowest terms."""
        re, im = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
        x, y, den = unreduced(re, im, scale)
        row = [x, den, y, den]
        d = IsometryDescriptor.from_json({"phi": [[0, 0]], "lambdas": [row]})
        assert d.lambdas == (CRat(re, im),)
        assert d.as_json()["lambdas"] == [fraction_quadruple(re, im)]

    @given(crat_parts, crat_parts, st.sampled_from(["re", "im", "both"]))
    def test_a_zero_denominator_is_a_config_error(self, re, im, zeroed):
        """The descriptor reader raises ConfigError itself; the vector
        reader raises ZeroDivisionError, which classify's images reader
        turns into ConfigError."""
        rd = re.denominator if zeroed == "im" else 0
        imd = im.denominator if zeroed == "re" else 0
        with pytest.raises(ConfigError):
            IsometryDescriptor.from_json(
                {"phi": [[0, 0]], "lambdas": [[re.numerator, rd, im.numerator, imd]]}
            )
        row = [0, re.numerator, rd, im.numerator, imd]
        with pytest.raises(ZeroDivisionError):
            FiniteVector.from_quintuples([row])
        with tempfile.TemporaryDirectory() as tmp:
            images = Path(tmp) / "images.json"
            images.write_text(json.dumps({"images": [[row]]}))
            with pytest.raises(ConfigError):
                cli.cmd_classify(argparse.Namespace(p="2", input=str(images), tol=8))


enclosure_ends = st.lists(st.integers(-10**12, 10**12), min_size=2, max_size=2).map(sorted)
enclosure_dens = st.integers(1, 10**6)
positive_scales = st.integers(1, 1000)


class TestCanonicalEnclosure:
    """An Enclosure is the three integers (lo, hi, den), lo <= hi, den >= 1
    and gcd(lo, hi, den) = 1, however it was written: integer ends over
    any positive denominator, unreduced or not, are one value, and each
    printed form and reader is the one the Fraction ends give."""

    @given(enclosure_ends, enclosure_dens, positive_scales)
    def test_one_value_over_any_denominator(self, ends, den, scale):
        n, m = ends
        x = Enclosure(n, m, den)
        y = Enclosure(n * scale, m * scale, den * scale)
        assert x == y and hash(x) == hash(y)
        lo, hi, d = y.ints
        assert d >= 1 and math.gcd(lo, hi, d) == 1
        assert copy.copy(y) == y and copy.deepcopy(y) == y
        assert pickle.loads(pickle.dumps(y)) == y
        with pytest.raises(AttributeError):
            y.ints = (0, 1, 1)

    @given(enclosure_ends, enclosure_dens, positive_scales)
    def test_printed_forms_read_as_the_fractions(self, ends, den, scale):
        n, m = ends
        lo, hi = F(n, den), F(m, den)
        enc = Enclosure(n * scale, m * scale, den * scale)
        assert enc.as_json() == [str(lo), str(hi)]
        assert repr(enc) == f"[{lo}, {hi}]"
        assert (str(enc.lo), str(enc.hi)) == (str(lo), str(hi))
        assert (enc.width, enc.midpoint) == (hi - lo, (lo + hi) / 2)

    @given(enclosure_ends, enclosure_dens, enclosure_ends, enclosure_dens, crat_parts)
    def test_arithmetic_reads_as_the_fractions(self, ends, den, other_ends, other_den, q):
        """Each operation on the integers gives the ends the same operation
        gives on the Fraction ends."""
        x, y = Enclosure(*ends, den), Enclosure(*other_ends, other_den)
        lo, hi, olo, ohi = x.lo, x.hi, y.lo, y.hi
        assert x + y == between(lo + olo, hi + ohi)
        assert x - y == between(lo - ohi, hi - olo)
        assert -x == between(-hi, -lo)
        assert x.scale(q) == between(*sorted((lo * q, hi * q)))
        assert x.pad(abs(q)) == between(lo - abs(q), hi + abs(q))
        assert x.clamp_nonneg() == (x if lo >= 0 else between(0, max(hi, 0)))
        assert x.contains(q) == (lo <= q <= hi)
        assert x.intersects(y) == (lo <= ohi and olo <= hi)
        assert Enclosure.from_center(q, abs(q)) == between(q - abs(q), q + abs(q))
        if lo > 0 or hi < 0:
            assert x.recip() == between(1 / hi, 1 / lo)

    @given(enclosure_ends, enclosure_dens)
    def test_malformed_forms_are_refused(self, ends, den):
        """Inverted ends, a zero denominator and a negative one."""
        n, m = ends
        if n < m:
            with pytest.raises(ValueError):
                Enclosure(m, n, den)
        for bad in (-den, 0):
            with pytest.raises(ValueError):
                Enclosure(n, m, bad)


@pytest.mark.parametrize(
    "z", [CRat(F(1), F(1)), CRat(F(1, 3), F(-2, 7)), CRat(F(-5, 2), F(1, 1000))]
)
@pytest.mark.parametrize("k", [0, 10, 60])
def test_abs_enclosure_of_non_pythagorean_point(z, k):
    """|z| irrational: a dyadic box of width below 2^-k whose squared ends
    bracket |z|^2."""
    assert z.abs_exact() is None
    got = z.abs_enclosure(k)
    assert got.width < pow2(-k)
    assert 0 <= got.lo and got.lo ** 2 <= z.abs2() <= got.hi ** 2


class TestMantissaPowers:
    """The floor-root kernel and the mantissa power, certified by integer
    comparisons of b-th powers rather than by the code under test."""

    @given(st.integers(0, 1 << 300), st.integers(1, 1 << 120), st.integers(1, 7))
    def test_floor_root(self, num, den, b):
        r, exact = rigor._floor_root(num, den, b)
        assert r ** b * den <= num < (r + 1) ** b * den
        assert exact == (r ** b * den == num)

    @given(
        st.integers(0, 1 << 90),
        st.integers(0, 1 << 90),
        st.integers(1, 1 << 70),
        st.sampled_from([F(1, 2), F(3, 4), F(1), F(7, 6), F(3, 7), F(2)]),
        st.integers(0, 60),
        st.booleans(),
    )
    def test_pow_mantissas_brackets_with_slack_below_2_to_minus_K(
        self, lo, width, den, e, K, oracle
    ):
        hi = lo + width
        a, b, T = e.numerator, e.denominator, K + 2

        def exponent(on_oracle: bool) -> Exponent:
            """e on one track; below 1 as the 1/p view of p = 1/e, the way
            the p/2 and 1/p views reach the kernel."""
            q = 1 / e if e < 1 else e
            if on_oracle:
                p = Exponent.from_real(ComputableReal.constant(q))
            else:
                p = Exponent.from_rational(q)
            return p.reciprocal() if e < 1 else p

        ((l, h),) = rigor._pow_mantissas([(lo, hi, den)], exponent(False), K)
        # l <= 2^T (lo/den)^e and h >= 2^T (hi/den)^e, and the rational
        # track is tight: within one unit of either end.
        assert l ** b * den ** a <= lo ** a << (T * b) < (l + 1) ** b * den ** a
        assert hi ** a << (T * b) <= h ** b * den ** a
        assert h == 0 or (h - 1) ** b * den ** a < hi ** a << (T * b)
        if not oracle:
            return
        ((ol, oh),) = rigor._pow_mantissas([(lo, hi, den)], exponent(True), K)
        assert ol <= l and h <= oh
        # The slack allowed is 2^-K, which is 4 units, over the exact image
        # width W.  W lies in (h - l - 2, h - l], and equals h - l on exact
        # ends ([2, 3] at e = 1, K = 0: 4 units, and the oracle box spans 6),
        # so W is bounded from above 10 bits finer on the rational track.
        ((l10, h10),) = rigor._pow_mantissas([(lo, hi, den)], exponent(False), K + 10)
        assert (oh - ol) << 10 < h10 - l10 + (4 << 10)

    def test_integer_power_counts_its_shift(self, monkeypatch):
        """At p = 2 the mantissa power is m^1 << (K + 2) over den: the
        budget must count the shift.  Left out, a 65,536-bit upper end at
        K = 30 handed _floor_root a 65,568-bit operand; K + 2 bits less and
        the exact route still runs, exactly at the budget."""
        floor_root = rigor._floor_root
        operands = []

        def guarded(num, den, b):
            operands.append(max(num.bit_length(), den.bit_length()))
            return floor_root(num, den, b)

        monkeypatch.setattr(rigor, "_floor_root", guarded)
        half, K = Exponent.from_rational(2).half(), 30
        T = K + 2
        rng = random.Random(30)
        for bits in (rigor._EXACT_POW_BUDGET - T, rigor._EXACT_POW_BUDGET):
            m = rng.getrandbits(bits) | 1 << (bits - 1)
            ((l, h),) = rigor._pow_mantissas([(m, m, 3)], half, K)
            assert 3 * l <= m << T <= 3 * h
        assert operands == [rigor._EXACT_POW_BUDGET]


def ref_pow_mantissas(lo: int, hi: int, den: int, exp: Exponent, K: int) -> tuple[int, int]:
    """The mantissa power of one item [lo/den, hi/den], as _pow_mantissas
    took it before it took every item of a sum in one call; kept as the
    reference for that kernel."""
    T = K + 2
    e = exp.fast
    if e is not None:
        a, b = e.numerator, e.denominator
        if rigor._exact_pow_bits(hi.bit_length(), den.bit_length(), *e.as_integer_ratio(), T) <= rigor._EXACT_POW_BUDGET:
            den_a = den ** a

            def end(m: int) -> tuple[int, bool]:
                return rigor._floor_root(m ** a << (b * T), den_a, b)

            r, exact = end(lo)
            if lo != hi:
                r_hi, exact = end(hi)
                return r, r_hi if exact else r_hi + 1
            return r, r if exact else r + 1
    ((l, h, d),) = rigor._pow_slack([(lo, hi, den)], exp, K)
    return (l << T) // d, -((-h << T) // d)


# The exponents of the twisted norm's powers (p/2 at p = 1, 3/2 and 2, and
# 1/p at p = 3/2), 7/6, and p = 3/2 on the oracle track.
KERNEL_EXPONENTS = {
    "1/2": Exponent.from_rational(1).half(),
    "3/4": Exponent.from_rational(F(3, 2)).half(),
    "1": Exponent.from_rational(2).half(),
    "2/3": Exponent.from_rational(F(3, 2)).reciprocal(),
    "7/6": Exponent.from_rational(F(7, 6)),
    "oracle 3/2": Exponent.from_real(ComputableReal.constant(F(3, 2))),
}


@st.composite
def kernel_items(draw, e, K):
    """(lo, hi, den) for the mantissa kernel at exponent e and scale
    2^-(K+2): small items, or, for a rational e, items whose operand bound
    lies within a few bits of _EXACT_POW_BUDGET on either side, with hi and
    den of about one size so that the dyadic route past it stays cheap.
    Dens are powers of two, the form of every twisted-norm E_j term, or
    not."""
    pow2_den = draw(st.booleans())
    if e is None or draw(st.booleans()):
        den = 1 << draw(st.integers(0, 300)) if pow2_den else draw(st.integers(1, 1 << 200))
        lo = draw(st.integers(0, 1 << 400))
        return lo, lo + draw(st.integers(0, 1) | st.integers(0, 1 << 300)), den
    a, b, T, budget = e.numerator, e.denominator, K + 2, rigor._EXACT_POW_BUDGET
    if b == 1:
        db = hb = (budget - T) // a
    else:
        db = (budget - b * T) // (a * b)
        hb = (budget - (b - 1) * a * db - b * T) // a
    hb += draw(st.integers(-2, 3))
    # Drawn from a seed: hypothesis draws no integer of thousands of bits.
    rng = random.Random(draw(st.integers(0, 2**32)))
    den = 1 << (db - 1) if pow2_den else rng.getrandbits(db) | 1 << (db - 1)
    hi = rng.getrandbits(hb) | 1 << (hb - 1)
    return hi - draw(st.integers(0, 1) | st.integers(0, 1 << 64)), hi, den


class TestMantissaKernel:
    """_pow_mantissas takes a sum's items in one call and equals the
    per-item kernel it replaced, item by item."""

    @settings(max_examples=80)
    @given(st.data(), st.sampled_from(sorted(KERNEL_EXPONENTS)), st.integers(0, 80))
    def test_batch_equals_per_item_reference(self, data, name, K):
        exp = KERNEL_EXPONENTS[name]
        items = data.draw(st.lists(kernel_items(exp.fast, K), min_size=1, max_size=5))
        got = rigor._pow_mantissas(items, exp, K)
        assert got == [ref_pow_mantissas(*item, exp, K) for item in items]

    @pytest.mark.parametrize("name", [n for n in sorted(KERNEL_EXPONENTS) if "oracle" not in n])
    def test_both_sides_of_the_budget_in_one_call(self, name):
        """Items at the budget and one bit past it, over a power-of-two den
        and over an odd one, in one call: each takes its own route."""
        exp, K = KERNEL_EXPONENTS[name], 40
        e, T, budget = exp.fast, K + 2, rigor._EXACT_POW_BUDGET
        rng = random.Random(name)
        items = []
        for over in range(3):
            for pow2_den in (False, True):
                db = 300 if e.denominator == 1 else (budget - e.denominator * T) // (e.numerator * e.denominator)
                den = 1 << db if pow2_den else rng.getrandbits(db) | 1 << db | 1
                hb = 1
                while rigor._exact_pow_bits(hb + 1, den.bit_length(), *e.as_integer_ratio(), T) <= budget:
                    hb += 1
                hi = rng.getrandbits(hb + over) | 1 << (hb + over - 1)
                items.append((hi - rng.getrandbits(32), hi, den))
        sides = [rigor._exact_pow_bits(hi.bit_length(), den.bit_length(), *e.as_integer_ratio(), T) > budget
                 for _, hi, den in items]
        assert sides == [False, False, True, True, True, True]
        got = rigor._pow_mantissas(items, exp, K)
        assert got == [ref_pow_mantissas(*item, exp, K) for item in items]


def ref_pow_slack(x: Enclosure, exp: Exponent, K: int) -> Enclosure:
    """_pow_slack as an Enclosure, from _pow_route's ends as Fractions.  On
    the rational track, the lower end of x.lo**e and the upper end of
    x.hi**e at K + 2.  On the oracle track, the loop with no round
    skipped, on its own counter: every round reads both corner powers at
    each endpoint, and the passing round's box takes, at each end of x,
    the corner power at the exponent that end's side of 1 picks."""
    if exp.fast is not None:
        lo = point_ends(x.lo, exp.fast, K + 2)[0]
        return between(lo, point_ends(x.hi, exp.fast, K + 2)[1])
    kp = max(6, K // 2)
    for _ in range(64):
        e_lo, e_hi = exp.bracket(kp)
        gap = F(0)
        for t in (x.lo,) if x.lo == x.hi else (x.lo, x.hi):
            if t in (0, 1):
                continue
            at_hi = point_ends(t, e_hi, K + 3)[1]
            gap = max(gap, abs(at_hi - point_ends(t, e_lo, K + 3)[0]))
        if gap < pow2(-(K + 2)):
            lo = point_ends(x.lo, e_hi if x.lo < 1 else e_lo, K + 3)[0]
            hi = point_ends(x.hi, e_hi if x.hi > 1 else e_lo, K + 3)[1]
            return between(lo, hi)
        kp += max(8, K // 2)
    raise OracleFailure("exponent bracket failed to converge")


def power_bases():
    """Positive rationals on both sides of 1: random terms of up to about
    2000 bits, 1 +- 2^-m, and the endpoints 0 and 1.  A random base lies
    between 2^-2000 and 2^64: the dyadic kernel's escalation on t**e of
    hundreds of bits, which the loops under test share, would take
    seconds per example."""

    def random_base(den_bits, shift, seed):
        rng = random.Random(seed)
        num_bits = max(1, den_bits + shift)
        return F(rng.getrandbits(num_bits) | 1 << (num_bits - 1),
                 rng.getrandbits(den_bits) | 1 << (den_bits - 1))

    sizes = st.integers(1, 64) | st.integers(64, 2000)
    return st.one_of(
        st.builds(random_base, sizes, st.integers(-2000, 64), st.integers(0, 2**32)),
        st.builds(lambda m, sign: 1 + F(sign, 1 << m), st.integers(1, 200), st.sampled_from([-1, 1])),
        st.sampled_from([F(0), F(1)]),
    )


def base_enclosures():
    """Points and intervals of power_bases, some straddling 1."""
    bases = power_bases()
    return bases.map(Enclosure.point) | st.builds(
        lambda a, b: between(min(a, b), max(a, b)), bases, bases
    )


def oracle_exponents():
    """Oracle-track exponents p = sqrt(n) and constant-oracle rationals,
    and their p/2 and 1/p views, whose brackets may lie below 1."""
    reals = st.builds(sqrt_real, st.integers(1, 20)) | st.builds(
        ComputableReal.constant, st.fractions(1, 4, max_denominator=100)
    )
    views = {"p": lambda p: p, "p/2": Exponent.half, "1/p": Exponent.reciprocal}
    return st.builds(
        lambda real, view: views[view](Exponent.from_real(real)), reals, st.sampled_from(list(views))
    )


class TestOracleTrackPowers:
    """_pow_slack's oracle track skips rounds whose bracket certifies a
    corner gap that cannot pass, and builds its box from the corner powers
    of the passing round; neither may change a round's outcome or an
    endpoint."""

    @settings(max_examples=60)
    @given(base_enclosures(), oracle_exponents(), st.integers(0, 80))
    def test_skip_is_sound_and_output_unchanged(self, x, exp, K):
        ends = [t for t in {x.lo, x.hi} if t not in (0, 1)]
        terms = [rigor._gap_terms(t.numerator, t.denominator) for t in ends]
        threshold = pow2(-(K + 2))

        def must_fail(kp):
            e_lo, e_hi = exp.bracket(kp)
            return rigor._gap_must_fail(terms, rigor._gap_bits(e_lo, e_hi, K), e_hi)

        def true_gap_above(kp, bound):
            """Whether some true corner gap may reach bound: an upper
            bound on it from corner powers 20 bits finer than the loop's."""
            e_lo, e_hi = exp.bracket(kp)
            for t in ends:
                (lo_a, hi_a), (lo_b, hi_b) = (point_ends(t, e, K + 23) for e in (e_lo, e_hi))
                if max(hi_b - lo_a, hi_a - lo_b) >= bound:
                    return True
            return False

        # The tightest claim: the last bracket, one bit finer at a time
        # from the loop's first, that the predicate says must fail.  Its
        # true corner gap is at least 2^-(K+1).
        kp0, step = max(6, K // 2), max(8, K // 2)
        kp = kp0
        while kp < kp0 + 64 * step and must_fail(kp):
            kp += 1
        if kp > kp0:
            assert true_gap_above(kp - 1, 2 * threshold)
        # The loop's own rounds: a round the predicate skips reads a gap
        # at K + 3 of at least 2^-(K+2), so it could not have passed.
        for kp in range(kp0, kp0 + 64 * step, step):
            e_lo, e_hi = exp.bracket(kp)
            base = (x.lo.numerator, x.lo.denominator, x.hi.numerator, x.hi.denominator)
            box = rigor._exp_gap(base, e_lo, e_hi, K + 3)
            if rigor._gap_must_fail(terms, rigor._gap_bits(e_lo, e_hi, K), e_hi):
                assert box is None
            if box is not None:
                break
        # x alone, and x repeated among other bases: twice as it is and
        # once over a denominator six times as large, which share one box.
        x_ends = as_ends(x.lo, x.hi)
        repeated = [x_ends, (1, 1, 3), as_ends(x.lo, x.hi, 6), x_ends, (5, 7, 1)]
        try:
            want = ref_pow_slack(x, exp, K)
        except OracleFailure:
            for bases in ([x_ends], repeated):
                with pytest.raises(OracleFailure):
                    rigor._pow_slack(bases, exp, K)
            return
        assert [Enclosure(*box) for box in rigor._pow_slack([x_ends], exp, K)] == [want]
        boxes = rigor._pow_slack(repeated, exp, K)
        assert boxes[0] == boxes[2] == boxes[3]
        assert Enclosure(*boxes[0]) == want

    def test_sqrt2_norm_work(self, monkeypatch):
        """Work guard, free of timing noise: _exp_gap rounds in one seeded
        m = 64, k = 30 norm at p = sqrt(2), from an empty dyadic cache.
        It ran 167 while every round computed its corner powers, and 89
        while each base of a sum ran its own bracket escalation.  The
        cache it leaves holds integer keys only."""
        rng = random.Random(7)
        vector = FiniteVector.from_items(
            [(i, F(rng.randint(-9, 9), rng.randint(1, 9))) for i in range(64)]
        )
        rounds = 0
        exp_gap = rigor._exp_gap

        def counted(*args):
            nonlocal rounds
            rounds += 1
            return exp_gap(*args)

        monkeypatch.setattr(rigor, "_exp_gap", counted)
        rigor._DYADIC_POW_CACHE.clear()
        norm_p(vector, Exponent.from_real(sqrt_real(2)), 30)
        assert rounds <= 56 < 89
        keys = list(rigor._DYADIC_POW_CACHE._data)
        assert keys and all(
            isinstance(key, tuple) and all(type(part) is int for part in key) for key in keys
        )


    @staticmethod
    def seeded_bases(seed: int, count: int) -> list[tuple[int, int, int]]:
        """count distinct seeded bases on both sides of 1, points and
        intervals, in the kernels' integer form."""
        rng = random.Random(seed)
        bases = set()
        while len(bases) < count:
            a = F(rng.randint(1, 10**6), rng.randint(1, 10**6))
            bases.add((a, a) if rng.random() < 0.7 else (a, a + F(1, rng.randint(2, 10**6))))
        return [as_ends(lo, hi) for lo, hi in sorted(bases)]

    def test_sum_reads_each_bracket_once_per_round(self, monkeypatch):
        """Work guard: one oracle-track _pow_sum reads the bracket of its
        exponent once per round, at the schedule's precisions, not once
        per base; it read one bracket per base and round while each base
        ran its own escalation."""
        bases = self.seeded_bases(11, 40)
        reads = []
        bracket = Exponent.bracket
        for view in ("p", "p/2", "1/p"):
            p = Exponent.from_real(sqrt_real(2))
            exp = {"p": p, "p/2": p.half(), "1/p": p.reciprocal()}[view]

            def counted(self, k, exp=exp):
                if self is exp:
                    reads.append(k)
                return bracket(self, k)

            monkeypatch.setattr(Exponent, "bracket", counted)
            for K in (0, 30, 200):
                reads.clear()
                rigor._pow_sum(bases, exp, K)
                kp0, step = max(6, K // 2), max(8, K // 2)
                assert reads == [kp0 + i * step for i in range(len(reads))]
                assert 1 <= len(reads) <= 4
            monkeypatch.undo()

    def test_exp_gap_once_per_distinct_base_and_round(self, monkeypatch):
        """Work guard: a sum that repeats its bases, as they are and over
        a denominator five times as large, reads each distinct base's
        corner gaps once per round, the calls the distinct bases alone
        make."""
        distinct = self.seeded_bases(12, 12)
        copies = [(5 * lo, 5 * hi, 5 * den) for lo, hi, den in distinct]
        repeated = distinct * 3 + copies
        random.Random(12).shuffle(repeated)
        calls = []
        exp_gap = rigor._exp_gap

        def counted(*args):
            calls.append(args)
            return exp_gap(*args)

        monkeypatch.setattr(rigor, "_exp_gap", counted)
        for p in (sqrt_real(2), ComputableReal.constant(F(3, 2))):
            for exp in (Exponent.from_real(p), Exponent.from_real(p).half()):
                for K in (10, 60):
                    calls.clear()
                    alone = Enclosure(*rigor._pow_sum(distinct, exp, K))
                    once = sorted(calls)
                    calls.clear()
                    got = Enclosure(*rigor._pow_sum(repeated, exp, K))
                    assert (got.lo, got.hi) == (4 * alone.lo, 4 * alone.hi)
                    assert sorted(calls) == once
                    assert len(set(calls)) == len(calls) >= len(distinct)


def rational_exponents():
    """Rational-track exponents and their p/2 and 1/p views."""
    views = {"p": lambda p: p, "p/2": Exponent.half, "1/p": Exponent.reciprocal}
    return st.builds(
        lambda q, view: views[view](Exponent.from_rational(q)),
        st.sampled_from([F(1), F(3, 2), F(2), F(7, 6), F(3)]),
        st.sampled_from(list(views)),
    )


@st.composite
def repeated_bases(draw):
    """A list of base_enclosures with repeats, in the kernels' integer
    form: each entry is one of a few distinct bases, over its own
    denominator or over one seven times as large."""
    distinct = draw(st.lists(base_enclosures(), min_size=1, max_size=4))
    bases = []
    for i in draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=8)):
        x = distinct[i]
        bases.append(as_ends(x.lo, x.hi, 7 if draw(st.booleans()) else 1))
    return bases


def first_failure(bases, exp: Exponent, K: int):
    """The per-base loop's answer: one ref_pow_slack per base (lo, hi,
    den), in order, or the message of the first OracleFailure it raises."""
    try:
        return [ref_pow_slack(Enclosure(*base), exp, K) for base in bases]
    except OracleFailure as exc:
        return str(exc)


class TestPowerSlackKernel:
    """_pow_slack takes every base of a sum in one call and equals the
    per-base loop it replaced, base by base, on both exponent tracks, and
    fails as that loop fails."""

    @settings(max_examples=50, deadline=None)
    @given(repeated_bases(), oracle_exponents() | rational_exponents(), st.integers(0, 80))
    def test_list_equals_per_base_reference(self, bases, exp, K):
        want = first_failure(bases, exp, K)
        if isinstance(want, str):
            with pytest.raises(OracleFailure) as info:
                rigor._pow_slack(bases, exp, K)
            assert str(info.value) == want
            return
        assert [Enclosure(*box) for box in rigor._pow_slack(bases, exp, K)] == want

    def test_failures_match_the_per_base_loop(self):
        """An oracle that claims 40 bits, as ``--p oracle:1.5:40`` builds
        it, one certified below 1, and a base whose gap cannot close in
        64 rounds each raise the per-base loop's message; every view of
        the first fails at the bracket of the first round past 40 bits."""
        few = parse_p("oracle:1.5:40")
        below = Exponent.from_real(ComputableReal.constant(F(9999, 10000)))
        three_halves, steep = Exponent.from_real(ComputableReal.constant(F(3, 2))), 1 << 400
        cases = [
            (exp, bases, K)
            for exp in (few, few.half(), few.reciprocal())
            for bases in ([(3, 3, 1), (1, 2, 3), (3, 3, 1)], [(1, 1, 1)] * 2)
            for K in (10, 60, 200)
        ]
        cases += [(below, [(2, 2, 1)], 30), (three_halves, [(2, 3, 1), (steep, steep, 1)], 4)]
        messages = set()
        for exp, bases, K in cases:
            want = first_failure(bases, exp, K)
            if isinstance(want, str):
                messages.add(want.split(",")[0])
                with pytest.raises(OracleFailure) as info:
                    rigor._pow_slack(bases, exp, K)
                assert str(info.value) == want
            else:
                boxes = rigor._pow_slack(bases, exp, K)
                assert [Enclosure(*box) for box in boxes] == want
        assert messages == {
            "exponent oracle only claims 40 bits",
            "exponent oracle const(9999/10000) is certified below 1",
            "exponent bracket failed to converge",
        }

    @pytest.mark.parametrize("track", ["rational", "oracle"])
    def test_negative_base_and_empty_list(self, track):
        p = Exponent.from_rational(F(3, 2))
        if track == "oracle":
            p = Exponent.from_real(ComputableReal.constant(F(3, 2)))
        for exp in (p, p.half(), p.reciprocal()):
            assert rigor._pow_slack([], exp, 30) == []
            with pytest.raises(NegativeBase):
                rigor._pow_slack([(2, 2, 1), (-1, 1, 3)], exp, 30)


class TestLowestTerms:
    """_pow_slack reduces each end of a base to lowest terms once, on
    entry, so every route choice reads the value and not how it is
    written: equal values over different denominators give identical
    boxes on both exponent tracks, each base taken alone."""

    # 40,001 bits and odd: a factor that puts an unreduced operand past
    # _EXACT_POW_BUDGET under every exponent below, and that gcd strips.
    BIG = (1 << 40_000) + 1

    @staticmethod
    def exponents(track: str) -> list[Exponent]:
        if track == "rational":
            p = Exponent.from_rational(F(3, 2))
        else:
            p = Exponent.from_real(sqrt_real(2))
        return [p, p.half(), p.reciprocal()]

    def forms(self) -> list[list[tuple[int, int, int]]]:
        """Lists of one value written several ways: 1/2 over 2 and 4 and
        over 2 BIG, where the unreduced operand passes the budget; 3/2, a
        base off the dyadic branch, over 2 BIG; an interval over its own
        denominators' product and over nine times it; and 0 and 1."""
        big = self.BIG
        return [
            [(1, 1, 2), (2, 2, 4), (big, big, 2 * big)],
            [(3, 3, 2), (3 * big, 3 * big, 2 * big)],
            [(1, 2, 3), (9, 18, 27)],
            [(0, 0, 1), (0, 0, 5)],
            [(1, 1, 1), (7, 7, 7)],
        ]

    @pytest.mark.parametrize("track", ["rational", "oracle"])
    def test_equal_values_give_identical_boxes(self, track):
        big = self.BIG
        for exp in self.exponents(track):
            e = exp.fast if exp.fast is not None else exp.bracket(6)[0]
            assert rigor._exact_pow_bits(big.bit_length(), (2 * big).bit_length(), *e.as_integer_ratio(), 10) > (
                rigor._EXACT_POW_BUDGET
            )
            for K in (10, 40):
                for forms in self.forms():
                    boxes = [rigor._pow_slack([form], exp, K)[0] for form in forms]
                    assert boxes == [boxes[0]] * len(forms)

    def test_perfect_power_seen_only_in_lowest_terms(self):
        """4/16 is 1/4, whose square root 1/2 is exact; read unreduced,
        the dyadic-base branch would not see 2^-2 and the root of 16
        would come back over 4 instead."""
        half = Exponent.from_rational(2).reciprocal()
        for K in (0, 10, 60):
            assert rigor._pow_slack([(4, 4, 16)], half, K) == [(1, 1, 2)]
            assert rigor._pow_slack([(4, 4, 16), (1, 1, 4)], half, K) == [(1, 1, 2)] * 2

    @pytest.mark.parametrize("track", ["rational", "oracle"])
    def test_quad_ends_unreduced_numerators(self, track):
        """The expansion route hands _pow_sum each quadratic's ends over
        D v^2 as _quad_ends forms them; they give the box of the same
        value over its reduced denominators, and the sum of the reduced
        values."""
        from lpcat.twisted import _quad_ends, _residual_quads

        a0 = CRat(F(3, 5), F(-4, 7))
        coeffs = (a0, CRat(F(1, 3), F(2, 9)), CRat(F(-5, 4)))
        target = FiniteVector.from_items([(0, CRat(F(1, 2))), (2, CRat(F(2, 3), F(1, 6)))])
        quads = _residual_quads(a0, coeffs, target, 3)
        for exp in self.exponents(track):
            inverse, half = exp.reciprocal(), exp.half()
            for K in (10, 40):
                us = rigor._pow_slack([(1, 1, 1 << c) for c in (1, 3, 5, 7)], inverse, K + 4)
                raw = [_quad_ends(quad, u) for quad, u in zip(quads, us)]
                assert any(math.gcd(lo, den) > 1 for lo, _, den in raw)
                reduced = [as_ends(F(lo, den), F(hi, den)) for lo, hi, den in raw]
                assert rigor._pow_slack(raw, half, K) == rigor._pow_slack(reduced, half, K)
                assert rigor._pow_sum(raw, half, K) == rigor._pow_sum(reduced, half, K)

    # The sum at K as a Fraction pair: a point; a sum certified below
    # 2^-(k+1)p with lower end 0; one far below 1, which takes the guard
    # jump; and one above 1, whose root is taken in the first round.  The
    # jump's lower end 2^-98 / 3 has L = 100, while the bit lengths of its
    # lowest terms read 99: a guard that skips the comparison moves K.
    SUMS = {
        "point": lambda K: (F(1, 3), F(1, 3)),
        "zero lower end": lambda K: (F(0), pow2(-200)),
        "guard jump": lambda K: (pow2(-98) / 3, pow2(-98) / 3 + pow2(-(K + 1))),
        "root": lambda K: (F(5, 3) - pow2(-(K + 2)), F(5, 3) + pow2(-(K + 2))),
    }

    @pytest.mark.parametrize("case", sorted(SUMS))
    @pytest.mark.parametrize("p_name", ["3/2", "sqrt2"])
    def test_equal_sums_give_equal_norms(self, p_name, case):
        """norm_from_power_sum reads the value of sum_at's (lo, hi, den):
        one sum over the product of its ends' denominators, over three
        times that and in lowest terms gives one Enclosure from the same
        reads, the one ref_norm_from_power_sum gives on the Enclosure
        form, through each exit of the loop."""
        sum_at = self.SUMS[case]

        def lowest(lo, hi):
            d = math.lcm(lo.denominator, hi.denominator)
            return lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator), d

        forms = [as_ends, lambda lo, hi: as_ends(lo, hi, 3), lowest]
        for k in (10, 30):
            p = NORM_EXPONENTS[p_name]()
            want = ref_norm_from_power_sum(lambda K: between(*sum_at(K)), p, k)
            runs = []
            for form in forms:
                asked = []

                def ends(K):
                    asked.append(K)
                    return form(*sum_at(K))

                runs.append((rigor.norm_from_power_sum(ends, p, k), asked))
            got, asked = runs[0]
            assert runs == [(want, asked)] * len(forms)
            assert got.width < pow2(-k)
            if case == "zero lower end":
                assert got == between(F(0), pow2(-(k + 1)))
            elif case == "guard jump":
                assert asked[1] - asked[0] > max(8, k // 2)
            else:
                assert asked == [k + 4]


class TestComputableReal:
    def test_refine_contract(self):
        third = ComputableReal.constant(F(1, 3))
        enc = third.enclosure(5)
        assert enc.width == pow2(-4)
        assert enc.contains(F(1, 3))

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


MEMO_ORACLES = {
    "real": (ComputableReal, "approx"),
    "vector": (
        lambda fn: VectorRep(StandardGenSet(Exponent.from_rational(2)), lambda k: [fn(k)]),
        "coefficients",
    ),
}


@pytest.mark.parametrize("make, method", MEMO_ORACLES.values(), ids=list(MEMO_ORACLES))
def test_memo_contract(make, method):
    """Every precision oracle computes each k once, counts every query and
    the largest k asked, and rejects a negative k before counting it."""
    computed = []

    def fn(k):
        computed.append(k)
        return F(1, k + 1)

    oracle = make(fn)
    query = getattr(oracle, method)
    answers = [query(k) for k in (3, 1, 3, 5, 1)]
    assert computed == [3, 1, 5]
    assert answers[0] == answers[2] and answers[1] == answers[4]
    assert oracle.stats.count == 5 and oracle.stats.max_k == 5
    with pytest.raises(ValueError):
        query(-1)
    assert computed == [3, 1, 5] and oracle.stats.count == 5


class TestSimplestBetween:
    def test_examples(self):
        assert simplest_between(F(2885, 1000), F(3115, 1000)) == 3
        assert simplest_between(F(1, 2), F(5, 2)) == 1
        assert simplest_between(F(2, 3), F(3, 4)) == F(2, 3)
        assert simplest_between(F(-1, 3), F(1, 5)) == 0
        assert simplest_between(F(-7, 2), F(-10, 3)) == F(-7, 2)

    def test_deep_descent(self):
        """An interval of width about 2^-1527 around the golden ratio takes
        about 1100 continued-fraction steps."""
        a, b = 1, 1
        for _ in range(1100):
            a, b = b, a + b
        lo, hi = sorted((F(b, a), F(a + b, b)))
        assert simplest_between(lo, hi) == F(b, a)

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


@given(st.integers(1, 1 << 200), st.integers(1, 1 << 200))
def test_ceil_log2_least_power_above(n, d):
    q = F(n, d)
    t = ceil_log2(q)
    assert pow2(t - 1) < q <= pow2(t)
