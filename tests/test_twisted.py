"""The twisted presentation and both reduction directions.

Ground truth used here is computed independently of the code paths under
test: gamma for the odd numbers is the exact geometric-series value 2/3,
residual norms at p = 1 are re-derived by hand-coded coordinate expansion
with that exact gamma, and membership bits are compared against the sets'
decision procedures.
"""

import hashlib
import json
import math
import random
import threading
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from lpcat import rigor
from lpcat import (
    AccessViolation,
    CeSet,
    ConfigError,
    CRat,
    DegenerateScaleWarning,
    Enclosure,
    Exponent,
    FiniteVector,
    OracleFailure,
    TwistedGenSet,
    approx_e0,
    basis,
    ce_set_from_spec,
    e0_rep,
    expanded_residual_norm,
    extract_scale,
    f0_norm_sandwich,
    gamma_from_scale,
    membership_bits,
    norm_p,
    pow2,
    rep_with_offset_fault,
    scale_real,
    sqrt_real,
)
from lpcat import twisted
from lpcat.cli import main, parse_p
from lpcat.rigor import CRAT_ZERO, ComputableReal, ceil_log2, norm_from_power_sum, root_p
from lpcat.twisted import (
    _decide_bits,
    _quad_ends,
    _residual_quads,
)
from test_rigor import ref_pow_slack

F = Fraction
DATA = Path(__file__).parent / "data"

GAMMA_ODDS = sum(F(1, 2 ** (2 * j + 1)) for j in range(60)) + F(2, 3) / 4 ** 60
assert GAMMA_ODDS == F(2, 3)  # independent geometric-series check


def explicit_set():
    return CeSet.explicit([2, 5, 9], label="explicit259")


def throttled_set():
    return explicit_set().with_delays([(5, 7), (2, 3)], label="throttled259")


def gamma_of(ce: CeSet, offset=0) -> ComputableReal:
    """A gamma oracle read off the set's decision-mode enclosures, off by a
    fixed offset when one is given."""
    return ComputableReal(lambda k: ce.gamma_enclosure(k).lo + offset)


class TestCeSets:
    def test_zero_never_member(self):
        for ce in (CeSet.odds(), CeSet.primes(), explicit_set()):
            assert ce.decide(0) is False

    def test_enumeration_shape(self):
        for ce in (CeSet.odds(), CeSet.primes(), explicit_set(), throttled_set()):
            prefix = ce.prefix(20)
            assert len(prefix) == 21
            assert len(set(prefix)) == 21  # injective
            assert ce.prefix(10) == prefix[:11]  # stage-monotone
            assert all(ce.decide(c) for c in prefix)
            assert 0 not in prefix

    def test_orders(self):
        assert CeSet.odds().prefix(4) == (1, 3, 5, 7, 9)
        assert CeSet.primes().prefix(4) == (2, 3, 5, 7, 11)
        assert explicit_set().prefix(5) == (2, 5, 9, 10, 11, 12)

    def test_throttle_pins_stages(self):
        ce = throttled_set()
        prefix = ce.prefix(8)
        assert prefix[3] == 2 and prefix[7] == 5
        assert set(prefix) == {2, 5, 9, 10, 11, 12, 13, 14, 15}
        assert not ce.sorted_enumeration

    def test_explicit_validation(self):
        with pytest.raises(ConfigError):
            CeSet.explicit([0, 3])
        with pytest.raises(ConfigError):
            CeSet.explicit([1, 2, 3])  # covers 1..max, gamma would be 1
        with pytest.raises(ConfigError):
            CeSet.explicit([])

    def test_delay_validation(self):
        with pytest.raises(ConfigError):
            explicit_set().with_delays([(4, 1)])  # 4 not a member
        with pytest.raises(ConfigError):
            explicit_set().with_delays([(2, 1), (5, 1)])  # stage clash

    @pytest.mark.parametrize(
        "build",
        [
            lambda: CeSet.explicit([1.9, 3]),
            lambda: CeSet.explicit(["5", 2]),
            lambda: explicit_set().with_delays([(5.0, 7)]),
            lambda: explicit_set().with_delays([(5, "7")]),
        ],
        ids=["explicit-float", "explicit-str", "delay-float", "delay-str"],
    )
    def test_builders_refuse_non_integers(self, build):
        """An element or stage that is not an int is refused, where int()
        would truncate 1.9 to 1 or parse "5"."""
        with pytest.raises(ConfigError):
            build()

    def test_spec_loader(self):
        ce = ce_set_from_spec({"label": "x", "kind": "odds"})
        assert ce.prefix(1) == (1, 3)
        ce = ce_set_from_spec(
            {"label": "t", "kind": "throttled", "elements": [2, 5, 9], "delays": [[5, 7]]}
        )
        assert ce.element_at(7) == 5
        with pytest.raises(ConfigError):
            ce_set_from_spec({"kind": "explicit", "elements": [0, 2]})
        with pytest.raises(ConfigError):
            ce_set_from_spec({"kind": "unknown"})
        # Listed and delayed elements lie in [1, 4096]; the error names one
        # that does not.
        assert ce_set_from_spec({"kind": "explicit", "elements": [1, 4096]}).decide(4096)
        for spec, bad in (
            ({"kind": "explicit", "elements": [-3]}, -3),
            ({"kind": "explicit", "elements": [1, 4097]}, 4097),
            ({"kind": "throttled", "elements": [1, 5], "delays": [[5000, 1]]}, 5000),
        ):
            with pytest.raises(ConfigError, match=f"set element {bad} is outside"):
                ce_set_from_spec(spec)
        # A label is a string, and a spec has no other keys; the error
        # names the field.
        for spec, bad in (
            ({"label": 7, "kind": "odds", "bogus": 1}, "'bogus'"),
            ({"label": 7, "kind": "odds"}, "'label'"),
            ({"label": ["x"], "kind": "explicit", "elements": [2]}, "'label'"),
            ({"kind": "odds", "Label": "x"}, "'Label'"),
        ):
            with pytest.raises(ConfigError, match=bad):
                ce_set_from_spec(spec)
        assert ce_set_from_spec({"label": "", "kind": "odds"}).label == "odds"

    @pytest.mark.parametrize("kind, delays", [
        ("odds", None), ("odds", [(3, 5)]),
        ("primes", None), ("primes", [(5, 6), (2, 3)]),
        ("explicit", None), ("explicit", [(5, 7), (2, 3)]),
    ])
    def test_spec_round_trip(self, kind, delays):
        """spec_json() is what built the set: the loader rebuilds it with
        the same spec, label and enumeration, delays on any kind."""
        if kind == "explicit":
            ce = CeSet.explicit([2, 5, 9], label="mine")
        else:
            ce = getattr(CeSet, kind)(label="mine")
        if delays:
            ce = ce.with_delays(delays, label="mine-late")
        spec = ce.spec_json()
        rebuilt = ce_set_from_spec(spec)
        assert rebuilt.spec_json() == spec
        assert rebuilt.label == ce.label == spec["label"]
        assert rebuilt.prefix(20) == ce.prefix(20)

    def test_throttled_is_explicit_with_delays(self):
        """Delays keep an odds or primes set's kind; an explicit set with
        delays is a throttled one, which needs its elements."""
        assert throttled_set().spec_json() == json.loads(
            (DATA / "ce_throttled.json").read_text()
        )
        assert CeSet.odds().with_delays([(3, 5)]).spec_json() == {
            "label": "odds~throttled", "kind": "odds", "delays": [[3, 5]],
        }
        with pytest.raises(ConfigError, match="throttled sets need an elements list"):
            ce_set_from_spec({"kind": "throttled", "delays": [[3, 5]]})

    def test_printed_spec_is_a_copy(self):
        """Editing a printed spec changes neither the set's enumeration nor
        what it prints next."""
        ce = throttled_set()
        spec = ce.spec_json()
        spec["elements"].append(99)
        spec["delays"][0][1] = 1
        assert ce.spec_json() == json.loads((DATA / "ce_throttled.json").read_text())
        assert ce.prefix(8) == throttled_set().prefix(8)

    def test_access_views(self):
        ce = CeSet.odds()
        view = ce.view()
        assert view.element_at(0) == 1
        assert view.prefix(2) == (1, 3, 5)
        assert view.left_sum(1) == F(5, 8)
        assert (view.label, view.sorted_enumeration) == ("odds", True)
        assert view.stats is ce.stats
        before = (ce.stats.max_stage, ce.stats.decide_calls)
        for name, args in (("decide", (3,)), ("gamma_enclosure", (40,))):
            with pytest.raises(AccessViolation):
                getattr(view, name)(*args)
        assert (ce.stats.max_stage, ce.stats.decide_calls) == before
        for name in ("exact_gamma", "spec_json", "_member"):
            with pytest.raises(AttributeError):
                getattr(view, name)


def ref_tail_mass(ce: CeSet, s: int, k: int) -> Enclosure:
    """CeSet.tail_mass on Enclosures: gamma's enclosure minus the point left
    sum, clamped at 0, capped by 2^-c_s on a sorted enumeration."""
    tail = (ce.gamma_enclosure(k) - Enclosure.point(ce.left_sum(s))).clamp_nonneg()
    if ce.sorted_enumeration:
        tail = Enclosure(tail.lo, min(tail.hi, pow2(-ce.element_at(s))))
    return tail


class TestGammaReal:
    """gamma = sum_{c in C} 2^-c through the set's own faces: the
    enumeration stream left_sum and the decision-mode enclosures."""

    def test_left_stream_monotone_below_gamma(self):
        ce = CeSet.odds()
        sums = [ce.left_sum(s) for s in range(12)]
        assert all(a < b for a, b in zip(sums, sums[1:]))
        assert all(s < GAMMA_ODDS for s in sums)

    def test_enclosure_contains_exact(self):
        ce = CeSet.odds()
        for k in (1, 5, 12, 30):
            enc = ce.gamma_enclosure(k)
            assert enc.contains(GAMMA_ODDS)
            assert enc.width <= pow2(-k)

    def test_explicit_exact_gamma(self):
        ce = explicit_set()
        expected = F(1, 4) + F(1, 32) + F(1, 512) + F(1, 512)
        assert ce.exact_gamma() == expected
        assert ce.gamma_enclosure(20).contains(expected)

    def test_tail_bound_from_least_missing(self):
        """gamma - gamma_s is at most 2^-(least natural not yet enumerated)."""
        ce = CeSet.odds()
        for s in range(1, 10):
            left = ce.left_sum(s)
            missing = min(set(range(1, 50)) - set(ce.prefix(s)))
            assert GAMMA_ODDS - left <= pow2(-missing)

    def test_real_consistency(self):
        x = gamma_of(CeSet.primes())
        for k in (0, 3, 17, 40, 64):
            for kp in (1, 9, 25, 64):
                assert abs(x.approx(k) - x.approx(kp)) < pow2(-k) + pow2(-kp)

    def test_each_candidate_decided_once(self):
        """Cutoff B = k + 1 decides 1..B in all; a later, larger cutoff
        decides only the candidates above the largest one seen so far."""
        ce = CeSet.odds()
        counts = []
        for k in (9, 19, 29, 39):
            ce.gamma_enclosure(k)
            counts.append(ce.stats.decide_calls)
        assert counts == [10, 20, 30, 40]
        ce = CeSet.odds()
        ce.gamma_enclosure(39)
        ce.gamma_enclosure(9)
        assert ce.stats.decide_calls == 40

    def test_decided_prefix_memory_is_linear(self):
        """Memory guard: gamma at precision 20000 on a fresh set retains
        about 20000 bits, one integer for the whole decided prefix.  A list
        of every prefix sum N_b retained 26.2 MiB there."""
        ce = CeSet.odds()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            enc = ce.gamma_enclosure(20000)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert enc.contains(GAMMA_ODDS)
        assert ce.stats.decide_calls == 20001
        assert retained < 1 << 20

    def test_left_sum_memory_is_linear(self):
        """Memory guard: a left sum through stage 2s, on a fresh set,
        retains at most 2.5 times what one through stage s retains, as
        only the last sum read is kept.  A list of every stage's (L, E)
        retained 3.79 MiB at s = 5000 and 13.9 MiB at s = 10000, a ratio
        of about 3.7."""

        def retained(s: int) -> int:
            ce = CeSet.odds()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                total = ce.left_sum(s)
                held = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert total == F(2, 3) * (1 - F(1, 4 ** (s + 1)))
            return held

        assert retained(10000) <= 2.5 * retained(5000)

    @given(
        st.sampled_from(["odds", "primes", "explicit"]),
        st.lists(st.integers(min_value=0, max_value=70), min_size=1, max_size=8),
    )
    def test_growing_prefix_matches_fresh_sums(self, kind, ks):
        make = {"odds": CeSet.odds, "primes": CeSet.primes, "explicit": explicit_set}[kind]
        ce = make()
        for k in ks:
            b = k + 1
            fresh = make()
            q = sum((pow2(-j) for j in range(1, b + 1) if fresh.decide(j)), F(0))
            assert ce.gamma_enclosure(k) == Enclosure(q, q + pow2(-b))
        assert ce.stats.decide_calls == max(ks) + 1

    def test_negative_precision_rejected(self):
        ce = CeSet.odds()
        with pytest.raises(ValueError):
            ce.gamma_enclosure(-1)
        assert ce.stats.decide_calls == 0

    def test_concurrent_enclosures_decide_once(self):
        ks = list(range(61))
        want = {k: CeSet.primes().gamma_enclosure(k) for k in ks}
        ce = CeSet.primes()
        got: dict = {}
        errors: list = []

        def worker(seed: int) -> None:
            order = ks[:]
            random.Random(seed).shuffle(order)
            try:
                for k in order:
                    got[(seed, k)] = ce.gamma_enclosure(k)
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(got) == 8 * len(ks)
        assert all(enc == want[k] for (_, k), enc in got.items())
        assert ce.stats.decide_calls == 61

    @pytest.mark.parametrize("make", [CeSet.odds, explicit_set, throttled_set],
                             ids=["odds", "explicit", "throttled"])
    def test_tail_mass(self, make):
        """tail_mass(s, k) encloses gamma - gamma_s and is the formula the
        N1 search and the expansion residual each wrote out by hand."""
        ce = make()
        gamma = ce.exact_gamma()
        for s in range(21):
            left = ce.left_sum(s)
            for k in (4, 20, 60):
                tail = ce.tail_mass(s, k)
                assert tail.contains(gamma - left)
                if ce.sorted_enumeration:
                    assert tail.hi <= pow2(-ce.element_at(s))
                assert tail == ref_tail_mass(ce, s, k)

    @settings(max_examples=30)
    @given(
        st.sampled_from(["odds", "primes", "explicit", "throttled"]),
        st.lists(st.tuples(st.integers(0, 200), st.integers(0, 300)), min_size=1, max_size=6),
    )
    @example("primes", [(200, 300), (0, 0), (57, 3)])
    @example("throttled", [(1, 2), (9, 40), (4, 300), (0, 1)])
    def test_prefix_sums_match_fraction_sums(self, kind, queries):
        """left_sum, gamma_enclosure and tail_mass, read from the integer
        prefix stores in any query order, equal Fraction sums taken afresh
        from the elements and decisions of a second copy of the set."""
        make = {"odds": CeSet.odds, "primes": CeSet.primes, "explicit": explicit_set,
                "throttled": throttled_set}[kind]
        ce, ref = make(), make()
        for s, k in queries:
            elements = ref.prefix(s)
            left = sum((F(1, 1 << c) for c in elements), F(0))
            b = k + 1
            q = sum((F(1, 1 << j) for j in range(1, b + 1) if ref.decide(j)), F(0))
            assert ce.left_sum(s) == left
            assert ce.gamma_enclosure(k) == Enclosure(q, q + F(1, 1 << b))
            hi = q + F(1, 1 << b) - left
            if ce.sorted_enumeration:
                hi = min(hi, F(1, 1 << elements[-1]))
            tail = ce.tail_mass(s, k)
            assert (tail.lo, tail.hi) == (max(q - left, F(0)), hi)


def telescoping_sum_at(presentation: TwistedGenSet, coeffs):
    """The sum_at that presentation.norm_enclosure(coeffs, ...) hands to
    norm_from_power_sum."""
    real = twisted.norm_from_power_sum
    twisted.norm_from_power_sum = lambda sum_at, p, k: sum_at
    try:
        return presentation.norm_enclosure(coeffs, 0)
    finally:
        twisted.norm_from_power_sum = real


def epsilon_mantissas(alpha0: CRat, alphaj: CRat, c: int, presentation: TwistedGenSet, K: int):
    """Mantissas at scale 2^-(K+5) of E_1 = |a0 u + aj|^p - |a0|^p 2^-c,
    u = 2^(-c/p), as TwistedGenSet.norm_enclosure's sum computes the term
    at per = K: the two-term sum on a set enumerated from c, less |a0|^p
    from the same kernel.  For m = 1, per is the sum's K plus 2."""
    assert presentation.ce.element_at(0) == c
    s = Enclosure.from_ends(*telescoping_sum_at(presentation, [alpha0, alphaj])(K - 2))
    a = alpha0.abs2()
    ((ap_lo, ap_hi),) = rigor._pow_mantissas(
        [(a.numerator, a.numerator, a.denominator)], presentation.p.half(), K + 3
    )
    scale = 1 << (K + 5)
    return int(s.lo * scale) - ap_lo, int(s.hi * scale) - ap_hi


def twisted_from(c: int, p: Exponent) -> TwistedGenSet:
    """A presentation whose first enumerated element is c."""
    return TwistedGenSet(CeSet.explicit([c, c + 2]), p)


def epsilon_term(alpha0, alphaj, c: int, p: Exponent, k: int) -> Enclosure:
    """The j-th correction term of the telescoping norm identity at 2^-k,
    as TwistedGenSet.norm_enclosure's sum computes it."""
    lo, hi = epsilon_mantissas(CRat.of(alpha0), CRat.of(alphaj), c, twisted_from(c, p), k)
    return Enclosure(F(lo, 1 << (k + 5)), F(hi, 1 << (k + 5)))


class TestEpsilonTerms:
    def test_alpha0_zero_reduces_to_modulus_power(self, p32):
        enc = epsilon_term(0, F(3, 4), c=2, p=p32, k=20)
        # independent value: (9/16)^(3/4) bracketed by halving on t^4 = (9/16)^3
        y = F(9, 16) ** 3
        lo, hi = F(0), F(1)
        while hi - lo > pow2(-24):
            mid = (lo + hi) / 2
            if mid ** 4 <= y:
                lo = mid
            else:
                hi = mid
        assert enc.intersects(Enclosure(lo, hi))

    def test_alphaj_zero_cancels(self, p32):
        enc = epsilon_term(F(2, 3), 0, c=1, p=p32, k=30)
        assert enc.contains(0)
        assert enc.width < pow2(-30)

    def test_exact_rational_instance(self, p1):
        assert epsilon_term(1, 1, c=1, p=p1, k=10) == Enclosure.point(1)


def ref_quad_in_u(a: F, b: F, c: F, u: Enclosure) -> Enclosure:
    """a*u^2 + b*u + c over a nonnegative enclosure u, for a >= 0: the
    endpoints of the interval expression (u*u).scale(a) + u.scale(b) +
    point(c), computed directly.  The square term rises with u, and the
    linear term takes the end of u that the sign of b picks."""
    ul, uh = u.lo, u.hi
    if b >= 0:
        return Enclosure((a * ul + b) * ul + c, (a * uh + b) * uh + c)
    return Enclosure(a * ul * ul + b * uh + c, a * uh * uh + b * ul + c)


nonneg_dyadics = st.builds(
    lambda m, e: F(m, 1 << e), st.integers(0, 1 << 80), st.integers(0, 90)
)
rationals = st.builds(F, st.integers(-(10**9), 10**9), st.integers(1, 10**9))
complex_points = st.builds(CRat, rationals, rationals)


class TestQuadraticInU:
    @given(nonneg_dyadics, nonneg_dyadics, complex_points, complex_points)
    def test_endpoints_equal_the_interval_formula(self, ul, width, a0, d):
        """The squared modulus |a0 u - d|^2 = a u^2 + b u + c, with
        (a, b, c) = (|a0|^2, -2 Re(d conj a0), |d|^2): _quad_ends on its
        integer coefficients gives the ends of the clamped reference, and
        the reference those of the interval expression.  The unclamped
        upper end is sound only for a squared modulus."""
        a, b, c = a0.abs2(), -2 * (d.re * a0.re + d.im * a0.im), d.abs2()
        uh = ul + width
        u = Enclosure(ul, uh)
        ref = ref_quad_in_u(a, b, c, u)
        interval = (u * u).scale(a) + u.scale(b) + Enclosure.point(c)
        assert (ref.lo, ref.hi) == (interval.lo, interval.hi)
        clamped = ref.clamp_nonneg()
        quad = _residual_quads(a0, (a0,), FiniteVector.from_items([(0, d)]), 0)[0]
        want = (clamped.lo, clamped.hi)

        def quad_ends(u):
            lo, hi, den = _quad_ends(quad, u)
            return F(lo, den), F(hi, den)

        ends = (ul.numerator * uh.denominator, uh.numerator * ul.denominator,
                ul.denominator * uh.denominator)
        assert quad_ends(ends) == want
        # The same ends from u over the unreduced denominator 2^90, as the
        # dyadic route gives its grid ends.
        grid = 1 << 90
        assert quad_ends((int(ul * grid), int(uh * grid), grid)) == want


def ref_integer_quad(a: F, b: F, c: F) -> tuple[int, int, int, int]:
    """(A, B, C, D) with a u^2 + b u + c = (A u^2 + B u + C) / D in
    integers, D the least common denominator of a, b and c: the expansion
    route's set-up while it formed a, b and c as Fractions."""
    D = math.lcm(a.denominator, b.denominator, c.denominator)
    return (
        a.numerator * (D // a.denominator),
        b.numerator * (D // b.denominator),
        c.numerator * (D // c.denominator),
        D,
    )


class TestResidualQuads:
    @given(
        coeffs=st.lists(complex_points, min_size=1, max_size=6),
        a0_zero=st.booleans(),
        target=st.lists(st.tuples(st.integers(0, 10), complex_points), max_size=4),
    )
    @example([CRat(F(2, 3), F(-1, 5)), CRat(F(1, 7))], False, [(9, CRat(F(1, 2), 3))])
    def test_ratios_equal_the_fraction_set_up(self, coeffs, a0_zero, target):
        """Each coordinate's A/D, B/D and C/D from integer numerators equal
        those of the lcm form of (|a0|^2, -2 Re(d conj a0), |d|^2), for
        complex scalars, a_0 = 0, and target support past the list."""
        if a0_zero:
            coeffs = [CRAT_ZERO, *coeffs[1:]]
        v = FiniteVector.from_items(target)
        a0 = coeffs[0]
        depth = max(len(coeffs) - 1, max(v.support(), default=0), 2)
        quads = _residual_quads(a0, coeffs, v, depth)
        assert len(quads) == depth + 1
        for n, (A, B, C, D) in enumerate(quads):
            d = v.get(n) - (coeffs[n] if 0 < n < len(coeffs) else CRAT_ZERO)
            RA, RB, RC, RD = ref_integer_quad(
                a0.abs2(), -2 * (d.re * a0.re + d.im * a0.im), d.abs2()
            )
            assert (F(A, D), F(B, D), F(C, D)) == (F(RA, RD), F(RB, RD), F(RC, RD))


def reference_epsilon(alpha0, a, alphaj, c, p, K, u_at):
    """The Fraction route of E_j that the integer-mantissa kernel replaced,
    kept as the reference and taken, as the kernel takes it, at one try:
    u_at(ku) supplies 2^(-c/p) at precision ku."""
    b = 2 * (alpha0.re * alphaj.re + alpha0.im * alphaj.im)
    cq = alphaj.abs2()
    half = p.half()
    u = u_at(K + 4 + ceil_log2(1 + abs(b) + 2 * a))
    m2 = ref_quad_in_u(a, b, cq, u).clamp_nonneg()
    term1 = ref_pow_slack(m2, half, K + 3)
    a_pow = ref_pow_slack(Enclosure.point(a), half, K + 3)
    return term1 - a_pow.scale(pow2(-c))


small_rationals = st.builds(F, st.integers(-60, 60), st.integers(1, 60))
complex_rationals = st.builds(CRat, small_rationals, small_rationals)
KERNEL_EXPONENTS = {
    "1": Exponent.from_rational(1),
    "3/2": Exponent.from_rational(F(3, 2)),
    "2": Exponent.from_rational(2),
    "7/3": Exponent.from_rational(F(7, 3)),
    "oracle 3/2": Exponent.from_real(ComputableReal(lambda k: F(3, 2), "oracle 3/2")),
}


class TestEpsilonKernel:
    @given(
        alpha0=complex_rationals,
        alphaj=complex_rationals,
        c=st.integers(1, 300),
        K=st.integers(4, 130),
        name=st.sampled_from(sorted(KERNEL_EXPONENTS)),
    )
    # a_j close to -2^(-2/3) a_0: m2 nears 0 and the term is wider than 2^-K.
    @example(CRat(1), CRat(F(-6299605249, 10**10)), 1, 130, "3/2")
    @example(CRat(1), CRat(F(-6299605249, 10**10)), 1, 130, "oracle 3/2")
    def test_mantissa_kernel_against_fraction_route(self, alpha0, alphaj, c, K, name):
        """Both tracks: the integer-mantissa term, as the telescoping sum
        computes it, meets the Fraction reference.  Rational track: on the
        u the sum read, it contains the reference.  An all-zero pair
        computes no term."""
        assume(not (alpha0.is_zero and alphaj.is_zero))
        p = KERNEL_EXPONENTS[name]
        a = alpha0.abs2()
        presentation = twisted_from(c, p)
        lo, hi = epsilon_mantissas(alpha0, alphaj, c, presentation, K)
        ucache = presentation._ucache
        ours = Enclosure(F(lo, 1 << (K + 5)), F(hi, 1 << (K + 5)))

        def own_u(ku):
            return rigor.root_p(Enclosure.point(pow2(-c)), p, ku)

        assert ours.intersects(reference_epsilon(alpha0, a, alphaj, c, p, K, own_u))
        if p.fast is None:
            return
        assert len(ucache) == 1

        def kernel_u(ku):
            ku = -(-ku // 8) * 8
            assert (c, ku) in ucache
            ((ul, uh),) = rigor._pow_mantissas([(1, 1, 1 << c)], p.reciprocal(), ku)
            return Enclosure(F(ul, 1 << (ku + 2)), F(uh, 1 << (ku + 2)))

        ref = reference_epsilon(alpha0, a, alphaj, c, p, K, kernel_u)
        assert ours.lo <= ref.lo and ref.hi <= ours.hi, (ours, ref)


@pytest.mark.parametrize("p", [F(1), F(3, 2), F(2)], ids=["1", "3/2", "2"])
def test_warm_norm_kernel_calls_do_not_grow_with_m(monkeypatch, p):
    """Work guard, free of timing noise: a warm k = 30 telescoping norm
    query calls the power kernel once per sum it reads, at m = 8 and at
    m = 64 alike.  A sum that called it once per term made m calls."""
    kernel, norm_from_sum = twisted._pow_mantissas, twisted.norm_from_power_sum
    counts = {}

    def kernel_counted(items, exp, K):
        counts["kernel"] += 1
        return kernel(items, exp, K)

    def sums_counted(sum_at, q, k):
        def counted(K):
            counts["sums"] += 1
            return sum_at(K)

        return norm_from_sum(counted, q, k)

    for m in (8, 64):
        presentation = TwistedGenSet(CeSet.odds(), Exponent.from_rational(p))
        rng = random.Random(7)

        def rat():
            return F(rng.randint(-9, 9), rng.randint(1, 9))

        coeffs = [CRat(rat(), rat()) for _ in range(m)]
        presentation.norm_enclosure(coeffs, 30)
        counts.update(kernel=0, sums=0)
        with monkeypatch.context() as patch:
            patch.setattr(twisted, "_pow_mantissas", kernel_counted)
            patch.setattr(twisted, "norm_from_power_sum", sums_counted)
            presentation.norm_enclosure(coeffs, 30)
        assert 1 <= counts["kernel"] == counts["sums"] <= 3, (m, counts)


@pytest.mark.parametrize("p, before", [(F(1), 508), (F(3, 2), 513), (F(2), 4)])
def test_warm_norm_iroot_work(monkeypatch, p, before):
    """Work guard, free of timing noise: iroot calls in one warm m = 64,
    k = 30 telescoping norm query.  It made ``before`` calls while each
    point power computed its two ends apart and every E_j term recomputed
    |a_0|^p; sharing both cuts at least 40 % at p = 1 and 3/2."""
    presentation = TwistedGenSet(CeSet.odds(), Exponent.from_rational(p))
    rng = random.Random(7)

    def rat():
        return F(rng.randint(-9, 9), rng.randint(1, 9))

    coeffs = [CRat(rat(), rat()) for _ in range(64)]
    presentation.norm_enclosure(coeffs, 30)
    calls = 0
    iroot = rigor.iroot

    def counted(n, b):
        nonlocal calls
        calls += 1
        return iroot(n, b)

    monkeypatch.setattr(rigor, "iroot", counted)
    presentation.norm_enclosure(coeffs, 30)
    assert calls <= (before if p == 2 else 0.6 * before)


@pytest.mark.parametrize("p, before", [(F(1), 319), (F(3, 2), 320), (F(2), 255)])
def test_warm_norm_enclosure_work(monkeypatch, p, before):
    """Work guard, free of timing noise: Enclosure constructions in one
    warm m = 64, k = 30 telescoping norm query.  It made ``before`` while
    every E_j term built about five; the sum on integer mantissas builds
    one Enclosure per sum."""
    presentation = TwistedGenSet(CeSet.odds(), Exponent.from_rational(p))
    rng = random.Random(7)

    def rat():
        return F(rng.randint(-9, 9), rng.randint(1, 9))

    coeffs = [CRat(rat(), rat()) for _ in range(64)]
    presentation.norm_enclosure(coeffs, 30)
    made = 0
    post_init = Enclosure.__post_init__

    def counted(self):
        nonlocal made
        made += 1
        post_init(self)

    monkeypatch.setattr(Enclosure, "__post_init__", counted)
    presentation.norm_enclosure(coeffs, 30)
    assert made <= 16 < before



@pytest.mark.parametrize("p", [F(3, 2), "oracle"])
def test_norm_query_coerces_each_coefficient_once(monkeypatch, p):
    """Work guard, free of timing noise: one warm m = 64 telescoping
    norm_query calls CRat.of m + 1 times, once per coefficient as it
    validates them; norm_enclosure coerced that tuple a second time.
    norm_enclosure takes the validated tuple as it is."""
    exp = Exponent.from_real(sqrt_real(2)) if p == "oracle" else Exponent.from_rational(p)
    presentation = TwistedGenSet(CeSet.odds(), exp)
    rng = random.Random(7)
    coeffs = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(65)]
    want = presentation.norm_query(coeffs, 30)
    calls = 0
    of = CRat.of.__func__

    def counted(cls, value):
        nonlocal calls
        calls += 1
        return of(cls, value)

    monkeypatch.setattr(CRat, "of", classmethod(counted))
    assert presentation.norm_query(coeffs, 30) == want
    assert calls == len(coeffs)


def test_ucache_keys_do_not_follow_coefficient_sizes():
    """u's precision is rounded up to a multiple of the retry step, so the
    cache holds few keys, and answers do not depend on which queries came
    first."""
    p = Exponent.from_rational(F(3, 2))
    rng = random.Random(3)

    def rat():
        return F(rng.randint(-99, 99), rng.randint(1, 99))

    queries = [([CRat(rat(), rat()) for _ in range(m + 1)], k)
               for m in (1, 4, 9) for k in (10, 30)]
    forward = TwistedGenSet(CeSet.odds(), p)
    backward = TwistedGenSet(CeSet.odds(), p)
    ahead = [forward.norm_enclosure(cs, k) for cs, k in queries]
    behind = [backward.norm_enclosure(cs, k) for cs, k in reversed(queries)]
    assert ahead == behind[::-1]
    # Membership over every (c, ku) with ku a multiple of 8 accounts for
    # all of both tables' entries, so their keys agree and are all such.
    grid = [(c, ku) for c in range(64) for ku in range(0, 512, 8)]
    keys = [key for key in grid if key in forward._ucache]
    assert keys == [key for key in grid if key in backward._ucache]
    assert len(keys) == len(forward._ucache) == len(backward._ucache)


def test_long_session_stays_within_the_memo_bound(monkeypatch):
    """With the memo bound cut to 64, a session of fresh twisted-norm and
    oracle-track queries makes every growing table evict: each holds at
    most 64 entries, and every answer equals the one under the full bound."""

    def session():
        rigor._DYADIC_POW_CACHE.clear()
        sqrt2 = sqrt_real(2)
        p_oracle = Exponent.from_real(sqrt2)
        presentations = [
            TwistedGenSet(CeSet.odds(), p) for p in (Exponent.from_rational(F(3, 2)), p_oracle)
        ]
        rng = random.Random(7)

        def rat():
            return F(rng.randint(-9, 9), rng.randint(1, 9))

        answers = []
        for _ in range(30):
            coeffs = [CRat(rat(), rat()) for _ in range(rng.randint(2, 12))]
            k = rng.randint(4, 90)
            answers += [g.norm_query(coeffs, k) for g in presentations]
            answers.append(norm_p(FiniteVector.from_items(enumerate(coeffs)), p_oracle, k))
        tables = [rigor._DYADIC_POW_CACHE, sqrt2._cache]
        return answers, tables + [g._ucache for g in presentations]

    unbounded, _ = session()
    monkeypatch.setattr(rigor, "_MEMO_BOUND", 64)
    evicted = rigor._DYADIC_POW_CACHE.stats.evictions  # a module-level table
    bounded, tables = session()
    assert bounded == unbounded
    assert rigor._DYADIC_POW_CACHE.stats.evictions > evicted
    assert all(table.stats.evictions > 0 and len(table) <= 64 for table in tables)


def manual_l1_norm(coeffs, depth=80):
    """Independent p=1 norm of sum a_j f_j over the odds set, using the
    exact gamma and a straight coordinate expansion (real coefficients)."""
    a = [F(c) for c in coeffs]
    a0 = a[0]
    total = abs(a0) * (1 - GAMMA_ODDS)
    tail = GAMMA_ODDS
    for n in range(1, depth):
        c_n = 2 * n - 1  # odds enumerate as 1, 3, 5, ...
        coeff = a0 * pow2(-c_n) + (a[n] if n < len(a) else F(0))
        total += abs(coeff)
        tail -= pow2(-c_n)
    return total, abs(a0) * tail  # norm minus tail, tail bound


class TestTwistedNorm:
    def test_f0_is_unit(self, odds, p1, p2, p32):
        for p in (p1, p2, p32):
            gs = TwistedGenSet(CeSet.odds(), p)
            q = gs.norm_query([1], 40)
            assert abs(q - 1) < pow2(-40)

    def test_zero(self, odds, p32):
        gs = TwistedGenSet(odds, p32)
        assert gs.norm_query([0, 0, 0], 20) == 0

    def test_exact_two(self, p1):
        gs = TwistedGenSet(CeSet.odds(), p1, field_mode="real")
        assert gs.norm_query([1, 1], 20) == 2

    def test_against_manual_expansion(self, p1):
        gs = TwistedGenSet(CeSet.odds(), p1, field_mode="real")
        rng = random.Random(8)
        for _ in range(20):
            coeffs = [F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(rng.randint(1, 5))]
            k = 25
            q = gs.norm_query(coeffs, k)
            lower, tail = manual_l1_norm(coeffs)
            assert lower - pow2(-k) <= q <= lower + tail + pow2(-k)

    def test_against_expansion_oracle(self, p32):
        """Telescoping route vs the decision-mode expansion route."""
        rng = random.Random(21)
        for ce_fn in (CeSet.odds, CeSet.primes):
            gs = TwistedGenSet(ce_fn(), p32)
            for _ in range(30):
                coeffs = [
                    CRat(F(rng.randint(-6, 6), rng.randint(1, 6)),
                         F(rng.randint(-6, 6), rng.randint(1, 6)))
                    for _ in range(rng.randint(1, 6))
                ]
                k = rng.randint(6, 30)
                q = gs.norm_query(coeffs, k)
                oracle = expanded_residual_norm(
                    ce_fn(), p32, coeffs, FiniteVector.zero(), k
                )
                assert abs(q - oracle.midpoint) <= 2 * pow2(-k)

    def test_stage_discipline(self, p2):
        """A query with M + 1 coefficients consults stages 0..M-1 only and
        never the decision procedure."""
        for length in (1, 2, 5, 9):
            ce = CeSet.odds()
            gs = TwistedGenSet(ce, p2)
            gs.norm_query([1] * length, 30)
            assert ce.stats.max_stage == length - 2  # -1 means untouched
            assert ce.stats.decide_calls == 0

    def test_sandwich_certificate(self):
        for b in (4, 10, 40):
            enc = f0_norm_sandwich(CeSet.odds(), b)
            assert enc == Enclosure(1 - pow2(-b), 1 + pow2(-b))
            assert enc.contains(1)


def near_cancelling_u(bits: int) -> F:
    """2^(-2/3) floored to ``bits`` bits: u^3 <= 1/4 < (u + 2^-bits)^3."""
    n = rigor.iroot(1 << (3 * bits - 2), 3)
    assert n**3 <= 1 << (3 * bits - 2) < (n + 1) ** 3
    return F(n, 1 << bits)


@pytest.mark.parametrize("name", ["3/2", "oracle 3/2"])
@pytest.mark.parametrize("bits, k", [(1400, 1200), (4000, 3000)])
def test_near_cancelling_norm_certifies(monkeypatch, name, bits, k):
    """|f_0 - u f_1| over the odds with u within 2^-bits of 2^(-1/p) at
    p = 3/2: the E_1 term nears 0 where its p/2 power is steep, and one
    kernel try is wider than 2^-K.  The norm meets the closed form: its
    p-th power is 1/3 + 1/6 + d, d = |2^(-2/3) - u|^(3/2) < 2^(-3 bits / 2),
    so its cube lies in [1/4, 1/4 + 2^(2 - 3 bits / 2)].  It meets the
    expansion route too, and norm_from_power_sum retries the sum at most
    twice: a guard jump and one round."""
    p = KERNEL_EXPONENTS[name]
    u = near_cancelling_u(bits)
    other = expanded_residual_norm(CeSet.odds(), p, [1, -u], FiniteVector.zero(), k)
    calls = []

    def counted(sum_at, p, k):
        def counted_sum(K):
            calls.append(K)
            return sum_at(K)

        return norm_from_power_sum(counted_sum, p, k)

    monkeypatch.setattr(twisted, "norm_from_power_sum", counted)
    ours = TwistedGenSet(CeSet.odds(), p).norm_enclosure([CRat.of(1), CRat.of(-u)], k)
    assert ours.width < pow2(-k)
    assert ours.hi**3 >= F(1, 4) and ours.lo**3 <= F(1, 4) + pow2(2 - 3 * bits // 2)
    assert ours.intersects(other)
    assert len(calls) <= 3, calls


class TestApproxE0:
    def test_worked_instance_odds_p1_k2(self, p1):
        out = approx_e0(CeSet.odds(), p1, 2)
        assert out.n1 == 4
        assert out.q1 == 3
        assert out.coefficients == (
            CRat.of(3),
            CRat.of(F(-3, 2)),
            CRat.of(F(-3, 8)),
            CRat.of(F(-3, 32)),
        )
        assert out.exact_error == F(1, 32)
        assert out.exact_error < F(1, 4)

    def test_exact_error_independent_recheck(self, p1):
        """Re-derive the error by direct expansion with the exact gamma."""
        for k in (1, 3, 5, 8):
            out = approx_e0(CeSet.odds(), p1, k)
            q1 = out.q1
            n1 = out.n1
            prefix = [2 * n - 1 for n in range(1, n1)]
            err = abs(1 - q1 * (1 - GAMMA_ODDS)) + q1 * (
                GAMMA_ODDS - sum(pow2(-c) for c in prefix)
            )
            assert err == out.exact_error
            assert err < pow2(-k)

    @pytest.mark.parametrize("p_str", ["1", "2"])
    def test_certified_bound_k_1_to_8(self, p_str):
        p = Exponent.from_rational(F(p_str))
        for ce_fn in (CeSet.odds, explicit_set):
            for k in range(1, 9):
                out = approx_e0(ce_fn(), p, k)
                assert out.certified_error.hi < pow2(-k)

    def test_certified_bound_k_to_16_all_sets(self, p1):
        """Strict certificate up to k = 16 on every shipped desk set."""
        for ce_fn in (CeSet.odds, CeSet.primes, explicit_set, throttled_set):
            for k in (12, 16):
                out = approx_e0(ce_fn(), p1, k)
                assert out.certified_error.hi < pow2(-k)

    def test_rep_contract(self, p2):
        gs = TwistedGenSet(CeSet.odds(), p2)
        rep = e0_rep(gs)
        for k in (2, 6, 10):
            coeffs = rep.coefficients(k)
            err = expanded_residual_norm(gs.ce, p2, coeffs, basis(0), k + 2)
            assert err.hi < pow2(-k)

    def test_rep_at_k2_is_the_worked_list(self, p1):
        gs = TwistedGenSet(CeSet.odds(), p1)
        assert e0_rep(gs).coefficients(2) == (
            CRat.of(3),
            CRat.of(F(-3, 2)),
            CRat.of(F(-3, 8)),
            CRat.of(F(-3, 32)),
        )


def ref_tail_cutoff(ce: CeSet, p: Exponent, k: int, threshold: F) -> int:
    """approx_e0's tail-cutoff scan with no candidate skipped: every
    candidate from 3 on takes its p-th root at up to three precisions."""
    n1 = None
    for candidate in range(3, 512):
        for kt in (k + 10, k + 26, k + 48):
            tail_norm = root_p(ce.tail_mass(candidate - 2, kt), p, kt)
            if tail_norm.hi <= threshold:
                n1 = candidate
                break
        if n1 is not None:
            break
    if n1 is None:
        raise OracleFailure("no certified tail cutoff below 512")
    return n1


CUTOFF_SETS = {
    "odds": CeSet.odds,
    "primes": CeSet.primes,
    "throttled": lambda: ce_set_from_spec(json.loads((DATA / "ce_throttled.json").read_text())),
}


def e0_outcome(ce: CeSet, p_spec: str, k: int):
    """What approx_e0 shows of one run: its fields, or its failure, and the
    set's access counters."""
    try:
        out = approx_e0(ce, parse_p(p_spec), k)
    except OracleFailure as exc:
        return str(exc), ce.stats.as_dict()
    fields = (out.n1, out.q1, out.coefficients, out.certified_error, out.exact_error)
    return fields, ce.stats.as_dict()


@pytest.mark.parametrize("set_name", sorted(CUTOFF_SETS))
# oracle:1.5:40 fails at candidate 3 on every k here; oracle:1.5:100 reaches
# the skip check on the oracle track.
@pytest.mark.parametrize("p_spec", ["1", "3/2", "2", "3", "oracle:1.5:40", "oracle:1.5:100"])
def test_tail_cutoff_matches_linear_scan(monkeypatch, set_name, p_spec):
    """The skipping scan returns the linear scan's N1 and leaves the same
    approximation and access counters, each side on a fresh set."""
    make = CUTOFF_SETS[set_name]
    for k in (2, 4, 8, 16, 20):
        got = e0_outcome(make(), p_spec, k)
        with monkeypatch.context() as m:
            m.setattr(twisted, "_tail_cutoff", ref_tail_cutoff)
            want = e0_outcome(make(), p_spec, k)
        assert got == want, (set_name, p_spec, k)


@pytest.mark.parametrize("set_name", sorted(CUTOFF_SETS))
def test_approx_e0_tail_mass_work(monkeypatch, set_name):
    """Work guard, free of timing noise: tail_mass calls per approx_e0,
    the scan's and the certificate's.  They reached 2.9 N1 while every
    candidate took its roots; a skipped candidate reads one."""
    calls = 0
    tail_mass = CeSet.tail_mass

    def counted(self, s, k):
        nonlocal calls
        calls += 1
        return tail_mass(self, s, k)

    monkeypatch.setattr(CeSet, "tail_mass", counted)
    for p in (F(1), F(3, 2), F(2)):
        for k in (4, 8, 12, 16, 20):
            calls = 0
            out = approx_e0(CUTOFF_SETS[set_name](), Exponent.from_rational(p), k)
            assert calls <= out.n1 + 6, (p, k, out.n1, calls)


def test_large_p_certificate_rounds(monkeypatch):
    """Work guard, free of timing noise: the power sums approx_e0's
    certificate takes at p = 39, k = 4 on the odds.  The residual's power
    sum is tiny, and its lower end stays 0 until K nears 200; a schedule
    stepping by 8 took 25 sums, one that doubles past the third round
    takes 7."""
    calls = 0
    norm_from_power_sum = twisted.norm_from_power_sum

    def counted(sum_at, p, k):
        def counted_sum(K):
            nonlocal calls
            calls += 1
            return sum_at(K)

        return norm_from_power_sum(counted_sum, p, k)

    monkeypatch.setattr(twisted, "norm_from_power_sum", counted)
    out = approx_e0(CeSet.odds(), Exponent.from_rational(39), 4)
    assert out.certified_error.hi < pow2(-4)
    assert calls <= 8


@settings(max_examples=40)
@given(
    st.sets(st.integers(1, 24), min_size=1, max_size=10).filter(lambda s: len(s) < max(s)),
    st.lists(st.integers(0, 12), unique=True, max_size=3),
    st.sampled_from([F(1), F(3, 2), F(2)]),
    st.integers(1, 16),
)
def test_approx_e0_error_bound(elements, stages, p, k):
    """On explicit and throttled sets the certified error is below 2^-k,
    and at p = 1 it encloses the closed-form error: the expansion route
    agrees with the exact gamma."""
    ce = CeSet.explicit(elements)
    if stages:
        ce = ce.with_delays(list(zip(sorted(elements)[-len(stages):], stages)))
    out = approx_e0(ce, Exponent.from_rational(p), k)
    assert out.certified_error.hi < pow2(-k)
    if p == 1:
        assert out.certified_error.contains(out.exact_error)


def ref_expanded_residual_norm(
    ce: CeSet, p: Exponent, coeffs, target: FiniteVector, k: int
) -> Enclosure:
    """The expansion route as one Enclosure per coordinate: each power sum
    adds a ref_pow_slack enclosure of every coordinate's quadratic in u, and
    the tail comes from ref_tail_mass."""
    cs = tuple(CRat.of(c) for c in coeffs)
    m = len(cs) - 1
    a0 = cs[0] if cs else CRAT_ZERO
    a0sq = a0.abs2()
    supp_top = max(target.support(), default=0)
    depth = max(m, supp_top, 2)
    c_prefix = ce.prefix(depth - 1)
    half = p.half()

    def sum_at(K: int) -> Enclosure:
        per = K + ceil_log2(F(depth + 3))
        kg = per + 2 + (ceil_log2(1 + a0sq) if a0sq > 0 else 0)
        gamma = ce.gamma_enclosure(kg)
        one_minus = (Enclosure.point(1) - gamma).clamp_nonneg()
        w = root_p(one_minus, p, per + 2)

        t0 = target.get(0)
        b0 = -2 * (t0.re * a0.re + t0.im * a0.im)
        total = ref_pow_slack(ref_quad_in_u(a0sq, b0, t0.abs2(), w).clamp_nonneg(), half, per)
        for n in range(1, depth + 1):
            diff = target.get(n) - (cs[n] if n <= m else CRAT_ZERO)
            if a0.is_zero:
                total = total + ref_pow_slack(Enclosure.point(diff.abs2()), half, per)
                continue
            u = root_p(Enclosure.point(pow2(-c_prefix[n - 1])), p, per + 4)
            bq = -2 * (diff.re * a0.re + diff.im * a0.im)
            m2 = ref_quad_in_u(a0sq, bq, diff.abs2(), u).clamp_nonneg()
            total = total + ref_pow_slack(m2, half, per)

        if not a0.is_zero:
            a0_pow = ref_pow_slack(Enclosure.point(a0sq), half, per)
            total = total + a0_pow * ref_tail_mass(ce, depth - 1, kg)
        return total

    return norm_from_power_sum(lambda K: sum_at(K).ends(), p, k)


EXPANSION_PS = ["1", "3/2", "2", "3", "oracle:1.5:400"]
support_past_coefficients = st.lists(st.tuples(st.integers(0, 12), complex_rationals), max_size=3)


@given(
    set_name=st.sampled_from(sorted(CUTOFF_SETS)),
    p_spec=st.sampled_from(EXPANSION_PS),
    coeffs=st.lists(complex_rationals, min_size=1, max_size=8),
    a0_zero=st.booleans(),
    target=support_past_coefficients,
    k=st.integers(1, 40),
)
@example("odds", "3/2", [CRat(F(2, 3), F(-1, 5))], False, [(9, CRat(F(1, 2)))], 40)
@example("throttled", "oracle:1.5:400", [CRat(1)], True, [(0, CRat(1)), (6, CRat(0, 1))], 12)
def test_expanded_residual_norm_matches_fraction_route(
    set_name, p_spec, coeffs, a0_zero, target, k
):
    """The integer sum gives the Fraction ends of the per-coordinate
    Enclosure sum, and reads the set exactly as it did, on a fresh set per
    side: complex coefficients, a_0 = 0, a single coefficient, and target
    support past the coefficient list."""
    if a0_zero:
        coeffs = [CRAT_ZERO, *coeffs[1:]]
    p = parse_p(p_spec)
    v = FiniteVector.from_items(target)
    got_set, want_set = CUTOFF_SETS[set_name](), CUTOFF_SETS[set_name]()
    got = expanded_residual_norm(got_set, p, coeffs, v, k)
    want = ref_expanded_residual_norm(want_set, p, coeffs, v, k)
    assert (got.lo, got.hi) == (want.lo, want.hi)
    assert got_set.stats.as_dict() == want_set.stats.as_dict()


@given(
    set_name=st.sampled_from(sorted(CUTOFF_SETS)),
    calls=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 90)), min_size=1, max_size=6),
)
def test_tail_mass_matches_fraction_route(set_name, calls):
    """Integer tail masses equal the Enclosure formula's, over a sequence
    of calls that grows both prefixes, and leave the same counters."""
    got_set, want_set = CUTOFF_SETS[set_name](), CUTOFF_SETS[set_name]()
    for s, k in calls:
        got, want = got_set.tail_mass(s, k), ref_tail_mass(want_set, s, k)
        assert (got.lo, got.hi) == (want.lo, want.hi)
    assert got_set.stats.as_dict() == want_set.stats.as_dict()


def test_expanded_residual_norm_skips_w_when_a0_is_zero(monkeypatch):
    """With a_0 = 0 no coordinate reads w = (1 - gamma)^(1/p), so a warm
    call takes no power through twisted's _pow_slack; gamma is still
    enclosed, so the set's decide counts stay those of any a_0."""
    ce, p = CeSet.odds(), Exponent.from_rational(F(3, 2))
    coeffs, v = [CRAT_ZERO, CRat(F(1, 2)), CRat(F(-1, 3))], basis(4)
    cold = expanded_residual_norm(ce, p, coeffs, v, 30)
    calls = 0
    pow_slack = twisted._pow_slack

    def counted(*args):
        nonlocal calls
        calls += 1
        return pow_slack(*args)

    monkeypatch.setattr(twisted, "_pow_slack", counted)
    assert expanded_residual_norm(ce, p, coeffs, v, 30) == cold
    assert calls == 0


@pytest.mark.parametrize(
    "p, before", [(F(1), 174), (F(3, 2), 216), (F(2), 347), (F(3), 431)]
)
def test_expanded_residual_norm_enclosure_work(monkeypatch, p, before):
    """Work guard, free of timing noise: Enclosure constructions in one
    expanded_residual_norm of [3/2, -1/2, ..., -1/(d+1)] against e_0 over
    the odds at k = 20.  With one Enclosure per coordinate and sum, d = 40
    built ``before``.  The integer sum builds a fixed number per sum, so
    d = 40 builds no more than d = 10.  (At p = 3/2 the d = 10 norm reads
    two sums, its guard jump, and d = 40 one.)"""
    exponent = Exponent.from_rational(p)
    made = 0
    post_init = Enclosure.__post_init__

    def counted(self):
        nonlocal made
        made += 1
        post_init(self)

    monkeypatch.setattr(Enclosure, "__post_init__", counted)
    counts = {}
    for d in (10, 40):
        coeffs = [F(3, 2)] + [F(-1, n + 1) for n in range(1, d + 1)]
        made = 0
        expanded_residual_norm(CeSet.odds(), exponent, coeffs, basis(0), 20)
        counts[d] = made
    assert counts[40] <= counts[10]
    assert counts[40] < before / 4


def test_oracle_expanded_residual_norm_enclosure_work(monkeypatch):
    """Work guard, free of timing noise: Enclosure constructions in one
    warm expanded_residual_norm on the oracle track, p = oracle:1.5:400,
    of 16 seeded complex coefficients against e_0 over the odds at k = 30.
    It built 87 while each coordinate's quadratic in u was an Enclosure
    of its own; from the pair of u's ends, on integers, it builds 71."""
    p = parse_p("oracle:1.5:400")
    ce = CeSet.odds()
    rng = random.Random(7)

    def rat():
        return F(rng.randint(-9, 9), rng.randint(1, 9))

    coeffs = [CRat(rat(), rat()) for _ in range(16)]
    expanded_residual_norm(ce, p, coeffs, basis(0), 30)
    made = 0
    post_init = Enclosure.__post_init__

    def counted(self):
        nonlocal made
        made += 1
        post_init(self)

    monkeypatch.setattr(Enclosure, "__post_init__", counted)
    expanded_residual_norm(ce, p, coeffs, basis(0), 30)
    assert made <= 71 < 87


# SHA-256 over the ends of 48 seeded expanded_residual_norm calls and the
# sets' access counters, taken while the route's set-up formed each
# coordinate's quadratic from Fractions and gamma's prefix sums were
# Fractions, and re-taken when the dyadic power route, which the two
# oracle-track exponents reach, moved from square-root chains to log/exp.
EXPANSION_DIGEST = "b7643ddd8adcbb2b3a7776737e2ca2ae2c6adabdcbbd8469d81d00f1e7a01a00"


def test_expanded_residual_norm_digest():
    """Complex coefficients and nonzero targets, a_0 = 0 in a quarter of
    the calls, six exponents on both tracks, and three sets whose prefixes
    grow across the calls: every end and counter is unchanged."""
    exponents = [parse_p(spec) for spec in ("1", "3/2", "2", "7/3", "oracle:1.5:400")]
    exponents.append(Exponent.from_real(sqrt_real(2)))
    sets = [CUTOFF_SETS[name]() for name in sorted(CUTOFF_SETS)]
    rng = random.Random(2288)

    def rat():
        return F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))

    digest = hashlib.sha256()
    for i in range(48):
        coeffs = [CRat(rat(), rat()) for _ in range(rng.randint(1, 12))]
        if i % 8 < 2:
            coeffs[0] = CRAT_ZERO
        items = [(rng.randint(0, 14), CRat(rat(), rat())) for _ in range(rng.randint(1, 3))]
        k = rng.randint(4, 40)
        enc = expanded_residual_norm(
            sets[i % 3], exponents[i % 6], coeffs, FiniteVector.from_items(items), k
        )
        digest.update(f"{enc.lo} {enc.hi}\n".encode())
    for ce in sets:
        digest.update(f"{ce.label} {ce.stats.as_dict()}\n".encode())
    assert digest.hexdigest() == EXPANSION_DIGEST


@pytest.mark.parametrize("p, before", [(F(1), 52), (F(3, 2), 88), (F(2), 109)])
def test_approx_e0_enclosure_work(monkeypatch, p, before):
    """Work guard, free of timing noise: Enclosure constructions in one
    approx_e0 over a fresh odds set at k = 20, after a warm-up call on
    another.  It built ``before`` while the tail-cutoff scan built a tail
    mass per skipped candidate, the coefficient loop a root per element
    and gamma's prefix sums were Fractions."""
    exponent = Exponent.from_rational(p)
    approx_e0(CeSet.odds(), exponent, 20)
    made = 0
    post_init = Enclosure.__post_init__

    def counted(self):
        nonlocal made
        made += 1
        post_init(self)

    monkeypatch.setattr(Enclosure, "__post_init__", counted)
    approx_e0(CeSet.odds(), exponent, 20)
    assert made <= 50 < before


class TestScaleExtraction:
    def test_converges_to_three(self, p1):
        gs = TwistedGenSet(CeSet.odds(), p1)
        oracle = e0_rep(gs)
        for k in (3, 8, 16):
            assert abs(extract_scale(oracle, k) - 3) < pow2(-k)

    def test_unimodular_independence(self, p1):
        """A unit multiple of e0 extracts the same scale: the modulus kills
        the scalar."""
        gs = TwistedGenSet(CeSet.odds(), p1)
        base = e0_rep(gs)
        for lam in (CRat.of(-1), CRat(F(3, 5), F(4, 5))):
            scaled = base.scaled(lam)
            assert abs(extract_scale(scaled, 10) - 3) < pow2(-10)

    def test_consistency(self, p32):
        gs = TwistedGenSet(CeSet.primes(), p32)
        s = scale_real(e0_rep(gs))
        for k in (2, 9, 15):
            assert abs(s.approx(k) - s.approx(k + 1)) < pow2(-k) + pow2(-k - 1)

    def test_query_log(self, p1):
        gs = TwistedGenSet(CeSet.odds(), p1)
        log = []
        extract_scale(e0_rep(gs), 6, query_log=log)
        assert log and log[0]["k"] == 6 and log[0]["k_prime"] > 6


class TestGammaFromScale:
    def test_constant_three_p1(self, p1):
        g = gamma_from_scale(ComputableReal.constant(3), p1)
        for k in (2, 10, 30):
            assert abs(g.approx(k) - F(2, 3)) < pow2(-k)

    def test_degenerate_scale_flagged(self, p1):
        with pytest.warns(DegenerateScaleWarning):
            g = gamma_from_scale(ComputableReal.constant(1), p1)
        assert abs(g.approx(8)) < pow2(-8)

    def test_odds_p2_pipeline(self, p2):
        gs = TwistedGenSet(CeSet.odds(), p2)
        s = scale_real(e0_rep(gs))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = gamma_from_scale(s, p2)
        for k in (4, 12, 20):
            assert abs(g.approx(k) - F(2, 3)) < pow2(-k)


class TestMembership:
    def test_odds_examples(self, p1):
        ce = CeSet.odds()
        bits = _decide_bits(gamma_of(ce), ce.view(), 8, 100000)
        assert bits[6] is True and bits[7] is False

    @pytest.mark.parametrize("make", [CeSet.odds, CeSet.primes, throttled_set])
    def test_round_trip_20_bits(self, make, p1):
        ce = make()
        gs = TwistedGenSet(ce, p1)
        bits = membership_bits(e0_rep(gs), 20)
        for n, got in bits:
            assert got == ce.decide(n), n

    def test_corrupted_gamma_detected(self, p1):
        ce = CeSet.odds()
        view = ce.view()
        got = _decide_bits(gamma_of(ce, F(-1, 8)), view, 20, 100000)
        want = [ce.decide(n) for n in range(1, 21)]
        assert got != want

    def test_corrupted_rep_detected(self, p1):
        ce = CeSet.odds()
        gs = TwistedGenSet(ce, p1)
        bad = rep_with_offset_fault(e0_rep(gs), F(-1, 8))
        bits = membership_bits(bad, 20)
        agree = sum(1 for n, got in bits if got == ce.decide(n))
        assert agree < 20

    def test_upward_corruption_exhausts_fuel(self, p1):
        """An overshooting gamma oracle can never be cleared by the left
        sums; the fuel bound turns that divergence into a failure."""
        ce = CeSet.odds()
        with pytest.raises(OracleFailure):
            _decide_bits(gamma_of(ce, F(1, 8)), ce.view(), 6, 2000)

    def test_enumeration_only_access(self, p1):
        """The membership decision consumes the set through enumeration
        alone: with an external gamma oracle, not a single decide call
        lands on the set, and the restricted view would raise if one did."""
        ce = CeSet.odds()
        gamma = ComputableReal.constant(F(2, 3))
        assert _decide_bits(gamma, ce.view(), 9, 100000)[-1] is True
        assert ce.stats.decide_calls == 0

    def test_upward_corruption_on_a_sparse_set_exhausts_fuel(self):
        """The fuel bound holds on the primes too: the scan reads elements,
        not exact left sums, whose denominators past stage 8000 alone run
        to about 80k bits and took tens of seconds to build."""
        ce = CeSet.primes()
        with pytest.raises(OracleFailure):
            _decide_bits(gamma_of(ce, F(1, 8)), ce.view(), 6, 20000)

    @pytest.mark.parametrize("elements", [[2, 5, 9], [1, 3, 4, 8, 13], [3, 6, 7, 10, 11, 12, 17]])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_one_query_at_the_edge(self, elements, sign):
        """A gamma oracle off by just under its tolerance, either way: every
        bit up to N read from the one query at N + 3, and each single bit
        read from its own query at n + 3, is still right."""
        ce = CeSet.explicit(elements)
        exact = ce.exact_gamma()
        gamma = ComputableReal(lambda k: exact + sign * (pow2(-k) - pow2(-(k + 20))))
        view = ce.view()
        want = [ce.decide(n) for n in range(1, 25)]
        for n_max in (1, 6, 13, 24):
            assert _decide_bits(gamma, view, n_max, 100000) == want[:n_max]
        assert [_decide_bits(gamma, view, n, 100000)[-1] for n in range(1, 25)] == want

    @given(
        st.sets(st.integers(1, 40), min_size=1, max_size=16).filter(lambda s: len(s) < max(s)),
        st.integers(0, 4),
        st.sampled_from([F(1), F(3, 2), F(2)]),
        st.integers(1, 40),
    )
    def test_membership_bits_match_ground_truth(self, elements, delayed, p, n_max):
        """Explicit and throttled sets: the one-query extraction agrees with
        the decision procedure on every bit."""
        ce = CeSet.explicit(elements)
        pinned = sorted(elements)[-delayed:] if delayed else []
        if pinned:
            ce = ce.with_delays([(e, 2 * len(elements) + i) for i, e in enumerate(pinned)])
        pe = Exponent.from_rational(p)
        bits = membership_bits(e0_rep(TwistedGenSet(ce, pe)), n_max)
        assert bits == [(n, ce.decide(n)) for n in range(1, n_max + 1)]

    def test_query_count_does_not_grow_with_n_max(self, p1):
        """One degenerate-scale check and one top query, however many bits."""
        lengths = []
        for n_max in (4, 20, 40):
            ce = CeSet.odds()
            log = []
            membership_bits(e0_rep(TwistedGenSet(ce, p1)), n_max, query_log=log)
            lengths.append(len(log))
        assert lengths[0] == lengths[1] == lengths[2] == 2


@pytest.mark.parametrize("n_max", [4, 20, 40])
def test_extract_approx_e0_work(tmp_path, monkeypatch, n_max):
    """Work guard, free of timing noise: approx_e0 runs in one extract.
    It ran n_max + 1 times while each bit queried gamma at its own
    precision; one top query leaves the bootstrap, the degenerate-scale
    check and the top query itself."""
    calls = 0
    approx = twisted.approx_e0

    def counted(*args):
        nonlocal calls
        calls += 1
        return approx(*args)

    monkeypatch.setattr(twisted, "approx_e0", counted)
    argv = ["extract", "--ce-set", "odds", "--p", "3/2", "--n-max", str(n_max)]
    assert main([*argv, "--out", str(tmp_path / "out.json")]) == 0
    assert calls <= 3
