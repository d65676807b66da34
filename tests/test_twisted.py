"""The twisted presentation and both reduction directions.

Ground truth used here is computed independently of the code paths under
test: gamma for the odd numbers is the exact geometric-series value 2/3,
residual norms at p = 1 are re-derived by hand-coded coordinate expansion
with that exact gamma, and membership bits are compared against the sets'
decision procedures.
"""

import random
import warnings
from fractions import Fraction

import pytest

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
    decide_membership,
    e0_rep,
    epsilon_j,
    expanded_residual_norm,
    extract_scale,
    f0_norm_sandwich,
    gamma_from_scale,
    membership_bits,
    pow2,
    real_with_offset_fault,
    rep_with_offset_fault,
    scale_real,
)
from lpcat.rigor import ComputableReal

F = Fraction

GAMMA_ODDS = sum(F(1, 2 ** (2 * j + 1)) for j in range(60)) + F(2, 3) / 4 ** 60
assert GAMMA_ODDS == F(2, 3)  # independent geometric-series check


def explicit_set():
    return CeSet.explicit([2, 5, 9], label="explicit259")


def throttled_set():
    return explicit_set().with_delays([(5, 7), (2, 3)], label="throttled259")


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

    def test_access_views(self):
        ce = CeSet.odds()
        enum_only = ce.view(enumerate=True, decide=False)
        assert enum_only.element_at(0) == 1
        assert enum_only.prefix(2) == (1, 3, 5)
        assert enum_only.left_sum(1) == F(5, 8)
        assert (enum_only.label, enum_only.sorted_enumeration) == ("odds", True)
        decide_only = ce.view(enumerate=False, decide=True)
        assert decide_only.decide(3) is True
        assert decide_only.gamma_enclosure(4).contains(GAMMA_ODDS)
        assert decide_only.gamma_real().enclosure(6).contains(GAMMA_ODDS)
        before = (ce.stats.max_stage, ce.stats.decide_calls)
        refused = {
            enum_only: (("decide", (3,)), ("gamma_enclosure", (40,)), ("gamma_real", ())),
            decide_only: (("element_at", (40,)), ("prefix", (40,)), ("left_sum", (40,))),
        }
        for view, calls in refused.items():
            for name, args in calls:
                with pytest.raises(AccessViolation):
                    getattr(view, name)(*args)
        assert (ce.stats.max_stage, ce.stats.decide_calls) == before
        assert decide_only.stats is ce.stats
        for view in (enum_only, decide_only):
            for name in ("exact_gamma", "spec_json", "_member"):
                with pytest.raises(AttributeError):
                    getattr(view, name)


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
        x = CeSet.primes().gamma_real()
        for k in (0, 3, 17, 40, 64):
            for kp in (1, 9, 25, 64):
                assert abs(x.approx(k) - x.approx(kp)) < pow2(-k) + pow2(-kp)


class TestEpsilonTerms:
    def test_alpha0_zero_reduces_to_modulus_power(self, p32):
        enc = epsilon_j(0, F(3, 4), c=2, p=p32, k=20)
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
        enc = epsilon_j(F(2, 3), 0, c=1, p=p32, k=30)
        assert enc.contains(0)
        assert enc.width < pow2(-30)

    def test_exact_rational_instance(self, p1):
        assert epsilon_j(1, 1, c=1, p=p1, k=10) == Enclosure.point(1)

    def test_requires_positive_element(self, p1):
        with pytest.raises(ConfigError):
            epsilon_j(1, 1, c=0, p=p1, k=5)


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


class TestScaleExtraction:
    def test_converges_to_three(self, p1):
        gs = TwistedGenSet(CeSet.odds(), p1)
        oracle = e0_rep(gs)
        for k in (3, 8, 16):
            assert abs(extract_scale(oracle, p1, k) - 3) < pow2(-k)

    def test_unimodular_independence(self, p1):
        """A unit multiple of e0 extracts the same scale: the modulus kills
        the scalar."""
        gs = TwistedGenSet(CeSet.odds(), p1)
        base = e0_rep(gs)
        for lam in (CRat.of(-1), CRat(F(3, 5), F(4, 5))):
            scaled = base.scaled(lam)
            assert abs(extract_scale(scaled, p1, 10) - 3) < pow2(-10)

    def test_consistency(self, p32):
        gs = TwistedGenSet(CeSet.primes(), p32)
        s = scale_real(e0_rep(gs), p32)
        for k in (2, 9, 15):
            assert abs(s.approx(k) - s.approx(k + 1)) < pow2(-k) + pow2(-k - 1)

    def test_query_log(self, p1):
        gs = TwistedGenSet(CeSet.odds(), p1)
        log = []
        extract_scale(e0_rep(gs), p1, 6, query_log=log)
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
        s = scale_real(e0_rep(gs), p2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = gamma_from_scale(s, p2)
        for k in (4, 12, 20):
            assert abs(g.approx(k) - F(2, 3)) < pow2(-k)


class TestMembership:
    def test_zero_is_never_member(self, odds, p1):
        gamma = odds.gamma_real()
        assert decide_membership(gamma, odds.view(decide=False), 0) is False

    def test_odds_examples(self, p1):
        ce = CeSet.odds()
        gamma = ce.gamma_real()
        view = ce.view(enumerate=True, decide=False)
        assert decide_membership(gamma, view, 7) is True
        assert decide_membership(gamma, view, 8) is False

    @pytest.mark.parametrize("make", [CeSet.odds, CeSet.primes, throttled_set])
    def test_round_trip_20_bits(self, make, p1):
        ce = make()
        gs = TwistedGenSet(ce, p1)
        bits = membership_bits(e0_rep(gs), p1, ce, 20)
        for n, got in bits:
            assert got == ce.decide(n), n

    def test_corrupted_gamma_detected(self, p1):
        ce = CeSet.odds()
        gamma = real_with_offset_fault(ce.gamma_real(), F(-1, 8))
        view = ce.view(enumerate=True, decide=False)
        got = [decide_membership(gamma, view, n) for n in range(1, 21)]
        want = [ce.decide(n) for n in range(1, 21)]
        assert got != want

    def test_corrupted_rep_detected(self, p1):
        ce = CeSet.odds()
        gs = TwistedGenSet(ce, p1)
        bad = rep_with_offset_fault(e0_rep(gs), F(-1, 8))
        bits = membership_bits(bad, p1, ce, 20)
        agree = sum(1 for n, got in bits if got == ce.decide(n))
        assert agree < 20

    def test_upward_corruption_exhausts_fuel(self, p1):
        """An overshooting gamma oracle can never be cleared by the left
        sums; the fuel bound turns that divergence into a failure."""
        ce = CeSet.odds()
        gamma = real_with_offset_fault(ce.gamma_real(), F(1, 8))
        with pytest.raises(OracleFailure):
            decide_membership(gamma, ce.view(decide=False), 6, fuel=2000)

    def test_enumeration_only_access(self, p1):
        """The membership decision consumes the set through enumeration
        alone: with an external gamma oracle, not a single decide call
        lands on the set, and the restricted view would raise if one did."""
        ce = CeSet.odds()
        gamma = ComputableReal.constant(F(2, 3))
        assert decide_membership(gamma, ce.view(decide=False), 9) is True
        assert ce.stats.decide_calls == 0
