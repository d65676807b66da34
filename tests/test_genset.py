"""Presentation layer: norm-oracle contracts, reps, ball maps, and the
operator-criteria checker."""

import random
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import given, strategies as st

from lpcat import (
    CRat,
    CheckSchedule,
    ConfigError,
    Enclosure,
    Exponent,
    FiniteVector,
    GeneratingSet,
    NotUnitVector,
    PYTHAGOREAN_UNIMODULARS,
    RationalBall,
    StandardGenSet,
    SupportsOverlap,
    VectorRep,
    ZetaGenSet,
    ballmap_from_disjoint_family,
    basis,
    ceil_log2,
    check_ballmap,
    compose_ballmaps,
    descriptor_to_ballmap,
    exact_rep,
    norm_p,
    pow2,
    random_descriptor,
    sqrt_real,
)
import lpcat.genset as genset_module
from lpcat.genset import BallMap

F = Fraction
ZETA = CRat(F(3, 5), F(4, 5))


def shift_family(genset, size):
    reps = []
    for n in range(size):
        rep = exact_rep(genset, [CRat.of(0)] * (n + 1) + [CRat.of(1)], label=f"e{n+1}")
        reps.append(rep)
    return reps


class TestNormOracle:
    def test_unit(self, p2):
        gs = StandardGenSet(p2)
        q = gs.norm_query([1], 20)
        assert abs(q - 1) < pow2(-20)

    def test_three_four_five(self, p2):
        gs = StandardGenSet(p2)
        assert gs.norm_query([3, 4], 20) == 5

    def test_l1_disjoint(self, p1):
        gs = StandardGenSet(p1, field_mode="real")
        assert gs.norm_query([1, 1], 12) == 2

    def test_real_mode_rejects_complex(self, p2):
        gs = StandardGenSet(p2, field_mode="real")
        with pytest.raises(ConfigError):
            gs.norm_query([CRat(F(0), F(1))], 10)

    def test_consistency_and_coherence(self, p32):
        """Contract consistency across precisions plus seminorm coherence
        (homogeneity, triangle) at query precision, on sampled inputs."""
        rng = random.Random(99)
        for gs in (StandardGenSet(p32), ZetaGenSet(ZETA, p32)):
            for _ in range(60):
                coeffs = [
                    CRat(F(rng.randint(-5, 5), rng.randint(1, 5)),
                         F(rng.randint(-5, 5), rng.randint(1, 5)))
                    for _ in range(rng.randint(1, 4))
                ]
                k, kp = rng.choice([(6, 20), (12, 40), (20, 33)])
                qa, qb = gs.norm_query(coeffs, k), gs.norm_query(coeffs, kp)
                assert abs(qa - qb) < pow2(-k) + pow2(-kp)
                two = gs.norm_query([CRat.of(2) * c for c in coeffs], k)
                assert abs(two - 2 * qa) < 3 * pow2(-k)

    def test_query_accounting(self, p2):
        gs = StandardGenSet(p2)
        gs.norm_query([1], 5)
        gs.norm_query([1, 2], 17)
        assert gs.stats.count == 2 and gs.stats.max_k == 17

    def test_coherence_sweep_all_shipped_sets(self, p32):
        """Contract consistency across k <= 40 on 1000 coefficient lists
        spread over every shipped kind of generating set."""
        from lpcat import CeSet, TwistedGenSet

        gensets = [
            StandardGenSet(p32),
            ZetaGenSet(ZETA, p32),
            TwistedGenSet(CeSet.odds(), p32),
            TwistedGenSet(CeSet.primes(), p32),
        ]
        rng = random.Random(2025)
        for gs in gensets:
            for _ in range(250):
                coeffs = [
                    CRat(F(rng.randint(-5, 5), rng.randint(1, 5)),
                         F(rng.randint(-5, 5), rng.randint(1, 5)))
                    for _ in range(rng.randint(1, 4))
                ]
                k = rng.randint(2, 39)
                kp = rng.randint(k, 40)
                qa, qb = gs.norm_query(coeffs, k), gs.norm_query(coeffs, kp)
                assert abs(qa - qb) < pow2(-k) + pow2(-kp)

    def test_triangle_at_query_precision(self, p32):
        from lpcat import CeSet, TwistedGenSet

        rng = random.Random(515)
        for gs in (StandardGenSet(p32), TwistedGenSet(CeSet.odds(), p32)):
            for _ in range(25):
                n = rng.randint(1, 4)
                u = [CRat.of(F(rng.randint(-5, 5), rng.randint(1, 5))) for _ in range(n)]
                v = [CRat.of(F(rng.randint(-5, 5), rng.randint(1, 5))) for _ in range(n)]
                w = [a + b for a, b in zip(u, v)]
                k = 30
                assert gs.norm_query(w, k) <= (
                    gs.norm_query(u, k) + gs.norm_query(v, k) + 3 * pow2(-k)
                )

    def test_concurrent_queries(self, p32):
        """Oracles are safe for concurrent sessions: parallel queries on
        shared presentations, over a rational and over an oracle exponent,
        give the same certified answers as a sequential run, and the shared
        exponent oracle computes each precision once."""
        import concurrent.futures
        import sys
        import threading
        import time
        from collections import Counter

        from lpcat import CeSet, ComputableReal, TwistedGenSet, sqrt_real

        root2 = sqrt_real(2)
        calls: Counter = Counter()
        calls_lock = threading.Lock()

        def counted(k):
            # A slow oracle: the sleep lets other threads ask for the same k.
            with calls_lock:
                calls[k] += 1
            time.sleep(1e-3)
            return root2.approx(k)

        p_oracle = Exponent.from_real(ComputableReal(counted, "sqrt2"))
        shared = [TwistedGenSet(CeSet.odds(), p) for p in (p32, p_oracle)]
        serial = [
            TwistedGenSet(CeSet.odds(), p) for p in (p32, Exponent.from_real(sqrt_real(2)))
        ]
        jobs = [
            (g, [CRat.of(F(i, 3)), CRat.of(F(1, i + 1))], 12 + i)
            for i in range(1, 9)
            for g in (0, 1)
        ]
        expected = [serial[g].norm_query(c, k) for g, c, k in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
                got = list(
                    pool.map(lambda job: shared[job[0]].norm_query(*job[1:]), jobs, timeout=120)
                )
        finally:
            sys.setswitchinterval(interval)
        assert got == expected
        assert [gs.stats.count for gs in shared] == [len(jobs) // 2] * 2
        assert calls and set(calls.values()) == {1}


class TestReps:
    def test_exact_rep_of_e0(self, p2):
        gs = StandardGenSet(p2)
        rep = exact_rep(gs, [1])
        assert rep.coefficients(30) == (CRat.of(1),)

    def test_zeta_e0_over_zeta_set(self, p2):
        """The twisted vector is trivially computable in its own set:
        coefficient 1 on the first generator."""
        gs = ZetaGenSet(ZETA, p2)
        rep = exact_rep(gs, [1])
        assert rep.coefficients(40) == (CRat.of(1),)
        assert rep.exact_vector == FiniteVector.from_items([(0, ZETA)])
        enc = gs.residual_norm(rep.exact_vector, rep.coefficients(10), 20)
        assert enc == Enclosure.point(0)

    def test_rep_accounting(self, p2):
        gs = StandardGenSet(p2)
        rep = exact_rep(gs, [1, 2])
        rep.coefficients(9)
        rep.coefficients(3)
        assert rep.stats.count == 2 and rep.stats.max_k == 9


class TestBallMapConstruction:
    def test_identity_family_is_identity_map(self, p2):
        gs = StandardGenSet(p2)
        reps = [exact_rep(gs, [CRat.of(0)] * n + [CRat.of(1)]) for n in range(6)]
        bmap = ballmap_from_disjoint_family(reps, gs)
        ball = RationalBall((CRat.of(1), CRat.of(2)), F(1, 4), "E")
        out = bmap.apply(ball)
        assert out.radius == F(1, 2)
        assert out.coeffs[:2] == (CRat.of(1), CRat.of(2))

    def test_zeta_family_is_multiplication(self, p2):
        target = ZetaGenSet(ZETA, p2)
        reps = [exact_rep(target, [CRat.of(0)] * n + [CRat.of(1)]) for n in range(6)]
        bmap = ballmap_from_disjoint_family(reps, target, kind="mult-by-zeta")
        report = check_ballmap(
            bmap, lambda v: v.scale(ZETA), CheckSchedule.seeded("E", seed=3)
        )
        assert report.passed

    def test_shift_family_norm_preserved(self, p32):
        gs = StandardGenSet(p32)
        bmap = ballmap_from_disjoint_family(shift_family(gs, 8), gs, kind="shift")
        rng = random.Random(4)
        for _ in range(10):
            coeffs = tuple(
                CRat.of(F(rng.randint(-4, 4), rng.randint(1, 4)))
                for _ in range(rng.randint(1, 4))
            )
            out = bmap.apply(RationalBall(coeffs, F(1, 64), "E"))
            v_in = gs.vector_of(coeffs)
            v_out = gs.vector_of(out.coeffs)
            left = norm_p(v_in, p32, 30)
            right = norm_p(v_out, p32, 30)
            assert left.intersects(right.pad(pow2(-5)))

    def test_non_unit_rejected(self, p2):
        gs = StandardGenSet(p2)
        reps = [exact_rep(gs, [2])]
        with pytest.raises(NotUnitVector):
            ballmap_from_disjoint_family(reps, gs)

    def test_overlap_rejected(self, p2):
        gs = StandardGenSet(p2)
        reps = [exact_rep(gs, [1]), exact_rep(gs, [1])]
        with pytest.raises(SupportsOverlap):
            ballmap_from_disjoint_family(reps, gs)

    def test_coordinate_overlap_of_non_exact_reps(self, p2):
        """Reps with no exact vector over E or F_zeta are checked
        coordinate by coordinate, as coordinate i of sum a_j zeta e_j has
        modulus |a_i|: two unit reps both certified away from 0 at an
        index overlap, and a pair with disjoint supports passes."""
        for gs in (StandardGenSet(p2), ZetaGenSet(ZETA, p2)):
            overlapping = [
                VectorRep(gs, lambda _k: [F(3, 5), F(4, 5)]),
                VectorRep(gs, lambda _k: [F(4, 5), F(-3, 5)]),
            ]
            assert all(rep.exact_vector is None for rep in overlapping)
            with pytest.raises(SupportsOverlap, match="overlap at index 0"):
                ballmap_from_disjoint_family(overlapping, gs)
            disjoint = [VectorRep(gs, lambda _k: [1]), VectorRep(gs, lambda _k: [0, 1])]
            bmap = ballmap_from_disjoint_family(disjoint, gs)
            assert bmap.apply(RationalBall((CRat.of(1),), F(1, 4), "E")) is not None

    def test_fuel_produces_no_output(self, p2, monkeypatch):
        """A ball past either work bound gets no output: one needing more
        than 96 bits of coefficient precision (radius 2^-96 around e0 needs
        k_q = 97), one with more coefficients than the family has members,
        and one with more than _MAX_FAMILY coefficients."""
        gs = StandardGenSet(p2)
        reps = [exact_rep(gs, [CRat.of(0)] * n + [CRat.of(1)]) for n in range(4)]
        bmap = ballmap_from_disjoint_family(reps, gs)
        e0 = (CRat.of(1),)
        assert bmap.apply(RationalBall(e0, pow2(-95), "E")) is not None
        assert bmap.apply(RationalBall(e0, pow2(-96), "E")) is None
        assert bmap.apply(RationalBall(e0 * 5, F(1, 4), "E")) is None
        assert bmap.apply(RationalBall(e0 * 4, F(1, 4), "E")) is not None
        monkeypatch.setattr(genset_module, "_MAX_FAMILY", 3)
        assert bmap.apply(RationalBall(e0 * 4, F(1, 4), "E")) is None

    def test_wrong_source_label_rejected(self, p2):
        gs = StandardGenSet(p2)
        reps = [exact_rep(gs, [1])]
        bmap = ballmap_from_disjoint_family(reps, gs)
        with pytest.raises(ConfigError):
            bmap.apply(RationalBall((CRat.of(1),), F(1, 2), "F"))


class ScriptedTarget:
    """Stand-in target presentation whose residual_norm returns the
    scripted enclosure for each precision k and records every k asked."""

    def __init__(self, script: dict):
        self.script, self.asked = script, []

    def residual_norm(self, _v, _coeffs, k: int) -> Enclosure:
        self.asked.append(k)
        return self.script[k]


class OneEpsilonSchedule(CheckSchedule):
    """A schedule whose convergence grid is the one epsilon 1/4."""

    epsilons = (F(1, 4),)


class TestChecker:
    @pytest.mark.parametrize("source", ["zeta", "twisted"])
    def test_non_coordinate_source_refused(self, p2, source):
        """The convergence check reads a sample vector's E-coefficients,
        which are no other presentation's coefficients, so a map from
        F_zeta (an E subclass) or from F is refused before any check."""
        from lpcat import CeSet, TwistedGenSet

        gs = StandardGenSet(p2)
        src = ZetaGenSet(ZETA, p2) if source == "zeta" else TwistedGenSet(CeSet.odds(), p2)
        bmap = BallMap(src, gs, "from-" + source, lambda ball: ball)
        with pytest.raises(ConfigError, match="coordinate source"):
            check_ballmap(bmap, lambda v: v, CheckSchedule.seeded(src.label, seed=1))

    def test_identity_passes(self, p2):
        gs = StandardGenSet(p2)
        reps = [exact_rep(gs, [CRat.of(0)] * n + [CRat.of(1)]) for n in range(6)]
        bmap = ballmap_from_disjoint_family(reps, gs)
        report = check_ballmap(bmap, lambda v: v, CheckSchedule.seeded("E", seed=1))
        assert report.passed
        assert not report.correctness_violations

    def test_doubled_radius_still_correct(self, p2):
        """Correctness is one-sided: a looser output ball stays correct."""
        gs = StandardGenSet(p2)
        reps = [exact_rep(gs, [CRat.of(0)] * n + [CRat.of(1)]) for n in range(6)]
        inner = ballmap_from_disjoint_family(reps, gs)

        def loose(ball):
            out = inner.apply(ball)
            if out is None:
                return None
            return RationalBall(out.coeffs, 2 * out.radius, out.genset_label)

        bmap = BallMap(gs, gs, "loose-identity", loose)
        report = check_ballmap(bmap, lambda v: v, CheckSchedule.seeded("E", seed=2))
        assert not report.correctness_violations

    def test_dropped_coordinate_violates(self, p2):
        """A map that forgets coordinate 0 fails correctness with the
        witness ball around e0."""
        gs = StandardGenSet(p2)

        def drop(ball):
            coeffs = (CRat.of(0),) + ball.coeffs[1:]
            return RationalBall(coeffs, 2 * ball.radius, "E")

        bmap = BallMap(gs, gs, "drop-0", drop)
        witness = RationalBall((CRat.of(1),), F(1, 4), "E")
        report = check_ballmap(bmap, lambda v: v, CheckSchedule((witness,), (), 0))
        assert report.correctness_violations

    def test_no_output_ball_and_failed_convergence(self, p2):
        """A ball past the precision bound is recorded as no output, and a
        sample vector wider than the family gets no output at any radius,
        so each of the 12 grid epsilons is a convergence failure."""
        gs = StandardGenSet(p2)
        reps = [exact_rep(gs, [CRat.of(0)] * n + [CRat.of(1)]) for n in range(2)]
        bmap = ballmap_from_disjoint_family(reps, gs)
        tiny = RationalBall((CRat.of(1),), pow2(-100), "E")
        wide = FiniteVector.from_items([(0, 1), (1, 1), (2, 1)])
        report = check_ballmap(bmap, lambda v: v, CheckSchedule((tiny,), (wide,), 0))
        assert report.no_output == [tiny.as_json()]
        assert report.correctness_checked == 0
        assert report.convergence_achieved == 0
        assert len(report.convergence_failures) == 12
        assert not report.passed

    def test_composition_matches_composed_family(self, p2):
        """Composing two family maps includes the composed family's map at
        ball level: direct output sits inside the sequential output."""
        gs = StandardGenSet(p2)
        shift1 = ballmap_from_disjoint_family(shift_family(gs, 10), gs)
        shift2 = ballmap_from_disjoint_family(
            [exact_rep(gs, [CRat.of(0)] * (n + 2) + [CRat.of(1)]) for n in range(10)],
            gs,
        )
        sequential = compose_ballmaps(shift1, shift1)
        rng = random.Random(6)
        for _ in range(8):
            coeffs = tuple(
                CRat.of(F(rng.randint(-4, 4), rng.randint(1, 4)))
                for _ in range(rng.randint(1, 4))
            )
            ball = RationalBall(coeffs, F(1, 16), "E")
            seq = sequential.apply(ball)
            direct = shift2.apply(ball)
            # direct radius 2r, sequential 4r, same exact center
            assert seq.radius == 2 * direct.radius
            diff = gs.vector_of(seq.coeffs) - gs.vector_of(direct.coeffs)
            gap = norm_p(diff, p2, 30)
            assert gap.hi + direct.radius <= seq.radius

    def test_family_map_isometric_at_truncation(self, p32):
        """Norm enclosures of input and output centers are consistent at
        width 2^-30 for tight input balls (the synthesized map realises an
        isometry up to the ball radius)."""
        from lpcat import CeSet, TwistedGenSet
        from lpcat.twisted import identity_family

        gsE = StandardGenSet(p32)
        gsF = TwistedGenSet(CeSet.odds(), p32)
        bmap = ballmap_from_disjoint_family(identity_family(gsF, 8), gsF)
        rng = random.Random(44)
        for _ in range(10):
            coeffs = tuple(
                CRat.of(F(rng.randint(-4, 4), rng.randint(1, 4)))
                for _ in range(rng.randint(1, 5))
            )
            ball = RationalBall(coeffs, pow2(-32), "E")
            out = bmap.apply(ball)
            left = gsE.norm_enclosure(coeffs, 30)
            right = gsF.norm_enclosure(out.coeffs, 30)
            assert left.pad(pow2(-30)).intersects(right)

    def test_identity_into_twisted_presentation_checks(self, p32):
        """check_ballmap of the identity family from E to F measures every
        sampled distance with TwistedGenSet.residual_norm, the expansion
        route, and finds no violation."""
        from lpcat import CeSet, TwistedGenSet
        from lpcat.twisted import identity_family

        gsF = TwistedGenSet(CeSet.odds(), p32)
        bmap = ballmap_from_disjoint_family(identity_family(gsF, 4), gsF)
        full = CheckSchedule.seeded("E", seed=3)
        schedule = CheckSchedule(full.balls[:3], full.sample_vectors[:2], full.seed)
        report = check_ballmap(bmap, lambda v: v, schedule)
        assert report.correctness_checked == 9
        assert not report.correctness_violations and not report.correctness_undecided
        assert report.convergence_achieved == 24 and report.passed

    # Boundary cases of check_ballmap's radius tests, whose branches were
    # the Fraction comparisons: refine when dist.hi >= radius, pass when
    # dist.hi < radius, a violation when dist.lo >= radius and undecided
    # otherwise; convergence when dist.hi + radius < eps.  The output
    # radius is 1/8, and JUST_BELOW is 1/8 - 2^-40.

    JUST_BELOW = Enclosure(0, (1 << 37) - 1, 1 << 40)

    @pytest.mark.parametrize(
        "script, refined, passed, undecided, violations",
        [
            ({20: JUST_BELOW}, False, 3, 0, 0),
            ({20: Enclosure(0, 1, 8), 32: JUST_BELOW}, True, 3, 0, 0),
            ({20: Enclosure(0, 1, 8), 32: Enclosure(0, 1, 8)}, True, 0, 3, 0),
            ({20: Enclosure(1, 2, 8), 32: Enclosure(1, 2, 8)}, True, 0, 0, 3),
            ({20: Enclosure(1, 1, 8), 32: Enclosure(1, 1, 8)}, True, 0, 0, 3),
        ],
        ids=["below", "hi-at-radius-refines", "hi-at-radius-undecided",
             "lo-at-radius-violates", "point-at-radius-violates"],
    )
    def test_radius_boundaries(self, p2, script, refined, passed, undecided, violations):
        """A scripted distance with an end exactly at the output radius
        takes the branch the Fraction comparisons took."""
        target = ScriptedTarget(script)
        bmap = BallMap(StandardGenSet(p2), target, "scripted",
                       lambda ball: RationalBall(ball.coeffs, F(1, 8), "E"))
        ball = RationalBall((CRat.of(1),), F(1, 4), "E")
        report = check_ballmap(bmap, lambda v: v, CheckSchedule((ball,), (), 0))
        assert target.asked == ([20, 32] * 3 if refined else [20] * 3)
        assert report.correctness_checked == 3
        assert len(report.correctness_undecided) == undecided
        assert len(report.correctness_violations) == violations
        assert report.passed == (violations == 0)
        for record in report.correctness_undecided + report.correctness_violations:
            assert record["radius"] == "1/8"
            assert record["distance"] == script[32].as_json()

    @pytest.mark.parametrize(
        "hi, achieved",
        [(JUST_BELOW, True), (Enclosure(0, 1, 8), False)],
        ids=["below-eps-converges", "at-eps-fails"],
    )
    def test_convergence_boundary(self, p2, hi, achieved):
        """With one grid epsilon 1/4 and an output radius of 1/8, a
        distance whose upper end is exactly 1/8 gives dist.hi + radius ==
        eps, which is not inside the neighborhood at any of the three
        input radii; one just below converges at the first."""
        target = ScriptedTarget({24: hi})
        bmap = BallMap(StandardGenSet(p2), target, "scripted",
                       lambda ball: RationalBall(ball.coeffs, F(1, 8), "E"))
        vec = FiniteVector.from_items([(0, 1)])
        report = check_ballmap(bmap, lambda v: v, OneEpsilonSchedule((), (vec,), 0))
        assert target.asked == ([24] if achieved else [24] * 3)
        assert report.convergence_achieved == int(achieved)
        assert report.convergence_failures == (
            [] if achieved else [{"vector": vec.to_quintuples(), "epsilon": "1/4"}]
        )

    def test_report_bytes_deterministic(self, p2):
        gs = StandardGenSet(p2)
        reps = [exact_rep(gs, [CRat.of(0)] * n + [CRat.of(1)]) for n in range(6)]
        bmap = ballmap_from_disjoint_family(reps, gs)
        a = check_ballmap(bmap, lambda v: v, CheckSchedule.seeded("E", seed=5)).to_bytes()
        b = check_ballmap(bmap, lambda v: v, CheckSchedule.seeded("E", seed=5)).to_bytes()
        assert a == b


# ---------------------------------------------------------------------------
# reference copies of the CRat code the integer loops replaced
# ---------------------------------------------------------------------------


def ref_transform(ball: RationalBall, reps, target) -> Optional[RationalBall]:
    """The ball-map transform of ballmap_from_disjoint_family, adding the
    products a * c as CRat values, one CRat sum per term."""
    alphas = ball.coeffs
    if len(alphas) > len(reps) or len(alphas) > genset_module._MAX_FAMILY:
        return None
    r = ball.radius
    total = sum((a.abs_enclosure(4).hi for a in alphas), F(0))
    if total == 0:
        return RationalBall((CRat.of(0),), 2 * r, target.label)
    k_q = max(1, ceil_log2(total / r) + 1)
    if k_q > genset_module._MAX_PRECISION:
        return None
    acc = {}
    for a, rep in zip(alphas, reps):
        if a.is_zero:
            continue
        for i, c in enumerate(rep.coefficients(k_q)):
            if c.is_zero:
                continue
            acc[i] = acc.get(i, CRat.of(0)) + a * c
    top = max(acc) if acc else 0
    beta = tuple(acc.get(i, CRat.of(0)) for i in range(top + 1))
    return RationalBall(beta, 2 * r, target.label)


def ref_residual_norm(gs, v: FiniteVector, coeffs, k: int) -> Enclosure:
    """E's and F_zeta's residual through the difference vector."""
    return norm_p(v - gs.vector_of(coeffs), gs.p, k)


class Unchecked(GeneratingSet):
    """E's norm with no disjointness check, so a family may put several
    members on one index and their products add up there."""

    kind = "unchecked"

    def norm_enclosure(self, coeffs, k):
        return StandardGenSet(self.p).norm_enclosure(coeffs, k)


EXPONENTS = {
    "1": Exponent.from_rational(1),
    "3/2": Exponent.from_rational(F(3, 2)),
    "2": Exponent.from_rational(2),
    "3": Exponent.from_rational(3),
    "sqrt2": Exponent.from_real(sqrt_real(2)),
}

small = st.builds(F, st.integers(-6, 6), st.integers(1, 6))
points = st.builds(CRat, small, small) | st.builds(CRat, small)


def target_of(kind: str, p: Exponent, zeta: CRat):
    if kind == "E":
        return StandardGenSet(p)
    if kind == "zeta":
        return ZetaGenSet(zeta, p)
    return Unchecked(p, label="U")


class TestIntegerLoopsMatchCRatCopies:
    """The transform and the E / F_zeta residual run on integer
    numerators; each must give exactly what the CRat code gave."""

    @given(
        st.sampled_from(sorted(EXPONENTS)),
        st.sampled_from(["E", "zeta", "unchecked"]),
        st.sampled_from(PYTHAGOREAN_UNIMODULARS),
        st.lists(
            st.tuples(st.integers(0, 3), st.sampled_from(PYTHAGOREAN_UNIMODULARS)),
            min_size=1,
            max_size=5,
        ),
        st.lists(points, min_size=1, max_size=6),
        st.integers(0, 100),
    )
    def test_transform(self, p_name, kind, zeta, members, alphas, radius_bits):
        """Families of unimodular multiples of basis vectors: disjoint
        ones over E and F_zeta, and over Unchecked members that share an
        index, where products add and may cancel to zero."""
        target = target_of(kind, EXPONENTS[p_name], zeta)
        if kind == "unchecked":
            reps = [
                VectorRep(target, lambda _k, t=t, lam=lam: [0] * t + [lam]) for t, lam in members
            ]
        else:
            members = list(dict(members).items())
            reps = [exact_rep(target, [0] * t + [lam]) for t, lam in members]
        bmap = ballmap_from_disjoint_family(reps, target)
        ball = RationalBall(tuple(alphas[: len(reps)]), pow2(-radius_bits), "E")
        assert bmap.apply(ball) == ref_transform(ball, reps, target)

    @given(
        st.sampled_from(sorted(EXPONENTS)),
        st.sampled_from(["E", "zeta"]),
        st.sampled_from(PYTHAGOREAN_UNIMODULARS),
        st.dictionaries(st.integers(0, 5), points, max_size=5),
        st.lists(points, max_size=6),
        st.lists(st.booleans(), min_size=6, max_size=6),
        st.integers(0, 24),
    )
    def test_residual_norm(self, p_name, kind, zeta, coords, coeffs, cancel, k):
        """Random complex vectors and coefficients; where ``cancel`` says
        so, coefficient i is set to cancel coordinate i, which removes a
        term from the sum."""
        gs = target_of(kind, EXPONENTS[p_name], zeta)
        v = FiniteVector.from_items(coords.items())
        coeffs = list(coeffs)
        for i in range(len(coeffs)):
            if cancel[i]:
                coeffs[i] = v.get(i) * CRat(gs.zeta.re, -gs.zeta.im)
        got = gs.residual_norm(v, coeffs, k)
        want = ref_residual_norm(gs, v, coeffs, k)
        assert (got.lo, got.hi) == (want.lo, want.hi)


def test_check_ballmap_crat_work(p32, crats_built):
    """Work guard, free of timing noise: CRat values built by one seeded
    check_ballmap of a descriptor map.  The CRat transform and residual
    built 521 here; the integer loops build 170."""
    d = random_descriptor(random.Random(123), 8)
    bmap = descriptor_to_ballmap(d, p32)
    schedule = CheckSchedule.seeded("E", seed=31)
    crats_built.clear()
    report = check_ballmap(bmap, d.apply, schedule)
    assert report.passed
    assert len(crats_built) <= 170


@pytest.mark.parametrize("kind", ["E", "F_zeta"])
@pytest.mark.parametrize("p", [F(3, 2), 2, "oracle"])
def test_norm_query_coerces_each_coefficient_once(monkeypatch, kind, p):
    """Work guard, free of timing noise: one m = 64 norm_query on E and
    on F_zeta calls CRat.of m + 1 times, once per coefficient as it
    validates them.  It made 3 (m + 1) = 195 while norm_enclosure coerced
    the tuple again in vector_of and once more in FiniteVector.from_items.
    The answer is still the norm of the combination's vector."""
    exp = Exponent.from_real(sqrt_real(2)) if p == "oracle" else Exponent.from_rational(p)
    presentation = StandardGenSet(exp) if kind == "E" else ZetaGenSet(ZETA, exp)
    rng = random.Random(7)
    coeffs = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(65)]
    want = norm_p(presentation.vector_of(coeffs), exp, 30).midpoint
    calls = 0
    of = CRat.of.__func__

    def counted(cls, value):
        nonlocal calls
        calls += 1
        return of(cls, value)

    monkeypatch.setattr(CRat, "of", classmethod(counted))
    assert presentation.norm_query(coeffs, 30) == want
    assert calls == len(coeffs)
