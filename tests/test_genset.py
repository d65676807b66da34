"""Presentation layer: norm-oracle contracts, reps, ball maps, and the
operator-criteria checker."""

import random
from fractions import Fraction

import pytest

from lpcat import (
    CRat,
    CheckSchedule,
    ConfigError,
    Enclosure,
    Exponent,
    FiniteVector,
    NotUnitVector,
    RationalBall,
    StandardGenSet,
    SupportsOverlap,
    ZetaGenSet,
    ballmap_from_disjoint_family,
    basis,
    check_ballmap,
    compose_ballmaps,
    exact_rep,
    norm_p,
    pow2,
)
from lpcat.genset import BallMap, Fuel

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
        """Oracles are safe for concurrent sessions: parallel queries give
        the same certified answers as a sequential run."""
        import concurrent.futures

        from lpcat import CeSet, TwistedGenSet

        gs = TwistedGenSet(CeSet.odds(), p32)
        jobs = [([CRat.of(F(i, 3)), CRat.of(F(1, i + 1))], 12 + i) for i in range(1, 9)]
        expected = [TwistedGenSet(CeSet.odds(), p32).norm_query(c, k) for c, k in jobs]
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda job: gs.norm_query(*job), jobs))
        assert got == expected
        assert gs.stats.count == len(jobs)


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

    def test_fuel_produces_no_output(self, p2):
        gs = StandardGenSet(p2)
        reps = [exact_rep(gs, [CRat.of(0)] * n + [CRat.of(1)]) for n in range(4)]
        bmap = ballmap_from_disjoint_family(
            reps, gs, fuel=Fuel(max_precision=2, max_family=4)
        )
        tiny = RationalBall((CRat.of(1),), F(1, 1024), "E")
        assert bmap.apply(tiny) is None

    def test_wrong_source_label_rejected(self, p2):
        gs = StandardGenSet(p2)
        reps = [exact_rep(gs, [1])]
        bmap = ballmap_from_disjoint_family(reps, gs)
        with pytest.raises(ConfigError):
            bmap.apply(RationalBall((CRat.of(1),), F(1, 2), "F"))


class TestChecker:
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
        schedule = CheckSchedule.seeded("E", seed=0, n_balls=0, n_vectors=0)
        schedule = CheckSchedule(
            (witness,), (), schedule.epsilons, 1, 20, 0
        )
        report = check_ballmap(bmap, lambda v: v, schedule)
        assert report.correctness_violations

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

    def test_report_bytes_deterministic(self, p2):
        gs = StandardGenSet(p2)
        reps = [exact_rep(gs, [CRat.of(0)] * n + [CRat.of(1)]) for n in range(6)]
        bmap = ballmap_from_disjoint_family(reps, gs)
        a = check_ballmap(bmap, lambda v: v, CheckSchedule.seeded("E", seed=5)).to_bytes()
        b = check_ballmap(bmap, lambda v: v, CheckSchedule.seeded("E", seed=5)).to_bytes()
        assert a == b


class TestDescriptors:
    def test_genset_descriptor(self, p32):
        d = StandardGenSet(p32).descriptor()
        assert d["kind"] == "standard" and d["p"] == "3/2"
        z = ZetaGenSet(ZETA, p32).descriptor()
        assert z["zeta"] == ["3/5", "4/5"]

    def test_genset_descriptor_round_trip(self, p32):
        from lpcat import CeSet, genset_from_descriptor, TwistedGenSet

        for gs in (
            StandardGenSet(p32),
            ZetaGenSet(ZETA, p32),
            TwistedGenSet(CeSet.odds(), p32),
        ):
            rebuilt = genset_from_descriptor(gs.descriptor())
            assert rebuilt.descriptor() == gs.descriptor()
            coeffs = [CRat.of(1), CRat.of(F(1, 2))]
            assert rebuilt.norm_query(coeffs, 25) == gs.norm_query(coeffs, 25)

    def test_ball_json_round_trip(self):
        ball = RationalBall((CRat(F(1, 2), F(-1, 3)),), F(1, 7), "E")
        assert RationalBall.from_json(ball.as_json()) == ball
