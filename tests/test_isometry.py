"""Descriptors, the trichotomy classifier, and the p = 2 boundary."""

import random
from fractions import Fraction

import pytest

from lpcat import (
    CheckSchedule,
    ClassifierVerdict,
    CRat,
    Exponent,
    FiniteVector,
    IsometryDescriptor,
    NotUnimodular,
    basis,
    ballmap_from_disjoint_family,
    check_ballmap,
    classify,
    descriptor_to_ballmap,
    norm_p,
    pow2,
    random_descriptor,
    rotation_demo,
    rotation_images,
)
from lpcat.genset import RationalBall, StandardGenSet, exact_rep
from lpcat.isometry import _draw_sample, _l2_norms
from lpcat.rigor import sqrt_real

F = Fraction


class TestDescriptors:
    def test_identity_descriptor_is_identity_map(self, p32):
        d = IsometryDescriptor(tuple(range(6)), tuple(CRat.of(1) for _ in range(6)))
        bmap = descriptor_to_ballmap(d, p32)
        ball = RationalBall((CRat.of(2), CRat.of(-1)), F(1, 8), "E")
        out = bmap.apply(ball)
        assert out.coeffs[:2] == (CRat.of(2), CRat.of(-1))
        assert out.radius == F(1, 4)

    def test_fixed_unimodular_scalar_is_multiplication(self, p32):
        zeta = CRat(F(3, 5), F(4, 5))
        d = IsometryDescriptor(tuple(range(6)), tuple(zeta for _ in range(6)))
        bmap = descriptor_to_ballmap(d, p32)
        report = check_ballmap(
            bmap, lambda v: v.scale(zeta), CheckSchedule.seeded("E", seed=17)
        )
        assert report.passed

    def test_transposition_preserves_norm_exactly(self, p32):
        d = IsometryDescriptor((1, 0, 2, 3, 4, 5), tuple(CRat.of(1) for _ in range(6)))
        rng = random.Random(30)
        for _ in range(10):
            v = FiniteVector.from_items(
                [(i, F(rng.randint(-5, 5), rng.randint(1, 5))) for i in range(4)]
            )
            assert norm_p(d.apply(v), p32, 30) == norm_p(v, p32, 30)

    def test_rejects_non_unimodular(self):
        with pytest.raises(NotUnimodular):
            IsometryDescriptor((0,), (CRat.of(2),))

    def test_rejects_non_injective(self):
        from lpcat import ConfigError

        with pytest.raises(ConfigError):
            IsometryDescriptor((0, 0), (CRat.of(1), CRat.of(1)))

    def test_rejects_inexact_scalars(self):
        """A scalar known only to a precision is refused by type, before
        any modulus check: no finite query certifies |lambda| = 1."""
        for lam in (sqrt_real(F(1, 2)), F(1), 1):
            with pytest.raises(TypeError):
                IsometryDescriptor((0,), (lam,))

    def test_json_round_trip(self):
        d = IsometryDescriptor(
            (2, 0, 1), (CRat.of(1), CRat(F(3, 5), F(4, 5)), CRat.of(-1))
        )
        assert IsometryDescriptor.from_json(d.as_json()) == d


class TestClassifier:
    def test_basis_images_conform(self, p32):
        verdict = classify([basis(n) for n in range(5)], p32, tol=10)
        assert verdict.verdict == "Conforms"
        assert not verdict.witnesses

    def test_descriptor_images_conform(self, p32):
        rng = random.Random(77)
        d = random_descriptor(rng, 7)
        images = [d.apply(basis(n)) for n in range(7)]
        assert classify(images, p32, tol=12).verdict == "Conforms"

    def test_shift_images_conform(self, p2):
        images = [basis(n + 1) for n in range(6)]
        assert classify(images, p2, tol=10).verdict == "Conforms"

    def test_rotation_violates_with_index0_witness(self, p2):
        img0, img1 = rotation_images(p2)
        verdict = classify([img0, img1], p2, tol=8)
        assert verdict.verdict == "Violates"
        overlaps = [w for w in verdict.witnesses if w["kind"] == "support_overlap"]
        assert overlaps and overlaps[0]["coordinate"] == 0
        lo0 = F(overlaps[0]["moduli"][0][0])
        assert lo0 > 0  # enclosure excludes 0

    def test_norm_violation(self, p1):
        verdict = classify([basis(0).scale(2)], p1, tol=6)
        assert verdict.verdict == "Violates"
        assert verdict.witnesses[0]["kind"] == "norm"

    def test_straddling_norm_yields_unknown(self, p1):
        """A norm of exactly 1 + 2^-tol is neither inside the band nor
        certified outside it."""
        image = FiniteVector.from_items([(0, F(257, 256))])
        verdict = classify([image], p1, tol=8)
        assert verdict.verdict == "Unknown"
        assert verdict.witnesses[0]["kind"] == "norm"

    def test_coordinate_below_band_is_skipped(self, p1):
        """Two images sharing index 0, where one has modulus 2^-20 < 2^-8,
        cannot overlap there."""
        first = FiniteVector.from_items([(0, 1)])
        second = FiniteVector.from_items([(0, pow2(-20)), (1, 1)])
        assert classify([first, second], p1, tol=8).verdict == "Conforms"

    def test_straddling_coordinate_yields_unknown(self, p2):
        """A coordinate whose enclosure straddles the threshold must not be
        guessed either way."""
        gs = StandardGenSet(p2)
        tol = 8
        tiny = pow2(-tol)  # exactly at the band edge

        def fn(k):
            return [CRat.of(1), CRat.of(tiny)]

        from lpcat.genset import VectorRep

        near_e0 = VectorRep(gs, fn, label="smudged")
        verdict = classify([near_e0, basis(1)], p2, tol=tol)
        assert verdict.verdict == "Unknown"

    def test_equivalence_round_trip(self, p32):
        """Descriptor-generated maps pass the operator criteria and their
        images classify as conforming; conforming exact families feed back
        into a passing ball map."""
        rng = random.Random(123)
        d = random_descriptor(rng, 8)
        bmap = descriptor_to_ballmap(d, p32)
        report = check_ballmap(bmap, d.apply, CheckSchedule.seeded("E", seed=31))
        assert report.passed
        images = [d.apply(basis(n)) for n in range(8)]
        assert classify(images, p32, tol=10).verdict == "Conforms"
        gs = StandardGenSet(p32)
        reps = [exact_rep(gs, [img.get(i) for i in range(9)]) for img in images]
        bmap2 = ballmap_from_disjoint_family(reps, gs)
        report2 = check_ballmap(bmap2, d.apply, CheckSchedule.seeded("E", seed=32))
        assert report2.passed


class TestRotationDemo:
    def test_p2_preserves_and_violates(self, p2):
        report = rotation_demo(p2, samples=30, seed=5)
        assert report["l2_preservation"]["consistent"] == 30
        assert report["classifier"]["verdict"] == "Violates"
        assert "p_witness" not in report

    def test_p1_witness(self, p1):
        report = rotation_demo(p1, samples=10, seed=5)
        assert report["p_witness"]["unit_excluded"] is True
        lo = F(report["p_witness"]["image_norm"][0])
        assert lo > 1  # the l1 image norm is sqrt 2, certified away from 1

    def test_p3_witness(self, p3):
        report = rotation_demo(p3, samples=10, seed=5)
        assert report["p_witness"]["unit_excluded"] is True
        hi = F(report["p_witness"]["image_norm"][1])
        assert hi < 1  # 2^(1/3 - 1/2) < 1

    def test_unit_image_norm_contains_one_at_p2(self, p2):
        _, rotated = _l2_norms([(1, 1)], p2, 30)
        assert rotated.contains(1)

    def test_sample_norms_are_norm_p(self, p2):
        """Each sample draws the RNG as the Fraction loop did, and both of
        its integer norm enclosures are norm_p of the sampled vector, end
        for end, zero vectors and one-coordinate samples included."""
        ours, theirs = random.Random(29), random.Random(29)
        for _ in range(300):
            sample = _draw_sample(ours)
            items = [
                (i, F(theirs.randint(-8, 8), theirs.randint(1, 8)))
                for i in range(theirs.randint(1, 5))
            ]
            assert items == [(i, F(a, b)) for i, (a, b) in enumerate(sample)]
            want = norm_p(FiniteVector.from_items(items), p2, 30)
            for enc in _l2_norms(sample, p2, 30):
                assert (enc.lo, enc.hi) == (want.lo, want.hi)

    def test_sample_loop_builds_no_crat(self, p2, crats_built):
        """Work guard, free of timing noise: the CRat values one
        rotation_demo builds do not grow with the sample count.  The CRat
        sample loop built 54 at 10 samples and 503 at 100; the integer
        loop builds 4 at both."""
        counts = []
        for samples in (10, 100):
            crats_built.clear()
            rotation_demo(p2, samples=samples, seed=11)
            counts.append(len(crats_built))
        assert counts[0] == counts[1]
