"""Vector layer: exact sparse arithmetic, certified norms, norm axioms."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lpcat import (
    CRat,
    Enclosure,
    Exponent,
    FiniteVector,
    basis,
    disjoint,
    norm_p,
    pow2,
)
from lpcat.lpspace import abs2_pow_sum

F = Fraction

scalars = st.fractions(min_value=-6, max_value=6, max_denominator=12)


def abs2_terms(v: FiniteVector) -> list[Enclosure]:
    """The squared-modulus terms norm_p sums, one point per coordinate."""
    return [Enclosure.point(c.abs2()) for _, c in v.coords]


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

    def test_disjointness(self):
        assert disjoint(basis(0), basis(1))
        assert not disjoint(basis(0) + basis(2), basis(2))
        assert disjoint(random_vector(random.Random(0)), FiniteVector.zero())

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
            assert disjoint(u, v)
            k = 30
            joint = abs2_pow_sum(abs2_terms(u + v), p, k)
            split = abs2_pow_sum(abs2_terms(u), p, k) + abs2_pow_sum(abs2_terms(v), p, k)
            assert joint.intersects(split.pad(2 * pow2(-k)))
