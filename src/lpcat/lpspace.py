"""Finitely supported lp vectors over exact complex rationals.

Vectors are sparse maps index -> coefficient with zero entries pruned, so
support questions are exact and decidable at this layer.  Norms come back
as certified enclosures; the only rounding in the norm pipeline happens in
one place, the power (|a|^2)^(p/2) of the exact squared modulus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .rigor import (
    CRat,
    CRAT_ZERO,
    Enclosure,
    Exponent,
    norm_from_power_sum,
    strict_int,
    _pow_sum,
)


@dataclass(frozen=True)
class FiniteVector:
    """Finitely supported sequence of exact rational points."""

    coords: tuple[tuple[int, CRat], ...]

    @classmethod
    def from_items(cls, items: Iterable[tuple[int, object]]) -> "FiniteVector":
        acc: dict[int, CRat] = {}
        for index, value in items:
            if index < 0:
                raise ValueError("coordinate indices are natural numbers")
            v = CRat.of(value)
            got = acc.get(index)
            acc[index] = v if got is None else got + v
        pruned = tuple(
            (i, acc[i]) for i in sorted(acc) if not acc[i].is_zero
        )
        return cls(pruned)

    @classmethod
    def zero(cls) -> "FiniteVector":
        return cls(())

    def get(self, index: int) -> CRat:
        for i, v in self.coords:
            if i == index:
                return v
        return CRAT_ZERO

    def support(self) -> frozenset[int]:
        return frozenset(i for i, _ in self.coords)

    @property
    def is_zero(self) -> bool:
        return not self.coords

    def __add__(self, other: "FiniteVector") -> "FiniteVector":
        return FiniteVector.from_items(list(self.coords) + list(other.coords))

    def __sub__(self, other: "FiniteVector") -> "FiniteVector":
        return self + (-other)

    def __neg__(self) -> "FiniteVector":
        return FiniteVector(tuple((i, -v) for i, v in self.coords))

    def scale(self, a) -> "FiniteVector":
        a = CRat.of(a)
        if a.is_zero:
            return FiniteVector.zero()
        return FiniteVector(tuple((i, a * v) for i, v in self.coords))

    def __repr__(self) -> str:
        if not self.coords:
            return "FiniteVector(0)"
        body = ", ".join(f"{i}: {v}" for i, v in self.coords)
        return f"FiniteVector({{{body}}})"

    # canonical JSON form: [index, re_num, re_den, im_num, im_den] sorted
    def to_quintuples(self) -> list[list[int]]:
        return [[i, *v.parts()] for i, v in self.coords]

    @classmethod
    def from_quintuples(cls, rows: Sequence[Sequence[int]]) -> "FiniteVector":
        items = []
        for row in rows:
            if len(row) != 5:
                raise ValueError("vector rows must be quintuples")
            i, rn, rd, imn, imd = (strict_int(x) for x in row)
            items.append((i, CRat.from_ints(rn * imd, imn * rd, rd * imd)))
        return cls.from_items(items)


def basis(n: int) -> FiniteVector:
    """The unit coordinate vector with 1 in position n."""
    if n < 0:
        raise ValueError("basis index must be a natural number")
    return FiniteVector(((n, CRat.of(1)),))


def _abs2_ends(c: CRat) -> tuple[int, int, int]:
    """|c|^2 as a point (m, m, den) of the power kernels' integer form."""
    x, y, d = c.ints
    m = x * x + y * y
    return m, m, d * d


def norm_p(v: FiniteVector, p: Exponent, k: int) -> Enclosure:
    """Certified enclosure of the lp norm of v, of width below 2^-k.

    Exact whenever every |a_n|^p and the final root are rational, e.g.
    p = 1 with real rational coordinates, or Pythagorean points.
    """
    return norm_of_abs2_terms([_abs2_ends(c) for _, c in v.coords], p, k)


def norm_of_abs2_terms(
    abs2_terms: Sequence[tuple[int, int, int]], p: Exponent, k: int
) -> Enclosure:
    """Certified norm from the exact squared moduli of the coordinates,
    points (m, m, den) of the power kernels' form: their p/2 powers at K
    sum in ``_pow_sum`` at K + ceil(log2(n + 1)) = K + n.bit_length()."""
    if not abs2_terms:
        return Enclosure.point(0)
    half, guard = p.half(), len(abs2_terms).bit_length()
    return norm_from_power_sum(lambda K: _pow_sum(abs2_terms, half, K + guard), p, k)
