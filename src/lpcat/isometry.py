"""Surjective-isometry machinery: descriptors (a permutation plus
unimodular scalars), synthesis of ball maps from them, the trichotomy
classifier for candidate basis images, and the p = 2 boundary demo.

For p != 2 a linear map is a surjective isometry of lp exactly when every
basis image is a unit vector and the images are pairwise disjointly
supported; the classifier checks that pair of conditions on truncations,
answering Conforms / Violates / Unknown with enclosure witnesses.  The
condition genuinely fails to be necessary at p = 2, where any rotation of
an orthonormal pair preserves the norm while overlapping supports; the
demo certifies both halves of that contrast.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .rigor import (
    CRat,
    CRAT_ZERO,
    ComputablePoint,
    ConfigError,
    Enclosure,
    Exponent,
    pow2,
    sqrt_real,
)
from .lpspace import FiniteVector, basis, norm_of_abs2_terms, norm_p
from .genset import (
    BallMap,
    Fuel,
    StandardGenSet,
    VectorRep,
    ballmap_from_disjoint_family,
    exact_rep,
)


class NotUnimodular(ConfigError):
    """A descriptor scalar failed the modulus-one certificate."""


Scalar = Union[CRat, ComputablePoint]


@dataclass(frozen=True)
class IsometryDescriptor:
    """Finite-range descriptor of T(e_n) = lambda_n e_{phi(n)}.

    phi must be injective on its range; exact scalars must be exactly
    unimodular (Pythagorean points, units), oracle scalars are certified
    at a fixed check precision.  Surjectivity itself is not decidable from
    a finite range; ``permutes_range`` reports the checkable proxy, phi
    mapping its domain onto itself.
    """

    phi: tuple[int, ...]
    lambdas: tuple[Scalar, ...]

    def __post_init__(self):
        if len(self.phi) != len(self.lambdas):
            raise ConfigError("descriptor needs one scalar per mapped index")
        if len(set(self.phi)) != len(self.phi):
            raise ConfigError("phi must be injective")
        if any(t < 0 for t in self.phi):
            raise ConfigError("phi maps into the naturals")
        for lam in self.lambdas:
            if isinstance(lam, CRat):
                if lam.abs2() != 1:
                    raise NotUnimodular(f"scalar {lam} has |.|^2 = {lam.abs2()}")
            elif isinstance(lam, ComputablePoint):
                q = lam.approx(12)
                if abs(q.abs2() - 1) > pow2(-9):
                    raise NotUnimodular("oracle scalar not certified unimodular")
            else:
                raise TypeError("scalars are rational points or point oracles")

    @property
    def size(self) -> int:
        return len(self.phi)

    def permutes_range(self) -> bool:
        return set(self.phi) == set(range(self.size))

    def apply(self, v: FiniteVector) -> FiniteVector:
        """Exact image of a finite vector; requires exact scalars and phi
        defined on the vector's support."""
        items = []
        for i, c in v.coords:
            if i >= self.size:
                raise ConfigError(f"descriptor does not cover index {i}")
            lam = self.lambdas[i]
            if not isinstance(lam, CRat):
                raise ConfigError("exact application needs exact scalars")
            items.append((self.phi[i], lam * c))
        return FiniteVector.from_items(items)

    def image_rep(self, n: int, genset: StandardGenSet) -> VectorRep:
        lam = self.lambdas[n]
        target_index = self.phi[n]
        if isinstance(lam, CRat):
            coeffs = [CRAT_ZERO] * target_index + [lam]
            return exact_rep(genset, coeffs, label=f"T(e{n})")

        def fn(k: int):
            return [CRAT_ZERO] * target_index + [lam.approx(k)]

        return VectorRep(genset, fn, label=f"T(e{n})")

    def as_json(self) -> dict:
        lambdas = []
        for lam in self.lambdas:
            if not isinstance(lam, CRat):
                raise ConfigError("only exact descriptors serialise")
            lambdas.append(
                [
                    lam.re.numerator,
                    lam.re.denominator,
                    lam.im.numerator,
                    lam.im.denominator,
                ]
            )
        return {
            "schema": "lpcat.descriptor/1",
            "phi": [[n, t] for n, t in enumerate(self.phi)],
            "lambdas": lambdas,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "IsometryDescriptor":
        try:
            pairs = sorted((int(a), int(b)) for a, b in obj["phi"])
            lambdas = []
            for row in obj["lambdas"]:
                rn, rd, imn, imd = (int(x) for x in row)
                lambdas.append(CRat(Fraction(rn, rd), Fraction(imn, imd)))
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"malformed descriptor: {exc!r}") from exc
        if [a for a, _ in pairs] != list(range(len(pairs))):
            raise ConfigError("phi pairs must cover 0..N-1")
        return cls(tuple(b for _, b in pairs), tuple(lambdas))

    @classmethod
    def identity(cls, size: int) -> "IsometryDescriptor":
        one = CRat.of(1)
        return cls(tuple(range(size)), tuple(one for _ in range(size)))


PYTHAGOREAN_UNIMODULARS: tuple[CRat, ...] = (
    CRat.of(1),
    CRat.of(-1),
    CRat(Fraction(0), Fraction(1)),
    CRat(Fraction(0), Fraction(-1)),
    CRat(Fraction(3, 5), Fraction(4, 5)),
    CRat(Fraction(-4, 5), Fraction(3, 5)),
    CRat(Fraction(5, 13), Fraction(12, 13)),
    CRat(Fraction(-12, 13), Fraction(5, 13)),
    CRat(Fraction(8, 17), Fraction(-15, 17)),
)


def random_descriptor(rng: random.Random, size: int) -> IsometryDescriptor:
    """Seeded finite-range permutation with Pythagorean scalars."""
    perm = list(range(size))
    rng.shuffle(perm)
    lambdas = tuple(rng.choice(PYTHAGOREAN_UNIMODULARS) for _ in range(size))
    return IsometryDescriptor(tuple(perm), lambdas)


def descriptor_to_ballmap(
    d: IsometryDescriptor,
    p: Exponent,
    *,
    field_mode: str = "complex",
    fuel: Optional[Fuel] = None,
) -> BallMap:
    """Ball map of the isometry induced by the descriptor, via the
    disjoint-family construction over the standard presentation."""
    target = StandardGenSet(p, field_mode)
    reps = [d.image_rep(n, target) for n in range(d.size)]
    return ballmap_from_disjoint_family(
        reps, target, source=StandardGenSet(p, field_mode),
        fuel=fuel, kind=f"descriptor[{d.size}]"
    )


# ---------------------------------------------------------------------------
# the trichotomy classifier
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassifierVerdict:
    verdict: str  # "Conforms" | "Violates" | "Unknown"
    witnesses: tuple[dict, ...]

    def as_json(self) -> dict:
        return {
            "schema": "lpcat.verdict/1",
            "verdict": self.verdict,
            "witnesses": list(self.witnesses),
        }


class _ImageData:
    """Coordinate-modulus and norm enclosures of one candidate image at
    truncation scale."""

    def __init__(self, index, image, p: Exponent, tol: int):
        kq = tol + 6
        if isinstance(image, FiniteVector):
            vec, slack = image, Fraction(0)
        elif isinstance(image, VectorRep):
            cs = image.coefficients(kq)
            vec = image.genset.vector_of(cs)
            if vec is None:
                raise ConfigError(
                    "classification needs coordinate access to the images"
                )
            slack = pow2(-kq)
        else:
            raise TypeError("images are finite vectors or reps")
        self.index = index
        self.slack = slack
        self.norm = norm_p(vec, p, tol + 4).pad(slack)
        self.moduli = {
            i: c.abs_enclosure(kq).pad(slack).clamp_nonneg() for i, c in vec.coords
        }

    def modulus(self, i: int) -> Enclosure:
        got = self.moduli.get(i)
        if got is not None:
            return got
        return Enclosure(Fraction(0), self.slack)

    def listed(self) -> set[int]:
        return set(self.moduli)


def classify(
    images: Sequence[Union[FiniteVector, VectorRep]],
    p: Exponent,
    tol: int,
) -> ClassifierVerdict:
    """Check the checkable half of the isometry characterisation on
    candidate basis images at truncation precision tol.

    Conforms: every image norm is certified inside (1 - 2^-tol, 1 + 2^-tol)
    and every pair of images is certified disjoint-or-below-tol (at every
    shared index, at least one coordinate modulus is certified below
    2^-tol).  Violates carries an enclosure witness that excludes
    conformance.  Enclosures that straddle the thresholds yield Unknown
    rather than a guess.
    """
    band = pow2(-tol)
    data = [_ImageData(i, img, p, tol) for i, img in enumerate(images)]
    violations: list[dict] = []
    undecided: list[dict] = []

    for d in data:
        lo_ok = d.norm.lo > 1 - band
        hi_ok = d.norm.hi < 1 + band
        if lo_ok and hi_ok:
            continue
        record = {"kind": "norm", "image": d.index, "enclosure": d.norm.as_json()}
        if d.norm.hi < 1 - band or d.norm.lo > 1 + band:
            violations.append(record)
        else:
            undecided.append(record)

    for a in range(len(data)):
        for b in range(a + 1, len(data)):
            for i in sorted(data[a].listed() | data[b].listed()):
                ma, mb = data[a].modulus(i), data[b].modulus(i)
                if ma.hi < band or mb.hi < band:
                    continue
                record = {
                    "kind": "support_overlap",
                    "pair": [a, b],
                    "coordinate": i,
                    "moduli": [ma.as_json(), mb.as_json()],
                }
                if ma.lo >= band and mb.lo >= band:
                    violations.append(record)
                else:
                    undecided.append(record)

    if violations:
        return ClassifierVerdict("Violates", tuple(violations))
    if undecided:
        return ClassifierVerdict("Unknown", tuple(undecided))
    return ClassifierVerdict("Conforms", ())


# ---------------------------------------------------------------------------
# the p = 2 boundary: a rotation of the first two axes
# ---------------------------------------------------------------------------


def rotation_images(p: Exponent) -> tuple[VectorRep, VectorRep]:
    """Reps over the standard set of the rotated pair (e0 + e1)/sqrt 2 and
    (e0 - e1)/sqrt 2; coefficient queries at k carry error below 2^-k."""
    genset = StandardGenSet(p)
    u = sqrt_real(Fraction(1, 2), label="1/sqrt2")

    def make(sign: int, name: str) -> VectorRep:
        def fn(k: int):
            c = u.approx(k + 3)
            return [CRat.of(c), CRat.of(sign * c)]

        return VectorRep(genset, fn, label=name)

    return make(1, "rot(e0)"), make(-1, "rot(e1)")


def _rotated_abs2_terms(v: FiniteVector) -> list[Enclosure]:
    """Exact squared moduli of the rotated image's coordinates: the 1/2
    from the rotation scalar squares away, so every term is rational."""
    v0, v1 = v.get(0), v.get(1)
    terms = [
        Enclosure.point((v0 + v1).abs2() / 2),
        Enclosure.point((v0 - v1).abs2() / 2),
    ]
    for i, c in v.coords:
        if i >= 2:
            terms.append(Enclosure.point(c.abs2()))
    return terms


def rotation_demo(
    p: Exponent,
    *,
    samples: int = 100,
    seed: int = 11,
    tol: int = 8,
    width_bits: int = 30,
) -> dict:
    """Certified two-sided report on the rotation map.

    The rotation preserves the l2 norm on every sampled rational vector
    (certified enclosures at the requested width are consistent), yet the
    classifier must reject its basis images on support grounds; and for
    the ambient p != 2 the same map fails norm preservation on a certified
    witness vector.
    """
    p2 = Exponent.from_rational(2)
    rng = random.Random(seed)
    consistent = 0
    max_gap = Fraction(0)
    for _ in range(samples):
        items = [
            (i, Fraction(rng.randint(-8, 8), rng.randint(1, 8)))
            for i in range(rng.randint(1, 5))
        ]
        v = FiniteVector.from_items(items)
        left = norm_p(v, p2, width_bits)
        right = norm_of_abs2_terms(_rotated_abs2_terms(v), p2, width_bits)
        if left.intersects(right):
            consistent += 1
            gap = max(abs(left.lo - right.lo), abs(left.hi - right.hi))
            max_gap = max(max_gap, gap)

    img0, img1 = rotation_images(p2)
    verdict = classify([img0, img1], p2, tol)

    report = {
        "schema": "lpcat.rotation-demo/1",
        "p": p.as_json(),
        "seed": seed,
        "samples": samples,
        "l2_preservation": {
            "consistent": consistent,
            "width_bits": width_bits,
            "max_endpoint_gap": str(max_gap),
        },
        "classifier": verdict.as_json(),
    }

    if p.fast != 2:
        witness = norm_of_abs2_terms(
            [Enclosure.point(Fraction(1, 2)), Enclosure.point(Fraction(1, 2))],
            p,
            width_bits,
        )
        excludes_one = witness.lo > 1 or witness.hi < 1
        report["p_witness"] = {
            "vector": basis(0).to_quintuples(),
            "image_norm": witness.as_json(),
            "unit_excluded": excludes_one,
        }
    return report
