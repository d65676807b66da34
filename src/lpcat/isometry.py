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

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .rigor import (
    CRat,
    CRAT_ZERO,
    ConfigError,
    Enclosure,
    Exponent,
    pow2,
    sqrt_real,
    strict_int,
    strict_keys,
)
from .lpspace import FiniteVector, basis, norm_of_abs2_terms, norm_p
from .genset import (
    BallMap,
    StandardGenSet,
    VectorRep,
    ballmap_from_disjoint_family,
    exact_rep,
)


class NotUnimodular(ConfigError):
    """A descriptor scalar failed the modulus-one certificate."""


@dataclass(frozen=True)
class IsometryDescriptor:
    """Finite-range descriptor of T(e_n) = lambda_n e_{phi(n)}.

    phi must be injective on its range, and every scalar is an exact
    rational point of modulus exactly one (a Pythagorean point or a unit),
    so a descriptor certifies an isometry on its range; a scalar known
    only to a precision could pass any finite check and still miss the
    unit circle.  Surjectivity itself is not decidable from a finite
    range.
    """

    phi: tuple[int, ...]
    lambdas: tuple[CRat, ...]

    def __post_init__(self):
        if len(self.phi) != len(self.lambdas):
            raise ConfigError("descriptor needs one scalar per mapped index")
        if len(set(self.phi)) != len(self.phi):
            raise ConfigError("phi must be injective")
        if any(t < 0 for t in self.phi):
            raise ConfigError("phi maps into the naturals")
        for lam in self.lambdas:
            if not isinstance(lam, CRat):
                raise TypeError(f"descriptor scalars are CRat points, not {type(lam).__name__}")
            x, y, d = lam.ints
            if x * x + y * y != d * d:
                raise NotUnimodular(f"scalar {lam} has |.|^2 = {lam.abs2()}")

    @property
    def size(self) -> int:
        return len(self.phi)

    def apply(self, v: FiniteVector) -> FiniteVector:
        """Exact image of a finite vector; requires phi defined on the
        vector's support."""
        items = []
        for i, c in v.coords:
            if i >= self.size:
                raise ConfigError(f"descriptor does not cover index {i}")
            items.append((self.phi[i], self.lambdas[i] * c))
        return FiniteVector.from_items(items)

    def image_rep(self, n: int, genset: StandardGenSet) -> VectorRep:
        coeffs = [CRAT_ZERO] * self.phi[n] + [self.lambdas[n]]
        return exact_rep(genset, coeffs, label=f"T(e{n})")

    def as_json(self) -> dict:
        return {
            "schema": "lpcat.descriptor/1",
            "phi": [[n, t] for n, t in enumerate(self.phi)],
            "lambdas": [list(lam.parts()) for lam in self.lambdas],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "IsometryDescriptor":
        strict_keys(obj, ("schema", "phi", "lambdas"), "descriptor")
        if obj.get("schema", "lpcat.descriptor/1") != "lpcat.descriptor/1":
            raise ConfigError(f"descriptor 'schema' is {obj['schema']!r}, not 'lpcat.descriptor/1'")
        try:
            pairs = sorted((strict_int(a), strict_int(b)) for a, b in obj["phi"])
            lambdas = []
            for row in obj["lambdas"]:
                rn, rd, imn, imd = (strict_int(x) for x in row)
                lambdas.append(CRat.from_ints(rn * imd, imn * rd, rd * imd))
        except (KeyError, TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
            raise ConfigError(f"malformed descriptor: {exc!r}") from exc
        if [a for a, _ in pairs] != list(range(len(pairs))):
            raise ConfigError("phi pairs must cover 0..N-1")
        return cls(tuple(b for _, b in pairs), tuple(lambdas))


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


def descriptor_to_ballmap(d: IsometryDescriptor, p: Exponent) -> BallMap:
    """Ball map of the isometry induced by the descriptor, via the
    disjoint-family construction over the standard presentation."""
    target = StandardGenSet(p)
    reps = [d.image_rep(n, target) for n in range(d.size)]
    return ballmap_from_disjoint_family(reps, target, kind=f"descriptor[{d.size}]")


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
        self.norm = norm_p(vec, p, tol + 4).pad(slack)
        self.moduli = {
            i: c.abs_enclosure(kq).pad(slack).clamp_nonneg() for i, c in vec.coords
        }


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
    # The band 2^-tol is bn / bd; each test cross-multiplies it with an
    # enclosure's integer ends (lo, hi, den), den > 0.
    bn, bd = (1, 1 << tol) if tol >= 0 else (1 << -tol, 1)
    one_minus, one_plus = bd - bn, bd + bn
    data = [_ImageData(i, img, p, tol) for i, img in enumerate(images)]
    violations: list[dict] = []
    undecided: list[dict] = []

    for d in data:
        lo, hi, den = d.norm.ints
        if lo * bd > one_minus * den and hi * bd < one_plus * den:
            continue
        record = {"kind": "norm", "image": d.index, "enclosure": d.norm.as_json()}
        if hi * bd < one_minus * den or lo * bd > one_plus * den:
            violations.append(record)
        else:
            undecided.append(record)

    for a in range(len(data)):
        for b in range(a + 1, len(data)):
            # An index one image leaves out has modulus at most its slack
            # 2^-(tol+6) < 2^-tol there, so only indices both list can overlap.
            ma_all, mb_all = data[a].moduli, data[b].moduli
            for i in sorted(ma_all.keys() & mb_all.keys()):
                ma, mb = ma_all[i], mb_all[i]
                (alo, ahi, aden), (blo, bhi, bden) = ma.ints, mb.ints
                if ahi * bd < bn * aden or bhi * bd < bn * bden:
                    continue
                record = {
                    "kind": "support_overlap",
                    "pair": [a, b],
                    "coordinate": i,
                    "moduli": [ma.as_json(), mb.as_json()],
                }
                if alo * bd >= bn * aden and blo * bd >= bn * bden:
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


def _draw_sample(rng: random.Random) -> list[tuple[int, int]]:
    """One rotation-demo sample: coordinate i is the rational a_i / b_i
    of the i-th pair (a_i, b_i)."""
    # randint(a, b) is randrange(a, b + 1), so the draws are randint's.
    draw = rng.randrange
    return [(draw(-8, 9), draw(1, 9)) for _ in range(draw(1, 6))]


def _l2_norms(
    sample: list[tuple[int, int]], p2: Exponent, width_bits: int
) -> tuple[Enclosure, Enclosure]:
    """l2 norm enclosures of the sample and of its rotated image, each
    from one exact squared norm on integers.  Over the common denominator
    L the sample is X / L, and the rotated image is ((X0 + X1) / sqrt 2,
    (X0 - X1) / sqrt 2, X2, ...) / L: the 1/2 of the rotation scalar
    squares away, so both sides are rational and computed apart."""
    L = math.lcm(*(b for _, b in sample))
    xs = [a * (L // b) for a, b in sample]
    x0, x1 = (xs + [0])[:2]
    tail = sum(x * x for x in xs[2:])
    plain = sum(x * x for x in xs)
    rotated = (x0 + x1) ** 2 + (x0 - x1) ** 2 + 2 * tail
    return (
        norm_of_abs2_terms([(plain, plain, L * L)], p2, width_bits),
        norm_of_abs2_terms([(rotated, rotated, 2 * L * L)], p2, width_bits),
    )


def _endpoint_gap(left: Enclosure, right: Enclosure) -> tuple[int, int]:
    """The larger of the two endpoint distances |lo - lo'| and |hi - hi'|,
    as (num, den) over the product of the denominators."""
    (l1, h1, d1), (l2, h2, d2) = left.ints, right.ints
    return max(abs(l1 * d2 - l2 * d1), abs(h1 * d2 - h2 * d1)), d1 * d2


def _l2_samples(
    rng: random.Random, samples: int, p2: Exponent, width_bits: int
) -> tuple[int, int, int]:
    """Draw the samples and compare their two l2 norms: the count of
    consistent (intersecting) pairs, and the largest endpoint gap among
    them as (num, den), kept by cross-multiplication."""
    consistent, gap_num, gap_den = 0, 0, 1
    for _ in range(samples):
        left, right = _l2_norms(_draw_sample(rng), p2, width_bits)
        if left.intersects(right):
            consistent += 1
            num, den = _endpoint_gap(left, right)
            if num * gap_den > gap_num * den:
                gap_num, gap_den = num, den
    return consistent, gap_num, gap_den


def rotation_demo(p: Exponent, *, samples: int = 100, seed: int = 11) -> dict:
    """Certified two-sided report on the rotation map.

    The rotation preserves the l2 norm on every sampled rational vector
    (certified enclosures of width 2^-30 are consistent), yet the
    classifier, at tolerance 2^-8, must reject its basis images on support
    grounds; and for the ambient p != 2 the same map fails norm
    preservation on a certified witness vector.  Each sample is drawn as
    integer pairs, both of its norms come from integer numerators
    (``_l2_norms``), and their endpoint gap is compared on integers; the
    report's largest gap is the one Fraction the sample loop yields.
    """
    width_bits = 30
    p2 = Exponent.from_rational(2)
    consistent, gap_num, gap_den = _l2_samples(random.Random(seed), samples, p2, width_bits)

    img0, img1 = rotation_images(p2)
    verdict = classify([img0, img1], p2, 8)

    report = {
        "schema": "lpcat.rotation-demo/1",
        "p": p.as_json(),
        "seed": seed,
        "samples": samples,
        "l2_preservation": {
            "consistent": consistent,
            "width_bits": width_bits,
            "max_endpoint_gap": str(Fraction(gap_num, gap_den)),
        },
        "classifier": verdict.as_json(),
    }

    if p.fast != 2:
        witness = norm_of_abs2_terms([(1, 1, 2), (1, 1, 2)], p, width_bits)
        lo, hi, den = witness.ints
        excludes_one = lo > den or hi < den
        report["p_witness"] = {
            "vector": basis(0).to_quintuples(),
            "image_norm": witness.as_json(),
            "unit_excluded": excludes_one,
        }
    return report
