"""Effective presentations of lp: norm oracles over generating sets,
vectors computable with respect to a presentation, rational balls, and the
ball-transformer model of computable operators.

A generating set is exposed purely as a norm oracle on finite rational
coefficient lists: ``norm_query(coeffs, k)`` returns a rational q with
q - 2^-k < |sum a_j f_j| < q + 2^-k.  Operators between presentations are
ball maps: they either transform a rational ball into a rational ball or
explicitly produce no output (the runnable stand-in for divergence, backed
by a fuel budget).  ``check_ballmap`` verifies the three operator criteria
(approximation, correctness, convergence) against an exact reference on a
finite, recorded schedule.
"""

from __future__ import annotations

import json
import random
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .rigor import (
    CRat,
    CRAT_ZERO,
    ConfigError,
    Counters,
    Enclosure,
    Exponent,
    ceil_log2,
    pow2,
)
from .lpspace import FiniteVector, basis, norm_p

REAL = "real"
COMPLEX = "complex"


class NotUnitVector(ValueError):
    """A family member failed the unit-norm certificate."""


class SupportsOverlap(ValueError):
    """Two family members were certified to share support."""


def _coerce_coeffs(coeffs: Sequence) -> tuple[CRat, ...]:
    return tuple(CRat.of(c) for c in coeffs)


class GeneratingSet:
    """Base class for effective generating sets (norm oracles)."""

    kind = "abstract"

    def __init__(self, p: Exponent, field_mode: str = COMPLEX, label: str = ""):
        if field_mode not in (REAL, COMPLEX):
            raise ConfigError(f"unknown field mode {field_mode!r}")
        self.p = p
        self.field_mode = field_mode
        self.label = label or self.kind
        self.stats = Counters(count=0, max_k=-1)

    # -- oracle surface ------------------------------------------------------

    def norm_query(self, coeffs: Sequence, k: int) -> Fraction:
        """Rational q with q - 2^-k < |sum a_j f_j| < q + 2^-k."""
        cs = self._validated(coeffs)
        self.stats.record("count", max_k=k)
        return self.norm_enclosure(cs, k).midpoint

    def norm_enclosure(self, coeffs: Sequence[CRat], k: int) -> Enclosure:
        raise NotImplementedError

    def residual_norm(self, v: FiniteVector, coeffs: Sequence, k: int) -> Enclosure:
        """Certified enclosure of |v - sum a_j f_j|, used to certify reps
        and ball-map outputs against exact reference vectors."""
        raise NotImplementedError

    def vector_of(self, coeffs: Sequence) -> Optional[FiniteVector]:
        """Exact expansion of a coefficient list, when the set admits one."""
        return None

    # -- helpers ---------------------------------------------------------------

    def _validated(self, coeffs: Sequence) -> tuple[CRat, ...]:
        cs = _coerce_coeffs(coeffs)
        if self.field_mode == REAL and any(not c.is_real for c in cs):
            raise ConfigError("complex coefficient in a real-field presentation")
        return cs

    def descriptor(self) -> dict:
        return {
            "schema": "lpcat.genset/1",
            "kind": self.kind,
            "label": self.label,
            "field": self.field_mode,
            "p": self.p.as_json(),
        }


class StandardGenSet(GeneratingSet):
    """The standard presentation: f_n = e_n."""

    kind = "standard"

    def __init__(self, p: Exponent, field_mode: str = COMPLEX, label: str = "E"):
        super().__init__(p, field_mode, label)

    def vector_of(self, coeffs: Sequence) -> FiniteVector:
        cs = _coerce_coeffs(coeffs)
        return FiniteVector.from_items(list(enumerate(cs)))

    def norm_enclosure(self, coeffs: Sequence[CRat], k: int) -> Enclosure:
        return norm_p(self.vector_of(coeffs), self.p, k)

    def residual_norm(self, v: FiniteVector, coeffs: Sequence, k: int) -> Enclosure:
        return norm_p(v - self.vector_of(coeffs), self.p, k)


class ZetaGenSet(GeneratingSet):
    """The twisted-by-a-unimodular-scalar presentation f_n = zeta e_n.

    Its norm oracle coincides with the standard one because |zeta| = 1;
    that is exactly why it is an effective generating set no matter how
    hard the scalar itself is to compute.  Desk instances carry an exact
    Pythagorean scalar so reps and residuals stay certifiable.
    """

    kind = "zeta"

    def __init__(
        self,
        zeta,
        p: Exponent,
        field_mode: str = COMPLEX,
        label: str = "F_zeta",
    ):
        zeta = CRat.of(zeta)
        if zeta.abs2() != 1:
            raise ConfigError("zeta must be exactly unimodular")
        super().__init__(p, field_mode, label)
        self.zeta = zeta

    def vector_of(self, coeffs: Sequence) -> FiniteVector:
        cs = _coerce_coeffs(coeffs)
        return FiniteVector.from_items(
            [(i, self.zeta * c) for i, c in enumerate(cs)]
        )

    def norm_enclosure(self, coeffs: Sequence[CRat], k: int) -> Enclosure:
        return norm_p(self.vector_of(coeffs), self.p, k)

    def residual_norm(self, v: FiniteVector, coeffs: Sequence, k: int) -> Enclosure:
        return norm_p(v - self.vector_of(coeffs), self.p, k)

    def descriptor(self) -> dict:
        d = super().descriptor()
        d["zeta"] = self.zeta.as_json()
        return d


# ---------------------------------------------------------------------------
# computable vectors with respect to a presentation
# ---------------------------------------------------------------------------


class VectorRep:
    """A vector computable with respect to a generating set: for every k,
    ``coefficients(k)`` is a finite coefficient list whose combination lies
    within 2^-k of the represented vector."""

    def __init__(
        self,
        genset: GeneratingSet,
        fn: Callable[[int], Sequence],
        label: str = "",
        exact_vector: Optional[FiniteVector] = None,
    ):
        self.genset = genset
        self._fn = fn
        self.label = label or "rep"
        self.exact_vector = exact_vector
        self._cache: dict[int, tuple[CRat, ...]] = {}
        self._lock = threading.RLock()
        self.stats = Counters(count=0, max_k=-1)

    def coefficients(self, k: int) -> tuple[CRat, ...]:
        if k < 0:
            raise ValueError("precision index must be nonnegative")
        with self._lock:
            self.stats.record("count", max_k=k)
            got = self._cache.get(k)
            if got is None:
                got = _coerce_coeffs(self._fn(k))
                self._cache[k] = got
            return got

    def scaled(self, a, label: str = "") -> "VectorRep":
        a = CRat.of(a)
        exact = self.exact_vector.scale(a) if self.exact_vector is not None else None
        return VectorRep(
            self.genset,
            lambda k: [a * c for c in self.coefficients(k)],
            label or f"{a}*{self.label}",
            exact_vector=exact,
        )

    def __repr__(self) -> str:
        return f"VectorRep({self.label} over {self.genset.label})"


def exact_rep(genset: GeneratingSet, coeffs: Sequence, label: str = "") -> VectorRep:
    """Constant rep of an exact finite combination over the set."""
    cs = _coerce_coeffs(coeffs)
    return VectorRep(
        genset,
        lambda _k: cs,
        label or "exact",
        exact_vector=genset.vector_of(cs),
    )


# ---------------------------------------------------------------------------
# rational balls and ball maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalBall:
    """Open ball around a finite rational combination over a named set."""

    coeffs: tuple[CRat, ...]
    radius: Fraction
    genset_label: str

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _coerce_coeffs(self.coeffs))
        object.__setattr__(self, "radius", Fraction(self.radius))
        if self.radius <= 0:
            raise ConfigError("ball radius must be positive")

    def as_json(self) -> dict:
        return {
            "genset": self.genset_label,
            "radius": str(self.radius),
            "coeffs": [c.as_json() for c in self.coeffs],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "RationalBall":
        coeffs = tuple(
            CRat(Fraction(re), Fraction(im)) for re, im in obj["coeffs"]
        )
        return cls(coeffs, Fraction(obj["radius"]), obj["genset"])


@dataclass
class Fuel:
    """Work budget standing in for 'may not halt': a transform that would
    exceed it produces no output instead of diverging."""

    max_precision: int = 96
    max_family: int = 4096

    def as_dict(self) -> dict:
        return {"max_precision": self.max_precision, "max_family": self.max_family}


@dataclass
class BallMap:
    """Ball-transformer model of an operator between presentations."""

    source: GeneratingSet
    target: GeneratingSet
    kind: str
    fn: Callable[[RationalBall], Optional[RationalBall]]
    fuel: Fuel = field(default_factory=Fuel)

    def apply(self, ball: RationalBall) -> Optional[RationalBall]:
        if ball.genset_label != self.source.label:
            raise ConfigError(
                f"ball over {ball.genset_label!r} fed to a map from {self.source.label!r}"
            )
        return self.fn(ball)

    def descriptor(self) -> dict:
        return {
            "schema": "lpcat.ballmap/1",
            "kind": self.kind,
            "source": self.source.label,
            "target": self.target.label,
            "fuel": self.fuel.as_dict(),
        }


def _abs_upper(c: CRat) -> Fraction:
    exact = c.abs_exact()
    if exact is not None:
        return exact
    return c.abs_enclosure(4).hi


def ballmap_from_disjoint_family(
    reps: Sequence[VectorRep],
    target: GeneratingSet,
    *,
    source: Optional[StandardGenSet] = None,
    truncation_k: int = 10,
    fuel: Optional[Fuel] = None,
    kind: str = "disjoint-family",
) -> BallMap:
    """Ball map of the isometry sending e_n to the n-th represented unit
    vector, per the three-criteria recipe: approximate the image of the
    center within the input radius r and answer with radius 2r.

    Preconditions are checked at truncation scale: every rep must pass the
    unit-norm certificate, and when exact expansions or coordinate reps
    are available, pairwise support disjointness is certified; otherwise
    disjointness is the caller's responsibility (recorded in the map kind).
    """
    reps = list(reps)
    if not reps:
        raise ConfigError("empty family")
    if source is None:
        source = StandardGenSet(target.p, target.field_mode)
    fuel = fuel or Fuel()
    tk = truncation_k

    slack = pow2(-tk)
    for n, rep in enumerate(reps):
        cs = rep.coefficients(tk)
        enc = target.norm_enclosure(cs, tk).pad(slack)
        if not enc.contains(1):
            raise NotUnitVector(f"family member {n} has norm enclosure {enc}")

    exacts = [rep.exact_vector for rep in reps]
    if all(v is not None for v in exacts):
        for m in range(len(exacts)):
            for n in range(m + 1, len(exacts)):
                shared = exacts[m].support() & exacts[n].support()
                if shared:
                    raise SupportsOverlap(f"members {m}, {n} share index {min(shared)}")
    elif isinstance(target, StandardGenSet):
        coeff_lists = [rep.coefficients(tk) for rep in reps]
        threshold = 2 * slack
        for m in range(len(coeff_lists)):
            for n in range(m + 1, len(coeff_lists)):
                for i, (a, b) in enumerate(zip(coeff_lists[m], coeff_lists[n])):
                    if (
                        a.abs_enclosure(tk).lo - slack > threshold
                        and b.abs_enclosure(tk).lo - slack > threshold
                    ):
                        raise SupportsOverlap(
                            f"members {m}, {n} certified to overlap at index {i}"
                        )

    def transform(ball: RationalBall) -> Optional[RationalBall]:
        alphas = ball.coeffs
        if len(alphas) > len(reps) or len(alphas) > fuel.max_family:
            return None
        r = ball.radius
        total = sum((_abs_upper(a) for a in alphas), Fraction(0))
        if total == 0:
            return RationalBall((CRAT_ZERO,), 2 * r, target.label)
        k_q = max(1, ceil_log2(total / r) + 1)
        if k_q > fuel.max_precision:
            return None
        acc: dict[int, CRat] = {}
        for a, rep in zip(alphas, reps):
            if a.is_zero:
                continue
            for i, c in enumerate(rep.coefficients(k_q)):
                if c.is_zero:
                    continue
                acc[i] = acc.get(i, CRAT_ZERO) + a * c
        top = max(acc) if acc else 0
        beta = tuple(acc.get(i, CRAT_ZERO) for i in range(top + 1))
        return RationalBall(beta, 2 * r, target.label)

    return BallMap(source, target, kind, transform, fuel)


def compose_ballmaps(first: BallMap, second: BallMap, kind: str = "") -> BallMap:
    """Sequential composition; output radii compound as the maps do."""
    if first.target.label != second.source.label:
        raise ConfigError("ball maps do not compose: presentation mismatch")

    def fn(ball: RationalBall) -> Optional[RationalBall]:
        mid = first.apply(ball)
        if mid is None:
            return None
        return second.apply(mid)

    return BallMap(first.source, second.target, kind or f"{first.kind};{second.kind}", fn)


# ---------------------------------------------------------------------------
# the operator-criteria checker
# ---------------------------------------------------------------------------


@dataclass
class CheckSchedule:
    """Finite verification schedule for the operator criteria.

    Convergence quantifies over all neighborhoods, so a runnable check
    needs a declared finite approximation: a sample of vectors and a grid
    of target radii.  The schedule is recorded verbatim in every report.
    """

    balls: tuple[RationalBall, ...]
    sample_vectors: tuple[FiniteVector, ...]
    epsilons: tuple[Fraction, ...]
    points_per_ball: int = 3
    residual_k: int = 20
    seed: int = 7

    @classmethod
    def seeded(
        cls,
        source_label: str,
        *,
        seed: int = 7,
        n_balls: int = 4,
        n_vectors: int = 3,
        eps_bits: Sequence[int] = tuple(range(1, 13)),
        width: int = 4,
        residual_k: int = 20,
    ) -> "CheckSchedule":
        rng = random.Random(seed)

        def rat() -> Fraction:
            return Fraction(rng.randint(-6, 6), rng.randint(1, 6))

        balls = []
        for _ in range(n_balls):
            coeffs = tuple(CRat.of(rat()) for _ in range(rng.randint(1, width)))
            radius = Fraction(1, rng.randint(2, 16))
            balls.append(RationalBall(coeffs, radius, source_label))
        vectors = []
        for _ in range(n_vectors):
            items = [(i, rat()) for i in range(rng.randint(1, width))]
            vectors.append(FiniteVector.from_items(items))
        eps = tuple(pow2(-b) for b in eps_bits)
        return cls(tuple(balls), tuple(vectors), eps, 3, residual_k, seed)

    def as_json(self) -> dict:
        return {
            "balls": [b.as_json() for b in self.balls],
            "sample_vectors": [v.to_quintuples() for v in self.sample_vectors],
            "epsilons": [str(e) for e in self.epsilons],
            "points_per_ball": self.points_per_ball,
            "residual_k": self.residual_k,
            "seed": self.seed,
        }


@dataclass
class BallMapReport:
    """Outcome of checking a ball map against an exact reference."""

    map_kind: str
    schedule: dict
    correctness_checked: int = 0
    correctness_violations: list = field(default_factory=list)
    correctness_undecided: list = field(default_factory=list)
    no_output: list = field(default_factory=list)
    convergence_achieved: int = 0
    convergence_failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.correctness_violations and not self.convergence_failures

    def as_json(self) -> dict:
        return {
            "schema": "lpcat.ballmap-report/1",
            "map": self.map_kind,
            "schedule": self.schedule,
            "correctness": {
                "checked": self.correctness_checked,
                "violations": self.correctness_violations,
                "undecided": self.correctness_undecided,
            },
            "convergence": {
                "achieved": self.convergence_achieved,
                "failures": self.convergence_failures,
            },
            "no_output": self.no_output,
            "passed": self.passed,
        }

    def to_bytes(self) -> bytes:
        return canonical_json_bytes(self.as_json())


def canonical_json_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _sample_points(
    ball: RationalBall, source: StandardGenSet, count: int, rng: random.Random
) -> list[FiniteVector]:
    center = source.vector_of(ball.coeffs)
    points = [center]
    width = max(1, len(ball.coeffs))
    for _ in range(count - 1):
        i = rng.randrange(width + 1)
        num = rng.randint(-3, 3)
        delta = ball.radius * Fraction(num, 8)
        points.append(center + basis(i).scale(delta))
    return points


def check_ballmap(
    bmap: BallMap, reference: Callable[[FiniteVector], FiniteVector], schedule: CheckSchedule
) -> BallMapReport:
    """Check correctness and convergence of a ball map against an exact
    reference operator on the schedule's samples.

    Correctness: for sampled f inside each input ball, the certified
    distance from reference(f) to the output center must fall below the
    output radius; an enclosure fully above the radius is a violation
    witness, a straddling one is reported undecided after one refinement.

    Convergence: for every sample vector and every grid epsilon, some
    input ball around the vector must map to a ball certified inside the
    epsilon-neighborhood of its reference image.
    """
    if not isinstance(bmap.source, StandardGenSet):
        raise ConfigError("checking requires a coordinate source presentation")
    rng = random.Random(schedule.seed)
    report = BallMapReport(bmap.kind, schedule.as_json())

    for ball in schedule.balls:
        out = bmap.apply(ball)
        if out is None:
            report.no_output.append(ball.as_json())
            continue
        for point in _sample_points(ball, bmap.source, schedule.points_per_ball, rng):
            image = reference(point)
            dist = bmap.target.residual_norm(image, out.coeffs, schedule.residual_k)
            if dist.hi >= out.radius:
                dist = bmap.target.residual_norm(
                    image, out.coeffs, schedule.residual_k + 12
                )
            report.correctness_checked += 1
            if dist.hi < out.radius:
                continue
            record = {
                "ball": ball.as_json(),
                "point": point.to_quintuples(),
                "distance": dist.as_json(),
                "radius": str(out.radius),
            }
            if dist.lo >= out.radius:
                report.correctness_violations.append(record)
            else:
                report.correctness_undecided.append(record)

    for vec in schedule.sample_vectors:
        image = reference(vec)
        coeffs = _vector_coeffs(vec)
        for eps in schedule.epsilons:
            ok = False
            for denom in (8, 16, 32):
                ball = RationalBall(coeffs, eps / denom, bmap.source.label)
                out = bmap.apply(ball)
                if out is None:
                    continue
                dist = bmap.target.residual_norm(
                    image, out.coeffs, schedule.residual_k + 4
                )
                if dist.hi + out.radius < eps:
                    ok = True
                    break
            if ok:
                report.convergence_achieved += 1
            else:
                report.convergence_failures.append(
                    {"vector": vec.to_quintuples(), "epsilon": str(eps)}
                )

    return report


def _vector_coeffs(v: FiniteVector) -> tuple[CRat, ...]:
    if v.is_zero:
        return (CRAT_ZERO,)
    top = max(i for i, _ in v.coords)
    return tuple(v.get(i) for i in range(top + 1))
