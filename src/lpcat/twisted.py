"""The twisted presentation of lp built from a c.e. set, and the two-way
reduction between computing an isometry and computing the set.

Given an enumerated set C of positive naturals (0 excluded) with
enumeration c_0, c_1, ... and gamma = sum_{c in C} 2^-c, the presentation
F twists the first generator:

    f_0 = (1 - gamma)^(1/p) e_0 + sum_n 2^(-c_n / p) e_{n+1},
    f_{n+1} = e_{n+1}.

F is an effective generating set even though gamma may be hard: the norm
of a combination a_0 f_0 + ... + a_M f_M expands telescopically as

    |a_0 f_0 + ... + a_M f_M|^p = |a_0|^p + E_1 + ... + E_M,
    E_j = |a_0 2^(-c_{j-1}/p) + a_j|^p - |a_0|^p 2^(-c_{j-1}),

which consults only the first M enumerated elements and never the set's
decision procedure.  Conversely, anything that can point at a unit
multiple of e_0 in F-coordinates reveals (1 - gamma)^(-1/p), hence gamma,
hence membership in C bit by bit.  This module implements both directions
with certificates, plus the decision-mode approximation of e_0 that makes
the forward isometry computable from C.

Desk-scale sets here are genuinely decidable; what the algorithms preserve
is the access discipline.  Every operation declares which access modes it
may use (enumerate / decide / neither), restricted views enforce the
declaration at run time, and instrumented counters make the discipline
testable.
"""

from __future__ import annotations

import itertools
import threading
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .rigor import (
    CRat,
    CRAT_ZERO,
    ComputableReal,
    ConfigError,
    Counters,
    DegenerateScaleWarning,
    Enclosure,
    Exponent,
    OracleFailure,
    ceil_log2,
    frac_floor,
    pow2,
    simplest_between,
    _pow_slack,
)
from .lpspace import FiniteVector, basis
from .genset import (
    COMPLEX,
    GeneratingSet,
    StandardGenSet,
    VectorRep,
    ZetaGenSet,
    exact_rep,
)
from .rigor import norm_from_power_sum


class AccessViolation(RuntimeError):
    """An operation used an access mode it did not declare."""


# ---------------------------------------------------------------------------
# desk-scale c.e. sets
# ---------------------------------------------------------------------------


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class CeSet:
    """A set of positive naturals with a stage-by-stage enumeration and a
    decision procedure, instrumented so tests can prove which access mode
    an algorithm used.  The enumeration is injective and emits exactly one
    element per stage; 0 is never a member."""

    def __init__(
        self,
        label: str,
        kind: str,
        member_fn: Callable[[int], bool],
        natural_order: Callable[[], Iterator[int]],
        exact_gamma: Optional[Fraction] = None,
        delays: Optional[Sequence[tuple[int, int]]] = None,
        spec_obj: Optional[dict] = None,
    ):
        self.label = label
        self.kind = kind
        self._member = member_fn
        self._natural_order = natural_order
        self._exact_gamma = exact_gamma
        self.stats = Counters(max_stage=-1, decide_calls=0)
        self._lock = threading.RLock()
        self._order: list[int] = []
        self._left_sums: list[Fraction] = [Fraction(0)]
        self._gamma_cache: dict[int, Fraction] = {}
        self._spec_obj = spec_obj or {"label": label, "kind": kind}

        self._pinned_by_stage: dict[int, int] = {}
        pinned_elements: set[int] = set()
        for element, stage in delays or ():
            element, stage = int(element), int(stage)
            if element < 1 or not member_fn(element):
                raise ConfigError(f"delayed element {element} is not in the set")
            if stage < 0:
                raise ConfigError("delay stages must be nonnegative")
            if stage in self._pinned_by_stage or element in pinned_elements:
                raise ConfigError("delay schedule must pin distinct elements to distinct stages")
            self._pinned_by_stage[stage] = element
            pinned_elements.add(element)
        self._pinned_elements = pinned_elements
        self._natural_iter = natural_order()
        self.sorted_enumeration = not self._pinned_by_stage

    # -- factories -----------------------------------------------------------

    @classmethod
    def odds(cls, label: str = "odds") -> "CeSet":
        return cls(
            label,
            "odds",
            lambda n: n >= 1 and n % 2 == 1,
            lambda: itertools.count(1, 2),
            exact_gamma=Fraction(2, 3),
        )

    @classmethod
    def primes(cls, label: str = "primes") -> "CeSet":
        def order() -> Iterator[int]:
            return (n for n in itertools.count(2) if _is_prime(n))

        return cls(label, "primes", _is_prime, order)

    @classmethod
    def explicit(cls, elements: Iterable[int], label: str = "explicit") -> "CeSet":
        """The listed elements together with every natural above their
        maximum.  The cofinite tail keeps the enumeration total and one
        element per stage; at least one natural below the maximum must be
        missing, otherwise gamma would degenerate to 1."""
        s = sorted(set(int(e) for e in elements))
        if not s:
            raise ConfigError("explicit set needs at least one element")
        if s[0] < 1:
            raise ConfigError("0 is never a member of the constructed set")
        top = s[-1]
        if len(s) == top:
            raise ConfigError("explicit set covers 1..max; gamma would equal 1")
        members = set(s)

        def order() -> Iterator[int]:
            return itertools.chain(iter(s), itertools.count(top + 1))

        gamma = sum((pow2(-e) for e in s), Fraction(0)) + pow2(-top)
        obj = {"label": label, "kind": "explicit", "elements": s}
        return cls(
            label,
            "explicit",
            lambda n: n in members or n > top,
            order,
            exact_gamma=gamma,
            spec_obj=obj,
        )

    def with_delays(self, delays: Sequence[tuple[int, int]], label: str = "") -> "CeSet":
        """Same set, throttled enumeration: each (element, stage) pair pins
        the element's first appearance to that stage."""
        obj = dict(self._spec_obj)
        obj["kind"] = "throttled"
        obj["delays"] = [[int(e), int(s)] for e, s in delays]
        return CeSet(
            label or f"{self.label}~throttled",
            "throttled",
            self._member,
            self._natural_order,
            exact_gamma=self._exact_gamma,
            delays=delays,
            spec_obj=obj,
        )

    # -- enumeration mode ------------------------------------------------------

    def _extend_order(self, s: int) -> None:
        while len(self._order) <= s:
            stage = len(self._order)
            pinned = self._pinned_by_stage.get(stage)
            if pinned is not None:
                nxt = pinned
            else:
                nxt = next(self._natural_iter)
                while nxt in self._pinned_elements:
                    nxt = next(self._natural_iter)
            self._order.append(nxt)
            self._left_sums.append(self._left_sums[-1] + pow2(-nxt))

    def element_at(self, s: int) -> int:
        """c_s, the element enumerated at stage s."""
        if s < 0:
            raise ValueError("stages are natural numbers")
        with self._lock:
            self._extend_order(s)
            self.stats.record(max_stage=s)
            return self._order[s]

    def prefix(self, s: int) -> tuple[int, ...]:
        """(c_0, ..., c_s)."""
        with self._lock:
            self._extend_order(s)
            self.stats.record(max_stage=s)
            return tuple(self._order[: s + 1])

    def left_sum(self, s: int) -> Fraction:
        """gamma_s = sum over the first s+1 enumerated elements of 2^-c."""
        with self._lock:
            self._extend_order(s)
            self.stats.record(max_stage=s)
            return self._left_sums[s + 1]

    # -- decision mode ---------------------------------------------------------

    def decide(self, n: int) -> bool:
        if n < 0:
            raise ValueError("membership queries take natural numbers")
        self.stats.record("decide_calls")
        if n == 0:
            return False
        return self._member(n)

    def gamma_enclosure(self, k: int) -> Enclosure:
        """Certified [q, q + 2^-(k+1)] around gamma, by deciding every
        candidate up to the tail cutoff B = k + 1."""
        b = k + 1
        with self._lock:
            q = self._gamma_cache.get(b)
        if q is None:
            q = Fraction(0)
            for j in range(1, b + 1):
                if self.decide(j):
                    q += pow2(-j)
            with self._lock:
                self._gamma_cache[b] = q
        return Enclosure(q, q + pow2(-b))

    def gamma_real(self) -> ComputableReal:
        return ComputableReal(
            lambda k: self.gamma_enclosure(k).lo, f"gamma[{self.label}]"
        )

    def exact_gamma(self) -> Optional[Fraction]:
        return self._exact_gamma

    # -- views -------------------------------------------------------------------

    def view(self, *, enumerate: bool = True, decide: bool = False) -> "CeView":
        return CeView(self, allow_enumerate=enumerate, allow_decide=decide)

    def spec_json(self) -> dict:
        return dict(self._spec_obj)

    def __repr__(self) -> str:
        return f"CeSet({self.label})"


class CeView:
    """Access-disciplined facade over a CeSet: operations hold the view
    matching their declared access modes, and any out-of-contract call
    raises instead of silently consulting the set."""

    # The access mode each forwarded method needs, checked before the call.
    _MODES = {
        "element_at": "enumeration",
        "prefix": "enumeration",
        "left_sum": "enumeration",
        "decide": "decision",
        "gamma_enclosure": "decision",
        "gamma_real": "decision",
    }

    def __init__(self, base: CeSet, *, allow_enumerate: bool, allow_decide: bool):
        self._base = base
        self._allowed = {"enumeration": allow_enumerate, "decision": allow_decide}

    def __getattr__(self, name: str):
        mode = self._MODES.get(name)
        if mode is not None:
            if not self._allowed[mode]:
                raise AccessViolation(f"{mode} access not declared")
        elif name not in ("label", "sorted_enumeration", "stats"):
            raise AttributeError(f"'CeView' object has no attribute {name!r}")
        return getattr(self._base, name)


# -- spec files ---------------------------------------------------------------


def ce_set_from_spec(obj: dict) -> CeSet:
    """Build a set from its JSON spec: {label, kind, elements?, delays?}.
    Any spec mentioning 0 is rejected."""
    kind = obj.get("kind")
    label = obj.get("label") or kind or "ce"
    try:
        elements = [int(e) for e in obj.get("elements") or ()]
        delays = [(int(e), int(s)) for e, s in obj.get("delays") or ()]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed c.e. set spec: {exc}") from exc
    if 0 in elements:
        raise ConfigError("0 is never a member of the constructed set")
    if any(e == 0 for e, _ in delays):
        raise ConfigError("0 cannot appear in a delay schedule")
    if kind == "odds":
        base = CeSet.odds(label)
    elif kind == "primes":
        base = CeSet.primes(label)
    elif kind == "explicit":
        if not elements:
            raise ConfigError("explicit sets need an elements list")
        base = CeSet.explicit(elements, label)
    elif kind == "throttled":
        if not elements:
            raise ConfigError("throttled sets need an elements list")
        base = CeSet.explicit(elements, label)
        return base.with_delays(delays, label)
    else:
        raise ConfigError(f"unknown c.e. set kind {kind!r}")
    if delays:
        return base.with_delays(delays, label)
    return base


# ---------------------------------------------------------------------------
# the telescoping norm algorithm (enumeration access only)
# ---------------------------------------------------------------------------


def _quad_in_u(a: Fraction, b: Fraction, c: Fraction, u: Enclosure) -> Enclosure:
    """a*u^2 + b*u + c over a nonnegative enclosure u."""
    return (u * u).scale(a) + u.scale(b) + Enclosure.point(c)


def _u_enclosure(
    c: int, p: Exponent, K: int, cache: Optional[dict] = None
) -> Enclosure:
    """Certified 2^(-c/p) = (2^-c)^(1/p)."""
    key = (c, K)
    if cache is not None:
        got = cache.get(key)
        if got is not None:
            return got
    enc = _pow_slack(Enclosure.point(pow2(-c)), p.reciprocal(), K)
    if cache is not None:
        cache[key] = enc
    return enc


def _epsilon_enclosure(
    alpha0: CRat,
    alphaj: CRat,
    c: int,
    p: Exponent,
    K: int,
    ucache: Optional[dict] = None,
) -> Enclosure:
    """Certified E_j = |a0 u + aj|^p - |a0|^p 2^-c with u = 2^(-c/p), to
    slack below 2^-K.

    |a0 u + aj|^2 is an exact-coefficient quadratic in u, so the only
    inexact inputs are u itself and the two half-exponent powers.  Initial
    guard: the quadratic's u-derivative is at most |b| + 2a on [0, 1].
    """
    a = alpha0.abs2()
    b = 2 * (alpha0.re * alphaj.re + alpha0.im * alphaj.im)
    cq = alphaj.abs2()
    half = p.half()
    ku = K + 4 + ceil_log2(1 + abs(b) + 2 * a)
    kt = K + 3
    for _ in range(40):
        u = _u_enclosure(c, p, ku, ucache)
        m2 = _quad_in_u(a, b, cq, u).clamp_nonneg()
        term1 = _pow_slack(m2, half, kt)
        term2 = _pow_slack(Enclosure.point(a), half, kt).scale(pow2(-c))
        out = term1 - term2
        if out.width < pow2(-K):
            return out
        ku += 8
        kt += 8
    raise OracleFailure("epsilon term failed to converge")


def epsilon_j(alpha0, alphaj, c: int, p: Exponent, k: int) -> Enclosure:
    """The j-th correction term of the telescoping norm identity."""
    if c < 1:
        raise ConfigError("enumerated elements are >= 1")
    return _epsilon_enclosure(CRat.of(alpha0), CRat.of(alphaj), c, p, k)


class TwistedGenSet(GeneratingSet):
    """The presentation F of lp twisted by a c.e. set.

    The norm oracle runs on enumeration access alone and, for a
    coefficient list a_0..a_M, consults exactly the stages 0..M-1; the
    instrumented counters on the underlying set let tests assert that
    bound.  Residual norms (used to certify reps against exact vectors)
    use decision access and are the independent expansion-based route.
    """

    kind = "twisted"

    def __init__(
        self,
        ce: CeSet,
        p: Exponent,
        field_mode: str = COMPLEX,
        label: str = "",
    ):
        super().__init__(p, field_mode, label or f"F[{ce.label}]")
        self.ce = ce
        self._enum = ce.view(enumerate=True, decide=False)
        self._ucache: dict = {}

    def norm_enclosure(self, coeffs: Sequence[CRat], k: int) -> Enclosure:
        cs = tuple(CRat.of(c) for c in coeffs)
        if not cs or all(c.is_zero for c in cs):
            return Enclosure.point(0)
        m = len(cs) - 1
        c_list = self._enum.prefix(m - 1) if m >= 1 else ()
        a0 = cs[0]
        half = self.p.half()

        def sum_at(K: int) -> Enclosure:
            per = K + ceil_log2(Fraction(m + 2))
            total = _pow_slack(Enclosure.point(a0.abs2()), half, per)
            for j in range(1, m + 1):
                total = total + _epsilon_enclosure(
                    a0, cs[j], c_list[j - 1], self.p, per, self._ucache
                )
            return total

        return norm_from_power_sum(sum_at, self.p, k)

    def residual_norm(self, v: FiniteVector, coeffs: Sequence, k: int) -> Enclosure:
        return expanded_residual_norm(self.ce, self.p, coeffs, v, k)

    def descriptor(self) -> dict:
        d = super().descriptor()
        d["ce_set"] = self.ce.spec_json()
        return d


def genset_from_descriptor(obj: dict) -> GeneratingSet:
    """Rebuild a generating set from its JSON descriptor (the inverse of
    ``descriptor()`` for sets whose construction parameters serialise:
    rational exponents, exact scalars, spec-file set kinds)."""
    p_field = obj.get("p")
    if not isinstance(p_field, str):
        raise ConfigError("only rational-exponent descriptors can be rebuilt")
    p = Exponent.from_rational(Fraction(p_field))
    kind = obj.get("kind")
    field_mode = obj.get("field", COMPLEX)
    label = obj.get("label", "")
    if kind == "standard":
        return StandardGenSet(p, field_mode, label or "E")
    if kind == "zeta":
        re_s, im_s = obj["zeta"]
        return ZetaGenSet(
            CRat(Fraction(re_s), Fraction(im_s)), p, field_mode, label or "F_zeta"
        )
    if kind == "twisted":
        return TwistedGenSet(ce_set_from_spec(obj["ce_set"]), p, field_mode, label)
    raise ConfigError(f"unknown generating-set kind {kind!r}")


def f0_norm_sandwich(ce: CeSet, b: int) -> Enclosure:
    """Exact-rational certificate that the twisted generator has norm 1 at
    p = 1: (1 - gamma) plus the mass below the cutoff plus the tail bound,
    summed as enclosures, lands in [1 - 2^-b, 1 + 2^-b]."""
    q = Fraction(0)
    for j in range(1, b + 1):
        if ce.decide(j):
            q += pow2(-j)
    one_minus_gamma = Enclosure(1 - q - pow2(-b), 1 - q)
    gamma = Enclosure(q, q + pow2(-b))
    return one_minus_gamma + gamma


# ---------------------------------------------------------------------------
# expansion-based residual norms (decision access): the independent route
# ---------------------------------------------------------------------------


def expanded_residual_norm(
    ce: CeSet,
    p: Exponent,
    coeffs: Sequence,
    target: FiniteVector,
    k: int,
) -> Enclosure:
    """Certified |target - sum_j a_j f_j| by coordinate expansion.

    Independent of the telescoping identity: expands the combination
    coordinate-wise to a finite depth, evaluates the twisted coordinate
    through a decision-mode gamma enclosure, and bounds the tail both by
    the gamma remainder and (for sorted enumerations) by the geometric
    estimate below the last expanded element.
    """
    cs = tuple(CRat.of(c) for c in coeffs)
    m = len(cs) - 1
    a0 = cs[0] if cs else CRAT_ZERO
    a0sq = a0.abs2()
    supp_top = max(target.support(), default=0)
    depth = max(m, supp_top, 2)
    c_prefix = ce.prefix(depth - 1)
    prefix_mass = ce.left_sum(depth - 1)
    half = p.half()
    ucache: dict = {}

    def sum_at(K: int) -> Enclosure:
        per = K + ceil_log2(Fraction(depth + 3))
        kg = per + 2 + (ceil_log2(1 + a0sq) if a0sq > 0 else 0)
        gamma = ce.gamma_enclosure(kg)
        one_minus = (Enclosure.point(1) - gamma).clamp_nonneg()
        w = _pow_slack(one_minus, p.reciprocal(), per + 2)

        t0 = target.get(0)
        b0 = -2 * (t0.re * a0.re + t0.im * a0.im)
        total = _pow_slack(
            _quad_in_u(a0sq, b0, t0.abs2(), w).clamp_nonneg(), half, per
        )
        for n in range(1, depth + 1):
            diff = target.get(n) - (cs[n] if n <= m else CRAT_ZERO)
            if a0.is_zero:
                total = total + _pow_slack(
                    Enclosure.point(diff.abs2()), half, per
                )
                continue
            u = _u_enclosure(c_prefix[n - 1], p, per + 4, ucache)
            bq = -2 * (diff.re * a0.re + diff.im * a0.im)
            m2 = _quad_in_u(a0sq, bq, diff.abs2(), u).clamp_nonneg()
            total = total + _pow_slack(m2, half, per)

        if not a0.is_zero:
            tail_mass = (gamma - Enclosure.point(prefix_mass)).clamp_nonneg()
            if ce.sorted_enumeration and c_prefix:
                geometric = Enclosure(Fraction(0), pow2(-c_prefix[-1]))
                tail_mass = Enclosure(
                    max(tail_mass.lo, geometric.lo), min(tail_mass.hi, geometric.hi)
                )
            a0_pow = _pow_slack(Enclosure.point(a0sq), half, per)
            total = total + a0_pow * tail_mass
        return total

    return norm_from_power_sum(sum_at, p, k)


# ---------------------------------------------------------------------------
# decision-mode approximation of e_0 in F-coordinates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class E0Approximation:
    """Coefficients over F whose combination g is certified within 2^-k of
    e_0, together with the construction data and the certificate."""

    coefficients: tuple[CRat, ...]
    n1: int
    q1: Fraction
    k: int
    certified_error: Enclosure
    exact_error: Optional[Fraction]

    def as_json(self) -> dict:
        return {
            "N1": self.n1,
            "q1": str(self.q1),
            "k": self.k,
            "coefficients": [c.as_json() for c in self.coefficients],
            "certified_error_bound": self.certified_error.as_json(),
            "exact_error": None if self.exact_error is None else str(self.exact_error),
        }


def _inv_root_one_minus_gamma(
    ce: CeSet, p: Exponent, width_target: Fraction
) -> Enclosure:
    """Certified (1 - gamma)^(-1/p) to the requested width, decision mode."""
    k = max(6, ceil_log2(1 / width_target) + 2)
    for _ in range(64):
        gamma = ce.gamma_enclosure(k)
        one_minus = (Enclosure.point(1) - gamma).clamp_nonneg()
        if one_minus.lo > 0:
            root = _pow_slack(one_minus, p.reciprocal(), k)
            if root.lo > 0:
                out = root.recip()
                if out.width <= width_target:
                    return out
        k += max(6, k // 2)
    raise OracleFailure("scale enclosure failed to converge")


def approx_e0(ce: CeSet, p: Exponent, k: int) -> E0Approximation:
    """Decision-mode algorithm producing g = q1 [f_0 - sum 2^(-c/p) f_n]
    with certified |e_0 - g| < 2^-k.

    The cutoff N1 >= 3 is the least index whose tail norm is certified at
    or below eps / (eps + M), eps = 2^-k * (1/2)^(1/p), where M is an
    integer certified above (1 - gamma)^(-1/p); q1 is the simplest
    rational certified within eps of (1 - gamma)^(-1/p).
    """
    coarse = _inv_root_one_minus_gamma(ce, p, Fraction(1, 4))
    m_int = frac_floor(coarse.hi) + 1

    eps = _pow_slack(Enclosure.point(Fraction(1, 2)), p.reciprocal(), k + 6).scale(
        pow2(-k)
    )
    rhs = Enclosure(eps.lo / (eps.lo + m_int), eps.hi / (eps.hi + m_int))

    n1 = None
    for candidate in range(3, 512):
        for kt in (k + 10, k + 26, k + 48):
            pre_mass = ce.left_sum(candidate - 2)
            tail = (ce.gamma_enclosure(kt) - Enclosure.point(pre_mass)).clamp_nonneg()
            if ce.sorted_enumeration:
                tail = Enclosure(tail.lo, min(tail.hi, pow2(-ce.element_at(candidate - 2))))
            tail_norm = _pow_slack(tail, p.reciprocal(), kt)
            if tail_norm.hi <= rhs.lo:
                n1 = candidate
                break
        if n1 is not None:
            break
    if n1 is None:
        raise OracleFailure("no certified tail cutoff below 512")

    scale = _inv_root_one_minus_gamma(ce, p, eps.lo)
    q1 = simplest_between(scale.hi - eps.lo, scale.lo + eps.lo)

    prefix = ce.prefix(n1 - 2)
    pre_mass = ce.left_sum(n1 - 2)
    kr = k + 8 + ceil_log2(Fraction((m_int + 1) * n1))
    ucache: dict = {}
    for _ in range(6):
        coeffs = [CRat.of(q1)]
        for c in prefix:
            u = _u_enclosure(c, p, kr, ucache)
            value = u.lo if u.width == 0 else u.midpoint
            coeffs.append(CRat.of(-q1 * value))
        certified = expanded_residual_norm(ce, p, coeffs, basis(0), k + 2)
        if certified.hi < pow2(-k):
            break
        kr += 16
    else:
        raise OracleFailure("coefficient rationalisation failed to certify")

    exact_error = None
    gamma_exact = ce.exact_gamma()
    if p.fast == 1 and gamma_exact is not None:
        exact_error = abs(1 - q1 * (1 - gamma_exact)) + abs(q1) * (
            gamma_exact - pre_mass
        )

    return E0Approximation(tuple(coeffs), n1, q1, k, certified, exact_error)


def e0_rep(genset: TwistedGenSet) -> VectorRep:
    """e_0 as a vector computable with respect to the twisted presentation
    (the decision-mode oracle behind the forward isometry)."""
    return VectorRep(
        genset,
        lambda k: approx_e0(genset.ce, genset.p, k).coefficients,
        label="e0",
        exact_vector=basis(0),
    )


def identity_family(genset: TwistedGenSet, size: int) -> list[VectorRep]:
    """Reps of e_0, e_1, ..., e_{size-1} over F: the image family of the
    identity isometry between the standard and twisted presentations."""
    reps = [e0_rep(genset)]
    for n in range(1, size):
        coeffs = [CRAT_ZERO] * n + [CRat.of(1)]
        rep = exact_rep(genset, coeffs, label=f"e{n}")
        rep.exact_vector = basis(n)
        reps.append(rep)
    return reps


# ---------------------------------------------------------------------------
# the reverse reduction: oracle isometry -> scale -> gamma -> membership
# ---------------------------------------------------------------------------


def extract_scale(
    oracle: VectorRep,
    p: Exponent,
    k: int,
    query_log: Optional[list] = None,
) -> Fraction:
    """Rational within 2^-k of (1 - gamma)^(-1/p), read off an oracle that
    computes some unit multiple of e_0 with respect to F.

    Bootstrap: one query at precision 3 yields a certified rational upper
    bound q0 on the scale (|a_0| + 1 works whenever |a_0| <= 7, and
    8/7 |a_0| always does; the maximum of the two is taken).  Main query:
    precision k' with 2^-k' q0 <= 2^-(k+2), after which |a_0| carries the
    scale to within 2^-(k+2) and rationalising the modulus costs at most
    2^-(k+3) more.
    """
    boot = oracle.coefficients(3)
    boot_a0 = boot[0] if boot else CRAT_ZERO
    a_ub = boot_a0.abs_enclosure(6).hi
    q0 = max(a_ub + 1, Fraction(8, 7) * a_ub)
    kp = k + 2 + max(0, ceil_log2(q0))
    cs = oracle.coefficients(kp)
    a0 = cs[0] if cs else CRAT_ZERO
    out = a0.abs_enclosure(k + 3).midpoint
    if query_log is not None:
        query_log.append({"k": k, "k_prime": kp, "q0": str(q0)})
    return out


def scale_real(oracle: VectorRep, p: Exponent) -> ComputableReal:
    """(1 - gamma)^(-1/p) as a ComputableReal driven by the oracle."""
    return ComputableReal(
        lambda k: extract_scale(oracle, p, k), f"scale[{oracle.label}]"
    )


def gamma_from_scale(
    s: ComputableReal, p: Exponent, check_k: int = 8
) -> ComputableReal:
    """gamma = 1 - s^-p as a ComputableReal.

    Guard g = ceil(log2 ub(p)) + 2 covers the derivative p s^-(p+1) <= p
    for s >= 1; an escalation loop covers scales close to 0.  A scale
    certified below 1 + 2^-check_k pins gamma to the degenerate corner,
    contradicting 0 < gamma at check scale; that is flagged with a warning
    (the value is still produced).
    """
    if s.enclosure(check_k).hi <= 1 + pow2(-check_k):
        warnings.warn(
            f"scale oracle {s.label} certified <= 1: gamma degenerates to <= 0",
            DegenerateScaleWarning,
            stacklevel=2,
        )
    guard = ceil_log2(p.ub()) + 2
    p_exp = p._exp()

    def fn(k: int) -> Fraction:
        kk = k + guard
        for _ in range(64):
            se = s.enclosure(kk)
            if se.lo > 0:
                sp = _pow_slack(se, p_exp, kk)
                if sp.lo > 0:
                    out = Enclosure.point(1) - sp.recip()
                    if out.width < pow2(-k):
                        return out.midpoint
            kk += max(6, k // 2)
        raise OracleFailure("gamma-from-scale failed to converge")

    return ComputableReal(fn, f"gamma-from-{s.label}")


def decide_membership(
    gamma: ComputableReal,
    enum: CeSet | CeView,
    n: int,
    *,
    fuel: int = 100000,
) -> bool:
    """Membership of n in C from a gamma oracle plus enumeration access.

    Request gamma to within 2^-(n+2), enumerate until the left sum clears
    the approximation minus its tolerance; past that point the remaining
    mass is below 2^-n, so n is in C iff it has already been enumerated.
    """
    if n < 0:
        raise ValueError("membership queries take natural numbers")
    if n == 0:
        return False
    m = n + 2
    threshold = gamma.approx(m) - pow2(-m)
    seen: set[int] = set()
    total = Fraction(0)
    for s in range(fuel):
        c = enum.element_at(s)
        seen.add(c)
        total += pow2(-c)
        if total > threshold:
            return n in seen
    raise OracleFailure(
        f"enumeration fuel exhausted at {fuel} stages; gamma oracle likely corrupt"
    )


def membership_bits(
    oracle: VectorRep,
    p: Exponent,
    ce: CeSet,
    n_max: int,
    *,
    fuel: int = 100000,
    query_log: Optional[list] = None,
) -> list[tuple[int, bool]]:
    """The full reverse pipeline: scale extraction, gamma recovery, then
    bit-by-bit membership, using only enumeration access to the set."""
    s = ComputableReal(
        lambda k: extract_scale(oracle, p, k, query_log), f"scale[{oracle.label}]"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateScaleWarning)
        gamma = gamma_from_scale(s, p)
    enum_view = ce.view(enumerate=True, decide=False)
    return [
        (n, decide_membership(gamma, enum_view, n, fuel=fuel))
        for n in range(1, n_max + 1)
    ]


# ---------------------------------------------------------------------------
# fault injection (for detection tests and the CLI harness)
# ---------------------------------------------------------------------------


def rep_with_offset_fault(rep: VectorRep, offset) -> VectorRep:
    """A corrupted copy of a rep: the leading coefficient is shifted by a
    fixed offset while the claimed precision is left untouched."""
    offset = CRat.of(offset)

    def fn(k: int):
        cs = list(rep.coefficients(k))
        if not cs:
            cs = [CRAT_ZERO]
        cs[0] = cs[0] + offset
        return cs

    return VectorRep(rep.genset, fn, label=f"{rep.label}+fault")


def real_with_offset_fault(real: ComputableReal, offset) -> ComputableReal:
    """A corrupted copy of a real oracle, off by a fixed rational."""
    offset = Fraction(offset)
    return ComputableReal(lambda k: real.approx(k) + offset, f"{real.label}+fault")
