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
decision procedure.  The sum runs on integer mantissas: each E_j is one
integer quadratic in the mantissa of 2^(-c/p), every term's built in one
pass; one call of rigor's mantissa kernel takes |a_0|^p and the p/2
powers of all of them by the exact route's integer floor-roots (the
oracle track's corner box, rounded outward to the grid); and directed
shifts take each term into two integer running sums, every step rounded
outward, that rigor's root reads over one power of two.  The independent
expansion route (``expanded_residual_norm``) also sums on integers, in
the one form rigor's power kernels take and return on both exponent
tracks, integer ends over one denominator: u, each coordinate's
quadratic in u, by code of its own, and every p/2 power, added by rigor's
one power-sum loop, ``_pow_sum``, each denominator's numerators as one
integer.  It shares only rigor primitives and no function of this
module with the telescoping sum, so comparing the two checks it.

Conversely, anything that can point at a unit multiple of e_0 in
F-coordinates reveals (1 - gamma)^(-1/p), hence gamma, hence membership
in C bit by bit.  This module implements both directions with
certificates, plus the decision-mode approximation of e_0 that makes the
forward isometry computable from C.

Desk-scale sets here are genuinely decidable; what the algorithms preserve
is the access discipline.  Every operation declares which access modes it
may use (enumerate / decide / neither), restricted views enforce the
declaration at run time, and instrumented counters make the discipline
testable.
"""

from __future__ import annotations

import copy
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
    MemoTable,
    OracleFailure,
    ceil_log2,
    escalate,
    frac_floor,
    norm_from_power_sum,
    pow2,
    pow_p,
    root_p,
    simplest_between,
    strict_int,
    strict_keys,
    _pow_mantissas,
    _pow_slack,
    _pow_sum,
)
from .lpspace import FiniteVector, basis
from .genset import (
    COMPLEX,
    GeneratingSet,
    VectorRep,
    exact_rep,
)


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
    element per stage; 0 is never a member.  The JSON spec {label, kind,
    elements?, delays?} that built the set is what ``spec_json()`` prints."""

    def __init__(
        self,
        spec: dict,
        member_fn: Callable[[int], bool],
        natural_order: Callable[[], Iterator[int]],
        exact_gamma: Optional[Fraction] = None,
    ):
        self._spec = spec
        self.label = spec["label"]
        self._member = member_fn
        self._natural_order = natural_order
        self._exact_gamma = exact_gamma
        self.stats = Counters(max_stage=-1, decide_calls=0)
        self._lock = threading.RLock()
        self._order: list[int] = []
        # gamma's prefix sums as integers: the last left sum read, (s, L, E)
        # with L / 2^E through stage s, E the largest element so far, and
        # the decided prefix (N_B, B), with decided mass N_b / 2^b for
        # N_b = N_B >> (B - b) at every b <= B.
        self._left_at = (-1, 0, 0)
        self._gamma_prefix = (0, 0)

        self._pinned_by_stage: dict[int, int] = {}
        pinned_elements: set[int] = set()
        for element, stage in spec.get("delays", ()):
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
            {"label": label, "kind": "odds"},
            lambda n: n >= 1 and n % 2 == 1,
            lambda: itertools.count(1, 2),
            exact_gamma=Fraction(2, 3),
        )

    @classmethod
    def primes(cls, label: str = "primes") -> "CeSet":
        def order() -> Iterator[int]:
            return (n for n in itertools.count(2) if _is_prime(n))

        return cls({"label": label, "kind": "primes"}, _is_prime, order)

    @classmethod
    def explicit(cls, elements: Iterable[int], label: str = "explicit") -> "CeSet":
        """The listed elements together with every natural above their
        maximum.  The cofinite tail keeps the enumeration total and one
        element per stage; at least one natural below the maximum must be
        missing, otherwise gamma would degenerate to 1."""
        s = sorted(set(strict_int(e) for e in elements))
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
        return cls(
            {"label": label, "kind": "explicit", "elements": s},
            lambda n: n in members or n > top,
            order,
            exact_gamma=gamma,
        )

    def with_delays(self, delays: Sequence[tuple[int, int]], label: str = "") -> "CeSet":
        """Same set, throttled enumeration: each (element, stage) pair pins
        the element's first appearance to that stage.  An explicit set
        with delays is of kind ``throttled``; other kinds keep theirs."""
        spec = dict(
            self._spec,
            label=label or f"{self.label}~throttled",
            delays=[[strict_int(e), strict_int(s)] for e, s in delays],
        )
        if spec["kind"] == "explicit":
            spec["kind"] = "throttled"
        return CeSet(spec, self._member, self._natural_order, self._exact_gamma)

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
        """gamma_s = sum over the first s+1 enumerated elements of 2^-c.
        The sums are built only as far as asked: on a sparse set their
        numerators grow with the largest element (about 1.3M bits after
        100,000 primes), which a scan of ``element_at`` never pays."""
        L, E = self._left_sum_ends(s)
        return Fraction(L, 1 << E)

    def _left_sum_ends(self, s: int) -> tuple[int, int]:
        """(L, E) with gamma_s = L / 2^E, E = max(c_0, ..., c_s): adding
        2^-c shifts the numerator only when c passes E.  Only the last sum
        read is kept, so memory stays linear: a later stage carries it on,
        and an earlier one, as when a scan of cutoffs starts again, is
        summed anew from stage 0."""
        with self._lock:
            self._extend_order(s)
            self.stats.record(max_stage=s)
            last, L, E = self._left_at
            if s < last:
                last, L, E = -1, 0, 0
            for c in self._order[last + 1 : s + 1]:
                L, E = (L + (1 << (E - c)), E) if c < E else ((L << (c - E)) + 1, c)
            self._left_at = (s, L, E)
            return L, E

    # -- decision mode ---------------------------------------------------------

    def decide(self, n: int) -> bool:
        if n < 0:
            raise ValueError("membership queries take natural numbers")
        self.stats.record("decide_calls")
        if n == 0:
            return False
        return self._member(n)

    def _decided_mass(self, k: int) -> int:
        """N_b with q = N_b / 2^b the mass of the members up to the tail
        cutoff b = k + 1, so that gamma lies in [q, q + 2^-b]: N_b = 2 N_(b-1)
        + decide(b).  Bit j of N_B is decide(B - j), so one integer of B
        bits holds every shorter prefix: N_b = N_B >> (B - b).  Like the
        enumeration's left sums, the decided prefix grows and each
        candidate is decided once."""
        if k < 0:
            raise ValueError("precision must be a natural number")
        b = k + 1
        with self._lock:
            n, top = self._gamma_prefix
            if b <= top:
                return n >> (top - b)
            for j in range(top + 1, b + 1):
                n = 2 * n + self.decide(j)
            self._gamma_prefix = (n, b)
            return n

    def gamma_enclosure(self, k: int) -> Enclosure:
        """Certified [q, q + 2^-(k+1)] around gamma, q the decided mass
        up to the tail cutoff B = k + 1."""
        n = self._decided_mass(k)
        return Enclosure(Fraction(n, 2 << k), Fraction(n + 1, 2 << k))

    def tail_mass(self, s: int, k: int) -> Enclosure:
        """Certified sum_{n > s} 2^-c_n: gamma at precision k minus the left
        sum through stage s, clamped at 0 and capped by 2^-c_s when the
        enumeration is sorted.  Needs both access modes."""
        return Enclosure.from_ends(*self._tail_ends(s, k))

    def _tail_ends(self, s: int, k: int) -> tuple[int, int, int]:
        """(lo, hi, 2^S): ``tail_mass(s, k)`` as integer ends over one
        denominator, the form of a routed power, S the larger of B = k + 1
        and the left sum's exponent E; the cap 2^-c_s lies on that grid
        too, as c_s <= E.  Only the lower end can fall below 0: the upper
        end is at least gamma minus the left sum."""
        b = k + 1
        n = self._decided_mass(k)
        L, E = self._left_sum_ends(s)
        scale = max(b, E)
        lo = (n << (scale - b)) - (L << (scale - E))
        hi = lo + (1 << (scale - b))
        lo = max(lo, 0)
        if self.sorted_enumeration:
            hi = min(hi, 1 << (scale - self.element_at(s)))
        return lo, hi, 1 << scale

    def exact_gamma(self) -> Optional[Fraction]:
        return self._exact_gamma

    # -- views -------------------------------------------------------------------

    def view(self) -> "CeView":
        """The enumeration-only view of this set."""
        return CeView(self)

    def spec_json(self) -> dict:
        # A copy down to the lists: the elements list also drives the order.
        return copy.deepcopy(self._spec)

    def __repr__(self) -> str:
        return f"CeSet({self.label})"


class CeView:
    """Enumeration-only facade over a CeSet: operations declared to run on
    enumeration access hold the view, and a decision-mode call raises
    instead of silently consulting the set."""

    _ENUMERATION = ("element_at", "prefix", "left_sum", "label", "sorted_enumeration", "stats")
    _DECISION = ("decide", "gamma_enclosure")

    def __init__(self, base: CeSet):
        self._base = base

    def __getattr__(self, name: str):
        if name in self._DECISION:
            raise AccessViolation("decision access not declared")
        if name not in self._ENUMERATION:
            raise AttributeError(f"'CeView' object has no attribute {name!r}")
        return getattr(self._base, name)


# -- spec files ---------------------------------------------------------------


# Largest element a spec may list or delay.  An element c puts 2^-c into
# gamma and 2^(-c/p) into the e_0 coefficients: at c = 15000 a report
# rational passes Python's 4300-digit int-to-str limit, at 10^7 approx-e0
# runs for minutes, and at 10^14 an explicit set cannot be built.
_MAX_SPEC_ELEMENT = 4096
_SPEC_KEYS = ("label", "kind", "elements", "delays")


def _label_of(obj: dict, default: str) -> str:
    """obj's label, a string, or default when it is missing or empty."""
    label = obj.get("label")
    if label is not None and not isinstance(label, str):
        raise ConfigError(f"'label' must be a string, got {label!r}")
    return label or default


def ce_set_from_spec(obj: dict) -> CeSet:
    """Build a set from its JSON spec: {label, kind, elements?, delays?}.
    Every listed or delayed element must lie in [1, 4096]; any other key,
    or a label that is not a string, is refused by name."""
    if not isinstance(obj, dict):
        raise ConfigError("a c.e. set spec is a JSON object")
    strict_keys(obj, _SPEC_KEYS, "c.e. set spec")
    kind = obj.get("kind")
    label = _label_of(obj, kind or "ce")
    try:
        elements = [strict_int(e) for e in obj.get("elements") or ()]
        delays = [(strict_int(e), strict_int(s)) for e, s in obj.get("delays") or ()]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed c.e. set spec: {exc}") from exc
    for e in [*elements, *(e for e, _ in delays)]:
        if not 1 <= e <= _MAX_SPEC_ELEMENT:
            raise ConfigError(f"set element {e} is outside [1, {_MAX_SPEC_ELEMENT}]")
    if kind == "odds":
        base = CeSet.odds(label)
    elif kind == "primes":
        base = CeSet.primes(label)
    elif kind in ("explicit", "throttled"):
        if not elements:
            raise ConfigError(f"{kind} sets need an elements list")
        base = CeSet.explicit(elements, label)
    else:
        raise ConfigError(f"unknown c.e. set kind {kind!r}")
    return base.with_delays(delays, label) if delays else base


# ---------------------------------------------------------------------------
# the telescoping norm algorithm (enumeration access only)
# ---------------------------------------------------------------------------


# The telescoping kernel: an integer m stands for m / 2^s at a scale s
# fixed by the precision, and every step rounds outward.  Each sum builds
# every E_j term's quadratic in one pass, takes all their p/2 powers, and
# |a0|^p's, in one _pow_mantissas call, and subtracts |a0|^p 2^-c per term.


def _quad_coefficients(
    alpha0: CRat, alphas: Sequence[CRat]
) -> list[tuple[int, int, int, int, int]]:
    """(A, B, C, D, g) for each aj of alphas: |a0 u + aj|^2 = (A u^2 + B u
    + C) / D in integers, so A / D = |a0|^2, B / D = 2 Re(a0 conj aj) and
    C / D = |aj|^2, with the u-precision guard g = 4 + ceil(log2(1 + |B/D|
    + 2A/D)), since the quadratic's u-derivative is at most |b| + 2a on
    [0, 1].  Each scalar is read as its integers (X + iY) / d, a0's once
    for every term, and g - 4 as the bit length of ceil(N / D) - 1 for
    N = D + |B| + 2A, which needs no gcd."""
    x0, y0, d0 = alpha0.ints
    a = x0 * x0 + y0 * y0
    quads = []
    for aj in alphas:
        xj, yj, dj = aj.ints
        A = a * dj * dj
        B = 2 * (x0 * xj + y0 * yj) * d0 * dj
        C = (xj * xj + yj * yj) * d0 * d0
        D = (d0 * dj) ** 2
        quads.append((A, B, C, D, 4 + ((D + abs(B) + 2 * A - 1) // D).bit_length()))
    return quads


class TwistedGenSet(GeneratingSet):
    """The presentation F of lp twisted by a c.e. set.

    The norm oracle runs on enumeration access alone and, for a
    coefficient list a_0..a_M, consults exactly the stages 0..M-1; the
    instrumented counters on the underlying set let tests assert that
    bound.  Residual norms (used to certify reps against exact vectors)
    use decision access and are the independent expansion-based route.
    """

    kind = "twisted"

    def __init__(self, ce: CeSet, p: Exponent, field_mode: str = COMPLEX):
        super().__init__(p, field_mode, f"F[{ce.label}]")
        self.ce = ce
        self._enum = ce.view()
        self._ucache = MemoTable()

    def norm_enclosure(self, coeffs: Sequence[CRat], k: int) -> Enclosure:
        """Certified |a_0 f_0 + ... + a_m f_m| from the telescoping sum.

        Each sum runs at scale 2^-(per+5), the denominator ``sum_at`` hands
        its two integer ends over.  A term E_j = |a0 u + aj|^p - |a0|^p 2^-c,
        u = 2^(-c/p), reads u as mantissas U at scale 2^-Q; its quadratic is
        then one integer polynomial A U^2 + B 2^Q U + C 4^Q over D 4^Q,
        floored for the low end and ceiled for the high end at scale 2^-2Q.  One _pow_mantissas call takes |a0|^p and every
        quadratic's p/2 power, and the subtraction of |a0|^p 2^-c lands on
        the sum's scale with one directed shift per end.

        One try per term: a term is certified at any width, and is narrower
        than 2^-per unless its quadratic nears 0, where the p/2 power is
        steep.  A wider term widens the sum, and ``norm_from_power_sum``
        retries the whole sum at a higher K.  u's precision ku is rounded
        up to a multiple of 8, so the ``_ucache`` key (c, ku) does not
        follow the coefficients' sizes.

        Every caller passes CRat coefficients: ``norm_query`` the tuple it
        validated, which is read as it is.
        """
        if not coeffs or all(c.is_zero for c in coeffs):
            return Enclosure.point(0)
        m = len(coeffs) - 1
        c_list = self._enum.prefix(m - 1) if m >= 1 else ()
        a0 = coeffs[0]
        a = a0.abs2()
        quads = _quad_coefficients(a0, coeffs[1:])
        half, inverse = self.p.half(), self.p.reciprocal()
        ucache = self._ucache

        def sum_at(K: int) -> tuple[int, int, int]:
            per = K + (m + 1).bit_length()
            bases = [(a.numerator, a.numerator, a.denominator)]
            for (A, B, C, D, guard), c in zip(quads, c_list):
                ku = -(-(per + guard) // 8) * 8
                Q = ku + 2
                ul, uh = ucache.get(
                    (c, ku), lambda: _pow_mantissas([(1, 1, 1 << c)], inverse, ku)[0]
                )
                BQ, CQ = B << Q, C << (2 * Q)
                if B >= 0:
                    lo, hi = (A * ul + BQ) * ul, (A * uh + BQ) * uh
                else:
                    lo, hi = A * ul * ul + BQ * uh, A * uh * uh + BQ * ul
                bases.append((max((lo + CQ) // D, 0), max(-((-hi - CQ) // D), 0), 1 << (2 * Q)))
            (ap_lo, ap_hi), *powers = _pow_mantissas(bases, half, per + 3)
            lo, hi = ap_lo, ap_hi
            # E_j's ends ((t_lo << c) - ap_hi) >> c and -((ap_lo - (t_hi << c)) >> c).
            for (t_lo, t_hi), c in zip(powers, c_list):
                lo += t_lo + (-ap_hi >> c)
                hi += t_hi - (ap_lo >> c)
            return lo, hi, 1 << (per + 5)

        return norm_from_power_sum(sum_at, self.p, k)

    def residual_norm(self, v: FiniteVector, coeffs: Sequence, k: int) -> Enclosure:
        return expanded_residual_norm(self.ce, self.p, coeffs, v, k)


def f0_norm_sandwich(ce: CeSet, b: int) -> Enclosure:
    """Exact-rational certificate that the twisted generator has norm 1 at
    p = 1: the enclosure of 1 - gamma plus the enclosure of gamma, both
    read from gamma at precision b - 1 (width 2^-b), lands in
    [1 - 2^-b, 1 + 2^-b]."""
    gamma = ce.gamma_enclosure(b - 1)
    return (Enclosure.point(1) - gamma) + gamma


# ---------------------------------------------------------------------------
# expansion-based residual norms (decision access): the independent route
# ---------------------------------------------------------------------------


def _residual_quads(
    a0: CRat, cs: Sequence[CRat], target: FiniteVector, depth: int
) -> list[tuple[int, int, int, int]]:
    """(A, B, C, D) for coordinates n = 0..depth of the residual, with
    |a_0 u - d_n|^2 = (A u^2 + B u + C) / D, d_0 = t_0 and d_n = t_n - a_n
    past 0 (a_n = 0 past the list), so A / D = |a_0|^2, B / D =
    -2 Re(d_n conj a_0) and C / D = |d_n|^2.  Each scalar is read as its
    integers (x + iy) / d, d_n over the product of t_n's and a_n's d, and
    D is the square of the product of all three: no gcd and no Fraction."""
    x0, y0, d0 = a0.ints
    a = x0 * x0 + y0 * y0
    quads = []
    for n in range(depth + 1):
        xt, yt, dt = target.get(n).ints
        xa, ya, da = cs[n].ints if 0 < n < len(cs) else (0, 0, 1)
        x = xt * da - xa * dt
        y = yt * da - ya * dt
        dd = dt * da
        B = -2 * (x * x0 + y * y0) * d0 * dd
        quads.append((a * dd * dd, B, (x * x + y * y) * d0 * d0, (d0 * dd) ** 2))
    return quads


def _quad_ends(
    quad: tuple[int, int, int, int], u: tuple[int, int, int]
) -> tuple[int, int, int]:
    """The ends of (A u^2 + B u + C) / D over u >= 0 in [ul, uh] / v, for
    ``_residual_quads``' (A, B, C, D) with A >= 0 and u = (ul, uh, v) in
    the form ``_pow_slack`` returns, in that form too.  The square term
    rises with u, and the linear term takes the end of u that the sign of
    B picks, so each end is one integer numerator over D v^2, as it is.
    Only the lower end is floored at 0: the quadratic is a squared modulus
    |a_0 u - d|^2, and the upper end bounds it over u."""
    ul, uh, v = u
    A, B, C, D = quad
    cv = C * v
    lin_lo, lin_hi = (ul, uh) if B >= 0 else (uh, ul)
    lo = max(A * ul * ul + (B * lin_lo + cv) * v, 0)
    hi = lo if ul == uh else A * uh * uh + (B * lin_hi + cv) * v
    return lo, hi, D * v * v


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

    Coordinate n of the residual has squared modulus |a_0 u_n - d_n|^2 =
    |a_0|^2 u_n^2 + b_n u_n + |d_n|^2, with u_0 = (1 - gamma)^(1/p) and
    d_0 = t_0, and u_n = 2^(-c_{n-1}/p) and d_n = t_n - a_n past 0.  The
    quadratics do not depend on the precision: their integer coefficients
    are computed once, from the scalars' numerators and denominators
    (``_residual_quads``).  Each u_n is the 1/p power of a point, and u_0
    of the interval 1 - gamma, read from gamma's decided mass, in and out
    of ``rigor._pow_slack`` as integer ends over one denominator on both
    exponent tracks.  The quadratic's ends are integer numerators
    (``_quad_ends``), and their p/2 powers add up in ``rigor._pow_sum``;
    the root reads that sum plus |a_0|^p times the tail mass over one
    denominator, whose value is that of the per-term Enclosure sum.
    """
    cs = tuple(CRat.of(c) for c in coeffs)
    m = len(cs) - 1
    a0 = cs[0] if cs else CRAT_ZERO
    a0sq = a0.abs2()
    supp_top = max(target.support(), default=0)
    depth = max(m, supp_top, 2)
    c_prefix = ce.prefix(depth - 1)
    half = p.half()
    guard = 2 + (ceil_log2(1 + a0sq) if a0sq > 0 else 0)
    quads = _residual_quads(a0, cs, target, depth)
    inverse = p.reciprocal()
    points = [(1, 1, 1 << c) for c in c_prefix]

    def sum_at(K: int) -> tuple[int, int, int]:
        per = K + (depth + 2).bit_length()
        kg = per + guard
        # gamma in [n, n + 1] / top, so 1 - gamma in [top - n - 1, top - n] / top.
        n, top = ce._decided_mass(kg), 1 << (kg + 1)
        if a0.is_zero:
            return _pow_sum([(C, C, D) for _, _, C, D in quads], half, per)
        w = _pow_slack([(max(top - n - 1, 0), top - n, top)], inverse, per + 2)
        us = _pow_slack(points, inverse, per + 4)
        bases = [_quad_ends(quad, u) for quad, u in zip(quads, w + us)]
        lo, hi, den = _pow_sum(bases, half, per)
        a_lo, a_hi, a_den = _pow_sum([(a0sq.numerator, a0sq.numerator, a0sq.denominator)], half, per)
        t_lo, t_hi, t_den = ce._tail_ends(depth - 1, kg)
        tail_den = a_den * t_den
        return lo * tail_den + a_lo * t_lo * den, hi * tail_den + a_hi * t_hi * den, den * tail_den

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
    start = max(6, ceil_log2(1 / width_target) + 2)
    for k in escalate(start, lambda k: max(6, k // 2), 64, "scale enclosure failed to converge"):
        gamma = ce.gamma_enclosure(k)
        one_minus = (Enclosure.point(1) - gamma).clamp_nonneg()
        if one_minus.lo > 0:
            root = root_p(one_minus, p, k)
            if root.lo > 0:
                out = root.recip()
                if out.width <= width_target:
                    return out


def _tail_ceiling(p: Exponent, t: Fraction, K: int) -> Fraction:
    """Upper end of a certified enclosure of t**p for 0 < t < 1: pow_p at
    precision K, which adds its own guard bits for a base below 1.  As t**p
    falls when p grows, the power is taken at a rational exponent on both
    tracks: the lower end of p's bracket at precision K // 2, or 1 if that
    is lower.  On the rational track that is p itself; on the oracle track
    it asks the oracle nothing finer than a root at K already did."""
    p = Exponent.from_rational(max(Fraction(1), p.bracket(K // 2)[0]))
    return pow_p(Enclosure.point(t), p, K).hi


def _tail_cutoff(ce: CeSet, p: Exponent, k: int, threshold: Fraction) -> int:
    """The least candidate in [3, 512) whose tail norm is certified at or
    below threshold, tried in order at tail precisions k + 10, k + 26 and
    k + 48; a candidate past 3 whose tail mass at k + 48 certifies that it
    must fail is skipped (see approx_e0)."""
    ceiling = None
    for candidate in range(3, 512):
        if candidate > 3:
            if ceiling is None:
                ceiling = _tail_ceiling(p, threshold, k + 48)
            lo, _, den = ce._tail_ends(candidate - 2, k + 48)
            if lo * ceiling.denominator > ceiling.numerator * den:
                continue
        for kt in (k + 10, k + 26, k + 48):
            if root_p(ce.tail_mass(candidate - 2, kt), p, kt).hi <= threshold:
                return candidate
    raise OracleFailure("no certified tail cutoff below 512")


def approx_e0(ce: CeSet, p: Exponent, k: int) -> E0Approximation:
    """Decision-mode algorithm producing g = q1 [f_0 - sum 2^(-c/p) f_n]
    with certified |e_0 - g| < 2^-k.

    The cutoff N1 >= 3 is the least index whose tail norm is certified at
    or below eps / (eps + M), eps = 2^-k * (1/2)^(1/p), where M is an
    integer certified above (1 - gamma)^(-1/p); q1 is the simplest
    rational certified within eps of (1 - gamma)^(-1/p).

    The scan for N1 tries each candidate at up to three tail precisions
    kt, and every failed kt costs a p-th root.  A candidate past 3 is
    reached only after candidate 3 failed at kt = k + 48, so gamma at that
    precision is already decided and the candidate's tail mass there costs
    no decide call.  When that tail mass's lower end exceeds a certified
    ceiling on (eps / (eps + M))^p, the true tail norm lies above the
    threshold, so the candidate fails at every kt and is skipped with no
    root taken.  At large p (p = 8, say) the gamma enclosure at k + 48 is
    wider than the tail, and the check seldom certifies.

    The scan stays linear.  A bisection would find the same N1, but it
    reads stages past N1 - 2 and fewer gamma precisions, and the reports
    print those access counters (``max_stage``, ``decide_calls``).
    """
    coarse = _inv_root_one_minus_gamma(ce, p, Fraction(1, 4))
    m_int = frac_floor(coarse.hi) + 1

    eps = root_p(Enclosure.point(Fraction(1, 2)), p, k + 6).scale(pow2(-k))
    n1 = _tail_cutoff(ce, p, k, eps.lo / (eps.lo + m_int))

    scale = _inv_root_one_minus_gamma(ce, p, eps.lo)
    q1 = simplest_between(scale.hi - eps.lo, scale.lo + eps.lo)

    prefix = ce.prefix(n1 - 2)
    pre_mass = ce.left_sum(n1 - 2)
    start = k + 8 + ceil_log2(Fraction((m_int + 1) * n1))
    failure = "coefficient rationalisation failed to certify"
    # Each coefficient is -q1 times the middle (lo + hi) / (2 den) of
    # 2^(-c/p) as root_p(2^-c, p, kr) encloses it, read as integer ends.
    inverse = p.reciprocal()
    points = [(1, 1, 1 << c) for c in prefix]
    for kr in escalate(start, lambda _: 16, 6, failure):
        coeffs = [CRat.of(q1)]
        for lo, hi, den in _pow_slack(points, inverse, kr):
            num = -q1.numerator * (lo + hi)
            coeffs.append(CRat.from_ints(num, 0, q1.denominator * 2 * den))
        certified = expanded_residual_norm(ce, p, coeffs, basis(0), k + 2)
        if certified.hi < pow2(-k):
            break

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


def scale_real(oracle: VectorRep, query_log: Optional[list] = None) -> ComputableReal:
    """(1 - gamma)^(-1/p) as a ComputableReal driven by the oracle; each
    oracle query appends its precisions to ``query_log`` when one is given."""
    return ComputableReal(
        lambda k: extract_scale(oracle, k, query_log), f"scale[{oracle.label}]"
    )


def gamma_from_scale(s: ComputableReal, p: Exponent) -> ComputableReal:
    """gamma = 1 - s^-p as a ComputableReal.

    Guard g = ceil(log2 ub(p)) + 2 covers the derivative p s^-(p+1) <= p
    for s >= 1; an escalation loop covers scales close to 0.  A scale
    certified below 1 + 2^-8 pins gamma to the degenerate corner,
    contradicting 0 < gamma at check scale; that is flagged with a warning
    (the value is still produced).
    """
    if s.enclosure(8).hi <= 1 + pow2(-8):
        warnings.warn(
            f"scale oracle {s.label} certified <= 1: gamma degenerates to <= 0",
            DegenerateScaleWarning,
            stacklevel=2,
        )
    guard = ceil_log2(p.ub()) + 2

    def fn(k: int) -> Fraction:
        step = max(6, k // 2)
        for kk in escalate(k + guard, lambda _: step, 64, "gamma-from-scale failed to converge"):
            se = s.enclosure(kk)
            if se.lo > 0:
                # s^p in [lo, hi] / den, so gamma in [1 - den / lo, 1 - den / hi].
                lo, hi, den = _pow_slack([se.ends()], p, kk)[0]
                if lo > 0 and den * (hi - lo) << k < lo * hi:
                    return 1 - Fraction(den * (lo + hi), 2 * lo * hi)

    return ComputableReal(fn, f"gamma-from-{s.label}")


def _decide_bits(
    gamma: ComputableReal, enum: CeSet | CeView, n_max: int, fuel: int
) -> list[bool]:
    """Membership of 1, ..., N = n_max in C from one gamma query and one
    scan of the enumeration.

    The query at precision N + 3 gives g with |g - gamma| < 2^-(N+3).  Bit
    n is read at the first stage whose left sum clears t_n = g - 2^-(n+2).
    For every n <= N, gamma - t_n lies in (2^-(n+3), 2^-(n+1)), so past
    that stage the mass not yet enumerated is below 2^-n, and n is in C
    iff it has already been enumerated.  The thresholds grow with n, so
    one forward scan reads every bit.

    The scan keeps the left sum as an integer at scale 2^-(N+4), over the
    elements up to N + 4 only.  That sum never exceeds the true left sum,
    so clearing t_n still certifies the bit; the mass it drops is at most
    2^-(N+4), below gamma - t_n - 2^-(n+4), so a correct oracle still
    clears every threshold.  An oracle that overshoots gamma may never
    let it, and ``fuel`` stages bound the scan.
    """
    if n_max < 1:
        return []
    scale = n_max + 4
    g = gamma.approx(n_max + 3)
    # total > t_n 2^scale iff total > floor(g 2^scale) - 2^(scale-n-2),
    # total being an integer; n = len(bits) + 1 is the next bit.
    top = (g.numerator << scale) // g.denominator
    element_at = enum.element_at
    seen = bytearray(n_max + 1)
    bits: list[bool] = []
    total = 0
    for s in range(fuel):
        c = element_at(s)
        if c <= scale:
            total += 1 << (scale - c)
            if c <= n_max:
                seen[c] = 1
        while total > top - (1 << (scale - len(bits) - 3)):
            bits.append(bool(seen[len(bits) + 1]))
            if len(bits) == n_max:
                return bits
    raise OracleFailure(
        f"enumeration fuel exhausted at {fuel} stages; gamma oracle likely corrupt"
    )


def membership_bits(
    oracle: VectorRep,
    n_max: int,
    *,
    fuel: int = 100000,
    query_log: Optional[list] = None,
) -> list[tuple[int, bool]]:
    """The full reverse pipeline: scale extraction, gamma recovery, then
    membership of 1, ..., n_max, using only enumeration access to the set.
    The oracle computes a unit multiple of e_0 over a ``TwistedGenSet``,
    which fixes p and the set.

    The oracle is queried twice: once at precision 8 for the degenerate
    scale check, and once at the top, where one approximation of gamma to
    within 2^-(n_max+3) decides every bit (see ``_decide_bits``).
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateScaleWarning)
        gamma = gamma_from_scale(scale_real(oracle, query_log), oracle.genset.p)
    enum_view = oracle.genset.ce.view()
    bits = _decide_bits(gamma, enum_view, n_max, fuel)
    return list(enumerate(bits, start=1))


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
