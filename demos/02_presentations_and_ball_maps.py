"""Presentations of lp as norm oracles, and operators as ball maps.

A generating set is known only through certified norm queries on finite
rational combinations.  The twist by a unimodular scalar zeta shows why
that interface matters: its norm oracle is identical to the standard one,
so it is effective no matter how complicated zeta is, yet the vector
zeta*e0 is trivially computable in the twisted coordinates.  The
multiplication-by-zeta operator is then a ball map between the two
presentations, and the checker verifies the operator criteria against the
exact reference.

Run:  python3 demos/02_presentations_and_ball_maps.py
"""

from fractions import Fraction as F

from lpcat import (
    CheckSchedule,
    CRat,
    Exponent,
    StandardGenSet,
    ZetaGenSet,
    ballmap_from_disjoint_family,
    check_ballmap,
    exact_rep,
    pow2,
)

p = Exponent.from_rational(2)
zeta = CRat(F(3, 5), F(4, 5))  # exact Pythagorean unimodular

E = StandardGenSet(p)
Fz = ZetaGenSet(zeta, p, label="F_zeta")

print("== Two presentations, one norm oracle ==")
for coeffs in ([1], [3, 4], [CRat(F(1, 2), F(1, 3))]):
    qe = E.norm_query(coeffs, 30)
    qf = Fz.norm_query(coeffs, 30)
    print(f"coeffs {coeffs!r:>34}: E -> {float(qe):.10f}, F_zeta -> {float(qf):.10f}")
print("identical, because |zeta| = 1 cancels in every norm.")

print()
print("== zeta*e0 in twisted coordinates ==")
rep = exact_rep(Fz, [1], label="zeta*e0")
print(f"coefficient list at any precision: {rep.coefficients(40)}")
print(f"as an exact vector: {rep.exact_vector}")

print()
print("== Multiplication by zeta as a ball map (E -> F_zeta) ==")
family = [exact_rep(Fz, [CRat.of(0)] * n + [CRat.of(1)], label=f"f{n}") for n in range(8)]
bmap = ballmap_from_disjoint_family(family, Fz, kind="mult-by-zeta")
schedule = CheckSchedule.seeded("E", seed=7)
report = check_ballmap(bmap, lambda v: v.scale(zeta), schedule)
print(f"correctness checks: {report.correctness_checked}, violations: {len(report.correctness_violations)}")
print(f"convergence achieved on the epsilon grid: {report.convergence_achieved}, failures: {len(report.convergence_failures)}")
print(f"operator criteria pass: {report.passed}")

print()
print("== The work-budget model of 'may not halt' ==")
from lpcat import Fuel

starved = ballmap_from_disjoint_family(family, Fz, fuel=Fuel(max_precision=2))
from lpcat import RationalBall

tiny = RationalBall((CRat.of(1),), pow2(-10), "E")
print(f"tight input ball with a starved budget -> {starved.apply(tiny)}  (no output, explicitly)")
