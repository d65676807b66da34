"""Tour of the numeric substrate: every value is either an exact rational
or an interval with exact rational endpoints certified to contain it.

Run:  python3 demos/01_certified_arithmetic.py
"""

from fractions import Fraction as F

from lpcat import (
    ComputableReal,
    Enclosure,
    Exponent,
    pow2,
    pow_p,
    root_p,
    sqrt_real,
)

print("== Enclosures are the only numeric currency ==")
x = Enclosure(-2, 2, 4)
print(f"Enclosure(-2, 2, 4) = {x}   (integer ends over one denominator, in lowest terms)")
print(f"x + 1/3             = {x + Enclosure.point(F(1, 3))}   (exact endpoints)")
print(f"x - x               = {x - x}   (each operand ranges over its own interval)")
print(f"1 / [1, 2]          = {Enclosure(1, 2, 1).recip()}")
try:
    Enclosure.point(0.1)
except TypeError:
    print("Enclosure.point(0.1) is refused: a float's binary value is not 1/10")

print()
print("== Certified p-th powers and roots ==")
p32 = Exponent.from_rational(F(3, 2))
p2 = Exponent.from_rational(2)

cube = pow_p(Enclosure.point(F(1, 2)), Exponent.from_rational(3), 10)
print(f"(1/2)^3          = {cube}   (exact: rational fast path)")

r = root_p(Enclosure.point(2), p2, 40)
print(f"sqrt 2 at k=40   = [{float(r.lo):.12f}, {float(r.hi):.12f}]")
print(f"  width < 2^-40: {r.width < pow2(-40)}")
print(f"  endpoint certificates: lo^2 = {float(r.lo ** 2):.12f} <= 2 <= hi^2 = {float(r.hi ** 2):.12f}")

t = pow_p(Enclosure.point(2), p32, 30)
print(f"2^(3/2) at k=30  = [{float(t.lo):.10f}, {float(t.hi):.10f}]")

back = root_p(pow_p(Enclosure.point(F(1, 20)), p32, 30), p32, 30)
print(f"root(pow(1/20))  = [{float(back.lo):.10e}, {float(back.hi):.10e}]")
print(f"  recovers 1/20 within 2^-28: {back.contains(F(1, 20)) and back.width < pow2(-28)}")

print()
print("== Precision-indexed reals ==")
third = ComputableReal.constant(F(1, 3))
print(f"enclosure(5) of 1/3 = {third.enclosure(5)}   (width 2^-4, contains 1/3)")

u = sqrt_real(F(1, 2))
for k in (4, 16, 48):
    q = u.approx(k)
    print(f"1/sqrt2 approx(k={k:2d}) = {q}  (|q - value| < 2^-{k})")
print(f"oracle accounting: {u.stats.count} queries, max precision {u.stats.max_k}")

print()
print("== Exponents known only through an oracle ==")
p_oracle = Exponent.from_real(ComputableReal(lambda k: F(3, 2), "slow-3/2"))
a = pow_p(Enclosure.point(F(7, 5)), p_oracle, 24)
b = pow_p(Enclosure.point(F(7, 5)), p32, 24)
print(f"(7/5)^p, p via oracle : [{float(a.lo):.10f}, {float(a.hi):.10f}]")
print(f"(7/5)^p, p = 3/2 exact: [{float(b.lo):.10f}, {float(b.hi):.10f}]")
print(f"the two tracks agree: {a.intersects(b)}")
