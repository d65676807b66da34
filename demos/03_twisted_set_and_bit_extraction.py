"""The main construction, end to end.

Pick a set C of positive naturals with enumeration c_0, c_1, ... and let
gamma be the sum of 2^-c over C.  Twist the first generator:

    f_0 = (1 - gamma)^(1/p) e_0 + sum_n 2^(-c_n/p) e_{n+1}

Forward direction: the twisted presentation is effective (its norm oracle
needs only the enumeration prefix, never a membership decision), and with
decision access one can approximate e_0 in twisted coordinates to any
precision.  Reverse direction: any oracle pointing at a unit multiple of
e_0 in twisted coordinates reveals (1 - gamma)^(-1/p), hence gamma, hence
membership in C bit by bit through enumeration access alone.

Run:  python3 demos/03_twisted_set_and_bit_extraction.py
"""

from fractions import Fraction as F

from lpcat import (
    CeSet,
    Exponent,
    TwistedGenSet,
    approx_e0,
    e0_rep,
    extract_scale,
    f0_norm_sandwich,
    gamma_from_scale,
    membership_bits,
    pow2,
    rep_with_offset_fault,
    scale_real,
)

ce = CeSet.odds()          # gamma = 2/3 exactly, so everything is checkable
p = Exponent.from_rational(1)
genset = TwistedGenSet(ce, p, field_mode="real")

print("== The twisted norm consults only the enumeration prefix ==")
for coeffs in ([1], [1, 1], [2, -1, F(1, 3)]):
    before = ce.stats.max_stage
    q = genset.norm_query(coeffs, 30)
    print(
        f"|sum a_j f_j| for a = {coeffs!r:<18} -> {float(q):.9f}   "
        f"(stages consulted: {ce.stats.max_stage + 1}, decide calls: {ce.stats.decide_calls})"
    )
print(f"unit generator, certified sandwich at B=20: {f0_norm_sandwich(ce, 20)}")

print()
print("== Decision access approximates e_0 in twisted coordinates ==")
for k in (2, 6, 10):
    out = approx_e0(ce, p, k)
    print(
        f"k={k:2d}: N1={out.n1}, q1={out.q1}, coefficients={len(out.coefficients)}, "
        f"exact |e0 - g| = {out.exact_error} < 2^-{k}"
    )

print()
print("== An isometry oracle leaks the set ==")
oracle = e0_rep(genset)
print(f"scale extraction: (1 - gamma)^(-1) = {float(extract_scale(oracle, 20)):.8f}  (exact value 3)")
gamma = gamma_from_scale(scale_real(oracle), p)
print(f"recovered gamma at k=20: {float(gamma.approx(20)):.8f}  (exact value 2/3)")
bits = membership_bits(oracle, 20)
sample = {n: member for n, member in bits if n in (1, 2, 7, 8, 15)}
print(f"membership bits through enumeration only: {sample}")
agree = sum(1 for n, got in bits if got == ce.decide(n))
print(f"n = 1..20 agreement with ground truth: {agree}/20")

print()
print("== A corrupted oracle cannot hide ==")
bad = rep_with_offset_fault(oracle, F(-1, 8))
bad_bits = membership_bits(bad, 20)
bad_agree = sum(1 for n, got in bad_bits if got == ce.decide(n))
print(f"oracle off by 1/8 -> agreement {bad_agree}/20: flagged")
