"""Acceptance suite: one test per criterion, at the stated tolerances.

Each criterion builds a deterministic report (seeded sampling, canonical
JSON, no wall-clock content); the determinism criterion rebuilds the
reports of criteria 1..6 from scratch and compares bytes.  Run with
``pytest tests/test_acceptance.py -v -s`` to see one line per criterion.
"""

import hashlib
import random
import time
from fractions import Fraction

import pytest

from lpcat import (
    CeSet,
    CRat,
    CheckSchedule,
    Exponent,
    FiniteVector,
    TwistedGenSet,
    approx_e0,
    basis,
    canonical_json_bytes,
    check_ballmap,
    classify,
    descriptor_to_ballmap,
    e0_rep,
    expanded_residual_norm,
    f0_norm_sandwich,
    membership_bits,
    pow2,
    random_descriptor,
    rep_with_offset_fault,
    rotation_demo,
)

F = Fraction

P_VALUES = (F(1), F(3, 2), F(2))
SEED = 20240607


def _sha(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(str(part).encode())
        h.update(b"|")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# report builders (pure given the seed)
# ---------------------------------------------------------------------------


def build_criterion_1_and_7(seed: int = SEED) -> dict:
    """500 seeded coefficient lists, each checked on all six (p, set)
    combinations: telescoping norm vs expansion oracle within 2 * 2^-k,
    with stage-discipline counters recorded per call."""
    rng = random.Random(seed)
    cases = []
    for _ in range(500):
        m = rng.randint(0, 8)
        k = rng.randint(4, 30)
        coeffs = [
            CRat(F(rng.randint(-9, 9), rng.randint(1, 9)),
                 F(rng.randint(-9, 9), rng.randint(1, 9)))
            for _ in range(m + 1)
        ]
        cases.append((coeffs, k))

    gap_violations = 0
    stage_violations = 0
    decide_violations = 0
    digest_parts = []
    checks = 0
    for p_val in P_VALUES:
        p = Exponent.from_rational(p_val)
        for make in (CeSet.odds, CeSet.primes):
            genset_ce = make()
            genset = TwistedGenSet(genset_ce, p)
            oracle_ce = make()
            for coeffs, k in cases:
                before_stage = genset_ce.stats.max_stage
                q = genset.norm_query(coeffs, k)
                if genset_ce.stats.max_stage > max(before_stage, len(coeffs) - 2):
                    stage_violations += 1
                if genset_ce.stats.decide_calls:
                    decide_violations += 1
                ref = expanded_residual_norm(
                    oracle_ce, p, coeffs, FiniteVector.zero(), k
                )
                if abs(q - ref.midpoint) > 2 * pow2(-k):
                    gap_violations += 1
                digest_parts.append(q)
                checks += 1
    return {
        "criterion": 1,
        "seed": seed,
        "lists": len(cases),
        "checks": checks,
        "gap_violations": gap_violations,
        "stage_violations": stage_violations,
        "decide_violations": decide_violations,
        "digest": _sha(digest_parts),
    }


def build_criterion_2() -> dict:
    """Unit norm of the twisted generator, strict at every k up to 40,
    plus the exact p = 1 sandwich certificate."""
    failures = []
    digest_parts = []
    for p_val in P_VALUES:
        p = Exponent.from_rational(p_val)
        genset = TwistedGenSet(CeSet.odds(), p)
        for k in range(1, 41):
            q = genset.norm_query([1], k)
            digest_parts.append(q)
            if not (1 - pow2(-k) < q < 1 + pow2(-k)):
                failures.append([str(p_val), k])
    sandwich_ok = True
    for k in range(1, 41):
        enc = f0_norm_sandwich(CeSet.odds(), k + 1)
        if not (1 - pow2(-k) < enc.lo and enc.hi < 1 + pow2(-k)):
            sandwich_ok = False
    return {
        "criterion": 2,
        "failures": failures,
        "sandwich_strict": sandwich_ok,
        "digest": _sha(digest_parts),
    }


def build_criterion_3() -> dict:
    """Certified approximation of e0 for k = 1..12 at p in {1, 2}, strict,
    plus the frozen worked instance."""
    failures = []
    digest_parts = []
    for p_val in (F(1), F(2)):
        p = Exponent.from_rational(p_val)
        for k in range(1, 13):
            out = approx_e0(CeSet.odds(), p, k)
            digest_parts.extend([out.n1, out.q1, out.certified_error.hi])
            if not out.certified_error.hi < pow2(-k):
                failures.append([str(p_val), k, "certified"])
            if p_val == 1 and not (out.exact_error is not None and out.exact_error < pow2(-k)):
                failures.append([str(p_val), k, "exact"])
    instance = approx_e0(CeSet.odds(), Exponent.from_rational(1), 2)
    return {
        "criterion": 3,
        "failures": failures,
        "instance": {
            "N1": instance.n1,
            "q1": str(instance.q1),
            "exact_error": str(instance.exact_error),
        },
        "digest": _sha(digest_parts),
    }


def build_criterion_4() -> dict:
    """End-to-end bit recovery on three sets, 100 percent agreement for
    n = 1..20, with a fault-injected oracle detected."""
    sets = {
        "odds": CeSet.odds,
        "primes": CeSet.primes,
        "throttled": lambda: CeSet.explicit([2, 5, 9], "explicit259").with_delays(
            [(5, 7), (2, 3)], "throttled259"
        ),
    }
    p = Exponent.from_rational(1)
    agreements = {}
    for name, make in sets.items():
        ce = make()
        genset = TwistedGenSet(ce, p)
        bits = membership_bits(e0_rep(genset), 20)
        agree = sum(1 for n, got in bits if got == ce.decide(n))
        agreements[name] = agree
    ce = CeSet.odds()
    corrupted = rep_with_offset_fault(e0_rep(TwistedGenSet(ce, p)), F(-1, 8))
    bad_bits = membership_bits(corrupted, 20)
    bad_agree = sum(1 for n, got in bad_bits if got == ce.decide(n))
    return {
        "criterion": 4,
        "agreements": agreements,
        "fault_injected_agreement": bad_agree,
        "fault_flagged": bad_agree < 20,
    }


def build_criterion_5(seed: int = SEED) -> dict:
    """20 seeded descriptors: synthesized maps pass the operator criteria
    on the schedule (zero correctness violations, convergence achieved on
    the 2^-1..2^-12 grid) and basis images classify as conforming."""
    rng = random.Random(seed)
    p = Exponent.from_rational(F(3, 2))
    results = []
    for i in range(20):
        size = rng.randint(6, 9)
        d = random_descriptor(rng, size)
        bmap = descriptor_to_ballmap(d, p)
        schedule = CheckSchedule.seeded("E", seed=seed + i)
        report = check_ballmap(bmap, d.apply, schedule)
        verdict = classify([d.apply(basis(n)) for n in range(size)], p, tol=10)
        results.append(
            {
                "size": size,
                "violations": len(report.correctness_violations),
                "convergence_failures": len(report.convergence_failures),
                "convergence_achieved": report.convergence_achieved,
                "verdict": verdict.verdict,
            }
        )
    return {"criterion": 5, "seed": seed, "descriptors": results}


def build_criterion_6(seed: int = SEED) -> dict:
    """The p = 2 boundary: 100-sample certified l2 preservation with a
    Violates classification, and a certified p = 1 counterexample."""
    report = rotation_demo(Exponent.from_rational(1), samples=100, seed=seed)
    overlap_witnesses = [
        w for w in report["classifier"]["witnesses"] if w["kind"] == "support_overlap"
    ]
    return {
        "criterion": 6,
        "consistent": report["l2_preservation"]["consistent"],
        "verdict": report["classifier"]["verdict"],
        "has_enclosure_witness": bool(overlap_witnesses),
        "p1_unit_excluded": report["p_witness"]["unit_excluded"],
        "p1_image_norm": report["p_witness"]["image_norm"],
    }


_BUILDERS = {
    1: build_criterion_1_and_7,
    2: build_criterion_2,
    3: build_criterion_3,
    4: build_criterion_4,
    5: build_criterion_5,
    6: build_criterion_6,
}

_cache: dict = {}


def first_run(n: int) -> dict:
    if n not in _cache:
        _cache[n] = _BUILDERS[n]()
    return _cache[n]


def announce(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# the criteria
# ---------------------------------------------------------------------------


def test_criterion_1_norm_algorithm_agreement():
    started = time.perf_counter()
    report = first_run(1)
    elapsed = time.perf_counter() - started
    ok = (
        report["gap_violations"] == 0
        and report["lists"] == 500
        and report["checks"] == 3000
        and elapsed < 60
    )
    announce(
        1,
        ok,
        f"{report['checks']} checks (500 lists x 6 combos), "
        f"0 gaps expected, got {report['gap_violations']}, {elapsed:.1f}s",
    )
    assert report["gap_violations"] == 0
    assert elapsed < 60


def test_criterion_2_unit_norm_of_twisted_generator():
    report = first_run(2)
    ok = not report["failures"] and report["sandwich_strict"]
    announce(2, ok, f"strict at k<=40 for p in {{1,3/2,2}}; exact p=1 sandwich")
    assert not report["failures"]
    assert report["sandwich_strict"]


def test_criterion_3_e0_certificates():
    report = first_run(3)
    inst = report["instance"]
    ok = (
        not report["failures"]
        and inst == {"N1": 4, "q1": "3", "exact_error": "1/32"}
    )
    announce(3, ok, f"k=1..12 strict at p in {{1,2}}; instance {inst}")
    assert not report["failures"]
    assert inst == {"N1": 4, "q1": "3", "exact_error": "1/32"}


def test_criterion_4_bit_extraction():
    started = time.perf_counter()
    report = first_run(4)
    elapsed = time.perf_counter() - started
    ok = (
        all(v == 20 for v in report["agreements"].values())
        and report["fault_flagged"]
        and elapsed < 120
    )
    announce(
        4,
        ok,
        f"agreement {report['agreements']}, fault agreement "
        f"{report['fault_injected_agreement']}/20 flagged, {elapsed:.1f}s",
    )
    assert all(v == 20 for v in report["agreements"].values())
    assert report["fault_flagged"]
    assert elapsed < 120


def test_criterion_5_descriptor_round_trip():
    report = first_run(5)
    bad = [
        r
        for r in report["descriptors"]
        if r["violations"] or r["convergence_failures"] or r["verdict"] != "Conforms"
    ]
    announce(5, not bad, f"20 descriptors, {len(bad)} failures")
    assert len(report["descriptors"]) == 20
    assert not bad


def test_criterion_6_p2_boundary():
    report = first_run(6)
    ok = (
        report["consistent"] == 100
        and report["verdict"] == "Violates"
        and report["has_enclosure_witness"]
        and report["p1_unit_excluded"]
    )
    announce(
        6,
        ok,
        f"100/100 l2-consistent at 2^-30, verdict {report['verdict']}, "
        f"p=1 witness norm in {report['p1_image_norm']}",
    )
    assert report["consistent"] == 100
    assert report["verdict"] == "Violates"
    assert report["has_enclosure_witness"]
    assert report["p1_unit_excluded"]


def test_criterion_7_oracle_discipline():
    report = first_run(1)
    ok = report["stage_violations"] == 0 and report["decide_violations"] == 0
    announce(
        7,
        ok,
        f"stages < M and zero decide calls across {report['checks']} queries",
    )
    assert report["stage_violations"] == 0
    assert report["decide_violations"] == 0


# SHA-256 of canonical_json_bytes(first_run(n)); any change to a report's
# bytes, however it arises, shows here.
REPORT_SHA = {
    1: "33702450220f5c1ff2fe9e9ba4fffe66f51298f036e25ce2342efc7daaf2b652",
    2: "3af4a388377ea291e60b42ab5a1e6f0082af798ff0f6d3f4cb4b94b5c49c75e7",
    3: "e89aed269d2d8f6efe84e93deac4517eb33fa061bd23129e051e07681be3400b",
    4: "b6941f6b6aa7502c4273fbb4165b591482e72923747974ef3f9ba9a77d396bb7",
    5: "c9d95b0e6b0c465cc7fa967291be273b02bc74c4e4a8a5e25d39bd00221488cf",
    6: "579bf3ac5e9d77b3ed2c296b5be095fdc9bed19a862be805348dcd9ca7aa34c0",
}


@pytest.mark.parametrize("n", sorted(REPORT_SHA))
def test_report_bytes_match_golden(n):
    digest = hashlib.sha256(canonical_json_bytes(first_run(n))).hexdigest()
    assert digest == REPORT_SHA[n]


def test_criterion_8_determinism():
    first = {n: canonical_json_bytes(first_run(n)) for n in range(1, 7)}
    second = {n: canonical_json_bytes(_BUILDERS[n]()) for n in range(1, 7)}
    same = [n for n in range(1, 7) if first[n] == second[n]]
    announce(8, len(same) == 6, f"criteria 1-6 reports byte-identical: {same}")
    assert same == [1, 2, 3, 4, 5, 6]
