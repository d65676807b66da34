"""The four seeded workloads of the lpcat benchmark.

A workload is a fixed mix of operation slots: one slot per point of the
grid of operation kinds and parameters that the workload states, and no
slot repeated.  The harness runs it in rounds; each round visits every
slot once, in a seeded order, so every complete round has exactly the
stated input mix, and the sample count grows with the number of rounds.
The inputs of slot s in round r are drawn from ``(seed, r, s)`` alone
(twisted-norm: from ``(seed, r mod 3, s)``), so rounds bring fresh inputs
and the harness can rebuild any operation later to check its answer
without keeping its inputs alive.  Presentations, exponents and caches
that a long session would reuse are built once per run and shared across
rounds; the one exception is rigor's dyadic power cache on
oracle-exponent (see ``_cold``).

Each operation's ``collect`` keeps only what its correctness check needs,
plus a digest of the full answer, so the harness's own memory does not
grow with the size of the answers.  The check runs after the timed phase,
and the ``repr`` of the kept answer must be identical in the traced and
untraced runs.

Only public names of lpcat are called: canonical ones (``TwistedGenSet``,
``StandardGenSet``, ``ComputableReal.approx``), never the aliases slated
for removal.  The one private name touched, rigor's dyadic power cache,
is reached through the tolerant adapter ``tracer.read``.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from tracer import read

# Ordinary operations run under this cap; hitting it is a failure.
DEADLINE_S = 10.0
# Oracle-track queries at k = 10 and twisted-set oracle-track queries take
# 3-30 s at the seed commit (the exact-route cliff, ROADMAP item 4).  They
# run under this cap, are counted as capped, and are never skipped.  The cap
# is below every oracle-track operation that finishes, so the latency
# percentiles rank capped operations below them and read the ones that
# finish.
CLIFF_DEADLINE_S = 0.05

WORKLOADS = ("twisted-norm", "reductions", "isometry-check", "oracle-exponent")
# The rational-track exponents p = 1, 3/2, 2 that the workloads list.
RATIONAL_PS = (Fraction(1), Fraction(3, 2), Fraction(2))


@dataclass(eq=False)
class Op:
    kind: str
    params: dict
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    collect: Callable[[Any], Any] = lambda raw: raw
    deadline_s: float = DEADLINE_S


Slot = Callable[[random.Random, int], Op]


@dataclass
class Workload:
    name: str
    seed: int
    slots: list[Slot]
    # If set, round r reuses the inputs of round r % variants.
    variants: int | None = None

    def op(self, round_no: int, slot: int) -> Op:
        """The operation of ``slot`` in round ``round_no``, inputs included."""
        variant = round_no % self.variants if self.variants else round_no
        rng = random.Random(f"{self.name}:{self.seed}:{variant}:{slot}")
        return self.slots[slot](rng, round_no)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _rat(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _cli_op(lp, kind: str, params: dict, argv: list[str], out: Path, keep, check) -> Op:
    """An in-process ``lpcat.cli.main`` call.  The report is read back
    outside the timed call; the answer is (exit code, ``keep(report)``,
    digest of the report), and ``check`` sees the first two."""

    def call():
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return lp.cli.main(argv + ["--out", str(out)])

    def collect(rc):
        if not out.exists():
            return rc, None, None
        data = out.read_bytes()
        out.unlink()
        return rc, keep(json.loads(data)), _sha(data)

    return Op(kind, params, call, lambda a: check(a[0], a[1]), collect=collect)


# ---------------------------------------------------------------------------
# twisted-norm
# ---------------------------------------------------------------------------


# Twisted-norm inputs cycle through this many variants per slot, so the
# reference checks (as costly as the queries) stay a bounded share of a run.
TWISTED_VARIANTS = 3


def twisted_norm(lp, seed: int, workdir: Path, tiny: bool = False) -> Workload:
    rigor, tw, lpspace = lp.rigor, lp.twisted, lp.lpspace
    ms = (2, 4) if tiny else (8, 64, 256)
    ks = (4, 8) if tiny else (10, 30, 60, 120)
    slots = []
    references: dict = {}
    for p_val in RATIONAL_PS:
        p = rigor.Exponent.from_rational(p_val)
        for set_name in ("odds", "primes"):
            make_set = getattr(tw.CeSet, set_name)
            # One presentation per (p, set) for the whole run: its _ucache warms.
            presentation = tw.TwistedGenSet(make_set(), p)
            for m in ms:
                for k in ks:
                    params = {"p": str(p_val), "set": set_name, "m": m, "k": k}

                    def slot(rng, round_no, index=len(slots), presentation=presentation,
                             make_set=make_set, p=p, m=m, k=k, params=params):
                        coeffs = [rigor.CRat(_rat(rng), _rat(rng)) for _ in range(m)]

                        def check(q):
                            # The expansion route, independent of the
                            # telescoping norm on purpose, on a fresh set.
                            key = (round_no % TWISTED_VARIANTS, index)
                            if key not in references:
                                references[key] = tw.expanded_residual_norm(
                                    make_set(), p, coeffs, lpspace.FiniteVector.zero(), k
                                )
                            return abs(q - references[key].midpoint) <= 2 * rigor.pow2(-k)

                        return Op("norm_query", params,
                                  functools.partial(presentation.norm_query, coeffs, k), check)

                    slots.append(slot)
    return Workload("twisted-norm", seed, slots, variants=TWISTED_VARIANTS)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def _bound_below(enclosure_json, k: int) -> bool:
    return Fraction(enclosure_json[1]) < Fraction(1, 2**k)


def _keep_e0(report):
    return report["certified_error_bound"]


def _check_e0(k: int):
    return lambda rc, bound: rc == 0 and _bound_below(bound, k)


def _keep_agreement(report):
    return report["agreement_ok"]


def _check_clean(rc, agreement_ok) -> bool:
    return rc == 0 and agreement_ok is True


def _check_fault_caught(rc, agreement_ok) -> bool:
    return rc == 3 or (rc == 0 and agreement_ok is False)


def _keep_demo(report):
    rows = [(row["certified_error_bound"], row["k"]) for row in report["sweep"]]
    return report["ground_truth_agreement"], rows


def _check_demo(rc, kept) -> bool:
    if rc != 0:
        return False
    agreement, rows = kept
    got, total = agreement.split("/")
    return got == total and all(_bound_below(bound, k) for bound, k in rows)


def reductions(lp, seed: int, workdir: Path, tiny: bool = False) -> Workload:
    n_small, n_large = (4, 6) if tiny else (20, 40)
    demo_args = ["--k", "3", "--n-max", "4"] if tiny else []
    specs: dict[int, str] = {}

    def ce_arg(set_name: str, round_no: int) -> str:
        """Builtin name, or the round's seeded throttled spec file."""
        if set_name != "throttled":
            return set_name
        if round_no not in specs:
            # The shape of tests/data/ce_throttled.json with seeded delays:
            # 2 and 5 appear late, at stages drawn from narrow ranges.
            rng = random.Random(f"throttled:{seed}:{round_no}")
            spec = {
                "label": f"throttled-{seed}-{round_no}",
                "kind": "throttled",
                "elements": [2, 5, 9],
                "delays": [[2, rng.randint(2, 4)], [5, rng.randint(6, 8)]],
            }
            for stale in specs.values():
                Path(stale).unlink(missing_ok=True)
            specs.clear()
            path = workdir / f"throttled-{round_no}.json"
            path.write_text(json.dumps(spec))
            specs[round_no] = str(path)
        return specs[round_no]

    out = workdir / "report.json"
    slots = []
    for set_name in ("odds", "primes", "throttled"):
        for p in ("1", "3/2", "2"):
            base = {"set": set_name, "p": p}

            for k in (2, 4) if tiny else (4, 8, 12, 16, 20):

                def approx(rng, r, set_name=set_name, p=p, k=k, base=base):
                    argv = ["approx-e0", "--ce-set", ce_arg(set_name, r), "--p", p, "--k", str(k)]
                    return _cli_op(lp, "approx-e0", {**base, "k": k}, argv, out, _keep_e0,
                                   _check_e0(k))

                slots.append(approx)
            for n_max in (n_small, n_large) if p == "1" else (n_small,):

                def extract(rng, r, set_name=set_name, p=p, n_max=n_max, base=base):
                    argv = ["extract", "--ce-set", ce_arg(set_name, r), "--p", p,
                            "--n-max", str(n_max)]
                    return _cli_op(lp, "extract", {**base, "n_max": n_max}, argv, out,
                                   _keep_agreement, _check_clean)

                slots.append(extract)

            def demo(rng, r, set_name=set_name, p=p, base=base):
                argv = ["demo", "--scenario", "pour-el-richards",
                        "--ce-set", ce_arg(set_name, r), "--p", p, *demo_args]
                return _cli_op(lp, "demo-pour-el-richards", base, argv, out, _keep_demo,
                               _check_demo)

            slots.append(demo)

    def corrupt(rng, r):
        # 20 bits at every size: with fewer bits, all may agree despite the fault.
        argv = ["extract", "--ce-set", "odds", "--p", "3/2", "--n-max", "20", "--corrupt=-1/8"]
        params = {"set": "odds", "p": "3/2", "n_max": 20, "corrupt": "-1/8"}
        return _cli_op(lp, "extract-corrupt", params, argv, out, _keep_agreement,
                       _check_fault_caught)

    slots.append(corrupt)
    return Workload("reductions", seed, slots)


# ---------------------------------------------------------------------------
# isometry-check
# ---------------------------------------------------------------------------


def _keep_rotation(report):
    """(verdict, has an enclosure witness, p-witness excludes norm 1, digest)."""
    classifier = report["classifier"]
    return (classifier["verdict"], any("moduli" in w for w in classifier["witnesses"]),
            report.get("p_witness", {}).get("unit_excluded"),
            _sha(json.dumps(report, sort_keys=True).encode()))


def _check_rotation(p_is_two: bool):
    def check(kept) -> bool:
        verdict, has_witness, unit_excluded, _digest = kept
        return verdict == "Violates" and has_witness and (p_is_two or unit_excluded is True)

    return check


def _rotation_op(iso, p, name: str, seed: int, samples: int, p_is_two: bool) -> Op:
    return Op("rotation_demo", {"p": name},
              functools.partial(iso.rotation_demo, p, samples=samples, seed=seed),
              _check_rotation(p_is_two), collect=_keep_rotation)


def isometry_check(lp, seed: int, workdir: Path, tiny: bool = False) -> Workload:
    rigor, iso, genset, basis = lp.rigor, lp.isometry, lp.genset, lp.lpspace.basis
    samples = 10 if tiny else 100
    slots = []
    for p_val in RATIONAL_PS:
        p = rigor.Exponent.from_rational(p_val)

        def pipeline(rng, _round, p=p, p_val=p_val):
            descriptor = iso.random_descriptor(rng, rng.randint(5, 10))
            schedule = genset.CheckSchedule.seeded("E", seed=rng.randrange(1 << 30))

            def call():
                bmap = iso.descriptor_to_ballmap(descriptor, p)
                report = genset.check_ballmap(bmap, descriptor.apply, schedule)
                images = [descriptor.apply(basis(n)) for n in range(descriptor.size)]
                return report, iso.classify(images, p, 8)

            def collect(raw):
                report, verdict = raw
                digest = _sha(report.to_bytes() + repr(verdict).encode())
                return report.passed, len(report.correctness_violations), verdict.verdict, digest

            return Op("descriptor-pipeline", {"p": str(p_val)}, call,
                      lambda a: a[0] and a[1] == 0 and a[2] == "Conforms", collect)

        def rotation(rng, _round, p=p, p_val=p_val):
            return _rotation_op(iso, p, str(p_val), rng.randrange(1 << 30), samples, p_val == 2)

        slots.extend([pipeline, rotation])

    out = workdir / "report.json"
    descriptor_path = workdir / "descriptor.json"

    def keep_zeta(report):
        ballmap = report["ballmap_report"]
        return ballmap["passed"], len(ballmap["correctness"]["violations"])

    def zeta(rng, _round):
        argv = ["demo", "--scenario", "zeta", "--p", "3/2", "--seed", str(rng.randrange(1 << 30))]
        return _cli_op(lp, "demo-zeta", {"p": "3/2"}, argv, out, keep_zeta,
                       lambda rc, kept: rc == 0 and kept == (True, 0))

    def classify(rng, _round):
        descriptor = iso.random_descriptor(rng, rng.randint(4, 8))
        descriptor_path.write_text(json.dumps(descriptor.as_json()))
        argv = ["classify", "--input", str(descriptor_path), "--p", "3/2"]
        return _cli_op(lp, "classify", {"p": "3/2"}, argv, out, lambda r: r["verdict"],
                       lambda rc, verdict: rc == 0 and verdict == "Conforms")

    slots.extend([zeta, classify])
    return Workload("isometry-check", seed, slots)


# ---------------------------------------------------------------------------
# oracle-exponent
# ---------------------------------------------------------------------------


def _decimal_oracle(lp, value: Fraction, claimed_bits: int):
    """A decimal exponent oracle that refuses queries beyond its claimed
    bits, as ``lpcat --p oracle:<value>:<bits>`` builds it."""
    rigor = lp.rigor

    def fn(k: int) -> Fraction:
        if k > claimed_bits:
            raise rigor.OracleFailure(f"oracle claims {claimed_bits} bits, asked for {k}")
        return value

    return rigor.Exponent.from_real(rigor.ComputableReal(fn, f"oracle:{value}"))


# The classifier's truncation precision on the oracle track: its norms are
# taken at tol + 4 bits, and at 12 bits the sqrt(2) exponent is in the cliff.
ORACLE_CLASSIFY_TOL = 26


def _scale_factor(rng: random.Random) -> Fraction:
    """A positive rational at least 1/8 away from 1."""
    while True:
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        if abs(c - 1) >= Fraction(1, 8):
            return c


def _cold(rigor, slot: Slot) -> Slot:
    """The slot, with rigor's module-level dyadic power cache emptied each
    time its operation is built, before the timed call.

    That cache clears itself at 4096 entries, about once per run here, and
    where a run's operations fell in that cycle decided their cost: run to
    run spreads were 15-24 %.  Started empty, each operation measures the
    dyadic route itself.  A cache that is gone or renamed is left alone.
    """

    def cold_slot(rng, round_no):
        cache = read(rigor, "_DYADIC_POW_CACHE")
        if cache is not None:
            cache.clear()
        return slot(rng, round_no)

    return cold_slot


def oracle_exponent(lp, seed: int, workdir: Path, tiny: bool = False) -> Workload:
    rigor, lpspace, iso, tw = lp.rigor, lp.lpspace, lp.isometry, lp.twisted
    # 4096 claimed bits: generous, so no query fails for lack of bits.
    make_exponent = {
        "sqrt2": lambda: rigor.Exponent.from_real(rigor.sqrt_real(2)),
        "oracle-1.5": lambda: _decimal_oracle(lp, Fraction(3, 2), 4096),
    }
    p_one, p_three_halves, p_two = (rigor.Exponent.from_rational(q) for q in RATIONAL_PS)
    slots = []
    for name, make_p in make_exponent.items():
        shared_p = make_p()  # its memo tables warm across the run
        for m in (2,) if tiny else (8, 64):
            for k in (10, 20) if tiny else (10, 30, 60):

                def norm(rng, _round, name=name, make_p=make_p, shared_p=shared_p, m=m, k=k):
                    vector = lpspace.FiniteVector.from_items([(i, _rat(rng)) for i in range(m)])

                    def check(enc):
                        if not enc.width < rigor.pow2(-k):
                            return False
                        if name == "sqrt2":  # ||v||_2 <= ||v||_sqrt2 <= ||v||_1
                            low = lpspace.norm_p(vector, p_two, k)
                            high = lpspace.norm_p(vector, p_one, k)
                            return enc.hi >= low.lo and enc.lo <= high.hi
                        return enc.intersects(lpspace.norm_p(vector, p_three_halves, k))

                    if k == 10:
                        # A fresh exponent for a call that may be cut: an
                        # interrupted query must leave no shared state behind.
                        call = lambda: lpspace.norm_p(vector, make_p(), k)  # noqa: E731
                        deadline = CLIFF_DEADLINE_S
                    else:
                        call = functools.partial(lpspace.norm_p, vector, shared_p, k)
                        deadline = DEADLINE_S
                    return Op("norm_p", {"p": name, "m": m, "k": k}, call, check,
                              deadline_s=deadline)

                slots.append(norm)

        def classify(rng, _round, name=name, p=shared_p):
            # Descriptor images scaled by c != 1: the single nonzero
            # coordinate has modulus c, so each norm is c at every p and the
            # classifier takes the oracle-track power route, not the t = 1
            # shortcut that unit images take.
            descriptor = iso.random_descriptor(rng, rng.randint(4, 8))
            scales = [_scale_factor(rng) for _ in range(descriptor.size)]
            images = [descriptor.apply(lpspace.basis(n)).scale(c) for n, c in enumerate(scales)]

            def collect(verdict):
                norms = {w["image"]: tuple(w["enclosure"]) for w in verdict.witnesses
                         if w["kind"] == "norm"}
                return verdict.verdict, len(verdict.witnesses), norms

            def check(kept):
                label, n_witnesses, norms = kept
                return (label == "Violates" and n_witnesses == len(scales)
                        and sorted(norms) == list(range(len(scales)))
                        and all(Fraction(norms[n][0]) <= c <= Fraction(norms[n][1])
                                for n, c in enumerate(scales)))

            return Op("classify", {"p": name},
                      functools.partial(iso.classify, images, p, ORACLE_CLASSIFY_TOL),
                      check, collect)

        def rotation(rng, _round, name=name, p=shared_p):
            return _rotation_op(iso, p, name, rng.randrange(1 << 30), 10 if tiny else 100, False)

        slots.extend([classify, rotation])

    # A twisted query on each set at k = 10: 18-24 s at the seed commit, so
    # they hit the cap.
    for set_name in ("odds", "primes"):
        make_set = getattr(tw.CeSet, set_name)

        def twisted(rng, _round, make_set=make_set, set_name=set_name, k=10):
            coeffs = [rigor.CRat(_rat(rng) or Fraction(1)), rigor.CRat(_rat(rng))]

            def call():
                presentation = tw.TwistedGenSet(make_set(), make_exponent["oracle-1.5"]())
                return presentation.norm_query(coeffs, k)

            def check(q):
                ref = tw.TwistedGenSet(make_set(), p_three_halves).norm_enclosure(coeffs, k)
                return abs(q - ref.midpoint) <= 2 * rigor.pow2(-k)

            return Op("twisted-norm_query", {"p": "oracle-1.5", "set": set_name, "k": k},
                      call, check, deadline_s=CLIFF_DEADLINE_S)

        slots.append(twisted)
    return Workload("oracle-exponent", seed, [_cold(rigor, slot) for slot in slots])


BUILDERS = {
    "twisted-norm": twisted_norm,
    "reductions": reductions,
    "isometry-check": isometry_check,
    "oracle-exponent": oracle_exponent,
}
