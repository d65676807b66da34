"""Batch experiment driver.

Subcommands: norm, approx-e0, extract, classify, demo.  Every run reads
its parameters from flags and spec files, writes a canonical JSON report
(byte-identical across runs with the same seed), and prints a one-line
human summary with timing to stdout.  Exit codes: 0 ok, 2 invalid input,
3 oracle failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .rigor import (
    CRat,
    ComputableReal,
    ConfigError,
    Exponent,
    OracleFailure,
)
from .lpspace import FiniteVector
from .genset import (
    CheckSchedule,
    StandardGenSet,
    ZetaGenSet,
    ballmap_from_disjoint_family,
    canonical_json_bytes,
    check_ballmap,
    exact_rep,
)
from . import twisted as tw
from . import isometry as iso

SCHEMA = "lpcat.report/1"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def natural(text: str) -> int:
    """argparse type: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return value


def rational(text: str) -> str:
    """argparse type: a rational literal, kept as written."""
    try:
        Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc
    return text


def parse_p(text: str) -> Exponent:
    """Exponent spec: a rational like '3/2', a decimal like '1.5', or a
    decimal oracle 'oracle:<decimal>:<claimed bits>' which refuses queries
    beyond its claimed precision."""
    text = text.strip()
    if text.startswith("oracle:"):
        try:
            _, digits, bits = text.split(":")
            value = Fraction(digits)
            claimed = int(bits)
        except ValueError as exc:
            raise ConfigError(f"bad exponent oracle spec {text!r}") from exc
        if value < 1:
            raise ConfigError(f"exponent {value} < 1 is out of range")

        def fn(k: int) -> Fraction:
            if k > claimed:
                raise OracleFailure(
                    f"exponent oracle only claims {claimed} bits, asked for {k}"
                )
            return value

        return Exponent.from_real(ComputableReal(fn, f"oracle:{digits}"))
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"cannot parse exponent {text!r}") from exc
    return Exponent.from_rational(value)


def parse_scalar(text: str) -> CRat:
    if ":" in text:
        re_s, im_s = text.split(":", 1)
        return CRat(Fraction(re_s), Fraction(im_s))
    return CRat(Fraction(text))


def parse_coeffs(text: str) -> list[CRat]:
    try:
        return [parse_scalar(part) for part in text.split(",") if part.strip()]
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"cannot parse coefficients {text!r}") from exc


def _read_json(path: str) -> dict:
    """The JSON object stored at path; unreadable files, bad JSON and
    other top-level values are invalid input."""
    try:
        obj = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{path} does not hold a JSON object")
    return obj


def load_ce(spec: str) -> tw.CeSet:
    if spec in ("odds", "primes"):
        return tw.CeSet.odds() if spec == "odds" else tw.CeSet.primes()
    return tw.ce_set_from_spec(_read_json(spec))


def write_report(obj: dict, out: Optional[str]) -> bytes:
    data = canonical_json_bytes(obj)
    if out:
        Path(out).write_bytes(data)
    return data


# ---------------------------------------------------------------------------
# subcommands: each returns (report record, one-line summary)
# ---------------------------------------------------------------------------


def cmd_norm(args) -> tuple[dict, str]:
    p = parse_p(args.p)
    coeffs = parse_coeffs(args.coeffs)
    if args.genset == "E":
        gs = StandardGenSet(p, args.field)
        ce = None
    else:
        ce = load_ce(args.ce_set)
        gs = tw.TwistedGenSet(ce, p, args.field)
    q = gs.norm_query(coeffs, args.k)
    record = {
        "genset": args.genset,
        "p": p.as_json(),
        "field": args.field,
        "coeffs": [c.as_json() for c in coeffs],
        "k": args.k,
        "q": str(q),
        "enumeration_stages_consulted": (
            ce.stats.max_stage + 1 if ce is not None else 0
        ),
        "oracle_queries": gs.stats.as_dict(),
    }
    return record, f"norm q={q} k={args.k}"


def cmd_approx_e0(args) -> tuple[dict, str]:
    p = parse_p(args.p)
    ce = load_ce(args.ce_set)
    approx = tw.approx_e0(ce, p, args.k)
    record = {
        "p": p.as_json(),
        "ce_set": ce.spec_json(),
        **approx.as_json(),
        "access": ce.stats.as_dict(),
    }
    summary = (
        f"approx-e0 N1={approx.n1} q1={approx.q1} "
        f"certified<{approx.certified_error.hi}"
    )
    return record, summary


def _agreement(bits: list[tuple[int, bool]], ce: tw.CeSet) -> int:
    """How many extracted membership bits the set's decision procedure
    confirms."""
    return sum(1 for n, member in bits if member == ce.decide(n))


def _extraction_oracle(args, genset: tw.TwistedGenSet):
    base = tw.e0_rep(genset)
    label = "internal-e0"
    if args.oracle != "internal-e0":
        descriptor = iso.IsometryDescriptor.from_json(_read_json(args.oracle))
        sources = [n for n in range(descriptor.size) if descriptor.phi[n] == 0]
        if not sources:
            raise ConfigError("descriptor never maps onto coordinate 0")
        lam = descriptor.lambdas[sources[0]]
        base = base.scaled(lam)
        label = f"descriptor:{sources[0]}"
    if args.corrupt:
        base = tw.rep_with_offset_fault(base, Fraction(args.corrupt))
        label += f"+fault({args.corrupt})"
    return base, label


def cmd_extract(args) -> tuple[dict, str]:
    p = parse_p(args.p)
    ce = load_ce(args.ce_set)
    genset = tw.TwistedGenSet(ce, p)
    oracle, oracle_label = _extraction_oracle(args, genset)
    query_log: list = []
    bits = tw.membership_bits(
        oracle, p, ce, args.n_max, fuel=args.fuel, query_log=query_log
    )
    agree = _agreement(bits, ce)
    record = {
        "p": p.as_json(),
        "ce_set": ce.spec_json(),
        "oracle": oracle_label,
        "fault_injection": args.corrupt or None,
        "bits": [[n, member] for n, member in bits],
        "ground_truth_agreement": f"{agree}/{args.n_max}",
        "agreement_ok": agree == args.n_max,
        "query_log": query_log,
    }
    flag = "" if agree == args.n_max else "  ** DISAGREEMENT FLAGGED **"
    return record, f"extract agreement={agree}/{args.n_max}{flag}"


def cmd_classify(args) -> tuple[dict, str]:
    p = parse_p(args.p)
    obj = _read_json(args.input)
    if "phi" in obj:
        descriptor = iso.IsometryDescriptor.from_json(obj)
        images = [
            descriptor.apply(FiniteVector.from_quintuples([[n, 1, 1, 0, 1]]))
            for n in range(descriptor.size)
        ]
    elif "images" in obj:
        images = [FiniteVector.from_quintuples(rows) for rows in obj["images"]]
    else:
        raise ConfigError("classify input needs 'phi' (descriptor) or 'images'")
    verdict = iso.classify(images, p, args.tol)
    record = {
        "p": p.as_json(),
        "tol": args.tol,
        **verdict.as_json(),
    }
    return record, f"classify verdict={verdict.verdict}"


def _demo_zeta(args, p: Exponent) -> tuple[dict, list[list[str]]]:
    zeta = CRat(Fraction(3, 5), Fraction(4, 5))
    genset = ZetaGenSet(zeta, p, label="F_zeta")
    rep = exact_rep(genset, [CRat.of(1)], label="zeta*e0")
    reps = [
        exact_rep(genset, [CRat.of(0)] * n + [CRat.of(1)], label=f"f{n}")
        for n in range(8)
    ]
    bmap = ballmap_from_disjoint_family(
        reps, genset, source=StandardGenSet(p), kind="mult-by-zeta"
    )
    schedule = CheckSchedule.seeded("E", seed=args.seed)
    report = check_ballmap(bmap, lambda v: v.scale(zeta), schedule)
    rows = [["check", "value"]]
    rows.append(["correctness_checked", str(report.correctness_checked)])
    rows.append(["correctness_violations", str(len(report.correctness_violations))])
    rows.append(["convergence_achieved", str(report.convergence_achieved)])
    record = {
        "scenario": "zeta",
        "zeta": zeta.as_json(),
        "rep_of_zeta_e0_over_F": [c.as_json() for c in rep.coefficients(10)],
        "note": "only the positive direction is verifiable at desk scale",
        "ballmap_report": report.as_json(),
    }
    return record, rows


def _demo_rotation(args, p: Exponent) -> tuple[dict, list[list[str]]]:
    report = iso.rotation_demo(p, samples=args.samples, seed=args.seed)
    rows = [["quantity", "value"]]
    rows.append(["consistent", str(report["l2_preservation"]["consistent"])])
    rows.append(["verdict", report["classifier"]["verdict"]])
    if "p_witness" in report:
        rows.append(["witness_norm_lo", report["p_witness"]["image_norm"][0]])
        rows.append(["witness_norm_hi", report["p_witness"]["image_norm"][1]])
    return {"scenario": "rotation", **report}, rows


def _demo_pour_el_richards(args, p: Exponent) -> tuple[dict, list[list[str]]]:
    ce = load_ce(args.ce_set)
    genset = tw.TwistedGenSet(ce, p)
    rows = [["k", "N1", "q1", "certified_hi", "exact_error", "decide_calls"]]
    sweep = []
    for k in range(1, args.k + 1):
        fresh = load_ce(args.ce_set)
        approx = tw.approx_e0(fresh, p, k)
        sweep.append(
            {
                "k": k,
                "N1": approx.n1,
                "q1": str(approx.q1),
                "certified_error_bound": approx.certified_error.as_json(),
                "exact_error": (
                    None if approx.exact_error is None else str(approx.exact_error)
                ),
                "decide_calls": fresh.stats.decide_calls,
            }
        )
        rows.append(
            [
                str(k),
                str(approx.n1),
                str(approx.q1),
                str(approx.certified_error.hi),
                "" if approx.exact_error is None else str(approx.exact_error),
                str(fresh.stats.decide_calls),
            ]
        )
    oracle = tw.e0_rep(genset)
    bits = tw.membership_bits(oracle, p, ce, args.n_max, fuel=args.fuel)
    agree = _agreement(bits, ce)
    record = {
        "scenario": "pour-el-richards",
        "ce_set": ce.spec_json(),
        "p": p.as_json(),
        "sweep": sweep,
        "bits": [[n, member] for n, member in bits],
        "ground_truth_agreement": f"{agree}/{args.n_max}",
    }
    return record, rows


def cmd_demo(args) -> tuple[dict, str]:
    p = parse_p(args.p)
    builders = {
        "zeta": _demo_zeta,
        "rotation": _demo_rotation,
        "pour-el-richards": _demo_pour_el_richards,
    }
    record, rows = builders[args.scenario](args, p)
    if args.csv:
        Path(args.csv).write_text("\n".join(",".join(r) for r in rows) + "\n")
    return {"seed": args.seed, **record}, f"demo {args.scenario} done"


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpcat",
        description="certified experiments on effective presentations of lp",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = {
        "--p": dict(default="2", help="exponent: rational, decimal, or oracle:<dec>:<bits>"),
        "--out": dict(default=None, help="write canonical JSON report here"),
        "--field": dict(choices=["real", "complex"], default="complex"),
        "--ce-set": dict(default="odds", help="builtin name or spec file path"),
        "--seed": dict(type=int, default=7),
        "--fuel": dict(type=natural, default=100000),
    }

    def command(name: str, fn, help: str, *flags: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help)
        for flag in ("--p", "--out", *flags):
            sp.add_argument(flag, **shared[flag])
        sp.set_defaults(fn=fn)
        return sp

    sp = command("norm", cmd_norm, "certified norm of a finite combination", "--field", "--ce-set")
    sp.add_argument("--genset", choices=["E", "F"], required=True)
    sp.add_argument("--coeffs", required=True, help="comma list, each re or re:im")
    sp.add_argument("--k", type=natural, default=20)

    sp = command("approx-e0", cmd_approx_e0, "decision-mode approximation of e0 over F", "--ce-set")
    sp.add_argument("--k", type=natural, default=4)

    sp = command(
        "extract", cmd_extract, "recover set membership through an isometry oracle",
        "--ce-set", "--fuel",
    )
    sp.add_argument("--oracle", default="internal-e0", help="'internal-e0' or descriptor JSON path")
    sp.add_argument("--n-max", type=natural, default=20)
    sp.add_argument("--corrupt", type=rational, default=None,
                    help="inject a rational offset fault into the oracle")

    sp = command("classify", cmd_classify, "isometry trichotomy on basis images")
    sp.add_argument("--input", required=True, help="descriptor or images JSON file")
    sp.add_argument("--tol", type=natural, default=8)

    sp = command(
        "demo", cmd_demo, "narrative scenario with certified numbers",
        "--ce-set", "--seed", "--fuel",
    )
    sp.add_argument("--scenario", required=True, choices=["zeta", "rotation", "pour-el-richards"])
    sp.add_argument("--samples", type=natural, default=100)
    sp.add_argument("--k", type=natural, default=8)
    sp.add_argument("--n-max", type=natural, default=12)
    sp.add_argument("--csv", default=None, help="write the sweep table here")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        record, summary = args.fn(args)
    except ConfigError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except OracleFailure as exc:
        print(f"oracle failure: {exc}", file=sys.stderr)
        return 3
    data = write_report({"schema": SCHEMA, "command": args.command, **record}, args.out)
    print(f"{summary} ({time.perf_counter() - started:.3f}s)")
    if not args.out:
        print(data.decode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
