"""End-to-end runs of the command driver: records, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import shlex
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lpcat import pow2, rigor
from lpcat.cli import main

F = Fraction
DATA = Path(__file__).parent / "data"


def run(tmp_path, *argv, out_name="out.json"):
    out = tmp_path / out_name
    code = main([*argv, "--out", str(out)])
    return code, (json.loads(out.read_text()) if out.exists() else None), out


class TestNorm:
    def test_f0_unit(self, tmp_path):
        code, rec, _ = run(
            tmp_path, "norm", "--genset", "F", "--p", "2", "--ce-set", "odds",
            "--coeffs", "1", "--k", "20",
        )
        assert code == 0
        assert abs(F(rec["q"]) - 1) < pow2(-20)

    def test_standard_three_four_five(self, tmp_path):
        code, rec, _ = run(
            tmp_path, "norm", "--genset", "E", "--p", "2", "--coeffs", "3,4", "--k", "12",
        )
        assert code == 0 and F(rec["q"]) == 5

    def test_twisted_exact_two(self, tmp_path):
        code, rec, _ = run(
            tmp_path, "norm", "--genset", "F", "--p", "1", "--field", "real",
            "--ce-set", str(DATA / "ce_odds.json"), "--coeffs", "1,1", "--k", "16",
        )
        assert code == 0
        assert F(rec["q"]) == 2
        assert rec["enumeration_stages_consulted"] == 1

    def test_bad_ce_set_exits_2(self, tmp_path):
        code = main([
            "norm", "--genset", "F", "--p", "1",
            "--ce-set", str(DATA / "ce_bad_zero.json"), "--coeffs", "1", "--k", "4",
        ])
        assert code == 2

    def test_bad_exponent_exits_2(self):
        assert main(["norm", "--genset", "E", "--p", "1/2", "--coeffs", "1"]) == 2


@pytest.mark.parametrize("coeffs, k", [("1,1", 10), ("1:1/3", 4)], ids=["real", "complex"])
def test_oracle_exponent_twisted_norm_within_budget(tmp_path, monkeypatch, coeffs, k):
    """Twisted norms with an oracle-track exponent once handed iroot root
    operands of millions of bits, and took 15-75 s.  Any iroot operand past
    the exact-route budget fails the test at once; the answer must agree
    with the rational-track one."""
    iroot = rigor.iroot

    def guarded(n, b):
        bits = n.bit_length()
        assert bits <= rigor._EXACT_POW_BUDGET, f"iroot of {bits} bits"
        return iroot(n, b)

    monkeypatch.setattr(rigor, "iroot", guarded)
    argv = ["norm", "--genset", "F", "--coeffs", coeffs, "--k", str(k)]
    code, rec, _ = run(tmp_path, *argv, "--p", "oracle:1.5:40")
    assert code == 0
    _, ref, _ = run(tmp_path, *argv, "--p", "3/2", out_name="ref.json")
    assert abs(F(rec["q"]) - F(ref["q"])) <= 2 * pow2(-k)


class TestApproxE0:
    def test_worked_instance(self, tmp_path):
        code, rec, _ = run(
            tmp_path, "approx-e0", "--p", "1", "--ce-set", "odds", "--k", "2",
        )
        assert code == 0
        assert rec["N1"] == 4 and rec["q1"] == "3"
        assert rec["exact_error"] == "1/32"

    def test_error_sweep_monotone(self, tmp_path):
        """Certified bound < 2^-k for every k; the exact error never grows
        with k (it is constant between cutoff jumps because the least
        valid cutoff is taken)."""
        errors = []
        for k in range(1, 9):
            _, rec, _ = run(
                tmp_path, "approx-e0", "--p", "1", "--ce-set", "odds",
                "--k", str(k), out_name=f"a{k}.json",
            )
            assert F(rec["certified_error_bound"][1]) < pow2(-k)
            errors.append(F(rec["exact_error"]))
            assert errors[-1] <= pow2(-k)
        assert all(b <= a for a, b in zip(errors, errors[1:]))

    def test_p2_certified(self, tmp_path):
        _, rec, _ = run(
            tmp_path, "approx-e0", "--p", "2", "--ce-set", "odds", "--k", "4",
        )
        assert F(rec["certified_error_bound"][1]) < pow2(-4)

    @pytest.mark.parametrize("spec", [
        {"label": "odds3", "kind": "odds", "delays": [[3, 5]]},
        {"label": "p", "kind": "primes", "delays": [[5, 6], [2, 3]]},
        "primes",
        str(DATA / "ce_throttled.json"),
    ])
    def test_printed_ce_set_reloads(self, tmp_path, spec):
        """The ce_set a report prints is a spec file that rebuilds the
        set: a second run on it succeeds and prints the same spec."""
        if isinstance(spec, dict):
            (tmp_path / "in.json").write_text(json.dumps(spec))
            spec = str(tmp_path / "in.json")
        argv = ("approx-e0", "--p", "1", "--k", "2")
        code, first, _ = run(tmp_path, *argv, "--ce-set", spec, out_name="a.json")
        assert code == 0
        (tmp_path / "again.json").write_text(json.dumps(first["ce_set"]))
        code, second, _ = run(
            tmp_path, *argv, "--ce-set", str(tmp_path / "again.json"), out_name="b.json"
        )
        assert code == 0
        assert second["ce_set"] == first["ce_set"]
        assert second["N1"] == first["N1"] and second["q1"] == first["q1"]


class TestExtract:
    def test_round_trip(self, tmp_path):
        code, rec, _ = run(
            tmp_path, "extract", "--p", "1", "--ce-set", "odds", "--n-max", "12",
        )
        assert code == 0
        assert rec["agreement_ok"] is True
        assert rec["bits"][0] == [1, True] and rec["bits"][1] == [2, False]
        assert rec["query_log"]

    def test_descriptor_oracle(self, tmp_path):
        code, rec, _ = run(
            tmp_path, "extract", "--p", "1", "--ce-set", "odds", "--n-max", "8",
            "--oracle", str(DATA / "descriptor_swap.json"),
        )
        assert code == 0 and rec["agreement_ok"] is True

    def test_corrupted_oracle_flagged(self, tmp_path):
        code, rec, _ = run(
            tmp_path, "extract", "--p", "1", "--ce-set", "odds", "--n-max", "20",
            "--corrupt=-1/8",
        )
        assert code == 0
        assert rec["agreement_ok"] is False
        assert rec["fault_injection"] == "-1/8"

    def test_throttled_set(self, tmp_path):
        code, rec, _ = run(
            tmp_path, "extract", "--p", "1",
            "--ce-set", str(DATA / "ce_throttled.json"), "--n-max", "12",
        )
        assert code == 0 and rec["agreement_ok"] is True

    def test_fault_offset_printed_as_written(self, tmp_path):
        """The offset is read as the rational -1/8, and the report names
        it as the flag spelled it."""
        code, rec, _ = run(
            tmp_path, "extract", "--p", "1", "--ce-set", "odds", "--n-max", "20",
            "--corrupt=-0.125",
        )
        assert code == 0 and rec["agreement_ok"] is False
        assert rec["fault_injection"] == "-0.125"
        assert rec["oracle"] == "internal-e0+fault(-0.125)"

    def test_no_bits(self, tmp_path):
        code, rec, _ = run(tmp_path, "extract", "--n-max", "0")
        assert code == 0
        assert rec["bits"] == [] and rec["ground_truth_agreement"] == "0/0"


class TestClassify:
    def test_identity_descriptor(self, tmp_path):
        code, rec, _ = run(
            tmp_path, "classify", "--p", "2",
            "--input", str(DATA / "descriptor_identity.json"), "--tol", "8",
        )
        assert code == 0 and rec["verdict"] == "Conforms"

    def test_swap_descriptor(self, tmp_path):
        code, rec, _ = run(
            tmp_path, "classify", "--p", "3/2",
            "--input", str(DATA / "descriptor_swap.json"), "--tol", "8",
        )
        assert code == 0 and rec["verdict"] == "Conforms"

    def test_pythagorean_images(self, tmp_path):
        code, rec, _ = run(
            tmp_path, "classify", "--p", "1",
            "--input", str(DATA / "images_pythagorean.json"), "--tol", "8",
        )
        assert code == 0 and rec["verdict"] == "Conforms"

    def test_overlapping_images_violate(self, tmp_path):
        bad = tmp_path / "bad_images.json"
        bad.write_text(json.dumps({"images": [
            [[0, 3, 5, 4, 5]], [[0, 1, 1, 0, 1]],
        ]}))
        code, rec, _ = run(
            tmp_path, "classify", "--p", "2", "--input", str(bad), "--tol", "6",
        )
        assert code == 0 and rec["verdict"] == "Violates"


class TestDemo:
    def test_rotation(self, tmp_path):
        code, rec, _ = run(
            tmp_path, "demo", "--scenario", "rotation", "--p", "1",
            "--samples", "15", "--seed", "3",
        )
        assert code == 0
        assert rec["classifier"]["verdict"] == "Violates"
        assert rec["p_witness"]["unit_excluded"] is True

    def test_zeta(self, tmp_path):
        code, rec, _ = run(tmp_path, "demo", "--scenario", "zeta", "--p", "2")
        assert code == 0
        assert rec["ballmap_report"]["passed"] is True
        assert rec["rep_of_zeta_e0_over_F"] == [["1", "0"]]

    def test_pour_el_richards_with_csv(self, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        code = main([
            "demo", "--scenario", "pour-el-richards", "--p", "1",
            "--ce-set", "odds", "--k", "4", "--n-max", "8",
            "--out", str(tmp_path / "pr.json"), "--csv", str(csv_path),
        ])
        assert code == 0
        rec = json.loads((tmp_path / "pr.json").read_text())
        assert rec["ground_truth_agreement"] == "8/8"
        rows = csv_path.read_text().strip().splitlines()
        assert rows[0].startswith("k,N1,q1")
        assert len(rows) == 5

    def test_oracle_exponent(self, tmp_path):
        code, rec, _ = run(
            tmp_path, "demo", "--scenario", "rotation", "--p", "oracle:1.5:40",
            "--samples", "5",
        )
        assert code == 0 and rec["p_witness"]["unit_excluded"] is True


class TestDeterminism:
    def test_reports_byte_identical(self, tmp_path):
        args = ["demo", "--scenario", "rotation", "--p", "1", "--samples", "10",
                "--seed", "9"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main([*args, "--out", str(a)]) == 0
        assert main([*args, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_extract_byte_identical(self, tmp_path):
        args = ["extract", "--p", "1", "--ce-set", "odds", "--n-max", "10"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main([*args, "--out", str(a)]) == 0
        assert main([*args, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


# Pinned SHA-256 digests of canonical reports and of the pour-el-richards
# CSV.  The determinism tests compare two runs of the same code; these pin
# the bytes across refactors.
GOLDEN = {
    "norm-standard": (
        ["norm", "--genset", "E", "--p", "2", "--coeffs", "3,4", "--k", "12"],
        "5f1dba537a60926e2b79ffb47d705265861f742a6d572ab14e30ff1574df0ef0", None,
    ),
    "norm-twisted": (
        ["norm", "--genset", "F", "--p", "3/2", "--ce-set", "odds", "--coeffs", "1,1",
         "--k", "20"],
        "a52126fc5f5f051527d495be78a4408dcb224c1f2b05660721bc84595e3f11da", None,
    ),
    "approx-e0": (
        ["approx-e0", "--p", "1", "--ce-set", "odds", "--k", "2"],
        "04ce4e5404f064de27af4c65460016c1295a69a0313d96c58437f8af1417455b", None,
    ),
    "extract": (
        ["extract", "--p", "1", "--ce-set", "odds", "--n-max", "12"],
        "5f2465255064673d9882969d597272da34f720e0d206a3762904078e4e867ed2", None,
    ),
    "classify": (
        ["classify", "--p", "3/2", "--input", str(DATA / "descriptor_swap.json"), "--tol", "8"],
        "b5cc7572ab89cd4230e6a511eaa95c06bd9cae72d2cc1858954127c1bae2a5d3", None,
    ),
    "demo-zeta": (
        ["demo", "--scenario", "zeta", "--p", "2"],
        "af2680e0b5768a011be8801e1359469b2057a76affa3c8586e21541957c53649", None,
    ),
    "demo-rotation": (
        ["demo", "--scenario", "rotation", "--p", "1", "--samples", "15", "--seed", "3"],
        "ef38ec303e2407cc5b1c08392c5c3a6f8a33b63087df59fcbac2ef03f335fa08", None,
    ),
    "demo-pour-el-richards": (
        ["demo", "--scenario", "pour-el-richards", "--p", "1", "--ce-set", "odds",
         "--k", "4", "--n-max", "8"],
        "4da5d83cab77ef32acbd2f124c1da3864eaa62a7b274cad7b801f147fdc64c33",
        "3b03ff3aa959be6558c1ed1a6dc74f0ed5f8442c8660bcff4b5c2b4fec109164",
    ),
    # approx_e0's coefficient loop at 1/p != 1, and the throttled set, whose
    # unsorted enumeration leaves tail masses uncapped.
    "approx-e0-primes": (
        ["approx-e0", "--p", "3/2", "--ce-set", "primes", "--k", "20"],
        "20e95bc00a960ede17ddef8502894cfed9983d4cb8cba3cd911a4b4ea03b2567", None,
    ),
    "approx-e0-throttled": (
        ["approx-e0", "--p", "2", "--ce-set", str(DATA / "ce_throttled.json"), "--k", "12"],
        "b145e877dbb2505ca35f0bb3c16f15a3a595687a614913fae12ca6a5efa9d069", None,
    ),
    "extract-primes": (
        ["extract", "--p", "2", "--ce-set", "primes", "--n-max", "20"],
        "35146e9e681371d58db4f1f3049a82cfb9c7204d9b11ef5672c6696052545ebe", None,
    ),
    "demo-pour-el-richards-throttled": (
        ["demo", "--scenario", "pour-el-richards", "--p", "3/2", "--ce-set",
         str(DATA / "ce_throttled.json")],
        "77b03146cf2a51e98e4f1c55b69212e9d6355776728538bcfd73f750ab23be66",
        "e7c922db8db13f24ac0c249d2fe8554382396f6396abb1c4e54c853d0aeb21e5",
    ),
    # Oracle-track exponents: the bracket views p/2 and 1/p of every layer.
    "oracle-norm-twisted": (
        ["norm", "--genset", "F", "--p", "oracle:1.5:40", "--ce-set", "odds",
         "--coeffs", "1,1", "--k", "10"],
        "d29f47d120d1ad31824c5744198a0e9d9c37b07f8834299d081f86cc0acf6dd9", None,
    ),
    "oracle-norm-standard": (
        ["norm", "--genset", "E", "--p", "oracle:1.5:400", "--coeffs", "1,1/3,2",
         "--k", "30"],
        "80a8e0235fe03c3272555e8acb7e178a7276079102b7307093677f3763c97d88", None,
    ),
    "oracle-norm-twisted-complex": (
        ["norm", "--genset", "F", "--p", "oracle:1.5:400", "--ce-set", "primes",
         "--coeffs", "1,1/3:1/5,2", "--k", "20"],
        "118095764ad9ee236c345662804b04d48c5e0525cb56f9f0683bc5fe14f3a2cc", None,
    ),
    "oracle-approx-e0": (
        ["approx-e0", "--p", "oracle:1.5:400", "--ce-set", "odds", "--k", "3"],
        "913d014bd3f96b39e991c4cc31149c722262032ee29915ec6ec4780a0c6f538d", None,
    ),
    "oracle-extract": (
        ["extract", "--p", "oracle:1.5:400", "--ce-set", "odds", "--n-max", "4"],
        "3c00e0d1a329b6575fe0711663a5d363c812e38994676034db1660d4e21e852d", None,
    ),
    "oracle-demo-rotation": (
        ["demo", "--scenario", "rotation", "--p", "oracle:1.5:400", "--samples", "5"],
        "4c8f9c7d7443d9d11cf94983126b426a482282124e8c786eda5bac0bc5798488", None,
    ),
    # Wide oracle exponents, whose corner powers take the dyadic route, and
    # the oracle track at k = 4000.
    "oracle-approx-e0-p8": (
        ["approx-e0", "--ce-set", "odds", "--p", "oracle:8:4096", "--k", "10"],
        "766c4f1c1b62a2814ff10aabf748356a1ed54e4b51ec4b226532d51a1f823319", None,
    ),
    "oracle-approx-e0-p64": (
        ["approx-e0", "--ce-set", "odds", "--p", "oracle:64:100000", "--k", "4"],
        "bbe7e8571f69ca8f447e92fcfef9ef65e7386645adb3db2d952978d96327e5d1", None,
    ),
    "oracle-extract-p16": (
        ["extract", "--ce-set", "odds", "--p", "oracle:16:100000", "--n-max", "4"],
        "52a0a32016d836a45a482ba36f5d209d90fbc6a2978044284c745a293d1d3cd2", None,
    ),
    "oracle-norm-sqrt2-large-k": (
        ["norm", "--genset", "F", "--ce-set", "primes", "--p",
         "oracle:1.41421356237309504880:100000", "--coeffs", "1,1", "--k", "4000"],
        "1536b405e5e0951559f277d9fc078d50f501e4a8d7494552735114df4031bf68", None,
    ),
    "oracle-demo-rotation-sqrt2": (
        ["demo", "--scenario", "rotation", "--p", "oracle:1.41421356237309504880:400"],
        "c6a4d6eadc5bddec3249ccfcf876898b068a836ff3964f1bf2b6b8f7279f94fc", None,
    ),
    # A large guard jump: the certificate's power sum jumps from K = 37 to
    # 761, far past the norm loop's step of 11, and later rounds count
    # from there.
    "approx-e0-p32": (
        ["approx-e0", "--ce-set", "odds", "--p", "32", "--k", "20"],
        "2ee7d5f8652dacd468e6787a54fbb9c3ee7cb97a44701c1ff2e727b073ab22ef", None,
    ),
}


@pytest.mark.parametrize("argv, report_sha, csv_sha", GOLDEN.values(), ids=list(GOLDEN))
def test_report_bytes_match_golden(tmp_path, argv, report_sha, csv_sha):
    csv = tmp_path / "sweep.csv"
    code, _, out = run(tmp_path, *argv, *(["--csv", str(csv)] if csv_sha else []))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == report_sha
    if csv_sha:
        assert hashlib.sha256(csv.read_bytes()).hexdigest() == csv_sha


def readme_commands() -> list[list[str]]:
    """The arguments of each ``lpcat`` line in the README's Command line
    block, split as a shell splits them, comments dropped."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    commands = [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("lpcat ")
    ]
    if not commands:
        raise ValueError("the README's Command line block holds no lpcat line")
    return commands


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[0])
def test_readme_command_line_runs(tmp_path, monkeypatch, argv):
    """Every command the README shows exits 0, with its descriptor.json
    read from tests/data and the files it writes put in tmp_path."""
    monkeypatch.chdir(tmp_path)
    descriptor = str(DATA / "descriptor_identity.json")
    argv = [descriptor if arg == "descriptor.json" else arg for arg in argv]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0


def test_parser_is_built_once(tmp_path, monkeypatch):
    """main builds its parser on first use and keeps it: parsing leaves
    it unchanged, so later calls, good or bad, read the same one."""
    from lpcat import cli

    built = []
    build_parser = cli.build_parser

    def counted():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._PARSER.clear()
    first = run(tmp_path, "norm", "--genset", "E", "--coeffs", "3,4", "--k", "10", out_name="a.json")
    with pytest.raises(SystemExit), contextlib.redirect_stderr(io.StringIO()):
        main(["norm", "--genset", "X", "--coeffs", "1"])
    again = run(tmp_path, "norm", "--genset", "E", "--coeffs", "3,4", "--k", "10", out_name="b.json")
    assert built == [1]
    assert first[0] == again[0] == 0
    assert first[2].read_bytes() == again[2].read_bytes()


MALFORMED = {
    "descriptor-zero-denominator": (
        ["classify", "--input", "{f}"], {"phi": [[0, 0]], "lambdas": [[1, 0, 0, 1]]},
    ),
    "descriptor-without-lambdas": (["classify", "--input", "{f}"], {"phi": [[0, 0]]}),
    "descriptor-not-unimodular": (
        ["classify", "--input", "{f}"], {"phi": [[0, 0]], "lambdas": [[2, 1, 0, 1]]},
    ),
    "input-not-json": (["classify", "--input", "{f}"], "phi: [[0, 0]]"),
    "input-missing": (["classify", "--input", "{f}"], None),
    "set-element-not-integer": (
        ["norm", "--genset", "F", "--coeffs", "1", "--ce-set", "{f}"],
        {"kind": "explicit", "elements": ["x"]},
    ),
    "oracle-not-json": (["extract", "--n-max", "2", "--oracle", "{f}"], "{"),
    "negative-k": (["norm", "--genset", "E", "--coeffs", "1", "--k", "-3"], None),
    "corrupt-not-rational": (["extract", "--n-max", "2", "--corrupt", "abc"], None),
    "oracle-exponent-below-one": (
        ["norm", "--genset", "E", "--coeffs", "1", "--p", "oracle:0.5:10"], None,
    ),
    "oracle-exponent-negative-bits": (
        ["norm", "--genset", "E", "--coeffs", "1", "--p", "oracle:1.5:-1"], None,
    ),
    # Huge exponents: unbounded, these overflowed a shift (1e400), wrote a
    # q past the 4300-digit int-to-str limit (10000) or ran past a minute
    # (100000).  parse_p bounds p to [1, 64] with terms of 128 bits.
    "exponent-1e400": (
        ["norm", "--genset", "E", "--coeffs", "1/2,1/3", "--k", "10", "--p", "1e400"], None,
    ),
    "exponent-10000": (
        ["norm", "--genset", "E", "--coeffs", "1/2,1/3", "--k", "10", "--p", "10000"], None,
    ),
    "exponent-100000": (
        ["norm", "--genset", "E", "--coeffs", "1/2,1/3", "--k", "10", "--p", "100000"], None,
    ),
    "oracle-exponent-1e400": (
        ["norm", "--genset", "E", "--coeffs", "1/2,1/3", "--k", "10", "--p", "oracle:1e400:40"],
        None,
    ),
    "flag-classify-does-not-read": (
        ["classify", "--input", str(DATA / "descriptor_identity.json"), "--field", "real"],
        None,
    ),
    "images-row-not-quintuple": (["classify", "--input", "{f}"], {"images": [[[0, 1, 1, 0]]]}),
    "images-zero-denominator": (
        ["classify", "--input", "{f}"], {"images": [[[0, 1, 0, 0, 1]]]},
    ),
    "images-not-a-list": (["classify", "--input", "{f}"], {"images": 5}),
    "out-unwritable": (
        ["norm", "--genset", "E", "--coeffs", "1", "--out", "{f}/d/x.json"], None,
    ),
    "csv-unwritable": (
        ["demo", "--scenario", "rotation", "--samples", "2", "--csv", "{f}/d/x.csv"], None,
    ),
    # JSON numbers past the float range parse as infinity; int() of one
    # raises OverflowError.
    "descriptor-number-overflows": (
        ["classify", "--input", "{f}"], '{"phi": [[0, 1e400]], "lambdas": [[1, 1, 0, 1]]}',
    ),
    "images-number-overflows": (
        ["classify", "--input", "{f}"], '{"images": [[[0, 1e400, 1, 0, 1]]]}',
    ),
    "oracle-number-overflows": (
        ["extract", "--n-max", "2", "--oracle", "{f}"],
        '{"phi": [[0, 1e400]], "lambdas": [[1, 1, 0, 1]]}',
    ),
    "set-element-overflows": (
        ["approx-e0", "--ce-set", "{f}"], '{"kind": "explicit", "elements": [2, 1e400]}',
    ),
    "set-delay-overflows": (
        ["approx-e0", "--ce-set", "{f}"],
        '{"kind": "throttled", "elements": [1, 5], "delays": [[5, 1e400]]}',
    ),
    # Integer fields take JSON integers only: int() would read 1.9 as 1
    # and true as 1, and the command would go on with another input.
    "descriptor-lambda-float": (
        ["classify", "--p", "3/2", "--input", "{f}"],
        {"phi": [[0, 0]], "lambdas": [[1.9, 1, 0, 1]]},
    ),
    "images-entry-float": (["classify", "--input", "{f}"], {"images": [[[0, 1.5, 1, 0, 1]]]}),
    "set-element-float": (
        ["approx-e0", "--ce-set", "{f}"], {"kind": "explicit", "elements": [3.9, 5]},
    ),
    "set-delay-bool": (
        ["approx-e0", "--ce-set", "{f}"],
        {"kind": "throttled", "elements": [1, 5], "delays": [[5, True]]},
    ),
    # Elements past 4096: these wrote a rational past the 4300-digit
    # int-to-str limit (30000), ran past a minute (10^7) or ran out of
    # memory building the set (10^14).
    "set-element-30000": (
        ["approx-e0", "--k", "3", "--ce-set", "{f}"], {"kind": "explicit", "elements": [1, 30000]},
    ),
    "set-element-10-million": (
        ["approx-e0", "--k", "3", "--ce-set", "{f}"],
        {"kind": "explicit", "elements": [1, 10000000]},
    ),
    "set-element-10-to-14": (
        ["approx-e0", "--k", "3", "--ce-set", "{f}"],
        {"kind": "explicit", "elements": [99999999999999]},
    ),
    # A spec holds label, kind, elements and delays only, and its label is
    # a string: these loaded and printed the label back as 7.
    "set-label-not-string": (
        ["approx-e0", "--k", "3", "--ce-set", "{f}"], {"label": 7, "kind": "odds"},
    ),
    "set-unknown-key": (
        ["approx-e0", "--k", "3", "--ce-set", "{f}"], {"kind": "odds", "bogus": 1},
    ),
    # Descriptor and images files hold their own keys only: these loaded,
    # and a file with both phi and images was read as a descriptor.
    "descriptor-unknown-key": (
        ["classify", "--input", "{f}"],
        {"phi": [[0, 0]], "lambdas": [[1, 1, 0, 1]], "extra": 1},
    ),
    "oracle-unknown-key": (
        ["extract", "--n-max", "2", "--oracle", "{f}"],
        {"phi": [[0, 0]], "lambdas": [[1, 1, 0, 1]], "extra": 1},
    ),
    "images-unknown-key": (
        ["classify", "--input", "{f}"], {"images": [[[0, 1, 1, 0, 1]]], "extra": 1},
    ),
    "input-phi-and-images": (
        ["classify", "--input", "{f}"],
        {"phi": [[0, 0]], "lambdas": [[1, 1, 0, 1]], "images": [[[0, 1, 1, 0, 1]]]},
    ),
    "descriptor-phi-gap": (
        ["classify", "--input", "{f}"], {"phi": [[1, 0]], "lambdas": [[1, 1, 0, 1]]},
    ),
    "exponent-129-bit-numerator": (
        ["norm", "--genset", "E", "--coeffs", "1", "--p",
         "340282366920938463463374607431768211457/340282366920938463463374607431768211456"],
        None,
    ),
    "coeffs-not-rational": (["norm", "--genset", "E", "--coeffs", "1,x"], None),
    "input-not-object": (["classify", "--input", "{f}"], [1, 2]),
    "oracle-never-maps-onto-0": (
        ["extract", "--n-max", "2", "--oracle", "{f}"],
        {"phi": [[0, 1]], "lambdas": [[1, 1, 0, 1]]},
    ),
    "input-neither-phi-nor-images": (
        ["classify", "--input", "{f}"], {"lambdas": [[1, 1, 0, 1]]},
    ),
    # Coefficients and fault offsets take the bound --p has: these wrote a
    # q past the 4300-digit int-to-str limit (1e5000), or ran past 60 s
    # (1e10000000) and 20 s (a 1e5000 offset).
    "coeffs-1e5000": (["norm", "--genset", "E", "--p", "1", "--coeffs", "1e5000"], None),
    "coeffs-1e10000000": (
        ["norm", "--genset", "E", "--p", "1", "--coeffs", "1e10000000"], None,
    ),
    "corrupt-1e5000": (["extract", "--n-max", "2", "--p", "3/2", "--corrupt", "1e5000"], None),
    # A descriptor naming another schema loaded as a descriptor.
    "descriptor-wrong-schema": (
        ["classify", "--input", "{f}"],
        {"schema": "lpcat.report/1", "phi": [[0, 0]], "lambdas": [[1, 1, 0, 1]]},
    ),
    # File integers take the 128-bit bound of the flags: a 4000-digit
    # lambda exited 1 formatting |lambda|^2 past the 4300-digit int-to-str
    # limit, and a 2000-digit image entry ran past 25 s.
    "descriptor-lambda-4000-digits": (
        ["classify", "--input", "{f}"], {"phi": [[0, 0]], "lambdas": [[10**3999, 1, 0, 1]]},
    ),
    "oracle-lambda-4000-digits": (
        ["extract", "--n-max", "2", "--oracle", "{f}"],
        {"phi": [[0, 0]], "lambdas": [[10**3999, 1, 0, 1]]},
    ),
    "images-entry-2000-digits": (
        ["classify", "--p", "3/2", "--input", "{f}"], {"images": [[[0, 1, 10**1999, 0, 1]]]},
    ),
    # A report whose q passes the 4300-digit int-to-str limit exited 1.
    "report-past-digit-limit-k": (
        ["norm", "--genset", "E", "--p", "2", "--coeffs", "1,1", "--k", "15000"], None,
    ),
}


@pytest.mark.parametrize("argv, content", MALFORMED.values(), ids=list(MALFORMED))
def test_malformed_input_exits_2(tmp_path, argv, content):
    """Bad files and flag values are invalid input: exit 2 with a message,
    never a traceback.  A ``{f}`` argument names a file holding ``content``
    (JSON-encoded unless it is a string), or no file when it is None."""
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content if isinstance(content, str) else json.dumps(content))
    stderr = io.StringIO()
    try:
        with contextlib.redirect_stderr(stderr):
            code = main([arg.replace("{f}", str(path)) for arg in argv])
    except SystemExit as exc:  # argparse rejects the flag value
        code = exc.code
    assert code == 2
    assert "Traceback" not in stderr.getvalue()


@pytest.mark.parametrize("p", ["52", "64"])
def test_dyadic_ends_print_a_short_q(tmp_path, p):
    """The 1/p root of the exact power sum of 128-bit coefficients takes
    the dyadic route.  Its ends lie on the 2^-(tb+2) grid, so the 20-bit
    norm prints a q of a few dozen digits.  At p = 64 the route's ends once
    carried about 16,000 bits, and the report exited 2, past the
    int-to-str limit; at p = 52 it printed a 4,151-digit numerator."""
    n, m = 2**128 - 1, 2**127 + 1
    code, rec, _ = run(tmp_path, "norm", "--genset", "E", "--p", p, "--k", "20",
                       f"--coeffs={n},{n}/{m}")
    assert code == 0
    q = Fraction(rec["q"])
    assert len(rec["q"]) < 80 and q.denominator <= 2**24
    # The norm lies in (n, n (1 + 2^-p)): the second term is n / m < 2^-p n.
    assert n - pow2(-20) < q < n * (1 + pow2(-int(p))) + pow2(-20)


def test_samples_above_bound_refused(monkeypatch):
    """--samples takes at most cli._MAX_SAMPLES: one more is invalid input
    naming the flag, refused before any demo runs, and the bound itself
    parses."""
    from lpcat import cli

    def never(*_args, **_kwargs):
        raise AssertionError("a refused --samples ran the demo")

    monkeypatch.setattr(cli.iso, "rotation_demo", never)
    for count in (cli._MAX_SAMPLES + 1, 10**9):
        stderr = io.StringIO()
        with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(stderr):
            main(["demo", "--scenario", "rotation", "--samples", str(count)])
        assert exc.value.code == 2
        assert "--samples" in stderr.getvalue()
    argv = ["demo", "--scenario", "rotation", "--samples", str(cli._MAX_SAMPLES)]
    assert cli.build_parser().parse_args(argv).samples == cli._MAX_SAMPLES


def exponent_values():
    """Exponent strings: decimals and fractions in and out of [1, 64],
    integers of any size and sign, 1eN forms of any size, and junk."""
    ints = st.integers(-(10**6), 10**6) | st.integers(-(2**200), 2**200)
    return st.one_of(
        st.builds("{}.{}".format, st.integers(1, 64), st.integers(0, 10**40)),
        st.builds("{}/{}".format, st.integers(1, 200), st.integers(1, 100)),
        st.builds(str, ints),
        st.builds("{}/{}".format, ints, ints),
        st.builds("{}e{}".format, st.integers(-20, 20), st.integers(-(10**12), 10**12)),
        st.text(alphabet="0123456789eE+-./:_ x", max_size=12),
    )


@settings(max_examples=80)
@given(exponent_values(), st.builds(str, st.integers(-5, 60)) | exponent_values())
def test_exponent_spec_fuzz(value, bits):
    """Any --p string, plain or an oracle spec with a short, negative,
    huge or junk claimed bit count, ends with exit 0, 2 or 3 and no
    traceback."""
    for spec in (value, f"oracle:{value}:{bits}"):
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            argv = ["norm", "--genset", "E", "--coeffs", "1/2", "--k", "4", f"--p={spec}"]
            code = main(argv)
        assert code in (0, 2, 3)
        assert "Traceback" not in stderr.getvalue()


def rational_values():
    """Rational flag values: the exponent strings above, and complex pairs
    of them."""
    return exponent_values() | st.builds("{}:{}".format, exponent_values(), exponent_values())


@settings(max_examples=80)
@given(st.lists(rational_values(), min_size=1, max_size=3).map(",".join), exponent_values())
def test_rational_flag_fuzz(coeffs, offset):
    """Any --coeffs string and any --corrupt offset end with exit 0, 2 or
    3 and no traceback; a small fuel keeps a scan that never clears its
    thresholds short."""
    for argv in (
        ["norm", "--genset", "E", "--p", "3/2", "--k", "4", f"--coeffs={coeffs}"],
        ["extract", "--n-max", "2", "--p", "3/2", "--fuel", "1000", f"--corrupt={offset}"],
    ):
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(argv)
        assert code in (0, 2, 3)
        assert "Traceback" not in stderr.getvalue()


def json_values():
    """JSON values of any shape: null, booleans, floats, strings, small,
    negative and huge integers, and lists and objects of them."""
    ints = st.integers(-5, 4100) | st.integers(-(2**200), 2**200)
    scalars = st.none() | st.booleans() | ints | st.floats() | st.text(max_size=4)
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner),
        max_leaves=12,
    )


small = st.integers(-1, 12)
ce_specs = st.fixed_dictionaries(
    {"kind": st.sampled_from(["odds", "primes", "explicit", "throttled"])},
    optional={
        "label": st.text(max_size=4),
        "elements": st.lists(small, min_size=1, max_size=4),
        "delays": st.lists(st.lists(small, min_size=2, max_size=2), max_size=2),
    },
)
unimodular_rows = st.sampled_from([[1, 1, 0, 1], [0, 1, -1, 1], [3, 5, 4, 5], [2, 1, 0, 1]])
descriptors = st.lists(st.tuples(st.integers(0, 3), unimodular_rows), max_size=3).map(
    lambda images: {
        "phi": [[n, t] for n, (t, _) in enumerate(images)],
        "lambdas": [row for _, row in images],
    }
)
image_sets = st.fixed_dictionaries(
    {"images": st.lists(st.lists(st.lists(small, min_size=5, max_size=5), max_size=3), max_size=3)}
)
# Each input file: well formed, well formed with one key set to any JSON
# value (an unknown key among them), or any JSON value at all.
FILES = {
    "ce-set": (["approx-e0", "--k", "8", "--ce-set", "{f}"], ce_specs),
    "classify": (["classify", "--tol", "8", "--input", "{f}"], descriptors | image_sets),
    "extract": (["extract", "--n-max", "2", "--fuel", "1000", "--oracle", "{f}"], descriptors),
}


def file_contents(well_formed):
    keys = st.sampled_from(["label", "kind", "elements", "delays", "phi", "lambdas", "images"])
    mangled = st.builds(
        lambda obj, key, value: {**obj, key: value},
        well_formed, keys | st.text(max_size=3), json_values(),
    )
    return well_formed | mangled | json_values()


@pytest.mark.parametrize("target", list(FILES))
@settings(max_examples=60, deadline=None)
@given(data=st.data(), p=st.sampled_from(["1", "3/2", "2", "3"]))
def test_input_file_fuzz(tmp_path_factory, target, data, p):
    """Any spec, descriptor or images file, of the right shape or not,
    ends with exit 0, 2 or 3 and no exception."""
    argv, well_formed = FILES[target]
    path = tmp_path_factory.getbasetemp() / f"fuzz-{target}.json"
    path.write_text(json.dumps(data.draw(file_contents(well_formed))))
    argv = [arg.replace("{f}", str(path)) for arg in argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([*argv, "--p", p])
    assert code in (0, 2, 3)
