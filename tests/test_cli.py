"""End-to-end runs of the command driver: records, exit codes, determinism."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from lpcat import pow2
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
    "flag-classify-does-not-read": (
        ["classify", "--input", str(DATA / "descriptor_identity.json"), "--field", "real"],
        None,
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
    try:
        code = main([arg.replace("{f}", str(path)) for arg in argv])
    except SystemExit as exc:  # argparse rejects the flag value
        code = exc.code
    assert code == 2
