"""Self-test of the lpcat benchmark, on tiny inputs (about a minute).

    python3 perfbench/selftest.py

Checks that:
1. BENCHMARK.json names exactly the metrics the harness prints, with the
   same units;
2. every end-to-end metric (and failed_frac) is printed by name with its
   unit, and the last line carries exactly the end-to-end metrics, for
   every workload; the same for the per-layer metrics of a traced run;
3. an operation that hits its deadline is counted as failed (capped), both
   for a synthetic spinning operation and for the oracle-exponent
   workload's real cliff;
4. traced and untraced runs give identical outcomes for every operation;
5. without the lpcat sources, the harness exits non-zero and prints no
   result.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS, Op, Workload  # noqa: E402

SECONDS = "6"
failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        failures.append(message)


def run_tiny(workload: str, trace: int) -> tuple[int, list[str]]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = run.main(["--workload", workload, "--seed", "3", "--seconds", SECONDS,
                       "--trace", str(trace)], tiny=True)
    return rc, buf.getvalue().splitlines()


def spinning_op_is_capped() -> None:
    def spin():
        while True:
            pass

    op = Op("spin", {}, spin, check=lambda _: True, deadline_s=0.05)
    status, elapsed, _ = run.execute(op)
    expect(status == "capped" and 0.05 <= elapsed < 0.5,
           f"a spinning operation is cut at its 0.05 s deadline ({status}, {elapsed:.3f} s)")
    workload = Workload("spin", 0, [lambda rng, round_no: op])
    phase = run.run_phase(workload, sequence=[(r, 0) for r in range(3)])
    summary = run.summarise(workload, phase)
    expect(len(summary["capped"]) == 3 and not run.check_phase(workload, phase),
           "each deadline hit is recorded as capped, not checked as an answer")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(e2e == run.END_TO_END, "BENCHMARK.json end_to_end matches the harness")
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json lists the four workloads")

    spinning_op_is_capped()

    for workload in WORKLOADS:
        rc, lines = run_tiny(workload, 0)
        last = json.loads(lines[-1])
        expect(rc == 0 and last["correct"] and last["failed"] == 0,
               f"{workload}: untraced tiny run exits 0 with every answer correct")
        expect(set(last) == {"correct", "attempted", "failed", "metrics"},
               f"{workload}: last line has exactly correct, attempted, failed, metrics")
        expect({k: v["unit"] for k, v in last["metrics"].items()} == e2e,
               f"{workload}: last line carries every end-to-end metric with its unit")
        printed = [line.split() for line in lines[:-1]]
        named = {(words[0], words[2]) for words in printed if len(words) >= 3}
        expect(all((name, unit) in named for name, unit in e2e.items())
               and ("failed_frac", run.FAILED_FRAC_UNIT) in named,
               f"{workload}: every end-to-end metric and failed_frac printed with its unit")
        if workload == "oracle-exponent":
            frac = next(float(w[1]) for w in printed if w and w[0] == "failed_frac")
            expect(frac > 0, f"{workload}: operations past their deadline count as failed "
                   f"(failed_frac {frac:.3g})")

        rc, lines = run_tiny(workload, 1)
        metrics = json.loads(lines[-1])["metrics"]
        reported = {k: v["unit"] for k, v in metrics.items()}
        differ = sorted(set(reported.items()) ^ set(layer.items()))
        expect(rc == 0 and not differ,
               f"{workload}: traced run reports every per-layer metric with its unit"
               + (f" (differs: {differ})" if differ else ""))
        expect(metrics["harness.ops"]["value"] > 0
               and metrics["harness.outcome_mismatches"]["value"] == 0,
               f"{workload}: traced and untraced outcomes identical for all "
               f"{metrics['harness.ops']['value']} operations")

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "twisted-norm",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180,
        )
        expect(proc.returncode != 0 and "{" not in proc.stdout,
               f"without lpcat sources the harness exits {proc.returncode} and prints no result")

    print(f"\n{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
