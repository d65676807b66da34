"""lpcat benchmark: seeded closed-loop workloads with checked answers.

    python3 perfbench/run.py --workload twisted-norm --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --repeats 3 --out r.json

One client, one thread, no subprocess per operation: each operation starts
when the previous one returns.  A single-workload run sets up several
times (import lpcat, build the seeded inputs) and reports the median set-up
time, then measures for ``--seconds`` (on to the end of the round, and on
until there are 100 samples), then checks every answer outside the
timed region.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
replays the same operations with every public lpcat function wrapped in a
span, reports the per-layer metrics plus the tracing overhead, and writes
the raw spans to ``.perfbench-spans/<workload>-seed<n>.json``.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.

``--workload all`` runs each workload in a fresh interpreter (so module
caches such as the dyadic power cache never carry over), prints the six
end-to-end metrics per workload, and exits non-zero if any check failed.

Limits: shared machine, no CPU pinning, no cache drops.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from math import ceil, isqrt
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
from workloads import BUILDERS, WORKLOADS  # noqa: E402

SETUP_REPEATS = 11
MIN_BEYOND_P90 = 10
# The fewest samples with MIN_BEYOND_P90 beyond the nearest-rank p90.
MIN_SAMPLES = 10 * MIN_BEYOND_P90
# A timed phase that has not reached MIN_SAMPLES stops at this multiple of
# --seconds, and the run is then invalid.
OVERRUN = 3
# Calibration: a fixed stdlib kernel timed between operations.  A shared
# host's speed drifts by tens of percent over seconds, so every time is
# scaled to the speed at which the kernel takes CALIBRATION_REF_S.
CALIBRATION_REF_S = 0.001
CALIBRATION_EVERY_S = 0.025
CALIBRATION_NEIGHBOURS = 7
CALIBRATION_WARMUP = 10
LIMITS = "shared machine, no CPU pinning, no cache drops"
LPCAT_MODULES = ("rigor", "lpspace", "genset", "twisted", "isometry", "cli")
SPANS_DIR = ROOT / ".perfbench-spans"

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}
# Printed with the others and kept in result files, but not in BENCHMARK.json:
# it is 0 on three of the four workloads.
FAILED_FRAC_UNIT = "ratio"


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM inside an operation that outlives its deadline.
    A BaseException, so library ``except`` clauses cannot swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


# ---------------------------------------------------------------------------
# environment and set-up
# ---------------------------------------------------------------------------


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "limits": LIMITS,
    }


def fresh_lpcat() -> SimpleNamespace:
    """Import lpcat from scratch, dropping any earlier copy and its
    module-level caches."""
    for name in [m for m in sys.modules if m == "lpcat" or m.startswith("lpcat.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.import_module("lpcat")
    mods = {name: importlib.import_module(f"lpcat.{name}") for name in LPCAT_MODULES}
    return SimpleNamespace(modules=[sys.modules["lpcat"], *mods.values()], **mods)


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------


def _calibration_kernel() -> int:
    """Fixed rational and big-integer work, like lpcat's own arithmetic."""
    x = Fraction(1)
    for i in range(1, 200):
        x = x * Fraction(2 * i + 1, 2 * i) + Fraction(1, i * i)
    return isqrt(x.numerator * x.denominator)


def calibrate(samples: list) -> None:
    """Time the kernel once; append (midpoint, seconds) to ``samples``."""
    start = time.perf_counter()
    _calibration_kernel()
    end = time.perf_counter()
    samples.append(((start + end) / 2, end - start))


def speed_scale(samples: list, at: float) -> float:
    """Factor turning a time measured around ``at`` into reference seconds:
    the reference over the median of the nearest calibrations."""
    nearest = sorted(samples, key=lambda s: abs(s[0] - at))[:CALIBRATION_NEIGHBOURS]
    return CALIBRATION_REF_S / statistics.median(d for _, d in nearest)


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


def execute(op):
    """Run one operation under its deadline: (status, seconds, result)."""
    result = None
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, op.deadline_s)
            raw = op.call()
            status = "ok"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    except DeadlineExceeded:
        status = "capped"
    except Exception as exc:  # an operation that raises is a failed operation
        status, result = "error", f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if status == "ok":
        result = op.collect(raw)
    return status, elapsed, result


def run_phase(workload, seconds: float | None = None, sequence=None, min_ops: int = 0) -> dict:
    """Closed loop over seeded rounds, or over the given (round, slot)
    ``sequence``.  Each round visits every slot once.  A timed loop stops at
    the first round boundary after ``seconds`` at which ``min_ops``
    operations are done, or at ``OVERRUN`` times ``seconds``."""
    order = random.Random(f"order:{workload.name}:{workload.seed}")
    n_slots = len(workload.slots)
    if sequence is None:
        sequence = ((r, s) for r in itertools.count() for s in order.sample(range(n_slots), n_slots))
    records = []  # (round, slot, status, seconds, answer, midpoint)
    calibrations: list = []
    used_ops = rounds = 0
    gc.collect()
    calibrate(calibrations)
    start = time.perf_counter()
    for round_no, slot in sequence:
        now = time.perf_counter()
        if seconds is not None and now - start >= seconds and (
            len(records) % n_slots == 0 and len(records) >= min_ops
            or now - start >= OVERRUN * seconds
        ):
            break
        if now - calibrations[-1][0] >= CALIBRATION_EVERY_S:
            calibrate(calibrations)
        op = workload.op(round_no, slot)
        began = time.perf_counter()
        status, elapsed, answer = execute(op)
        records.append((round_no, slot, status, elapsed, answer, began + elapsed / 2))
        if len(records) % n_slots == 0:
            rounds, used_ops = rounds + 1, len(records)
    calibrate(calibrations)
    if rounds == 0:
        used_ops = len(records)
    scaled = [r[3] * speed_scale(calibrations, r[5]) for r in records]
    return {"records": records, "scaled": scaled, "rounds": rounds, "used_ops": used_ops}


def check_phase(workload, phase) -> list[dict]:
    """Rebuild each operation and run its correctness check on the answer
    it gave; return the failures."""
    failures = []
    for n, (round_no, slot, status, _elapsed, answer, _mid) in enumerate(phase["records"]):
        if status == "capped":
            continue
        op = workload.op(round_no, slot)
        if status == "error":
            note = answer
        else:
            try:
                note = None if op.check(answer) else "wrong answer"
            except Exception as exc:
                note = f"{type(exc).__name__}: {exc}"
        if note is not None:
            failures.append({"n": n, "kind": op.kind, "params": op.params, "error": note})
    return failures


def outcome(record) -> str:
    status, answer = record[2], record[4]
    return repr(answer) if status == "ok" else status


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, ceil(q * len(sorted_values)) - 1)]


def summarise(workload, phase) -> dict:
    latencies = sorted(phase["scaled"][: phase["used_ops"]])
    raw = sorted(r[3] for r in phase["records"][: phase["used_ops"]])
    n = len(latencies)
    busy = sum(latencies)
    capped = []
    for i, (round_no, slot, status, elapsed, _answer, _mid) in enumerate(phase["records"]):
        if status == "capped":
            op = workload.op(round_no, slot)
            capped.append({"n": i, "kind": op.kind, "params": op.params,
                           "deadline_s": op.deadline_s, "elapsed_s": elapsed})
    return {
        "ops_per_s": n / busy if busy > 0 else 0.0,
        "op_p50_ms": 1000 * statistics.median(latencies) if n else 0.0,
        "op_p90_ms": 1000 * percentile(latencies, 0.9) if n else 0.0,
        "raw_ops_per_s": n / sum(raw) if n else 0.0,
        "raw_op_p50_ms": 1000 * statistics.median(raw) if n else 0.0,
        "raw_op_p90_ms": 1000 * percentile(raw, 0.9) if n else 0.0,
        "samples": n,
        "beyond_p90": n - ceil(0.9 * n),
        "capped": capped,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    env = environment()
    build = BUILDERS[name]
    for _ in range(CALIBRATION_WARMUP):  # let the interpreter specialise the kernel
        _calibration_kernel()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        tmp = Path(tmp)
        setup_times, setup_cal = [], []
        for i in range(1 if trace else SETUP_REPEATS):
            workdir = tmp / f"setup-{i}"
            workdir.mkdir()
            for _ in range(3):
                calibrate(setup_cal)
            started = time.perf_counter()
            lp = fresh_lpcat()
            workload = build(lp, seed, workdir, tiny)
            setup_times.append((time.perf_counter() - started, (started + time.perf_counter()) / 2))
            for _ in range(3):
                calibrate(setup_cal)
        setup_raw = [t for t, _ in setup_times]
        setup_scaled = [t * speed_scale(setup_cal, mid) for t, mid in setup_times]
        phase = run_phase(workload, seconds / 2 if trace else seconds,
                          min_ops=0 if trace else MIN_SAMPLES)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        summary = summarise(workload, phase)
        layer = spans_file = None
        if trace:
            layer, spans_file = traced_replay(name, seed, tmp, tiny, workload, phase)
        failures = check_phase(workload, phase)
        deadlines = sorted({workload.op(0, s).deadline_s for s in range(len(workload.slots))})

    records = phase["records"]
    hard = len(failures)
    capped = len(summary["capped"])
    # failed_frac is taken over the complete rounds, like the other metrics.
    used = phase["used_ops"]
    bad_in_used = sum(f["n"] < used for f in failures + summary["capped"])
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": env,
        "correct": hard == 0,
        "valid": trace or summary["beyond_p90"] >= MIN_BEYOND_P90,
        "attempted": len(records),
        "failed": hard,
        "capped": capped,
        "failed_frac": bad_in_used / used if used else 0.0,
        "rounds": phase["rounds"],
        "ops_per_round": len(workload.slots),
        "samples": summary["samples"],
        "beyond_p90": summary["beyond_p90"],
        "deadlines_s": deadlines,
        "capped_ops": summary["capped"],
        "failures": failures[:20],
    }
    if trace:
        result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        result["spans_file"] = spans_file
    else:
        values = {
            "setup_s": statistics.median(setup_scaled),
            "ops_per_s": summary["ops_per_s"],
            "op_p50_ms": summary["op_p50_ms"],
            "op_p90_ms": summary["op_p90_ms"],
            "peak_rss_mib": peak_rss_mib,
        }
        result["metrics"] = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        result["raw"] = {
            "setup_s": statistics.median(setup_raw),
            "ops_per_s": summary["raw_ops_per_s"],
            "op_p50_ms": summary["raw_op_p50_ms"],
            "op_p90_ms": summary["raw_op_p90_ms"],
        }
    return result


def traced_replay(name, seed, tmp, tiny, workload, phase) -> tuple[dict, str]:
    """Replay the operations of ``phase`` on a fresh import with every layer
    wrapped; write the raw spans, and return the per-layer metrics with
    their units and the spans file."""
    workdir = tmp / "traced"
    workdir.mkdir()
    lp = fresh_lpcat()
    tracer = Tracer(lp)
    tracer.install()
    try:
        traced_workload = BUILDERS[name](lp, seed, workdir, tiny)
        tracer.reset()
        traced = run_phase(traced_workload, sequence=[r[:2] for r in phase["records"]])
        layer = {k: (v, tracer.unit(k)) for k, v in tracer.metrics().items()}
    finally:
        tracer.uninstall()
    SPANS_DIR.mkdir(exist_ok=True)
    spans_file = SPANS_DIR / f"{name}-seed{seed}.json"
    tracer.write_spans(spans_file)
    mismatches = sum(outcome(a) != outcome(b) for a, b in zip(phase["records"], traced["records"]))
    untraced_s = sum(phase["scaled"])
    traced_s = sum(traced["scaled"])
    n = len(traced["records"])
    layer.update({
        "harness.ops": (n, "count"),
        "harness.deadline_hits": (sum(r[2] == "capped" for r in traced["records"]), "count"),
        "harness.outcome_mismatches": (mismatches, "count"),
        "harness.untraced_ops_per_s": (n / untraced_s if untraced_s else 0.0, "1/s"),
        "harness.traced_ops_per_s": (n / traced_s if traced_s else 0.0, "1/s"),
        "harness.trace_overhead_ratio": (traced_s / untraced_s if untraced_s else 0.0, "ratio"),
    })
    return layer, spans_file.relative_to(ROOT).as_posix()


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def human_lines(result: dict) -> list[str]:
    lines = [
        f"# env {json.dumps(result['env'], sort_keys=True)}",
        f"workload {result['workload']} seed {result['seed']} trace {result['trace']}: "
        f"{result['attempted']} ops attempted, {result['rounds']} complete rounds of "
        f"{result['ops_per_round']} ops, {result['samples']} samples used",
    ]
    for name, metric in result["metrics"].items():
        lines.append(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    if not result["trace"]:
        lines.append(
            f"  {'failed_frac':40s} {result['failed_frac']:.6g} {FAILED_FRAC_UNIT} "
            f"over {result['samples']} ops of complete rounds "
            f"({result['failed']} failed and {result['capped']} capped of "
            f"{result['attempted']} attempted)"
        )
        lines.append(f"  op_p90_ms sample count {result['samples']}, "
                     f"{result['beyond_p90']} beyond p90")
        lines.append("  unscaled: " + ", ".join(
            f"{k} {v:.6g}" for k, v in result["raw"].items()))
    lines.append(f"  deadlines_s {result['deadlines_s']}; capped operations: "
                 + (", ".join(f"{c['kind']} {json.dumps(c['params'], sort_keys=True)}"
                              for c in result["capped_ops"][:12]) or "none")
                 + (" ..." if len(result["capped_ops"]) > 12 else ""))
    if result["trace"]:
        lines.append(f"  spans written to {result['spans_file']}")
    for failure in result["failures"]:
        lines.append(f"  FAILED {json.dumps(failure, sort_keys=True)}")
    if not result["valid"]:
        lines.append(f"  INVALID: only {result['beyond_p90']} samples beyond p90 "
                     f"(need {MIN_BEYOND_P90}); run longer")
    return lines


def result_line(result: dict) -> str:
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    })


def write_results(path: str, runs: list[dict]) -> None:
    Path(path).write_text(json.dumps(
        {"schema": "perfbench.result/1", "env": environment(), "runs": runs},
        indent=1, sort_keys=True,
    ))


def run_many(args) -> int:
    """Each (workload, repeat) in a fresh interpreter, one after another."""
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        for name in names:
            for r in range(args.repeats):
                out = Path(tmp) / f"{name}-{r}.json"
                cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                       "--seed", str(args.seed + r), "--seconds", str(args.seconds),
                       "--trace", str(args.trace), "--out", str(out)]
                proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
                sys.stdout.write("".join(proc.stdout.splitlines(True)[:-1]))
                if proc.returncode not in (0, 1) or not out.exists():
                    sys.stderr.write(proc.stderr)
                    print(f"run of {name} exited {proc.returncode}", file=sys.stderr)
                    return 1
                runs.extend(json.loads(out.read_text())["runs"])
    print("\nsummary (median over repeats)")
    for name in names:
        mine = [r for r in runs if r["workload"] == name]
        cells = []
        for metric in mine[0]["metrics"] if not args.trace else ("harness.trace_overhead_ratio",):
            values = [r["metrics"][metric]["value"] for r in mine if metric in r["metrics"]]
            unit = mine[0]["metrics"].get(metric, {}).get("unit", "")
            cells.append(f"{metric}={statistics.median(values):.6g} {unit}")
        if not args.trace:
            frac = statistics.median(r["failed_frac"] for r in mine)
            cells.append(f"failed_frac={frac:.6g} {FAILED_FRAC_UNIT}")
        print(f"{name:16s} " + "  ".join(cells))
    if args.out:
        write_results(args.out, runs)
    bad = [r for r in runs if not (r["correct"] and r["valid"])]
    for r in bad:
        print(f"{r['workload']} seed {r['seed']}: correct={r['correct']} valid={r['valid']}",
              file=sys.stderr)
    return 1 if bad else 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=1,
                        help="fresh-interpreter runs per workload, seeds seed..seed+N-1")
    parser.add_argument("--out", default=None, help="write a result file for compare.py")
    return parser.parse_args(argv)


def main(argv=None, tiny: bool = False) -> int:
    args = parse_args(argv)
    if not (SRC / "lpcat" / "__init__.py").is_file():
        print(f"lpcat sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all" or args.repeats > 1:
        return run_many(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), tiny)
    for line in human_lines(result):
        print(line)
    if args.out:
        write_results(args.out, [result])
    print(result_line(result))
    return 0 if result["correct"] and result["valid"] else 1


if __name__ == "__main__":
    sys.exit(main())
