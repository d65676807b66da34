"""Compare two benchmark result files, metric by metric, per workload.

    python3 perfbench/compare.py BASE.json NEW.json

Result files come from ``run.py --out`` (use ``--repeats 10`` to get the
run-to-run spread).  For each (workload, end-to-end metric) the medians
are compared against the metric's bound in BENCHMARK.json:

- unresolved: a side has fewer than MIN_RUNS runs; or the spread of either
  side (quartile distance over median) is wider than the bound, unless
  every new run beats (or loses to) every base run;
- worse: the new median is worse than the base median by more than the
  bound;
- improved: the new median is better by more than the base runs' spread,
  and new runs win at least nine tenths of all (base, new) pairs;
- same: anything else.

MIN_RUNS is ten, so a verdict rests on at least ten runs a side.

``failed_frac`` has no bound: any increase is worse.  Exits 1 if any
metric is worse.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_RUNS = 10


def _spread(values: list[float]) -> float | None:
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def classify(base: list[float], new: list[float], bound: float, lower_is_better: bool):
    """(status, relative change of the median, base spread)."""
    sign = 1 if lower_is_better else -1
    mb, mn = statistics.median(base), statistics.median(new)
    change = (mn - mb) / abs(mb) if mb else (0.0 if mn == mb else float("inf"))
    worsening = sign * change
    spread_b, spread_n = _spread(base), _spread(new)
    if min(len(base), len(new)) < MIN_RUNS:
        return "unresolved", change, spread_b
    wins = [sign * (n - b) < 0 for n in new for b in base]
    losses = [sign * (n - b) > 0 for n in new for b in base]
    if max(spread_b, spread_n) > bound:
        if all(wins):
            return "improved", change, spread_b
        if all(losses):
            return "worse", change, spread_b
        return "unresolved", change, spread_b
    if worsening > bound:
        return "worse", change, spread_b
    if -worsening > spread_b and sum(wins) >= 0.9 * len(wins):
        return "improved", change, spread_b
    return "same", change, spread_b


def _values(runs: list[dict], workload: str, metric: str) -> list[float]:
    out = []
    for run in runs:
        if run["workload"] != workload or run["trace"]:
            continue
        if metric == "failed_frac":
            out.append(run["failed_frac"])
        elif metric in run["metrics"]:
            out.append(run["metrics"][metric]["value"])
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base_runs, new_runs = (json.loads(Path(p).read_text())["runs"] for p in argv)
    metrics = [(m["name"], m["bound"], m["better"] == "lower") for m in spec["end_to_end"]]
    metrics.append(("failed_frac", 0.0, True))
    any_worse = False
    for workload in [w["name"] for w in spec["workloads"]]:
        cells = []
        for name, bound, lower in metrics:
            base, new = _values(base_runs, workload, name), _values(new_runs, workload, name)
            if not base or not new:
                cells.append(f"{name}=missing")
                continue
            if name == "failed_frac":
                mb, mn = statistics.median(base), statistics.median(new)
                status = "worse" if mn > mb else "improved" if mn < mb else "same"
                cells.append(f"{name}={status}({mb:.4g}->{mn:.4g})")
            else:
                status, change, spread = classify(base, new, bound, lower)
                spread_txt = "n/a" if spread is None else f"{100 * spread:.1f}%"
                cells.append(f"{name}={status}({100 * change:+.1f}%, spread {spread_txt})")
            any_worse |= status == "worse"
        print(f"{workload:16s} " + "  ".join(cells))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
