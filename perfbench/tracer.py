"""Per-layer tracing for the lpcat benchmark.

Spans are recorded only from the benchmark's own files: ``Tracer.install``
wraps the public functions and methods of each lpcat module at run time,
so the library itself carries no tracing code.  Private kernels
(``_pow_slack``, ``_root_dir``, ``_epsilon_enclosure``) are not
boundaries; their cost lands in the nearest wrapped public caller.

Each span is (name, start, end, parent).  Aggregates (calls, inclusive
``busy_s``, ``self_s`` = duration minus wrapped children) are kept on the
fly; raw spans are kept in memory up to ``SPAN_CAP`` and written out
when the run ends.

Internal counters and caches (``CeStats``, ``QueryStats``, ``_ucache``,
``_DYADIC_POW_CACHE``, the oracle memo tables) are read through ``read``,
one tolerant adapter: a missing attribute becomes a missing metric.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path

SPAN_CAP = 200_000

_MISSING = object()


def read(obj, *path, default=None):
    """Follow an attribute path; any missing link yields ``default``."""
    for name in path:
        obj = getattr(obj, name, _MISSING)
        if obj is _MISSING:
            return default
    return obj


class _Agg:
    __slots__ = ("calls", "busy", "self_time", "open")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.open = 0


class Tracer:
    def __init__(self, lp):
        self.lp = lp
        self.aggs: dict[str, _Agg] = {}
        self.counts: dict[str, float] = {}
        self.maxima: dict[str, int] = {}
        self.stack: list[list] = []  # [name, start, child_time, span_index]
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.cesets: list = []
        self.gensets: list = []
        self._patched: list[tuple] = []

    # -- span bookkeeping ------------------------------------------------------

    def reset(self) -> None:
        """Forget everything measured so far (instances stay registered)."""
        self.aggs.clear()
        self.counts.clear()
        self.maxima.clear()
        self.spans.clear()
        self.spans_dropped = 0
        self.baseline = self._instance_counters()

    def count(self, name: str, by: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + by

    def high(self, name: str, value: int) -> None:
        if value > self.maxima.get(name, -1):
            self.maxima[name] = value

    def span(self, name: str, fn, *args, **kwargs):
        agg = self.aggs.get(name)
        if agg is None:
            agg = self.aggs[name] = _Agg()
        parent = self.stack[-1][3] if self.stack else -1
        index = -1
        if len(self.spans) < SPAN_CAP:
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent))
        else:
            self.spans_dropped += 1
        frame = [name, time.perf_counter(), 0.0, index]
        self.stack.append(frame)
        agg.open += 1
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            agg.open -= 1
            dur = end - frame[1]
            agg.calls += 1
            agg.self_time += dur - frame[2]
            if agg.open == 0:
                agg.busy += dur
            if self.stack:
                self.stack[-1][2] += dur
            if index >= 0:
                self.spans[index] = (name, frame[1], end, parent)

    # -- installation ------------------------------------------------------------

    def _wrap(self, owner, name: str, span_name: str | None, before=None, after=None):
        """Wrap ``owner.name`` (a module function or a class method).

        ``before(args, kwargs)`` may replace the arguments, ``after(result)``
        observes the result, and ``span_name`` (if given) names the span.
        A module function is replaced wherever an lpcat module binds it, so
        calls through ``from .rigor import name`` are traced too.
        """
        if owner is None:
            return
        is_class = isinstance(owner, type)
        original = owner.__dict__.get(name) if is_class else getattr(owner, name, None)
        if original is None:
            return
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            if span_name is None:
                out = original(*args, **kwargs)
            else:
                out = tracer.span(span_name, original, *args, **kwargs)
            if after is not None:
                after(out)
            return out

        if is_class:
            targets = [(owner, name)]
        else:
            targets = [(mod, attr) for mod in self.lp.modules
                       for attr, value in vars(mod).items() if value is original]
        for target, attr in targets:
            setattr(target, attr, wrapper)
            self._patched.append((target, attr, original))

    def install(self) -> None:
        lp, t = self.lp, self
        rigor, lpspace, genset = lp.rigor, lp.lpspace, lp.genset
        twisted, isometry, cli = lp.twisted, lp.isometry, lp.cli

        def register(registry):
            def before(args, kwargs):
                registry.append(args[0])
                return args, kwargs
            return before

        def precision(args, kwargs):
            return args[1] if len(args) > 1 else kwargs.get("k")

        def memo_hits(counter):
            def before(args, kwargs):
                cache = read(args[0], "_cache")
                if cache is not None and precision(args, kwargs) in cache:
                    t.count(counter)
                return args, kwargs
            return before

        def traced_sum_at(args, kwargs):
            if not args:
                return args, kwargs
            sum_at, first = args[0], [True]

            def wrapped(K):
                if not first[0]:
                    t.count("rigor.norm_from_power_sum.retries")
                first[0] = False
                return t.span("rigor.norm_from_power_sum.sum_at", sum_at, K)

            return (wrapped, *args[1:]), kwargs

        def operand_bits(args, kwargs):
            if args and isinstance(args[0], int):
                t.high("rigor.iroot.max_operand_bits", args[0].bit_length())
            return args, kwargs

        approx_hits = memo_hits("rigor.ComputableReal.approx.memo_hits")

        def approx_before(args, kwargs):
            t.high("rigor.ComputableReal.approx.max_k", precision(args, kwargs))
            return approx_hits(args, kwargs)

        def no_output(out):
            if out is None:
                t.count("genset.BallMap.apply.no_output")

        def verdict(out):
            label = read(out, "verdict")
            if label is not None:
                t.count(f"isometry.verdict.{label}")

        self._wrap(rigor, "norm_from_power_sum", "rigor.norm_from_power_sum", traced_sum_at)
        self._wrap(rigor, "iroot", "rigor.iroot", operand_bits)
        self._wrap(rigor, "simplest_between", "rigor.simplest_between")
        self._wrap(read(rigor, "ComputableReal"), "approx", "rigor.ComputableReal.approx",
                   approx_before)

        self._wrap(lpspace, "norm_p", "lpspace.norm_p")
        self._wrap(lpspace, "norm_of_abs2_terms", "lpspace.norm_of_abs2_terms")

        generating_set = read(genset, "GeneratingSet")
        self._wrap(generating_set, "__init__", None, register(self.gensets))
        self._wrap(generating_set, "norm_query", "genset.norm_query")
        self._wrap(read(genset, "VectorRep"), "coefficients", "genset.VectorRep.coefficients",
                   memo_hits("genset.VectorRep.coefficients.memo_hits"))
        for cls in (read(genset, "StandardGenSet"), read(genset, "ZetaGenSet"),
                    read(twisted, "TwistedGenSet")):
            self._wrap(cls, "residual_norm", "genset.residual_norm")
        self._wrap(genset, "check_ballmap", "genset.check_ballmap")
        self._wrap(read(genset, "BallMap"), "apply", "genset.BallMap.apply", after=no_output)

        ce_set = read(twisted, "CeSet")
        self._wrap(ce_set, "__init__", None, register(self.cesets))
        self._wrap(ce_set, "gamma_enclosure", "twisted.gamma_enclosure")
        self._wrap(read(twisted, "TwistedGenSet"), "norm_enclosure", "twisted.norm_enclosure")
        for name in ("expanded_residual_norm", "approx_e0", "extract_scale",
                     "decide_membership", "membership_bits"):
            self._wrap(twisted, name, f"twisted.{name}")

        self._wrap(isometry, "classify", "isometry.classify", after=verdict)
        self._wrap(isometry, "descriptor_to_ballmap", "isometry.descriptor_to_ballmap")
        self._wrap(isometry, "rotation_demo", "isometry.rotation_demo")

        self._wrap(cli, "main", "cli.main", after=lambda rc: t.count(f"cli.exit.{rc}"))
        self._wrap(cli, "write_report", None,
                   after=lambda data: t.count("cli.report_bytes", len(data)))
        self.baseline = self._instance_counters()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reading the counters --------------------------------------------------

    def _instance_counters(self) -> dict:
        """Counters that live on library objects, summed over every set and
        presentation created since installation."""
        decide = stages = 0
        for ce in self.cesets:
            decide += read(ce, "stats", "decide_calls", default=0)
            stages += read(ce, "stats", "max_stage", default=-1) + 1
        return {"decide": decide, "stages": stages}

    def metrics(self) -> dict:
        """Every per-layer metric the counters give, by name."""
        out: dict[str, float] = {}

        def timed(name: str, *fields: str) -> None:
            agg = self.aggs.get(name) or _Agg()
            for f in fields:
                out[f"{name}.{f}"] = {
                    "calls": agg.calls, "busy_s": agg.busy, "self_s": agg.self_time
                }[f]

        def ratio(name: str, numerator: float, calls_of: str) -> None:
            calls = (self.aggs.get(calls_of) or _Agg()).calls
            out[name] = numerator / calls if calls else 0.0

        timed("rigor.norm_from_power_sum", "calls", "busy_s", "self_s")
        out["rigor.norm_from_power_sum.retries"] = self.counts.get(
            "rigor.norm_from_power_sum.retries", 0
        )
        timed("rigor.iroot", "calls", "busy_s")
        out["rigor.iroot.max_operand_bits"] = self.maxima.get("rigor.iroot.max_operand_bits", 0)
        timed("rigor.simplest_between", "calls", "busy_s")
        timed("rigor.ComputableReal.approx", "calls", "busy_s")
        out["rigor.ComputableReal.approx.max_k"] = self.maxima.get(
            "rigor.ComputableReal.approx.max_k", -1
        )
        ratio(
            "rigor.ComputableReal.approx.memo_hit_ratio",
            self.counts.get("rigor.ComputableReal.approx.memo_hits", 0),
            "rigor.ComputableReal.approx",
        )
        dyadic = read(self.lp.rigor, "_DYADIC_POW_CACHE")
        if dyadic is not None:
            out["rigor.dyadic_cache.entries"] = len(dyadic)

        timed("lpspace.norm_p", "calls", "busy_s", "self_s")
        timed("lpspace.norm_of_abs2_terms", "calls", "busy_s")

        timed("genset.norm_query", "calls", "busy_s", "self_s")
        max_ks = [k for k in (read(g, "stats", "max_k") for g in self.gensets) if k is not None]
        if max_ks or not self.gensets:
            out["genset.norm_query.max_k"] = max(max_ks, default=-1)
        timed("genset.VectorRep.coefficients", "calls")
        ratio(
            "genset.VectorRep.coefficients.memo_hit_ratio",
            self.counts.get("genset.VectorRep.coefficients.memo_hits", 0),
            "genset.VectorRep.coefficients",
        )
        timed("genset.residual_norm", "calls", "busy_s")
        timed("genset.check_ballmap", "calls", "busy_s", "self_s")
        timed("genset.BallMap.apply", "calls")
        ratio(
            "genset.BallMap.apply.no_output_ratio",
            self.counts.get("genset.BallMap.apply.no_output", 0),
            "genset.BallMap.apply",
        )

        timed("twisted.norm_enclosure", "calls", "busy_s", "self_s")
        twisted_cls = read(self.lp.twisted, "TwistedGenSet")
        twisted_sets = [g for g in self.gensets if isinstance(g, twisted_cls)]
        ucaches = [u for u in (read(g, "_ucache") for g in twisted_sets) if u is not None]
        if ucaches or not twisted_sets:
            out["twisted.ucache.entries"] = sum(len(u) for u in ucaches)
        now = self._instance_counters()
        out["twisted.enum_stages"] = now["stages"] - self.baseline["stages"]
        timed("twisted.expanded_residual_norm", "calls", "busy_s", "self_s")
        timed("twisted.approx_e0", "calls", "busy_s", "self_s")
        timed("twisted.gamma_enclosure", "calls", "busy_s")
        out["twisted.decide_calls"] = now["decide"] - self.baseline["decide"]
        timed("twisted.extract_scale", "calls", "busy_s")
        timed("twisted.decide_membership", "calls", "busy_s")
        timed("twisted.membership_bits", "calls", "busy_s")

        timed("isometry.classify", "calls", "busy_s", "self_s")
        for label in ("Conforms", "Violates", "Unknown"):
            out[f"isometry.verdict.{label}"] = self.counts.get(f"isometry.verdict.{label}", 0)
        timed("isometry.descriptor_to_ballmap", "calls", "busy_s")
        timed("isometry.rotation_demo", "calls", "busy_s")

        timed("cli.main", "calls", "busy_s", "self_s")
        for rc in (0, 2, 3):
            out[f"cli.exit.{rc}"] = self.counts.get(f"cli.exit.{rc}", 0)
        out["cli.report_bytes"] = self.counts.get("cli.report_bytes", 0)
        return out

    @staticmethod
    def unit(name: str) -> str:
        last = name.rsplit(".", 1)[-1]
        if last in ("busy_s", "self_s"):
            return "s"
        if last in ("max_k", "max_operand_bits"):
            return "bits"
        if last.endswith("_ratio"):
            return "ratio"
        if last == "report_bytes":
            return "bytes"
        return "count"

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent"],
                    "dropped": self.spans_dropped,
                    "spans": self.spans,
                },
                fh,
            )
