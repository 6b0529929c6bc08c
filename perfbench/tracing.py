"""In-memory call tracing for the weylops benchmark.

A :class:`Tracer` replaces public functions and methods of the weylops
modules with wrappers that record one span per call: its name, start, end,
parent span and the ``run_check`` record it belongs to.  Spans live in flat
arrays while the run goes on and are written out at the end; leaving the
``with`` block puts every wrapped attribute back.

A function is patched in every weylops module that binds it, because
``suites``, ``oscillator`` and ``cli`` import engine functions by name; a
method is patched on its class, which is where operators look it up.  A name
that no longer exists is skipped, and the metrics that need it are reported
absent with the reason instead of crashing the run.

Nothing here changes what the wrapped code computes.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from collections import Counter
from functools import partial
from time import perf_counter

# (home module, attribute path, span name).  Several attributes may share a
# span name; ``__radd__ = __add__`` aliases are listed separately because
# Python looks each slot up on its own.
SPANNED = (
    ("weylops.weyl", "WeylElement.__mul__", "weyl.mul"),
    ("weylops.weyl", "WeylElement.__add__", "weyl.add"),
    ("weylops.weyl", "WeylElement.__radd__", "weyl.add"),
    ("weylops.weyl", "WeylElement.__pow__", "weyl.pow"),
    ("weylops.weyl", "WeylElement.subst_c", "weyl.subst_c"),
    ("weylops.weyl", "poly_of_element", "weyl.poly_of_element"),
    ("weylops.weyl", "commutator", "weyl.bracket"),
    ("weylops.weyl", "anticommutator", "weyl.bracket"),
    ("weylops.weyl", "nested_commutator", "weyl.bracket"),
    ("weylops.weyl", "nested_anticommutator", "weyl.bracket"),
    ("weylops.weyl", "shifted_nested_anticomm", "weyl.bracket"),
    ("weylops.weyl", "left_nested_commutator", "weyl.bracket"),
    ("weylops.weyl", "hadamard_conjugate", "weyl.bracket"),
    ("weylops.scalars", "CPoly.__mul__", "scalars.cpoly_mul"),
    ("weylops.scalars", "CPoly.__rmul__", "scalars.cpoly_mul"),
    ("weylops.scalars", "CPoly.__add__", "scalars.cpoly_add"),
    ("weylops.scalars", "CPoly.__radd__", "scalars.cpoly_add"),
    *(
        ("weylops.sequences", f"RatPoly.{m}", "sequences.ratpoly")
        for m in (
            "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
            "__rmul__", "__pow__", "__eq__", "__call__", "compose", "derivative",
            "antiderivative",
        )
    ),
    ("weylops.realization", "apply_element", "realization.apply"),
    ("weylops.realization", "validate_reordering", "realization.validate"),
    ("weylops.oscillator", "build_operators", "oscillator.build"),
    ("weylops.oscillator", "element_to_matrix", "oscillator.to_matrix"),
    ("weylops.oscillator", "check_nested_anticomm_closed_form", "oscillator.check"),
    ("weylops.oscillator", "check_shifted_expansions", "oscillator.check"),
    ("weylops.oscillator", "check_main_identity_matrix", "oscillator.check"),
    ("weylops.oscillator", "check_symbolic_bridge", "oscillator.check"),
    ("weylops.suites", "run_suite", "suites.run_suite"),
    ("weylops.report", "run_check", "report.check"),
    ("weylops.report", "reports_to_json", "report.serialize"),
    ("weylops.cli", "main", "cli.main"),
)

# Scalar operations run millions of times per pass, so they are counted
# without a span to keep the tracing overhead bounded.
COUNTED = (
    ("weylops.scalars", "GaussianRational.__mul__", "scalars.gauss_mul"),
    ("weylops.scalars", "GaussianRational.__rmul__", "scalars.gauss_mul"),
    ("weylops.scalars", "GaussianRational.__add__", "scalars.gauss_add"),
    ("weylops.scalars", "GaussianRational.__radd__", "scalars.gauss_add"),
)

# The cached sequence functions whose cache_info() feeds sequences.cache_*.
CACHED = ("euler_zero", "euler_polynomial", "bernoulli_number")

# Selectors of `weylops verify`; each gets a suites.<selector>_s metric.
SELECTORS = (
    "bender", "superoperators", "combinatorics", "pain", "reciprocal", "mccoy",
    "functions", "binomial", "figueira", "sequences", "hermite",
)

RECORD = "record"  # the body of one run_check record
TRACE = "trace"  # the tracer's own bookkeeping; no layer owns its time
_ARRAYS = (("start", "d"), ("end", "d"), ("name", "i"), ("parent", "i"), ("record", "i"), ("outer", "b"))


def percentile(values, q):
    """The q-th percentile (0..100), linear between closest ranks."""
    s = sorted(values)
    if not s:
        raise ValueError("percentile of no values")
    if not 0 <= q <= 100:
        raise ValueError("q must lie in [0, 100]")
    pos = (len(s) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def union_length(intervals, lo, hi):
    """Length of the union of (start, end) intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_time(start, end, children):
    """A span's duration minus the union of its children's intervals."""
    return (end - start) - union_length(children, start, end)


class Tracer:
    """Context manager that wraps the weylops layers and records spans."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        for field, code in _ARRAYS:
            setattr(self, field, array(code))
        self._stack: list[int] = []
        self._depth: list[int] = []
        self._record = -1
        self.labels: dict[int, str] = {}  # span -> selector or suite name
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.dims: set[int] = set()
        self.missing: dict[str, str] = {}  # span or counter name -> reason
        self._patches: list[tuple[object, str, object]] = []
        self._id(RECORD)
        self._id(TRACE)

    # -- recording -------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.record.append(self._record)
        self.outer.append(self._depth[nid] == 0)
        self._depth[nid] += 1
        self._stack.append(i)
        self.end.append(0.0)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()
        self._depth[self.name[i]] -= 1

    # -- patching --------------------------------------------------------

    def __enter__(self):
        # Import every traced module first: one imported later would bind the
        # wrappers by name and keep them after the block.
        for module in dict.fromkeys(m for m, _, _ in SPANNED + COUNTED):
            try:
                importlib.import_module(module)
            except ImportError:
                pass  # _patch reports each name it cannot find
        for module, path, name in SPANNED:
            if name == "report.check":
                make = self._run_check
            else:
                make = partial(self._spanned, nid=self._id(name), name=name)
            self._patch(module, path, name, make)
        for module, path, name in COUNTED:
            self._patch(module, path, name, partial(self._counted, name=name))
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)
        return False

    def _patch(self, module_name: str, path: str, name: str, make) -> None:
        try:
            module = importlib.import_module(module_name)
            owner = module
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            orig = owner.__dict__[attr] if outer else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError) as exc:
            self.missing.setdefault(name, f"{module_name}.{path} not found ({type(exc).__name__})")
            return
        wrapper = make(orig)
        if outer:
            owners = [owner]
        else:
            # every weylops module that imported the function by name
            owners = [
                m
                for key, m in list(sys.modules.items())
                if (key == "weylops" or key.startswith("weylops.")) and getattr(m, attr, None) is orig
            ]
        for own in owners:
            self._patches.append((own, attr, orig))
            setattr(own, attr, wrapper)

    def _spanned(self, orig, nid: int, name: str):
        observe = _OBSERVERS.get(name)
        stats = f"{name}.stats"  # what the metrics built by `observe` depend on
        trace_id = self._ids[TRACE]

        def wrapper(*args, **kwargs):
            i = self._open(nid)
            try:
                result = orig(*args, **kwargs)
            finally:
                self._close(i)
            if observe is not None and stats not in self.missing:
                j = self._open(trace_id)
                try:
                    observe(self, i, args, result)
                except Exception as exc:  # the program changed shape: drop these metrics, keep running
                    self.missing[stats] = f"{stats} failed: {type(exc).__name__}: {exc}"
                finally:
                    self._close(j)
            return result

        return wrapper

    def _counted(self, orig, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return orig(*args, **kwargs)

        return wrapper

    def _run_check(self, orig):
        check_id, record_id = self._id("report.check"), self._id(RECORD)

        def wrapper(suite, params, fn, *args, **kwargs):
            i = self._open(check_id)
            self.labels[i] = suite
            outer_record, self._record = self._record, i

            def body():
                j = self._open(record_id)
                try:
                    return fn()
                finally:
                    self._close(j)

            try:
                return orig(suite, params, body, *args, **kwargs)
            finally:
                self._close(i)
                self._record = outer_record

        return wrapper

    # -- output ----------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """One JSON header line (names, labels, array layout), then the raw
        arrays in header order."""
        header = {
            "names": self.names,
            "count": len(self.name),
            "arrays": _ARRAYS,
            "labels": {str(k): v for k, v in self.labels.items()},
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for field, _ in _ARRAYS:
                getattr(self, field).tofile(fh)

    def summary(self) -> tuple[dict, dict]:
        """Per-layer metrics {name: {"value", "unit"}} and absent {name: reason}."""
        return _summarize(self)


# -- per-call observations (run outside the span, inside a TRACE span) -------


def _observe_mul(t: Tracer, span: int, args, result) -> None:
    left, right = args[0], args[1]
    right = type(left).of(right)
    b_left = Counter(b for (_, b) in left.terms)
    a_right = Counter(a for (a, _) in right.terms)
    t.counts["weyl.term_pairs"] += len(left.terms) * len(right.terms)
    t.counts["weyl.contractions"] += sum(
        nb * na * (min(b, a) + 1) for b, nb in b_left.items() for a, na in a_right.items()
    )
    m = t.maxima
    m["weyl.out_terms_max"] = max(m["weyl.out_terms_max"], len(result.terms))
    for cp in result.terms.values():
        m["weyl.cdeg_max"] = max(m["weyl.cdeg_max"], cp.degree())
        for g in cp.coeffs.values():
            for x in (g.re, g.im):
                bits = max(x.numerator.bit_length(), x.denominator.bit_length())
                if bits > m["weyl.coeff_bits_max"]:
                    m["weyl.coeff_bits_max"] = bits


def _observe_apply(t: Tracer, span: int, args, result) -> None:
    t.counts["realization.out_terms"] += len(result.coeffs)


def _observe_build(t: Tracer, span: int, args, result) -> None:
    t.dims.add(result.dim)


def _observe_run_suite(t: Tracer, span: int, args, result) -> None:
    t.labels[span] = args[0]


def _observe_serialize(t: Tracer, span: int, args, result) -> None:
    t.counts["report.json_bytes"] += len(result.encode())


_OBSERVERS = {
    "weyl.mul": _observe_mul,
    "realization.apply": _observe_apply,
    "oscillator.build": _observe_build,
    "suites.run_suite": _observe_run_suite,
    "report.serialize": _observe_serialize,
}


# -- aggregation -----------------------------------------------------------


def _summarize(t: Tracer) -> tuple[dict, dict]:
    n = len(t.name)
    kids: dict[int, list[tuple[float, float]]] = {}
    for i in range(n):
        p = t.parent[i]
        if p >= 0:
            kids.setdefault(p, []).append((t.start[i], t.end[i]))

    calls: Counter = Counter()
    total: Counter = Counter()  # outermost spans only, so recursion is not double counted
    self_s: Counter = Counter()
    by_label: Counter = Counter()
    record_max = 0.0
    ids = t._ids
    run_suite_id = ids.get("suites.run_suite", -2)
    check_id = ids.get("report.check", -2)
    osc_check_id = ids.get("oscillator.check", -2)
    for i in range(n):
        name = t.names[t.name[i]]
        dur = t.end[i] - t.start[i]
        calls[name] += 1
        if t.outer[i]:
            total[name] += dur
            if t.name[i] == run_suite_id:
                by_label[t.labels.get(i, "?")] += dur
        if t.name[i] == check_id:
            record_max = max(record_max, dur)
        own = self_time(t.start[i], t.end[i], kids.get(i, ()))
        if t.name[i] == ids[RECORD]:
            # A record body belongs to the check that built it: the matrix
            # oracle's numpy work or a suite's own code.
            a = t.parent[i]
            while a >= 0 and t.name[a] not in (osc_check_id, run_suite_id):
                a = t.parent[a]
            name = "oscillator.check" if a >= 0 and t.name[a] == osc_check_id else "suites.run_suite"
        self_s[name] += own

    metrics: dict = {}
    absent: dict = {}

    def put(metric: str, unit: str, needs, value) -> None:
        reasons = [t.missing[x] for x in needs if x in t.missing]
        if reasons:
            absent[metric] = "; ".join(reasons)
        else:
            metrics[metric] = {"value": float(value) if unit in ("s", "ms") else value, "unit": unit}

    def ratio(a, b):
        return a / b if b else 0.0

    mul = ("weyl.mul",)
    mul_stats = ("weyl.mul", "weyl.mul.stats")
    put("weyl.mul_calls", "count", mul, calls["weyl.mul"])
    put("weyl.mul_s", "s", mul, total["weyl.mul"])
    for key in ("term_pairs", "contractions"):
        put(f"weyl.{key}", "count", mul_stats, t.counts[f"weyl.{key}"])
    for key, unit in (("out_terms_max", "count"), ("cdeg_max", "count"), ("coeff_bits_max", "bits")):
        put(f"weyl.{key}", unit, mul_stats, t.maxima[f"weyl.{key}"])
    put("weyl.add_calls", "count", ("weyl.add",), calls["weyl.add"])
    put("weyl.add_s", "s", ("weyl.add",), total["weyl.add"])
    put("weyl.bracket_self_s", "s", ("weyl.bracket",), self_s["weyl.bracket"])
    put("weyl.pow_s", "s", ("weyl.pow",), total["weyl.pow"])
    put("weyl.poly_of_element_s", "s", ("weyl.poly_of_element",), total["weyl.poly_of_element"])
    put("weyl.subst_c_s", "s", ("weyl.subst_c",), total["weyl.subst_c"])

    for op in ("mul", "add"):
        span = f"scalars.cpoly_{op}"
        put(f"{span}_calls", "count", (span,), calls[span])
        put(f"{span}_s", "s", (span,), total[span])
    for op in ("mul", "add"):
        put(f"scalars.gauss_{op}_calls", "count", (f"scalars.gauss_{op}",), t.counts[f"scalars.gauss_{op}"])

    put("sequences.ratpoly_calls", "count", ("sequences.ratpoly",), calls["sequences.ratpoly"])
    put("sequences.ratpoly_s", "s", ("sequences.ratpoly",), total["sequences.ratpoly"])
    hits, misses, reason = _cache_counts()
    if reason:
        absent["sequences.cache_hit_ratio"] = absent["sequences.cache_misses"] = reason
    else:
        put("sequences.cache_hit_ratio", "ratio", (), ratio(hits, hits + misses))
        put("sequences.cache_misses", "count", (), misses)

    put("realization.apply_calls", "count", ("realization.apply",), calls["realization.apply"])
    put("realization.apply_s", "s", ("realization.apply",), total["realization.apply"])
    apply_stats = ("realization.apply", "realization.apply.stats")
    put("realization.out_terms", "count", apply_stats, t.counts["realization.out_terms"])
    put("realization.validate_s", "s", ("realization.validate",), total["realization.validate"])

    build = ("oscillator.build",)
    put("oscillator.build_calls", "count", build, calls["oscillator.build"])
    reuse = ratio(len(t.dims), calls["oscillator.build"])
    put("oscillator.build_reuse_ratio", "ratio", build + ("oscillator.build.stats",), reuse)
    put("oscillator.build_s", "s", build, total["oscillator.build"])
    put("oscillator.to_matrix_s", "s", ("oscillator.to_matrix",), total["oscillator.to_matrix"])
    put("oscillator.check_self_s", "s", ("oscillator.check", "report.check"), self_s["oscillator.check"])

    run_suite = ("suites.run_suite",)
    for sel in SELECTORS:
        put(f"suites.{sel}_s", "s", run_suite + ("suites.run_suite.stats",), by_label[sel])
    put("suites.record_ms_max", "ms", ("report.check",), record_max * 1000.0)
    put("suites.self_s", "s", run_suite + ("report.check",), self_s["suites.run_suite"])

    put("report.records", "count", ("report.check",), calls["report.check"])
    put("report.check_self_s", "s", ("report.check",), self_s["report.check"])
    put("report.serialize_s", "s", ("report.serialize",), total["report.serialize"])
    serialize_stats = ("report.serialize", "report.serialize.stats")
    put("report.json_bytes", "bytes", serialize_stats, t.counts["report.json_bytes"])

    put("cli.main_s", "s", ("cli.main",), total["cli.main"])
    put("cli.self_s", "s", ("cli.main",), self_s["cli.main"])
    return metrics, absent


def _cache_counts() -> tuple[int, int, str]:
    """Summed (hits, misses) of the cached sequence functions, or a reason
    why they cannot be read."""
    try:
        module = importlib.import_module("weylops.sequences")
        infos = [getattr(module, name).cache_info() for name in CACHED]
    except (ImportError, AttributeError) as exc:
        return 0, 0, f"cache_info() of weylops.sequences.{'/'.join(CACHED)} unavailable ({exc})"
    return sum(i.hits for i in infos), sum(i.misses for i in infos), ""
