"""Run one ``qlab.cli`` invocation with per-layer spans recorded from outside.

Usage: ``PYTHONPATH=src python3 perfbench/traced.py <qlab cli arguments>``

The tracer wraps the public entry points of ``qlab.series``,
``qlab.qfunctions``, ``qlab.registry``, ``qlab.partitions`` and ``qlab.cli``
before the command runs; nothing in the package itself is changed.  Names
that other modules bound with ``from .series import ...`` are rebound too,
so every call is counted whichever module makes it.  The registry's own
verification code runs unchanged: each catalog entry's ``lhs`` and ``rhs``
and ``LaurentSeries.equal_up_to`` are wrapped in place, so its phases get
spans.  Spans are kept in memory and aggregated when the command ends.  The
process prints one JSON object: the command's exit code, its captured
standard output, the rows whose evaluation stalled, and the per-layer
metrics (see ``perfbench/README.md``).
"""

from __future__ import annotations

import inspect
import io
import json
import statistics
import sys
import time
from array import array
from contextlib import redirect_stdout
from itertools import compress
from typing import Callable, Dict, List, Optional, Tuple

import qlab
from qlab import cli, partitions, qfunctions, registry, series

HOOK = "trace.hook"

# counters the hooks keep; all but max_coeff_bits are sums
COUNTERS = (
    "series.mul.products",
    "series.invert.products",
    "series.pochhammer.binomial_passes",
    "series.max_coeff_bits",
    "partitions.enumerated",
)


class Tracer:
    """In-memory span recorder plus counters computed at span boundaries.

    Span ``i`` is ``names[name_id[i]]`` over ``[start[i], end[i])``, caused by
    span ``parent[i]`` (-1 for none); ``errors`` maps the spans that raised to
    the exception's class name.  Flat arrays keep the recorder cheap and out of
    the garbage collector's way, so the traced program runs much as it does
    untraced.

    A wrapped call does some bookkeeping outside its own window (argument
    passing, appends, the stack push and pop), which would land in the
    caller's self time.  ``calibrate`` measures that cost once per kind of
    wrapper on empty calls, and ``self_times`` charges it to the tracer
    instead of the caller.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.errors: Dict[int, str] = {}
        self.counters: Dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.kind: Dict[str, str] = {}  # span name -> wrapper kind, see calibrate()
        self.leak_s: Dict[str, float] = {}
        self.row_labels: List[str] = []  # id@specialization of each registry.row span
        self._stack: List[int] = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable, hook: Optional[Callable] = None) -> Callable:
        """Return ``fn`` recorded as span ``name``.

        ``hook(result, *args, **kwargs)`` runs after a successful call to
        update counters; its time is recorded as a sibling ``trace.hook`` span,
        so it counts against neither the wrapped call nor its caller.
        """
        nid, hook_id = self._id(name), self._id(HOOK)
        self.kind.setdefault(name, "plain" if hook is None else "hooked")
        name_id, starts, ends, parents = self.name_id, self.start, self.end, self.parent
        stack, errors, clock = self._stack, self.errors, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            name_id.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                errors[idx] = type(exc).__name__
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                h = len(starts)
                name_id.append(hook_id)
                parents.append(stack[-1])
                starts.append(ends[idx])
                ends.append(0.0)
                hook(result, *args, **kwargs)
                ends[h] = clock()
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def calibrate(self, calls: int = 1000, rounds: int = 7) -> None:
        """Measure, per wrapper kind, the seconds a call spends outside its spans.

        Each round times ``calls`` empty calls bare and wrapped in a scratch
        tracer; the wrapped loop's time minus the time inside its spans minus
        the bare loop's time is the cost the wrapper leaves to its caller.
        The median round is kept.
        """

        def noop(*args, **kwargs):
            return None

        makers = {
            "plain": lambda t: t.wrap("x", noop),
            "hooked": lambda t: t.wrap("x", noop, noop),
            "sum": lambda t: wrap_sum(t, noop, noop),
        }
        clock = time.perf_counter
        for kind, make in makers.items():
            samples = []
            for _ in range(rounds):
                scratch = Tracer()
                fn = make(scratch)
                t0 = clock()
                for _ in range(calls):
                    noop(noop, 0)
                t1 = clock()
                for _ in range(calls):
                    fn(noop, 0)
                t2 = clock()
                inside = sum(scratch.end) - sum(scratch.start)
                samples.append((t2 - t1) - inside - (t1 - t0))
            self.leak_s[kind] = max(statistics.median(samples), 0.0) / calls

    def indices(self, name: str) -> List[int]:
        """Indices of the spans called ``name``, in start order."""
        if name not in self._ids:
            return []
        nid = self._ids[name]
        return [i for i, n in enumerate(self.name_id) if n == nid]

    def duration(self, i: int) -> float:
        return self.end[i] - self.start[i]

    def self_times(self) -> Tuple[Dict[str, int], Dict[str, float], float]:
        """Calls and self time per span name, and the time the tracer itself took.

        Self time is a span's duration minus its child spans and minus the
        calibrated wrapper cost of each child.  The tracer's time is every
        ``trace.hook`` span plus the wrapper cost of every span with a parent.
        """
        n = len(self.start)
        leak = [self.leak_s.get(self.kind.get(name, ""), 0.0) for name in self.names]
        child = [0.0] * n
        tracer_s = 0.0
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                cost = leak[self.name_id[i]]
                child[p] += self.end[i] - self.start[i] + cost
                tracer_s += cost
        calls: Dict[str, int] = dict.fromkeys(self.names, 0)
        self_s: Dict[str, float] = dict.fromkeys(self.names, 0.0)
        for i in range(n):
            name = self.names[self.name_id[i]]
            calls[name] += 1
            self_s[name] += self.end[i] - self.start[i] - child[i]
        return calls, self_s, tracer_s + self_s.get(HOOK, 0.0)


def wrap_sum(tr: Tracer, fn: Callable, hook: Optional[Callable] = None) -> Callable:
    """``sum_terms`` recorded as a span, with its ``term`` argument wrapped too.

    The summand closure changes with every call, so it is wrapped per call;
    that cost is part of this wrapper's calibrated cost.
    """
    traced = tr.wrap("series.sum_terms", fn, hook)
    tr.kind["series.sum_terms"] = "sum"
    wrap = tr.wrap

    def sum_terms(term, order, *rest, **kwargs):
        return traced(wrap("qfunctions.term", term), order, *rest, **kwargs)

    return sum_terms


# ----------------------------------------------------------------------
# counters computed from input sizes (labelled "computed" in the report)


def coeff_bits(s: series.LaurentSeries) -> int:
    """Bit length of the largest numerator or of the common denominator."""
    if not s.nums:
        return s.den.bit_length()
    return max(max(s.nums).bit_length(), min(s.nums).bit_length(), s.den.bit_length())


def mul_products(a: series.LaurentSeries, b: series.LaurentSeries) -> int:
    """Sum over nonzero a_i of (L - i): a is the shorter operand, L the result length."""
    length = min(a.order + b.min_exp, b.order + a.min_exp) - (a.min_exp + b.min_exp)
    if length <= 0:
        return 0
    short = a.nums if len(a.nums) <= len(b.nums) else b.nums
    nz = list(compress(range(length), short[:length]))
    return len(nz) * length - sum(nz)


def invert_products(a: series.LaurentSeries) -> int:
    """Sum over k of the nonzero a_i with 1 <= i <= k, for k below the window length.

    ``a.nums[0]`` is nonzero (series are stored canonically and ``invert``
    rejects zero), so index 0 is always among the nonzero positions.
    """
    n = len(a.nums)
    nz = list(compress(range(n), a.nums))
    return (len(nz) - 1) * n - sum(nz)


def binomial_passes(spec: series.PochhammerSpec, order: int) -> int:
    """Number of (1 -+ q^e) factors a truncated Pochhammer evaluation applies."""
    offset, step, length = spec.offset, spec.step, spec.length
    neg = mu = 0
    e = offset
    while e < 0 and (length is None or neg < length):
        mu += e
        neg += 1
        e = offset + neg * step
    if order <= mu:
        return 0
    bound = max(order, 1) - mu
    hi = -(-(bound - offset) // step)  # first factor index with exponent >= bound
    if length is not None:
        hi = min(hi, length)
    return neg + max(0, hi - neg)


def partitions_enumerated(row: partitions.StatRow) -> int:
    """Objects ``stat_row`` enumerates: p(n) three times, G(n) twice, G'(n) once."""
    return 3 * row.p + 2 * row.two_color + row.two_color_odd


# ----------------------------------------------------------------------
# installation


QLAB_MODULES = (qlab, series, qfunctions, registry, partitions, cli)


def _rebind(original: Callable, replacement: Callable) -> None:
    """Replace every module-level binding of ``original`` inside the package."""
    for module in QLAB_MODULES:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tr: Tracer) -> None:
    ls = series.LaurentSeries

    counters = tr.counters

    def peak_bits(result):
        bits = coeff_bits(result)
        if bits > counters["series.max_coeff_bits"]:
            counters["series.max_coeff_bits"] = bits

    def on_mul(result, a, b):
        counters["series.mul.products"] += mul_products(a, b)
        peak_bits(result)

    def on_invert(result, a):
        counters["series.invert.products"] += invert_products(a)
        peak_bits(result)

    def on_pochhammer(result, spec, order):
        counters["series.pochhammer.binomial_passes"] += binomial_passes(spec, order)
        peak_bits(result)

    def on_sum(result, term, order, *rest, **kwargs):
        peak_bits(result)

    ls.mul = tr.wrap("series.mul", ls.mul, on_mul)
    ls.invert = tr.wrap("series.invert", ls.invert, on_invert)
    ls.add = tr.wrap("series.add", ls.add)
    _rebind(series.pochhammer, tr.wrap("series.pochhammer", series.pochhammer, on_pochhammer))

    _rebind(series.sum_terms, wrap_sum(tr, series.sum_terms, on_sum))
    _rebind(qfunctions.build, tr.wrap("qfunctions.build", qfunctions.build))

    def on_stat_row(result, *args, **kwargs):
        counters["partitions.enumerated"] += partitions_enumerated(result)

    for attr, fn in list(vars(partitions).items()):
        if (
            inspect.isfunction(fn)
            and fn.__module__ == partitions.__name__
            and not attr.startswith("_")
            and not inspect.isgeneratorfunction(fn)
        ):
            hook = on_stat_row if fn is partitions.stat_row else None
            _rebind(fn, tr.wrap(f"partitions.{attr}", fn, hook))

    # registry phases: verify's own code runs, through wrapped catalog entries
    for entry in registry.catalog():
        object.__setattr__(entry, "lhs", tr.wrap("registry.lhs", entry.lhs))
        object.__setattr__(entry, "rhs", tr.wrap("registry.rhs", entry.rhs))
    ls.equal_up_to = tr.wrap("registry.compare", ls.equal_up_to)
    run_row, labels = registry._run_row, tr.row_labels

    def row(entry, spec, order):
        labels.append(entry.id if spec.label is None else f"{entry.id}@{spec.label}")
        return run_row(entry, spec, order)

    _rebind(run_row, tr.wrap("registry.row", row))


# ----------------------------------------------------------------------
# aggregation


def _cache_metrics() -> Dict[str, float]:
    out: Dict[str, float] = {}
    for name in ("qpoch", "inv_qpoch"):
        info = getattr(qfunctions, name).cache_info()
        total = info.hits + info.misses
        out[f"qfunctions.{name}.hits"] = info.hits
        out[f"qfunctions.{name}.misses"] = info.misses
        out[f"qfunctions.{name}.hit_frac"] = info.hits / total if total else 0.0
    cached = {
        fn for module in (qfunctions, registry) for fn in vars(module).values()
        if callable(getattr(fn, "cache_info", None))
    }
    out["qfunctions.cache_entries"] = sum(fn.cache_info().currsize for fn in cached)
    return out


def _stall_origins(tr: Tracer) -> int:
    """``sum_terms`` calls that raised TruncationStall themselves.

    An outer sum whose term contains the stalled sum re-raises the same
    stall; only the innermost one counts.
    """
    stalled = {i for i in tr.indices("series.sum_terms") if tr.errors.get(i) == "TruncationStall"}
    origins = set(stalled)
    for i in stalled:
        p = tr.parent[i]
        while p >= 0:
            origins.discard(p)
            p = tr.parent[p]
    return len(origins)


def stalled_rows(tr: Tracer) -> List[str]:
    """Rows whose lhs or rhs span raised TruncationStall, as id@specialization.

    A stall-pass row returns normally, so the stall shows only on its phases.
    """
    rows = tr.indices("registry.row")
    position = {span: k for k, span in enumerate(rows)}
    stalled = {
        tr.parent[i]
        for i in tr.indices("registry.lhs") + tr.indices("registry.rhs")
        if tr.errors.get(i) == "TruncationStall"
    }
    return sorted(tr.row_labels[position[p]] if p in position else "(outside a row)" for p in stalled)


def layer_metrics(tr: Tracer, output_bytes: int) -> Dict[str, float]:
    calls, self_s, tracer_s = tr.self_times()
    m: Dict[str, float] = {}
    for op in ("mul", "invert", "pochhammer", "add", "sum_terms"):
        m[f"series.{op}.calls"] = calls.get(f"series.{op}", 0)
        m[f"series.{op}.self_s"] = self_s.get(f"series.{op}", 0.0)
    m.update(tr.counters)
    m["series.sum_terms.terms"] = calls.get("qfunctions.term", 0)
    m["series.sum_terms.stalls"] = _stall_origins(tr)
    m["qfunctions.build.calls"] = calls.get("qfunctions.build", 0)
    m["qfunctions.build.self_s"] = self_s.get("qfunctions.build", 0.0)
    m["qfunctions.term.self_s"] = self_s.get("qfunctions.term", 0.0)
    m.update(_cache_metrics())

    rows = tr.indices("registry.row")
    m["registry.rows"] = len(rows)
    for phase in ("lhs", "rhs", "compare"):
        m[f"registry.{phase}_s"] = sum(map(tr.duration, tr.indices(f"registry.{phase}")))
    stalled = {
        tr.parent[i]
        for i in tr.indices("registry.lhs") + tr.indices("registry.rhs")
        if tr.errors.get(i) == "TruncationStall" and tr.parent[i] >= 0
    }
    m["registry.stall_s"] = sum(map(tr.duration, stalled))
    m["registry.row_s.max"] = max(map(tr.duration, rows), default=0.0)

    m["partitions.self_s"] = sum(t for name, t in self_s.items() if name.startswith("partitions."))
    m["cli.self_s"] = self_s.get("cli.main", 0.0)
    m["cli.output_bytes"] = output_bytes
    m["trace.tracer_s"] = tracer_s
    return m


def main(argv: List[str]) -> int:
    tr = Tracer()
    tr.calibrate()
    install(tr)
    buf = io.StringIO()
    traced_main = tr.wrap("cli.main", cli.main)
    with redirect_stdout(buf):
        try:
            code = traced_main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    text = buf.getvalue()
    payload = {
        "exit": code,
        "stdout": text,
        "main_s": tr.duration(tr.indices("cli.main")[0]),
        "stalled_rows": stalled_rows(tr),
        "layers": layer_metrics(tr, len(text.encode("utf-8"))),
    }
    sys.stdout.write(json.dumps(payload) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
