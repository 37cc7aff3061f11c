"""Closed-loop benchmark of the qlab command line.

Usage::

    python3 perfbench/run.py --workload {verify-all,deep,oracle} \\
        [--seed N] [--seconds S] [--trace 0|1] [--holdout]

Run from the root of a source checkout; the package is imported from
``src/``.  One client runs the workload's invocations in sequence, each one a
fresh ``python -m qlab.cli`` process with ``--jobs 1`` wherever the command
takes it, so every invocation starts with cold caches.  Passes over the
invocation list repeat until the next invocation would end after
``--seconds``, and a workload's time is the sum of each invocation's median.
Every output is checked against the known verdict and a digest stored from
the reference code (``perfbench/digests.json``); a miss counts as a failed
invocation.

Children are started through ``perfbench/launch.py``, which measures them
with ``os.wait4``.  A fixed pure-Python probe of host speed runs before and
after each one, and reported times are scaled to a reference host speed, so
that the shared host's drift does not read as a change in qlab.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
invocation untraced and then under ``perfbench/traced.py`` and reports the
per-layer metrics.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give each invocation's median, quartiles and sample count.
``perfbench/README.md`` describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACED = HERE / "traced.py"
LAUNCH = HERE / "launch.py"
DIGESTS = HERE / "digests.json"

CLI = ["-m", "qlab.cli"]

# Single-row selectors honour --order; `verify all --order N` would clamp
# rows to their default order, so `deep` never uses it.
DEEP = [
    ["verify", "thm-1.1", "--order", "800", "--jobs", "1"],
    ["verify", "eq-transf", "--order", "400", "--jobs", "1"],
    ["verify", "eq-z-identity@z=q^3", "--order", "400", "--jobs", "1"],
    ["compute", "spt_lhs", "--order", "400"],
]

WORKLOADS: Dict[str, List[List[str]]] = {
    "verify-all": [["verify", "all", "--jobs", "1"]],
    "deep": DEEP,
    "oracle": [["stats", "--max-n", "36", "--jobs", "1"]],
}

# Rows a --holdout draw may put in place of the middle two deep rows: every
# convergent catalog row not already in the workload, all at order 400.
HOLDOUT_ORDER = 400
HOLDOUT_EXCLUDED = {"thm-1.1", "eq-transf", "eq-z-identity@z=q^3", "eq-before-ac@b=1"}

STALL_ROW = "eq-before-ac@b=1"  # the divergence control: passes by raising TruncationStall
SPT_CHECKED = 40  # coefficients of `compute spt_lhs` compared with qlab.spt(n)
SETUP_SAMPLES = 30
SETUP_GROUP = 3

# About the median time of calibrate() on the host the baseline was recorded on
# (perfbench/baseline.json).  Times are reported at that host speed.
CALIBRATION_REF_S = 0.2
# A time is divided by the slowdown to this power.  qlab's processes slow down
# less than the probe does: on the 2-core host, over 46-138 interleaved runs of
# `verify all`, `stats --max-n 36`, `verify thm-1.1 --order 800` and
# `import qlab`, the exponent 0.85 left a smaller spread than 1 on every one.
SLOWDOWN_EXPONENT = 0.85

END_TO_END = {
    "verdict_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    **{
        f"series.{op}.{field}": unit
        for op in ("mul", "invert", "pochhammer", "add")
        for field, unit in (("calls", "count"), ("self_s", "s"))
    },
    "series.mul.products": "computed-count",
    "series.invert.products": "computed-count",
    "series.pochhammer.binomial_passes": "computed-count",
    "series.sum_terms.calls": "count",
    "series.sum_terms.self_s": "s",
    "series.sum_terms.terms": "count",
    "series.sum_terms.stalls": "count",
    "series.max_coeff_bits": "bits",
    "qfunctions.build.calls": "count",
    "qfunctions.build.self_s": "s",
    "qfunctions.term.self_s": "s",
    "qfunctions.qpoch.hit_frac": "fraction",
    "qfunctions.qpoch.hits": "count",
    "qfunctions.qpoch.misses": "count",
    "qfunctions.inv_qpoch.hit_frac": "fraction",
    "qfunctions.inv_qpoch.hits": "count",
    "qfunctions.inv_qpoch.misses": "count",
    "qfunctions.cache_entries": "count",
    "registry.rows": "count",
    "registry.lhs_s": "s",
    "registry.rhs_s": "s",
    "registry.compare_s": "s",
    "registry.stall_s": "s",
    "registry.row_s.max": "s",
    "partitions.self_s": "s",
    "partitions.enumerated": "computed-count",
    "partitions.items_per_s": "computed-1/s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_frac": "fraction",
    "trace.untraced_s": "s",
    "trace.tracer_s": "s",
}

# A workload's per-layer value is the sum over its invocations, except these
# maxima and the ratios and trace figures computed from the sums.
MAXIMA = {"series.max_coeff_bits", "qfunctions.cache_entries", "registry.row_s.max"}
DERIVED = {
    "qfunctions.qpoch.hit_frac",
    "qfunctions.inv_qpoch.hit_frac",
    "partitions.items_per_s",
    "trace.overhead_frac",
    "trace.untraced_s",
}


class BenchError(Exception):
    """The benchmark cannot run here (no sources, wrong package, bad arguments)."""


# ----------------------------------------------------------------------
# child processes


@dataclass
class Invocation:
    """One finished child process: its times, peak memory and output."""

    argv: List[str]
    wall: float
    cpu: float
    rss_kb: int
    exit_code: int
    stdout: str
    stderr: str
    slowdown: float = 1.0  # host slowdown around this run; see Run.run_one()


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("QLAB_ORDER_DEFAULT", None)  # would change the commands' default orders
    return env


def spawn(args: Sequence[str], env: Dict[str, str]) -> Invocation:
    """Run ``python <args>`` to completion through ``launch.py``."""
    rfd, wfd = os.pipe()
    try:
        proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(LAUNCH), str(wfd), sys.executable, *args],
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            pass_fds=(wfd,),
        )
    finally:
        os.close(wfd)
    with os.fdopen(rfd) as report:
        out, err = proc.communicate()
        fields = report.read().split()
    if proc.returncode != 0 or len(fields) != 4:
        raise BenchError(f"launcher failed ({proc.returncode}): {err.decode('utf-8', 'replace')[-300:]}")
    wall, cpu, rss_kb, code = fields
    return Invocation(
        list(args),
        float(wall),
        float(cpu),
        int(rss_kb),
        int(code),
        out.decode("utf-8", "replace"),
        err.decode("utf-8", "replace"),
    )


def run_cli(argv: Sequence[str], env: Dict[str, str], traced: bool) -> Tuple[Invocation, Optional[dict]]:
    """One CLI invocation; a traced one unwraps the tracer's JSON envelope."""
    inv = spawn([*([str(TRACED)] if traced else CLI), *argv], env)
    inv.argv = list(argv)
    if not traced:
        return inv, None
    try:
        payload = json.loads(inv.stdout)
    except ValueError:
        return inv, None  # the tracer itself failed; the check reports it
    inv.exit_code, inv.stdout = payload["exit"], payload["stdout"]
    return inv, payload


# ----------------------------------------------------------------------
# verdict checks


def digest(argv: Sequence[str], stdout: str) -> str:
    """sha256 of the output; verify reports are digested without elapsed_ms."""
    text = stdout
    if argv[0] == "verify":
        rows = json.loads(stdout)
        for row in rows:
            row.pop("elapsed_ms", None)
        text = json.dumps(rows, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_key(argv: Sequence[str]) -> str:
    return " ".join(argv)


class Checker:
    """Knows the right answer for every invocation the workloads make."""

    def __init__(self, digests: Dict[str, str]):
        self.digests = digests
        self._spt: Optional[List[int]] = None

    def prepare(self, invocations: Sequence[Sequence[str]]) -> List[Optional[str]]:
        """Compute the oracle answers up front, outside every timed window.

        For ``verify all`` it also runs the divergence control in this
        process: the JSON report does not say whether a row stalled, so that
        ``eq-before-ac@b=1`` passes by stalling is checked here, and in
        traced passes from the tracer's spans.  Returns one outcome per check
        made here: None when it holds, else why not.
        """
        import qlab
        from qlab import registry

        outcomes: List[Optional[str]] = []
        if any(argv[:2] == ["verify", "all"] for argv in invocations):
            entry_id, label = STALL_ROW.split("@")
            try:
                report = registry.verify(entry_id, label)
            except Exception as exc:
                outcomes.append(f"{STALL_ROW}: {type(exc).__name__}: {exc}")
            else:
                ok = report.passed and report.stalled
                outcomes.append(
                    None if ok else f"{STALL_ROW}: passed={report.passed} "
                    f"stalled={report.stalled}, expected a stall-pass"
                )
        if any(argv[:2] == ["compute", "spt_lhs"] for argv in invocations):
            self._spt = [qlab.spt(n) for n in range(1, SPT_CHECKED + 1)]
        return outcomes

    def verdict(self, inv: Invocation) -> Optional[str]:
        """None when exit code and output give the known answer, else why not."""
        argv = inv.argv
        if inv.exit_code != 0:
            return f"exit code {inv.exit_code}: {inv.stderr.strip()[-300:]}"
        try:
            return getattr(self, "_check_" + argv[0])(argv, inv.stdout)
        except (ValueError, KeyError, IndexError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"

    def check(self, inv: Invocation) -> Optional[str]:
        """The verdict check plus the reference digest of the whole output."""
        argv = inv.argv
        problem = self.verdict(inv)
        if problem:
            return problem
        want = self.digests.get(digest_key(argv))
        if want is None:
            return "no stored digest for this invocation"
        if digest(argv, inv.stdout) != want:
            return "output differs from the stored reference digest"
        return None

    def check_traced(self, argv: Sequence[str], payload: dict) -> Optional[str]:
        """The rows the tracer saw stall: the divergence control and no other."""
        if argv[0] != "verify":
            return None
        want = [STALL_ROW] if argv[1] == "all" else []
        if payload["stalled_rows"] != want:
            return f"rows that stalled are {payload['stalled_rows']}, expected {want}"
        return None

    def _check_verify(self, argv: Sequence[str], stdout: str) -> Optional[str]:
        rows = json.loads(stdout)
        failed = [r["id"] for r in rows if r["pass"] is not True]
        if failed:
            return f"rows not passing: {failed}"
        if argv[1] != "all" and "--order" in argv:
            want = int(argv[argv.index("--order") + 1])
            clamped = [(r["id"], r["order"]) for r in rows if r["order"] != want]
            if clamped:
                return f"rows ran at another order than {want}: {clamped}"
        return None

    def _check_compute(self, argv: Sequence[str], stdout: str) -> Optional[str]:
        if argv[1] != "spt_lhs":
            return None
        coeffs = dict(line.split(",") for line in stdout.splitlines()[1:])
        got = [int(coeffs[str(n)]) for n in range(1, SPT_CHECKED + 1)]
        if got != self._spt:
            bad = next(n for n, (a, b) in enumerate(zip(got, self._spt), 1) if a != b)
            return f"spt_lhs coefficient {bad} is {got[bad - 1]}, oracle says {self._spt[bad - 1]}"
        return None

    def _check_stats(self, argv: Sequence[str], stdout: str) -> Optional[str]:
        lines = stdout.splitlines()
        header = lines[0].split(",")
        flags = [i for i, h in enumerate(header) if h.endswith("_match")]
        for line in lines[1:]:
            cells = line.split(",")
            wrong = [header[i] for i in flags if cells[i] != "true"]
            if wrong:
                return f"n={cells[0]}: {wrong} false"
        return None


# ----------------------------------------------------------------------
# measurement


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def machine_facts(seed: int) -> Dict[str, object]:
    try:
        nproc = int(subprocess.run(["nproc"], capture_output=True, text=True, check=True).stdout)
    except (OSError, ValueError, subprocess.CalledProcessError):
        nproc = None
    return {
        "nproc": nproc,
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "seed": seed,
    }


_CAL = random.Random(20250113)
_CAL_A = [_CAL.getrandbits(100) for _ in range(250)]
_CAL_B = [_CAL.getrandbits(100) for _ in range(250)]
_CAL_SPARSE = [(i, (-1) ** i) for i in range(1, 800, 3)]


def _partitions(n: int, top: int):
    """Partitions of n with parts at most top, largest part first."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, top), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def calibrate() -> float:
    """Seconds this process takes for a fixed pure-Python probe of host speed.

    The probe mixes the kinds of work qlab does (big-integer multiply-adds in
    list comprehensions, a small-integer recurrence in a Python loop, small
    object churn, recursive generators building tuples) and shares no code
    with qlab, so a change to qlab cannot move it.  On a shared host the
    speed of a core changes by half within seconds to minutes, and the
    children's wall and CPU times change with it.
    """
    start = time.perf_counter()
    n = len(_CAL_A)
    for _ in range(2):
        out = [0] * n
        for i, ai in enumerate(_CAL_A):
            out[i:] = [x + ai * y for x, y in zip(out[i:], _CAL_B[: n - i])]
        inv = [0] * 800
        inv[0] = 1
        for k in range(1, 800):
            acc = 0
            for i, ai in _CAL_SPARSE:
                if i > k:
                    break
                acc += ai * inv[k - i]
            inv[k] = -acc
        table = {}
        for i in range(40000):
            table[(i, i & 7)] = divmod(i, 7)
    parts = 0
    for p in _partitions(36, 36):
        parts += len(sorted(p, key=lambda v: -v))
    return time.perf_counter() - start


def measure_setup(env: Dict[str, str]) -> List[Invocation]:
    """Fresh-interpreter `import qlab` runs, after one untimed warm-up.

    The warm-up also writes the .pyc files and confirms that the package
    comes from this checkout's ``src/``.  Imports are short next to the host
    probe, so they run in groups of ``SETUP_GROUP`` between two probes.
    """
    warm = spawn(["-c", "import qlab, sys; sys.stdout.write(qlab.__file__)"], env)
    if warm.exit_code != 0 or not Path(warm.stdout).resolve().is_relative_to(SRC):
        raise BenchError(f"cannot import qlab from {SRC}: {warm.stderr.strip() or warm.stdout}")
    samples, probe = [], calibrate()
    for _ in range(SETUP_SAMPLES // SETUP_GROUP):
        group = [spawn(["-c", "import qlab"], env) for _ in range(SETUP_GROUP)]
        before, probe = probe, calibrate()
        for inv in group:
            inv.slowdown = (before + probe) / 2 / CALIBRATION_REF_S
        samples += group
    return samples


def holdout_rows(seed: int) -> List[List[str]]:
    """DEEP with its middle two rows replaced by a seeded draw of two other rows."""
    from qlab import registry

    pool = [r for r in registry.all_row_ids() if r not in HOLDOUT_EXCLUDED]
    drawn = random.Random(seed).sample(pool, 2)
    rows = [["verify", r, "--order", str(HOLDOUT_ORDER), "--jobs", "1"] for r in drawn]
    return [DEEP[0], *rows, DEEP[-1]]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def combine(metrics: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Per-layer metrics of a workload from those of its invocations."""
    out = {}
    for name in PER_LAYER:
        if name not in DERIVED:
            values = [m[name] for m in metrics]
            out[name] = max(values, default=0) if name in MAXIMA else sum(values)
    for cache in ("qpoch", "inv_qpoch"):
        hits, misses = out[f"qfunctions.{cache}.hits"], out[f"qfunctions.{cache}.misses"]
        out[f"qfunctions.{cache}.hit_frac"] = _ratio(hits, hits + misses)
    out["partitions.items_per_s"] = _ratio(out["partitions.enumerated"], out["partitions.self_s"])
    return out


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, traced: bool, holdout: bool):
        self.invocations = holdout_rows(seed) if holdout else WORKLOADS[workload]
        self.rng = random.Random(seed)
        self.seconds = seconds
        self.traced = traced
        self.env = child_env()
        self.checker = Checker(json.loads(DIGESTS.read_text()))
        self.attempted = 0
        self.failures: List[str] = []
        keys = [digest_key(argv) for argv in self.invocations]
        self.plain: Dict[str, List[Invocation]] = {k: [] for k in keys}
        self.traced_runs: Dict[str, List[Tuple[Invocation, dict]]] = {k: [] for k in keys}
        self._probe = 0.0

    def prepare(self) -> None:
        """The checker's untimed set-up; a wrong answer there is a failed check."""
        outcomes = self.checker.prepare(self.invocations)
        self.attempted += len(outcomes)
        self.failures += [problem for problem in outcomes if problem]

    def run_one(self, argv: Sequence[str], traced: bool) -> Tuple[Invocation, Optional[dict]]:
        """One checked invocation; its slowdown is the mean of the probes around it."""
        inv, payload = run_cli(argv, self.env, traced)
        before, self._probe = self._probe, calibrate()
        inv.slowdown = (before + self._probe) / 2 / CALIBRATION_REF_S
        self.attempted += 1
        if traced and payload is None:
            problem = f"tracer failed: {inv.stderr.strip()[-300:]}"
        else:
            problem = self.checker.check(inv)
            if problem is None and payload is not None:
                problem = self.checker.check_traced(argv, payload)
        if problem:
            self.failures.append(f"{digest_key(argv)}{' (traced)' if traced else ''}: {problem}")
        return inv, payload

    def loop(self) -> None:
        """Closed loop over passes of the invocations, each pass in a seeded order.

        Every invocation runs at least once; after that the loop stops before
        the first invocation that, timed as its last run, would end after
        ``seconds``.  So a run ends within one invocation of its time, not
        one pass.  With ``--trace 1`` each invocation runs untraced and then
        traced.
        """
        start = time.perf_counter()
        took: Dict[str, float] = {}
        self._probe = calibrate()
        while True:
            order = list(self.invocations)
            self.rng.shuffle(order)
            for argv in order:
                key = digest_key(argv)
                if key in took and time.perf_counter() - start + took[key] > self.seconds:
                    return
                t0 = time.perf_counter()
                self.plain[key].append(self.run_one(argv, False)[0])
                if self.traced:
                    inv, payload = self.run_one(argv, True)
                    if payload is not None:
                        self.traced_runs[key].append((inv, payload))
                took[key] = time.perf_counter() - t0


def summary(name: str, unit: str, values: Sequence[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{name:<36} median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}"


def scaled(inv: Invocation, field: str) -> float:
    """The invocation's wall or CPU time at the reference host speed."""
    return getattr(inv, field) / inv.slowdown**SLOWDOWN_EXPONENT


def median_sum(runs: Dict[str, List[Invocation]], value) -> float:
    """Sum over the invocations of the median of ``value`` over each one's runs."""
    return sum(statistics.median(map(value, invs)) for invs in runs.values() if invs)


def report_end_to_end(run: Run, setup: List[Invocation]) -> Dict[str, float]:
    """Times are scaled to the reference host speed; memory is as measured.

    A workload's time is the sum over its invocations of each one's median.
    """
    everything = [i for invs in run.plain.values() for i in invs]
    print(summary("host slowdown (probe / reference)", "x", [i.slowdown for i in everything + setup]))
    for key, invs in run.plain.items():
        print(summary(f"  {key}", "s", [scaled(i, "wall") for i in invs]))
    print(f"{'verdict_s as measured':<36} {median_sum(run.plain, lambda i: i.wall):.6g} s")
    print(f"{'cpu_s as measured':<36} {median_sum(run.plain, lambda i: i.cpu):.6g} s")
    print(summary("setup_s as measured", "s", [i.wall for i in setup]))
    out = {
        "verdict_s": median_sum(run.plain, lambda i: scaled(i, "wall")),
        "cpu_s": median_sum(run.plain, lambda i: scaled(i, "cpu")),
        "peak_rss_mb": max(i.rss_kb for i in everything) / 1024.0,
    }
    for name, value in out.items():
        print(f"{name:<36} {value:.6g} {END_TO_END[name]}")
    setup_s = [scaled(i, "wall") for i in setup]
    print(summary("setup_s", "s", setup_s))
    out["setup_s"] = statistics.median(setup_s)
    return out


def report_per_layer(run: Run) -> Dict[str, float]:
    """Each invocation's median over its traced runs, combined over the workload."""
    per_invocation = [
        {name: statistics.median(p["layers"][name] for _, p in runs) for name in runs[0][1]["layers"]}
        for runs in run.traced_runs.values()
        if runs
    ]
    out = combine(per_invocation)
    traced = {k: [inv for inv, _ in runs] for k, runs in run.traced_runs.items()}
    out["trace.untraced_s"] = sum(
        statistics.median(inv.wall - p["main_s"] for inv, p in runs)
        for runs in run.traced_runs.values()
        if runs
    )
    plain = median_sum(run.plain, lambda i: scaled(i, "wall"))
    traced_s = median_sum(traced, lambda i: scaled(i, "wall"))
    out["trace.overhead_frac"] = _ratio(traced_s, plain) - 1.0
    n = min(len(runs) for runs in run.traced_runs.values())
    print(f"traced runs per invocation: at least {n}; traced {traced_s:.6g} s vs untraced {plain:.6g} s")
    for name, unit in PER_LAYER.items():
        print(f"{name:<36} {out[name]:.6g} {unit}")
    return {name: out[name] for name in PER_LAYER}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--holdout",
        action="store_true",
        help="replace the middle two deep rows with a seeded draw of two other rows at order 400",
    )
    args = parser.parse_args(argv)
    if args.holdout and args.workload != "deep":
        parser.error("--holdout applies to the deep workload only")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "qlab" / "__init__.py").is_file():
        print(f"error: no qlab sources under {SRC}", file=sys.stderr)
        return 2
    try:
        sys.path.insert(0, str(SRC))
        run = Run(args.workload, args.seed, args.seconds, bool(args.trace), args.holdout)
        setup = measure_setup(run.env)
        run.prepare()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    facts = machine_facts(args.seed)
    print(f"workload {args.workload}  " + "  ".join(f"{k}={v}" for k, v in facts.items()))
    for argv in run.invocations:
        print("  qlab " + " ".join(argv))
    run.loop()
    metrics = report_per_layer(run) if args.trace else report_end_to_end(run, setup)
    units = {**END_TO_END, **PER_LAYER}
    for problem in run.failures:
        print("WRONG " + problem, file=sys.stderr)
    failed = len(run.failures)
    print(f"wrong_verdict_frac {failed / run.attempted:.6g} ({failed} of {run.attempted} invocations)")
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
