"""Command-line front end.

Subcommands:

* ``compute`` -- evaluate a named series and print an exponent/coefficient
  table (exact rationals, rendered as ``p/q`` strings, integers without the
  slash).
* ``verify`` -- check one identity row, one identity, the whole catalog
  (``all``), or the pure-oracle equality ``thm-1.2-combinatorial``; writes a
  report array, and names on stderr each row that failed with an error.
  Exit code 0 means everything passed, 1 means a mismatch or a builder
  failure, 2 means a usage error.
* ``stats`` -- dump the counting-oracle table next to the matching series
  coefficients with a match flag per column.
* ``list`` -- print the identity catalog.

``QLAB_ORDER_DEFAULT`` overrides the default truncation order.  Output is
deterministic: rows are sorted before they are written.

Each subcommand imports the modules it runs when it runs, so a process
loads only those: ``compute`` the series builders, ``verify`` and ``list``
the identity catalog, ``stats`` the partition oracle and the builders.

``main(argv)`` returns the exit code, for callers in the same process;
``run()`` is the entry point of a ``qlab`` process and ends it once its
output is written, without the interpreter's teardown.
"""

from __future__ import annotations

import argparse
import atexit
import io
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, List, NoReturn, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from . import registry as rg
    from .qfunctions import Monomial, QSeries

USAGE_ERROR = 2
MISMATCH_ERROR = 1


def format_rational(x: Fraction) -> str:
    return str(Fraction(x))  # "p/q", or "p" for an integer


def _default_order() -> int:
    env = os.environ.get("QLAB_ORDER_DEFAULT")
    if env is None:
        return 100
    try:
        value = int(env)
    except ValueError:
        value = 0
    if value < 1:
        print(
            f"error: QLAB_ORDER_DEFAULT must be a positive integer, got {env!r}",
            file=sys.stderr,
        )
        raise SystemExit(USAGE_ERROR)
    return value


def _cannot_write_stdout(exc: OSError) -> None:
    print(f"error: cannot write standard output: {exc.strerror}", file=sys.stderr)


def _write(text: str, path: Optional[str], mode: str = "w") -> None:
    if path is None:
        try:
            out = getattr(sys.stdout, "buffer", None)  # None for a text stream such as io.StringIO
            if out is None:
                sys.stdout.write(text)
            else:  # every byte, since an unbuffered stdout's short write raises nothing
                sys.stdout.flush()
                data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
                while data:
                    data = data[out.write(data) :]
        except OSError as exc:  # a full device, or a reader that closed the pipe
            _cannot_write_stdout(exc)
            raise SystemExit(USAGE_ERROR)
        return
    try:
        with open(path, mode, encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _csv(rows: List[Sequence[object]], header: Sequence[str]) -> str:
    """CSV text under a header row; booleans are written ``true``/``false``, as in JSON."""
    import csv  # loads a shared library, so only CSV output pays for it

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([str(c).lower() if isinstance(c, bool) else c for c in row] for row in rows)
    return out.getvalue()


def _json(payload: object) -> str:
    import json

    return json.dumps(payload, indent=2) + "\n"


# ----------------------------------------------------------------------
# compute


def _parse_params(pairs: List[str]) -> Dict[str, Monomial]:
    from .qfunctions import Monomial

    params: Dict[str, Monomial] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--param expects name=value, got {pair!r}")
        key, _, value = pair.partition("=")
        key = key.strip()
        if key in params:
            raise ValueError(f"--param {key} given more than once")
        params[key] = Monomial.parse(value)
    return params


def cmd_compute(args: argparse.Namespace) -> int:
    from .series import SeriesError  # before qfunctions: see _stat_columns
    from . import qfunctions as qf

    try:
        params = _parse_params(args.param)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        series = qf.build(args.name, args.order, params or None, form=args.form)
    except (qf.UnknownName, qf.MissingParameter, qf.UnsupportedParameter, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (SeriesError, MemoryError) as exc:
        print(f"builder failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return MISMATCH_ERROR
    rows = [
        (k, format_rational(series.coefficient(k)))
        for k in range(series.min_exp, args.order)
    ]
    if args.format == "json":
        _write(_json([{"exponent": k, "coefficient": c} for k, c in rows]), args.output)
    else:
        _write(_csv(rows, ("exponent", "coefficient")), args.output)
    return 0


# ----------------------------------------------------------------------
# verify


def _report_dict(r: rg.VerificationReport) -> dict:
    mismatch = None
    if r.first_mismatch is not None:
        mismatch = {
            "exponent": r.first_mismatch.exponent,
            "lhs": format_rational(r.first_mismatch.lhs),
            "rhs": format_rational(r.first_mismatch.rhs),
        }
    return {
        "id": r.id,
        "specialization": r.specialization,
        "order": r.order,
        "pass": r.passed,
        "first_mismatch": mismatch,
        "elapsed_ms": round(r.elapsed_ms, 3),
    }


def _report_csv_row(report: dict) -> tuple:
    """A report dict as one CSV row under :data:`_REPORT_HEADER`, its mismatch flattened."""
    mismatch = report["first_mismatch"] or {}
    row = {**report, "specialization": report["specialization"] or ""}
    row.update({f"mismatch_{k}": mismatch.get(k) for k in ("exponent", "lhs", "rhs")})
    return tuple(row[k] for k in _REPORT_HEADER)


_REPORT_HEADER = (
    "id",
    "specialization",
    "order",
    "pass",
    "mismatch_exponent",
    "mismatch_lhs",
    "mismatch_rhs",
    "elapsed_ms",
)


def _verify_combinatorial(max_n: int) -> rg.VerificationReport:
    """Pure oracle check: the two-color count equals the positive-odd-rank count."""
    import time

    from . import partitions as pt
    from . import registry as rg

    start = time.perf_counter()
    mismatch = None
    for row in pt.stat_table(max_n):
        if row.two_color != row.odd_positive_rank:
            mismatch = rg.Mismatch(row.n, Fraction(row.two_color), Fraction(row.odd_positive_rank))
            break
    return rg.VerificationReport(
        id="thm-1.2-combinatorial",
        specialization=None,
        order=max_n,
        passed=mismatch is None,
        first_mismatch=mismatch,
        elapsed_ms=(time.perf_counter() - start) * 1000.0,
    )


def _beyond_count_limit(max_n: int) -> bool:
    from .partitions import COUNT_LIMIT

    if max_n <= COUNT_LIMIT:
        return False
    print(f"error: --max-n {max_n} is beyond the counting limit {COUNT_LIMIT}", file=sys.stderr)
    return True


def cmd_verify(args: argparse.Namespace) -> int:
    combinatorial = args.selector == "thm-1.2-combinatorial"
    unused = (
        {"--order": args.order, "--jobs": args.jobs} if combinatorial else {"--max-n": args.max_n}
    )
    for option, value in unused.items():
        if value is not None:
            print(f"error: {option} does not apply to selector {args.selector}", file=sys.stderr)
            return USAGE_ERROR
    if combinatorial:
        max_n = 40 if args.max_n is None else args.max_n
        if _beyond_count_limit(max_n):
            return USAGE_ERROR
        reports = [_verify_combinatorial(max_n)]
    else:
        from . import registry as rg

        try:
            entries = rg.select(args.selector)
        except (rg.UnknownIdentity, rg.UnknownSpecialization) as exc:
            print(f"error: unknown identity selector: {exc}", file=sys.stderr)
            return USAGE_ERROR
        jobs = 1 if args.jobs is None else args.jobs
        reports = rg.verify_all(order=args.order, entries=entries, jobs=jobs)
        for r in reports:
            if r.error is not None:
                print(f"{r.row_id} failed: {r.error}", file=sys.stderr)
    rows = [_report_dict(r) for r in reports]
    if args.format == "json":
        _write(_json(rows), args.output)
    else:
        _write(_csv([_report_csv_row(row) for row in rows], _REPORT_HEADER), args.output)
    return 0 if all(r.passed for r in reports) else MISMATCH_ERROR


# ----------------------------------------------------------------------
# stats


def _stat_columns() -> Dict[str, Tuple[str, QSeries]]:
    """Each stats column: the StatRow field that the oracle fills it from, and its series."""
    # series before qfunctions, as registry imports them: with no cached
    # bytecode each module compiles when imported, and series, the larger,
    # then compiles before qfunctions' code is held, which lowers the peak
    # memory of a fresh process
    from . import series  # noqa: F401
    from . import qfunctions as qf

    return {
        "p": ("p", qf.euler_inv),
        "N_e": ("even_rank", qf.ne_series_rhs),
        # f3 = 1 + sum (N_e(n) - N_o(n)) q^n and 1/(q;q)_inf = sum (N_e(n) + N_o(n)) q^n
        "N_o": ("odd_rank", (qf.euler_inv + qf.f3_def.times(-1)).times(qf.HALF)),
        "N_o_plus": ("odd_positive_rank", qf.builder_forms("No_plus_series")[0]),
        "G": ("two_color", qf.builder_forms("G_series")[0]),
        "G_prime": ("two_color_odd", qf.gprime_series),
        "spt": ("spt", qf.spt_lhs),
        "sptG": ("spt_two_color", qf.sptG_lhs),
        "omega": ("odd_part_bounded", qf.omega3_def.times(e=1)),
    }


def _stat_rows(max_n: int, stat_columns: Dict[str, Tuple[str, QSeries]]) -> List[dict]:
    from .partitions import stat_table

    columns = [(col, field, side(max_n + 1)) for col, (field, side) in stat_columns.items()]
    out = []
    for row in stat_table(max_n):
        flat: dict = {"n": row.n}
        for col, field, series in columns:
            oracle = getattr(row, field)
            sval = series.coefficient(row.n)
            flat[col] = str(oracle)
            flat[f"{col}_series"] = format_rational(sval)
            flat[f"{col}_match"] = sval == oracle
        out.append(flat)
    return out


def cmd_stats(args: argparse.Namespace) -> int:
    if _beyond_count_limit(args.max_n):
        return USAGE_ERROR
    columns = _stat_columns()
    rows = _stat_rows(args.max_n, columns)
    header = ["n"]
    for col in columns:
        header.extend((col, f"{col}_series", f"{col}_match"))
    if args.format == "json":
        _write(_json(rows), args.output)
    else:
        # each row holds the header's keys, in order
        _write(_csv([list(row.values()) for row in rows], header), args.output)
    ok = all(row[f"{col}_match"] for row in rows for col in columns)
    return 0 if ok else MISMATCH_ERROR


# ----------------------------------------------------------------------
# list


def cmd_list(args: argparse.Namespace) -> int:
    from . import registry as rg

    rows = []
    for entry in rg.catalog():
        for spec in entry.specializations:
            rows.append(
                {
                    "id": entry.id,
                    "specialization": spec.label,
                    "row": rg.row_name(entry.id, spec.label),
                    "order": entry.default_order,
                    "expects_stall": spec.expects_stall,
                    "anchor": entry.anchor,
                }
            )
    if args.format == "json":
        _write(_json(rows), args.output)
    elif args.format == "csv":
        csv_rows = [(r["row"], r["order"], r["expects_stall"], r["anchor"]) for r in rows]
        _write(_csv(csv_rows, ("row", "order", "expects_stall", "anchor")), args.output)
    else:
        lines = [
            f"{r['row']:<34} order={r['order']:<4}"
            f"{' [expects stall]' if r['expects_stall'] else ''}  {r['anchor']}"
            for r in rows
        ]
        _write("\n".join(lines) + "\n", args.output)
    return 0


# ----------------------------------------------------------------------
# argument parsing


def _add_output(
    p: argparse.ArgumentParser,
    default: str,
    formats: Sequence[str] = ("json", "csv"),
    flag: str = "--output",
) -> None:
    p.add_argument("--format", choices=formats, default=default)
    p.add_argument(flag, dest="output", metavar="PATH", help="write to this path instead of stdout")


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None) -> None:
        """Help to stdout goes through :func:`_write`: argparse would swallow a failed write."""
        if file is None:
            return _write(self.format_help(), None)
        super().print_help(file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qlab",
        description="Exact q-series laboratory: compute series, verify identities, "
        "cross-check against integer partition counts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    default_order = _default_order()

    p = sub.add_parser("compute", help="evaluate a named series")
    p.add_argument("name")
    p.add_argument("--order", type=int, default=default_order)
    p.add_argument("--form", type=int, default=0, help="builder form index")
    p.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NAME=MONOMIAL",
        help="monomial parameter, e.g. b=q^2 (repeatable)",
    )
    _add_output(p, "csv")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("verify", help="verify identities")
    p.add_argument("selector", help="'all', an id, id@specialization, or thm-1.2-combinatorial")
    p.add_argument("--order", type=int, default=None)
    p.add_argument(
        "--max-n", type=int, default=None, dest="max_n", help="thm-1.2-combinatorial only (default 40)"
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for catalog selectors (default 1; a pool pays from order 400 on)",
    )
    _add_output(p, "json", flag="--report")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("stats", help="oracle table with series cross-checks")
    p.add_argument("--max-n", type=int, default=20, dest="max_n")
    p.add_argument(
        "--jobs", type=int, default=None, help="accepted for old scripts; it has no effect"
    )
    _add_output(p, "csv")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("list", help="print the identity catalog")
    _add_output(p, "text", ("text", "json", "csv"))
    p.set_defaults(func=cmd_list)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "order", None) is not None and args.order < 1:
        parser.error("--order must be positive")
    if getattr(args, "max_n", None) is not None and args.max_n < 1:
        parser.error("--max-n must be positive")
    if getattr(args, "jobs", None) is not None and args.jobs < 1:
        parser.error("--jobs must be positive")
    if args.output is not None:  # every command writes here; fail now, before any work
        created = not os.path.lexists(args.output)
        _write("", args.output, "a")  # appending nothing truncates nothing
        if created:
            os.remove(args.output)
    return args.func(args)


def run() -> NoReturn:
    """Run :func:`main` on the process's arguments and end the process with its exit code.

    The entry point of ``python -m qlab.cli`` and of the ``qlab`` script.  A
    ``SystemExit`` gives its code as the interpreter would read it.  The
    ``atexit`` handlers still run (multiprocessing's finalizers, after a
    ``--jobs`` pool), and stdout and stderr are flushed; then ``os._exit``
    skips the interpreter's teardown (the final garbage collection and the
    freeing of every module and object), which only returns memory the
    operating system reclaims anyway.  An exception other than
    ``SystemExit`` is a bug and leaves by the interpreter's usual path, with
    its traceback.
    """
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code
    if code is None:
        code = 0
    elif not isinstance(code, int):
        print(code, file=sys.stderr)
        code = 1
    atexit._run_exitfuncs()  # what the interpreter calls at exit; os._exit would skip it
    if sys.stdout is not None:  # None when the process started with stdout closed
        try:
            sys.stdout.flush()
        except OSError as exc:
            if code != USAGE_ERROR:  # else _write has reported this stdout already
                _cannot_write_stdout(exc)
            code = USAGE_ERROR
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
