"""End-to-end tests of the command-line interface."""

import csv
import io
import json
import os
import re
import subprocess
import sys
import time
from contextlib import ExitStack
from unittest.mock import patch

import pytest

from qlab import qfunctions as qf
from qlab.cli import format_rational, main
from qlab.series import LaurentSeries, TruncationStall


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_euler_inverse_rows(capsys):
    code, out, _ = run(capsys, "compute", "euler_inverse", "--order", "6")
    assert code == 0
    assert out == "exponent,coefficient\n0,1\n1,1\n2,2\n3,3\n4,5\n5,7\n"


def test_compute_g_series_anchor_row(capsys):
    code, out, _ = run(capsys, "compute", "G_series", "--order", "9")
    assert code == 0
    assert "8,7" in out.splitlines()


def test_compute_f3_rows(capsys):
    code, out, _ = run(capsys, "compute", "f3_def", "--order", "3")
    assert code == 0
    assert out.splitlines()[1:] == ["0,1", "1,1", "2,-2"]


def test_compute_json_and_csv_agree(capsys):
    code, csv_out, _ = run(capsys, "compute", "spt_lhs", "--order", "8")
    assert code == 0
    code, json_out, _ = run(capsys, "compute", "spt_lhs", "--order", "8", "--format", "json")
    assert code == 0
    parsed = json.loads(json_out)
    csv_rows = [line.split(",") for line in csv_out.splitlines()[1:]]
    assert [(str(r["exponent"]), r["coefficient"]) for r in parsed] == [
        (a, b) for a, b in csv_rows
    ]


def test_compute_unknown_name_usage_error(capsys):
    code, out, err = run(capsys, "compute", "not_a_series")
    assert code == 2
    assert (out, err) == ("", "error: unknown series name 'not_a_series'\n")


def test_compute_with_parameter(capsys):
    code, out, _ = run(
        capsys, "compute", "lem21_lhs", "--order", "6", "--param", "b=q"
    )
    assert code == 0
    assert out.splitlines()[1].startswith("0,")


def test_compute_missing_parameter_usage_error(capsys):
    code, _, err = run(capsys, "compute", "lem21_lhs", "--order", "6")
    assert code == 2


def test_compute_builder_failure_exit_code(capsys, monkeypatch):
    def stall(*args, **kwargs):
        raise TruncationStall("synthetic")

    monkeypatch.setattr(qf, "build", stall)
    code, _, err = run(capsys, "compute", "euler_inverse", "--order", "6")
    assert code == 1
    assert "TruncationStall" in err


def test_compute_laurent_table_includes_negative_exponents(capsys):
    code, out, _ = run(
        capsys, "compute", "z_identity_rhs", "--order", "4", "--param", "z=q^3"
    )
    assert code == 0
    assert out.splitlines()[1].startswith("-1,")


def test_verify_all_small_order(capsys):
    code, out, _ = run(capsys, "verify", "all", "--order", "2", "--jobs", "1")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 42
    assert all(r["pass"] for r in reports)
    assert set(reports[0]) == {
        "id",
        "specialization",
        "order",
        "pass",
        "first_mismatch",
        "elapsed_ms",
    }


def test_verify_single_identity(capsys):
    code, out, _ = run(capsys, "verify", "thm-1.1", "--order", "30")
    assert code == 0
    (report,) = json.loads(out)
    assert report["id"] == "thm-1.1" and report["pass"]


def test_verify_specialized_row(capsys):
    code, out, _ = run(capsys, "verify", "lem-2.1@b=q", "--order", "15")
    assert code == 0
    (report,) = json.loads(out)
    assert report["specialization"] == "b=q"


def test_verify_bare_id_covers_all_specializations(capsys):
    code, out, _ = run(capsys, "verify", "entry-239", "--order", "15")
    assert code == 0
    reports = json.loads(out)
    assert [r["specialization"] for r in reports] == ["a=1", "a=q", "a=q^2"]


def test_verify_builder_failure_is_a_failed_report(capsys, monkeypatch):
    import qlab.registry as rg
    from qlab.record import replace
    from qlab.series import NotInvertible

    def broken(order):
        raise NotInvertible("synthetic builder failure")

    entry = replace(rg.get_entry("thm-1.1"), rhs=broken)
    monkeypatch.setitem(rg._BY_ID, "thm-1.1", entry)
    code, out, err = run(capsys, "verify", "thm-1.1", "--order", "10", "--jobs", "1")
    assert code == 1
    (report,) = json.loads(out)
    assert report["id"] == "thm-1.1" and not report["pass"]
    assert "Traceback" not in err
    assert err == "thm-1.1 failed: NotInvertible: synthetic builder failure\n"


def test_verify_unknown_id_usage_error(capsys):
    code, _, err = run(capsys, "verify", "unknown-id")
    assert code == 2


def test_verify_combinatorial_delegate(capsys):
    code, out, _ = run(capsys, "verify", "thm-1.2-combinatorial", "--max-n", "12")
    assert code == 0
    (report,) = json.loads(out)
    assert report["id"] == "thm-1.2-combinatorial"
    assert report["order"] == 12
    code, out, _ = run(capsys, "verify", "thm-1.2-combinatorial")
    assert code == 0
    assert json.loads(out)[0]["order"] == 40
    code, out, _ = run(capsys, "verify", "thm-1.2-combinatorial", "--max-n", "200")
    assert code == 0
    assert json.loads(out)[0]["pass"] is True


def test_verify_mismatch_exit_code(capsys, monkeypatch):
    import qlab.registry as rg
    from qlab.registry import VerificationReport

    failed = VerificationReport(
        id="thm-1.1",
        specialization=None,
        order=10,
        passed=False,
        first_mismatch=None,
        elapsed_ms=1.0,
    )
    monkeypatch.setattr(rg, "verify_all", lambda **kw: [failed])
    code, out, _ = run(capsys, "verify", "all", "--order", "2", "--jobs", "1")
    assert code == 1


def test_verify_csv_report(capsys):
    code, out, _ = run(
        capsys, "verify", "lem-3.1", "--order", "12", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("id,specialization,order,pass")
    assert lines[1].startswith("lem-3.1,,12,true")


def test_report_written_to_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "verify", "eq-2phi12", "--order", "10", "--report", str(path)
    )
    assert code == 0
    assert out == ""
    reports = json.loads(path.read_text())
    assert reports[0]["id"] == "eq-2phi12"
    assert path.read_bytes().endswith(b"\n")


def test_stats_anchor_row(capsys):
    code, out, _ = run(capsys, "stats", "--max-n", "8", "--jobs", "1", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    row8 = rows[-1]
    assert row8["n"] == 8
    assert row8["N_o_plus"] == "7" and row8["G"] == "7"
    assert row8["N_o_plus_match"] and row8["G_match"]


def test_stats_minimal(capsys):
    code, out, _ = run(capsys, "stats", "--max-n", "1", "--jobs", "1", "--format", "json")
    assert code == 0
    (row,) = json.loads(out)
    assert row["p"] == "1" and row["spt"] == "1"


def test_stats_spt_column(capsys):
    code, out, _ = run(capsys, "stats", "--max-n", "4", "--jobs", "1", "--format", "json")
    assert code == 0
    assert [r["spt"] for r in json.loads(out)] == ["1", "3", "5", "10"]


def test_stats_csv_and_json_same_content(capsys):
    code, json_out, _ = run(capsys, "stats", "--max-n", "5", "--jobs", "1", "--format", "json")
    assert code == 0
    code, csv_out, _ = run(capsys, "stats", "--max-n", "5", "--jobs", "1", "--format", "csv")
    assert code == 0
    lines = csv_out.splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    for jrow, crow in zip(json.loads(json_out), rows):
        for key, value in jrow.items():
            expected = str(value).lower() if isinstance(value, bool) else str(value)
            assert crow[key] == expected, key


def test_stats_columns_take_no_series_arithmetic(capsys):
    """Each ``stats`` column is one ``QSeries``; none adds, scales or shifts series."""
    names = ("add", "neg", "sub", "scale", "shift", "mul", "invert")
    qf.qsum.cache_clear()  # so that no column is a memo hit
    with ExitStack() as stack:
        for name in names:
            stack.enter_context(patch.object(LaurentSeries, name, side_effect=AssertionError(name)))
        patched = run(capsys, "stats", "--max-n", "60")
    assert patched[0] == 0
    assert patched == run(capsys, "stats", "--max-n", "60")


def test_stats_over_cap_usage_error(capsys):
    code, _, err = run(capsys, "stats", "--max-n", "201", "--jobs", "1")
    assert code == 2
    assert err.strip() == "error: --max-n 201 is beyond the counting limit 200"


def test_list_contains_stall_row_and_enough_rows(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) >= 31
    assert any(line.startswith("lem-2.1@b=1") for line in lines)
    assert any("expects stall" in line for line in lines if line.startswith("eq-before-ac@b=1"))


def test_list_json_is_valid_array(capsys):
    code, out, _ = run(capsys, "list", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert isinstance(rows, list) and len(rows) == 42
    assert all(row["anchor"] for row in rows)


def test_list_csv(capsys):
    code, out, _ = run(capsys, "list", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "row,order,expects_stall,anchor"


@pytest.mark.parametrize(
    "argv",
    [
        ["list", "--format", "csv"],
        ["verify", "eq-4parameter", "--order", "6", "--format", "csv", "--jobs", "1"],
    ],
)
def test_csv_fields_with_commas_parse(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out))
    assert rows and all(len(row) == len(header) for row in rows)
    assert any("," in field for row in rows for field in row)


def test_env_var_overrides_default_order(capsys, monkeypatch):
    monkeypatch.setenv("QLAB_ORDER_DEFAULT", "4")
    code, out, _ = run(capsys, "compute", "euler_inverse")
    assert code == 0
    assert out.splitlines()[1:] == ["0,1", "1,1", "2,2", "3,3"]


def test_invalid_env_var_rejected(capsys, monkeypatch):
    for value in ("zero", "abc", "0"):
        monkeypatch.setenv("QLAB_ORDER_DEFAULT", value)
        with pytest.raises(SystemExit) as exc:
            main(["list"])
        assert exc.value.code == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "thm-1.1", "--jobs", "0"],
        ["verify", "all", "--jobs", "-3"],
        ["stats", "--jobs", "0"],
    ],
)
def test_jobs_below_one_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.strip().splitlines()[-1].endswith("--jobs must be positive")


def test_compute_output_bytes_deterministic(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        code, _, _ = run(
            capsys, "compute", "thm61_rhs", "--order", "25", "--output", str(path)
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert b"\r" not in paths[0].read_bytes()  # LF line endings


def test_verify_reports_deterministic_modulo_elapsed(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "verify", "all", "--order", "3", "--jobs", "1")
        assert code == 0
        outs.append(re.sub(r'"elapsed_ms": [0-9.]+', '"elapsed_ms": 0', out))
    assert outs[0] == outs[1]


def test_format_rational():
    from fractions import Fraction

    assert format_rational(Fraction(5)) == "5"
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert format_rational(Fraction(4, 2)) == "2"


def _child_env(unbuffered=False):
    """qlab on the path, and stdout buffered as a user has it, so a missing flush shows.

    With ``unbuffered`` stdout is unbuffered instead (``PYTHONUNBUFFERED``).
    """
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qf.__file__)))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "qlab.cli", *argv], capture_output=True, text=True, env=_child_env()
    )


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output file"])
def test_a_process_writes_what_main_writes(tmp_path, capsys, to_file):
    """More than a pipe buffer of output arrives whole, byte for byte, through the exit path."""
    argv = ["compute", "spt_lhs", "--order", "2000"]
    path = tmp_path / "child.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "qlab.cli", *argv, *(["--output", str(path)] if to_file else [])],
        capture_output=True,
        env=_child_env(),
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert main(argv) == 0
    expected = capsys.readouterr().out.encode()
    assert len(expected) > 65536
    assert (path.read_bytes() if to_file else proc.stdout) == expected


@pytest.mark.parametrize(
    "argv, code",
    [
        (["verify", "eq-z-identity"], 0),
        (["--help"], 0),
        (["compute", "before_ac_rhs", "--param", "b=1", "--order", "2000"], 1),
        (["verify", "all", "--bogus"], 2),
        (["compute", "f3_def", "--order", "0"], 2),
    ],
)
def test_exit_codes_of_a_process(argv, code):
    proc = run_cli(*argv)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
    if code == 0:
        assert proc.stdout


# unbuffered, stdout's binary layer is a raw file that each write goes straight to
BUFFERING = pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
# help too, whose write argparse would let fail silently
@pytest.mark.parametrize(
    "argv", [["verify", "all", "--jobs", "1"], ["list"], ["--help"]], ids=["verify", "list", "help"]
)
@BUFFERING
def test_a_full_stdout_is_a_usage_error(unbuffered, argv):
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "qlab.cli", *argv],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env=_child_env(unbuffered),
        )
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write standard output: No space left on device\n"


@BUFFERING
def test_a_reader_that_closes_early_is_a_usage_error(unbuffered):
    """The output (about 200 KB) overflows the pipe buffer, so a write meets the closed pipe.

    Unbuffered, the pipe may take part of a write before it closes: that
    short write must not pass as success.
    """
    with subprocess.Popen(
        [sys.executable, "-m", "qlab.cli", "compute", "spt_lhs", "--order", "4000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(unbuffered),
    ) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 2
    assert stderr == "error: cannot write standard output: Broken pipe\n"


def test_a_process_started_without_stdout_still_writes_its_output_file(tmp_path):
    path = tmp_path / "list.txt"
    proc = subprocess.run(
        ["sh", "-c", 'exec "$0" -m qlab.cli list --output "$1" >&-', sys.executable, str(path)],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert len(path.read_text().splitlines()) >= 42


def _run_script(prelude, argv):
    """Python source that runs ``prelude``, then ``qlab.cli.run()`` on ``argv``."""
    return f"{prelude}\nimport sys\nsys.argv[1:] = {argv!r}\nfrom qlab.cli import run\nrun()\n"


def test_exit_handlers_run_before_the_output_is_flushed():
    script = _run_script("import atexit, sys; atexit.register(print, 'handler ran')", ["list"])
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_child_env()
    )
    assert proc.returncode == 0, proc.stderr
    *rows, last = proc.stdout.splitlines()
    assert len(rows) >= 42 and last == "handler ran"


def _process_group(pgid):
    """The live processes of a process group, read from /proc."""
    members = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat") as fh:
                state, _, group = fh.read().rpartition(")")[2].split()[:3]
        except OSError:  # the process ended while the directory was read
            continue
        if int(group) == pgid and state != "Z":
            members.append(int(pid))
    return members


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process groups from /proc")
@pytest.mark.parametrize("method", ["forkserver", "spawn"])
def test_a_pool_ends_cleanly_through_the_exit_path(method):
    """multiprocessing's exit handlers still run: no leaked-semaphore warning, no process left."""
    script = _run_script(
        f"import multiprocessing; multiprocessing.set_start_method({method!r})",
        ["verify", "eq-z-identity", "--jobs", "2"],
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", script],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_child_env(),
        start_new_session=True,  # its group holds every process it starts
    )
    stdout, stderr = proc.communicate(timeout=120)
    assert proc.returncode == 0, stderr
    assert [r["pass"] for r in json.loads(stdout)] == [True] * 3
    deadline = time.monotonic() + 10
    while _process_group(proc.pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _process_group(proc.pid) == []
    assert stderr == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "lem21_lhs", "--param", "b=1/0", "--order", "6"],
        ["compute", "lem21_lhs", "--param", "b=2*q", "--order", "6"],
        ["compute", "lem21_lhs", "--param", "b=q", "--param", "b=q^2", "--order", "6"],
        ["compute", "f3_def", "--form", "-1", "--order", "6"],
        ["compute", "G_series", "--form", "3", "--order", "6"],
        ["compute", "z_identity_lhs", "--param", "z=0", "--order", "6"],
        ["compute", "z_identity_rhs", "--param", "z=q^2", "--order", "6"],
        # an option the selector does not use
        ["verify", "thm-1.2-combinatorial", "--max-n", "12", "--order", "6"],
        ["verify", "thm-1.1", "--max-n", "12", "--order", "6"],
        ["verify", "all", "--max-n", "40", "--order", "6"],
        # beyond the counting limit
        ["stats", "--max-n", "201"],
        ["verify", "thm-1.2-combinatorial", "--max-n", "201"],
        ["verify", "thm-1.2-combinatorial", "--jobs", "2"],
        # a '*' that joins no coefficient to q
        ["compute", "entry239_lhs", "--param", "a=1*", "--order", "4"],
        ["compute", "entry239_lhs", "--param", "a=*q", "--order", "4"],
    ],
)
def test_compute_malformed_input_is_a_usage_error(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1


def test_stats_matches_the_series_at_the_counting_limit():
    proc = run_cli("stats", "--max-n", "200", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout)
    assert [row["n"] for row in rows] == list(range(1, 201))
    flags = [value for row in rows for key, value in row.items() if key.endswith("_match")]
    assert len(flags) == 200 * 9 and all(flags)


def test_compute_divergent_sum_stalls_at_once():
    """The tail of before_ac_rhs at b = q^-1 falls without bound: exit 1 at its first step.

    The factor 1 + q^-1 is pulled out of the tail, and the stall still names
    the order asked for and the valuation of the whole term.
    """
    proc = run_cli("compute", "before_ac_rhs", "--param", "b=q^-1", "--order", "20")
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    (line,) = proc.stderr.strip().splitlines()
    assert "TruncationStall: from term n=0 on every term has valuation at most -1 below order 20" in line


def run_capped(*argv, limit=1 << 30):
    """``python *argv`` with the child's address space alone capped at ``limit`` bytes (RLIMIT_AS)."""
    resource = pytest.importorskip("resource")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=_child_env(), preexec_fn=cap
    )


# a window of 300,000,000 coefficients is a list of 2.4 GB, more than the cap
_TOO_WIDE = "the series window below order 300000000 does not fit in memory"


@pytest.mark.parametrize("form", ["0", "1"])
def test_a_window_that_does_not_fit_in_memory_is_a_builder_failure(form):
    """compute says so in one line naming the order, exit 1, for the sum and the literal product alike."""
    proc = run_capped("-m", "qlab.cli", "compute", "euler_inverse", "--form", form, "--order", "300000000")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"builder failed: MemoryError: {_TOO_WIDE}\n"


def test_a_row_whose_window_does_not_fit_in_memory_reports_it():
    """verify's row error has the same text as compute's line, not a bare ``MemoryError: ``."""
    script = (
        "from qlab import qfunctions as qf, registry\n"
        "row = registry.IdentityEntry(id='wide', anchor='', lhs=qf.euler_inv, rhs=qf.euler_inv)\n"
        "print(registry.verify_all(300000000, [row])[0].error)\n"
    )
    proc = run_capped("-c", script)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == f"MemoryError: {_TOO_WIDE}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "f3_def", "--order", "5", "--output"],
        ["verify", "thm-1.1", "--order", "5", "--report"],
        ["stats", "--max-n", "5", "--output"],
        ["list", "--output"],
    ],
)
@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_unwritable_output_path_is_a_usage_error(tmp_path, argv, where):
    path = tmp_path if where == "directory" else tmp_path / "missing" / "x"
    proc = run_cli(*argv, str(path))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    (line,) = proc.stderr.strip().splitlines()
    assert line.startswith(f"error: cannot write {path}: ")


def _must_not_run(*args, **kwargs):
    raise AssertionError("computed before the output path was checked")


@pytest.mark.parametrize(
    "argv", [["verify", "all", "--jobs", "1", "--report"], ["compute", "f3_def", "--output"]]
)
def test_unwritable_path_fails_before_any_series_is_built(tmp_path, monkeypatch, capsys, argv):
    from qlab import registry as rg

    monkeypatch.setattr(qf, "build", _must_not_run)
    monkeypatch.setattr(rg, "verify_all", _must_not_run)
    with pytest.raises(SystemExit) as exc:
        main([*argv, str(tmp_path)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {tmp_path}: ")


def test_output_file_is_untouched_until_the_result_is_written(tmp_path, capsys):
    """A failing compute keeps an existing file as it was and leaves no new one."""
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text("kept\n")
    stall = ["compute", "before_ac_rhs", "--param", "b=1", "--order", "20", "--output"]
    for path in (old, new):
        assert main([*stall, str(path)]) == 1
    assert old.read_text() == "kept\n"
    assert not new.exists()
    assert main(["compute", "f3_def", "--order", "3", "--output", str(old)]) == 0
    assert old.read_text().splitlines()[1:] == ["0,1", "1,1", "2,-2"]
