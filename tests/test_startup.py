"""What a fresh process imports: the lazy package exports and each subcommand's modules.

Every check here runs in its own interpreter, because the test session has
long since imported every module of the package.
"""

import os
import subprocess
import sys

import pytest

import qlab

SRC = os.path.dirname(os.path.dirname(qlab.__file__))


def run_fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` with ``args`` in a new interpreter that imports the package from this tree."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("QLAB_ORDER_DEFAULT", None)
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc


# runs one subcommand with its output swallowed, then prints every loaded module
MODULES_AFTER_MAIN = """
import io, sys
out, sys.stdout = sys.stdout, io.StringIO()
from qlab import cli
code = cli.main(sys.argv[1:])
sys.stdout = out
assert code == 0, code
print("\\n".join(sorted(sys.modules)))
"""

EVERY_MODULE = {"qlab.series", "qlab.qfunctions", "qlab.partitions", "qlab.registry"}


@pytest.mark.parametrize(
    "argv, absent",
    [
        (["compute", "f3_def", "--order", "50"], {"qlab.registry", "qlab.partitions"}),
        (
            ["compute", "lem21_lhs", "--param", "b=q", "--order", "20"],
            {"qlab.registry", "qlab.partitions"},
        ),
        (["verify", "thm-1.1", "--jobs", "1"], {"qlab.partitions"}),
        (["verify", "thm-1.2-combinatorial", "--max-n", "12"], set()),
        (["stats", "--max-n", "12"], {"qlab.registry"}),
        (["list"], {"qlab.partitions"}),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_each_subcommand_imports_only_what_it_runs(argv, absent):
    loaded = set(run_fresh(MODULES_AFTER_MAIN, *argv).stdout.split())
    assert not absent & loaded
    assert EVERY_MODULE - absent <= loaded
    assert not {"dataclasses", "inspect"} & loaded


LAZY_EXPORTS = """
import sys
import qlab

assert not [m for m in sys.modules if m.startswith("qlab.")], "import qlab loaded a submodule"
assert set(qlab.__all__) <= set(dir(qlab))
for name in qlab.__all__:
    value = getattr(qlab, name)
    module = sys.modules[f"qlab.{qlab._EXPORTS[name]}"]
    assert value is getattr(module, name), name

try:
    qlab.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("an unknown name resolved")
print("ok")
"""

STAR_IMPORT = """
import qlab
namespace = {}
exec("from qlab import *", namespace)
assert set(qlab.__all__) <= set(namespace)
assert namespace["verify"] is qlab.registry.verify
assert namespace["replace"] is qlab.record.replace
print("ok")
"""


@pytest.mark.parametrize("code", [LAZY_EXPORTS, STAR_IMPORT], ids=["getattr", "star"])
def test_lazy_exports_in_a_fresh_process(code):
    assert run_fresh(code).stdout == "ok\n"


def test_unknown_name_is_an_import_error():
    code = "try:\n    from qlab import no_such_name\nexcept ImportError:\n    print('ok')\n"
    assert run_fresh(code).stdout == "ok\n"
