"""Golden outputs on wide windows: one digest per sum at order 400.

``tests/test_golden.py`` stops at order 120.  A binomial that a step cancels
wrongly, or a constant lost between runs of terms, shows first on wide
windows, so these digests hash the sums the benchmark's rows lean on at order
400, as ``(min_exp, nums, den, order)`` for each form.  They were recorded
before the sums were evaluated as nested products, from terms stepped one
by one; the closed products (``euler_inverse``, ``theta_phi_neg``,
``thm61_rhs``, ``z_identity_rhs``) were recorded while they had a driver of
their own.  The ``stats`` table at the counting limit is pinned the same way,
as the bytes the command writes in each format; those digests were recorded
while N_o was still a difference of two built series.
"""

import hashlib

import pytest

from qlab import qfunctions as qf
from qlab.cli import main
from qlab.qfunctions import build, mono

ORDER = 400

SUMS = {
    "spt_lhs": lambda: [build("spt_lhs", ORDER)],
    "G_series": lambda: [build("G_series", ORDER, form=f) for f in range(3)],
    "f3_def": lambda: [build("f3_def", ORDER)],
    "z_identity_lhs@z=q^3": lambda: [build("z_identity_lhs", ORDER, {"z": mono(1, 3)})],
    # sum n q^(2n)/(1-q^(2n)) + sum (-1)^n (1+q^n) q^(3n(n+1)/2)/(1-q^(2n))^2
    "sptg_bracket": lambda: [qf.sptg_bracket(ORDER)],
    # closed products, evaluated through the eta route past the pentagonal exponents
    "euler_inverse": lambda: [build("euler_inverse", ORDER, form=f) for f in range(2)],
    "theta_phi_neg": lambda: [build("theta_phi_neg", ORDER, form=f) for f in range(2)],
    "thm61_rhs": lambda: [build("thm61_rhs", ORDER)],
    "z_identity_rhs@z=q^3": lambda: [build("z_identity_rhs", ORDER, {"z": mono(1, 3)})],
}

DIGESTS = {
    "spt_lhs": "b4614a11d973e42253c04934cb31ec815e3a791aa0bce8b53f2ba7b89a66871b",
    "G_series": "73d7103c33875494e152823904b6b53180144371c98095eae4423da0119dd6e6",
    "f3_def": "d7469c7e4d5ebe35ce27c7ad8702f6b317c49b44035b2b3145839ef8a8a592d1",
    "z_identity_lhs@z=q^3": "181830e20b5213e05f6eade03d949e19d1e40aaed61ebe0e881ea79668add3e1",
    "sptg_bracket": "9b789f714ede7760b13d620106bb4e081d447b1da4722e4d6efd44e413f34fb7",
    "euler_inverse": "73d24dd02adfa7fd0faf65e95ca929bc82ff0812887e5864364a6cea72007aab",
    "theta_phi_neg": "da77778269bc44c5068cf1b77f0a4ec3f3d59519b68f63704ec8cf574541835a",
    "thm61_rhs": "8f1496323f143c8870979184bf4a011ab16c7419348cdaf2e37cb7597fbd30cb",
    "z_identity_rhs@z=q^3": "181830e20b5213e05f6eade03d949e19d1e40aaed61ebe0e881ea79668add3e1",
}


@pytest.mark.parametrize("name", sorted(SUMS))
def test_wide_digest(name):
    h = hashlib.sha256()
    for s in SUMS[name]():
        h.update(repr((s.min_exp, s.nums, s.den, s.order)).encode() + b"\n")
    assert h.hexdigest() == DIGESTS[name]


STATS_DIGESTS = {
    "csv": "455a477e4c337a02d8b2c6f9d345b839ce3aff904d84ac38ee988995987ae011",
    "json": "94cb374195436f193104fa4bdfc5b138354fd7b5261fc98a643124cb368f06c3",
}


@pytest.mark.parametrize("fmt", sorted(STATS_DIGESTS))
def test_stats_digest(fmt, capsys):
    assert main(["stats", "--max-n", "200", "--format", fmt]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == STATS_DIGESTS[fmt]
