"""Fixtures shared by the test modules."""

from unittest.mock import patch

import pytest

from qlab import qfunctions as qf


@pytest.fixture
def scanned():
    """The number of terms each scan of a sum (``qfunctions._runs``) looks at, in call order.

    The scan looks at a term with one ``_exponent_and_scale`` call.
    """
    counts = []
    runs, exponent_and_scale = qf._runs, qf._exponent_and_scale

    def counted(spec, n):
        counts[-1] += 1
        return exponent_and_scale(spec, n)

    def counted_runs(spec, order):
        counts.append(0)
        with patch.object(qf, "_exponent_and_scale", counted):
            return runs(spec, order)

    with patch.object(qf, "_runs", counted_runs):
        yield counts
