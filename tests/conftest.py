"""Fixtures shared by the test modules."""

from unittest.mock import patch

import pytest

from qlab import qfunctions as qf


@pytest.fixture
def scanned():
    """The number of terms each scan of a sum (``qfunctions._scan``) looks at, in call order.

    The scan looks at a term with one call of its plan's ``_Plan.term``.
    """
    counts = []
    scan, term = qf._scan, qf._Plan.term

    def counted(plan, n):
        counts[-1] += 1
        return term(plan, n)

    def counted_scan(plan, order):
        counts.append(0)
        with patch.object(qf._Plan, "term", counted):
            return scan(plan, order)

    with patch.object(qf, "_scan", counted_scan):
        yield counts
