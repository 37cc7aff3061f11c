"""qlab: an exact q-series laboratory.

Truncated Laurent series over exact rationals, named builders for mock theta
functions and partition-statistic generating functions, a partition oracle
(integer counts and enumerated objects), and a catalog of verified q-series
identities.
"""

from .series import (
    DEFAULT_TERM_CAP,
    InvalidWindow,
    LaurentSeries,
    Mismatch,
    NotInvertible,
    OutOfWindow,
    PochhammerSpec,
    SeriesError,
    TruncationStall,
    monomial,
    one,
    pochhammer,
    sum_terms,
    zero,
)
from .qfunctions import Monomial, build, builder_forms, names
from .partitions import (
    CapExceeded,
    InvalidPartition,
    Partition,
    StatRow,
    TwoColorPartition,
    count_G,
    count_Gprime,
    count_omega_interpretation,
    enumerate_partitions,
    list_G,
    rank,
    rank_stats,
    spt,
    sptG,
    stat_row,
    stat_table,
)
from .registry import (
    IdentityEntry,
    Specialization,
    UnknownIdentity,
    VerificationReport,
    catalog,
    verify,
    verify_all,
)

__version__ = "1.0.0"

__all__ = [
    "DEFAULT_TERM_CAP",
    "CapExceeded",
    "IdentityEntry",
    "InvalidPartition",
    "InvalidWindow",
    "LaurentSeries",
    "Mismatch",
    "Monomial",
    "NotInvertible",
    "OutOfWindow",
    "Partition",
    "PochhammerSpec",
    "SeriesError",
    "Specialization",
    "StatRow",
    "TruncationStall",
    "TwoColorPartition",
    "UnknownIdentity",
    "VerificationReport",
    "build",
    "builder_forms",
    "catalog",
    "count_G",
    "count_Gprime",
    "count_omega_interpretation",
    "enumerate_partitions",
    "list_G",
    "monomial",
    "names",
    "one",
    "pochhammer",
    "rank",
    "rank_stats",
    "spt",
    "sptG",
    "stat_row",
    "stat_table",
    "sum_terms",
    "verify",
    "verify_all",
    "zero",
]
