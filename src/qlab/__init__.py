"""qlab: an exact q-series laboratory.

Truncated Laurent series over exact rationals, named builders for mock theta
functions and partition-statistic generating functions, a partition oracle
(integer counts and enumerated objects), and a catalog of verified q-series
identities.

Importing the package imports none of its submodules: each name in
``__all__`` imports the submodule that defines it when it is first read
(PEP 562), so a process loads only the code it uses.
"""

__version__ = "1.0.0"

# each exported name and the submodule that defines it; a submodule is
# imported when one of its names is first read, not when the package is
_EXPORTS = {
    **dict.fromkeys(
        (
            "DEFAULT_TERM_CAP",
            "InvalidWindow",
            "LaurentSeries",
            "Mismatch",
            "NotInvertible",
            "OutOfWindow",
            "PochhammerSpec",
            "SeriesError",
            "TruncationStall",
            "monomial",
            "one",
            "pochhammer",
            "sum_terms",
            "zero",
        ),
        "series",
    ),
    **dict.fromkeys(("Monomial", "build", "builder_forms", "names"), "qfunctions"),
    **dict.fromkeys(
        (
            "CapExceeded",
            "InvalidPartition",
            "Partition",
            "StatRow",
            "TwoColorPartition",
            "count_G",
            "count_Gprime",
            "count_omega_interpretation",
            "enumerate_partitions",
            "list_G",
            "rank",
            "rank_stats",
            "spt",
            "sptG",
            "stat_row",
            "stat_table",
        ),
        "partitions",
    ),
    **dict.fromkeys(
        (
            "IdentityEntry",
            "Specialization",
            "UnknownIdentity",
            "VerificationReport",
            "catalog",
            "verify",
            "verify_all",
        ),
        "registry",
    ),
    "replace": "record",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """An exported name, or a submodule that one of them comes from, imported on first use."""
    module = _EXPORTS.get(name)
    if module is None and name not in _EXPORTS.values():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    if module is None:
        return import_module(f"{__name__}.{name}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads find it without this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
