"""Exact-arithmetic laboratory around a tridiagonal q-determinant: compute it,
rediscover its closed form from data, verify the proof mechanically, and tie
the limiting series to integer-sequence data.

Names resolve on first use (PEP 562): `import qetude` loads no submodule, and
`qetude.QPoly` or `from qetude import QPoly` imports only the module that
defines the name (and what that module imports).
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_MODULE_OF = {name: module for module, names in {
    "closedform": "coefficient_consistency coefficient_in_N gaussian_poly "
                  "theorem2_value",
    "discovery": "CoefficientTable GuessError GuessReport GuessTerm "
                 "analyze_denominators andrews_guess ansatz_guess generate_table "
                 "rebuild_xqpoly synthesize_conjecture",
    "lehmer": "build_matrix det_oracle det_recurrence",
    "multi": "MPoly RationalFunc interpolate_in_N rational_equal "
             "trial_divide_numerator",
    "poly": "InternalConsistencyError QPoly XQPoly qpochhammer",
    "qseries": "bfile_text count_r_partitions parse_bfile rr_product_truncated "
               "sequence_rpartitions substitute_x theorem1_truncated",
    "series": "QSeries series_invert",
    "verifier": "Certificate Recurrence check_certificate "
                "check_coefficient_identity check_recurrence_numeric "
                "lehmer_operator literal_certificate literal_certificate_report "
                "solve_certificate",
}.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value
