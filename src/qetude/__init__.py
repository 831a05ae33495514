"""Exact-arithmetic laboratory around a tridiagonal q-determinant: compute it,
rediscover its closed form from data, verify the proof mechanically, and tie
the limiting series to integer-sequence data."""

from .closedform import (coefficient_consistency, coefficient_in_N,
                         gaussian_poly, theorem2_value)
from .discovery import (CoefficientTable, GuessError, GuessReport, GuessTerm,
                        analyze_denominators, andrews_guess, ansatz_guess,
                        generate_table, rebuild_xqpoly, synthesize_conjecture)
from .lehmer import build_matrix, det_oracle, det_recurrence
from .multi import (MPoly, RationalFunc, interpolate_in_N, rational_equal,
                    trial_divide_numerator)
from .poly import InternalConsistencyError, QPoly, XQPoly, qpochhammer
from .qseries import (bfile_text, count_r_partitions, parse_bfile,
                      rr_product_truncated, sequence_rpartitions, substitute_x,
                      theorem1_truncated)
from .series import QSeries, series_invert
from .verifier import (Certificate, Recurrence, check_certificate,
                       check_coefficient_identity, check_recurrence_numeric,
                       lehmer_operator, literal_certificate,
                       literal_certificate_report, solve_certificate)

__version__ = "0.1.0"
