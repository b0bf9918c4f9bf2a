"""charpos: quadratic character sums, class numbers, and exact positivity
certificates for the Liouville-weighted sine series."""

from .check import verify_certificate
from .errors import (CharposError, CertificateError, DomainError,
                     ExactnessError, InsufficientBound, InvalidModulus,
                     SearchBudgetExceeded)
from .ntcore import (QuadChar, LiouvilleTable, chi_values, is_prime, jacobi,
                     liouville_sieve, pi4_times_at_least, primes_in_range,
                     quad_char)
from .charsum import (ClassNumber, MarginProfile, PrefixSums, class_number,
                      margin_profile, margin_values, prefix_sums,
                      quarter_margin, rational_margin, t_stat,
                      weighted_prefix_sum)
from .fq import (CHI3, FIFTH_IM, FIFTH_RE, FqExact, FqShape, LatticeQuadEval,
                 PiecewiseFq, PrimeFracEval, SeriesValue,
                 fifth_alpha_lower_bound, fq_exact, fq_fifth, fq_lattice_quad,
                 fq_min_and_zeros, fq_prime_frac, fq_series, fq_third,
                 identity_check, l2_series, lattice_quad_values, piecewise_fq)
from .liouville import (AgreementRecord, FBound, agreement_length, f_series,
                        f_lower_bound, find_imitator)
from .verify import (CertifyResult, PositivityReport, PrimeFracScan,
                     ScanCheckpoint, ScanResult, certify_f_positive,
                     check_positivity, merge_certificates, read_checkpoint,
                     scan_positivity, scan_prime_fracs)

__version__ = "0.1.0"

__all__ = [
    "CHI3", "FIFTH_IM", "FIFTH_RE",
    "AgreementRecord", "CertificateError", "CertifyResult", "CharposError",
    "ClassNumber", "DomainError", "ExactnessError", "FBound", "FqExact",
    "FqShape", "InsufficientBound", "InvalidModulus", "LatticeQuadEval",
    "LiouvilleTable", "MarginProfile", "PiecewiseFq", "PositivityReport",
    "PrefixSums", "PrimeFracEval", "PrimeFracScan", "QuadChar",
    "ScanCheckpoint", "ScanResult", "SearchBudgetExceeded", "SeriesValue",
    "agreement_length", "certify_f_positive", "check_positivity",
    "chi_values", "class_number", "f_lower_bound", "f_series",
    "fifth_alpha_lower_bound", "find_imitator", "fq_exact", "fq_fifth",
    "fq_lattice_quad", "fq_min_and_zeros", "fq_prime_frac", "fq_series",
    "fq_third", "identity_check", "is_prime", "jacobi", "l2_series",
    "lattice_quad_values", "liouville_sieve", "margin_profile",
    "margin_values", "merge_certificates", "pi4_times_at_least",
    "piecewise_fq", "prefix_sums", "primes_in_range", "quad_char",
    "quarter_margin", "rational_margin", "read_checkpoint",
    "scan_positivity", "scan_prime_fracs", "t_stat", "verify_certificate",
    "weighted_prefix_sum",
]
