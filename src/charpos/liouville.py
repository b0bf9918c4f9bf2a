"""The Liouville-weighted sine series

    f(x) = sum_{n>=1} lambda(n) * sin(2 pi n x) / n**2

and its approximation by character series.  A character chi mod q agrees
with lambda on every n whose prime factors are all non-residues; the
agreement length N (one less than the first prime where they differ)
gives |f(x) - f_q(x)| <= 2/N uniformly, which converts exact character
positivity into lower bounds for f itself.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, SearchBudgetExceeded
from .fq import SeriesValue, _sin_sum, fq_exact
from .ntcore import (jacobi, liouville_sieve, pi4_times_at_least, primes_in_range,
                     quad_char)


@functools.lru_cache(maxsize=1)
def _lam(n_max: int) -> np.ndarray:
    """Liouville values 0..n_max, the last table kept: a plot asks for the
    same n_max at every grid point."""
    return liouville_sieve(n_max).values


def f_series(x, n_terms: int) -> SeriesValue:
    """Truncated f(x) with tail bound 1/n_terms.

    Shares the sine kernel with the character series, so for any prefix on
    which lambda and chi agree the partial sums are bitwise identical.
    """
    if n_terms < 1:
        raise DomainError("need n_terms >= 1")
    x = Fraction(x)
    w = _lam(n_terms)[1:]
    return SeriesValue(_sin_sum(w, x, n_terms), 1.0 / n_terms, n_terms)


@dataclass(frozen=True)
class AgreementRecord:
    """chi matches lambda on 1..n_agree; first_mismatch is the breaking prime."""

    q: int
    n_agree: int
    first_mismatch: int


def agreement_length(q_or_chi) -> AgreementRecord:
    """Largest N with chi(n) = lambda(n) for all n <= N.

    Both functions are completely multiplicative, so agreement up to N is
    equivalent to chi(p) = -1 for every prime p <= N, and the first prime
    with chi(p) != -1 settles it.  Termination is guaranteed because chi
    vanishes on divisors of q.
    """
    ch = quad_char(q_or_chi)
    hi = 256
    while True:
        for p in primes_in_range(2, min(hi, ch.q)):
            p = int(p)
            if jacobi(p, ch.q) != -1:
                return AgreementRecord(ch.q, p - 1, p)
        if hi >= ch.q:
            raise DomainError(f"no character mismatch below q={ch.q}")
        hi *= 2


def find_imitator(n_agree: int, ceiling: int = 10 ** 6) -> int:
    """Smallest prime q = 3 (mod 8) whose character imitates lambda to n_agree.

    Needs chi(p) = -1 for every prime p <= n_agree.  Candidates thin out
    double-exponentially, so the search is capped; raising the ceiling is
    the caller's explicit opt-in to a longer run.  The candidates are
    enumerated in windows [lo, min(ceiling, 4*lo)] from lo = 5, so the
    cost up to the answer does not depend on the ceiling.
    """
    if n_agree < 1:
        raise DomainError("need n_agree >= 1")
    targets = [int(p) for p in primes_in_range(2, n_agree)]
    lo = 5
    while lo <= ceiling:
        hi = min(ceiling, 4 * lo)
        for q in primes_in_range(lo, hi, residue=3, modulus=8).tolist():
            if all(jacobi(p, q) == -1 for p in targets):
                return q
        lo = hi + 1
    raise SearchBudgetExceeded(
        f"no imitator with agreement {n_agree} below {ceiling}")


@dataclass(frozen=True)
class FBound:
    """A certified sign statement about f(x) derived from one character.

    value = coeff * 2*pi**2/sqrt(q) equals f_q(x) exactly, and
    |f(x) - f_q(x)| <= error = 2/n_agree.  positive is True only when the
    inequality f_q(x) > 2/n_agree has been decided in integer arithmetic.
    """

    x: Fraction
    q: int
    n_agree: int
    coeff: Fraction
    value: float
    error: float
    positive: bool


def f_lower_bound(x, q_or_chi) -> FBound:
    """Bound f(x) from below via the character at q: f(x) >= f_q(x) - 2/N.

    The positivity verdict compares 2*pi**2*coeff/sqrt(q) with 2/N by
    cross-multiplying into pi**4 * coeff**2 * N**2 >= q, all rational.
    """
    ch = quad_char(q_or_chi)
    x = Fraction(x)
    if not 0 < x <= Fraction(1, 2):
        raise DomainError(f"need 0 < x <= 1/2, got {x}")
    n = agreement_length(ch).n_agree
    fx = fq_exact(ch, x)
    positive = fx.coeff > 0 and pi4_times_at_least(
        fx.coeff * fx.coeff * n * n, Fraction(ch.q))
    return FBound(x, ch.q, n, fx.coeff, fx.value, 2.0 / n, positive)
