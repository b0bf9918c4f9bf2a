"""Exact prefix sums of quadratic characters, class numbers, and the
integer margin sequence that controls positivity of the character series.

For a validated modulus q with character chi, write
    A(N) = sum_{n<=N} chi(n),      B(N) = sum_{n<=N} n*chi(n).
The class number h of Q(sqrt(-q)) satisfies q*A(half) - 2*B(half) = q*h
with half = (q-1)/2, and the margin sequence

    W(a) = a*(h - A(a)) + B(a)

is, up to the positive factor 2*pi**2/q**(3/2), the value of the character
sine series at a/q.  Everything here is integer arithmetic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, ExactnessError
from .ntcore import BLOCK, QuadChar, chi_sieve, chi_values, is_prime, jacobi, quad_char

# Largest a for which a*(h + a) + a*(a+1)/2 provably fits int64 is far above
# this; the guard is a named constant so tests can shrink it and force the
# exact object-dtype path on small inputs.
_INT64_GUARD = 1 << 62


def _as_char(q_or_chi) -> QuadChar:
    if isinstance(q_or_chi, QuadChar):
        return q_or_chi
    return quad_char(q_or_chi)


@dataclass(frozen=True)
class PrefixSums:
    """A(upto) and B(upto), exact."""

    q: int
    upto: int
    plain: int
    linear: int


def prefix_sums(q_or_chi, upto: int) -> PrefixSums:
    """Exact character prefix sums through `upto`, streamed in blocks.

    Per block the index n = lo + j is expanded so every numpy intermediate
    is a sum of at most BLOCK terms of magnitude < 2**40; the cross terms
    are recombined in Python integers, so no width limit applies overall.
    """
    ch = _as_char(q_or_chi)
    if upto < 0:
        raise DomainError("prefix_sums needs upto >= 0")
    a_tot = 0
    b_tot = 0
    for lo, arr in chi_sieve(ch, upto):
        v = arr.astype(np.int64)
        j = np.arange(len(v), dtype=np.int64)
        s0 = int(v.sum())
        s1 = int((j * v).sum())
        a_tot += s0
        b_tot += lo * s0 + s1
    return PrefixSums(ch.q, upto, a_tot, b_tot)


@dataclass(frozen=True)
class ClassNumber:
    """h = h(-q) together with the half-range character sums that encode it."""

    q: int
    h: int
    a_half: int
    b_half: int


@functools.lru_cache(maxsize=512)
def _class_number_cached(q: int) -> ClassNumber:
    ch = quad_char(q)
    half = (q - 1) // 2
    ps = prefix_sums(ch, half)
    num = q * ps.plain - 2 * ps.linear
    if num % q:
        raise ExactnessError(
            f"q*A - 2*B not divisible by q at q={q}; modulus validation is broken")
    h = num // q
    if h <= 0:
        raise ExactnessError(f"nonpositive class number {h} at q={q}")
    if (2 - jacobi(2, q)) * h != ps.plain:
        raise ExactnessError(f"class number cross-check failed at q={q}")
    if is_prime(q) and h % 2 == 0:
        raise ExactnessError(f"even class number {h} for prime q={q}")
    return ClassNumber(q, h, ps.plain, ps.linear)


def class_number(q_or_chi) -> ClassNumber:
    """Class number of Q(sqrt(-q)) via the finite character sum formula.

    The exact-division, chi(2), and parity cross-checks all sit on the
    single code path, so a wrong answer cannot escape silently.
    """
    ch = _as_char(q_or_chi)
    return _class_number_cached(ch.q)


def _scan_arrays(ch: QuadChar, a_max: int, h: int | None):
    """Shared exact scan: returns (h, A, B, W) as arrays over 0..a_max.

    Arrays are int64 when the worst case provably fits, otherwise object
    dtype holding Python integers.  The switch is on values, not trust.
    """
    if a_max < 1:
        raise DomainError("need a_max >= 1")
    q = ch.q
    c = chi_values(ch, a_max)
    fits = a_max * (a_max + 1) // 2 < _INT64_GUARD
    if fits:
        cN = c.astype(np.int64)
        n = np.arange(a_max + 1, dtype=np.int64)
    else:
        cN = c.astype(object)
        n = np.arange(a_max + 1, dtype=object)
    A = np.cumsum(cN)
    B = np.cumsum(n * cN)
    if h is None:
        if a_max == (q - 1) // 2:
            num = q * int(A[-1]) - 2 * int(B[-1])
            if num % q:
                raise ExactnessError(f"inexact class number division at q={q}")
            h = num // q
        else:
            h = class_number(ch).h
    if fits and a_max * (h + a_max) + a_max * (a_max + 1) // 2 >= _INT64_GUARD:
        A = A.astype(object)
        B = B.astype(object)
        n = n.astype(object)
    W = n * (h - A) + B
    return h, A, B, W


def margin_values(q_or_chi, a_max: int, h: int | None = None):
    """(h, W) where W[a] = a*(h - A(a)) + B(a) for a = 0..a_max, exact."""
    ch = _as_char(q_or_chi)
    h, _, _, W = _scan_arrays(ch, a_max, h)
    return h, W


class _MarginBuffers:
    """Scratch arrays for _margin_min, big enough for every modulus <= q_max.

    One instance is reused across a block of moduli, so each modulus
    writes into pages already mapped instead of allocating ~4 MB
    temporaries afresh near q = 10**6.
    """

    def __init__(self, q_max: int):
        half = (q_max - 1) // 2
        self.table = np.empty(q_max, dtype=np.int8)
        k = np.arange(1, half + 1, dtype=np.int64)
        self.squares = np.multiply(k, k, out=k)
        self.tmp = np.empty(half, dtype=np.int64)
        self.a = np.empty(half + 1, dtype=np.int64)
        self.w = np.empty(half, dtype=np.int64)


def _legendre_table(ch: QuadChar, half: int, buf: _MarginBuffers) -> np.ndarray:
    """chi(n) for n = 0..half as int8.

    For a prime q the squares k*k mod q, k <= half, are scattered into a
    table of nonresidues; k*k must fit int64, which holds for half < 2**31.
    Other moduli take the general sieve.
    """
    q = ch.q
    if ch.factors != (q,) or half >= 1 << 31:
        return chi_values(ch, half)
    sq = np.remainder(buf.squares[:half], q, out=buf.tmp[:half])
    table = buf.table[:q]
    table.fill(-1)
    table[0] = 0
    table[sq] = 1
    return table[:half + 1]


def _margin_min(ch: QuadChar, a_max: int, buf: _MarginBuffers):
    """(h, min W(a), first argmin a) over 1 <= a <= a_max <= (q-1)/2.

    W(a+1) - W(a) = h - A(a) and W(1) = h, so W over the half range is one
    cumulative sum of h - A, with no linear sum B and no index array.  h
    comes from A(half) = (2 - chi(2)) h; the class number formula is then
    checked against B(half) = W(half) - half*(h - A(half)), which W reaches
    without ever summing n*chi(n).  The exact-division, positivity and
    parity checks of class_number run here too.
    """
    q = ch.q
    half = (q - 1) // 2
    if not 1 <= a_max <= half:
        raise DomainError(f"need 1 <= a_max <= {half}, got {a_max}")
    A = buf.a[:half + 1]
    np.cumsum(_legendre_table(ch, half, buf), dtype=np.int64, out=A)
    a_half = int(A[half])
    d = 2 - jacobi(2, q)
    if a_half % d:
        raise ExactnessError(f"A(half) = {a_half} not divisible by {d} at q={q}")
    h = a_half // d
    if h <= 0:
        raise ExactnessError(f"nonpositive class number {h} at q={q}")
    if is_prime(q) and h % 2 == 0:
        raise ExactnessError(f"even class number {h} for prime q={q}")
    if half * (h + half) < _INT64_GUARD:
        W = buf.w[:half]
        np.subtract(h, A[:half], out=buf.tmp[:half])
        np.cumsum(buf.tmp[:half], out=W)
    else:
        W = margin_values(ch, half, h)[1][1:]
    b_half = int(W[-1]) - half * (h - a_half)
    if q * a_half - 2 * b_half != q * h:
        raise ExactnessError(f"class number formula disagrees with chi(2) at q={q}")
    k = int(np.argmin(W[:a_max]))
    return h, int(W[k]), k + 1


@dataclass(frozen=True)
class MarginProfile:
    q: int
    h: int
    a_max: int
    min_w: int
    argmin_a: int


def margin_profile(q_or_chi, a_max: int | None = None) -> MarginProfile:
    """Minimum of W over 1..a_max and where it is first attained.

    a_max defaults to (q-1)/2, which covers the whole half-period and hence
    decides positivity of the character series on (0, 1/2); a larger
    a_max raises DomainError.
    """
    ch = _as_char(q_or_chi)
    if a_max is None:
        a_max = (ch.q - 1) // 2
    h, min_w, argmin_a = _margin_min(ch, a_max, _MarginBuffers(ch.q))
    return MarginProfile(ch.q, h, a_max, min_w, argmin_a)


def quarter_margin(q_or_chi) -> MarginProfile:
    """Margin profile truncated at q//4, the quarter-range positivity window."""
    ch = _as_char(q_or_chi)
    return margin_profile(ch, ch.q // 4)


def weighted_prefix_sum(q_or_chi, t) -> Fraction:
    """S(t) = A(floor(t)) - B(floor(t))/t as an exact Fraction; S(t) = 0 for t < 1."""
    ch = _as_char(q_or_chi)
    t = Fraction(t)
    if t <= 0:
        raise DomainError("weighted_prefix_sum needs t > 0")
    m = math.floor(t)
    if m < 1:
        return Fraction(0)
    ps = prefix_sums(ch, m)
    return ps.plain - Fraction(ps.linear) / t


def rational_margin(q_or_chi, x) -> tuple[Fraction, bool]:
    """Exact h - S(q*x) at a rational 0 < x < 1/2, plus a divisibility flag.

    Since f_q(x) = 2*pi**2*x/sqrt(q) * (h - S(q*x)) and x > 0, the returned
    Fraction carries the sign of f_q(x).  The flag reports whether q divides
    its numerator in lowest terms; a True flag at a denominator not itself
    divisible by q would put a rational zero of f_q unusually low.
    """
    ch = _as_char(q_or_chi)
    x = Fraction(x)
    if not 0 < x < Fraction(1, 2):
        raise DomainError(f"rational_margin needs 0 < x < 1/2, got {x}")
    h = class_number(ch).h
    val = h - weighted_prefix_sum(ch, ch.q * x)
    return val, val.numerator % ch.q == 0


def t_stat(q: int) -> int:
    """B(q//4) for a prime q = 7 (mod 8); grows like a class-number surrogate."""
    if not is_prime(q) or q % 8 != 7:
        raise DomainError(f"t_stat needs a prime q = 7 (mod 8), got {q}")
    ch = QuadChar(q, (q,))
    return prefix_sums(ch, q // 4).linear
