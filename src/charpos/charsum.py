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
from .ntcore import QuadChar, chi_sieve, chi_values, is_prime, jacobi, quad_char

# W over a = 0..n is formed in int64 while its bound n*(|h| + n) stays below
# this, else in Python integers; a named constant so tests can shrink it and
# force the exact object-dtype path on small inputs.
_INT64_GUARD = 1 << 62

# _margin_min cuts a = 1..a_max into blocks of this many steps; a named
# constant, read at call time, so tests can shrink it.
_MIN_BLOCK = 1 << 12


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

    The blocks are views of one chi table of at most q + BLOCK entries
    (chi_sieve), so memory is O(q + BLOCK) whatever upto is.  Per
    block the index n = lo + j is expanded so every numpy intermediate is
    a sum of at most BLOCK terms of magnitude < 2**40; the cross terms are
    recombined in Python integers, so no width limit applies overall.
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


def _checked_class_number(q: int, a_half: int, b_half: int) -> int:
    """h from A(half) and B(half), once every class number cross-check holds.

    h = A(half)/(2 - chi(2)) must be an exact quotient, positive, odd for
    prime q, and satisfy the class number formula q*A(half) - 2*B(half) =
    q*h; together these say q divides q*A - 2*B and (2 - chi(2))*h = A(half).
    Every path that produces a class number goes through here.
    """
    d = 2 - jacobi(2, q)
    if a_half % d:
        raise ExactnessError(f"A(half) = {a_half} not divisible by {d} at q={q}")
    h = a_half // d
    if h <= 0:
        raise ExactnessError(f"nonpositive class number {h} at q={q}")
    if is_prime(q) and h % 2 == 0:
        raise ExactnessError(f"even class number {h} for prime q={q}")
    if q * a_half - 2 * b_half != q * h:
        raise ExactnessError(f"class number formula disagrees with chi(2) at q={q}")
    return h


@functools.lru_cache(maxsize=512)
def _class_number_cached(q: int) -> ClassNumber:
    half = (q - 1) // 2
    h, A = _checked_prefix(quad_char(q), half)
    a_half = int(A[half])
    # exact: _checked_class_number has checked q*A(half) - 2*B(half) = q*h
    return ClassNumber(q, h, a_half, q * (a_half - h) // 2)


def class_number(q_or_chi) -> ClassNumber:
    """Class number of Q(sqrt(-q)) via the finite character sum formula.

    h, A(half) and B(half) come from _checked_prefix, the kernel and the
    checks the margins and the scan share.  It reads one chi table and
    one int64 prefix array of (q + 1)/2 entries each, so memory grows
    linearly with q.
    """
    ch = _as_char(q_or_chi)
    return _class_number_cached(ch.q)


class _MarginBuffers:
    """Scratch arrays for _margin_min over a = 0..n, n <= (q_max-1)/2: the
    int8 table and the squares chi_values scatters a prime period with,
    and the int64 prefix sums A.

    One instance serves every modulus <= q_max.  A scan reuses it across a
    block of moduli, so each modulus writes into pages already mapped
    instead of allocating ~4 MB temporaries afresh near q = 10**6.  No W
    array is kept: _margin_min forms W only inside the few blocks it
    evaluates.
    """

    def __init__(self, q_max: int):
        half = (q_max - 1) // 2
        self.table = np.empty(q_max, dtype=np.int8)
        k = np.arange(1, half + 1, dtype=np.int64)
        self.squares = np.multiply(k, k, out=k)
        self.a = np.empty(half + 1, dtype=np.int64)


def _checked_prefix(ch: QuadChar, n: int, buf: _MarginBuffers | None = None,
                    chi: np.ndarray | None = None):
    """(h, A) with A(a) = chi(1) + ... + chi(a) over a = 0..n, n >= half.

    chi, a prebuilt table of at least n + 1 entries, defaults to
    chi_values(ch, n, buf).  A is int64 (|A(a)| <= a), in buf.a when buf
    is given, and is summed in place, so no int64 copy of the table is
    made.  h is read off A(half) = (2 - chi(2))*h, and Abel summation gives
    B(half) = half*A(half) - sum(A[0:half]), so every class number check
    runs here, once, before any W is formed.  |sum(A[0:half])| <=
    half**2/2, so it is summed in int64 while half**2 < _INT64_GUARD, else
    in Python integers.
    """
    q = ch.q
    half = (q - 1) // 2
    if chi is None:
        chi = chi_values(ch, n, buf)
    A = np.empty(n + 1, dtype=np.int64) if buf is None else buf.a[:n + 1]
    np.copyto(A, chi[:n + 1])
    np.cumsum(A, out=A)
    a_half = int(A[half])
    wide = half * half >= _INT64_GUARD
    tail = int(A[:half].sum(dtype=object if wide else np.int64))
    return _checked_class_number(q, a_half, half * a_half - tail), A


def _margins(ch: QuadChar, a_max: int, chi: np.ndarray | None = None):
    """(h, A, W) over a = 0..a_max, with W(a) = a*(h - A(a)) + B(a), exact.

    W(0) = 0 and W(a+1) - W(a) = h - A(a), so W is one cumulative sum of
    h - A, written into W[1:] and summed in place there, with no linear
    sum B, no index array and no separate steps array.  It runs over
    n = max(a_max, half), since _checked_prefix reads h and its checks off
    the half range.  |W| <= n*(|h| + n): below _INT64_GUARD W is int64,
    else object dtype holding Python integers.  chi, a prebuilt table of
    at least n + 1 entries, defaults to chi_values(ch, n); A and W are
    fresh arrays either way.
    """
    if a_max < 1:
        raise DomainError("need a_max >= 1")
    n = max(a_max, (ch.q - 1) // 2)
    h, A = _checked_prefix(ch, n, None, chi)
    W = np.empty(n + 1, dtype=np.int64 if n * (abs(h) + n) < _INT64_GUARD
                 else object)
    W[0] = 0
    np.subtract(h, A[:n], out=W[1:])
    np.cumsum(W[1:], out=W[1:])
    return h, A[:a_max + 1], W[:a_max + 1]


def margin_values(q_or_chi, a_max: int):
    """(h, W) where W[a] = a*(h - A(a)) + B(a) for a = 0..a_max, exact.

    Any a_max >= 1 is allowed, including ranges past the half period.  The
    cost is O(max(a_max, q/2)) time and memory even for a small a_max,
    since h is read off the character sum over the whole half period.
    """
    h, _, W = _margins(_as_char(q_or_chi), a_max)
    return h, W


def _block_bounds(h: int, A: np.ndarray, a_max: int):
    """(starts, spans, bounds) of the blocks a in [s, s + span] of _margin_min.

    Block k starts at s = 1 + k*L, L = _MIN_BLOCK, and spans min(L,
    a_max - s) steps, so neighbours share an end and a last block with
    a_max on its start has no steps.  The starts are exact: W(1) = h and
    W(s + L) = W(s) + L*h - sum(A[s:s+L]).  W(s + t) - W(s) =
    sum(h - A[s:s+t]), so bound = W(s) + span*min(0, h - max(A[s:e]))
    is at most every W on the block, with e = min(s + L, a_max + 1) taking
    in every step A[s:s+span] the block uses.  starts and bounds are
    int64 while half*(|h| + half) < _INT64_GUARD (|W| stays below it, and
    so does every bound), else Python integers in object arrays.
    """
    L = _MIN_BLOCK
    half = len(A) - 1
    s = np.arange(1, a_max + 1, L)
    seg = A[:a_max + 1]
    rises = np.empty(len(s), dtype=np.int64 if half * (abs(h) + half)
                     < _INT64_GUARD else object)
    rises[0] = h
    rises[1:] = L * h - np.add.reduceat(seg, s)[:-1]
    starts = np.cumsum(rises)
    spans = np.minimum(L, a_max - s)
    return starts, spans, starts + spans * np.minimum(
        h - np.maximum.reduceat(seg, s), 0)


def _margin_min(ch: QuadChar, a_max: int, buf: _MarginBuffers):
    """(h, min W(a), first argmin a) over 1 <= a <= a_max <= (q-1)/2.

    No W array over the range is formed.  _block_bounds gives every block
    start W(s), which is an attained value, and a lower bound on W over
    the block; only blocks whose bound is at most the least start can hold
    the minimum or a tie of it, and each of those (near q = 10**6, 2 or 3
    of about 120, at the two ends) gets a local cumulative sum of h - A.
    Blocks are read in order of a with a strict comparison, so the first
    argmin is kept.  A block's local offsets W(s + t) - W(s), t <= span,
    are bounded by L*(|h| + n), n = half, L = _MIN_BLOCK, and since
    span < n also by n*(|h| + n), the bound on W itself; they take the
    starts' dtype, so on the object path every start, offset and the
    minimum are Python integers.
    """
    half = (ch.q - 1) // 2
    if not 1 <= a_max <= half:
        raise DomainError(f"need 1 <= a_max <= {half}, got {a_max}")
    h, A = _checked_prefix(ch, half, buf)
    starts, spans, bounds = _block_bounds(h, A, a_max)
    best = arg = None
    for k in np.flatnonzero(bounds <= starts.min()):
        s = 1 + int(k) * _MIN_BLOCK
        v, t = starts[k], 0
        if spans[k]:
            off = np.cumsum(np.subtract(h, A[s:s + spans[k]],
                                        dtype=starts.dtype))
            j = int(np.argmin(off))
            if off[j] < 0:
                v, t = v + off[j], j + 1
        if best is None or v < best:
            best, arg = v, s + t
    return h, int(best), arg


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
