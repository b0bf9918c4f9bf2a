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
from .ntcore import QuadChar, chi_values, is_prime, jacobi, quad_char

# _block_starts cuts a = 1..a_max into blocks of this many steps; a named
# constant, read at call time, so tests can shrink it.  It stays below
# 2**16, so the moments of a block fit int32 (_block_moments).  Its bound
# leaves a block a slack of about L**2/2 below its start, so a short L
# keeps the candidate blocks few.
_MIN_BLOCK = 1 << 8


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
    """Exact character prefix sums through `upto`, from at most one period.

    With upto = k*q + r, 0 <= r < q, a period of the non-principal chi
    sums to 0, so A(upto) = A(r); period j adds j*q*A(q - 1) + B(q - 1) =
    B(q - 1) to B, and the last partial one k*q*A(r) + B(r), so B(upto) =
    B(r) + k*(B(q - 1) + q*A(r)), in Python integers.  The table is
    chi_values(ch, min(upto, q - 1)): O(min(upto, q)) time and memory
    whatever upto is.  A(r) is its int64 sum through r, and both B values
    come from _linear_sum, the row moments that class numbers read.
    """
    ch = _as_char(q_or_chi)
    if upto < 0:
        raise DomainError("prefix_sums needs upto >= 0")
    k, r = divmod(upto, ch.q)
    chi = chi_values(ch, min(upto, ch.q - 1))
    a = int(chi[:r + 1].sum(dtype=np.int64))
    b = _linear_sum(chi[:r + 1])
    if k:
        b += k * (_linear_sum(chi) + ch.q * a)
    return PrefixSums(ch.q, upto, a, b)


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
    chi = chi_values(quad_char(q), (q - 1) // 2)
    return ClassNumber(q, *_block_moments(q, chi)[:3])


def class_number(q_or_chi) -> ClassNumber:
    """Class number of Q(sqrt(-q)) via the finite character sum formula.

    h, A(half) and B(half) come from _block_moments, the reductions and
    checks the margins and the scan share.  Besides the int8 chi table
    that chi_values builds for the half range (one period of q entries
    for prime q) it holds a few arrays of one entry per block of
    _MIN_BLOCK, so memory is about one byte per unit of q.
    """
    return _class_number_cached(_as_char(q_or_chi).q)


def _row_moments(chi: np.ndarray):
    """(S0, S1) of the rows of the (len(chi)//L, L) view of the int8 table
    chi, L = _MIN_BLOCK, the entries past the last full row left out.

    Row k holds chi(s + i), s = k*L, i < L, and its moments S0 = sum
    chi(s + i) and S1 = sum i*chi(s + i) are integer reductions of the
    table in int32 (|S1| < L**2/2 < 2**31, as L < 2**16), so no wider copy
    of the table is made.
    """
    L = _MIN_BLOCK
    rows = chi[:len(chi) // L * L].reshape(-1, L)
    return (rows.sum(axis=1, dtype=np.int32),
            np.einsum("ij,j", rows, np.arange(L, dtype=np.int32), dtype=np.int32))


def _linear_sum(chi: np.ndarray) -> int:
    """sum of j*chi(j) over the table chi of chi(0..n), from _row_moments:
    row k adds k*L*S0 + S1, in int64 (|S0| <= L, so the sum of k*L*S0 is
    below n**2/2), and the entries past the last row add one more dot."""
    L = _MIN_BLOCK
    s0, s1 = _row_moments(chi)
    e = len(s0) * L
    return (int(s1.sum(dtype=np.int64)) + L * int(s0 @ np.arange(len(s0)))
            + int(chi[e:] @ np.arange(e, len(chi))))


def _block_moments(q: int, chi: np.ndarray):
    """(h, A(half), B(half), A, B) from the table chi of chi(0..half).

    Row k of the (half//L, L) view of chi[1:], L = _MIN_BLOCK, holds
    chi(s + i), s = 1 + k*L, i < L, and _row_moments gives its moments
    S0 and S1.  A[k] = A(k*L) and B[k] = B(k*L), k = 0..half//L, are
    cumulative sums of S0 and s*S0 + S1, in int64.  The fewer than L
    entries past the last row enter only the totals A(half) and B(half),
    Python integers; a table of less than one row has only the edge 0,
    A = B = [0].  h is read off the totals by _checked_class_number, so
    every class number check runs here, once, for the scan, the margins
    and class_number alike.

    Every W array of this module is int64 too, and the table gate makes
    that exact.  W(a) is read only where the table holds chi(a), and
    chi_values builds no table of more than N = _TABLE_MAX = 2**30
    entries, so a, half < N.  There |A(a)| <= a, |B(a)| <= a**2/2 and
    |h| <= |A(half)| <= half, as h = A(half)/(2 - chi(2)); so |W(a)| =
    |a*h - sum_{m<=a} (a - m)*chi(m)| <= N*(|h| + N) <= 2*N**2 = 2**61.
    The steps h - A (at most 2*N), the block starts (values of W) and
    their bounds (a start less at most L*(2*N + 1) + L**2/2) of _w_span
    and _block_starts stay below 2**62.
    """
    n, L = len(chi) - 1, _MIN_BLOCK
    nb = n // L
    A = np.zeros(nb + 1, dtype=np.int64)
    B = np.zeros(nb + 1, dtype=np.int64)
    s0, s1 = _row_moments(chi[1:nb * L + 1])
    np.cumsum(s0, out=A[1:])
    np.cumsum(s1 + s0 * np.arange(1, nb * L + 1, L), dtype=B.dtype,
              out=B[1:])
    tail = chi[nb * L + 1:]
    a_n = int(A[-1]) + int(tail.sum())
    b_n = int(B[-1]) + int(np.dot(tail, np.arange(nb * L + 1, n + 1)))
    return _checked_class_number(q, a_n, b_n), a_n, b_n, A, B


def _w_span(h: int, A: np.ndarray, B: np.ndarray, chi: np.ndarray, lo: int,
            hi: int) -> np.ndarray:
    """W(lo..hi) exactly, walked from the last block edge e = k*L <= lo.

    A and B are _block_moments' sums at the block edges, L = _MIN_BLOCK
    (a lo past the last edge walks from that edge), so W(e) = e*(h - A[k])
    + B[k] is exact; chi is the table from chi(0), at least hi entries long.
    W(a+1) - W(a) = h - A(a), so one array w of hi - e + 1 entries does
    it all: w[1:] gets -chi(e..hi-1), negated as it is copied from the
    int8 table, with its first entry replaced by h - A(e); one cumulative
    sum in place turns it into the steps h - A(e..hi-1), and with w[0] =
    W(e) a second one gives W(e..hi).  Both sums run on the int64 array
    (every partial sum is a step or a value of W, see _block_moments):
    np.cumsum of int8 into int64 is much slower.
    """
    k = min(lo // _MIN_BLOCK, len(A) - 1)
    e, a_e = k * _MIN_BLOCK, int(A[k])
    w = np.empty(hi - e + 1, dtype=np.int64)
    steps = w[1:]
    np.negative(chi[e:hi], out=steps)
    steps[:1] = h - a_e  # no step when hi == e
    np.cumsum(steps, out=steps)
    w[0] = e * (h - a_e) + int(B[k])
    return np.cumsum(w, out=w)[lo - e:]


def _margins(ch: QuadChar, lo: int, hi: int):
    """(h, W) with W[i] = W(lo + i) = a*(h - A(a)) + B(a), a = lo..hi, exact.

    h and the block-edge sums come from _block_moments over the half
    range of the table chi_values(ch, max(hi, half)), and W from one
    _w_span, so nothing past hi is formed and the walk starts at the last
    block edge at or before lo.
    """
    half = (ch.q - 1) // 2
    chi = chi_values(ch, max(hi, half))
    h, _, _, A, B = _block_moments(ch.q, chi[:half + 1])
    return h, _w_span(h, A, B, chi, lo, hi)


def margin_values(q_or_chi, a_max: int):
    """(h, W) where W[a] = a*(h - A(a)) + B(a) for a = 0..a_max, exact.

    Any a_max >= 1 is allowed, including ranges past the half period.  h
    is read off the character sums over the half period, one int8 table
    and a few block reductions, so a small a_max costs about one byte per
    unit of q; W itself is one array of a_max + 1 entries.
    """
    if a_max < 1:
        raise DomainError("need a_max >= 1")
    return _margins(_as_char(q_or_chi), 0, a_max)


def _block_starts(h: int, A: np.ndarray, B: np.ndarray, chi: np.ndarray, a_max: int):
    """(starts, spans, bounds) of the blocks a in [s, s + span] of _low_spans.

    Block k starts at s = 1 + k*L, L = _MIN_BLOCK, and spans min(L,
    a_max - s) steps, so neighbours share an end and a last block with
    a_max on its start has no steps.  A and B are _block_moments' sums at
    the block edges, A[k] = A(s - 1) and B[k] = B(s - 1), and the starts
    are exact: chi(s) cancels in W(s) = s*(h - A(s)) + B(s) = s*(h -
    A(s - 1)) + B(s - 1).  W(s + t) - W(s) = sum_{i<t} (h - A(s + i)) and
    A(s + i) <= A(s) + i, so W(s + t) >= W(s) + t*(h - A(s)) - t*(t - 1)/2.
    That bound is concave in t, so its least value on 0 <= t <= span is at
    an end, and bound = W(s) + min(0, span*(h - A(s)) - span*(span - 1)/2)
    is at most every W on the block: no max of A is needed.  All of it is
    int64 (the bound is in _block_moments).
    """
    L = _MIN_BLOCK
    s = np.arange(1, a_max + 1, L)
    heads = h - A[:len(s)]
    starts = s * heads + B[:len(s)]
    spans = np.minimum(L, a_max - s)
    return starts, spans, starts + np.minimum(
        spans * (heads - chi[1:a_max + 1:L]) - spans * (spans - 1) // 2, 0)


def _low_spans(h: int, A: np.ndarray, B: np.ndarray, chi: np.ndarray, a_max: int,
               floor=-math.inf):
    """Yield (lo, w), w = W(lo - 1..hi + 1) from one _w_span, for each run
    lo..hi of consecutive _block_starts blocks over 1..a_max whose bound
    is at most max(floor, least start).  chi holds at least a_max + 1
    entries.  A range of one block, a_max <= L = _MIN_BLOCK, is one run
    1..a_max, as a bound is at most its own start.

    A block's bound is at most every W on it, and the least start is an
    attained value, so every a with W(a) at most that ceiling lies in a
    run: the minimum and its ties, and with floor = 0 every a with W(a)
    <= 0.  Runs come in order of a and share no a; a run's last a is
    a_max or the start of the first block past it.  The walk starts at
    the block edge lo - 1 itself, so the node before a run costs nothing
    and the node after it one step.
    """
    starts, _, bounds = _block_starts(h, A, B, chi, a_max)
    k = np.flatnonzero(bounds <= max(floor, starts.min()))
    L = _MIN_BLOCK
    for r in np.split(k, np.flatnonzero(np.diff(k) > 1) + 1):
        lo, hi = 1 + int(r[0]) * L, min(1 + (int(r[-1]) + 1) * L, a_max)
        yield lo, _w_span(h, A, B, chi, lo - 1, hi + 1)


def _span_min(lo: int, w: np.ndarray) -> tuple[int, int]:
    """(min W, first argmin) over lo..hi of a span w = W(lo - 1..hi + 1)
    of _low_spans.  Runs share no a, so the least of these pairs over the
    runs is the minimum with its first argmin."""
    t = int(np.argmin(w[1:-1]))
    return int(w[t + 1]), lo + t


def _margin_min(ch: QuadChar, a_max: int):
    """(h, min W(a), first argmin a) over 1 <= a <= a_max <= (q-1)/2.

    No W array, and no prefix array A over the range, is formed.
    chi_values builds the int8 table of the half range, a q-byte period
    of its own for prime q.  _block_moments reads the table once, as
    row sums over blocks of L = _MIN_BLOCK entries, and gives h and A, B
    at every block edge.  _low_spans walks only the runs of blocks whose
    lower bound is at most the least block start, the only ones that can
    hold the minimum or a tie of it (near q = 10**6, two to four of about
    1940, at the two ends), each as one _w_span from the block edge just
    before it.
    """
    half = (ch.q - 1) // 2
    if not 1 <= a_max <= half:
        raise DomainError(f"need 1 <= a_max <= {half}, got {a_max}")
    chi = chi_values(ch, half)
    h, _, _, A, B = _block_moments(ch.q, chi)
    return (h, *min(_span_min(lo, w) for lo, w in _low_spans(h, A, B, chi, a_max)))


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
    h, min_w, argmin_a = _margin_min(ch, a_max)
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
