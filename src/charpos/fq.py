"""Evaluators for the character sine series

    f_q(x) = sum_{n>=1} chi(n) * sin(2 pi n x) / n**2.

Three routes are provided and cross-checked against each other:

* a truncated floating series with a proven 1/N tail bound,
* a closed form that is exact rational arithmetic up to one final factor
  of 2*pi**2/sqrt(q),
* integer cores at rational points: at x = a/q a quadratic lattice sum,
  independent of the margins and checked against them by
  identity_check, and at x = a/p (fq_prime_frac and the census kernel
  _prime_frac_stats) the lattice interpolation between W(k) and
  W(k + 1), k = floor(aq/p).

The closed form comes from summing the Fourier series of the sawtooth
against the character: on each interval [a/q, (a+1)/q] the function
x -> x*(h - S(qx)) is linear with slope h - A(a) and intercept B(a)/q,
and f_q(x) = 2*pi**2/sqrt(q) * that.  At x = a/p this gives the core
4pq (p B(k) + a q (h - A(k))) of PrimeFracEval, equal to the window sum
over b <= pq of the paper; only the tests' oracle
(oracles.prime_frac_core) forms that sum, literally, as the independent
check of both prime-fraction paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .charsum import (_block_moments, _checked_class_number, _linear_sum, _low_spans,
                      _span_min, class_number, margin_values, weighted_prefix_sum)
from .errors import DomainError, ExactnessError
from .ntcore import BLOCK, PI2_HI, QuadChar, chi_values, is_prime, quad_char

_HALF = Fraction(1, 2)


def _slab_sum(weights: np.ndarray, factor, n_terms: int) -> float:
    """sum_{n=1}^{N} weights[n-1] * factor(n) / n**2, the one kernel of
    every truncated series: _sin_sum gives it sin(2 pi n x), _pattern_sums
    a periodic pattern.

    factor maps an int64 slab of n to float64 values.  The terms are summed
    in slabs of BLOCK, so the arrays stay O(BLOCK) for any N, and an N of
    at most BLOCK is one slab.
    """
    total = 0.0
    for lo in range(0, n_terms, BLOCK):
        k = np.arange(lo + 1, min(lo + BLOCK, n_terms) + 1, dtype=np.int64)
        n = k.astype(np.float64)
        total += float(np.sum(weights[lo:lo + len(k)] * factor(k) / (n * n)))
    return total


def _sin_sum(weights: np.ndarray, x: Fraction, n_terms: int) -> float:
    """sum_{n=1}^{N} weights[n-1] * sin(2 pi n x) / n**2, by _slab_sum.

    The angle is reduced exactly: n*x mod 1 is computed in integers before
    any float is formed, so the sine argument is always in [0, 2 pi) and
    catastrophic argument loss cannot occur even for huge numerators.
    numpy takes the products n*num and the modulus den only in int64;
    past that the reduction runs on Python integers.
    """
    num = x.numerator % x.denominator
    den = x.denominator
    if num == 0 or 2 * num == den:
        return 0.0
    n_terms = int(n_terms)

    def sine(k):
        if n_terms * num < 1 << 62 and den < 1 << 63:
            frac = (k * num % den).astype(np.float64) / den
        else:
            frac = np.array([m * num % den / den for m in k.tolist()])
        return np.sin((2 * math.pi) * frac)

    return _slab_sum(weights, sine, n_terms)


@dataclass(frozen=True)
class SeriesValue:
    value: float
    tail_bound: float
    terms: int


def fq_series(q_or_chi, x, n_terms: int) -> SeriesValue:
    """Truncated f_q(x); the dropped tail is below 1/n_terms in absolute value."""
    ch = quad_char(q_or_chi)
    if n_terms < 1:
        raise DomainError("need n_terms >= 1")
    x = Fraction(x)
    w = chi_values(ch, n_terms)[1:]
    return SeriesValue(_sin_sum(w, x, n_terms), 1.0 / n_terms, n_terms)


@dataclass(frozen=True)
class FqExact:
    """f_q(x) = coeff * 2*pi**2/sqrt(q) with coeff an exact Fraction."""

    q: int
    x: Fraction
    coeff: Fraction
    value: float


def fq_exact(q_or_chi, x) -> FqExact:
    """Closed-form f_q at any rational x, reduced by periodicity and oddness.

    At x = a/q the coefficient equals W(a)/q with W the integer margin, so
    positivity questions reduce to signs of integers.
    """
    ch = quad_char(q_or_chi)
    x = Fraction(x)
    t = x - math.floor(x)
    sign = 1
    if 2 * t > 1:
        t = 1 - t
        sign = -1
    if t == 0 or 2 * t == 1:
        coeff = Fraction(0)
    else:
        h = class_number(ch).h
        coeff = sign * t * (h - weighted_prefix_sum(ch, ch.q * t))
    value = 2 * math.pi ** 2 / math.sqrt(ch.q) * float(coeff)
    return FqExact(ch.q, x, coeff, value)


@dataclass(frozen=True, eq=False)
class PiecewiseFq:
    """Exact piecewise-linear model of x*(h - S(qx)) on [0, (a_max+1)/q].

    Piece a covers [a/q, (a+1)/q]; there the function is
    x * slopes[a] + intercepts[a]/q, and f_q(x) is 2*pi**2/sqrt(q) times it.
    margins[a] = W(a) is the (scaled by q) value at the left node a/q.
    """

    q: int
    h: int
    a_max: int
    slopes: np.ndarray
    intercepts: np.ndarray
    margins: np.ndarray

    def coeff_at(self, x) -> Fraction:
        x = Fraction(x)
        if not 0 <= x <= Fraction(self.a_max + 1, self.q):
            raise DomainError(f"{x} outside modeled range")
        a = min(math.floor(x * self.q), self.a_max)
        return x * int(self.slopes[a]) + Fraction(int(self.intercepts[a]), self.q)


def piecewise_fq(q_or_chi, a_max: int | None = None) -> PiecewiseFq:
    """The pieces a = 0..a_max (default (q-1)/2) of x*(h - S(qx)).

    margin_values gives W over 0..a_max + 1; the slope of piece a is
    W(a + 1) - W(a) = h - A(a) and its intercept W(a) - a*slope.
    """
    ch = quad_char(q_or_chi)
    if a_max is None:
        a_max = (ch.q - 1) // 2
    if a_max < 1:
        raise DomainError("need a_max >= 1")
    h, W = margin_values(ch, a_max + 1)
    slopes, W = np.diff(W), W[:-1]
    return PiecewiseFq(ch.q, h, a_max, slopes, W - np.arange(a_max + 1) * slopes, W)


@dataclass(frozen=True)
class FqShape:
    """Sign profile of f_q on [0, 1/2]: minimum node margin, zeros, flats."""

    q: int
    h: int
    min_w: int
    argmin_a: int
    min_coeff: Fraction
    argmin_x: Fraction
    zeros: tuple[Fraction, ...]
    flats: tuple[tuple[Fraction, Fraction], ...]


def fq_min_and_zeros(q_or_chi) -> FqShape:
    """All zeros and flat stretches of f_q in (0, 1/2], found exactly.

    Since the function is piecewise linear (after removing the positive
    prefactor), zeros are either nodes a/q with W(a) = 0 or sign changes
    inside a piece, solved in rationals.  f_q(1/2) = 0 identically by
    oddness around 1/2; that endpoint shows up through the final flat when
    the last piece vanishes, never as an interior zero.

    Piece a, on [a/q, (a+1)/q], runs from W(a) to W(a+1), so everything
    here is read from W at the nodes 1..half + 1: one table, one
    _block_moments, and the spans of _low_spans with floor 0.  A skipped
    block has a bound above 0 that is at most every W on it, so it holds
    no node zero, no sign change (that needs a W < 0), no flat (W(a) =
    W(a+1) = 0), and neither the minimum nor a tie of it.  Every piece
    lies in one block, so a piece that counts is read once, in the span
    of its block's run.
    """
    ch = quad_char(q_or_chi)
    q = ch.q
    half = (q - 1) // 2
    chi = chi_values(ch, half)
    h, _, _, A, B = _block_moments(ch, chi)
    mins, zeros, flats = [], [], []
    for lo, W in _low_spans(h, A, B, chi, half, 0):  # W[j] = W(lo - 1 + j)
        mins.append(_span_min(lo, W))
        zeros += [Fraction(a, q) for a in (np.flatnonzero(W[1:-1] == 0) + lo).tolist()]
        sign = np.sign(W)
        cross = sign[:-1] * sign[1:] < 0
        cross[half + 1 - lo:] = False  # the piece holding 1/2 is odd about it
        for j in np.flatnonzero(cross).tolist():
            slope = int(W[j + 1]) - int(W[j])
            zeros.append(Fraction((lo - 1 + j) * slope - int(W[j]), q * slope))
        for a in (np.flatnonzero((W[:-1] == 0) & (W[1:] == 0)) + lo - 1).tolist():
            x0, x1 = Fraction(a, q), min(Fraction(a + 1, q), _HALF)
            if flats and flats[-1][1] == x0:
                flats[-1] = (flats[-1][0], x1)
            else:
                flats.append((x0, x1))
    min_w, argmin_a = min(mins)
    return FqShape(q, h, min_w, argmin_a, Fraction(min_w, q), Fraction(argmin_a, q),
                   tuple(sorted(zeros)), tuple(flats))


@dataclass(frozen=True)
class PrimeFracEval:
    """f_q(a/p) as an exact multiple of p*q.  With k = floor(aq/p),

        core = 4pq (p B(k) + a q (h - A(k))),
        f_q(a/p) = pi**2 * core / (2 p**2 q**2 sqrt(q)),

    the lattice interpolation between W(k) and W(k+1).  core equals the
    window sum -chi_q(p) * (T(aq mod p) - T(-aq mod p)) with T(r) = sum
    of b**2 chi_q(b) over b <= pq, b = r (mod p), and stat = core/(p*q)
    is always an integer.
    """

    a: int
    p: int
    q: int
    core: int
    stat: int
    q_divides: bool
    modulus_prime: bool
    value: float


# int64 ceiling of the census stats: _prime_frac_stats takes int64 when
# 4 p q**2 < _CENSUS_INT64_GUARD for the largest p and q of a group.
_CENSUS_INT64_GUARD = 1 << 63


def _prime_frac_stats(chars, p, a, counts) -> np.ndarray:
    """stat = 4 (p B(k) + a q (h - A(k))), k = floor(aq/p), for aligned
    int64 arrays p, a: counts[i] evaluations in turn for each character
    chars[i], with 0 < 2a < p < q.

    The half tables chi_values(ch, (q-1)//2) are laid end to end; the
    table gate of chi_values refuses one above ntcore._TABLE_MAX = 2**30
    entries before it builds anything.  k <= (q-1)/2, as 2a < p, so the
    half table of q holds chi(0..k).  chi is read in slabs of at most
    BLOCK entries: P0 and G1, the sums of chi(y) and of y chi(y) (y the
    position in chi) before a position x, are two int64 cumulative sums
    per slab, carried from slab to slab, read at x = start + k + 1 of each
    evaluation and at each table end.  A table's start is the end before
    it, so A(k) = P0(x) - P0(start) and B(k) = G1(x) - G1(start) - start
    A(k), and the same differences at the table's own end give A(half)
    and B(half), from which charsum._checked_class_number gives h.  With
    N = len(chi), |P0| <= N and |G1| < N**2/2: int64, as a group of one
    modulus has N <= 2**29 + 1 and a group of several a few thousand
    entries (verify._census_groups).

    The stats are formed in int64 when 4 p q**2 < _CENSUS_INT64_GUARD =
    2**63 for the largest p and q of the call, else in Python integers in
    an object array.  From k <= q/2, |B(k)| <= q**2/8, |h - A(k)| < q
    and a < p/2, every partial sum in evaluation order is below
    4 (p q**2/8 + p q**2/2) = 2.5 p q**2.  The census is checked against
    the literal T sum of the tests' oracle, oracles.prime_frac_core.
    """
    halves = [(ch.q - 1) // 2 for ch in chars]
    tables = [chi_values(ch, n) for ch, n in zip(chars, halves)]
    chi = tables[0] if len(tables) == 1 else np.concatenate(tables)
    sizes = np.array(halves, dtype=np.int64) + 1
    ends = np.cumsum(sizes)
    starts = ends - sizes
    t = np.repeat(np.arange(len(chars)), counts)
    q = np.array([ch.q for ch in chars], dtype=np.int64)[t]
    p = np.asarray(p, dtype=np.int64)
    a = np.asarray(a, dtype=np.int64)
    x = np.concatenate((starts[t] + a * q // p + 1, ends))
    p0 = np.empty(len(x), dtype=np.int64)
    g1 = np.empty(len(x), dtype=np.int64)
    c0 = c1 = 0
    for lo in range(0, len(chi), BLOCK):
        v = chi[lo:lo + BLOCK].astype(np.int64)
        hi = lo + len(v)
        yv = np.arange(lo, hi)
        yv *= v
        a0 = np.empty(len(v) + 1, dtype=np.int64)
        a1 = np.empty(len(v) + 1, dtype=np.int64)
        a0[0], v[0] = c0, v[0] + c0
        a1[0], yv[0] = c1, yv[0] + c1
        np.cumsum(v, out=a0[1:])
        np.cumsum(yv, out=a1[1:])
        c0, c1 = int(a0[-1]), int(a1[-1])
        hit = (slice(None) if hi - lo == len(chi)
               else np.flatnonzero((x >= lo) & (x <= hi)))
        o = x[hit] - lo
        p0[hit] = a0[o]
        g1[hit] = a1[o]
    n = len(t)
    e0, e1 = np.concatenate(([0], p0[n:])), np.concatenate(([0], g1[n:]))
    a_half = np.diff(e0)
    b_half = np.diff(e1) - starts * a_half
    h = np.array([_checked_class_number(ch, s0, s1) for ch, s0, s1
                  in zip(chars, a_half.tolist(), b_half.tolist())], dtype=np.int64)
    a_k = p0[:n] - e0[t]
    b_k = g1[:n] - e1[t] - starts[t] * a_k
    dtype = (np.int64 if 4 * int(np.max(p, initial=0)) * int(q.max(initial=0)) ** 2
             < _CENSUS_INT64_GUARD else object)
    p, a, q = (col.astype(dtype) for col in (p, a, q))
    return 4 * (p * b_k.astype(dtype) + a * q * (h[t] - a_k).astype(dtype))


def fq_prime_frac(a: int, p: int, q_or_chi) -> PrimeFracEval:
    """Evaluate f_q(a/p) for an odd prime p = 3 (mod 4) not dividing q.

    Like identity_check's single node, everything is read off one half
    table chi_values(ch, (q-1)//2), whose table gate refuses an oversized
    q before anything is built: h from _block_moments, A(k) as its int64
    sum through k = floor(aq/p) <= (q-1)/2 and B(k) as _linear_sum of it,
    and stat = 4 (p B(k) + a q (h - A(k))) in Python integers, whatever
    the size of p.
    """
    ch = quad_char(q_or_chi)
    q = ch.q
    if not is_prime(p) or p % 4 != 3:
        raise DomainError(f"p must be a prime = 3 (mod 4), got {p}")
    if p in ch.factors:
        raise DomainError(f"p = {p} divides the modulus {q}")
    if not (1 <= a and 2 * a < p):
        raise DomainError(f"need 0 < a < p/2, got a={a}, p={p}")
    chi = chi_values(ch, (q - 1) // 2)
    h = _block_moments(ch, chi)[0]
    head = chi[:a * q // p + 1]
    stat = 4 * (p * _linear_sum(head) + a * q * (h - int(head.sum(dtype=np.int64))))
    core = p * q * stat
    value = math.pi ** 2 * core / (2.0 * p * p * q * q * math.sqrt(q))
    return PrimeFracEval(a, p, q, core, stat, stat % q == 0,
                         len(ch.factors) == 1, value)


@dataclass(frozen=True)
class LatticeQuadEval:
    """f_q(a/q) = pi**2 * core / (2 q**2 sqrt(q)) from one quadratic sum."""

    q: int
    a: int
    core: int
    value: float


def _lattice_char(q_or_chi, a: int | None = None) -> QuadChar:
    """The character of a lattice entry point, once the node a (when
    given) is checked, so rejected input never builds a chi table.  The
    size of q is left to the table gate of chi_values, which refuses a
    period of more than ntcore._TABLE_MAX = 2**30 entries before it
    allocates anything."""
    ch = quad_char(q_or_chi)
    q = ch.q
    if a is not None:
        if not 1 <= a < q:
            raise DomainError(f"need 1 <= a < q, got a={a}")
        if math.gcd(a, q) != 1:
            raise DomainError(f"a = {a} shares a factor with q = {q}")
    return ch


def _lattice_core(chi: np.ndarray, a: int) -> int:
    """core(a) from one period chi of q entries, for a node checked by
    _lattice_char.

    It is q times the last entry of _lattice_blocks(chi, b) with
    b = min(a, q - a), negated when b != a: chi is odd, so
    core(q - a) = -core(a).  The cost is one pass over the period and b
    steps, O(q) time and O(1) blocks of memory.
    """
    q = len(chi)
    b = min(a, q - a)
    for _, y in _lattice_blocks(chi, b):
        pass
    core = q * int(y[-1])
    return core if b == a else -core


# Up to this modulus |core| <= 7q**3 + q**2 < 2**63, so lattice_quad_values
# returns int64 cores; above it, Python integers in an object array.
_LATTICE_INT64_MAX = 1_000_000

# Entries per block of _lattice_blocks: 128 KiB per int64 array.  The
# kernel's seven arrays and identity_check's two difference buffers take
# about 1.1 MiB, which stays in a 2 MiB L2 and is reused block to block.  In
# a sweep of 2**12..2**16 for identity_check on a 2-core Xeon VM, 2**14
# was within 6% of the fastest size (2**13) near q = 10**6, where 2**16
# was 35% slower, and tied with 2**12 for the fastest near 2*10**5.
_LATTICE_BLOCK = 1 << 14


def fq_lattice_quad(q_or_chi, a: int) -> LatticeQuadEval:
    """Evaluate f_q(a/q) by the lattice sum

        core = q**2 chi(a) - sum_{c=1}^{q-1} c**2 (chi(c-a) - chi(c+a)).

    core always equals 4*q*W(a); the identity is checked in the tests and
    exposed through identity_check.  The single core is read from the
    block kernel of lattice_quad_values (see _lattice_core), so one node
    costs no more than the batch up to min(a, q - a); it is a Python
    integer for every q the table gate admits.
    """
    ch = _lattice_char(q_or_chi, a)
    q = ch.q
    core = _lattice_core(chi_values(ch, q - 1), a)
    value = math.pi ** 2 * core / (2.0 * q * q * math.sqrt(q))
    return LatticeQuadEval(q, a, core, value)


def lattice_quad_values(q_or_chi, a_max: int) -> np.ndarray:
    """core values for a = 1..a_max at once, via streamed prefix sums.

    The shifted quadratic sums telescope: with prefix sums of chi and
    m*chi, read forward from 0 and backward from q, each correction term
    is a linear combination of window sums, so the whole batch costs
    O(q + a_max) for every q the table gate admits.  The kernel yields
    core/q in int64 and the batch is multiplied by q once: int64 cores up
    to _LATTICE_INT64_MAX, Python integers in an object array above it.
    """
    ch = _lattice_char(q_or_chi)
    q = ch.q
    if not 1 <= a_max < q:
        raise DomainError(f"need 1 <= a_max < q, got {a_max}")
    out = np.empty(a_max, dtype=object if q > _LATTICE_INT64_MAX else np.int64)
    for a1, y in _lattice_blocks(chi_values(ch, q - 1), a_max):
        out[a1 - 1 : a1 - 1 + len(y)] = y
    out *= q
    return out


def _lattice_blocks(chi: np.ndarray, a_max: int):
    """Yield (a1, y) with q*y[i] = core(a1 + i), for a = 1..a_max in int64
    blocks of at most _LATTICE_BLOCK, from one prebuilt period chi of q
    entries.  Each block is a buffer the next block overwrites.

    Regrouped, with P0(q-1) = 0 as chi is not principal, and with
    Pk(n) = sum_{j<=n} j**k chi(j), Rk(a) = sum_{j<=a} (q-j)**k chi(q-j):
    core(a) = q**2 (chi(a) + w) + 2q (u - a w) - 4a P1(q-1) with
    w = P0(a-1) - R0(a) and u = R1(a) + P1(a-1), running sums carried
    across blocks; from a - 1 to a, w steps by chi(a-1) - chi(q-a) and u
    by (a-1) chi(a-1) + (q-a) chi(q-a).  P1(q-1) is _linear_sum(chi).
    By the class number formula P1(q-1) = -q h(-q), so q divides every
    core: core(a) = q Y(a) with c = P1(q-1)/q and
    Y = q (chi(a) + w) + 2(u - a w) - 4a c.  A table whose P1(q-1) is not
    a multiple of q is no quadratic character mod q: ExactnessError.
    int64 bounds for a < q <= ntcore._TABLE_MAX = 2**30, the largest period
    chi_values builds, from |chi| <= 1:
    |P0(n)| <= min(n + 1, q - 1 - n), so |w| <= min(2a, q);
    |P1(a-1)| <= a**2/2 and |R1(a)| <= aq - a**2/2, so |u| <= aq < q**2;
    |a w| < q**2 and |c| <= (q - 1)/2.  In evaluation order the partial
    sums are the steps (|.| <= 3q), w, u, a w, u - a w and 2(u - a w)
    (<= 4q**2), q (chi(a) + w) (<= q**2 + q), their sum (<= 5q**2 + q),
    4a c (< 2q**2) and Y: all below 7q**2 + q <= 7*2**60 + 2**30 ~
    8.07e18 < 2**63 ~ 9.22e18.
    """
    q = len(chi)
    block = _LATTICE_BLOCK
    p1_q = _linear_sum(chi)
    c, rem = divmod(p1_q, q)
    if rem:
        raise ExactnessError(f"sum of j chi(j) over one period, {p1_q}, "
                             f"is not a multiple of q = {q}")
    m = min(block, a_max)
    step = np.arange(m, dtype=np.int64)
    a, fwd, bwd, w, u, t = (np.empty(m, dtype=np.int64) for _ in range(6))
    w_c = u_c = 0
    for a1 in range(1, a_max + 1, block):
        m = min(block, a_max + 1 - a1)
        ab, fb, bb, wb, ub, tb = (x[:m] for x in (a, fwd, bwd, w, u, t))
        np.add(step[:m], a1, out=ab)
        fb[:] = chi[a1 - 1 : a1 - 1 + m]
        bb[:] = chi[q - a1 - m + 1 : q - a1 + 1][::-1]
        # steps of w and u, (a-1) chi(a-1) + (q-a) chi(q-a) written as
        # a (chi(a-1) - chi(q-a)) + q chi(q-a) - chi(a-1)
        np.subtract(fb, bb, out=wb)
        np.multiply(ab, wb, out=ub)
        bb *= q
        ub += bb
        ub -= fb
        wb[0] += w_c
        ub[0] += u_c
        np.cumsum(wb, out=wb)
        np.cumsum(ub, out=ub)
        w_c, u_c = int(wb[-1]), int(ub[-1])
        np.multiply(ab, wb, out=tb)
        np.subtract(ub, tb, out=tb)
        tb *= 2
        wb += chi[a1 : a1 + m]
        wb *= q
        wb += tb
        ab *= 4 * c
        wb -= ab
        yield a1, wb


def identity_check(q_or_chi, a: int | None = None) -> bool:
    """Confirm core(a) == 4*q*W(a), for one a or the whole half range.

    Both sides read one chi table, and h comes from _block_moments on it,
    with every class number check.  One a compares core(a) with W(a) =
    a*(h - A(a)) + B(a), read off that table: A(a) is its int64 sum through
    a and B(a) is _linear_sum of it, so no W walk and no array past the
    table is formed, wherever a lies in 1..q-1.  Both are exact in int64,
    as a < q <= ntcore._TABLE_MAX = 2**30 gives |A(a)| <= a < 2**30 and
    |B(a)| <= a**2/2 < 2**59; W is a Python integer.

    The half range forms no W at all.  W(a+1) - W(a) = h - A(a), so W is
    fixed by W(-1) = -h, W(0) = 0 and W(a) - 2W(a-1) + W(a-2) = -chi(a-1).
    Block by block, Y = core/q from _lattice_blocks is checked against that
    recurrence: Y(a) - 2Y(a-1) + Y(a-2) == -4chi(a-1) at every a = 1..half,
    from 4W(-1) = -4h and 4W(0) = 0, with Y(a1-1) and Y(a1-1) - Y(a1-2)
    carried from block to block as Python integers.  The differences are
    int64 and may wrap.  That is sound: if they agree mod 2**64 at every
    node, then by induction Y = 4W (mod 2**64) on 1..half.  Y is int64, so
    |Y| <= 2**63, and |W| <= n (|h| + n) <= 2n**2 for n = (q - 1)/2 < 2**29,
    so |4W| <= 8n**2 < 2**61 for every q <= ntcore._TABLE_MAX the gate
    admits.  Hence |Y - 4W| < 2**64, and Y = 4W exactly.
    """
    ch = _lattice_char(q_or_chi, a)
    q = ch.q
    chi = chi_values(ch, q - 1)
    half = (q - 1) // 2
    h = _block_moments(ch, chi[:half + 1])[0]
    if a is not None:
        w = a * (h - int(chi[:a + 1].sum(dtype=np.int64))) + _linear_sum(chi[:a + 1])
        return _lattice_core(chi, a) == 4 * q * w
    bufs = [np.empty(min(_LATTICE_BLOCK, half), dtype=np.int64) for _ in range(2)]
    y1, d1 = 0, 4 * h  # 4W(0) and 4W(0) - 4W(-1)
    for a1, y in _lattice_blocks(chi, half):
        d, s = (x[:len(y)] for x in bufs)
        np.subtract(y[1:], y[:-1], out=d[1:])
        np.subtract(y[:1], y1, out=d[:1])
        np.subtract(d[1:], d[:-1], out=s[1:])
        np.subtract(d[:1], d1, out=s[:1])
        y1, d1 = int(y[-1]), int(d[-1])
        np.multiply(chi[a1 - 1 : a1 - 1 + len(y)], -4, out=d)  # d is spent
        if not np.array_equal(s, d):
            return False
    return True


# Weight patterns for the auxiliary L-style tails: value at n depends on
# n mod len(pattern), with pattern[0] the weight at multiples of the period.
CHI3 = (0, 1, -1)
FIFTH_RE = (0, 1, 0, 0, -1)
FIFTH_IM = (0, 0, 1, -1, 0)


def _pattern_sums(q_or_chi, patterns, n_terms: int) -> list[float]:
    """sum_{n<=N} chi(n) * pattern[n mod len] / n**2 for each pattern, each
    a _slab_sum over one shared int8 chi table.

    N and the patterns are checked and the chi table comes first, so
    rejected input and an N the table gate refuses allocate nothing."""
    ch = quad_char(q_or_chi)
    n_terms = int(n_terms)
    if n_terms < 1:
        raise DomainError("need n_terms >= 1")
    if not all(len(pattern) for pattern in patterns):
        raise DomainError("need a nonempty pattern")
    chi = chi_values(ch, n_terms)[1:]
    pats = [np.asarray(pattern, dtype=np.float64) for pattern in patterns]
    return [_slab_sum(chi, lambda k, pat=pat: pat[k % len(pat)], n_terms)
            for pat in pats]


def l2_series(q_or_chi, pattern, n_terms: int) -> SeriesValue:
    """sum_{n<=N} chi(n) * pattern[n mod len] / n**2, tail below 1/N."""
    value, = _pattern_sums(q_or_chi, [pattern], n_terms)
    n_terms = int(n_terms)
    return SeriesValue(value, 1.0 / n_terms, n_terms)


def fq_third(q_or_chi, n_terms: int = 10 ** 6) -> float:
    """f_q(1/3) = (sqrt(3)/2) * sum chi(n) chi_3(n) / n**2, truncated."""
    return math.sqrt(3) / 2 * l2_series(q_or_chi, CHI3, n_terms).value


def fq_fifth(q_or_chi, n_terms: int = 10 ** 6) -> float:
    """f_q(1/5) via the two real period-5 components of n -> sin(2 pi n/5),
    both summed over one chi table."""
    alpha, beta = _pattern_sums(q_or_chi, [FIFTH_RE, FIFTH_IM], n_terms)
    return math.sin(2 * math.pi / 5) * alpha + math.sin(4 * math.pi / 5) * beta


def fifth_alpha_lower_bound() -> Fraction:
    """Certified lower bound for the alpha component at 1/5.

    The n = 1 term of alpha is exactly 1 and every other term is at least
    -1/n**2 with n >= 4, so alpha >= 1 - (pi**2/6 - 1 - 1/4 - 1/9)
    = 2 + 13/36 - pi**2/6 > 0.716 for every modulus.  Built with the upper
    rational pi bound, so the returned Fraction is a true lower bound.
    """
    return Fraction(2) + Fraction(13, 36) - PI2_HI / 6
