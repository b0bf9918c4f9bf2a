"""Evaluators for the character sine series

    f_q(x) = sum_{n>=1} chi(n) * sin(2 pi n x) / n**2.

Three routes are provided and cross-checked against each other:

* a truncated floating series with a proven 1/N tail bound,
* a closed form that is exact rational arithmetic up to one final factor
  of 2*pi**2/sqrt(q),
* two independent finite character sums (an arithmetic-progression sum
  over [1, pq] for x = a/p, and a quadratic lattice sum for x = a/q)
  that evaluate f_q at rational points as single integers.

The closed form comes from summing the Fourier series of the sawtooth
against the character: on each interval [a/q, (a+1)/q] the function
x -> x*(h - S(qx)) is linear with slope h - A(a) and intercept B(a)/q,
and f_q(x) = 2*pi**2/sqrt(q) * that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .charsum import (_block_moments, _linear_sum, _low_spans, _span_min, class_number,
                      margin_values, weighted_prefix_sum)
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
    """f_q(a/p) recovered from one finite sum over the window [1, pq].

    core is the integer  -chi_q(p) * (T(aq mod p) - T(-aq mod p))  with
    T(r) = sum of b**2 chi_q(b) over b <= pq, b = r (mod p), and

        f_q(a/p) = pi**2 * core / (2 p**2 q**2 sqrt(q)).

    stat = core/(p*q) when that division is exact (it always has been in
    every scan run to date), else None.
    """

    a: int
    p: int
    q: int
    core: int
    stat: int | None
    q_divides: bool
    modulus_prime: bool
    value: float


# int64 ceiling for the census sums of _residue_totals and _prime_frac_cores.
_CENSUS_INT64_GUARD = 1 << 62


def _census_dtype(p_top: int, q: int):
    """int64 when 10 * p_top**2 * q**3 < _CENSUS_INT64_GUARD, else object,
    for the largest p (0 for none) and the largest q of some cores.

    _residue_totals proves every partial sum of a core below that bound.
    """
    return np.int64 if 10 * p_top ** 2 * q ** 3 < _CENSUS_INT64_GUARD else object


def _residue_totals(chi: np.ndarray, p, r, s, mods, t) -> np.ndarray:
    """T(r)/chi(p) for T(r) = sum of b**2 chi(b) over 0 < b <= pq, b = r (mod p).

    chi holds one period of the character mod each modulus of mods, laid
    end to end.  p, r, s and t are equal-length integer arrays: evaluation
    i reads the period of q = mods[t[i]], with gcd(p, q) = 1, 0 <= r < p
    and s = r/p mod q, where s = q may stand for 0.  With b = i*p + r, 0 <= i < q
    (b = 0 adds 0 and b = pq adds chi(pq) = 0), complete multiplicativity
    gives chi(b) = chi(p) chi(i + s), so

        T(r)/chi(p) = p**2 S2 + 2pr S1 + r**2 S0,  S_k = sum_i i**k chi(i + s).

    Splitting the period at j = s (i = j - s above it, j - s + q below)
    writes every S_k through M_k(t) = sum_{j<t} j**k chi(j):

        S0 = M0(q)
        S1 = M1(q) - s M0(q) + q M0(s)
        S2 = M2(q) - 2s M1(q) + s**2 M0(q) + 2q M1(s) + q(q - 2s) M0(s)

    M0(q) = 0, as chi is not principal, and M2(q) = q M1(q), as chi is
    odd: j -> q - j maps a period onto itself with chi(q - j) = -chi(j),
    so M2(q) = -(q**2 M0(q) - 2q M1(q) + M2(q)).  Hence S2 = (q - 2s) S1
    + 2q M1(s) and

        T(r)/chi(p) = p (S1 (p (q - 2s) + 2r) + 2pq M1(s)),

    so M0 and M1 at the split points and at the ends of the periods serve
    every residue in O(1); s = q reads M0(q) = 0 and M1(q), which gives
    the same S1 and S2 as s = 0.

    chi is read in slabs of at most BLOCK entries.  P0 and G1, the sums
    of chi(y) and of y chi(y) (y the position in chi) over all of chi
    before a position x, are two int64 cumulative sums per slab, carried
    from slab to slab, and read at the split points x = start + s and at
    the periods' edges.  Every period before x sums to M0(q) = 0, so
    M0(s) is P0 at the split point, and sum over y < x of start(y) chi(y)
    is start * M0(s); hence M1(s) = G1(x) - G1(start) - start M0(s) and
    M1(q) = G1(start + q) - G1(start).  With N = len(chi), |P0| < N, |G1|
    < N**2/2 and |start M0(s)| < N**2, all in int64, as N <= 2**30: the
    table gate of chi_values (ntcore._TABLE_MAX) builds no longer period,
    and a census group (verify._census_groups) holds a few thousand
    entries.  The recombination runs once for all evaluations, in the
    dtype _census_dtype picks for the largest p and q.  From |M0(s)| <= s
    <= q and |M1| < q**2/2, every partial sum in evaluation order obeys
    |S1| < 1.5 q**2, |p (q - 2s) + 2r| <= p (q + 2), |S1 (p (q - 2s) +
    2r)| < 1.5 p q**2 (q + 2) and |2pq M1(s)| < p q**3, so |T| < p**2
    q**2 (2.5 q + 3) <= 3.5 p**2 q**3 for q >= 3, and a core, the
    difference of two T, is below 7 p**2 q**3 < 10 p**2 q**3.
    Each evaluation's sums are bounded by its own p and q, so by the
    largest p and q of the call.
    """
    mods = np.array(mods, dtype=np.int64)
    t = np.asarray(t)
    ends = np.cumsum(mods)
    starts = ends - mods
    n, m = len(t), len(mods)
    # the split points and the periods' edges, as positions in chi
    x = np.concatenate((starts[t] + np.asarray(s, dtype=np.int64), starts, ends))
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
    dtype = _census_dtype(int(np.max(p, initial=0)), int(mods.max()))
    q = mods.astype(dtype)[t]
    m0 = p0[:n].astype(dtype, copy=False)
    base = g1[n:n + m]
    m1 = g1[:n] - base[t] - starts[t] * p0[:n]
    s1 = (g1[n + m:] - base).astype(dtype)[t] + q * m0
    f = np.asarray(p).astype(dtype, copy=False)
    return f * (s1 * (f * (q - 2 * np.asarray(s).astype(dtype, copy=False))
                      + 2 * np.asarray(r).astype(dtype, copy=False))
                + 2 * f * q * m1.astype(dtype, copy=False))


def _prime_frac_cores(chars, p, a, counts) -> np.ndarray:
    """core = -chi(p) (T(aq mod p) - T(-aq mod p)) for aligned arrays p, a:
    counts[i] evaluations in turn for each character chars[i].

    Builds one period table of each chi with chi_values, whose table gate
    refuses a modulus above 2**30 before it builds anything, laid end to
    end for _residue_totals.  Since chi(p)**2 = 1 the core is -(T'(r+) -
    T'(r-)) with T' = T/chi(p), so chi(p) is never evaluated.  With k =
    floor(aq/p) < q/2, as 2a < p, the residues are r+ = aq - kp and r- =
    p - r+ (p divides neither a < p nor q), and r/p mod q is q - k (q for
    0 when k = 0) for r+ and k + 1 < q for r-.  p and a may be int64 or
    object arrays; the cores come back in the dtype _census_dtype picks
    for the largest p and q, int64 when |core| < 10 p**2 q**3 fits.
    """
    mods = [ch.q for ch in chars]
    tables = [chi_values(ch, ch.q - 1) for ch in chars]
    chi = tables[0] if len(tables) == 1 else np.concatenate(tables)
    dtype = _census_dtype(int(np.max(p, initial=0)), max(mods))
    t = np.repeat(np.arange(len(mods)), counts)
    q = np.array(mods, dtype=dtype)[t]
    p = np.asarray(p).astype(dtype, copy=False)
    aq = np.asarray(a).astype(dtype, copy=False) * q
    k = aq // p
    r = aq - k * p
    res = _residue_totals(chi, np.concatenate((p, p)), np.concatenate((r, p - r)),
                          np.concatenate((q - k, k + 1)), mods, np.concatenate((t, t)))
    return res[len(r):] - res[:len(r)]


def fq_prime_frac(a: int, p: int, q_or_chi) -> PrimeFracEval:
    """Evaluate f_q(a/p) for an odd prime p = 3 (mod 4) not dividing q."""
    ch = quad_char(q_or_chi)
    q = ch.q
    if not is_prime(p) or p % 4 != 3:
        raise DomainError(f"p must be a prime = 3 (mod 4), got {p}")
    if p in ch.factors:
        raise DomainError(f"p = {p} divides the modulus {q}")
    if not (1 <= a and 2 * a < p):
        raise DomainError(f"need 0 < a < p/2, got a={a}, p={p}")
    core = int(_prime_frac_cores([ch], np.array([p], dtype=object),
                                 np.array([a], dtype=object), [1])[0])
    stat = core // (p * q) if core % (p * q) == 0 else None
    q_div = stat is not None and stat % q == 0
    value = math.pi ** 2 * core / (2.0 * p * p * q * q * math.sqrt(q))
    return PrimeFracEval(a, p, q, core, stat, q_div,
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
