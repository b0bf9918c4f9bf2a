"""Number-theoretic primitives: Jacobi symbol, deterministic primality,
segmented prime enumeration, Liouville and quadratic-character sieves.

One segmented sieve, primes_in_range, lists every prime this module
uses, its own base primes included.  One walk, primes_upward, steps up
through the primes a window of that sieve at a time, for every search
that may stop early and for the multiplicative sieves.  The module keeps
no state between calls: every table and prime list is a fresh array that
its caller owns.

Everything that feeds a verdict is exact: Python integers, Fraction, or
numpy integer arrays whose worst-case magnitudes are checked before use.
Floats never enter this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, ExactnessError, InvalidModulus

# Streaming block size (entries, not bytes); keeps big sieves cache-resident.
BLOCK = 1 << 20

# Values k*k mod p that _qr_period advances and scatters per pass: its
# scratch is four uint32 arrays and one intp index of this many entries
# (384 KiB), cache-sized whatever p is.  3 * _QR_CHUNK**2 < 2**32 keeps
# its first pass in uint32.
_QR_CHUNK = 1 << 14

# No chi or Liouville table has more entries than this (_check_table).
# Every modulus up to 10**9 + 7 keeps its table, every period _qr_period
# scatters stays below 2**31, which its uint32 sums need, and every W over
# a table fits charsum's int64 arrays (_block_moments).
_TABLE_MAX = 1 << 30

# Rational bounds PI_LO < pi < PI_HI, 37 correct digits.  Sharp enough for
# certificates: for every prime q = 3 (mod 8) below 10**6, at its own
# agreement length N, pi4_square_thresholds(N**2, q**3) returns two equal
# thresholds, so no integer margin W at such a modulus is undecidable
# (asserted in the tests).  Larger moduli are decided or rejected node by
# node.
PI_LO = Fraction(31415926535897932384626433832795028841, 10**37)
PI_HI = PI_LO + Fraction(1, 10**37)
PI2_LO = PI_LO * PI_LO
PI2_HI = PI_HI * PI_HI
PI4_LO = PI2_LO * PI2_LO
PI4_HI = PI2_HI * PI2_HI

# Deterministic Miller-Rabin witness set for all n < 2**64.
_MR_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)

# _chi_multiplicative sieves no range of more entries than this: it loops
# in Python over every prime below the range's end, about a second here.
# A longer range scatters its factor periods, or is refused (chi_values).
_SIEVE_MAX = 1 << 24

# quad_char divides out primes up to this bound only; a cofactor above its
# square that is not prime cannot be factored there and is rejected.
_TRIAL_LIMIT = 1 << 24


def jacobi(n: int, m: int) -> int:
    """Jacobi symbol (n|m) for odd positive m.

    n is reduced mod m first, so the result is the periodic extension of
    the symbol to all integers (this is the Dirichlet character attached
    to m, which is what every caller in this package wants).
    """
    if m <= 0 or m % 2 == 0:
        raise DomainError(f"jacobi modulus must be odd and positive, got {m}")
    n %= m
    r = 1
    while n:
        while n % 2 == 0:
            n //= 2
            if m % 8 in (3, 5):
                r = -r
        n, m = m, n
        if n % 4 == 3 and m % 4 == 3:
            r = -r
        n %= m
    return r if m == 1 else 0


def is_prime(n: int) -> bool:
    """Deterministic primality for 0 <= n < 2**64."""
    if n >= 1 << 64:
        raise DomainError("is_prime is deterministic only below 2**64")
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_in_range(lo: int, hi: int, *, residue: int | None = None,
                    modulus: int | None = None) -> np.ndarray:
    """Primes p with lo <= p <= hi, ascending, optionally p = residue (mod modulus).

    The one prime sieve of the package.  Segmented: each window of BLOCK
    entries is a fresh mask, struck by the base primes up to isqrt(hi),
    which come from this function itself (below hi = 4 there are none, so
    the recursion ends).  Its memory is one BLOCK mask plus the primes up
    to sqrt(hi), besides the result, whatever hi - lo is; nothing outlives
    the call.  An empty or inverted range yields an empty array.
    """
    if (residue is None) != (modulus is None):
        raise DomainError("residue and modulus must be given together")
    if modulus is not None and not (0 <= residue < modulus):
        raise DomainError(f"need 0 <= residue < modulus, got {residue} mod {modulus}")
    lo = max(lo, 2)
    if hi < lo:
        return np.empty(0, dtype=np.int64)
    base = primes_in_range(2, math.isqrt(hi)).tolist()
    out = []
    for start in range(lo, hi + 1, BLOCK):
        stop = min(start + BLOCK, hi + 1)
        mask = np.ones(stop - start, dtype=bool)
        for p in base:
            first = max(p * p, (start + p - 1) // p * p)
            if first < stop:
                mask[first - start :: p] = False
        seg = start + np.flatnonzero(mask).astype(np.int64)
        if modulus is not None:
            seg = seg[seg % modulus == residue]
        out.append(seg)
    return np.concatenate(out)


def primes_upward(lo: int, hi: int | None = None, *, residue: int | None = None,
                  modulus: int | None = None):
    """Yield the primes p >= lo (and p <= hi when hi is given), ascending,
    optionally p = residue (mod modulus), as Python ints.

    The one upward prime walk of the package.  It sieves one
    primes_in_range window [s, min(max(4*s, s + 255), s + BLOCK - 1, hi)]
    at a time, from s = max(lo, 2), and starts the next just past it: the
    first window is at least 256 wide, later ones reach at most four times
    their start, and none is wider than BLOCK.  A walk stopped at p has
    sieved nothing past min(max(4*p, p + 255), p + BLOCK - 1), so a search
    that stops early holds one window of primes whatever its ceiling.  The
    first window is sieved even when empty, so a bad residue raises
    DomainError at the first step.
    """
    s, end = max(lo, 2), math.inf if hi is None else hi
    while True:
        top = min(max(4 * s, s + 255), s + BLOCK - 1, end)
        yield from primes_in_range(s, top, residue=residue, modulus=modulus).tolist()
        if top >= end:
            return
        s = top + 1


@dataclass(frozen=True, eq=False)
class LiouvilleTable:
    """Liouville lambda(n) for 0 <= n <= limit; values[0] is 0 by convention."""

    limit: int
    values: np.ndarray

    def __getitem__(self, n: int) -> int:
        if not 1 <= n <= self.limit:
            raise DomainError(f"lambda({n}) outside sieved range 1..{self.limit}")
        return int(self.values[n])


def _multiplicative(n_max: int, sign) -> np.ndarray:
    """The completely multiplicative int8 function on 0..n_max (0 at 0)
    whose value at each prime p is sign(p), one of -1, 0 and 1.

    A prime with sign 0 zeroes its multiples.  A prime with sign -1 flips
    the sign of every multiple of each of its powers pe <= n_max, one
    strided pass per power, which counts multiplicity exactly.  The primes
    come from primes_upward; each prime's passes commute with every
    other's, so the order is free.  The working memory is the table plus
    one window of primes, but the Python loop over every prime up to n_max
    remains.
    """
    out = np.ones(n_max + 1, dtype=np.int8)
    out[0] = 0
    for p in primes_upward(2, n_max):
        v = sign(p)
        if v == 0:
            out[p::p] = 0
        elif v == -1:
            pe = p
            while pe <= n_max:
                out[pe::pe] *= -1
                if pe > n_max // p:
                    break
                pe *= p
    return out


def liouville_sieve(n: int) -> LiouvilleTable:
    """lambda(k) = (-1)**Omega(k) for k <= n: _multiplicative with sign -1
    at every prime.  The table of n + 1 entries goes through the table
    gate first, so an n of _TABLE_MAX or more is refused before anything
    is allocated."""
    if n < 1:
        raise DomainError("liouville_sieve needs n >= 1")
    _check_table(f"the Liouville table through n={n}", n + 1)
    return LiouvilleTable(n, _multiplicative(n, lambda p: -1))


@dataclass(frozen=True)
class QuadChar:
    """The real character n -> (n|q) for a validated squarefree q = 3 (mod 4).

    For such q the Jacobi symbol is the odd primitive quadratic character
    of conductor q, so chi(-1) = -1 and chi has period q.
    """

    q: int
    factors: tuple[int, ...]

    def chi(self, n: int) -> int:
        return jacobi(n, self.q)

    __call__ = chi


def quad_char(q_or_chi, *, assume_prime: bool = False) -> QuadChar:
    """Validate q and build its character; a QuadChar comes back unchanged.

    Every QuadChar is built here, so its factors are settled once, and code
    downstream trusts them: q is prime when factors == (q,), and nothing
    tests its primality again.  Every entry point that takes a modulus or
    a character passes it through here.

    q = 3 is rejected: the class number formula used downstream needs q > 3.
    With assume_prime the caller vouches for primality (used by scans that
    already enumerated primes); validation of the residue class still runs.
    A composite q is factored by trial division up to _TRIAL_LIMIT: one
    vectorised remainder of q by every prime up to min(isqrt(q),
    _TRIAL_LIMIT) finds the divisors, which are divided out in increasing
    order, so the least prime whose square divides q is the one named.  A
    cofactor left above _TRIAL_LIMIT**2 that is not prime has no factor
    the division reached, and q is rejected at once with InvalidModulus
    rather than sieving primes up to sqrt(q).
    """
    if isinstance(q_or_chi, QuadChar):
        return q_or_chi
    q = int(q_or_chi)
    if q <= 3:
        raise InvalidModulus(f"modulus must exceed 3, got {q}")
    if q % 4 != 3:
        raise InvalidModulus(f"modulus must be 3 (mod 4), got {q}")
    if assume_prime or is_prime(q):
        return QuadChar(q, (q,))
    # q < 2**64 past is_prime, so one uint64 remainder per prime is exact
    primes = primes_in_range(2, min(math.isqrt(q), _TRIAL_LIMIT)).astype(np.uint64)
    factors, m = [], q
    for p in primes[np.uint64(q) % primes == 0].tolist():
        m //= p
        if m % p == 0:
            raise InvalidModulus(f"{q} is not squarefree (divisible by {p}**2)")
        factors.append(p)
    if m > _TRIAL_LIMIT ** 2 and not is_prime(m):
        raise InvalidModulus(f"cannot factor {q}: cofactor {m} has no prime "
                             f"factor up to the trial division limit {_TRIAL_LIMIT}")
    if m > 1:
        factors.append(m)
    return QuadChar(q, tuple(factors))


def _qr_period(p: int) -> np.ndarray:
    """One period of the Legendre symbol mod an odd prime p < 2**31, as int8.

    Scatters k*k mod p, k <= (p-1)/2, into a table of nonresidues, _QR_CHUNK
    = C values per pass, with no array of k*k and no division past the
    first pass.  Entry i of a pass holds r = k*k mod p for k = lo + i + 1;
    the next pass needs (k + C)**2 = k*k + d with d = 2*C*k + C**2, and d
    itself grows by 2*C**2 from pass to pass, so r <- r + d and d <- d +
    2*C**2, both mod p.  Only the first pass's C entries of r and d are
    reduced by division, as x - p*(x // p) in uint32 (there k*k and d are
    at most 3*C**2 < 2**32): numpy divides a uint32 array by one scalar
    much faster than it takes its remainder, or divides int64.  Later
    passes read only the first min(C, half - C) entries, and a half range
    of at most C needs no d at all.  Each later sum is of two residues
    below p, so x < 2p < 2**32 holds in uint32 with no wrap, and min(x,
    x - p) is x mod p: for x >= p, x - p is the smaller; for x < p, x - p
    wraps to x - p + 2**32 > 2**31 > p > x.  r is copied into the first
    pass's intp index before each later scatter, which numpy would
    otherwise convert on every pass.  Only chi_values calls it, and its
    gate keeps p <= _TABLE_MAX.  The table of p bytes, a fresh array per
    call, is the only allocation that grows with p.
    """
    half, c = (p - 1) // 2, _QR_CHUNK
    t = np.full(p, -1, dtype=np.int8)
    t[0] = 0
    p32 = np.uint32(p)
    k = np.arange(1, min(half, c) + 1, dtype=np.uint32)
    r = k * k
    r -= r // p32 * p32
    idx = r.astype(np.intp)
    t[idx] = 1
    n = min(c, half - c)  # entries a later pass reads
    if n <= 0:
        return t
    r, d = r[:n], k[:n] * np.uint32(2 * c) + np.uint32(c * c)
    d -= d // p32 * p32
    dd = np.uint32(2 * c * c % p)
    x = np.empty_like(r)
    for lo in range(c, half, c):
        m = min(c, half - lo)
        r, d, x = r[:m], d[:m], x[:m]
        np.add(r, d, out=r)
        np.minimum(r, np.subtract(r, p32, out=x), out=r)
        np.add(d, dd, out=d)
        np.minimum(d, np.subtract(d, p32, out=x), out=d)
        idx[:m] = r
        t[idx[:m]] = 1
    return t


def chi_sieve(chi: QuadChar, n_max: int, block: int = BLOCK):
    """Yield (lo, values) covering chi(n) for n = 0..n_max in consecutive slabs.

    Every slab is an int8 view of one chi_values table of
    min(n_max, q - 1 + block) + 1 entries: chi has period q, so slab lo
    is that table at lo % q.  Memory stays bounded by q + block whatever
    n_max is.
    """
    q = chi.q
    ext = chi_values(chi, min(n_max, q - 1 + block))
    for lo in range(0, n_max + 1, block):
        s = lo % q
        yield lo, ext[s : s + min(block, n_max + 1 - lo)]


def _chi_multiplicative(chi: QuadChar, n_max: int) -> np.ndarray:
    """chi on 0..n_max by _multiplicative, with chi(p) from jacobi; used
    when a factor's period table would dwarf the requested range, which
    chi_values keeps to at most _SIEVE_MAX entries."""
    return _multiplicative(n_max, lambda p: jacobi(p, chi.q))


def _check_table(what: str, size: int) -> None:
    """The table gate: DomainError if `what`, a table named for the
    message, would have more than _TABLE_MAX entries.  chi_values and
    liouville_sieve ask it before they allocate anything, and so do the
    margin scan and the census scan, which size a table for their whole
    range ahead of it, before they sieve any prime."""
    if size > _TABLE_MAX:
        raise DomainError(f"{what} would have {size} entries, "
                          f"above the limit of {_TABLE_MAX}")


def chi_values(chi: QuadChar, n_max: int) -> np.ndarray:
    """Dense int8 array of chi(n) for n = 0..n_max; the one chi table builder.

    chi(0) = 0 and chi(n) = 0 exactly when gcd(n, q) > 1.  A prime
    modulus with n_max < q returns a view of its one period, a fresh
    array of q bytes from _qr_period.  Otherwise each prime factor's
    period is tiled to n_max + 1 entries and the tiles are multiplied.
    One size rule picks the builder: a factor period above _TABLE_MAX, or
    far longer than a range of at most _SIEVE_MAX entries (above
    max(2*(n_max + 1), 2**21)), switches to _chi_multiplicative instead.
    A half range, as the scan asks for, is never sieved: there that cap
    is at least every q the gate admits.  The table built is the period
    of q entries or the n_max + 1 of the result (a tiled factor period
    is at most _TABLE_MAX too), allocated by this call alone; above
    _TABLE_MAX entries, or for a range past _SIEVE_MAX that only the sieve
    could serve, DomainError is raised before anything is allocated.
    """
    if n_max < 0:
        raise DomainError("chi_values needs n_max >= 0")
    q = chi.q
    prime = chi.factors == (q,)
    sieve = n_max < _SIEVE_MAX
    far = max(2 * (n_max + 1), 1 << 21) if sieve else _TABLE_MAX
    cap = min(_TABLE_MAX, far)
    period = prime and n_max < q <= cap
    _check_table(f"the chi table for q={q}", q if period else n_max + 1)
    if max(chi.factors) > cap:
        if not sieve:
            raise DomainError(
                f"chi on 0..{n_max} for q={q} needs a period of "
                f"{max(chi.factors)} entries, above the limit of {_TABLE_MAX}, "
                f"or a sieve of {n_max + 1} entries, above the limit of "
                f"{_SIEVE_MAX}")
        return _chi_multiplicative(chi, n_max)
    if period:
        return _qr_period(q)[:n_max + 1]
    out = np.ones(n_max + 1, dtype=np.int8)
    for p in chi.factors:
        out *= np.resize(_qr_period(p), n_max + 1)
    return out


def pi4_times_at_least(c: Fraction, target: Fraction) -> bool:
    """Decide pi**4 * c >= target exactly for nonnegative rationals.

    Uses the rational bounds on pi; equality of pi**4 * c with a rational
    target is impossible for c > 0, so the only unresolvable case is a
    target strictly between the two bounds, which raises.
    """
    if c < 0:
        raise DomainError("pi4_times_at_least needs c >= 0")
    if PI4_LO * c >= target:
        return True
    if PI4_HI * c < target:
        return False
    raise ExactnessError(
        f"pi**4 * {c} vs {target} falls inside the rational pi bounds")


def pi4_square_thresholds(c: int, target: int) -> tuple[int, int]:
    """(w_lo, w_yes) that decide pi**4 * c * W**2 >= target for integers W >= 1.

    w_yes is the least W >= 1 with PI4_LO * c * W**2 >= target, so the
    inequality holds for W >= w_yes; w_lo is the least W >= 1 with
    PI4_HI * c * W**2 >= target, so it fails for 1 <= W < w_lo.  W in
    [w_lo, w_yes) is undecidable with these bounds.  Since w_lo >= 1, a
    W <= 0 reads as failing, as a positivity margin should.  Needs
    integers c >= 1 and target >= 1; each threshold is the integer square
    root of a ceiling quotient, with the bounds read when called.
    """
    def least(bound: Fraction) -> int:
        t = -(-target * bound.denominator // (bound.numerator * c))
        return math.isqrt(t - 1) + 1

    return least(PI4_HI), least(PI4_LO)
