"""Independent slow-path oracles used only by the tests.

Nothing here shares code with the package: class numbers come from
counting reduced binary quadratic forms, the Liouville function from
explicit factorization, and characters from per-prime Euler criteria.
"""

from __future__ import annotations

import math
from fractions import Fraction


def simple_primes(limit: int) -> list[int]:
    flags = [True] * (limit + 1)
    flags[0:2] = [False, False]
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            for m in range(p * p, limit + 1, p):
                flags[m] = False
    return [n for n in range(limit + 1) if flags[n]]


def factorize(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def liouville_factor(n: int) -> int:
    """lambda(n) straight from the definition."""
    return -1 if len(factorize(n)) % 2 else 1


def legendre_pow(n: int, p: int) -> int:
    """Euler criterion at an odd prime."""
    v = pow(n % p, (p - 1) // 2, p)
    if v == 0:
        return 0
    return 1 if v == 1 else -1


def chi_factor(n: int, q: int) -> int:
    """Jacobi symbol as a product of Legendre symbols over q's factors."""
    out = 1
    for p in factorize(q):
        out *= legendre_pow(n, p)
    return out


def form_count(q: int) -> int:
    """Class number of discriminant -q by enumerating reduced forms.

    A reduced form (a, b, c) has -a < b <= a <= c, b**2 - 4ac = -q, with
    b > 0 required when a == c or a == |b|.  For odd discriminant b runs
    over odd values with 3b**2 <= q; each (a, c) splits m = (b**2 + q)/4
    with a <= c, counting twice unless b in {a, 0} or a == c (the b > 0
    convention folds the +-b pairs).
    """
    count = 0
    b = 1
    while 3 * b * b <= q:
        m = (b * b + q) // 4
        a = max(b, 1)
        while a * a <= m:
            if m % a == 0:
                c = m // a
                count += 1 if a == b or a == c else 2
            a += 1
        b += 2
    return count


def margins(q: int, a_max: int) -> tuple[int, list[int]]:
    """(h, [W(0), W(1), ..., W(a_max)]) by running sums, for any a_max >= 0.

    chi(n) is the product over the prime factors p of q of the Legendre
    symbol read off a table of squares mod p; h comes from the half-range
    class number formula q*A(half) - 2*B(half) = q*h, and
    W(a) = a*(h - A(a)) + B(a).
    """
    squares = {p: {k * k % p for k in range(1, p)} for p in factorize(q)}

    def chi(n):
        v = 1
        for p, sq in squares.items():
            r = n % p
            v *= 0 if r == 0 else 1 if r in sq else -1
        return v

    half = (q - 1) // 2
    a_sum = b_sum = 0
    sums = [(0, 0)]
    for n in range(1, max(a_max, half) + 1):
        v = chi(n)
        a_sum += v
        b_sum += n * v
        sums.append((a_sum, b_sum))
    a_half, b_half = sums[half]
    h = (q * a_half - 2 * b_half) // q
    return h, [a * (h - a_a) + b_a for a, (a_a, b_a) in enumerate(sums[:a_max + 1])]


def margin_min(q: int, a_max: int) -> tuple[int, int, int]:
    """(h, min W(a), first argmin a) over 1 <= a <= a_max, from margins."""
    h, w = margins(q, a_max)
    best = min(w[1:])
    return h, best, w.index(best, 1)


def fq_shape(q: int):
    """(min W, first argmin a, zeros, flats) of f_q on (0, 1/2], by loops.

    Piece a covers [a/q, (a+1)/q] with slope S(a) = W(a+1) - W(a) and
    intercept B(a) = W(a) - a*S(a), both from margins.  Zeros are nodes
    with W(a) = 0 plus the root -B(a)/(q*S(a)) of every piece whose end
    nodes have opposite signs; flats are maximal runs of pieces with
    S = B = 0, cut at 1/2.
    """
    half = (q - 1) // 2
    _, w = margins(q, half + 1)
    s = [w[a + 1] - w[a] for a in range(half + 1)]
    b = [w[a] - a * s[a] for a in range(half + 1)]
    best = min(w[1:half + 1])
    zeros = [Fraction(a, q) for a in range(1, half + 1) if w[a] == 0]
    for a in range(half):
        if w[a] * w[a + 1] < 0:
            zeros.append(Fraction(-b[a], q * s[a]))
    flats = []
    for a in range(half + 1):
        if s[a] == 0 and b[a] == 0:
            lo = Fraction(a, q)
            hi = min(Fraction(a + 1, q), Fraction(1, 2))
            if flats and flats[-1][1] == lo:
                flats[-1] = (flats[-1][0], hi)
            else:
                flats.append((lo, hi))
    return best, w.index(best, 1), tuple(sorted(zeros)), tuple(flats)


def prime_frac_core(a: int, p: int, q: int) -> int:
    """The f_q(a/p) core -chi(p) * (T(aq mod p) - T(-aq mod p)), directly.

    T(r) is the sum of b**2 chi(b) over 0 < b <= pq with b = r (mod p);
    chi(b) comes from chi_factor, one Euler criterion per prime factor.
    """
    def t_sum(r):
        return sum(b * b * chi_factor(b, q) for b in range(r, p * q + 1, p))

    return -chi_factor(p, q) * (t_sum(a * q % p) - t_sum(-a * q % p))


def lattice_core(q: int, a: int) -> int:
    """q**2 chi(a) - sum_{c<q} c**2 (chi(c-a) - chi(c+a)), by a plain loop."""
    return q * q * chi_factor(a, q) - sum(
        c * c * (chi_factor(c - a, q) - chi_factor(c + a, q)) for c in range(1, q))
