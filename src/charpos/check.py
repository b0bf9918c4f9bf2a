"""The independent certificate checker.

A certificate asserts f(x) > 0 on [a0/q, xmax] by listing the integer
margins W(a) at every node a/q spanning the interval and citing the
agreement length N of chi with the Liouville function.  Checking it needs
only integer and rational arithmetic: the class number from a count of
reduced binary quadratic forms, and the Jacobi symbol summed up to the last
cited node, one jacobi call for each node coprime to 210 and the rest by
complete multiplicativity from a byte memo; no sieves, no floats.

This module is the trust boundary: it imports only the standard library,
ntcore's rational bounds of pi**4 (PI4_HI, PI4_LO) and its is_prime and
jacobi, and nothing of the builder that writes certificates
(charsum, fq, liouville, verify).
"""

from __future__ import annotations

import math
from array import array
from fractions import Fraction

from . import ntcore
from .ntcore import is_prime, jacobi

# Largest modulus verify_certificate will check.  The checker is naive on
# purpose (trial division to sqrt(q), a reduced-form count, and a walk over
# the nodes up to the last cited one, a_last, with one jacobi call per node
# coprime to 210); at q = 991027 over [1/10, 1/4] it took 0.22-0.27 s on a
# 2-core Xeon VM (best of 3).  The walk costs about 1 us per node near 10**6
# and near 10**9 alike, so a certificate reaching xmax = 1/2 walks the half
# period in about 8 minutes at this bound, plus about 5 s of forms.  The
# walk's memo holds a_last/2 bytes, at most 250 MB at this bound.
MAX_CERT_Q = 10 ** 9

# The least prime in (2, 3, 5, 7) dividing m, indexed by m % 210; 0 when
# gcd(m, 210) = 1.
_LEAST_SMALL_PRIME = tuple(next((p for p in (2, 3, 5, 7) if r % p == 0), 0)
                           for r in range(210))

_CERT_KEYS = {"version", "q", "h", "agreement_N", "a0", "xmax_num",
              "xmax_den", "margins", "verdict"}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _checker_thresholds(q: int, n: int) -> tuple[int, int]:
    """The checker's own (w_lo, w_yes) for pi**4 * W**2 * n**2 >= q**3.

    For each rational bound P of pi**4 (ntcore.PI4_HI, then PI4_LO, read
    when called): the least W >= 1 with P * W**2 * n**2 >= q**3, found
    from the integer square root of the floored quotient and stepped up
    until the cross-multiplied inequality holds.  W >= w_yes clears the
    margin, W < w_lo fails it, and anything between is undecidable.
    """
    out = []
    for bound in (ntcore.PI4_HI, ntcore.PI4_LO):
        lhs = bound.numerator * n * n
        rhs = q ** 3 * bound.denominator
        w = max(1, math.isqrt(rhs // lhs))
        while lhs * w * w < rhs:
            w += 1
        out.append(w)
    return out[0], out[1]


def _reduced_form_count(q: int) -> int:
    """Number of reduced forms a*x**2 + b*x*y + c*y**2 of discriminant -q.

    Reduced means |b| <= a <= c, with b >= 0 when |b| = a or a = c.  Since
    b*b = -q = 1 (mod 4), b is odd; 3*b*b <= q, and a runs over the divisors
    of a*c = (b*b + q)/4 from b up to its square root.  For a squarefree
    q = 3 (mod 4) with q > 3 the discriminant -q is fundamental, so every
    such form is primitive and the count is the class number h(-q).
    """
    count = 0
    for b in range(1, math.isqrt(q // 3) + 1, 2):
        ac = (b * b + q) // 4
        for a in range(b, math.isqrt(ac) + 1):
            if ac % a == 0:
                count += 1 if a == b or a * a == ac else 2
    return count


def verify_certificate(cert) -> tuple[bool, str]:
    """Independently check a positivity certificate.

    Recomputes the agreement length, the class number (by counting reduced
    forms of discriminant -q) and every cited margin (by summing the Jacobi
    symbol up to the last cited node) from scratch with plain integer
    arithmetic (no sieves, no floats, no state shared with the builder),
    then checks the margin inequality and interval coverage.  The symbol is
    completely multiplicative in m, so the walk calls jacobi(m, q) only for
    m coprime to 210 and otherwise reads chi(p) * chi(m // p), p the least
    of 2, 3, 5, 7 dividing m, from a signed byte memo of chi up to
    a_last // 2; where p divides q, chi(p) = 0 and the zero carries over.
    Returns (ok, reason); never raises on malformed input.  Moduli above
    MAX_CERT_Q are rejected before any work that grows with q.
    """
    if not isinstance(cert, dict):
        return False, "certificate is not a mapping"
    if set(cert) != _CERT_KEYS:
        missing = _CERT_KEYS - set(cert)
        extra = set(cert) - _CERT_KEYS
        return False, f"bad key set (missing {sorted(missing)}, extra {sorted(extra)})"
    if cert["version"] != "v1":
        return False, f"unsupported version {cert['version']!r}"
    if cert["verdict"] != "nonnegative":
        return False, f"unknown verdict {cert['verdict']!r}"
    q = cert["q"]
    if not _is_int(q) or q <= 3 or q % 4 != 3:
        return False, "modulus must be an integer > 3 and = 3 (mod 4)"
    if q > MAX_CERT_Q:
        return False, f"modulus {q} exceeds the checker limit MAX_CERT_Q = {MAX_CERT_Q}"
    d = 2
    while d * d <= q:
        if q % (d * d) == 0:
            return False, f"modulus divisible by {d}**2"
        d += 1
    for key in ("h", "agreement_N", "a0"):
        if not _is_int(cert[key]) or cert[key] < 1:
            return False, f"{key} must be a positive integer"
    if not _is_int(cert["xmax_num"]) or not _is_int(cert["xmax_den"]):
        return False, "xmax must be a pair of integers"
    if cert["xmax_den"] < 1 or cert["xmax_num"] < 1:
        return False, "xmax must be positive"
    xmax = Fraction(cert["xmax_num"], cert["xmax_den"])
    if xmax > Fraction(1, 2):
        return False, f"xmax = {xmax} exceeds 1/2"
    margins = cert["margins"]
    if not isinstance(margins, list) or not margins:
        return False, "margins must be a nonempty list"
    a0 = cert["a0"]
    for i, row in enumerate(margins):
        if (not isinstance(row, dict) or set(row) != {"a", "W"}
                or not _is_int(row["a"]) or not _is_int(row["W"])):
            return False, f"margins[{i}] is not {{a, W}} with integers"
        if row["a"] != a0 + i:
            return False, f"margins[{i}].a = {row['a']} breaks contiguity from {a0}"
    a_last = margins[-1]["a"]
    half = (q - 1) // 2
    if a_last > half:
        return False, f"node {a_last} lies beyond the half period"

    n_cert = cert["agreement_N"]
    p = 2
    while True:
        if is_prime(p) and jacobi(p, q) != -1:
            break
        p += 1
    if p - 1 != n_cert:
        return False, f"agreement length is {p - 1}, certificate says {n_cert}"

    h = _reduced_form_count(q)
    if h != cert["h"]:
        return False, f"class number is {h}, certificate says {cert['h']}"
    w_lo, w_yes = _checker_thresholds(q, n_cert)
    chi_small = [0] * 8
    for p in (2, 3, 5, 7):
        chi_small[p] = jacobi(p, q)
    mid = a_last // 2
    memo = array("b", [0]) * (mid + 1)
    a_sum = 0
    b_sum = 0
    for m in range(1, a_last + 1):
        p = _LEAST_SMALL_PRIME[m % 210]
        v = chi_small[p] * memo[m // p] if p else jacobi(m, q)
        if m <= mid:
            memo[m] = v
        a_sum += v
        b_sum += m * v
        if m < a0:
            continue
        w_true = m * (h - a_sum) + b_sum
        w_cited = margins[m - a0]["W"]
        if w_cited != w_true:
            return False, f"W({m}) is {w_true}, certificate says {w_cited}"
        if w_cited <= 0:
            return False, f"W({m}) = {w_cited} is not positive"
        if w_cited < w_yes:
            if w_cited >= w_lo:
                return False, f"margin at node {m} is undecidable at this precision"
            return False, f"W({m}) = {w_cited} does not clear the 2/{n_cert} margin"
    if a_last * cert["xmax_den"] < q * cert["xmax_num"]:
        return False, (f"nodes end at {a_last}/{q}, short of xmax = {xmax}")
    return True, "ok"
