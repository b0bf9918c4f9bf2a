"""Positivity verification: whole-range margin scans with checkpointing,
machine-checkable certificates for lower bounds on the Liouville series,
and an independent certificate checker.

A certificate asserts f(x) > 0 on [a0/q, xmax] by listing the integer
margins W(a) at every node a/q spanning the interval and citing the
agreement length N of chi with the Liouville function.  Checking it needs
only integer and rational arithmetic: the class number from a count of
reduced binary quadratic forms, and the Jacobi symbol summed up to the last
cited node, one jacobi call for each node coprime to 210 and the rest by
complete multiplicativity from a byte memo; no sieves, no floats.
"""

from __future__ import annotations

import contextlib
import json
import math
import multiprocessing
import os
from array import array
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import ntcore
from .charsum import _as_char, _margin_min, _margins, margin_profile
from .errors import (CertificateError, DomainError, ExactnessError,
                     InsufficientBound)
from .fq import _census_dtype, _prime_frac_cores
from .liouville import agreement_length, find_imitator
from .ntcore import (is_prime, jacobi, pi4_square_thresholds, primes_in_range,
                     quad_char)

_HALF = Fraction(1, 2)

# Target sum of moduli per scan chunk: 68 moduli near q = 10**6, about
# 0.15-0.28 s of kernel work on a 2-core Xeon VM (_scan_chunk, best of
# 3).  A chunk is the unit handed to a worker and the unit of
# checkpointing (one frontier line each); the layout depends only on the
# prime list, never on the job count.
_CHUNK_WEIGHT = 1 << 26


@dataclass(frozen=True)
class PositivityReport:
    """Sign summary of the margin sequence of one modulus over 1..(q-1)/2."""

    q: int
    h: int
    holds: bool
    min_w: int
    argmin_a: int


def check_positivity(q_or_chi) -> PositivityReport:
    """Decide min W(a) >= 0 over the half range for one modulus, exactly."""
    prof = margin_profile(q_or_chi)
    return PositivityReport(prof.q, prof.h, prof.min_w >= 0, prof.min_w,
                            prof.argmin_a)


def _json_line(tally, **fields) -> str:
    """Canonical v1 JSON of a scan tally plus its own fields: keys sorted,
    no whitespace.  Shared by scan reports and checkpoint lines."""
    payload = {
        "version": "v1",
        "campaign": tally.campaign,
        "count": tally.count,
        "min_w": tally.min_w,
        "argmin_q": tally.argmin_q,
        "failures": [list(f) for f in tally.failures],
        **fields,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class ScanResult:
    """Aggregate of check_positivity over all prime moduli = 3 (mod 8) in range."""

    campaign: str
    q_min: int
    q_max: int
    count: int
    min_w: int | None
    argmin_q: int | None
    failures: tuple[tuple[int, int], ...]

    @property
    def holds(self) -> bool:
        return not self.failures

    def to_json(self) -> str:
        return _json_line(self, q_min=self.q_min, q_max=self.q_max,
                          holds=self.holds)


def _scan_chunk(qs):
    """Worker: min W over the half range for each modulus of a block.

    _margin_min takes each minimum from block moments of the int8 table,
    exact block starts and lower bounds, without forming W or any int64
    array over the range.  Each modulus's table is its own q-byte period,
    dropped before the next is built, so a worker holds about q_max bytes
    of tables; scan_positivity has put q_max through the table gate.
    """
    return [_margin_min(quad_char(q, assume_prime=True), (q - 1) // 2)[1]
            for q in qs]


def _chunked(qs):
    """Split ascending moduli into blocks of about _CHUNK_WEIGHT total."""
    out = []
    cur = []
    acc = 0
    for q in qs:
        cur.append(int(q))
        acc += int(q)
        if acc >= _CHUNK_WEIGHT:
            out.append(cur)
            cur = []
            acc = 0
    if cur:
        out.append(cur)
    return out


@dataclass(frozen=True)
class ScanCheckpoint:
    """Durable frontier of a scan: everything up to last_q is accounted for."""

    campaign: str
    last_q: int
    count: int
    min_w: int | None
    argmin_q: int | None
    failures: tuple[tuple[int, int], ...]


def read_checkpoint(path, campaign: str) -> ScanCheckpoint | None:
    """Latest checkpoint line for this campaign, or None.

    Lines that fail to parse (e.g. a torn final write) are skipped, so a
    truncated file degrades to an earlier frontier instead of an error.
    """
    if not os.path.exists(path):
        return None
    best = None
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            try:
                rec = json.loads(line)
            except ValueError:
                continue
            if not isinstance(rec, dict) or rec.get("campaign") != campaign:
                continue
            try:
                best = ScanCheckpoint(
                    campaign, int(rec["last_q"]), int(rec["count"]),
                    None if rec["min_w"] is None else int(rec["min_w"]),
                    None if rec["argmin_q"] is None else int(rec["argmin_q"]),
                    tuple((int(q), int(w)) for q, w in rec["failures"]))
            except (KeyError, TypeError, ValueError):
                continue
    return best


def _append_checkpoint(path, ck: ScanCheckpoint) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(_json_line(ck, last_q=ck.last_q) + "\n")
        fh.flush()


def scan_positivity(q_min: int, q_max: int, *, jobs: int = 1,
                    checkpoint_path=None) -> ScanResult:
    """Margin scan over every prime q = 3 (mod 8) with q_min <= q <= q_max.

    Deterministic for a fixed range regardless of jobs: the minima are
    folded one modulus at a time in ascending order, so ties in the
    minimum keep the smallest modulus.  The pool has min(jobs, chunks,
    CPUs this process may run on) workers (os.cpu_count() where the
    platform has no affinity mask); with one, the chunks run in this
    process.  With a checkpoint path the scan appends one frontier line
    per chunk and resumes after the latest matching line on restart.  A
    q_max whose table the gate refuses is refused before any prime is
    sieved, even if no modulus in the range would need that table.
    """
    if jobs < 1:
        raise DomainError("jobs must be >= 1")
    ntcore._check_table(f"the chi table for q={q_max}", q_max)
    campaign = f"positivity:{q_min}:{q_max}"
    ck = None
    if checkpoint_path is not None:
        ck = read_checkpoint(checkpoint_path, campaign)
    if ck is None:
        ck = ScanCheckpoint(campaign, 0, 0, None, None, ())
    count, min_w, argmin_q = ck.count, ck.min_w, ck.argmin_q
    failures = list(ck.failures)
    qs = primes_in_range(max(q_min, 5), q_max, residue=3, modulus=8)
    chunks = _chunked(qs[qs > ck.last_q])
    workers = min(jobs, len(chunks), len(os.sched_getaffinity(0))
                  if hasattr(os, "sched_getaffinity") else os.cpu_count())
    with contextlib.ExitStack() as stack:
        parts = map(_scan_chunk, chunks)
        if workers > 1:
            pool = stack.enter_context(multiprocessing.get_context(
                "fork").Pool(workers))
            parts = pool.imap(_scan_chunk, chunks)
        for chunk, minima in zip(chunks, parts):
            for q, m in zip(chunk, minima):
                count += 1
                if min_w is None or m < min_w:
                    min_w, argmin_q = m, q
                if m < 0:
                    failures.append((q, m))
            if checkpoint_path is not None:
                _append_checkpoint(checkpoint_path, ScanCheckpoint(
                    campaign, chunk[-1], count, min_w, argmin_q, tuple(failures)))
    return ScanResult(campaign, q_min, q_max, count, min_w, argmin_q,
                      tuple(failures))


@dataclass(frozen=True)
class CertifyResult:
    certificate: dict
    q: int
    h: int
    n_agree: int
    a0: int
    requested_xmax: Fraction
    achieved_xmax: Fraction
    truncated: bool


def certify_f_positive(eps, q: int | None = None, xmax=Fraction(1, 4), *,
                       search_ceiling: int = 10 ** 6,
                       target_agreement: int = 40) -> CertifyResult:
    """Build a certificate that f > 0 on [eps, xmax] (possibly truncated).

    With q given, that modulus is used; otherwise the smallest prime whose
    character imitates the Liouville function through target_agreement is
    searched for below search_ceiling.

    Every node a/q with floor(q*eps) <= a <= ceil(q*xmax) (capped at the
    half period) must clear the margin 2/N, that is
    2*pi**2*W/q**(3/2) >= 2/N, or pi**4 * W**2 * N**2 >= q**3 with W > 0.
    That test is monotone in W, so two integer thresholds settle every
    node; a W the rational pi bounds cannot decide raises ExactnessError.
    If the right-hand nodes fail, the certificate honestly shrinks to the
    passing prefix; if the nodes at eps itself fail, InsufficientBound is
    raised carrying the smallest certifiable left endpoint, when one exists.
    """
    eps = Fraction(eps)
    xmax = Fraction(xmax)
    if not 0 < eps < xmax <= _HALF:
        raise DomainError(f"need 0 < eps < xmax <= 1/2, got eps={eps}, xmax={xmax}")
    if q is None:
        q = find_imitator(target_agreement, search_ceiling)
    ch = _as_char(q)
    q = ch.q
    rec = agreement_length(ch)
    n = rec.n_agree
    half = (q - 1) // 2
    a_lo = math.floor(eps * q)
    a_hi = min(math.ceil(xmax * q), half)
    h, seg = _margins(ch, a_lo, a_hi)
    w_lo, w_yes = pi4_square_thresholds(n * n, q ** 3)
    bad = np.flatnonzero(seg < w_yes)
    undecided = np.flatnonzero(seg[bad] >= w_lo)
    if undecided.size:
        v = int(seg[bad[undecided[0]]])
        raise ExactnessError(f"pi**4 * {v * v * n * n} vs {q ** 3} falls "
                             "inside the rational pi bounds")
    k = a_lo + int(bad[0]) - 1 if bad.size else a_hi
    if k < a_lo or Fraction(k, q) <= eps:
        last_bad = a_lo + int(bad[-1])
        best = None
        if last_bad < a_hi and Fraction(last_bad + 1, q) < xmax:
            best = Fraction(last_bad + 1, q)
        raise InsufficientBound(
            f"margin 2/{n} not met at node {max(k + 1, a_lo)}/{q}; "
            f"cannot certify down to eps={eps}", best_eps=best)
    full = k == a_hi and Fraction(a_hi, q) >= xmax
    achieved = xmax if full else Fraction(k, q)
    rows = zip(range(a_lo, k + 1), seg[:k + 1 - a_lo].tolist())
    cert = {
        "version": "v1",
        "q": q,
        "h": h,
        "agreement_N": n,
        "a0": a_lo,
        "xmax_num": achieved.numerator,
        "xmax_den": achieved.denominator,
        "margins": [{"a": a, "W": v} for a, v in rows],
        "verdict": "nonnegative",
    }
    return CertifyResult(cert, q, h, n, a_lo, xmax, achieved, not full)


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
    if xmax > _HALF:
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


def merge_certificates(left: dict, right: dict) -> dict:
    """Join two certificates for the same modulus into one wider one.

    Both inputs must verify, share q/h/N, and their node ranges must be
    contiguous or overlapping (with identical margins on the overlap).
    The result covers [min a0 / q, max xmax] and verifies by construction.
    """
    for name, cert in (("left", left), ("right", right)):
        ok, why = verify_certificate(cert)
        if not ok:
            raise CertificateError(f"{name} certificate invalid: {why}")
    if left["a0"] > right["a0"]:
        left, right = right, left
    for key in ("q", "h", "agreement_N"):
        if left[key] != right[key]:
            raise CertificateError(f"certificates disagree on {key}")
    left_last = left["margins"][-1]["a"]
    if right["a0"] > left_last + 1:
        raise CertificateError(
            f"gap between nodes {left_last} and {right['a0']}")
    by_a = {row["a"]: row["W"] for row in left["margins"]}
    for row in right["margins"]:
        if row["a"] in by_a and by_a[row["a"]] != row["W"]:
            raise CertificateError(f"margin mismatch at node {row['a']}")
        by_a[row["a"]] = row["W"]
    xl = Fraction(left["xmax_num"], left["xmax_den"])
    xr = Fraction(right["xmax_num"], right["xmax_den"])
    xmax = max(xl, xr)
    merged = {
        "version": "v1",
        "q": left["q"],
        "h": left["h"],
        "agreement_N": left["agreement_N"],
        "a0": left["a0"],
        "xmax_num": xmax.numerator,
        "xmax_den": xmax.denominator,
        "margins": [{"a": a, "W": by_a[a]} for a in sorted(by_a)],
        "verdict": "nonnegative",
    }
    ok, why = verify_certificate(merged)
    if not ok:
        raise CertificateError(f"merged certificate does not verify: {why}")
    return merged


@dataclass(frozen=True)
class PrimeFracScan:
    """Exhaustive f_q(a/p) sign census over small primes p and moduli q."""

    p_max: int
    q_max: int
    q_mod8: int
    count: int
    nonpositive: tuple[tuple[int, int, int, int], ...]
    nonintegral: tuple[tuple[int, int, int, int], ...]
    q_divisible: int
    min_stat: int | None
    argmin: tuple[int, int, int] | None


# A census group of consecutive moduli holds at most this many period
# entries and evaluations together (scan_prime_fracs), so that the dozen
# or so int64 arrays over them stay in a 2 MiB L2 cache.
_CENSUS_GROUP = 1 << 12


def _census_groups(p_all, tops, qs):
    """Yield (q, p, a, cores) per group of the census: aligned arrays of
    the modulus, p, a and core of each evaluation, in (q, p, a) order.

    tops[i] is the number of a for p_all[i], so the (p, a) pairs are
    listed once, and the evaluations of a modulus q are the prefix with
    p < q.  Consecutive moduli form a group while their periods and
    evaluations total at most _CENSUS_GROUP and fq._census_dtype picks
    one dtype for them all (a larger modulus is a group of one); the
    group takes one chi table per modulus, laid end to end, and one
    fq._prime_frac_cores call.
    """
    ends = np.cumsum(tops)
    p_list = np.repeat(p_all, tops)
    a_list = np.arange(1, len(p_list) + 1) - np.repeat(ends - tops, tops)
    below = np.searchsorted(p_all, qs)
    cuts = np.concatenate(([0], ends))[below].tolist()
    p_tops = np.concatenate(([0], p_all))[below].tolist()
    groups, size, kind = [], 0, None
    for q, n, p_top in zip(qs.tolist(), cuts, p_tops):
        dtype = _census_dtype(p_top, q)
        if not groups or size + q + n > _CENSUS_GROUP or dtype is not kind:
            groups.append([])
            size, kind = 0, dtype
        groups[-1].append((q, n))
        size += q + n
    for group in groups:
        mods, counts = zip(*group)
        p = np.concatenate([p_list[:n] for n in counts])
        a = np.concatenate([a_list[:n] for n in counts])
        cores = _prime_frac_cores([quad_char(q, assume_prime=True) for q in mods],
                                  p, a, counts)
        yield np.repeat(mods, counts), p, a, cores


def scan_prime_fracs(p_max: int, q_max: int, a_max: int | None = None,
                     q_mod8: int = 3) -> PrimeFracScan:
    """Evaluate f_q(a/p) for all p < q <= q_max, p <= p_max, 0 < a < p/2.

    q runs over primes = q_mod8 (mod 8), p over primes = 3 (mod 4) below q.
    Records any nonpositive core, any core not divisible by p*q, how often
    the reduced value is divisible by q, and the minimum reduced value
    (first occurrence in (q, p, a) order).  The moduli are taken in
    cache-sized groups (_census_groups, at most _CENSUS_GROUP period
    entries and evaluations each): one chi table per modulus, and one
    moment pass over a group's tables (fq._residue_totals), which serves
    every (p, a) in O(1); the records are read once per group.  The cores
    are formed in int64 where fq._census_dtype proves they fit, else in
    Python integers, and every record holds Python integers.  An a_max of
    at least (p_max - 1)/2 caps nothing.  A q_max whose period the table
    gate refuses is refused before any prime is sieved.
    """
    if q_mod8 % 4 != 3:
        raise DomainError("q_mod8 must be 3 or 7")
    if a_max is not None and a_max < 1:
        raise DomainError(f"need a_max >= 1, got {a_max}")
    ntcore._check_table(f"the chi table for q={q_max}", q_max)
    p_all = primes_in_range(3, min(p_max, q_max - 1), residue=3, modulus=4)
    if a_max is not None and a_max >= (min(p_max, q_max) - 1) // 2:
        a_max = None
    tops = (p_all - 1) // 2 if a_max is None else np.minimum(a_max, (p_all - 1) // 2)
    qs = primes_in_range(5, q_max, residue=q_mod8, modulus=8)
    count = 0
    nonpos = []
    nonint = []
    qdiv = 0
    min_stat = None
    argmin = None
    for q, p, a, cores in _census_groups(p_all, tops, qs):
        pq = (p * q).astype(cores.dtype, copy=False)
        stat = cores // pq
        whole = stat * pq == cores
        nonpos += [(int(a[i]), int(p[i]), int(q[i]), int(cores[i]))
                   for i in np.flatnonzero(cores <= 0)]
        nonint += [(int(a[i]), int(p[i]), int(q[i]), int(cores[i]))
                   for i in np.flatnonzero(~whole)]
        count += len(cores)
        hits = np.flatnonzero(whole)
        if len(hits):
            qdiv += int(np.count_nonzero(stat[hits] % q[hits] == 0))
            best = hits[np.argmin(stat[hits])]
            if min_stat is None or stat[best] < min_stat:
                min_stat = int(stat[best])
                argmin = (int(a[best]), int(p[best]), int(q[best]))
    return PrimeFracScan(p_max, q_max, q_mod8, count, tuple(nonpos),
                         tuple(nonint), qdiv, min_stat, argmin)
