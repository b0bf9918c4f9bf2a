"""Positivity verification: whole-range margin scans with checkpointing,
machine-checkable certificates for lower bounds on the Liouville series,
and the f_q(a/p) sign census.

A certificate asserts f(x) > 0 on [a0/q, xmax] by listing the integer
margins W(a) at every node a/q spanning the interval and citing the
agreement length N of chi with the Liouville function.  This module
builds and merges certificates; the independent checker that re-verifies
them is check.verify_certificate, which shares no code with the builder.
"""

from __future__ import annotations

import contextlib
import json
import math
import multiprocessing
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import ntcore
from .charsum import _margin_min, _margins, margin_profile
from .check import verify_certificate
from .errors import (CertificateError, CharposError, DomainError, ExactnessError,
                     InsufficientBound)
from .fq import _prime_frac_cores
from .liouville import agreement_length, find_imitator
from .ntcore import pi4_square_thresholds, primes_in_range, quad_char

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
    out, acc = [], _CHUNK_WEIGHT
    for q in map(int, qs):
        if acc >= _CHUNK_WEIGHT:  # the last block is full: open the next
            out.append([])
            acc = 0
        out[-1].append(q)
        acc += q
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

    A worker that dies fails the scan fast: CharposError names the q
    range of the first chunk whose result was lost, the chunks not yet
    started are cancelled, and no worker outlives the call.  The
    checkpoint then ends at the last complete frontier, and a resume
    gives the report of an unbroken scan.
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
        parts, broken = map(_scan_chunk, chunks), ()  # () catches nothing
        if workers > 1:
            # imported here: its modules take about 20 ms to import (2-core
            # Xeon VM), which only a scan that starts workers should pay
            from concurrent.futures import process
            pool = process.ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork"))
            stack.callback(pool.shutdown, cancel_futures=True)
            parts, broken = pool.map(_scan_chunk, chunks), process.BrokenProcessPool
        for chunk in chunks:
            try:
                minima = next(parts)
            except broken as exc:
                raise CharposError(f"a scan worker died; the result for q = "
                                   f"{chunk[0]}..{chunk[-1]} was lost") from exc
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


def _certificate(q: int, h: int, n: int, a0: int, xmax: Fraction, rows) -> dict:
    """The v1 certificate record: f > 0 on [a0/q, xmax] from the margins W
    of the (a, W) pairs of rows, citing class number h and agreement
    length n."""
    return {
        "version": "v1",
        "q": q,
        "h": h,
        "agreement_N": n,
        "a0": a0,
        "xmax_num": xmax.numerator,
        "xmax_den": xmax.denominator,
        "margins": [{"a": a, "W": w} for a, w in rows],
        "verdict": "nonnegative",
    }


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
    ch = quad_char(q)
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
    cert = _certificate(q, h, n, a_lo, achieved, rows)
    return CertifyResult(cert, q, h, n, a_lo, xmax, achieved, not full)


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
    merged = _certificate(left["q"], left["h"], left["agreement_N"], left["a0"],
                          max(xl, xr), sorted(by_a.items()))
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
    evaluations total at most _CENSUS_GROUP (a larger modulus is a group
    of one); the group takes one chi table per modulus, laid end to end,
    and one fq._prime_frac_cores call, whose cores take the dtype
    fq._census_dtype picks for the group's largest p and q.  A group of
    two or more moduli is int64: its last two moduli q' < q have q' + q
    <= _CENSUS_GROUP, and primes of one class mod 8 lie close together
    there, so q stays near 2**11 and 10 p**2 q**3 < 10 q**5 < 2**62.
    """
    ends = np.cumsum(tops)
    p_list = np.repeat(p_all, tops)
    a_list = np.arange(1, len(p_list) + 1) - np.repeat(ends - tops, tops)
    below = np.searchsorted(p_all, qs)
    cuts = np.concatenate(([0], ends))[below].tolist()
    groups, size = [], 0
    for q, n in zip(qs.tolist(), cuts):
        if not groups or size + q + n > _CENSUS_GROUP:
            groups.append([])
            size = 0
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
    Python integers (only in a group of one modulus), and every record
    holds Python integers.  An a_max of at least (p_max - 1)/2 caps
    nothing.  A q_max whose period the table gate refuses is refused
    before any prime is sieved.
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
