"""The workloads: inputs from the seed, warm-up, one repetition, checks.

Every workload is a closed loop with a single caller: a repetition starts
only after the previous one has returned.  A repetition runs two timed
stages and reports, per stage, the work done and the seconds it took;
stage1_per_s and stage2_per_s are the run's throughputs.  named() gives
the same figures under the names they are known by for that workload.
Correctness checks run outside the timed stages and count into
error_rate.
"""

from __future__ import annotations

import contextlib
import gc
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import charpos
from tracing import paused

clock = time.perf_counter


def primes_by_trial(lo: int, hi: int, residue: int, modulus: int) -> list[int]:
    """Primes p = residue (mod modulus) in [lo, hi], by plain trial division."""
    out = []
    for n in range(max(lo, 2), hi + 1):
        if n % modulus != residue:
            continue
        if n > 2 and n % 2 == 0:
            continue
        d = 3
        while d * d <= n and n % d:
            d += 2
        if n == 2 or d * d > n:
            out.append(n)
    return out


def plain_min_w(q: int) -> int:
    """min W(a) over 1 <= a <= (q-1)/2 for a prime q, with plain integers.

    The character comes from a table of squares mod q, h from the
    half-range class number formula, and W(a) = a*(h - A(a)) + B(a).
    """
    half = (q - 1) // 2
    square = bytearray(q)
    for k in range(1, half + 1):
        square[k * k % q] = 1
    a_sum = b_sum = 0
    for m in range(1, half + 1):
        v = 1 if square[m] else -1
        a_sum += v
        b_sum += m * v
    h = (q * a_sum - 2 * b_sum) // q
    a_sum = b_sum = 0
    best = None
    for m in range(1, half + 1):
        v = 1 if square[m] else -1
        a_sum += v
        b_sum += m * v
        w = m * (h - a_sum) + b_sum
        if best is None or w < best:
            best = w
    return best


class Workload:
    """Shared plumbing: stage timing, bench spans and check bookkeeping."""

    name = ""

    def __init__(self, seed: int, smoke: bool, tmp: Path):
        self.rng = random.Random(seed)
        self.tmp = tmp
        self.tracer = None
        self.checks = {"attempted": 0, "failed": 0, "failures": []}

    def check(self, label: str, ok: bool) -> None:
        self.checks["attempted"] += 1
        if not ok:
            self.checks["failed"] += 1
            self.checks["failures"].append(label)

    def span(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    @contextlib.contextmanager
    def stage(self, rep: dict, key: str):
        """Time the body as one stage; the body sets ["work"] on what it gets
        and may time its parts from ["start"].

        A full collection first gives every stage the same collector state,
        so that when the cyclic collector runs inside the stage does not
        depend on what earlier repetitions left behind.
        """
        gc.collect()
        out = rep[key] = {}
        with self.span(f"bench.{key}"):
            out["start"] = clock()
            yield out
            out["seconds"] = clock() - out["start"]


class Scan(Workload):
    """Exact margin scan on a window of primes q = 3 (mod 8) just below 10**6.

    Why: a modulus costs O(q), so the top slice is where the full scan to
    10**6 spends its time: [950000, 10**6] holds 897 moduli and 9.3% of
    sum q.  It is the only workload where the margin kernel (chi_values,
    prefix sums, W) does nearly all of the work, one half-period per
    modulus with nothing shared between moduli.  stage1 scans the window
    with jobs=1, stage2 the same window with jobs=2; both write a
    checkpoint file as `charpos verify --checkpoint` does.  The seed picks
    where the window sits.
    """

    name = "scan"
    units = ("moduli", "moduli")

    def __init__(self, seed, smoke, tmp):
        super().__init__(seed, smoke, tmp)
        lo, hi, size = (19000, 20000, 6) if smoke else (950000, 10 ** 6, 140)
        pool = [int(q) for q in charpos.primes_in_range(lo, hi, residue=3, modulus=8)]
        start = self.rng.randrange(len(pool) - size + 1)
        self.window = pool[start:start + size]
        self.sample_q = self.rng.choice(self.window)
        self.results = []

    def inputs(self) -> dict:
        return {"q_min": self.window[0], "q_max": self.window[-1],
                "moduli": len(self.window), "sample_q": self.sample_q}

    def warm_up(self) -> None:
        charpos.scan_positivity(5, 3000, jobs=1)

    def rep(self) -> dict:
        rep = {}
        q_min, q_max = self.window[0], self.window[-1]
        for key, jobs in (("stage1", 1), ("stage2", 2)):
            path = self.tmp / f"checkpoint-{jobs}.jsonl"
            path.unlink(missing_ok=True)
            # Pool workers are forked and their spans would stay in them, so
            # the layers are traced on the jobs=1 pass only.
            with paused(self.tracer if jobs > 1 else None):
                with self.stage(rep, key) as out:
                    res = charpos.scan_positivity(q_min, q_max, jobs=jobs,
                                                  checkpoint_path=str(path))
                    out["work"] = res.count
            ck = charpos.read_checkpoint(str(path), res.campaign)
            self.check(f"{key}: checkpoint frontier",
                       ck is not None and ck.last_q == q_max and ck.count == res.count)
            self.check(f"{key}: no failures", res.holds and res.failures == ())
            self.results.append(res.to_json())
        self.check("jobs=1 and jobs=2 give identical JSON",
                   self.results[-1] == self.results[-2])
        return rep

    def named(self, reps: list[dict]) -> dict:
        return {f"scan_j{jobs}_moduli_per_s": (
                    sum(r[key]["work"] for r in reps)
                    / sum(r[key]["seconds"] for r in reps), "1/s")
                for key, jobs in (("stage1", 1), ("stage2", 2))}

    def final_checks(self) -> None:
        first = json.loads(self.results[0])
        self.check("same JSON in every repetition",
                   len(set(self.results)) == 1)
        expected = primes_by_trial(self.window[0], self.window[-1], 3, 8)
        self.check("count matches trial division", first["count"] == len(expected))
        self.check("min W at argmin_q",
                   charpos.check_positivity(first["argmin_q"]).min_w == first["min_w"])
        sample = plain_min_w(self.sample_q)
        self.check("min W at the sampled modulus re-derived by a plain loop",
                   sample == charpos.check_positivity(self.sample_q).min_w
                   and sample >= first["min_w"])


class Exact(Workload):
    """The exact-arithmetic paths: positivity certificates and f_q at
    rational points.

    Why: the certificate is the trust path, pure-Python jacobi calls and
    Fraction comparisons against the rational pi bracket.  The margin
    kernel runs once there, about 12 ms of a repetition, so a kernel change
    should not move stage1 and a checker change should not move scan.  The
    builder writes the certificate and the checker reads it, so both sides
    of one artefact are measured.  In the evaluations, chi_sieve runs over
    ranges much longer than one period (pq >> q) through its roll/resize
    path, and about 96% of the fq_prime_frac calls repeat a (p, q) sieve
    already built in the same repetition; scan has the opposite shape.

    stage1 builds (certify_f_positive, json.dumps), parses (json.loads) and
    checks (verify_certificate) one large imitator over [1/10, 1/4] that
    the seed picks, counted in certificate margins.  stage2 is one batch of
    evaluations: the scan_prime_fracs divisibility census (p <= 150, primes
    q = 3 (mod 8) up to 1000; q = 7 (mod 8) is left out because there some
    cores are exactly 0, which the census reports as nonpositive),
    criterion 7's pair, and identity_check over the whole half range at
    three primes near 10**6 that the seed picks.  Each repetition also
    round-trips criterion 2's q=163 certificate, outside the stages.
    """

    name = "exact"
    units = ("certificate margins", "evaluation batches")
    CANDIDATES = (991027, 948187, 911227)
    MUTATIONS = ("h", "agreement_N", "a0", "xmax_num", "W")
    PAIR = ((1, 1163, 3511, 561760), (1, 719, 2971, 130724))

    def __init__(self, seed, smoke, tmp):
        super().__init__(seed, smoke, tmp)
        self.q = 163 if smoke else self.rng.choice(self.CANDIDATES)
        self.mutation = self.rng.choice(self.MUTATIONS)
        self.small = (Fraction(7, 163), 163, Fraction(1, 4))
        self.large = (Fraction(1, 10), self.q, Fraction(1, 4))
        self.last = None
        self.p_max, self.q_max = (30, 100) if smoke else (150, 1000)
        lo, hi = (9000, 10000) if smoke else (990000, 10 ** 6)
        pool = [int(q) for q in charpos.primes_in_range(lo, hi, residue=3, modulus=4)]
        self.identity_qs = sorted(self.rng.sample(pool, 3))
        self.counts = []

    def inputs(self) -> dict:
        return {"q": self.q, "eps": "1/10", "xmax": "1/4", "mutation": self.mutation,
                "p_max": self.p_max, "q_max": self.q_max,
                "identity_q": self.identity_qs}

    def warm_up(self) -> None:
        charpos.class_number(self.q)
        self._certify(self.small)
        charpos.scan_prime_fracs(20, 100)

    def _certify(self, spec):
        eps, q, xmax = spec
        res = charpos.certify_f_positive(eps, q=q, xmax=xmax)
        with self.span("certify.json"):
            text = json.dumps(res.certificate)
        return res, text

    def _verify(self, text):
        with self.span("certify.json"):
            cert = json.loads(text)
        return cert, charpos.verify_certificate(cert)

    def rep(self) -> dict:
        rep = {}
        small, small_text = self._certify(self.small)
        _, (small_ok, _) = self._verify(small_text)
        self.check("q=163 certificate covers [7/163, 1/4] and verifies",
                   small_ok and small.a0 == 7 and not small.truncated)
        with self.stage(rep, "stage1") as out:
            res, text = self._certify(self.large)
            out["build_s"] = clock() - out["start"]
            cert, (ok, why) = self._verify(text)
            out["work"] = len(cert["margins"])
        out["check_s"] = out["seconds"] - out["build_s"]
        if self.tracer is not None:
            self.tracer.count("certify.json_bytes", len(text))
        self.check(f"checker accepts q={self.q}: {why}", ok)
        self.check("certificate reaches xmax",
                   not res.truncated and res.achieved_xmax == self.large[2])
        self.check("JSON round trip is equal", cert == res.certificate)
        self.last = res.certificate

        with self.stage(rep, "stage2") as out:
            census = charpos.scan_prime_fracs(self.p_max, self.q_max)
            pair = [charpos.fq_prime_frac(a, p, q) for a, p, q, _ in self.PAIR]
            out["evaluations"] = census.count + len(pair)
            out["census_s"] = clock() - out["start"]
            verdicts = [charpos.identity_check(q) for q in self.identity_qs]
            out["work"] = 1
        out["identity_s"] = out["seconds"] - out["census_s"]
        self.check("census: no nonpositive or non-integral core",
                   census.nonpositive == () and census.nonintegral == ())
        self.check("criterion 7 values",
                   [ev.stat for ev in pair] == [s for *_, s in self.PAIR])
        self.check("identity_check holds", all(v is True for v in verdicts))
        self.counts.append(census.count)
        return rep

    def named(self, reps: list[dict]) -> dict:
        s1 = [r["stage1"] for r in reps]
        s2 = [r["stage2"] for r in reps]
        return {
            "certify_build_s": (sum(x["build_s"] for x in s1) / len(s1), "s"),
            "certify_check_s": (sum(x["check_s"] for x in s1) / len(s1), "s"),
            "census_evals_per_s": (sum(x["evaluations"] for x in s2)
                                   / sum(x["census_s"] for x in s2), "1/s"),
            "identity_s": (sum(x["identity_s"] for x in s2) / len(s2), "s"),
        }

    def final_checks(self) -> None:
        cert = json.loads(json.dumps(self.last))
        if self.mutation == "W":
            row = cert["margins"][self.rng.randrange(len(cert["margins"]))]
            row["W"] += 1
        else:
            cert[self.mutation] += 1
        ok, _ = charpos.verify_certificate(cert)
        self.check(f"checker rejects a mutated {self.mutation}", not ok)
        expected = 0
        for q in primes_by_trial(5, self.q_max, 3, 8):
            for p in primes_by_trial(3, min(self.p_max, q - 1), 3, 4):
                expected += (p - 1) // 2
        self.check("census count matches trial division",
                   set(self.counts) == {expected})


WORKLOADS = {w.name: w for w in (Scan, Exact)}
