import concurrent.futures.process
import copy
import hashlib
import json
import math
import multiprocessing
import os
import random
import re
import signal
import sys
import time
import tracemalloc
from fractions import Fraction
from importlib import resources

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charpos import charsum, check, errors, fq, liouville, ntcore, verify
from oracles import chi_factor, factorize, prime_frac_core, simple_primes
from oracles import margins as oracle_margins


def load_schema(name):
    text = resources.files("charpos").joinpath(f"schemas/{name}").read_text()
    return json.loads(text)


class TestCheckPositivity:
    def test_163_holds(self):
        rep = verify.check_positivity(163)
        assert rep.holds is True
        assert (rep.min_w, rep.argmin_a, rep.h) == (1, 1, 1)

    def test_2647_fails(self):
        rep = verify.check_positivity(2647)
        assert rep.holds is False
        assert (rep.min_w, rep.argmin_a) == (-171, 1185)

    def test_boundary_zero_counts_as_holding(self):
        # q = 7 has W = 0 at the last node; nonnegative means holds
        rep = verify.check_positivity(7)
        assert rep.holds is True
        assert rep.min_w == 0

    def test_oversized_modulus_is_refused_before_its_buffers(self, monkeypatch):
        # the gate refuses the table before np.empty: no 888 PiB request
        monkeypatch.setattr(charsum, "np", None)
        with pytest.raises(errors.DomainError, match="above the limit"):
            verify.check_positivity(10**18 + 3)


class TestScan:
    def test_small_range(self):
        r = verify.scan_positivity(5, 2000)
        assert r.holds is True
        assert (r.min_w, r.argmin_q) == (1, 11)
        want = ntcore.primes_in_range(5, 2000, residue=3, modulus=8).size
        assert r.count == want

    def test_empty_range(self):
        r = verify.scan_positivity(10, 5)
        assert r.count == 0
        assert r.min_w is None and r.argmin_q is None
        assert r.holds is True

    def test_json_is_canonical_and_schema_valid(self):
        r = verify.scan_positivity(5, 2000)
        s1 = r.to_json()
        s2 = verify.scan_positivity(5, 2000).to_json()
        assert s1 == s2
        payload = json.loads(s1)
        jsonschema.validate(payload, load_schema("report.v1.json"))
        assert payload["campaign"] == "positivity:5:2000"

    def test_jobs_do_not_change_result(self, monkeypatch):
        monkeypatch.setattr(verify, "_CHUNK_WEIGHT", 100_000)
        a = verify.scan_positivity(5, 50_000, jobs=1)
        b = verify.scan_positivity(5, 50_000, jobs=3)
        assert a.to_json() == b.to_json()

    def test_pool_has_at_most_one_worker_per_chunk(self, monkeypatch):
        # a fake executor records its size and maps in process, so no
        # worker is ever started
        monkeypatch.setattr(verify, "_CHUNK_WEIGHT", 25_000)
        sizes = []

        class FakeExecutor:
            def __init__(self, n, mp_context):
                sizes.append(n)

            def map(self, fn, items):
                return map(fn, items)

            def shutdown(self, wait=True, *, cancel_futures=False):
                pass

        monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor",
                            FakeExecutor)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)),
                            raising=False)
        n_chunks = len(verify._chunked(
            ntcore.primes_in_range(5, 2000, residue=3, modulus=8)))
        assert n_chunks == 3
        wide = verify.scan_positivity(5, 2000, jobs=64)
        assert sizes == [3]
        assert verify.scan_positivity(5, 2000, jobs=2).to_json() == wide.to_json()
        assert sizes == [3, 2]
        assert verify.scan_positivity(5, 2000).to_json() == wide.to_json()
        assert sizes == [3, 2]
        # and at most one worker per CPU: a huge jobs starts no more than
        # there are CPUs, and one CPU maps in process
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert verify.scan_positivity(5, 2000, jobs=5000).to_json() == wide.to_json()
        assert sizes == [3, 2, 2]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert verify.scan_positivity(5, 2000, jobs=5000).to_json() == wide.to_json()
        assert sizes == [3, 2, 2]

    def test_worker_death_fails_fast(self, monkeypatch, tmp_path):
        # a worker killed mid-scan (os._exit, as the OOM killer would do)
        # must end the scan at once with CharposError naming the lost
        # chunk, leave no child behind, and keep a frontier from which a
        # resume reports what an unbroken scan reports
        monkeypatch.setattr(verify, "_CHUNK_WEIGHT", 200_000)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        real, parent = verify._margin_min, os.getpid()

        def dying(ch, a_max):
            if ch.q > 30_000 and os.getpid() != parent:
                os._exit(9)
            return real(ch, a_max)

        def hung(signum, frame):
            raise TimeoutError("the scan hung after its worker died")

        monkeypatch.setattr(verify, "_margin_min", dying)
        path = tmp_path / "scan.jsonl"
        old = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            t0 = time.perf_counter()
            with pytest.raises(errors.CharposError, match="worker died") as info:
                verify.scan_positivity(5, 60_000, jobs=2, checkpoint_path=path)
            elapsed = time.perf_counter() - t0
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
        assert elapsed < 20, elapsed
        assert multiprocessing.active_children() == []
        # the lost chunk is a whole chunk of the layout, no later than the
        # first one that kills its worker, and the frontier is the end of
        # the chunk before it
        lo, hi = map(int, re.search(r"q = (\d+)\.\.(\d+)", str(info.value)).groups())
        chunks = verify._chunked(ntcore.primes_in_range(5, 60_000, residue=3,
                                                        modulus=8))
        k = [c[0] for c in chunks].index(lo)
        dies = next(i for i, c in enumerate(chunks) if c[-1] > 30_000)
        assert 1 <= k <= dies and chunks[k][-1] == hi
        frontier = verify.read_checkpoint(path, "positivity:5:60000")
        assert frontier.last_q == chunks[k - 1][-1]
        monkeypatch.setattr(verify, "_margin_min", real)
        clean_path = tmp_path / "clean.jsonl"
        clean = verify.scan_positivity(5, 60_000, checkpoint_path=clean_path)
        assert path.read_text().splitlines()[-1] in clean_path.read_text().splitlines()
        resumed = verify.scan_positivity(5, 60_000, jobs=2, checkpoint_path=path)
        assert resumed.to_json() == clean.to_json()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_json_is_pinned(self, jobs):
        got = verify.scan_positivity(5, 20000, jobs=jobs).to_json()
        assert got == ('{"argmin_q":11,"campaign":"positivity:5:20000","count":570,'
                       '"failures":[],"holds":true,"min_w":1,"q_max":20000,'
                       '"q_min":5,"version":"v1"}')

    def test_fold_records_failures_and_first_minimum(self, monkeypatch):
        monkeypatch.setattr(verify, "_CHUNK_WEIGHT", 10_000)
        monkeypatch.setattr(verify, "_scan_chunk",
                            lambda qs: [1 - q % 5 for q in qs])
        r = verify.scan_positivity(5, 5000)
        qs = [int(q) for q in ntcore.primes_in_range(5, 5000, residue=3,
                                                     modulus=8)]
        assert r.failures == tuple((q, 1 - q % 5) for q in qs if q % 5 > 1)
        assert (r.min_w, r.argmin_q) == (-3, min(q for q in qs if q % 5 == 4))
        assert r.count == len(qs) and not r.holds

    def test_rejects_bad_jobs(self):
        with pytest.raises(errors.DomainError):
            verify.scan_positivity(5, 100, jobs=0)

    def test_chunk_peak_memory_near_a_million(self):
        # one int8 table of q bytes at a time, a few arrays of one entry
        # per block and _qr_period's pass scratch: no int64 squares
        qs = [int(q) for q in ntcore.primes_in_range(999_000, 10**6,
                                                     residue=3, modulus=8)[-4:]]
        tracemalloc.start()
        try:
            got = verify._scan_chunk(qs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == [charsum.class_number(q).h for q in qs]
        assert peak <= 2 * 2**20, peak / 2**20


class TestCheckpoints:
    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        # several chunks and several checkpoint flushes per scan
        monkeypatch.setattr(verify, "_CHUNK_WEIGHT", 100_000)

    def test_lines_schema_valid(self, tmp_path):
        path = tmp_path / "scan.jsonl"
        verify.scan_positivity(5, 20_000, checkpoint_path=path)
        schema = load_schema("checkpoint.v1.json")
        lines = path.read_text().splitlines()
        assert len(lines) >= 3
        for line in lines:
            jsonschema.validate(json.loads(line), schema)

    def test_resume_is_idempotent(self, tmp_path):
        path = tmp_path / "scan.jsonl"
        first = verify.scan_positivity(5, 20_000, checkpoint_path=path)
        again = verify.scan_positivity(5, 20_000, checkpoint_path=path)
        assert again == first

    def test_resume_from_torn_file(self, tmp_path):
        path = tmp_path / "scan.jsonl"
        first = verify.scan_positivity(5, 20_000, checkpoint_path=path)
        lines = path.read_text().splitlines()
        assert len(lines) >= 3
        path.write_text("\n".join(lines[: len(lines) // 2])
                        + '\n{"campaign": "positiv')
        resumed = verify.scan_positivity(5, 20_000, checkpoint_path=path)
        assert resumed == first

    def test_one_frontier_line_per_chunk(self, tmp_path):
        path = tmp_path / "scan.jsonl"
        verify.scan_positivity(5, 20_000, checkpoint_path=path)
        qs = ntcore.primes_in_range(5, 20_000, residue=3, modulus=8)
        chunks = verify._chunked(qs)
        assert len(chunks) > 3
        last = [json.loads(line)["last_q"]
                for line in path.read_text().splitlines()]
        assert last == [chunk[-1] for chunk in chunks]
        assert last[-1] == qs[-1]

    def test_interrupted_scan_skips_finished_chunks(self, tmp_path,
                                                    monkeypatch):
        path = tmp_path / "scan.jsonl"
        real = verify._scan_chunk
        calls = []

        def crash_on_third(qs):
            calls.append(qs)
            if len(calls) == 3:
                raise RuntimeError("interrupted")
            return real(qs)

        monkeypatch.setattr(verify, "_scan_chunk", crash_on_third)
        with pytest.raises(RuntimeError, match="interrupted"):
            verify.scan_positivity(5, 20_000, jobs=1, checkpoint_path=path)
        frontier = verify.read_checkpoint(path, "positivity:5:20000")
        assert frontier.last_q == calls[1][-1]

        rerun = []
        monkeypatch.setattr(verify, "_scan_chunk",
                            lambda qs: rerun.append(qs) or real(qs))
        resumed = verify.scan_positivity(5, 20_000, jobs=1,
                                         checkpoint_path=path)
        monkeypatch.setattr(verify, "_scan_chunk", real)
        assert resumed == verify.scan_positivity(5, 20_000)
        qs = ntcore.primes_in_range(5, 20_000, residue=3, modulus=8)
        assert rerun == verify._chunked(qs)[2:]

    def test_final_frontier_is_pinned(self, tmp_path):
        path = tmp_path / "scan.jsonl"
        verify.scan_positivity(5, 20000, checkpoint_path=path)
        assert path.read_text().splitlines()[-1] == (
            '{"argmin_q":11,"campaign":"positivity:5:20000","count":570,'
            '"failures":[],"last_q":19979,"min_w":1,"version":"v1"}')

    def test_campaign_mismatch_is_ignored(self, tmp_path):
        path = tmp_path / "scan.jsonl"
        verify.scan_positivity(5, 2000, checkpoint_path=path)
        other = verify.scan_positivity(5, 3000, checkpoint_path=path)
        fresh = verify.scan_positivity(5, 3000)
        assert other == fresh

    def test_read_checkpoint_missing_file(self, tmp_path):
        assert verify.read_checkpoint(tmp_path / "nope", "x") is None


class TestCertify:
    def test_full_certificate_shape(self):
        res = verify.certify_f_positive(Fraction(7, 163), q=163,
                                        xmax=Fraction(1, 4))
        assert res.truncated is False
        assert res.achieved_xmax == Fraction(1, 4)
        assert (res.q, res.h, res.n_agree, res.a0) == (163, 1, 40, 7)
        cert = res.certificate
        assert cert["margins"][0] == {"a": 7, "W": 8}
        assert cert["margins"][-1] == {"a": 41, "W": 117}
        assert len(cert["margins"]) == 35
        jsonschema.validate(cert, load_schema("certificate.v1.json"))

    def test_truncates_at_exact_half(self):
        res = verify.certify_f_positive(Fraction(7, 163), q=163,
                                        xmax=Fraction(1, 2))
        assert res.truncated is True
        assert res.achieved_xmax == Fraction(78, 163)
        ok, why = verify.verify_certificate(res.certificate)
        assert ok, why

    def test_insufficient_left_endpoint(self):
        with pytest.raises(errors.InsufficientBound) as exc:
            verify.certify_f_positive(Fraction(1, 1000), q=163)
        assert exc.value.best_eps == Fraction(6, 163)

    def test_insufficient_without_alternative(self):
        # the whole window fails for q = 7 (N = 1, margins 0 and 1)
        with pytest.raises(errors.InsufficientBound) as exc:
            verify.certify_f_positive(Fraction(1, 7), q=7, xmax=Fraction(2, 7))
        assert exc.value.best_eps is None

    @pytest.mark.parametrize("eps,q,xmax,n_agree,node,best", [
        (Fraction(1, 163), 163, Fraction(1, 4), 40, "1/163", Fraction(6, 163)),
        (Fraction(1, 50), 163, Fraction(1, 2), 40, "3/163", None),
        (Fraction(1, 10), 1019, Fraction(1, 2), 2, "101/1019", None),
        (Fraction(1, 100), 991027, Fraction(1, 4), 40, "9910/991027",
         Fraction(31394, 991027)),
    ])
    def test_insufficient_bound_is_pinned(self, eps, q, xmax, n_agree, node,
                                          best):
        with pytest.raises(errors.InsufficientBound) as exc:
            verify.certify_f_positive(eps, q=q, xmax=xmax)
        assert str(exc.value) == (f"margin 2/{n_agree} not met at node {node}; "
                                  f"cannot certify down to eps={eps}")
        assert exc.value.best_eps == best

    def test_truncation_at_991027_is_pinned(self):
        res = verify.certify_f_positive(Fraction(1, 10), q=991027,
                                        xmax=Fraction(1, 2))
        assert res.truncated is True
        assert res.achieved_xmax == Fraction(478278, 991027)
        cert = res.certificate
        assert (cert["a0"], cert["margins"][-1]["a"]) == (99102, 478278)

    def test_auto_search_lands_on_163(self):
        res = verify.certify_f_positive(Fraction(7, 163), xmax=Fraction(1, 4))
        assert res.q == 163

    def test_domain_checks(self):
        with pytest.raises(errors.DomainError):
            verify.certify_f_positive(Fraction(1, 3), q=163,
                                      xmax=Fraction(1, 4))
        with pytest.raises(errors.DomainError):
            verify.certify_f_positive(Fraction(1, 10), q=163,
                                      xmax=Fraction(2, 3))

    def test_certificate_json_is_stable(self):
        a = verify.certify_f_positive(Fraction(7, 163), q=163).certificate
        b = verify.certify_f_positive(Fraction(7, 163), q=163).certificate
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def pi4_decision(w, n, q):
    """The per-node margin test as pi4_times_at_least decides it."""
    if w <= 0:
        return "fails"
    try:
        big = ntcore.pi4_times_at_least(Fraction(w * w * n * n),
                                        Fraction(q) ** 3)
    except errors.ExactnessError:
        return "undecidable"
    return "clears" if big else "fails"


def threshold_decision(w, w_lo, w_yes):
    if w >= w_yes:
        return "clears"
    return "undecidable" if w >= w_lo else "fails"


# (PI4_LO, PI4_HI) to monkeypatch; None keeps the 37-digit bracket.
BRACKETS = [None, (Fraction(97), Fraction(98)), (Fraction(1), Fraction(98))]


class TestMarginThresholds:
    @settings(max_examples=300)
    @given(st.integers(2, 10 ** 9 - 1), st.integers(1, 199),
           st.sampled_from(BRACKETS))
    def test_builder_and_checker_match_pi4_times_at_least(self, q, n,
                                                          bracket):
        with pytest.MonkeyPatch.context() as mp:
            if bracket is not None:
                mp.setattr(ntcore, "PI4_LO", bracket[0])
                mp.setattr(ntcore, "PI4_HI", bracket[1])
            builder = ntcore.pi4_square_thresholds(n * n, q ** 3)
            checker = check._checker_thresholds(q, n)
            ws = {t + d for t in builder for d in range(-3, 4)} | {0, -1}
            for w in sorted(ws):
                want = pi4_decision(w, n, q)
                assert threshold_decision(w, *builder) == want, (w, builder)
                assert threshold_decision(w, *checker) == want, (w, checker)

    def test_no_undecidable_margin_below_a_million(self):
        # Every prime q = 3 (mod 8) below 10**6, at its own agreement
        # length: no integer W falls between the two thresholds, so the
        # 37-digit pi bracket decides every margin these moduli can cite.
        qs = ntcore.primes_in_range(5, 10 ** 6, residue=3, modulus=8)
        assert len(qs) == 19652
        for q in qs.tolist():
            n = liouville.agreement_length(
                ntcore.quad_char(q, assume_prime=True)).n_agree
            w_lo, w_yes = ntcore.pi4_square_thresholds(n * n, q ** 3)
            assert w_lo == w_yes, q

    @pytest.mark.parametrize("bracket,eps,message", [
        ((Fraction(1), Fraction(98)), Fraction(7, 163),
         "pi**4 * 102400 vs 4330747 falls inside the rational pi bounds"),
        ((Fraction(1), Fraction(98)), Fraction(1, 163),
         "pi**4 * 78400 vs 4330747 falls inside the rational pi bounds"),
        ((Fraction(1), Fraction(2)), Fraction(7, 163),
         "pi**4 * 2560000 vs 4330747 falls inside the rational pi bounds"),
        # w_lo = 8 = W(7): the band's lowest value is undecidable
        ((Fraction(1), Fraction(43)), Fraction(7, 163),
         "pi**4 * 102400 vs 4330747 falls inside the rational pi bounds"),
    ])
    def test_wide_bracket_builder_raises(self, monkeypatch, bracket, eps,
                                         message):
        monkeypatch.setattr(ntcore, "PI4_LO", bracket[0])
        monkeypatch.setattr(ntcore, "PI4_HI", bracket[1])
        with pytest.raises(errors.ExactnessError) as exc:
            verify.certify_f_positive(eps, q=163, xmax=Fraction(1, 4))
        assert str(exc.value) == message

    def test_margin_equal_to_w_yes_clears(self, monkeypatch):
        genuine = verify.certify_f_positive(Fraction(7, 163), q=163,
                                            xmax=Fraction(1, 4)).certificate
        # w_yes = 8 = W(7), the smallest cited margin
        monkeypatch.setattr(ntcore, "PI4_LO", Fraction(43))
        monkeypatch.setattr(ntcore, "PI4_HI", Fraction(98))
        res = verify.certify_f_positive(Fraction(7, 163), q=163,
                                        xmax=Fraction(1, 4))
        assert res.certificate == genuine

    @pytest.mark.parametrize("bracket,reason", [
        ((Fraction(1), Fraction(98)),
         "margin at node 7 is undecidable at this precision"),
        ((Fraction(1), Fraction(2)), "W(7) = 8 does not clear the 2/40 margin"),
        ((Fraction(1), Fraction(43)),
         "margin at node 7 is undecidable at this precision"),
        ((Fraction(43), Fraction(98)), "ok"),
        ((Fraction(97), Fraction(98)), "ok"),
    ])
    def test_wide_bracket_checker(self, monkeypatch, bracket, reason):
        cert = verify.certify_f_positive(Fraction(7, 163), q=163,
                                         xmax=Fraction(1, 4)).certificate
        monkeypatch.setattr(ntcore, "PI4_LO", bracket[0])
        monkeypatch.setattr(ntcore, "PI4_HI", bracket[1])
        assert verify.verify_certificate(cert) == (reason == "ok", reason)


class TestVerifyCertificate:
    @pytest.fixture()
    def cert(self):
        return verify.certify_f_positive(Fraction(7, 163), q=163,
                                         xmax=Fraction(1, 4)).certificate

    def test_accepts_genuine(self, cert):
        ok, why = verify.verify_certificate(cert)
        assert ok and why == "ok"

    def test_not_a_mapping(self):
        ok, why = verify.verify_certificate([1, 2])
        assert not ok

    def test_mutations_rejected(self, cert):
        def mutated(**kw):
            c = copy.deepcopy(cert)
            c.update(kw)
            return c

        bad = [
            mutated(version="v2"),
            mutated(q=167),
            mutated(q=4),
            mutated(h=cert["h"] + 1),
            mutated(agreement_N=cert["agreement_N"] + 1),
            mutated(a0=cert["a0"] + 1),
            mutated(xmax_num=cert["xmax_num"] * 2),
            mutated(xmax_den=1),
            mutated(verdict="positive"),
            mutated(margins=[]),
            mutated(margins="nope"),
        ]
        c = copy.deepcopy(cert)
        c["margins"][5]["W"] += 1
        bad.append(c)
        c = copy.deepcopy(cert)
        c["margins"][5]["a"] = c["margins"][0]["a"]
        bad.append(c)
        c = copy.deepcopy(cert)
        del c["margins"]
        bad.append(c)
        c = copy.deepcopy(cert)
        c["extra"] = 1
        bad.append(c)
        for i, b in enumerate(bad):
            ok, why = verify.verify_certificate(b)
            assert not ok, (i, why)

    def test_jacobi_stops_at_the_last_cited_node(self, cert, monkeypatch):
        calls = []
        real = check.jacobi
        monkeypatch.setattr(check, "jacobi",
                            lambda m, q: calls.append(m) or real(m, q))
        assert verify.verify_certificate(cert) == (True, "ok")
        a_last = cert["margins"][-1]["a"]
        # at most one call per node up to a_last, plus the agreement loop
        assert len(calls) <= a_last + cert["agreement_N"] + 1
        assert max(calls) == a_last

    @pytest.mark.parametrize("q", [check.MAX_CERT_Q + 3, 2 ** 64 - 1, 2 ** 64 + 3])
    def test_oversized_modulus_rejected_fast(self, cert, q):
        c = copy.deepcopy(cert)
        c["q"] = q
        t0 = time.perf_counter()
        ok, why = verify.verify_certificate(c)
        assert time.perf_counter() - t0 < 1.0
        assert not ok
        assert "MAX_CERT_Q" in why

    def test_margin_below_threshold_rejected(self):
        # forge a certificate citing true but too-small margins
        h, w = charsum.margin_values(163, 5)
        forged = {
            "version": "v1", "q": 163, "h": 1, "agreement_N": 40,
            "a0": 1, "xmax_num": 5, "xmax_den": 163,
            "margins": [{"a": a, "W": int(w[a])} for a in range(1, 6)],
            "verdict": "nonnegative",
        }
        ok, why = verify.verify_certificate(forged)
        assert not ok
        assert why == "W(1) = 1 does not clear the 2/40 margin"

    def test_nodes_beyond_half_rejected(self, cert):
        c = copy.deepcopy(cert)
        last = c["margins"][-1]["a"]
        c["margins"].append({"a": last + 41, "W": 1})
        c["margins"][-1]["a"] = 82  # beyond (163-1)/2
        # fix contiguity by rebuilding from 48..82
        c["margins"] = [{"a": a, "W": 1} for a in range(48, 83)]
        c["a0"] = 48
        ok, why = verify.verify_certificate(c)
        assert not ok


def certifiable_runs(q):
    """Maximal runs of nodes whose W clears the builder's margin threshold."""
    ch = ntcore.quad_char(q)
    n = liouville.agreement_length(ch).n_agree
    _, w = charsum.margin_values(ch, (q - 1) // 2)
    w_yes = ntcore.pi4_square_thresholds(n * n, q ** 3)[1]
    runs, start = [], None
    for a in range(1, (q - 1) // 2 + 2):
        good = a <= (q - 1) // 2 and int(w[a]) >= w_yes
        if good and start is None:
            start = a
        elif not good and start is not None:
            runs.append((start, a - 1))
            start = None
    return runs


def forged(q, a0, a1):
    """True h, N and W over a0..a1, whether or not they clear the margin."""
    h, w = charsum.margin_values(q, a1)
    return {"version": "v1", "q": q, "h": h,
            "agreement_N": liouville.agreement_length(q).n_agree,
            "a0": a0, "xmax_num": a1, "xmax_den": q,
            "margins": [{"a": a, "W": int(w[a])} for a in range(a0, a1 + 1)],
            "verdict": "nonnegative"}


def mutation_corpus_certificates():
    """Labelled certificates: random certifiable windows at 19, 43, 163 and
    4003, true but failing margins at 2647 (no window there clears its
    2/1 margin) and at the composite moduli 115 and 2651, criterion 2's
    window, and 991027 over [1/10, 1/4]."""
    rng = random.Random(2404)
    out = [("163:7/163..1/4", verify.certify_f_positive(
        Fraction(7, 163), q=163, xmax=Fraction(1, 4)).certificate)]
    for q in (19, 43, 163, 4003):
        for lo, hi in certifiable_runs(q):
            for _ in range(6):
                a0 = rng.randrange(lo, hi)
                a1 = rng.randrange(a0 + 1, hi + 1)
                out.append((f"{q}:{a0}..{a1}", verify.certify_f_positive(
                    Fraction(a0, q), q=q, xmax=Fraction(a1, q)).certificate))
    for _ in range(2):
        a0 = rng.randrange(1, 1200)
        a1 = rng.randrange(a0 + 1, 1324)
        out.append((f"2647:{a0}..{a1}:forged", forged(2647, a0, a1)))
    # W < 0 around 1185 at 2647; squarefree composite moduli 115 and 2651
    for q, a0, a1 in ((2647, 1180, 1190), (115, 3, 20), (2651, 10, 100)):
        out.append((f"{q}:{a0}..{a1}:forged", forged(q, a0, a1)))
    out.append(("991027:1/10..1/4", verify.certify_f_positive(
        Fraction(1, 10), q=991027, xmax=Fraction(1, 4)).certificate))
    return out


def mutations(cert):
    """(label, mutated copy) for every tampering the corpus applies."""
    def clone():
        # the rows are the only nested values
        return {**cert, "margins": [dict(row) for row in cert["margins"]]}

    def field(key, delta):
        c = clone()
        c[key] += delta
        return c

    def node(i, value):
        c = clone()
        c["margins"][i]["W"] = value(c["margins"][i]["W"])
        return c

    yield "genuine", clone()
    for key in ("h", "agreement_N", "a0", "xmax_num", "xmax_den"):
        for delta in (1, -1):
            yield f"{key}{delta:+d}", field(key, delta)
    for delta in (1, -1, 4):
        yield f"q{delta:+d}", field("q", delta)
    rows = len(cert["margins"])
    for where, i in (("first", 0), ("middle", rows // 2), ("last", rows - 1)):
        for name, value in (("+1", lambda w: w + 1), ("-1", lambda w: w - 1),
                            ("=0", lambda w: 0), ("=-5", lambda w: -5)):
            yield f"W[{where}]{name}", node(i, value)
    c = clone()
    c["margins"].pop()
    yield "drop-last", c


# test_wide_bracket_checker's (PI4_LO, PI4_HI) brackets
WIDE_BRACKETS = [(Fraction(1), Fraction(98)), (Fraction(1), Fraction(2)),
                 (Fraction(1), Fraction(43)), (Fraction(43), Fraction(98)),
                 (Fraction(97), Fraction(98))]


@pytest.fixture(scope="module")
def corpus_certificates():
    return mutation_corpus_certificates()


class TestMutationCorpus:
    def test_certificates_are_pinned(self, corpus_certificates):
        text = json.dumps(corpus_certificates, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "c6f52ffa1f68724526433328a9f309ab6fcb14bcea2f7143b7169b552d31140f")

    def test_verdicts_are_pinned(self, corpus_certificates):
        # sha256 of every (label, ok, reason) in corpus order; the reasons
        # are the checker's byte-for-byte output
        verdicts = []
        for label, cert in corpus_certificates:
            for name, c in mutations(cert):
                verdicts.append((label, name, *verify.verify_certificate(c)))
            if not label.startswith("991027"):
                for lo, hi in WIDE_BRACKETS:
                    with pytest.MonkeyPatch.context() as mp:
                        mp.setattr(ntcore, "PI4_LO", lo)
                        mp.setattr(ntcore, "PI4_HI", hi)
                        verdicts.append((label, f"pi4 in ({lo}, {hi})",
                                         *verify.verify_certificate(cert)))
        assert hashlib.sha256(repr(verdicts).encode()).hexdigest() == (
            "1b7ff06472084767ae21f4d26533ca447aa9ed77e0f5fef3bac73fd7b34af1d9")


# squarefree q = 3 (mod 4) in (3, 1200]: among them 15, 35, 51, 91, 231 and
# 1155 = 3*5*7*11, where chi vanishes at some of 3, 5 and 7
AWKWARD_Q = [q for q in range(7, 1201, 4)
             if len(set(factorize(q))) == len(factorize(q))]


class TestMultiplicativeWalk:
    """The node loop calls jacobi(m, q) only for m coprime to 210 and reads
    every other chi(m) as chi(p) * chi(m // p)."""

    def test_walk_matches_oracle_on_awkward_moduli(self, monkeypatch):
        # a pi**4 bracket this high makes every positive W clear its margin,
        # so the walk runs to the last node unless some W <= 0 stops it
        monkeypatch.setattr(ntcore, "PI4_LO", Fraction(10 ** 12))
        monkeypatch.setattr(ntcore, "PI4_HI", Fraction(10 ** 12))
        assert {7, 15, 35, 51, 91, 231, 1155} <= set(AWKWARD_Q)
        for q in AWKWARD_Q:
            half = (q - 1) // 2
            h, w = oracle_margins(q, half)
            n = next(p for p in simple_primes(q) if chi_factor(p, q) != -1) - 1
            for a_last in sorted({1, 2, 209, 210, 211, half}):
                if a_last > half:
                    continue
                cert = {"version": "v1", "q": q, "h": h, "agreement_N": n,
                        "a0": 1, "xmax_num": a_last, "xmax_den": q,
                        "margins": [{"a": a, "W": w[a]}
                                    for a in range(1, a_last + 1)],
                        "verdict": "nonnegative"}
                end = next((a for a in range(1, a_last + 1) if w[a] <= 0),
                           None)
                want = ((True, "ok") if end is None else
                        (False, f"W({end}) = {w[end]} is not positive"))
                assert verify.verify_certificate(cert) == want, (q, a_last)
                # a wrong W at the node where the walk ends names the truth
                end = end or a_last
                cert["margins"][end - 1]["W"] += 1
                assert verify.verify_certificate(cert) == (
                    False, f"W({end}) is {w[end]}, certificate says "
                           f"{w[end] + 1}"), (q, a_last)

    @pytest.mark.parametrize("label, node_calls", [("163:7/163..1/4", 10),
                                                   ("991027:1/10..1/4", 56630)])
    def test_node_loop_calls_jacobi_only_coprime_to_210(
            self, corpus_certificates, monkeypatch, label, node_calls):
        cert = dict(corpus_certificates)[label]
        calls = []
        real = check.jacobi
        monkeypatch.setattr(check, "jacobi",
                            lambda m, q: calls.append(m) or real(m, q))
        assert verify.verify_certificate(cert) == (True, "ok")
        agreement = [p for p in range(2, cert["agreement_N"] + 2)
                     if ntcore.is_prime(p)]
        nodes = [m for m in range(1, cert["margins"][-1]["a"] + 1)
                 if math.gcd(m, 210) == 1]
        assert len(nodes) == node_calls
        # the agreement loop, chi(2), chi(3), chi(5), chi(7), then the nodes
        assert calls == agreement + [2, 3, 5, 7] + nodes

    def test_memo_is_one_byte_per_node_up_to_half_the_last(
            self, corpus_certificates):
        cert = dict(corpus_certificates)["991027:1/10..1/4"]
        tracemalloc.start()
        try:
            verdict = verify.verify_certificate(cert)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict == (True, "ok")
        # Measured: 124 555 B, the 123 879-byte memo for a_last = 247 757
        # plus a few hundred bytes.  A list memo would hold 991 kB of
        # pointers, and a table of q entries would take at least 991 kB.
        assert peak < 200_000


class TestReducedFormCount:
    def test_matches_class_number_below_ten_thousand(self):
        qs = [q for q in range(7, 10 ** 4 + 1, 4)
              if len(set(factorize(q))) == len(factorize(q))]
        assert len(qs) == 2029
        assert any(ntcore.is_prime(q) for q in qs)
        assert not all(ntcore.is_prime(q) for q in qs)
        for q in qs:
            assert check._reduced_form_count(q) == charsum.class_number(q).h, q

    @pytest.mark.parametrize("q", [991027, 948187, 911227, 999983, 999863,
                                   1000003])
    def test_matches_class_number_near_a_million(self, q):
        assert check._reduced_form_count(q) == charsum.class_number(q).h


class TestMerge:
    def make(self, eps, xmax):
        return verify.certify_f_positive(eps, q=163, xmax=xmax).certificate

    def test_adjacent_windows(self):
        left = self.make(Fraction(7, 163), Fraction(20, 163))
        right = self.make(Fraction(18, 163), Fraction(1, 4))
        merged = verify.merge_certificates(left, right)
        ok, why = verify.verify_certificate(merged)
        assert ok, why
        assert merged["a0"] == 7
        assert merged["margins"][-1]["a"] == 41
        # argument order must not matter
        assert verify.merge_certificates(right, left) == merged

    def test_gap_rejected(self):
        left = self.make(Fraction(7, 163), Fraction(10, 163))
        right = self.make(Fraction(30, 163), Fraction(1, 4))
        with pytest.raises(errors.CertificateError):
            verify.merge_certificates(left, right)

    def test_overlap_mismatch_rejected(self):
        left = self.make(Fraction(7, 163), Fraction(20, 163))
        right = self.make(Fraction(18, 163), Fraction(1, 4))
        right["margins"][0]["W"] += 1
        with pytest.raises(errors.CertificateError):
            verify.merge_certificates(left, right)

    def test_different_moduli_rejected(self):
        left = self.make(Fraction(7, 163), Fraction(20, 163))
        other = verify.certify_f_positive(Fraction(4, 19), q=19,
                                          xmax=Fraction(9, 19)).certificate
        with pytest.raises(errors.CertificateError):
            verify.merge_certificates(left, other)


CENSUS_DIGESTS = [
    (30, 100, 3, "1f2e17d1f2adfb0da0eb53059515a0b4ec43e5cd2941efa1d277b188baedeab3"),
    (150, 1000, 3, "46f9be9eb885090e42b8056302594d8fc2ba36ac27a61ef397cd0ea7c421f021"),
    (200, 200, 3, "76355c1082ae1d5a61b8d13de84130b51be15d8d9a38834057213c538eefa2d5"),
    (200, 200, 7, "d32e7bc5937d6b0f5c97a6d3c6cd24f833c88cf957a0adfdbea141b3a42d2022"),
    (60, 3000, 3, "cf47d9e05ab004a579d6a2958acaff19689cc904ef851e650135228b5cee6370"),
    (60, 300, 7, "ec98813fd8db4e46ee9a4c91d79ce72ce263903ea578e1c442b8c1f021b85ded"),
]


def pointwise_census(p_max, q_max, q_mod8):
    """The PrimeFracScan of scan_prime_fracs, one prime_frac_core at a time."""
    count = qdiv = 0
    nonpos, nonint = [], []
    best = None
    primes = simple_primes(q_max)
    for q in [q for q in primes if q > 3 and q % 8 == q_mod8]:
        for p in [p for p in primes if p <= min(p_max, q - 1) and p % 4 == 3]:
            for a in range(1, (p - 1) // 2 + 1):
                core = prime_frac_core(a, p, q)
                count += 1
                if core <= 0:
                    nonpos.append((a, p, q, core))
                if core % (p * q):
                    nonint.append((a, p, q, core))
                    continue
                stat = core // (p * q)
                qdiv += stat % q == 0
                if best is None or stat < best[0]:
                    best = (stat, (a, p, q))
    return verify.PrimeFracScan(p_max, q_max, q_mod8, count, tuple(nonpos),
                                tuple(nonint), qdiv, *best)


def spy_groups(monkeypatch):
    """Record (moduli, dtype, size) for every _prime_frac_cores call of a
    census, size being the period entries plus the evaluations."""
    groups = []
    real = fq._prime_frac_cores

    def spy(chars, p, a, counts):
        out = real(chars, p, a, counts)
        mods = tuple(ch.q for ch in chars)
        groups.append((mods, out.dtype, sum(mods) + len(out)))
        return out

    monkeypatch.setattr(verify, "_prime_frac_cores", spy)
    return groups


class TestPrimeFracScan:
    def test_census_3_mod_8(self):
        sc = verify.scan_prime_fracs(200, 200)
        assert sc.count == 3177
        assert sc.nonpositive == ()
        assert sc.nonintegral == ()
        assert sc.min_stat == 24
        assert sc.argmin == (1, 3, 11)

    def test_census_7_mod_8_has_sign_changes(self):
        sc = verify.scan_prime_fracs(200, 200, q_mod8=7)
        assert sc.count == 4253
        assert len(sc.nonpositive) == 34
        assert sc.nonintegral == ()
        zeros = [row for row in sc.nonpositive if row[3] == 0]
        assert len(zeros) == 5
        assert (20, 43, 103, 0) in zeros

    def test_a_cap(self):
        sc = verify.scan_prime_fracs(200, 60, a_max=1)
        assert sc.count == sum(
            1
            for q in ntcore.primes_in_range(5, 60, residue=3, modulus=8)
            for _ in ntcore.primes_in_range(3, int(q) - 1, residue=3, modulus=4)
        )

    def test_bad_residue_rejected(self):
        with pytest.raises(errors.DomainError):
            verify.scan_prime_fracs(50, 50, q_mod8=5)

    @pytest.mark.parametrize("a_max", [0, -3])
    def test_empty_a_range_rejected(self, a_max):
        with pytest.raises(errors.DomainError, match="a_max >= 1"):
            verify.scan_prime_fracs(50, 60, a_max=a_max)

    def test_oversized_q_max_refused_before_sieving(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sieved")

        monkeypatch.setattr(verify, "primes_in_range", refuse)
        with pytest.raises(errors.DomainError,
                           match=f"above the limit of {ntcore._TABLE_MAX}"):
            verify.scan_prime_fracs(3, 2**31)

    @pytest.mark.parametrize("q_mod8", [3, 7])
    def test_census_matches_pointwise_oracle(self, q_mod8):
        want = pointwise_census(60, 300, q_mod8)
        assert verify.scan_prime_fracs(60, 300, q_mod8=q_mod8) == want

    def test_census_argmin_is_first_occurrence(self):
        # stat 8 is reached at (1, 3, 7) and again at (9, 19, 23)
        sc = verify.scan_prime_fracs(19, 23, q_mod8=7)
        assert (sc.min_stat, sc.argmin) == (8, (1, 3, 7))

    def test_census_builds_one_table_per_modulus(self, monkeypatch):
        built = []
        real = fq.chi_values
        monkeypatch.setattr(fq, "chi_values",
                            lambda ch, n: built.append(ch.q) or real(ch, n))
        verify.scan_prime_fracs(60, 300)
        assert built == [q for q in simple_primes(300) if q > 3 and q % 8 == 3]

    def test_census_independent_of_slab_size(self, monkeypatch):
        want = verify.scan_prime_fracs(60, 200, q_mod8=7)
        for block in (8, 1):
            monkeypatch.setattr(fq, "BLOCK", block)
            assert verify.scan_prime_fracs(60, 200, q_mod8=7) == want, block

    @pytest.mark.parametrize("p_max,q_max,q_mod8,digest", CENSUS_DIGESTS)
    def test_census_records_are_pinned(self, p_max, q_max, q_mod8, digest):
        # sha256 of the repr of the whole PrimeFracScan: every record, in
        # (q, p, a) order, with the first-occurrence argmin
        sc = verify.scan_prime_fracs(p_max, q_max, q_mod8=q_mod8)
        assert hashlib.sha256(repr(sc).encode()).hexdigest() == digest

    @pytest.mark.parametrize("p_max,q_max,q_mod8,digest", CENSUS_DIGESTS)
    def test_census_digests_on_object_path(self, monkeypatch, p_max, q_max,
                                           q_mod8, digest):
        # a guard of 0 sends every census through Python integers
        monkeypatch.setattr(fq, "_CENSUS_INT64_GUARD", 0)
        sc = verify.scan_prime_fracs(p_max, q_max, q_mod8=q_mod8)
        assert hashlib.sha256(repr(sc).encode()).hexdigest() == digest

    def test_census_straddling_the_guard(self, monkeypatch):
        # 10 * 59**2 * q**3 < guard exactly for q < 150, so a group takes
        # int64 when its largest modulus is below 150 and object dtype
        # otherwise, a group across 150 included, with the same records
        monkeypatch.setattr(fq, "_CENSUS_INT64_GUARD", 0)
        want = verify.scan_prime_fracs(60, 300)
        groups = spy_groups(monkeypatch)
        monkeypatch.setattr(fq, "_CENSUS_INT64_GUARD", 10 * 59 ** 2 * 150 ** 3)
        monkeypatch.setattr(verify, "_CENSUS_GROUP", 1000)
        assert verify.scan_prime_fracs(60, 300) == want
        for mods, d, _ in groups:
            assert (d == np.int64) == (mods[-1] < 150), mods
        assert {d for _, d, _ in groups} == {np.dtype(np.int64), np.dtype(object)}
        assert any(mods[0] < 150 <= mods[-1] for mods, _, _ in groups)

    @pytest.mark.parametrize("q_mod8", [3, 7])
    @pytest.mark.parametrize("p_max", [3, 150, 1000])
    def test_groups_of_several_moduli_are_int64(self, monkeypatch, q_mod8, p_max):
        # two consecutive moduli of one group total at most _CENSUS_GROUP,
        # so its last q stays near 2**11 and 10 p**2 q**3 < 10 q**5 is far
        # below the real guard: only a group of one modulus can need
        # Python integers
        groups = spy_groups(monkeypatch)
        verify.scan_prime_fracs(p_max, 3000, q_mod8=q_mod8)
        several = [(mods, d) for mods, d, _ in groups if len(mods) > 1]
        assert several
        assert all(d == np.int64 for _, d in several), several

    @pytest.mark.parametrize("bound", [1, 300, 700])
    @pytest.mark.parametrize("p_max,q_max,q_mod8,digest", CENSUS_DIGESTS)
    def test_census_groups_match_digests(self, monkeypatch, bound, p_max,
                                         q_max, q_mod8, digest):
        # groups of a few hundred period entries and evaluations (or of
        # one modulus each), with the dtype flipping in the middle of the
        # moduli; every group takes the dtype of its largest modulus, int64
        # in the groups that end below the flip, and the records are the
        # pinned ones
        qs = [q for q in simple_primes(q_max) if q > 3 and q % 8 == q_mod8]
        q_mid = qs[len(qs) // 2]
        p_top = max(p for p in simple_primes(min(p_max, q_mid - 1)) if p % 4 == 3)
        monkeypatch.setattr(fq, "_CENSUS_INT64_GUARD", 10 * p_top ** 2 * q_mid ** 3)
        monkeypatch.setattr(verify, "_CENSUS_GROUP", bound)
        groups = spy_groups(monkeypatch)
        sc = verify.scan_prime_fracs(p_max, q_max, q_mod8=q_mod8)
        assert hashlib.sha256(repr(sc).encode()).hexdigest() == digest
        assert [q for mods, _, _ in groups for q in mods] == qs
        assert np.dtype(object) in {d for _, d, _ in groups}
        for mods, d, size in groups:
            assert (d == np.int64) == (mods[-1] < q_mid), mods
            assert len(mods) == 1 or size <= bound
        assert any(len(mods) > 1 for mods, _, _ in groups) == (bound > 1)
        # criterion 7's pair, each a group of one, on the patched guard
        assert [fq.fq_prime_frac(a, p, q).stat
                for a, p, q in [(1, 1163, 3511), (1, 719, 2971)]] == [561760, 130724]

    @pytest.mark.parametrize("q_mod8", [3, 7])
    def test_census_groups_match_pointwise_oracle(self, monkeypatch, q_mod8):
        monkeypatch.setattr(fq, "_CENSUS_INT64_GUARD", 10 * 59 ** 2 * 150 ** 3)
        monkeypatch.setattr(verify, "_CENSUS_GROUP", 400)
        want = pointwise_census(60, 300, q_mod8)
        assert verify.scan_prime_fracs(60, 300, q_mod8=q_mod8) == want

    def test_census_peak_memory(self):
        # groups of at most _CENSUS_GROUP entries and evaluations keep every
        # array of the census small: about 1 MiB here, where groups of 2**20
        # table entries took 58 MiB
        tracemalloc.start()
        try:
            sc = verify.scan_prime_fracs(150, 10000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sc.nonpositive == () and sc.nonintegral == ()
        assert peak <= 4 * 2 ** 20, peak / 2 ** 20

    def test_huge_a_cap_means_no_cap(self):
        want = verify.scan_prime_fracs(20, 60)
        assert verify.scan_prime_fracs(20, 60, a_max=10 ** 30) == want
        assert verify.scan_prime_fracs(20, 60, a_max=9) == want
        assert verify.scan_prime_fracs(20, 60, a_max=8) != want


class TestPrimalityIsDecidedOnce:
    """quad_char settles a modulus's primality, and everything downstream
    reads it off the character's factors: is_prime runs once per modulus
    given as an integer, and never for one a scan enumerated as prime."""

    @pytest.fixture
    def tested(self, monkeypatch):
        real, tested = ntcore.is_prime, []

        def spy(n):
            tested.append(n)
            return real(n)

        binders = sorted(name for name, mod in sys.modules.items()
                         if name.split(".")[0] == "charpos"
                         and getattr(mod, "is_prime", None) is real)
        assert {"charpos.ntcore", "charpos.charsum", "charpos.fq",
                "charpos.check"} <= set(binders)
        for name in binders:
            monkeypatch.setattr(sys.modules[name], "is_prime", spy)
        charsum._class_number_cached.cache_clear()
        return tested

    @pytest.mark.parametrize("call, want, primes", [
        (lambda: verify.scan_positivity(950_000, 10**6).count, 897, []),
        (lambda: charsum.class_number(999983).h, 1171, [999983]),
        (lambda: charsum.margin_profile(999983).min_w, 0, [999983]),
        (lambda: fq.identity_check(999983), True, [999983]),
        (lambda: verify.certify_f_positive(Fraction(7, 163), q=163).achieved_xmax,
         Fraction(1, 4), [163]),
        (lambda: verify.scan_prime_fracs(150, 1000).count, 20975, []),
    ], ids=["scan", "class_number_miss", "margin_profile", "identity_check",
            "certify", "census"])
    def test_is_prime_calls(self, tested, call, want, primes):
        assert call() == want
        assert tested == primes
