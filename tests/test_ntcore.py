import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from charpos import charsum, errors, ntcore, verify
from oracles import (chi_factor, factorize, legendre_pow, liouville_factor,
                     simple_primes)


class TestJacobi:
    def test_known_values(self):
        assert ntcore.jacobi(1, 163) == 1
        assert ntcore.jacobi(2, 11) == -1
        assert ntcore.jacobi(22, 11) == 0
        assert ntcore.jacobi(41, 163) == 1

    def test_even_or_nonpositive_modulus_rejected(self):
        with pytest.raises(errors.DomainError):
            ntcore.jacobi(3, 10)
        with pytest.raises(errors.DomainError):
            ntcore.jacobi(3, -7)
        with pytest.raises(errors.DomainError):
            ntcore.jacobi(3, 0)

    def test_matches_euler_criterion_at_primes(self):
        for p in simple_primes(200):
            if p == 2:
                continue
            for n in range(0, 2 * p):
                assert ntcore.jacobi(n, p) == legendre_pow(n, p), (n, p)

    @given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
           st.integers(0, 99))
    def test_completely_multiplicative(self, n1, n2, mi):
        m = 2 * mi + 1
        assert (ntcore.jacobi(n1 * n2, m)
                == ntcore.jacobi(n1, m) * ntcore.jacobi(n2, m))

    @given(st.integers(-10 ** 9, 10 ** 9), st.integers(1, 200))
    def test_periodic(self, n, mi):
        m = 2 * mi + 1
        assert ntcore.jacobi(n + m, m) == ntcore.jacobi(n, m)


class TestIsPrime:
    def test_matches_sieve_below_10000(self):
        primes = set(simple_primes(10_000))
        for n in range(10_000 + 1):
            assert ntcore.is_prime(n) == (n in primes), n

    def test_large_composite(self):
        assert ntcore.is_prime(72185376951205) is False

    def test_large_prime(self):
        assert ntcore.is_prime((1 << 61) - 1) is True

    def test_strong_pseudoprime_to_small_bases(self):
        # 3215031751 fools bases 2, 3, 5, 7 simultaneously
        assert ntcore.is_prime(3215031751) is False

    def test_beyond_64_bits_rejected(self):
        with pytest.raises(errors.DomainError):
            ntcore.is_prime(1 << 64)


class TestPrimesInRange:
    def test_residue_class_example(self):
        got = ntcore.primes_in_range(2, 30, residue=3, modulus=8)
        assert got.tolist() == [3, 11, 19]

    def test_inverted_range_is_empty(self):
        assert ntcore.primes_in_range(5, 3).size == 0

    def test_matches_sieve_on_segment(self):
        lo, hi = 100_000, 110_000
        want = [p for p in simple_primes(hi) if p >= lo]
        assert ntcore.primes_in_range(lo, hi).tolist() == want

    def test_small_full_range(self):
        assert ntcore.primes_in_range(2, 30).tolist() == \
            [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_residue_without_modulus_rejected(self):
        with pytest.raises(errors.DomainError):
            ntcore.primes_in_range(2, 10, residue=1, modulus=None)
        with pytest.raises(errors.DomainError):
            ntcore.primes_in_range(2, 10, residue=9, modulus=8)

    def test_spans_block_boundary(self):
        lo = ntcore.BLOCK - 50
        hi = ntcore.BLOCK + 50
        want = [p for p in simple_primes(hi) if p >= lo]
        assert ntcore.primes_in_range(lo, hi).tolist() == want

    @pytest.mark.parametrize("block", [1, 2, 7, 64])
    def test_matches_trial_division_at_every_block(self, monkeypatch, block):
        # primes_in_range reads BLOCK when called, its recursive base-prime
        # call included; the ends cover the recursion's base (hi <= 3, no
        # base primes), hi around p*p for each base prime p <= 13, and
        # windows that end one short of, at and one past a segment edge
        monkeypatch.setattr(ntcore, "BLOCK", block)
        prime = [n >= 2 and factorize(n) == [n] for n in range(200)]
        ends = {(lo, hi) for lo in (-1, 0, 1, 2, 3) for hi in (-1, 0, 1, 2, 3)}
        for p in (2, 3, 5, 7, 11, 13):
            for hi in (p * p - 1, p * p, p * p + 1):
                ends |= {(lo, hi) for lo in (0, 2, 3, p, hi - 1, hi)}
        for lo in (2, 5, 30):
            ends |= {(lo, lo + k * block + d) for k in (1, 2) for d in (-2, -1, 0)}
        for lo, hi in sorted(ends):
            for cls in (None, (3, 8), (7, 8), (3, 4)):
                kw = {} if cls is None else dict(residue=cls[0], modulus=cls[1])
                want = [n for n in range(max(lo, 0), hi + 1) if prime[n]
                        and (cls is None or n % cls[1] == cls[0])]
                got = ntcore.primes_in_range(lo, hi, **kw)
                assert got.dtype == np.int64
                assert got.tolist() == want, (lo, hi, cls)


class TestLiouville:
    def test_first_seventeen(self):
        table = ntcore.liouville_sieve(17)
        want = [1, -1, -1, 1, -1, 1, -1, -1, 1, 1, -1, -1, -1, 1, 1, 1, -1]
        assert [table[n] for n in range(1, 18)] == want

    def test_zero_entry_and_bounds(self):
        table = ntcore.liouville_sieve(10)
        assert table.values[0] == 0
        with pytest.raises(errors.DomainError):
            table[0]
        with pytest.raises(errors.DomainError):
            table[11]

    def test_against_factorization(self):
        table = ntcore.liouville_sieve(3000)
        for n in range(1, 3001):
            assert table[n] == liouville_factor(n), n

    def test_multiplicative_at_random_points(self):
        import random
        rng = random.Random(17)
        table = ntcore.liouville_sieve(10 ** 6)
        for _ in range(200):
            n = rng.randint(1, 10 ** 6)
            assert table[n] == liouville_factor(n), n

    @pytest.mark.parametrize("block", [7, 64])
    def test_prime_windows_tile_the_range(self, monkeypatch, block):
        # the sieve reads its primes one BLOCK window at a time; small
        # windows put many edges below n_max, and the last window is
        # partial, one entry long (n_max = 2 + 7*block) or just short of it
        monkeypatch.setattr(ntcore, "BLOCK", block)
        lam = [0] + [liouville_factor(n) for n in range(1, 1001)]
        chi = [chi_factor(n, 35) for n in range(1001)]
        ch = ntcore.quad_char(35)
        for n_max in (1, 2, 3, 1 + 7 * block, 2 + 7 * block, 1000):
            assert ntcore.liouville_sieve(n_max).values.tolist() == lam[:n_max + 1]
            assert ntcore._chi_multiplicative(ch, n_max).tolist() == chi[:n_max + 1]

    def test_no_prime_list_outlives_its_call(self):
        # a fresh interpreter, so what earlier tests sieved cannot hide a
        # cache: a module-wide list of the primes up to 2**20 alone would
        # keep 0.63 MiB after its results are dropped
        script = ("import gc, tracemalloc\n"
                  "from charpos import ntcore\n"
                  "tracemalloc.start()\n"
                  "start = tracemalloc.get_traced_memory()[0]\n"
                  "ntcore.liouville_sieve(2 ** 20)\n"
                  "ntcore.quad_char(10_000_019 * 10_000_121)\n"
                  "ntcore.primes_in_range(2, 2 ** 20)\n"
                  "gc.collect()\n"
                  "print(tracemalloc.get_traced_memory()[0] - start)\n")
        src = str(Path(ntcore.__file__).parents[1])
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) <= 64 << 10

    def test_working_memory_is_the_table_and_one_window(self):
        # the 4 MiB table plus one window of primes as Python ints; flags
        # for every entry and a list of every prime up to n_max read 17.6
        # MiB
        tracemalloc.start()
        try:
            ntcore.liouville_sieve(2 ** 22)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 << 20


class TestQuadChar:
    def test_rejects_bad_moduli(self):
        for bad in (3, 1, 0, -7, 5, 9, 13, 21, 27, 75, 99):
            with pytest.raises(errors.InvalidModulus):
                ntcore.quad_char(bad)

    def test_accepts_primes_and_squarefree_composites(self):
        for q in (7, 11, 15, 19, 23, 35, 51, 91, 163):
            ch = ntcore.quad_char(q)
            assert ch.q == q
            assert math.prod(ch.factors) == q

    def test_chi_163_first_values(self):
        ch = ntcore.quad_char(163)
        got = [ch(n) for n in range(1, 10)]
        assert got == [1, -1, -1, 1, -1, 1, -1, -1, 1]

    def test_chi_is_odd(self):
        for q in (7, 11, 35, 163):
            ch = ntcore.quad_char(q)
            for n in range(1, q):
                assert ch(q - n) == -ch(n), (q, n)

    def test_assume_prime_skips_factoring_only(self):
        ch = ntcore.quad_char(1019, assume_prime=True)
        assert ch.factors == (1019,)

    def test_unfactorable_composite_fails_fast(self, monkeypatch):
        # Two primes above the trial division limit: nothing divides out,
        # and the cofactor is neither prime nor below the limit squared.
        # Without the limit this would sieve primes up to 10**9 first.
        real = ntcore.primes_in_range

        def bounded(lo, hi, **kw):
            assert hi <= ntcore._TRIAL_LIMIT, hi
            return real(lo, hi, **kw)

        monkeypatch.setattr(ntcore, "primes_in_range", bounded)
        q = 1_000_000_007 * 1_000_000_009
        assert q % 4 == 3 and q > 10**18
        with pytest.raises(errors.InvalidModulus,
                           match=f"limit {ntcore._TRIAL_LIMIT}"):
            ntcore.quad_char(q)
        # a prime cofactor above the limit squared is still accepted, and
        # so are factors below the limit
        p = next(p for p in range(10**17 + 1, 10**17 + 10**4, 4)
                 if ntcore.is_prime(p))
        assert p > ntcore._TRIAL_LIMIT ** 2
        assert ntcore.quad_char(3 * p).factors == (3, p)
        assert ntcore.quad_char(10_000_019 * 10_000_121).factors == (
            10_000_019, 10_000_121)
        assert ntcore.quad_char(10**18 + 3).factors == (10**18 + 3,)


def loop_factors(q):
    """quad_char's trial division as a plain loop over the same primes,
    stopping once p*p passes the cofactor: the factors, or the message of
    the InvalidModulus it raises."""
    m, factors = q, []
    for p in ntcore.primes_in_range(2, min(math.isqrt(q), ntcore._TRIAL_LIMIT)).tolist():
        if p * p > m:
            break
        if m % p == 0:
            m //= p
            if m % p == 0:
                return f"{q} is not squarefree (divisible by {p}**2)"
            factors.append(p)
    if m > ntcore._TRIAL_LIMIT ** 2 and not ntcore.is_prime(m):
        return (f"cannot factor {q}: cofactor {m} has no prime factor up to "
                f"the trial division limit {ntcore._TRIAL_LIMIT}")
    return tuple(factors) + ((m,) if m > 1 else ())


def quad_char_factors(q):
    try:
        return ntcore.quad_char(q).factors
    except errors.InvalidModulus as exc:
        return str(exc)


class TestTrialDivision:
    """One vectorised remainder finds the same factors and rejects the
    same moduli, with the same messages, as the loop it replaced."""

    def test_matches_loop_on_every_small_modulus(self):
        for q in range(7, 20_000, 4):
            if not ntcore.is_prime(q):
                assert quad_char_factors(q) == loop_factors(q), q

    @pytest.mark.parametrize("q", [
        100001400002299,                 # 10000019 * 10000121
        16777213 * 16777259,             # a factor just below 2**24
        3 * 10007**2,                    # not squarefree
        7 * 11**2 * 13**2,               # the least square prime is named
        255255, 999919,
        16777213 * 549755912239,         # in [2**63, 2**64)
        9223372036854775811,             # 2**63 + 3, small factors
        9 * 1024819115206086203,         # >= 2**63, not squarefree
        3100000027 * 3100000061,         # >= 2**63, no factor below 2**24
        1_000_000_007 * 1_000_000_009,
    ])
    def test_matches_loop_on_large_composites(self, q):
        assert q % 4 == 3 and not ntcore.is_prime(q)
        assert quad_char_factors(q) == loop_factors(q)


class TestChiSieve:
    @pytest.mark.parametrize("q", [11, 19, 35, 15, 163, 91])
    def test_matches_jacobi(self, monkeypatch, q):
        # the gate as shipped and at the largest prime factor m scatter
        # every period; one below m, every span the gate allows (n_max <
        # m - 1) goes to the multiplicative sieve
        ch = ntcore.quad_char(q)
        m = max(ch.factors)
        sieved = []
        real = ntcore._chi_multiplicative
        monkeypatch.setattr(ntcore, "_chi_multiplicative",
                            lambda ch, n: sieved.append(n) or real(ch, n))
        for limit in (ntcore._TABLE_MAX, m, m - 1):
            monkeypatch.setattr(ntcore, "_TABLE_MAX", limit)
            spans = sorted(n for n in {0, m // 2, m - 2, m - 1, q // 2, q - 1,
                                       q, 2 * q + 3, 3 * q} if n < limit)
            sieved.clear()
            for n_max in spans:
                vals = ntcore.chi_values(ch, n_max)
                assert vals.dtype == np.int8 and len(vals) == n_max + 1
                want = [ntcore.jacobi(n, q) for n in range(n_max + 1)]
                assert vals.tolist() == want, (q, limit, n_max)
            assert sieved == ([] if limit >= m else spans), limit

    def test_negative_range_rejected(self):
        with pytest.raises(errors.DomainError):
            ntcore.chi_values(ntcore.quad_char(11), -1)

    def test_matches_factor_oracle_for_composite(self):
        ch = ntcore.quad_char(35)
        vals = ntcore.chi_values(ch, 200)
        for n in range(201):
            assert vals[n] == chi_factor(n, 35), n

    def test_blocks_tile_exactly(self):
        ch = ntcore.quad_char(163)
        whole = ntcore.chi_values(ch, 1000)
        lo_seen = 0
        parts = []
        for lo, arr in ntcore.chi_sieve(ch, 1000, block=7):
            assert lo == lo_seen
            lo_seen += len(arr)
            parts.append(arr)
        assert lo_seen == 1001
        assert np.array_equal(np.concatenate(parts), whole)
        # every slab is a view of one table, not a fresh array
        assert parts[0].base is not None
        assert all(arr.base is parts[0].base for arr in parts)

    def test_multiplicative_fallback_agrees(self):
        for q in (163, 35, 1019):
            ch = ntcore.quad_char(q)
            slow = ntcore._chi_multiplicative(ch, 500)
            assert np.array_equal(slow, ntcore.chi_values(ch, 500)), q


class Built(Exception):
    """Raised by a stub table builder in place of its table."""


def stub_builders(monkeypatch):
    """Replace both chi table builders by stubs that record (builder,
    entries) and raise Built; returns the record."""
    built = []

    def qr_period(p):
        built.append(("_qr_period", p))
        raise Built

    def multiplicative(ch, n_max):
        built.append(("_chi_multiplicative", n_max + 1))
        raise Built

    monkeypatch.setattr(ntcore, "_qr_period", qr_period)
    monkeypatch.setattr(ntcore, "_chi_multiplicative", multiplicative)
    return built


class TestTableGate:
    def test_limit_keeps_a_billion_and_the_uint32_sums(self, monkeypatch):
        assert 10**9 + 7 <= ntcore._TABLE_MAX < 1 << 31
        built = stub_builders(monkeypatch)
        ch = ntcore.quad_char(10**9 + 7)
        # fq's full period and a scan's half range, both scattered
        for n_max in (ch.q - 1, ch.q // 2):
            with pytest.raises(Built):
                ntcore.chi_values(ch, n_max)
        assert built == [("_qr_period", ch.q)] * 2

    def test_class_number_scatters_past_two_to_the_27(self, monkeypatch):
        q = 134217779  # the least prime q = 3 (mod 8) above 2**27
        built = stub_builders(monkeypatch)
        with pytest.raises(Built):
            charsum._class_number_cached.__wrapped__(q)
        assert built == [("_qr_period", q)]

    def test_period_far_past_the_range_is_sieved(self, monkeypatch):
        # q = 2**21 + 59: a prime period above 2*(n_max + 1) and 2**21 is
        # not built for a range that short
        built = stub_builders(monkeypatch)
        ch = ntcore.quad_char(2097211)
        half = ch.q // 2
        for n_max in (0, 1 << 20, half - 1, half, ch.q - 1):
            with pytest.raises(Built):
                ntcore.chi_values(ch, n_max)
        assert built == [("_chi_multiplicative", 1),
                         ("_chi_multiplicative", (1 << 20) + 1),
                         ("_chi_multiplicative", half),
                         ("_qr_period", ch.q), ("_qr_period", ch.q)]

    def test_long_ranges_are_never_sieved(self, monkeypatch):
        # q = 33554467, the least prime = 3 (mod 4) above 2**25 + 2: a range
        # of _SIEVE_MAX entries is sieved, one entry more scatters the
        # period; at 2**31 - 1 the period is past the gate, so a longer
        # range is refused (class_number asks for 2**30 entries there)
        built = stub_builders(monkeypatch)
        limit = ntcore._SIEVE_MAX
        for q in (33554467, 2 ** 31 - 1):
            ch = ntcore.quad_char(q)
            with pytest.raises(Built):
                ntcore.chi_values(ch, limit - 1)
        with pytest.raises(Built):
            ntcore.chi_values(ntcore.quad_char(33554467), limit)
        for n_max in (limit, 2 ** 30 - 1):
            with pytest.raises(errors.DomainError,
                               match=f"sieve of {n_max + 1} entries, above "
                                     f"the limit of {limit}"):
                ntcore.chi_values(ntcore.quad_char(2 ** 31 - 1), n_max)
        assert built == [("_chi_multiplicative", limit)] * 2 + [
            ("_qr_period", 33554467)]

    def test_w_bound_fits_int64(self):
        # every W read off a table is at most 2*_TABLE_MAX**2 in magnitude
        # (charsum._block_moments), so it fits int64 with room to spare
        assert 2 * ntcore._TABLE_MAX ** 2 < 2 ** 62

    def test_rejects_before_allocating(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated")

        for name in ("_qr_period", "_chi_multiplicative"):
            monkeypatch.setattr(ntcore, name, refuse)
        monkeypatch.setattr(ntcore, "_TABLE_MAX", 1000)
        # a tiled composite and a prime past its period
        for q, n_max in ((35, 1000), (11, 1000)):
            with pytest.raises(errors.DomainError,
                               match="would have 1001 entries, above "
                                     "the limit of 1000"):
                ntcore.chi_values(ntcore.quad_char(q), n_max)
        # a scan's range is sized by the same gate, before any prime sieve,
        # and so is the Liouville table
        with pytest.raises(errors.DomainError, match="would have 1019 entries"):
            verify.scan_positivity(1019, 1019)
        with pytest.raises(errors.DomainError,
                           match="Liouville table through n=1000 would have "
                                 "1001 entries, above the limit of 1000"):
            ntcore.liouville_sieve(1000)

    def test_size_is_the_table_built(self, monkeypatch):
        # a prime modulus past the gate is sieved over n_max + 1 entries
        # only, and a gate at its own size lets it through
        monkeypatch.setattr(ntcore, "_TABLE_MAX", 1019)
        ch = ntcore.quad_char(1019)
        assert len(ntcore.chi_values(ch, 1018)) == 1019
        monkeypatch.setattr(ntcore, "_TABLE_MAX", 60)
        vals = ntcore.chi_values(ch, 59)
        assert vals.tolist() == [ntcore.jacobi(n, 1019) for n in range(60)]
        with pytest.raises(errors.DomainError):
            ntcore.chi_values(ch, 60)


class TestQrPeriod:
    @pytest.mark.parametrize("chunk", [None, 7])
    def test_descending_and_mixed_primes_match_jacobi(self, monkeypatch, chunk):
        big = int(ntcore.primes_in_range(999_900, 10**6)[-1])
        primes = [big, 20011, 2647, 163, 11, 7, 3, 1019, 4003]
        if chunk is not None:
            # many short passes with a short last one, at the small primes
            monkeypatch.setattr(ntcore, "_QR_CHUNK", chunk)
            primes = [p for p in primes if p != big]
        for p in primes:
            if p < 30000:
                idx = range(p)
            else:
                idx = [*range(3000), *range(3000, p - 3000, 97),
                       *range(p - 3000, p)]
            t = ntcore._qr_period(p)
            assert t.dtype == np.int8 and len(t) == p, p
            assert [int(t[n]) for n in idx] == [ntcore.jacobi(n, p) for n in idx], p
            ones = int(np.count_nonzero(t == 1))
            assert (t[0], ones, int(np.count_nonzero(t == -1))) == (
                0, (p - 1) // 2, (p - 1) // 2), p

    # 43 and 65537 have half ranges of exact multiples of 7 and of the
    # default chunk; 3, 7 and 11 have half ranges shorter than 7 and than
    # the default chunk
    @pytest.mark.parametrize("chunk", [1, 2, 7, None])
    @pytest.mark.parametrize("p", [3, 7, 11, 43, 163, 2971, 32771, 65537])
    def test_recurrence_matches_jacobi(self, monkeypatch, chunk, p):
        if chunk is not None:
            monkeypatch.setattr(ntcore, "_QR_CHUNK", chunk)
        want = [ntcore.jacobi(n, p) for n in range(p)]
        t = ntcore._qr_period(p)
        assert t.dtype == np.int8 and t.tolist() == want

    @pytest.mark.parametrize("chunk", [7, None])
    def test_recurrence_near_a_million(self, monkeypatch, chunk):
        # many passes, the last one short; residues past 2**16 and sums of
        # two residues near 2p
        p = int(ntcore.primes_in_range(999_000, 10**6)[-1])
        if chunk is not None:
            monkeypatch.setattr(ntcore, "_QR_CHUNK", chunk)
        t = ntcore._qr_period(p)
        rng = np.random.default_rng(19)
        idx = [*range(1, 2000), *rng.integers(1, p, 3000).tolist(),
               *range(p - 2000, p)]
        assert [int(t[n]) for n in idx] == [ntcore.jacobi(n, p) for n in idx]
        assert int(t.sum(dtype=np.int64)) == 0

    def test_scatter_indexes_with_intp(self, monkeypatch):
        # a uint32 index would be converted by numpy on every pass
        keys = []

        class Recording(np.ndarray):
            def __setitem__(self, key, value):
                keys.append(key)
                super().__setitem__(key, value)

        class RecordingNumpy:
            """numpy as ntcore sees it, with the table it fills recording
            every key it is indexed with."""

            def __getattr__(self, name):
                return getattr(np, name)

            def full(self, *args, **kwargs):
                return np.full(*args, **kwargs).view(Recording)

        monkeypatch.setattr(ntcore, "np", RecordingNumpy())
        t = ntcore._qr_period(70001)
        arrays = [k for k in keys if isinstance(k, np.ndarray)]
        assert len(arrays) == -(-35000 // ntcore._QR_CHUNK)
        assert all(k.dtype == np.intp for k in arrays)
        assert t.tolist() == [ntcore.jacobi(n, 70001) for n in range(70001)]


def machin_pi(digits):
    """Rational (lo, hi) with lo < pi < hi and hi - lo < 10**-digits.

    pi = 16 atan(1/5) - 4 atan(1/239), each arctangent summed in integers
    scaled by 10**(digits + 10).  Every floor division loses less than one
    unit and the dropped alternating tail is under one unit, so a sum of
    t terms is off by at most t + 1 units.
    """
    one = 10 ** (digits + 10)

    def atan_inv(x):
        total, power, n, sign = 0, one // x, 1, 1
        while power:
            total += sign * (power // n)
            power //= x * x
            n += 2
            sign = -sign
        return total, (n - 1) // 2 + 1

    a5, t5 = atan_inv(5)
    a239, t239 = atan_inv(239)
    err = 16 * t5 + 4 * t239
    mid = 16 * a5 - 4 * a239
    return Fraction(mid - err, one), Fraction(mid + err, one)


class TestPiBounds:
    def test_pi_bracket(self):
        assert float(ntcore.PI_LO) <= math.pi <= float(ntcore.PI_HI)
        assert ntcore.PI_HI - ntcore.PI_LO == Fraction(1, 10 ** 37)

    def test_pi_bracket_against_machin(self):
        lo, hi = machin_pi(60)
        assert hi - lo < Fraction(1, 10 ** 60)
        assert ntcore.PI_LO < lo and hi < ntcore.PI_HI
        assert ntcore.PI4_LO < lo ** 4 and hi ** 4 < ntcore.PI4_HI

    def test_pi4_decisions(self):
        assert ntcore.pi4_times_at_least(Fraction(1), Fraction(97)) is True
        assert ntcore.pi4_times_at_least(Fraction(1), Fraction(98)) is False
        assert ntcore.pi4_times_at_least(Fraction(0), Fraction(0)) is True

    def test_gap_raises(self):
        target = (ntcore.PI4_LO + ntcore.PI4_HI) / 2
        with pytest.raises(errors.ExactnessError):
            ntcore.pi4_times_at_least(Fraction(1), target)
        with pytest.raises(errors.DomainError):
            ntcore.pi4_times_at_least(Fraction(-1), Fraction(1))
