import functools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from charpos import charsum, check, cli, errors, fq, liouville, ntcore, verify
from oracles import form_count, margin_min, margins

SQUAREFREE_3MOD4 = [q for q in range(7, 600, 4)
                    if all(q % (p * p) for p in range(2, 25))]


def direct_sums(q, upto):
    a = b = 0
    for n in range(1, upto + 1):
        v = ntcore.jacobi(n, q)
        a += v
        b += n * v
    return a, b


def slab_sums(q, upto):
    """(A(upto), B(upto)) summed plainly over chi_sieve's slabs."""
    a = b = 0
    for lo, arr in ntcore.chi_sieve(ntcore.quad_char(q), upto):
        a += int(arr.sum(dtype=np.int64))
        b += int(np.dot(np.arange(lo, lo + len(arr)), arr))
    return a, b


class TestPrefixSums:
    @pytest.mark.parametrize("q", [11, 19, 35, 163, 2015])
    def test_matches_direct(self, q):
        # upto = k*q + r on both sides of the period edges, k = 0, 1, 2, 5
        for upto in (0, 1, 7, q // 2, q - 1, q, q + 1, 2 * q + 3, 5 * q + q // 3):
            ps = charsum.prefix_sums(q, upto)
            a, b = direct_sums(q, upto)
            assert (ps.plain, ps.linear) == (a, b), (q, upto)

    @pytest.mark.parametrize("q", [999983, 999995])
    def test_matches_slab_sums_near_a_million(self, q):
        for upto in (q // 3, q - 1, q, q + 1, 3 * q + 12345):
            ps = charsum.prefix_sums(q, upto)
            assert (ps.plain, ps.linear) == slab_sums(q, upto), (q, upto)

    def test_serves_every_upto_where_the_gate_admits_one_period(self, monkeypatch):
        # one period of q entries serves any upto, so a q just under the
        # table limit is not refused for a range past its period
        monkeypatch.setattr(ntcore, "_TABLE_MAX", 1 << 12)
        q = 4091
        for upto in (q - 1, q, 3 * q + 5):
            ps = charsum.prefix_sums(q, upto)
            assert (ps.plain, ps.linear) == direct_sums(q, upto), upto

    def test_no_src_path_calls_chi_sieve(self, monkeypatch):
        def stub(*args, **kwargs):
            raise AssertionError("chi_sieve called")

        for mod in (charsum, cli, fq, liouville, ntcore, verify):
            for name in [n for n, v in vars(mod).items() if v is ntcore.chi_sieve]:
                monkeypatch.setattr(mod, name, stub)
        charsum.prefix_sums(11, 10**6)
        charsum.prefix_sums(35, 34)
        charsum.weighted_prefix_sum(163, Fraction(900, 7))
        charsum.rational_margin(163, Fraction(7, 163))
        fq.fq_exact(163, Fraction(1, 4))
        charsum.t_stat(1031)
        assert cli.main(["tq", "--count", "3"]) == 0

    def test_negative_upto_rejected(self):
        with pytest.raises(errors.DomainError):
            charsum.prefix_sums(11, -1)

    def test_long_range_streams_in_bounded_memory(self):
        # M_0(q) = 0, so 10**7 whole periods sum to (0, 10**7 * B(q - 1));
        # one period of 11 entries serves them, where streaming slabs of a
        # table of q + 2**20 entries peaked at 17 MB
        tracemalloc.start()
        try:
            ps = charsum.prefix_sums(11, 11 * 10**7 - 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (ps.plain, ps.linear) == (0, 10**7 * charsum.prefix_sums(11, 10).linear)
        assert peak < 2**16, peak

    @given(st.sampled_from([11, 19, 43, 163]), st.integers(1, 400))
    def test_advance_by_one_step(self, q, n):
        prev = charsum.prefix_sums(q, n - 1)
        cur = charsum.prefix_sums(q, n)
        v = ntcore.jacobi(n, q)
        assert cur.plain - prev.plain == v
        assert cur.linear - prev.linear == n * v


class TestClassNumber:
    @pytest.mark.parametrize("q,h", [
        (7, 1), (11, 1), (19, 1), (23, 3), (43, 1), (67, 1), (163, 1),
        (2647, 15), (15, 2), (35, 2), (51, 2), (91, 2), (115, 2),
    ])
    def test_known_values(self, q, h):
        cn = charsum.class_number(q)
        assert cn.h == h

    def test_form_oracle_small_range(self):
        for q in SQUAREFREE_3MOD4:
            assert charsum.class_number(q).h == form_count(q), q

    def test_invariants_q11(self):
        cn = charsum.class_number(11)
        assert (cn.a_half, cn.b_half) == (3, 11)
        assert cn.q * cn.a_half - 2 * cn.b_half == cn.q * cn.h
        assert (2 - ntcore.jacobi(2, 11)) * cn.h == cn.a_half

    def test_chi2_relation_everywhere(self):
        for q in SQUAREFREE_3MOD4[:40]:
            cn = charsum.class_number(q)
            assert (2 - ntcore.jacobi(2, q)) * cn.h == cn.a_half, q

    def test_prime_class_numbers_are_odd(self):
        for q in SQUAREFREE_3MOD4:
            if ntcore.is_prime(q):
                assert charsum.class_number(q).h % 2 == 1, q

    def test_half_range_sums_match_direct_sums(self):
        for q in SQUAREFREE_3MOD4:
            cn = charsum.class_number(q)
            assert (cn.a_half, cn.b_half) == direct_sums(q, (q - 1) // 2), q

    def test_peak_memory_near_a_million(self):
        # the int8 chi table and the int64 prefix array A over the half
        # range, about 4.9 MiB
        tracemalloc.start()
        try:
            cn = charsum._class_number_cached.__wrapped__(ntcore.quad_char(999983))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cn == charsum.class_number(999983)
        assert peak <= 6 * 2**20, peak / 2**20

    def test_peak_memory_near_ten_million(self):
        # the int8 period of q bytes, about 9.5 MiB, and a few arrays of one
        # entry per block: no (q-1)/2 int64 squares and no int64 prefix sums
        tracemalloc.start()
        try:
            cn = charsum._class_number_cached.__wrapped__(ntcore.quad_char(9999991))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cn.h == check._reduced_form_count(9999991) == 1715
        assert (cn.a_half, cn.b_half) == (1715, 0)
        assert peak <= 12 * 2**20, peak / 2**20

    def test_accepts_char_argument(self):
        ch = ntcore.quad_char(163)
        assert charsum.class_number(ch).h == 1

    def test_invalid_modulus_propagates(self):
        with pytest.raises(errors.InvalidModulus):
            charsum.class_number(3)


class TestMargins:
    def test_w_163_prefix(self):
        h, w = charsum.margin_values(163, 10)
        assert h == 1
        assert list(w[:11]) == [0, 1, 1, 2, 4, 5, 7, 8, 10, 13, 15]

    def test_w_163_at_41(self):
        _, w = charsum.margin_values(163, 41)
        assert int(w[41]) == 117

    @pytest.mark.parametrize("q,want", [
        (11, [1, 1, 2, 2, 1]),
        (19, [1, 1, 2, 4, 5, 5, 4, 2, 1]),
        (7, [1, 1, 0]),
        (23, [3, 5, 6, 6, 5, 5, 4, 4, 3, 1, 0]),
    ])
    def test_half_range_tables(self, q, want):
        h, w = charsum.margin_values(q, (q - 1) // 2)
        assert list(w[1:]) == want

    def test_matches_definition(self):
        q = 43
        h, w = charsum.margin_values(q, 21)
        a_run = b_run = 0
        for a in range(1, 22):
            v = ntcore.jacobi(a, q)
            a_run += v
            b_run += a * v
            assert int(w[a]) == a * (h - a_run) + b_run, a

    def test_profile_163(self):
        prof = charsum.margin_profile(163)
        assert prof == charsum.MarginProfile(163, 1, 81, 1, 1)

    def test_profile_19(self):
        prof = charsum.margin_profile(19)
        assert (prof.min_w, prof.argmin_a) == (1, 1)

    def test_quarter_margin_2647(self):
        prof = charsum.quarter_margin(ntcore.quad_char(2647))
        assert (prof.min_w, prof.argmin_a) == (15, 1)
        assert prof.a_max == 2647 // 4

    def test_beyond_quarter_2647_goes_negative(self):
        prof = charsum.margin_profile(2647)
        assert (prof.min_w, prof.argmin_a) == (-171, 1185)

    def test_a_max_zero_rejected(self):
        with pytest.raises(errors.DomainError):
            charsum.margin_values(163, 0)

    def test_peak_memory_near_a_million(self):
        # the chi table, A and W over the half range, about 7.6 MiB; the
        # steps h - A are summed in place inside W
        tracemalloc.start()
        try:
            h, w = charsum.margin_values(991027, 247756)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (h, int(w[1])) == (charsum.class_number(991027).h, h)
        assert peak <= 9 * 2**20, peak / 2**20


    @pytest.mark.parametrize("q,a_max,mib", [(999983, 499991, 6),
                                             (994067, 10, 2)])
    def test_forms_w_only_up_to_a_max(self, q, a_max, mib):
        # the chi period of q bytes, a few block sums and W over 0..a_max:
        # 4.8 MiB and 1.3 MiB; W or A over the whole half range would add
        # 3.8 MiB each
        tracemalloc.start()
        try:
            h, w = charsum.margin_values(q, a_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(w) == a_max + 1 and int(w[1]) == h
        assert peak <= mib * 2**20, peak / 2**20


PRIMES_3_MOD_8 = [q for q in SQUAREFREE_3MOD4 if q % 8 == 3 and ntcore.is_prime(q)]
PRIMES_7_MOD_8 = [q for q in SQUAREFREE_3MOD4 if q % 8 == 7 and ntcore.is_prime(q)]
COMPOSITES = [q for q in SQUAREFREE_3MOD4 if not ntcore.is_prime(q)]


def fresh_margin_min(q, a_max):
    return charsum._margin_min(ntcore.quad_char(q), a_max)


class TestMarginKernel:
    @given(st.one_of(st.sampled_from(PRIMES_3_MOD_8), st.sampled_from(PRIMES_7_MOD_8),
                     st.sampled_from(COMPOSITES)),
           st.data())
    def test_matches_plain_oracle(self, q, data):
        a_max = data.draw(st.integers(1, (q - 1) // 2))
        assert fresh_margin_min(q, a_max) == margin_min(q, a_max)

    @pytest.mark.parametrize("q", [7, 15, 23, 35, 2647, 4003])
    def test_full_half_range_matches_oracle(self, q):
        assert fresh_margin_min(q, (q - 1) // 2) == margin_min(q, (q - 1) // 2)

    def test_mixed_moduli_match_oracle(self):
        for q in (20011, 163, 2647, 35, 11, 4003, 7):
            for a_max in (1, q // 4, (q - 1) // 2):
                assert fresh_margin_min(q, a_max) == margin_min(q, a_max), (q, a_max)

    @pytest.mark.parametrize("a_max", [0, 82])
    def test_a_max_outside_half_range_rejected(self, a_max):
        with pytest.raises(errors.DomainError):
            fresh_margin_min(163, a_max)


SQUAREFREE_3MOD4_1500 = [q for q in range(7, 1500, 4)
                         if all(q % (p * p) for p in range(2, 39))]
oracle_min = functools.lru_cache(maxsize=None)(margin_min)


def edge_a_maxes(q):
    half = (q - 1) // 2
    return sorted({a for a in (1, 2, 3, q // 4, half) if 1 <= a <= half})


class TestBlockedMarginMin:
    """_margin_min reads W only in blocks whose exact lower bound reaches
    the least block start; small blocks put block edges everywhere."""

    @pytest.mark.parametrize("block", [1, 2, 3, 7, 64])
    def test_matches_plain_oracle_at_small_blocks(self, monkeypatch, block):
        monkeypatch.setattr(charsum, "_MIN_BLOCK", block)
        for q in SQUAREFREE_3MOD4_1500:
            for a_max in edge_a_maxes(q):
                assert fresh_margin_min(q, a_max) == oracle_min(q, a_max), (q, a_max)
            assert charsum.class_number(q) == charsum._class_number_cached.__wrapped__(
                ntcore.quad_char(q))

    @pytest.mark.parametrize("lo, hi", [(7, 4000), (32000, 32800)])
    def test_short_half_ranges_at_the_default_block(self, lo, hi):
        # half ranges of fewer than 64 blocks, down to less than one, and
        # either side of 64 blocks (q = 32769), cut into rows like any other
        for q in range(lo + (3 - lo) % 4, hi, 4):
            if any(q % (p * p) == 0 for p in range(3, math.isqrt(q) + 1, 2)):
                continue
            half = (q - 1) // 2
            h, min_w, argmin_a = margin_min(q, half)
            assert charsum.margin_profile(q) == charsum.MarginProfile(
                q, h, half, min_w, argmin_a), q
            assert charsum.class_number(q).h == form_count(q) == h, q

    # W has one path, int64; "object_path" keeps one value here and in
    # TestWalk and TestMarginValuesAgainstOracle so the case ids stay put
    @pytest.mark.parametrize("object_path", [False])
    def test_block_starts_are_exact_and_bounds_hold(self, monkeypatch,
                                                    object_path):
        block = 7
        monkeypatch.setattr(charsum, "_MIN_BLOCK", block)
        for q in (7, 11, 23, 35, 163, 1019, 2647):
            half = (q - 1) // 2
            h, w = margins(q, half)
            ch = ntcore.quad_char(q)
            chi = ntcore.chi_values(ch, half)
            got_h, a_half, b_half, A, B = charsum._block_moments(ch, chi)
            assert got_h == h
            assert (a_half, b_half) == direct_sums(q, half)
            # the sums at every block edge
            edges = [direct_sums(q, k * block) for k in range(half // block + 1)]
            assert [(int(a), int(b)) for a, b in zip(A, B)] == edges, q
            A, B = (np.array(v, dtype=B.dtype) for v in zip(*edges))
            for a_max in edge_a_maxes(q) + [1 + block, 2 + block]:
                if a_max > half:
                    continue
                starts, spans, bounds = charsum._block_starts(h, A, B, chi,
                                                              a_max)
                assert len(starts) == (a_max - 1) // block + 1
                for k, (start, span, bound) in enumerate(zip(starts, spans,
                                                             bounds)):
                    s = 1 + k * block
                    assert start == w[s] and span == min(block, a_max - s)
                    assert bound <= min(w[s:s + span + 1]), (q, a_max, k)
                assert starts.dtype == bounds.dtype == np.int64

    def test_matches_margin_values_near_a_million(self):
        # at the default block size, where a dozen or more blocks at each
        # end of the range pass the bound and get a local sum
        L = charsum._MIN_BLOCK
        qs = [int(q) for q in ntcore.primes_in_range(991_000, 10**6, residue=3,
                                                     modulus=8)[:10]]
        for q in qs:
            half = (q - 1) // 2
            h, w = charsum.margin_values(q, half)
            for a_max in (1, 2, L, L + 1, 3 * L + 5, q // 4, half - 1, half):
                k = int(np.argmin(w[1:a_max + 1])) + 1
                got = charsum._margin_min(ntcore.quad_char(q), a_max)
                assert got == (h, int(w[k]), k), (q, a_max)

    @pytest.mark.parametrize("q", [255255, 999919])
    def test_composite_profile_matches_margin_values(self, q):
        # 3*5*7*11*13*17 and 991*1009: many blocks, and W goes negative
        L = charsum._MIN_BLOCK
        half = (q - 1) // 2
        h, w = charsum.margin_values(q, half)
        assert h == charsum.class_number(q).h and int(w.min()) < 0
        for a_max in (1, L, L + 1, q // 4, half):
            k = int(np.argmin(w[1:a_max + 1])) + 1
            assert charsum.margin_profile(q, a_max) == charsum.MarginProfile(
                q, h, a_max, int(w[k]), k), a_max

    def test_forms_no_w_over_the_range(self):
        q = int(ntcore.primes_in_range(999_000, 10**6, residue=3, modulus=8)[-1])
        ch = ntcore.quad_char(q)
        tracemalloc.start()
        try:
            got = charsum._margin_min(ch, (q - 1) // 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        h, w = charsum.margin_values(q, (q - 1) // 2)
        k = int(np.argmin(w[1:]))
        assert got == (h, int(w[k + 1]), k + 1) == (h, h, 1)
        # the table of q bytes and less than 1 MiB besides; one int64 W
        # over the half range alone would be 4 MB
        assert peak < q + 2**20, peak

    def test_scan_minimum_is_the_class_number_at_a_1(self):
        # For prime q = 3 (mod 8), W(1) = h and W(half) = h(1 - chi(2))/2 = h,
        # so the first-argmin rule must settle a tie at the two ends; an
        # interior dip below h would be a finding about the inequality.
        qs = ntcore.primes_in_range(11, 2 * 10**4, residue=3, modulus=8)
        for q in map(int, qs):
            prof = charsum.margin_profile(q)
            assert prof.min_w == prof.h == check._reduced_form_count(q), q
            assert prof.argmin_a == 1, q


def corrupt_table(monkeypatch, edit):
    # _margins builds its table through charsum's binding of chi_values
    original = charsum.chi_values

    def corrupted(ch, n):
        table = original(ch, n)
        edit(table)
        return table

    monkeypatch.setattr(charsum, "chi_values", corrupted)


class TestMarginKernelCrossChecks:
    """Corrupting one input of the kernel trips the check class_number runs."""

    def test_flipped_character_value(self, monkeypatch):
        corrupt_table(monkeypatch, lambda t: t.__setitem__(5, -t[5]))
        with pytest.raises(errors.ExactnessError, match="not divisible"):
            fresh_margin_min(163, 81)

    def test_wrong_chi_of_two(self, monkeypatch):
        monkeypatch.setattr(charsum, "jacobi", lambda n, m: 1)
        with pytest.raises(errors.ExactnessError, match="class number formula"):
            fresh_margin_min(163, 81)

    def test_even_class_number_for_prime(self, monkeypatch):
        # chi(1) = 1 zeroed: A(11) drops from 3 to 2 at q = 23, where chi(2) = 1
        corrupt_table(monkeypatch, lambda t: t.__setitem__(1, 0))
        with pytest.raises(errors.ExactnessError, match="even class number"):
            fresh_margin_min(23, 11)

    @pytest.mark.parametrize("q, prime", [(163, True), (35, False)])
    def test_odd_class_number_is_asked_of_prime_characters_only(self, q, prime):
        # A(half) = 6 and B(half) = 2q pass every other check with h = 2
        # (chi(2) = -1 at both q); primality is read off the character's
        # factors, so the prime one is refused and the composite one is not
        ch = ntcore.quad_char(q)
        assert (ch.factors == (q,)) is prime
        if prime:
            with pytest.raises(errors.ExactnessError, match="even class number"):
                charsum._checked_class_number(ch, 6, 2 * q)
        else:
            assert charsum._checked_class_number(ch, 6, 2 * q) == 2

    def test_nonpositive_class_number(self, monkeypatch):
        corrupt_table(monkeypatch, lambda t: t.fill(-1))
        with pytest.raises(errors.ExactnessError, match="nonpositive"):
            fresh_margin_min(23, 11)

    def test_scan_runs_the_checks(self, monkeypatch):
        corrupt_table(monkeypatch, lambda t: t.__setitem__(1, -1))
        with pytest.raises(errors.ExactnessError):
            verify.scan_positivity(5, 2000)

    @pytest.mark.parametrize("path", [
        lambda: charsum.margin_values(163, 81),
        lambda: fq.piecewise_fq(163),
        lambda: fq.identity_check(163),
        lambda: charsum._class_number_cached.__wrapped__(ntcore.quad_char(163)),
    ], ids=["margin_values", "piecewise_fq", "identity_check", "class_number"])
    def test_every_path_checks_chi_of_two(self, monkeypatch, path):
        monkeypatch.setattr(charsum, "jacobi", lambda n, m: 1)
        with pytest.raises(errors.ExactnessError, match="class number formula"):
            path()


oracle_margins = functools.lru_cache(maxsize=None)(margins)


class TestWalk:
    """_w_span and _margins against the running-sum oracle, walked from
    every kind of block edge: spans that start on an edge, just past one,
    just before one, past the half range (where the walk starts at the
    last edge), and spans of no step at all."""

    @pytest.mark.parametrize("object_path", [False])
    @pytest.mark.parametrize("block", [1, 2, 3, 7, None])
    def test_spans_match_oracle(self, monkeypatch, block, object_path):
        if block is not None:
            monkeypatch.setattr(charsum, "_MIN_BLOCK", block)
        L = charsum._MIN_BLOCK
        qs = [7, 11, 35, 91, 163, 1019, 2647] + ([32771] if block is None else [])
        for q in qs:
            ch = ntcore.quad_char(q)
            half = (q - 1) // 2
            h, want = oracle_margins(q, 2 * q)
            chi = ntcore.chi_values(ch, 2 * q)
            got_h, _, _, A, B = charsum._block_moments(ch, chi[:half + 1])
            assert got_h == h
            for lo in sorted({0, 1, L - 1, L, L + 1, half - 1, half}):
                for hi in sorted({lo, lo + 1, lo + L, half, half + 1, q, 2 * q}):
                    if not (1 <= hi <= 2 * q and lo <= hi):
                        continue
                    w = charsum._w_span(h, A, B, chi, lo, hi)
                    assert w.dtype == np.int64
                    assert [int(v) for v in w] == want[lo:hi + 1], (q, lo, hi)
                    got = charsum._margins(ch, lo, hi)
                    assert got[0] == h and np.array_equal(got[1], w), (q, lo, hi)
            # a span of no step from an edge: at L = 1 every a <= half is
            # one
            e = min(half // L, len(A) - 1) * L
            w = charsum._w_span(h, A, B, chi, e, e)
            assert [int(v) for v in w] == [want[e]]


WIDE_MODULI = [11, 163, 1019, 7, 23, 2647, 15, 35, 51, 91]


class TestMarginValuesAgainstOracle:
    """The whole W array, slopes and intercepts, also past the half period."""

    @pytest.mark.parametrize("object_path", [False])
    @pytest.mark.parametrize("q", WIDE_MODULI)
    def test_matches_plain_margins(self, q, object_path):
        h, want = margins(q, 2 * q + 1)
        half = (q - 1) // 2
        for a_max in (1, q // 4, half, half + 1, q - 1, q, 2 * q):
            got_h, w = charsum.margin_values(q, a_max)
            assert w.dtype == np.int64
            assert got_h == h
            assert [int(v) for v in w] == want[:a_max + 1], a_max
            pw = fq.piecewise_fq(q, a_max)
            slopes = [want[a + 1] - want[a] for a in range(a_max + 1)]
            assert [int(v) for v in pw.slopes] == slopes, a_max
            assert [int(v) for v in pw.intercepts] == [
                want[a] - a * slopes[a] for a in range(a_max + 1)], a_max
            assert [int(v) for v in pw.margins] == want[:a_max + 1], a_max


class TestWeightedPrefixSum:
    def test_below_one_is_zero(self):
        assert charsum.weighted_prefix_sum(11, Fraction(1, 2)) == 0
        assert charsum.weighted_prefix_sum(11, Fraction(99, 100)) == 0

    def test_at_one(self):
        assert charsum.weighted_prefix_sum(11, 1) == 0

    def test_frozen_example(self):
        assert charsum.weighted_prefix_sum(11, Fraction(11, 2)) == 1

    def test_nonpositive_rejected(self):
        with pytest.raises(errors.DomainError):
            charsum.weighted_prefix_sum(11, 0)

    @given(st.sampled_from([11, 19, 163]), st.fractions(1, 60))
    def test_matches_direct_formula(self, q, t):
        got = charsum.weighted_prefix_sum(q, t)
        m = math.floor(t)
        a, b = direct_sums(q, m)
        assert got == a - Fraction(b) / t


class TestRationalMargin:
    @pytest.mark.parametrize("q,x,val,flag", [
        (19, Fraction(25, 76), Fraction(19, 25), True),
        (19, Fraction(29, 190), Fraction(19, 29), True),
        (19, Fraction(30, 209), Fraction(19, 30), True),
        (11, Fraction(5, 22), Fraction(3, 5), False),
    ])
    def test_frozen_values(self, q, x, val, flag):
        got, got_flag = charsum.rational_margin(q, x)
        assert got == val
        assert got_flag is flag

    def test_domain(self):
        with pytest.raises(errors.DomainError):
            charsum.rational_margin(11, Fraction(1, 2))
        with pytest.raises(errors.DomainError):
            charsum.rational_margin(11, 0)

    @pytest.mark.parametrize("q", [11, 19, 91, 163])
    def test_lattice_consistency(self, q):
        # At grid points a/q the margin times a collapses to the integer W(a).
        ch = ntcore.quad_char(q)
        half = (q - 1) // 2
        _, w = charsum.margin_values(ch, half)
        for a in range(1, half + 1):
            val, _ = charsum.rational_margin(ch, Fraction(a, q))
            assert val * a == w[a]

    def test_no_flag_at_small_denominators(self):
        # q <= 1000, x = a/r in lowest terms with r <= 50: the numerator of
        # h - S(qx) is never divisible by q on this whole window.  Prefix
        # sums are precomputed per q so the sweep stays fast; one point per
        # q is cross-checked against the public API.
        for q in ntcore.primes_in_range(5, 1000, residue=3, modulus=8):
            q = int(q)
            ch = ntcore.quad_char(q)
            h = charsum.class_number(ch).h
            vals = ntcore.chi_values(ch, q // 2 + 1).astype(np.int64)
            idx = np.arange(q // 2 + 2, dtype=np.int64)
            a_run = np.cumsum(vals)
            b_run = np.cumsum(idx * vals)
            checked_api = False
            for r in range(2, 51):
                for a in range(1, (r - 1) // 2 + 1):
                    if math.gcd(a, r) != 1:
                        continue
                    t = Fraction(q * a, r)
                    m = math.floor(t)
                    s = int(a_run[m]) - Fraction(int(b_run[m])) / t
                    val = h - s
                    assert val.numerator % q != 0, (q, a, r)
                    if not checked_api:
                        api_val, api_flag = charsum.rational_margin(
                            ch, Fraction(a, r))
                        assert api_val == val and api_flag is False
                        checked_api = True


class TestTStat:
    def test_first_ten(self):
        want = {7: 1, 23: 5, 31: 10, 47: 14, 71: 29, 79: 42, 103: 57,
                127: 80, 151: 111, 167: 91}
        for q, t in want.items():
            assert charsum.t_stat(q) == t, q

    def test_domain(self):
        with pytest.raises(errors.DomainError):
            charsum.t_stat(11)
        with pytest.raises(errors.DomainError):
            charsum.t_stat(15)


class TestSoftBounds:
    def test_polya_vinogradov(self):
        for q in (163, 1019, 2647):
            vals = ntcore.chi_values(ntcore.quad_char(q), 2 * q)
            running = np.cumsum(vals.astype(np.int64))
            bound = 2 * math.sqrt(q) * math.log(q)
            assert int(np.abs(running).max()) < bound, q
