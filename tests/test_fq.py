import math
import random
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from charpos import charsum, errors, fq, liouville, ntcore
from oracles import chi_factor, fq_shape, lattice_core, prime_frac_core
from test_ntcore import Built, stub_builders

MODULI = [7, 11, 19, 23, 43, 163, 35]
PRIMES_3_MOD_4 = [int(p) for p in
                  ntcore.primes_in_range(3, 200, residue=3, modulus=4)]


def series_oracle(q, x, n_terms):
    """f_q by the naive formula, floats all the way."""
    x = float(x)
    total = 0.0
    for n in range(1, n_terms + 1):
        total += ntcore.jacobi(n, q) * math.sin(2 * math.pi * n * x) / n ** 2
    return total


class TestFqSeries:
    def test_matches_naive_sum(self):
        sv = fq.fq_series(163, Fraction(7, 163), 300)
        assert sv.value == pytest.approx(series_oracle(163, Fraction(7, 163), 300),
                                         abs=1e-9)
        assert sv.tail_bound == 1.0 / 300
        assert sv.terms == 300

    def test_half_and_integers_are_exactly_zero(self):
        for x in (0, 1, Fraction(1, 2), Fraction(3, 2), -2):
            assert fq.fq_series(163, x, 1000).value == 0.0, x

    def test_needs_positive_terms(self):
        with pytest.raises(errors.DomainError):
            fq.fq_series(163, Fraction(1, 3), 0)

    def test_huge_denominator_reduction(self):
        # exercises the pure-integer argument reduction fallback
        x = Fraction((1 << 55) + 1, (1 << 60) + 7)
        sv = fq.fq_series(11, x, 128)
        direct = 0.0
        for n in range(1, 129):
            r = (n * x.numerator) % x.denominator
            direct += (ntcore.jacobi(n, 11)
                       * math.sin(2 * math.pi * (r / x.denominator)) / n ** 2)
        assert sv.value == pytest.approx(direct, abs=1e-12)

    def test_denominator_past_int64(self):
        # 3**40 > 2**63: the reduction must not hand den to int64 numpy
        x = Fraction(1, 3 ** 40)
        direct = sum(ntcore.jacobi(n, 163)
                     * math.sin(2 * math.pi * (n / x.denominator)) / n ** 2
                     for n in range(1, 101))
        assert fq.fq_series(163, x, 100).value == pytest.approx(direct,
                                                                rel=1e-12)

    def test_largest_int64_denominators_unchanged(self):
        # den = 2**63 - 25 fits int64, so it keeps the vectorised reduction
        x = Fraction(123456789, 2 ** 63 - 25)
        assert fq.fq_series(163, x, 100).value == 2.6929074367683817e-11
        assert liouville.f_series(x, 100).value == 9.071801407463431e-12

    @pytest.mark.parametrize("x", [Fraction(7, 163), Fraction(1, 3 ** 40),
                                   Fraction((1 << 55) + 1, (1 << 60) + 7)])
    def test_slabs_add_up_to_one_pass(self, monkeypatch, x):
        # 3500 terms in slabs of 1000 (the last one short), on both the
        # int64 and the Python-integer reduction, against one slab and
        # against the terms summed one by one
        w = ntcore.chi_values(ntcore.quad_char(163), 3500)[1:]
        whole = fq._sin_sum(w, x, 3500)
        direct = sum(int(w[n - 1]) * math.sin(2 * math.pi * (
            n * x.numerator % x.denominator / x.denominator)) / n ** 2
            for n in range(1, 3501))
        monkeypatch.setattr(fq, "BLOCK", 1000)
        slabs = fq._sin_sum(w, x, 3500)
        assert slabs == pytest.approx(whole, rel=1e-14, abs=1e-300)
        assert slabs == pytest.approx(direct, rel=1e-12, abs=1e-300)

    def test_float_work_is_one_slab(self, monkeypatch):
        # one pass over N terms held about 48 bytes per term (12.6 MB
        # here); the slabs hold about 56 per BLOCK entry (231 kB), however
        # large N is
        monkeypatch.setattr(fq, "BLOCK", 1 << 12)
        w = ntcore.chi_values(ntcore.quad_char(163), 1 << 18)[1:]
        tracemalloc.start()
        try:
            fq._sin_sum(w, Fraction(7, 163), 1 << 18)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 96 << 12

    @pytest.mark.parametrize("q", [11, 19, 43])
    def test_grid_stays_positive_for_small_class_number_one(self, q):
        # 10q equispaced points in (0, 1/2); positivity of the margins
        # means even the truncated series should clear zero by more than
        # its own tail.
        n_terms = 2000
        ch = ntcore.quad_char(q)
        worst = min(fq.fq_series(ch, Fraction(k, 20 * q), n_terms).value
                    for k in range(1, 10 * q))
        assert worst > 1.0 / n_terms


class TestFqExact:
    def test_known_point(self):
        ev = fq.fq_exact(163, Fraction(7, 163))
        assert ev.coeff == Fraction(8, 163)
        assert ev.value == pytest.approx(0.0759, abs=2e-4)

    def test_nodes_reproduce_margins(self):
        q = 19
        h, w = charsum.margin_values(q, 9)
        for a in range(1, 10):
            ev = fq.fq_exact(q, Fraction(a, q))
            assert ev.coeff == Fraction(int(w[a]), q), a

    def test_zero_at_half_and_integers(self):
        for q in (11, 163):
            assert fq.fq_exact(q, Fraction(1, 2)).coeff == 0
            assert fq.fq_exact(q, 0).coeff == 0
            assert fq.fq_exact(q, 5).coeff == 0

    @given(st.fractions(Fraction(1, 200), Fraction(99, 200)))
    def test_odd_and_periodic(self, x):
        ch = ntcore.quad_char(43)
        base = fq.fq_exact(ch, x).coeff
        assert fq.fq_exact(ch, x + 1).coeff == base
        assert fq.fq_exact(ch, 1 - x).coeff == -base
        assert fq.fq_exact(ch, -x).coeff == -base

    @pytest.mark.parametrize("q", MODULI)
    def test_series_converges_to_exact(self, q):
        rng = random.Random(q)
        ch = ntcore.quad_char(q)
        for _ in range(12):
            den = rng.randint(2, 500)
            num = rng.randint(1, den - 1)
            x = Fraction(num, den)
            n_terms = rng.choice([300, 1000, 5000])
            sv = fq.fq_series(ch, x, n_terms)
            ex = fq.fq_exact(ch, x)
            assert abs(sv.value - ex.value) <= sv.tail_bound + 1e-9, (q, x)


class TestPiecewise:
    def test_coeff_matches_exact_everywhere(self):
        ch = ntcore.quad_char(163)
        pw = fq.piecewise_fq(ch)
        rng = random.Random(163)
        for _ in range(50):
            den = rng.randint(2, 999)
            num = rng.randint(1, den // 2)
            x = Fraction(num, den)
            if x > Fraction(82, 163):
                continue
            assert pw.coeff_at(x) == fq.fq_exact(ch, x).coeff, x

    def test_continuity_at_nodes(self):
        ch = ntcore.quad_char(43)
        pw = fq.piecewise_fq(ch)
        q = 43
        for a in range(pw.a_max):
            left = Fraction(a + 1, q) * int(pw.slopes[a]) \
                + Fraction(int(pw.intercepts[a]), q)
            assert left == Fraction(int(pw.margins[a + 1]), q), a

    def test_out_of_range_rejected(self):
        pw = fq.piecewise_fq(ntcore.quad_char(11))
        with pytest.raises(errors.DomainError):
            pw.coeff_at(Fraction(3, 4))


class TestShapes:
    def test_163_has_no_zeros(self):
        sh = fq.fq_min_and_zeros(ntcore.quad_char(163))
        assert sh.zeros == ()
        assert sh.flats == ()
        assert (sh.min_w, sh.argmin_a) == (1, 1)
        assert sh.min_coeff == Fraction(1, 163)
        assert sh.argmin_x == Fraction(1, 163)

    def test_7_touches_zero_then_flats(self):
        sh = fq.fq_min_and_zeros(ntcore.quad_char(7))
        assert sh.zeros == (Fraction(3, 7),)
        assert sh.flats == ((Fraction(3, 7), Fraction(1, 2)),)
        assert sh.min_w == 0

    def test_23_touches_zero_then_flats(self):
        sh = fq.fq_min_and_zeros(ntcore.quad_char(23))
        assert sh.zeros == (Fraction(11, 23),)
        assert sh.flats == ((Fraction(11, 23), Fraction(1, 2)),)

    def test_11_min_profile(self):
        sh = fq.fq_min_and_zeros(ntcore.quad_char(11))
        assert (sh.min_w, sh.argmin_a) == (1, 1)
        assert sh.zeros == ()

    def test_2647_crosses_zero(self):
        sh = fq.fq_min_and_zeros(ntcore.quad_char(2647))
        assert sh.min_w == -171
        assert sh.zeros
        for z in sh.zeros:
            # every reported zero is a true zero of the exact evaluator
            assert fq.fq_exact(2647, z).coeff == 0, z
            assert 0 < z < Fraction(1, 2)

    @pytest.mark.parametrize("q", [7, 11, 23, 103, 127, 163, 463, 2647, 4003,
                                   15, 35, 91, 51, 115])
    @pytest.mark.parametrize("wide", [False])  # one value: the ids stay put
    def test_matches_loop_oracle(self, q, wide):
        assert fq.piecewise_fq(q).margins.dtype == np.int64
        sh = fq.fq_min_and_zeros(ntcore.quad_char(q))
        assert (sh.min_w, sh.argmin_a, sh.zeros, sh.flats) == fq_shape(q)

    def test_interior_zeros_lie_between_sign_changes(self):
        sh = fq.fq_min_and_zeros(ntcore.quad_char(2647))
        interior = [z for z in sh.zeros if z.denominator != 2647]
        assert interior, "expected at least one interior crossing"


def valid_chars(lo, hi):
    """The characters of the valid moduli q = 3 (mod 4) in [lo, hi)."""
    chars = []
    for q in range(lo + (3 - lo) % 4, hi, 4):
        try:
            chars.append(ntcore.quad_char(q))
        except errors.InvalidModulus:
            pass
    return chars


def whole_range_shape(ch):
    """FqShape from piecewise_fq over the whole half range: the minimum and
    first argmin, node zeros, sign changes and flats read off its full
    margin, slope and intercept arrays."""
    q = ch.q
    pw = fq.piecewise_fq(ch)
    W, S, B = pw.margins, pw.slopes, pw.intercepts
    body = W[1:]
    k = int(np.argmin(body))
    zeros = [Fraction(a, q) for a in (np.flatnonzero(body == 0) + 1).tolist()]
    neg, pos = W < 0, W > 0
    cross = (neg[:-1] & pos[1:]) | (pos[:-1] & neg[1:])
    zeros += [Fraction(-int(B[a]), q * int(S[a])) for a in np.flatnonzero(cross).tolist()]
    flats = []
    for a in np.flatnonzero((S == 0) & (B == 0)).tolist():
        lo, hi = Fraction(a, q), min(Fraction(a + 1, q), Fraction(1, 2))
        if flats and flats[-1][1] == lo:
            flats[-1] = (flats[-1][0], hi)
        else:
            flats.append((lo, hi))
    min_w = int(body[k])
    return fq.FqShape(q, pw.h, min_w, k + 1, Fraction(min_w, q), Fraction(k + 1, q),
                      tuple(sorted(zeros)), tuple(flats))


class TestShapeFromBlocks:
    """fq_min_and_zeros walks only the runs of blocks whose bound is at
    most max(0, least start); it must give the shape read off W over the
    whole half range."""

    def test_matches_whole_range_where_rows_are_cut(self):
        for ch in valid_chars(32771, 36000):
            assert fq.fq_min_and_zeros(ch) == whole_range_shape(ch), ch.q

    @pytest.mark.parametrize("lo, hi", [(7, 4000), (32000, 32800)])
    def test_matches_whole_range_on_short_half_ranges(self, lo, hi):
        # at the default block: half ranges of fewer than 64 blocks, down
        # to less than one, and either side of 64 blocks (q = 32769)
        for ch in valid_chars(lo, hi):
            assert fq.fq_min_and_zeros(ch) == whole_range_shape(ch), ch.q

    @pytest.mark.parametrize("q", [255255, 999919, 994067])
    def test_matches_whole_range_at_large_moduli(self, q):
        ch = ntcore.quad_char(q)
        sh = fq.fq_min_and_zeros(ch)
        assert sh == whole_range_shape(ch)
        if q != 994067:
            assert sh.min_w < 0 and sh.zeros and sh.flats

    # below 3000, and the least moduli with flats of three and two pieces
    LONG_FLATS = (4407, 5343, 3895, 4015)

    @pytest.mark.parametrize("block", [1, 2, 3, 8])
    def test_matches_whole_range_on_small_blocks(self, monkeypatch, block):
        monkeypatch.setattr(charsum, "_MIN_BLOCK", block)
        runs = []

        def recorded(h, A, B, chi, a_max, floor):
            for lo, w in charsum._low_spans(h, A, B, chi, a_max, floor):
                runs.append((lo, lo + len(w) - 3, a_max))
                yield lo, w

        monkeypatch.setattr(fq, "_low_spans", recorded)
        chars = valid_chars(7, 3000) + [ntcore.quad_char(q) for q in self.LONG_FLATS]
        crossed = 0
        for ch in chars:
            sh = fq.fq_min_and_zeros(ch)
            assert sh == whole_range_shape(ch), (block, ch.q)
            crossed += any(x0 * ch.q < s < x1 * ch.q
                           for x0, x1 in sh.flats for s in range(1, ch.q // 2, block))
        # runs from a = 1, runs to half (whose span reaches the last piece),
        # runs cut at both ends, and flats over a block edge all occurred
        assert any(lo == 1 for lo, _, _ in runs)
        assert any(hi == half for _, hi, half in runs)
        assert any(1 < lo and hi < half for lo, hi, half in runs)
        assert crossed

    def test_peak_memory(self):
        # the chi period of q bytes and a few spans of the runs: about
        # 1.4 MiB at q = 999983, where piecewise_fq over the half range
        # took 15.3 MiB
        ch = ntcore.quad_char(999983)
        tracemalloc.start()
        try:
            fq.fq_min_and_zeros(ch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2 ** 20, peak / 2 ** 20


class TestPrimeFrac:
    @pytest.mark.parametrize("a,p,q,stat", [
        (1, 719, 2971, 130724),
        (1, 919, 3271, 340184),
    ])
    def test_frozen_exemplars(self, a, p, q, stat):
        ev = fq.fq_prime_frac(a, p, ntcore.quad_char(q))
        assert ev.stat == stat
        assert ev.core == stat * p * q
        assert ev.q_divides is (stat % q == 0)

    def test_small_products_match_series(self):
        rng = random.Random(5)
        qs = [int(v) for v in
              ntcore.primes_in_range(7, 200, residue=3, modulus=8)]
        for _ in range(8):
            q = rng.choice(qs)
            ps = [int(v) for v in
                  ntcore.primes_in_range(3, q - 1, residue=3, modulus=4)]
            p = rng.choice(ps)
            a = rng.randint(1, (p - 1) // 2)
            ev = fq.fq_prime_frac(a, p, ntcore.quad_char(q))
            sv = fq.fq_series(q, Fraction(a, p), 50_000)
            assert abs(ev.value - sv.value) <= sv.tail_bound + 1e-9, (a, p, q)

    def test_small_multiplier_closed_form(self):
        # for a*q < p the reduced value collapses to 4*a*h*q
        cases = [(1, 23, 11), (1, 31, 19), (2, 43, 19), (1, 59, 43),
                 (3, 139, 43), (1, 179, 163)]
        for a, p, q in cases:
            ev = fq.fq_prime_frac(a, p, ntcore.quad_char(q))
            h = charsum.class_number(q).h
            assert ev.stat == 4 * a * h * q, (a, p, q)

    def test_domain_checks(self):
        ch = ntcore.quad_char(163)
        with pytest.raises(errors.DomainError):
            fq.fq_prime_frac(1, 5, ch)          # p = 1 (mod 4)
        with pytest.raises(errors.DomainError):
            fq.fq_prime_frac(1, 9, ch)          # not prime
        with pytest.raises(errors.DomainError):
            fq.fq_prime_frac(2, 3, ch)          # 2a >= p
        with pytest.raises(errors.DomainError):
            fq.fq_prime_frac(1, 7, ntcore.quad_char(91))   # p | q

    def test_modulus_prime_flag(self):
        assert fq.fq_prime_frac(1, 23, ntcore.quad_char(11)).modulus_prime
        assert not fq.fq_prime_frac(1, 23, ntcore.quad_char(35)).modulus_prime

    @given(st.sampled_from([11, 19, 43, 163, 15, 35, 51, 91]),
           st.sampled_from(PRIMES_3_MOD_4), st.data())
    def test_core_matches_direct_sum(self, q, p, data):
        # small slabs put the split points r/p mod q on slab edges
        ch = ntcore.quad_char(q)
        assume(p not in ch.factors)
        a = data.draw(st.integers(1, (p - 1) // 2))
        want = prime_frac_core(a, p, q)
        for block in (ntcore.BLOCK, 1, 7):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(fq, "BLOCK", block)
                assert fq.fq_prime_frac(a, p, ch).core == want, block

    @pytest.mark.parametrize("q", [11, 163, 35, 91])
    def test_residue_totals_match_direct_sums(self, monkeypatch, q):
        # every residue r mod p, so the split points s = r/p mod q cover
        # the period and its slab edges; chi(p) = 1/chi(p) turns T into T'
        ch = ntcore.quad_char(q)
        chi = ntcore.chi_values(ch, q - 1)
        for p in (3, 7, 19, 43, 59):
            if p in ch.factors:
                continue
            r = np.arange(p)
            s = r * pow(p, -1, q) % q
            want = [chi_factor(p, q) * sum(b * b * chi_factor(b, q)
                                           for b in range(x, p * q + 1, p))
                    for x in range(p)]
            for block in (ntcore.BLOCK, 1, 7):
                monkeypatch.setattr(fq, "BLOCK", block)
                got = fq._residue_totals(chi, np.full(p, p), r, s, [q],
                                         np.zeros(p, dtype=np.intp))
                assert got.tolist() == want, (p, block)

    def test_residue_totals_over_periods_end_to_end(self, monkeypatch):
        # the periods of four moduli laid end to end, as a census group
        # lays them; slabs of 1, 7 and 100 entries cut across the periods
        # and BLOCK holds them all.  Every residue r mod p of every period.
        mods = [11, 35, 91, 163]
        chi = np.concatenate([ntcore.chi_values(ntcore.quad_char(q), q - 1)
                              for q in mods])
        p, r, s, t, want = [], [], [], [], []
        for i, q in enumerate(mods):
            for pp in (3, 19, 43):
                if math.gcd(pp, q) > 1:
                    continue
                for x in range(pp):
                    p.append(pp)
                    r.append(x)
                    s.append(x * pow(pp, -1, q) % q)
                    t.append(i)
                    want.append(chi_factor(pp, q) * sum(
                        b * b * chi_factor(b, q) for b in range(x, pp * q + 1, pp)))
        for block in (ntcore.BLOCK, 1, 7, 100):
            monkeypatch.setattr(fq, "BLOCK", block)
            got = fq._residue_totals(chi, np.array(p), np.array(r), np.array(s),
                                     mods, np.array(t))
            assert got.tolist() == want, block

    def test_modulus_past_int64_moments_is_pinned(self):
        # sum of j**2 chi(j) over one period could overflow int64 past
        # q ~ 3.0e6; at q = 10000019 the slabs must recombine exactly
        ev = fq.fq_prime_frac(1, 1163, ntcore.quad_char(10000019))
        assert ev.core == 593232567163096044384
        assert ev.stat == 51008722272
        assert not ev.q_divides

    @pytest.mark.parametrize("q", [11, 163, 35])
    def test_huge_p_matches_closed_form(self, q):
        # the kernel costs O(q) rows whatever p is; f_q(a/p) from fq_exact
        # gives core = 4 p**2 q**2 coeff exactly
        p = 10 ** 12 + 39
        ev = fq.fq_prime_frac(12345, p, ntcore.quad_char(q))
        coeff = fq.fq_exact(q, Fraction(12345, p)).coeff
        assert ev.core == 4 * p * p * q * q * coeff

    def test_oversized_modulus_rejected(self, monkeypatch):
        # 2**31 + 11 is prime and 3 (mod 4); the table gate refuses its
        # period before either table builder runs
        def refuse(*args):
            raise AssertionError("built a table")

        for name in ("_qr_period", "_chi_multiplicative"):
            monkeypatch.setattr(ntcore, name, refuse)
        q = 2 ** 31 + 11
        ch = ntcore.quad_char(q)
        with pytest.raises(errors.DomainError,
                           match=f"would have {q} entries, above the limit"):
            fq.fq_prime_frac(1, 7, ch)

    def test_slabs_recombine_exactly(self, monkeypatch):
        # BLOCK = 64 splits the period of q = 2971 into 47 slabs and
        # BLOCK = 1 gives one period entry per slab
        ch = ntcore.quad_char(2971)
        assert fq.fq_prime_frac(1, 719, ch).stat == 130724
        for block in (64, 1):
            monkeypatch.setattr(fq, "BLOCK", block)
            assert fq.fq_prime_frac(1, 719, ch).stat == 130724
            for a, p, q in [(2, 7, 15), (5, 43, 91), (9, 31, 163)]:
                got = fq.fq_prime_frac(a, p, ntcore.quad_char(q)).core
                assert got == prime_frac_core(a, p, q), (block, a, p, q)


class TestLatticeQuad:
    def test_frozen_first_value(self):
        ev = fq.fq_lattice_quad(ntcore.quad_char(11), 1)
        assert ev.core == 44

    @pytest.mark.parametrize("q", [11, 19, 43, 163, 35, 15, 51, 91])
    def test_identity_full_half_range(self, q):
        assert fq.identity_check(ntcore.quad_char(q)) is True

    def test_identity_floor_divides_negative_cores(self):
        # min W = -3 at q = 127, so some cores are negative multiples of 4q
        _, w = charsum.margin_values(127, 63)
        assert int(w[1:].min()) == -3
        cores = fq.lattice_quad_values(127, 63)
        assert (cores < 0).any()
        assert fq.identity_check(127) is True

    # 1 breaks divisibility by 4q, 4q only the quotient, 2**62 is past
    # every 4W, and -2**63 wraps the core in int64
    @pytest.mark.parametrize("shift", [1, 4 * 163, 2 ** 62, -2 ** 63])
    def test_identity_detects_one_corrupt_core(self, monkeypatch, shift):
        # identity_check reads the cores from the private block generator
        # and carries two of them from block to block.  At block sizes 1
        # and 2 the carried pair spans blocks; the corrupt node is the
        # first, the last, or one on either side of a block edge in the
        # middle of the half range 1..81.
        real = fq._lattice_blocks
        a_max = 81
        for block in (1, 2, 7, fq._LATTICE_BLOCK):
            edge = block * ((a_max // 2) // block)
            nodes = {0, a_max - 1} | ({edge - 1, edge} if 0 < edge < a_max
                                      else {a_max // 2})
            monkeypatch.setattr(fq, "_LATTICE_BLOCK", block)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert fq.identity_check(ntcore.quad_char(163)) is True
                for index in sorted(nodes):
                    def corrupt(chi, a_max, index=index):
                        for a1, cores in real(chi, a_max):
                            cores = cores.copy()
                            i = index - (a1 - 1)
                            if 0 <= i < len(cores):
                                wrapped = (int(cores[i]) + shift + 2 ** 63) % 2 ** 64
                                cores[i] = wrapped - 2 ** 63
                            yield a1, cores

                    with pytest.MonkeyPatch.context() as mp:
                        mp.setattr(fq, "_lattice_blocks", corrupt)
                        assert fq.identity_check(
                            ntcore.quad_char(163)) is False, (block, index)

    @pytest.mark.parametrize("q", [35, 91, 127, 163, 2971, 999983])
    def test_int64_cores_are_4qw(self, q):
        # identity_check forms no W over the range, so the lattice batch
        # is compared with the W walk of margin_values here, entry for entry
        half = (q - 1) // 2
        cores = fq.lattice_quad_values(q, half)
        _, w = charsum.margin_values(q, half)
        assert cores.dtype == np.int64 and len(cores) == half
        assert cores.tolist() == [4 * q * x for x in w[1:].tolist()]

    @pytest.mark.parametrize("a", [None, 40])
    def test_identity_passes(self, monkeypatch, a):
        # the half range takes one table and one lattice pass and no W
        # walk; a single node still reads its W from one _w_span
        calls = []
        for name in ("_w_span", "chi_values", "_lattice_blocks"):
            def spy(*args, real=getattr(fq, name), name=name):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(fq, name, spy)
        assert fq.identity_check(163, a) is True
        assert sorted(calls) == sorted(
            ["chi_values", "_lattice_blocks"] + (["_w_span"] if a else []))

    # 999983 is the largest prime the int64 path takes, with a up to 499991
    @pytest.mark.parametrize("q", [163, 35, 999983])
    def test_object_path_matches_int64(self, monkeypatch, q):
        a_max = (q - 1) // 2
        fast = fq.lattice_quad_values(q, a_max)
        monkeypatch.setattr(fq, "_LATTICE_INT64_MAX", 10)
        slow = fq.lattice_quad_values(q, a_max)
        assert fast.dtype == np.int64 and slow.dtype == object
        assert slow.tolist() == fast.tolist()
        assert fq.identity_check(q) is True

    @pytest.mark.parametrize("q", [11, 35, 91, 163, 2971])
    def test_blocks_match_loop_oracle(self, monkeypatch, q):
        # a_max from q/2 up makes the forward range 0..a-1 and the mirrored
        # range q-a..q-1 overlap; block sizes 1 and 7 put every carry on a
        # block edge, and the default block holds the whole range
        half = (q - 1) // 2
        a_maxes = sorted({1, q // 3, half, q - 1})
        want = {a: lattice_core(q, a) for a in range(1, q)} if q < 200 else {
            a: lattice_core(q, a) for a in
            {1, 2, 3, 63, 64, 65, q // 3, half, half + 1, q - 2, q - 1}}
        for block in (1, 7, 64, fq._LATTICE_BLOCK):
            monkeypatch.setattr(fq, "_LATTICE_BLOCK", block)
            for a_max in a_maxes:
                cores = fq.lattice_quad_values(q, a_max)
                assert cores.dtype == np.int64 and len(cores) == a_max
                for a, core in want.items():
                    if a <= a_max:
                        assert int(cores[a - 1]) == core, (block, a_max, a)

    def test_identity_peak_memory(self):
        # one chi table and a few block buffers: about 2.2 MiB at
        # q = 999983, where a W walk over the half range took about 16 MiB
        tracemalloc.start()
        try:
            assert fq.identity_check(999983) is True
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 * 2 ** 20, peak / 2 ** 20

    def test_identity_holds_no_w_over_the_range(self):
        # the chi period of q bytes, the lattice kernel's six int64 block
        # buffers and identity_check's two: about 2.2 MiB at q = 999983,
        # where a whole W over the half range alone would be 3.8 MiB more
        tracemalloc.start()
        try:
            assert fq.identity_check(999983) is True
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6.5 * 2 ** 20, peak / 2 ** 20

    def test_identity_blocks_stay_small(self):
        # the chi period of q bytes and a few L2-sized int64 blocks: about
        # 2.2 MiB at q = 999983, where 2**16-entry blocks took 5.5 MiB
        tracemalloc.start()
        try:
            assert fq.identity_check(999983) is True
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2 ** 20, peak / 2 ** 20

    @pytest.mark.parametrize("row", [1, 7, 256])
    def test_first_moment_from_rows(self, monkeypatch, row):
        # P1(q - 1) from the row moments, with and without a short last
        # row, equals the plain sum; a table off by one entry is refused
        monkeypatch.setattr(charsum, "_MIN_BLOCK", row)
        for q in (11, 163, 2971):
            chi = ntcore.chi_values(ntcore.quad_char(q), q - 1)
            assert charsum._linear_sum(chi) == sum(
                j * int(chi[j]) for j in range(q)), (q, row)
        chi = ntcore.chi_values(ntcore.quad_char(2971), 2970).copy()
        chi[5] = -chi[5]
        with pytest.raises(errors.ExactnessError, match="not a multiple of q"):
            next(fq._lattice_blocks(chi, 10))

    @pytest.mark.parametrize("a", [None, 40, 100])
    def test_identity_builds_one_table(self, monkeypatch, a):
        # count the scatter under every module binding it could have
        built = []
        real = ntcore._qr_period

        def counting(p):
            built.append(p)
            return real(p)

        for mod in (ntcore, charsum):
            monkeypatch.setattr(mod, "_qr_period", counting, raising=False)
        assert fq.identity_check(163, a) is True
        assert built == [163]

    def test_identity_single_nodes(self):
        ch = ntcore.quad_char(163)
        for a in (1, 2, 40, 81, 100, 162):
            assert fq.identity_check(ch, a) is True, a

    def test_noncoprime_batch_values(self):
        # the identity core = 4qW holds even off the coprime set
        ch = ntcore.quad_char(35)
        cores = fq.lattice_quad_values(ch, 17)
        _, w = charsum.margin_values(ch, 17)
        for a, want in [(5, 840), (7, 980), (10, 1540), (14, 1260), (15, 980)]:
            assert int(cores[a - 1]) == want, a
            assert int(cores[a - 1]) == 4 * 35 * int(w[a]), a

    def test_noncoprime_single_rejected(self):
        with pytest.raises(errors.DomainError):
            fq.fq_lattice_quad(ntcore.quad_char(35), 5)
        with pytest.raises(errors.DomainError):
            fq.fq_lattice_quad(ntcore.quad_char(35), 0)

    def test_single_cores_match_loop_oracle(self, monkeypatch):
        # every coprime a on both sides of q/2: a single core is read off
        # the block kernel at min(a, q - a), negated above q/2
        for q in (11, 35, 91, 163):
            ch = ntcore.quad_char(q)
            for a in range(1, q):
                if math.gcd(a, q) == 1:
                    assert fq.fq_lattice_quad(ch, a).core == lattice_core(
                        q, a), (q, a)
        q = 2971
        half = (q - 1) // 2
        want = {a: lattice_core(q, a) for a in (1, half, half + 1, q - 1)}
        for int64_max in (fq._LATTICE_INT64_MAX, 10):
            monkeypatch.setattr(fq, "_LATTICE_INT64_MAX", int64_max)
            for a, core in want.items():
                got = fq.fq_lattice_quad(q, a).core
                assert type(got) is int and got == core, (int64_max, a)

    def test_identity_past_int64_cores(self):
        # cores above _LATTICE_INT64_MAX leave int64, core/q does not: the
        # half range at 1000003 runs the same blocks as at 999983
        tracemalloc.start()
        try:
            assert fq.identity_check(1000003) is True
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 * 2 ** 20, peak / 2 ** 20

    @pytest.mark.parametrize("a_max", [1, 500001, 1000002])
    def test_object_cores_are_4qw(self, a_max):
        q = 1000003
        cores = fq.lattice_quad_values(q, a_max)
        _, w = charsum.margin_values(q, a_max)
        assert cores.dtype == object and len(cores) == a_max
        assert all(type(c) is int for c in cores[:: max(1, a_max // 97)])
        assert cores.tolist() == [4 * q * x for x in w[1:].tolist()]

    @pytest.mark.parametrize("q", [35, 163, 2971])
    def test_short_blocks_on_both_dtypes(self, monkeypatch, q):
        # with _LATTICE_INT64_MAX patched below q the same int64 blocks are
        # scaled by q into Python integers; blocks of 1 and 7 put every
        # carry on a block edge
        half = (q - 1) // 2
        want = {a: lattice_core(q, a) for a in
                sorted({1, 2, 7, 8, q // 3, half, half + 1, q - 1})}
        for int64_max, dtype in ((fq._LATTICE_INT64_MAX, np.int64),
                                 (q - 1, object)):
            monkeypatch.setattr(fq, "_LATTICE_INT64_MAX", int64_max)
            for block in (1, 7):
                monkeypatch.setattr(fq, "_LATTICE_BLOCK", block)
                for a_max in sorted({1, half, q - 1}):
                    cores = fq.lattice_quad_values(q, a_max)
                    assert cores.dtype == dtype and len(cores) == a_max
                    for a, core in want.items():
                        if a <= a_max:
                            assert cores[a - 1] == core, (dtype, block, a)
                    if dtype is object:
                        assert all(type(c) is int for c in cores)

    def test_table_not_of_a_character_rejected(self, monkeypatch):
        # flipping chi(1) moves sum j chi(j) by 2, off the multiples of q
        # that the class number formula guarantees
        chi = ntcore.chi_values(ntcore.quad_char(163), 162).copy()
        chi[1] = -chi[1]
        with pytest.raises(errors.ExactnessError):
            next(fq._lattice_blocks(chi, 81))
        monkeypatch.setattr(fq, "chi_values", lambda ch, n: chi)
        with pytest.raises(errors.ExactnessError):
            fq.lattice_quad_values(163, 81)
        with pytest.raises(errors.ExactnessError):
            fq.fq_lattice_quad(163, 5)

    def test_bad_input_builds_no_table(self, monkeypatch):
        # bad nodes are refused by the entry points, a period past the
        # table gate by chi_values, both before either builder runs
        built = stub_builders(monkeypatch)
        big = 2_147_483_647  # prime, 3 (mod 4), a period past the gate
        calls = [
            lambda: fq.fq_lattice_quad(big, 1),
            lambda: fq.lattice_quad_values(big, 1),
            lambda: fq.identity_check(big),
            lambda: fq.identity_check(big, 0),
            lambda: fq.fq_lattice_quad(163, 0),
            lambda: fq.fq_lattice_quad(163, 163),
            lambda: fq.fq_lattice_quad(35, 5),
            lambda: fq.lattice_quad_values(163, 0),
            lambda: fq.lattice_quad_values(163, 163),
            lambda: fq.identity_check(163, 0),
            lambda: fq.identity_check(35, 14),
        ]
        for call in calls:
            with pytest.raises(errors.DomainError):
                call()
        assert built == []

    def test_lattice_domain_is_the_table_gate(self, monkeypatch):
        # 10**9 + 7 is past the old lattice cap of 10**9 but inside the
        # gate: every entry point goes on to build its period
        built = stub_builders(monkeypatch)
        q = 1_000_000_007
        for call in (lambda: fq.fq_lattice_quad(q, 1),
                     lambda: fq.lattice_quad_values(q, 1),
                     lambda: fq.identity_check(q),
                     lambda: fq.identity_check(q, 1)):
            with pytest.raises(Built):
                call()
        assert built == [("_qr_period", q)] * 4

    def test_kernel_sums_fit_int64_at_the_gate(self):
        # _lattice_blocks' partial sums stay below 7q**2 + q, and
        # identity_check's 4W below 8n**2, n = (q - 1)/2, for every
        # q <= _TABLE_MAX
        q = ntcore._TABLE_MAX
        assert 7 * q ** 2 + q < 2 ** 63
        assert 8 * ((q - 1) // 2) ** 2 < 2 ** 61

    def test_single_core_past_int64_is_odd(self):
        q = 1000003
        lo = fq.fq_lattice_quad(q, 500001).core
        hi = fq.fq_lattice_quad(q, 500002).core
        assert type(lo) is int and type(hi) is int
        assert lo == -hi
        _, w = charsum.margin_values(q, 500001)
        assert lo == 4 * q * int(w[500001])

    def test_value_matches_exact(self):
        ev = fq.fq_lattice_quad(ntcore.quad_char(163), 7)
        ex = fq.fq_exact(163, Fraction(7, 163))
        assert ev.value == pytest.approx(ex.value, rel=1e-12)


class TestSlabKernel:
    """f_series, fq_series, l2_series and fq_fifth all sum through one
    slab loop, fq._slab_sum, which reads fq.BLOCK at call time."""

    @pytest.mark.parametrize("block", [64, 1000])
    def test_slabs_match_one_pass(self, monkeypatch, block):
        # 3500 terms in several slabs (the last one short) against one
        # whole-array numpy sum of the same terms: a few ulps of the sum of
        # their absolute values apart
        monkeypatch.setattr(fq, "BLOCK", block)
        n = np.arange(1, 3501)
        nf = n.astype(np.float64)
        chi = ntcore.chi_values(ntcore.quad_char(163), 3500)[1:]
        lam = ntcore.liouville_sieve(3500).values[1:]

        def close(got, terms):
            return abs(got - float(np.sum(terms))) <= 8 * math.ulp(
                float(np.sum(np.abs(terms))))

        for pattern in (fq.CHI3, fq.FIFTH_RE, fq.FIFTH_IM):
            pat = np.asarray(pattern, dtype=np.float64)
            terms = chi * pat[n % len(pat)] / (nf * nf)
            assert close(fq.l2_series(163, pattern, 3500).value, terms), pattern
        for x in (Fraction(7, 163), Fraction(1, 3), Fraction(1, 3 ** 40),
                  Fraction((1 << 55) + 1, (1 << 60) + 7)):
            sine = np.sin(2 * math.pi * np.array(
                [m * x.numerator % x.denominator / x.denominator
                 for m in n.tolist()]))
            assert close(fq.fq_series(163, x, 3500).value, chi * sine / (nf * nf)), x
            assert close(liouville.f_series(x, 3500).value, lam * sine / (nf * nf)), x

    @pytest.mark.parametrize("block,n_terms", [(1000, 3500), (ntcore.BLOCK, 10 ** 5)])
    def test_fifth_is_two_pattern_sums_from_one_table(self, monkeypatch, block,
                                                      n_terms):
        monkeypatch.setattr(fq, "BLOCK", block)
        calls = []
        real = fq.chi_values

        def spy(ch, n_max):
            calls.append(n_max)
            return real(ch, n_max)

        monkeypatch.setattr(fq, "chi_values", spy)
        for q in (11, 163, 2647):
            calls.clear()
            got = fq.fq_fifth(q, n_terms)
            assert calls == [n_terms]
            alpha = fq.l2_series(q, fq.FIFTH_RE, n_terms).value
            beta = fq.l2_series(q, fq.FIFTH_IM, n_terms).value
            assert got == (math.sin(2 * math.pi / 5) * alpha
                           + math.sin(4 * math.pi / 5) * beta), q

    def test_pattern_sum_holds_one_slab(self):
        # the int8 chi table (4 MiB) and one slab of float work; the
        # whole-array sum took 192 MiB here
        tracemalloc.start()
        try:
            fq.l2_series(163, fq.CHI3, 2 ** 22)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2 ** 20, peak / 2 ** 20


class TestPatternSeries:
    def test_third_matches_exact(self):
        for q in (11, 19, 163):
            approx = fq.fq_third(q, 10 ** 5)
            exact = fq.fq_exact(q, Fraction(1, 3)).value
            assert approx == pytest.approx(exact, abs=1e-4), q

    def test_fifth_matches_exact(self):
        for q in (11, 19, 163):
            approx = fq.fq_fifth(q, 10 ** 5)
            exact = fq.fq_exact(q, Fraction(1, 5)).value
            assert approx == pytest.approx(exact, abs=1e-4), q

    def test_fifth_frozen_values(self):
        want = {11: 0.6493, 19: 0.8580, 43: 0.8261, 163: 0.8176,
                2647: 1.0681}
        for q, v in want.items():
            assert fq.fq_fifth(q, 10 ** 5) == pytest.approx(v, abs=5e-3), q

    def test_oversized_pattern_sum_is_refused(self):
        # the chi table is asked for first: no 7.28 TiB np.arange
        with pytest.raises(errors.DomainError,
                           match=f"above the limit of {ntcore._TABLE_MAX}"):
            fq.l2_series(163, fq.CHI3, 10**12)

    def test_empty_pattern_is_refused(self, monkeypatch):
        # refused before any table is built, with no numpy warning
        monkeypatch.setattr(fq, "chi_values", None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(errors.DomainError, match="nonempty pattern"):
                fq.l2_series(163, (), 10)
            with pytest.raises(errors.DomainError, match="nonempty pattern"):
                fq.l2_series(163, np.array([]), 10)

    def test_pattern_sum_is_weighted_l2(self):
        sv = fq.l2_series(163, fq.CHI3, 500)
        direct = sum(ntcore.jacobi(n, 163) * fq.CHI3[n % 3] / n ** 2
                     for n in range(1, 501))
        assert sv.value == pytest.approx(direct, abs=1e-12)
        assert sv.tail_bound == 1 / 500

    def test_alpha_lower_bound_value(self):
        lb = fq.fifth_alpha_lower_bound()
        assert Fraction(716, 1000) < lb < Fraction(717, 1000)
        # certified: below the true alpha for every q tried
        for q in (11, 19, 43, 163, 2647):
            alpha = fq.l2_series(q, fq.FIFTH_RE, 10 ** 5).value
            assert alpha > float(lb) - 1e-5, q
