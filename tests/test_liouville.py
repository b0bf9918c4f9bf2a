import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from charpos import errors, fq, liouville, ntcore
from oracles import liouville_factor, simple_primes


class TestFSeries:
    def test_matches_naive_sum(self):
        x = Fraction(1, 4)
        sv = liouville.f_series(x, 500)
        direct = sum(liouville_factor(n) * math.sin(2 * math.pi * n * 0.25) / n ** 2
                     for n in range(1, 501))
        assert sv.value == pytest.approx(direct, abs=1e-9)

    def test_denominator_past_int64(self):
        x = Fraction(1, 3 ** 40)
        direct = sum(liouville_factor(n)
                     * math.sin(2 * math.pi * (n / x.denominator)) / n ** 2
                     for n in range(1, 101))
        assert liouville.f_series(x, 100).value == pytest.approx(direct,
                                                                 rel=1e-12)

    def test_zero_at_half(self):
        assert liouville.f_series(Fraction(1, 2), 2000).value == 0.0

    def test_tail_metadata(self):
        sv = liouville.f_series(Fraction(1, 3), 250)
        assert sv.tail_bound == 1 / 250
        assert sv.terms == 250

    def test_needs_positive_terms(self):
        with pytest.raises(errors.DomainError):
            liouville.f_series(Fraction(1, 3), 0)

    def test_table_is_the_exact_size_under_the_gate(self, monkeypatch):
        # the table holds exactly 0..n_max, so every n_max the gate admits
        # is served, and the first it refuses is refused by the sieve
        monkeypatch.setattr(ntcore, "_TABLE_MAX", 10_000)
        liouville._lam.cache_clear()
        lam = liouville._lam(9999)
        assert len(lam) == 10_000
        assert [int(v) for v in lam[-50:]] == [
            liouville_factor(n) for n in range(9950, 10_000)]
        assert liouville._lam(9999) is lam
        with pytest.raises(errors.DomainError,
                           match="would have 10001 entries, above the "
                                 "limit of 10000"):
            liouville.f_series(Fraction(1, 3), 10_000)

    @given(st.fractions(Fraction(1, 100), Fraction(1, 2)))
    def test_prefix_agreement_with_character_series(self, x):
        # chi mod 163 equals lambda through n = 40, and both series share
        # one sine kernel, so the 40-term partial sums are bitwise equal
        f40 = liouville.f_series(x, 40).value
        g40 = fq.fq_series(163, x, 40).value
        assert f40 == g40


class TestAgreement:
    @pytest.mark.parametrize("q,n,p", [
        (163, 40, 41), (11, 2, 3), (7, 1, 2), (2647, 1, 2), (43, 10, 11),
    ])
    def test_known_lengths(self, q, n, p):
        rec = liouville.agreement_length(ntcore.quad_char(q))
        assert rec == liouville.AgreementRecord(q, n, p)

    def test_definition_holds(self):
        for q in (11, 19, 43, 163, 67):
            rec = liouville.agreement_length(ntcore.quad_char(q))
            for p in simple_primes(rec.n_agree):
                assert ntcore.jacobi(p, q) == -1, (q, p)
            assert ntcore.is_prime(rec.first_mismatch)
            assert ntcore.jacobi(rec.first_mismatch, q) != -1

    def test_accepts_bare_modulus(self):
        assert liouville.agreement_length(163).n_agree == 40


class TestImitators:
    def test_small_targets(self):
        assert liouville.find_imitator(1) == 11
        assert liouville.find_imitator(2) == 11

    def test_agreement_40_is_163(self):
        assert liouville.find_imitator(40) == 163

    def test_minimality_of_163(self):
        for q in ntcore.primes_in_range(5, 162, residue=3, modulus=8):
            assert liouville.agreement_length(int(q)).n_agree < 40, q

    def test_huge_ceiling_enumerates_only_small_windows(self, monkeypatch):
        # the candidates come in windows [lo, 4*lo], so the answer 163 is
        # reached without a sieve anywhere near the ceiling
        his = []
        real = liouville.primes_in_range

        def recording(lo, hi, **kwargs):
            his.append(hi)
            return real(lo, hi, **kwargs)

        monkeypatch.setattr(liouville, "primes_in_range", recording)
        assert liouville.find_imitator(40, 10**18) == 163
        assert his and max(his) <= 4 * 163, his

    def test_budget_exceeded(self):
        with pytest.raises(errors.SearchBudgetExceeded):
            liouville.find_imitator(40, ceiling=100)

    def test_rejects_nonpositive_target(self):
        with pytest.raises(errors.DomainError):
            liouville.find_imitator(0)


class TestFLowerBound:
    def test_positive_case(self):
        fb = liouville.f_lower_bound(Fraction(7, 163), 163)
        assert fb.positive is True
        assert fb.coeff == Fraction(8, 163)
        assert fb.error == 2 / 40
        assert fb.value == pytest.approx(0.0759, abs=2e-4)
        assert fb.value - fb.error > 0

    def test_margin_too_thin(self):
        fb = liouville.f_lower_bound(Fraction(4, 163), 163)
        assert fb.positive is False
        assert fb.value - fb.error < 0

    def test_half_point(self):
        fb = liouville.f_lower_bound(Fraction(1, 2), 163)
        assert fb.coeff == 0
        assert fb.positive is False
        assert fb.value == 0.0

    def test_decision_matches_float_comparison_away_from_ties(self):
        ch = ntcore.quad_char(163)
        for a in range(1, 41):
            fb = liouville.f_lower_bound(Fraction(a, 163), ch)
            assert fb.positive == (fb.value > fb.error), a

    def test_domain(self):
        with pytest.raises(errors.DomainError):
            liouville.f_lower_bound(0, 163)
        with pytest.raises(errors.DomainError):
            liouville.f_lower_bound(Fraction(3, 5), 163)

    def test_bound_is_sound_against_series(self):
        # where the verdict is positive, a long truncation of f itself
        # must stay above zero
        fb = liouville.f_lower_bound(Fraction(7, 163), 163)
        approx_f = liouville.f_series(Fraction(7, 163), 10 ** 5)
        assert fb.positive
        assert approx_f.value > 0
        assert approx_f.value >= fb.value - fb.error - approx_f.tail_bound
