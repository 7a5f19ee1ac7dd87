import random
from fractions import Fraction

import pytest

from ghn.closed_forms import (
    as_np_closed,
    as_p1_closed,
    as_zneg1_alpha1_closed,
    boyadzhiev_ratio_closed,
    concl_item3_lhs,
    concl_item3_rhs,
    concl_item4_lhs,
    concl_item4_rhs,
    generalized_harmonic_relation,
    gould_generalized_rhs,
    idi1_rhs,
    knuth_flajolet_rhs,
    lambda1_case_rhs,
    lemma21_lhs,
    lemma21_rhs,
    lemma21_rhs_ones,
    pan_closed_form,
    second_case_ones_rhs,
    thm33_nabla_rhs,
    thm33_rhs,
)
from ghn.errors import DomainError, OutOfValidityRangeError
from ghn.exact import binom_int
from ghn.registry import _gould_oracle
from ghn.sequences import harmonic, harmonic_p, harmonic_table, skew_harmonic
from ghn.transforms import binomial_transform
from ghn.verifier import binomial_oracle

ONES = [Fraction(1)] * 32


def _rand_seq(rng, length):
    return [Fraction(rng.randint(-50, 50), rng.randint(1, 50)) for _ in range(length)]


# --- telescoped ratio sums -----------------------------------------------------

def test_lemma21_lhs_examples():
    assert lemma21_lhs(ONES, 3, 0) == Fraction(11, 6)  # equals H_3
    b = [Fraction(0), Fraction(5, 7), Fraction(1)]
    lam = Fraction(2, 3)
    assert lemma21_lhs(b, 1, lam) == b[1] / (lam + 1)
    # direct: 2!*(1/(1!*2*3) + 1/(2!*3)) = 2/3
    assert lemma21_lhs(ONES, 2, 1) == Fraction(2, 3)


def test_lemma21_rhs_examples():
    assert lemma21_rhs(ONES, 4, 0) == Fraction(25, 12)  # H_4
    b = [Fraction(0), Fraction(1), Fraction(0), Fraction(0)]
    assert lemma21_rhs(b, 1, Fraction(1, 2)) == Fraction(2, 3)


def test_lemma21_branches_agree_random():
    rng = random.Random(43)
    lambdas = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-1, 2), Fraction(3), Fraction(-7, 3)]
    for _ in range(30):
        b = _rand_seq(rng, 26)
        for lam in lambdas:
            for n in range(1, 26):
                assert lemma21_lhs(b, n, lam) == lemma21_rhs(b, n, lam)


def test_lemma21_ones_branch():
    for n in range(1, 20):
        for lam in (Fraction(1), Fraction(1, 2), Fraction(-7, 3), Fraction(3)):
            assert lemma21_rhs_ones(n, lam) == lemma21_lhs(ONES, n, lam)
    assert lemma21_rhs_ones(6, 0) == harmonic(6)


def test_lemma21_ones_as_printed_differs():
    # the printed numerator C(L+n, n-1) fails the oracle away from coincidences
    lam = Fraction(1, 2)
    assert lemma21_rhs_ones(2, lam, as_printed=True) != lemma21_lhs(ONES, 2, lam)
    # coincidence at lam+1 = n, where C(L+n,n-1) = C(L+n,n)
    assert lemma21_rhs_ones(2, 1, as_printed=True) == lemma21_lhs(ONES, 2, 1)


def test_lemma21_excluded_lambda():
    with pytest.raises(DomainError):
        lemma21_lhs(ONES, 3, -2)
    with pytest.raises(DomainError):
        lemma21_rhs(ONES, 5, Fraction(-4))
    # non-integer negatives are fine
    lemma21_rhs(ONES, 5, Fraction(-7, 3))


def test_ratio_closed_knuth_case():
    # a_k = (-1)^k: full alternating sum equals 1/(L*C(L+n,n))
    lam = Fraction(1, 2)
    direct = sum(Fraction(binom_int(2, k) * (-1) ** k) / (k + lam) for k in range(3))
    assert direct == Fraction(16, 15)
    assert knuth_flajolet_rhs(2, lam) == Fraction(16, 15)
    a = [Fraction((-1) ** k) for k in range(9)]
    for n in range(1, 9):
        for lam in (Fraction(1, 2), Fraction(1, 3), Fraction(5, 2), Fraction(-1, 2)):
            direct = sum(Fraction(binom_int(n, k) * (-1) ** k) / (k + lam) for k in range(n + 1))
            assert direct == knuth_flajolet_rhs(n, lam)
            # theorem form covers the k >= 1 part
            assert boyadzhiev_ratio_closed(a, n, lam) == direct - 1 / lam


def test_knuth_rhs_rejects_poles():
    with pytest.raises(DomainError):
        knuth_flajolet_rhs(4, 0)
    with pytest.raises(DomainError):
        knuth_flajolet_rhs(4, -3)


def test_ratio_closed_lambda0_ones():
    # sum_{k>=1} C(2,k)/k = 5/2 and sum 2^m/m - H_2 = 5/2
    direct = sum(Fraction(binom_int(2, k)) / k for k in range(1, 3))
    assert direct == Fraction(5, 2)
    assert boyadzhiev_ratio_closed(ONES, 2, 0) == Fraction(5, 2)
    assert second_case_ones_rhs(2) == Fraction(5, 2)
    for n in range(1, 26):
        assert boyadzhiev_ratio_closed(ONES, n, 0) == second_case_ones_rhs(n)


def test_ratio_closed_lambda1_delta():
    a = [Fraction(1), Fraction(0), Fraction(0)]
    assert boyadzhiev_ratio_closed(a, 2, 1) == 0
    assert lambda1_case_rhs(a, 2) == 0


def test_ratio_closed_random_vs_oracle():
    rng = random.Random(47)
    lambdas = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-1, 2), Fraction(3), Fraction(-7, 3)]
    for a0_zero in (True, False):
        for _ in range(10):
            a = _rand_seq(rng, 16)
            if a0_zero:
                a[0] = Fraction(0)
            for lam in lambdas:
                for n in range(1, 16):
                    oracle = sum(binom_int(n, k) * a[k] / (k + lam) for k in range(1, n + 1))
                    assert boyadzhiev_ratio_closed(a, n, lam) == oracle
                    if lam == 1:
                        assert lambda1_case_rhs(a, n) == oracle


# --- generalized harmonic relations --------------------------------------------

def test_generalized_harmonic_relation_examples():
    for n in range(1, 10):
        assert generalized_harmonic_relation(n, 1) == harmonic(n)
    assert generalized_harmonic_relation(2, -1) == Fraction(-1, 2)
    assert harmonic_p(2, 1, -1) == Fraction(-1, 2)
    alpha = Fraction(13, 9)
    assert generalized_harmonic_relation(1, alpha) == alpha


def test_generalized_harmonic_relation_random():
    rng = random.Random(53)
    for _ in range(20):
        alpha = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        for n in range(1, 61):
            assert generalized_harmonic_relation(n, alpha) == harmonic_p(n, 1, alpha)


def test_skew_relation_resolves_sign_convention():
    for n in range(1, 41):
        rhs = generalized_harmonic_relation(n, -1)
        assert harmonic_p(n, 1, -1) == rhs
        assert skew_harmonic(n) != rhs  # the printed H^- reading fails


# --- generalized Gould identity -------------------------------------------------

def test_gould_single_term_at_j_equals_n():
    for n in range(1, 10):
        a = Fraction(3, 7)
        assert _gould_oracle(n, n, a) == (-a) ** n / n


def test_gould_hand_checked_point():
    lhs = _gould_oracle(2, 1, Fraction(1, 2))
    rhs = gould_generalized_rhs(2, 1, Fraction(1, 2))
    assert lhs == Fraction(-3, 4)
    assert rhs == Fraction(-3, 4)


def test_gould_holds_for_positive_j():
    grid = [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-1, 2), Fraction(-2, 3)]
    for a in grid:
        for n in range(1, 16):
            for j in range(1, n + 1):
                assert _gould_oracle(n, j, a) == gould_generalized_rhs(n, j, a)


def test_gould_j0_discrepancy_is_harmonic():
    # as printed the j = 0 case drops -b_0 H_n; at a = 1 the right side is 0
    assert _gould_oracle(2, 0, 1) == Fraction(-3, 2)
    assert gould_generalized_rhs(2, 0, 1) == 0
    for a in (Fraction(1), Fraction(1, 2), Fraction(-2, 3)):
        for n in range(1, 16):
            diff = _gould_oracle(n, 0, a) - gould_generalized_rhs(n, 0, a)
            assert diff == -harmonic(n)


# --- Pan closed form -------------------------------------------------------------

def _pan_oracle(n, mu, lam, alpha):
    return sum(
        binom_int(n, k) * mu**k * lam ** (n - k) * harmonic_p(k, 1, alpha)
        for k in range(n + 1)
    )


def test_pan_examples():
    assert _pan_oracle(2, Fraction(1), Fraction(1), Fraction(1)) == Fraction(7, 2)
    assert pan_closed_form(2, 1, 1, 1) == Fraction(7, 2)
    # mu + lam = 0 branch
    assert _pan_oracle(2, Fraction(1), Fraction(-1), Fraction(2)) == 0
    assert pan_closed_form(2, 1, -1, 2) == 0
    for n in range(1, 8):
        alpha = Fraction(5, 3)
        assert pan_closed_form(n, 1, -1, alpha) == Fraction((-1) ** n) * ((1 - alpha) ** n - 1) / n


def test_pan_specializations():
    # skew transform: sum C(n,k) H_k^- = 2^n H_n(1/2), Pan at mu = lam = 1, alpha = -1
    for n in range(0, 20):
        oracle = sum(binom_int(n, k) * skew_harmonic(k) for k in range(n + 1))
        assert oracle == -pan_closed_form(n, 1, 1, -1) == 2**n * harmonic_p(n, 1, Fraction(1, 2))
    # doubled-weight variant: sum C(n,k) 2^k H_k^- = -3^n (H_n(-1/3) - H_n(1/3))
    assert -pan_closed_form(1, 2, 1, -1) == 2
    for n in range(0, 20):
        oracle = sum(binom_int(n, k) * 2**k * skew_harmonic(k) for k in range(n + 1))
        assert oracle == -pan_closed_form(n, 2, 1, -1)
    # half-shift form: sum_{k>=1} C(n,k) H_k(alpha) = 2^n (H_n((1+alpha)/2) - H_n(1/2))
    for alpha in (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)):
        for n in range(0, 16):
            oracle = sum(binom_int(n, k) * harmonic_p(k, 1, alpha) for k in range(1, n + 1))
            assert oracle == pan_closed_form(n, 1, 1, alpha)


def test_pan_at_n_zero():
    # the empty sum is 0, also on the mu + lam = 0 line, where ((1-alpha)^n - 1)/n has no value at n = 0
    for mu, lam in ((1, 1), (2, 1), (Fraction(1, 2), -3), (0, 5), (4, 0), (1, -1), (Fraction(2, 5), Fraction(-2, 5))):
        assert pan_closed_form(0, mu, lam, Fraction(2, 3)) == 0
    assert pan_closed_form(0, 1, -1, 2) == 0
    with pytest.raises(ValueError):
        pan_closed_form(-1, 1, 1, 2)


def test_idi1_rhs_matches_alternating_oracle():
    for alpha in (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-1, 3)):
        for n in range(1, 26):
            oracle = sum(
                binom_int(n, k) * (-1) ** k * harmonic_p(k, 1, alpha) for k in range(n + 1)
            )
            assert oracle == idi1_rhs(n, alpha)


def test_alpha_closed_forms_stay_exact_at_an_int_alpha():
    # neither coerces alpha, so an int alpha must not reach int / int
    assert isinstance(idi1_rhs(3, 2), Fraction) and idi1_rhs(3, 2) == Fraction(-2, 3)
    assert isinstance(generalized_harmonic_relation(3, 2), Fraction)
    assert generalized_harmonic_relation(3, 2) == harmonic_p(3, 1, 2)


# --- alternating weighted transform (eqnnew8 / eqnnew9) ---------------------------

def _thm33_oracle(c, n, alpha):
    return sum(
        binom_int(n, k) * (-1) ** k * harmonic_p(k, 1, alpha) * c[k] for k in range(n + 1)
    )


def test_thm33_hand_checked_points():
    ones = [Fraction(1)] * 3
    assert _thm33_oracle(ones, 2, Fraction(1)) == Fraction(-1, 2)
    assert thm33_rhs(ones, 2, 1) == Fraction(-1, 2)
    assert thm33_rhs(ones[:2], 1, 1) == -1
    ident = [Fraction(k) for k in range(3)]
    assert _thm33_oracle(ident, 2, Fraction(1)) == 1
    assert thm33_rhs(ident, 2, 1) == 1


def test_thm33_random_sequences_and_alphas():
    rng = random.Random(59)
    alphas = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(0)]
    for _ in range(8):
        c = _rand_seq(rng, 13)
        for alpha in alphas:
            for n in range(1, 13):
                oracle = _thm33_oracle(c, n, alpha)
                assert thm33_rhs(c, n, alpha) == oracle
                assert thm33_nabla_rhs(c, n, alpha) == oracle


# --- power-weighted alternating sums (section 4 forms) ----------------------------

def _as_oracle(n, p, z, alpha):
    return sum(
        binom_int(n, j) * j**p * harmonic_p(j, 1, alpha) * z**j for j in range(n + 1)
    )


def test_as_np_hand_checked():
    assert _as_oracle(2, 1, Fraction(1), Fraction(1)) == 5
    assert as_np_closed(2, 1, 1, 1) == 5
    for z in (Fraction(2), Fraction(-1, 2)):
        alpha = Fraction(3, 4)
        assert as_np_closed(1, 1, z, alpha) == alpha * z  # single surviving term


def test_as_np_validity_range():
    with pytest.raises(OutOfValidityRangeError):
        as_np_closed(2, 3, Fraction(1), Fraction(1))
    with pytest.raises(OutOfValidityRangeError):
        as_zneg1_alpha1_closed(2, 0)


def test_as_np_grid_with_oracle():
    zs = [Fraction(1), Fraction(2), Fraction(-1, 2), Fraction(-1)]
    alphas = [Fraction(1), Fraction(-1), Fraction(1, 2)]
    for z in zs:
        for alpha in alphas:
            for n in range(1, 11):
                for p in range(1, min(n, 4) + 1):
                    assert as_np_closed(n, p, z, alpha) == _as_oracle(n, p, z, alpha)


def test_as_p1_expansion():
    for z in (Fraction(1), Fraction(2), Fraction(-1, 2)):
        for alpha in (Fraction(1), Fraction(-1), Fraction(1, 2)):
            for n in range(1, 13):
                assert as_p1_closed(n, z, alpha) == _as_oracle(n, 1, z, alpha)
    with pytest.raises(DomainError):
        as_p1_closed(3, -1, Fraction(1))


def test_zneg1_alpha1_corrected_vs_printed():
    # oracle at p = n = 2 is 4; the printed weight C(n,k) gives 9/2
    assert _as_oracle(2, 2, Fraction(-1), Fraction(1)) == 4
    assert as_zneg1_alpha1_closed(2, 2) == 4
    assert as_zneg1_alpha1_closed(2, 2, as_printed=True) == Fraction(9, 2)
    for n in range(1, 15):
        for p in range(1, min(n, 5) + 1):
            assert as_zneg1_alpha1_closed(n, p) == _as_oracle(n, p, Fraction(-1), Fraction(1))


# --- concluding sums ---------------------------------------------------------------

def test_item2_pair():
    assert binomial_oracle(2, harmonic_table(2, 1, 2), mu=-1) == idi1_rhs(2, Fraction(2)) == 0
    for alpha in (Fraction(1), Fraction(-1), Fraction(1, 2)):
        for n in range(1, 21):
            assert binomial_oracle(n, harmonic_table(n, 1, alpha), mu=-1) == idi1_rhs(n, alpha)


def test_item3_alpha1_hand_check():
    assert concl_item3_lhs(3, Fraction(1)) == Fraction(85, 36)
    assert concl_item3_rhs(3, Fraction(1)) == Fraction(85, 36)


def test_item3_weight2_reading_agrees_on_grid():
    for alpha in (Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(-1, 3)):
        for n in range(1, 21):
            # conjecture confirmed on this grid (not asserted in the registry)
            assert concl_item3_lhs(n, alpha) == concl_item3_rhs(n, alpha)


def test_item4_readings_disagree():
    lhs = concl_item4_lhs(2, Fraction(1))
    assert lhs == Fraction(-1, 4)
    assert concl_item4_rhs(2, Fraction(1)) == Fraction(-5, 4)
    assert lhs != concl_item4_rhs(2, Fraction(1), reading="square")


def test_conclusion_rejects_unknown_reading():
    with pytest.raises(ValueError):
        concl_item3_rhs(3, Fraction(1), reading="other")
    with pytest.raises(ValueError):
        concl_item4_rhs(3, Fraction(1), reading="other")
