import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

from ghn.closed_forms import (
    _lemma21_lhs_row,
    as_np_closed,
    as_p1_closed,
    as_zneg1_alpha1_closed,
    boyadzhiev_ratio_closed,
    check_lambda_domain,
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
from ghn.exact import binom_int, binom_rat, hockey_stick_sum, shared_run
from ghn.registry import (
    _bernoulli_alternating,
    _gould_oracle,
    _gould_side,
    _ht_sum,
    _laguerre_recurrence,
    _lemma21_side,
    _ratio_row,
    _ratio_side,
    _thm33_side,
)
from ghn.sequences import _harmonic_num, harmonic, harmonic_p, harmonic_table, skew_harmonic
from ghn.transforms import binomial_transform
from ghn.verifier import _binomial_num, _binomial_row, binomial_oracle

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


def test_knuth_rhs_at_n_zero():
    # the empty product: C(lambda, 0) = 1, so the sum is its one term 1/lambda
    for lam in (Fraction(3, 2), Fraction(-1, 2), Fraction(7)):
        assert knuth_flajolet_rhs(0, lam) == 1 / lam
    with pytest.raises(ValueError, match="n must be >= 0"):
        knuth_flajolet_rhs(-1, Fraction(3, 2))


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


@pytest.mark.parametrize("closed_form", [generalized_harmonic_relation, idi1_rhs])
def test_alpha_closed_forms_coerce_a_float_alpha(closed_form):
    # a float alpha goes through Fraction(), like every other closed form's arguments
    value = closed_form(3, 0.5)
    assert type(value) is Fraction and value == closed_form(3, Fraction(1, 2))


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


# --- scalar coercion ---------------------------------------------------------------

_C = [Fraction(k * k - 3, k + 2) for k in range(7)]


def _with_run(fn):
    """fn called inside a verifier run, so that its memo keys are built."""

    def run(x):
        with shared_run(6):
            return fn(x)

    return run


# each kernel that reads a scalar as its numerator and denominator, called with that scalar at x
COERCING_SITES = {
    "pan_closed_form:mu": lambda x: pan_closed_form(5, x, Fraction(2, 3), Fraction(-1, 2)),
    "pan_closed_form:lam": lambda x: pan_closed_form(5, Fraction(2, 3), x, Fraction(-1, 2)),
    "pan_closed_form:alpha": lambda x: pan_closed_form(5, Fraction(2, 3), Fraction(-1, 2), x),
    "_binomial_num:mu": lambda x: _binomial_num(_binomial_row([1, -2, 3, 5], 3), 7, 3, x, Fraction(3, 5)),
    "_binomial_num:lam": lambda x: _binomial_num(_binomial_row([1, -2, 3, 5], 3), 7, 3, Fraction(3, 5), x),
    "check_lambda_domain": lambda x: check_lambda_domain(x, 4),
    "_lemma21_lhs_row": lambda x: _lemma21_lhs_row(4, x),
    "_ratio_row": lambda x: _ratio_row(4, x),
    "gould_generalized_rhs": lambda x: gould_generalized_rhs(5, 2, x),
    "thm33_rhs": lambda x: thm33_rhs(_C, 5, x),
    "thm33_nabla_rhs": lambda x: thm33_nabla_rhs(_C, 5, x),
    "_harmonic_num": lambda x: _harmonic_num(6, 2, x),
    "concl_item3_rhs": lambda x: concl_item3_rhs(6, x),
    "concl_item3_rhs:square": lambda x: concl_item3_rhs(6, x, "square"),
    "concl_item4_rhs": lambda x: concl_item4_rhs(6, x),
    "concl_item4_rhs:square": lambda x: concl_item4_rhs(6, x, "square"),
    "as_p1_closed:z": lambda x: as_p1_closed(5, x, Fraction(2, 3)),
    "as_p1_closed:alpha": lambda x: as_p1_closed(5, Fraction(2, 3), x),
    "_laguerre_recurrence": lambda x: _laguerre_recurrence(6, x),
    "binom_rat": lambda x: binom_rat(x, 4),
    "hockey_stick_sum": lambda x: hockey_stick_sum(x, 4),
    # the memo key is built from the coerced scalar
    "lemma21_rhs in a run": _with_run(lambda x: lemma21_rhs(_C, 5, x)),
    "thm33_rhs in a run": _with_run(lambda x: thm33_rhs(_C, 5, x)),
    "thm33_nabla_rhs in a run": _with_run(lambda x: thm33_nabla_rhs(_C, 5, x)),
    "as_np_closed:z in a run": _with_run(lambda x: as_np_closed(5, 2, x, Fraction(1, 2))),
    "as_np_closed:alpha in a run": _with_run(lambda x: as_np_closed(5, 2, Fraction(1, 2), x)),
    # the oracle rows, read through registry._oracle_row
    "_ht_sum in a run": _with_run(lambda x: _ht_sum(x, 5, Fraction(2, 3), Fraction(-1, 2))),
    "_ratio_side in a run": _with_run(lambda x: _ratio_side(_C, 5, x)),
    "_lemma21_side in a run": _with_run(lambda x: _lemma21_side(_C, 5, x)),
    "_thm33_side in a run": _with_run(lambda x: _thm33_side(_C, 5, x)),
    "_gould_side in a run": _with_run(lambda x: _gould_side(5, 2, x)),
}


@pytest.mark.parametrize("site", sorted(COERCING_SITES))
@pytest.mark.parametrize("x", [0.5, -2.25, "-7/3", "5"])
def test_a_float_or_string_scalar_reads_as_its_fraction(site, x):
    # a scalar that is not a Fraction still goes through Fraction(), and one that is is read as it is
    call = COERCING_SITES[site]
    value = call(x)
    assert value == call(Fraction(x))
    assert type(value) is type(call(Fraction(x)))


def _type_tests_of_fraction(node, where: str, found: set) -> None:
    """Add to found the innermost function (or "<module>") around each `type(...) is Fraction` test under node."""
    for child in ast.iter_child_nodes(node):
        if (
            isinstance(child, ast.Compare)
            and isinstance(child.left, ast.Call)
            and getattr(child.left.func, "id", None) == "type"
            and any(getattr(right, "id", None) == "Fraction" for right in child.comparators)
        ):
            found.add(where)
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
        _type_tests_of_fraction(child, inner, found)


def test_a_scalar_is_coerced_inline_only_where_pinned():
    # a scalar is read through exact._ratio (closed forms) or exact._oracle_ratio (oracles),
    # and the row readers closed_forms._row and registry._oracle_row call those; only
    # check_lambda_domain and _harmonic_num, which both sides of a row reach, read inline
    package = Path(__file__).resolve().parent.parent / "src" / "ghn"
    found = set()
    for path in sorted(package.glob("*.py")):
        where = set()
        _type_tests_of_fraction(ast.parse(path.read_text(encoding="utf-8")), "<module>", where)
        found |= {f"{path.stem}.{name}" for name in where}
    assert found == {"exact._ratio", "exact._oracle_ratio", "closed_forms.check_lambda_domain", "sequences._harmonic_num"}


# --- one Fraction per value ----------------------------------------------------------

_ALPHA, _Z = Fraction(-7, 3), Fraction(2, 5)

# each side that sums integer numerators over one denominator, at a generic point
ONE_FRACTION_SIDES = {
    "concl_item3_rhs": lambda: concl_item3_rhs(12, _ALPHA),
    "concl_item3_rhs:square": lambda: concl_item3_rhs(12, _ALPHA, "square"),
    "concl_item4_rhs": lambda: concl_item4_rhs(12, _ALPHA),
    "concl_item4_rhs:square": lambda: concl_item4_rhs(12, _ALPHA, "square"),
    "as_p1_closed": lambda: as_p1_closed(12, _Z, _ALPHA),
    "as_zneg1_alpha1_closed": lambda: as_zneg1_alpha1_closed(12, 4),
    "as_zneg1_alpha1_closed:as_printed": lambda: as_zneg1_alpha1_closed(12, 4, as_printed=True),
    "lambda1_case_rhs in a run": lambda: lambda1_case_rhs(_C, 6),
    "_bernoulli_alternating": lambda: _bernoulli_alternating(12),
    "_laguerre_recurrence": lambda: _laguerre_recurrence(12, _ALPHA),
}


@pytest.mark.parametrize("side", sorted(ONE_FRACTION_SIDES))
def test_an_integer_side_builds_one_fraction(monkeypatch, side):
    call = ONE_FRACTION_SIDES[side]
    built = 0
    real = Fraction.__new__

    def counting(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return real(cls, *args, **kwargs)

    with shared_run(12):
        call()  # fills the run memo: lambda1_case_rhs reads the transform's numerators from it
        with monkeypatch.context() as m:
            m.setattr(Fraction, "__new__", staticmethod(counting))
            value = call()
    assert type(value) is Fraction and value == call()
    assert built == 1
