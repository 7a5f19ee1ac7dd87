"""Property tests and differential tests against sympy.

hypothesis and sympy are dev-only tools: the tests skip when either is
missing, and the ghn runtime never imports them.  Examples are derandomized
so that a run is reproducible.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ghn.exact import binom_rat  # noqa: E402
from ghn.sequences import bernoulli, harmonic_p, stirling2  # noqa: E402
from ghn.verifier import binomial_oracle, harmonic_genfunc_first_diff, pan_lemma_series  # noqa: E402

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)
rats = st.fractions(min_value=-4, max_value=4, max_denominator=9)


def _sym(x: Fraction):
    return sympy.Rational(x.numerator, x.denominator)


def _frac(x) -> Fraction:
    x = sympy.Rational(x)
    return Fraction(int(x.p), int(x.q))


@SETTINGS
@given(
    order=st.integers(min_value=1, max_value=12),
    lam=rats,
    mu=rats,
    a=st.lists(rats, min_size=13, max_size=13),
)
def test_pan_lemma_series_matches_binomial_oracle(order, lam, mu, a):
    series = pan_lemma_series(order, lam, mu, a[: order + 1])
    for n in range(order + 1):
        assert series.coeffs[n] == binomial_oracle(n, a, mu, lam)


@SETTINGS
@given(order=st.integers(min_value=1, max_value=30), alpha=rats)
def test_harmonic_genfunc_holds(order, alpha):
    assert harmonic_genfunc_first_diff(order, alpha) is None


@SETTINGS
@given(n=st.integers(min_value=0, max_value=25), p=st.integers(min_value=1, max_value=4), alpha=rats)
def test_harmonic_p_matches_sympy(n, p, alpha):
    j = sympy.Symbol("j", integer=True, positive=True)
    expected = sympy.summation(_sym(alpha) ** j / j**p, (j, 1, n))
    assert harmonic_p(n, p, alpha) == _frac(expected)
    if alpha == 1:
        assert harmonic_p(n, p, 1) == _frac(sympy.harmonic(n, p))


@SETTINGS
@given(p=st.integers(min_value=0, max_value=40), j=st.integers(min_value=0, max_value=45))
def test_stirling2_matches_sympy(p, j):
    assert stirling2(p, j) == int(sympy.functions.combinatorial.numbers.stirling(p, j, kind=2))


@SETTINGS
@given(x=rats, k=st.integers(min_value=-2, max_value=15))
def test_binom_rat_matches_sympy(x, k):
    assert binom_rat(x, k) == _frac(sympy.binomial(_sym(x), k))


def test_bernoulli_matches_sympy():
    for n in range(41):
        expected = _frac(sympy.bernoulli(n))
        if n == 1:
            expected = -expected  # sympy >= 1.12 takes B_1 = +1/2; ghn takes -1/2
        assert bernoulli(n) == expected
