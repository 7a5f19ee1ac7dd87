import random
from fractions import Fraction

import pytest

from ghn.errors import SeqSpecError
from ghn.exact import binom_int
from ghn.sequences import (
    SeqSpec,
    bernoulli,
    fibonacci,
    harmonic,
    harmonic_p,
    harmonic_table,
    laguerre,
    lucas,
    materialize,
    parse_seq_spec,
    seq_spec_text,
    skew_harmonic,
    stirling2,
)


def test_harmonic_p_examples():
    assert harmonic_p(0, 1, Fraction(9, 7)) == 0
    assert harmonic_p(3, 1, 1) == Fraction(11, 6)
    assert harmonic_p(2, 2, Fraction(1, 2)) == Fraction(9, 16)


def test_harmonic_table_running_sums():
    assert harmonic_table(3, 1, 1) == [0, 1, Fraction(3, 2), Fraction(11, 6)]
    assert harmonic_table(2, 2, Fraction(1, 2)) == [0, Fraction(1, 2), Fraction(9, 16)]
    assert harmonic_table(0, 1, 5) == [0]
    with pytest.raises(ValueError):
        harmonic_table(-1, 1, 1)
    with pytest.raises(ValueError):
        harmonic_table(3, 0, 1)


def test_harmonic_values():
    assert harmonic(0) == 0
    assert harmonic(2) == Fraction(3, 2)
    assert harmonic(4) == Fraction(25, 12)


def test_skew_harmonic_values():
    assert skew_harmonic(1) == 1
    assert skew_harmonic(2) == Fraction(1, 2)
    assert skew_harmonic(3) == Fraction(5, 6)


def test_skew_harmonic_convention():
    for n in range(61):
        assert skew_harmonic(n) == -harmonic_p(n, 1, -1)


def test_harmonic_p_increment_property():
    rng = random.Random(5)
    for _ in range(20):
        alpha = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        for n in range(1, 61):
            delta = harmonic_p(n, 1, alpha) - harmonic_p(n - 1, 1, alpha)
            assert delta == alpha**n / n


def test_stirling2_values():
    assert stirling2(3, 2) == 3
    assert stirling2(4, 1) == 1
    assert stirling2(4, 2) == 7
    assert stirling2(4, 3) == 6
    for p in range(9):
        assert stirling2(p, p) == 1
    assert stirling2(2, 5) == 0


def test_stirling2_power_expansion():
    # sum_j S(p,j) j! C(n,j) = n^p, against the plain integer power
    import math

    for p in range(9):
        for n in range(13):
            total = sum(stirling2(p, j) * math.factorial(j) * binom_int(n, j) for j in range(p + 1))
            assert total == n**p


def test_fibonacci_lucas():
    assert fibonacci(0) == 0
    assert fibonacci(10) == 55
    assert lucas(0) == 2
    assert [lucas(n) for n in range(6)] == [2, 1, 3, 4, 7, 11]


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_convention_forced_by_transform():
    # sum_k C(n,k) B_k = (-1)^n B_n; at n = 1 this forces B_1 = -1/2
    for n in range(21):
        total = sum(binom_int(n, k) * bernoulli(k) for k in range(n + 1))
        assert total == (-1) ** n * bernoulli(n)


def test_fibonacci_lucas_transform_fixed_points():
    for n in range(26):
        fsum = sum(binom_int(n, k) * fibonacci(k) for k in range(n + 1))
        assert fsum == fibonacci(2 * n)
        lsum = sum(binom_int(n, k) * lucas(k) for k in range(n + 1))
        assert lsum == lucas(2 * n)


def test_laguerre_values():
    assert laguerre(0, Fraction(13, 5)) == 1
    assert laguerre(1, 1) == 0
    assert laguerre(2, Fraction(1, 2)) == Fraction(1, 8)


def test_laguerre_matches_recurrence():
    x = Fraction(2, 5)
    vals = [Fraction(1), 1 - x]
    for n in range(2, 15):
        vals.append(((2 * n - 1 - x) * vals[n - 1] - (n - 1) * vals[n - 2]) / n)
    for n in range(15):
        assert laguerre(n, x) == vals[n]


def test_materialize_examples():
    spec = parse_seq_spec("harmonic:p=1,alpha=1")
    assert materialize(spec, 2) == [0, 1, Fraction(3, 2)]
    spec = parse_seq_spec("powers:base=-2")
    assert materialize(spec, 2) == [1, -2, 4]
    spec = parse_seq_spec("laguerre:x=1")
    assert materialize(spec, 1) == [1, 0]
    spec = parse_seq_spec("fibonacci:doubled=true")
    assert materialize(spec, 3) == [0, 1, 3, 8]


def test_materialize_returns_fractions():
    for text in ("fibonacci", "lucas:doubled=true", "stirling_row:p=3", "bernoulli", "skew"):
        values = materialize(parse_seq_spec(text), 6)
        assert all(isinstance(v, Fraction) for v in values)


def test_spec_text_round_trip():
    for text in (
        "harmonic:p=2,alpha=1/3",
        "laguerre:x=2/5",
        "fibonacci:doubled=true",
        "powers:base=-2",
        "stirling_row:p=4",
        "skew",
    ):
        spec = parse_seq_spec(text)
        assert parse_seq_spec(seq_spec_text(spec)) == spec


def test_bad_specs_rejected():
    with pytest.raises(SeqSpecError):
        parse_seq_spec("nosuchkind")
    with pytest.raises(SeqSpecError):
        parse_seq_spec("harmonic:p=0")
    with pytest.raises(SeqSpecError):
        parse_seq_spec("laguerre")  # missing x
    with pytest.raises(SeqSpecError):
        parse_seq_spec("fibonacci:x=1")
    with pytest.raises(SeqSpecError):
        parse_seq_spec("powers:base=oops")
    with pytest.raises(SeqSpecError):
        SeqSpec("unknown")
    for text in ("harmonic:alpha=1,alpha=2", "fibonacci:doubled=true,doubled=false", "powers:base=2, base=2"):
        with pytest.raises(SeqSpecError, match="given twice"):
            parse_seq_spec(text)  # a repeated key, even with the same value
    for doubled in (Fraction(2), Fraction(1, 2)):  # library callers hold doubled to 0 or 1 as well
        with pytest.raises(SeqSpecError):
            SeqSpec("lucas", {"doubled": doubled})
