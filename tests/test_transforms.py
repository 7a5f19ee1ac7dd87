import random
from fractions import Fraction

import pytest

from ghn.errors import OutOfValidityRangeError
from ghn.exact import binom_int
from ghn.sequences import harmonic
from ghn.transforms import (
    binomial_transform,
    inverse_binomial_transform,
    sanchez_transform,
    sanchez_weight,
    sanchez_weight_p1,
    sanchez_weight_p2,
    sanchez_weight_p3,
    weighted_nabla,
)


def _rand_seq(rng, length):
    return [Fraction(rng.randint(-50, 50), rng.randint(1, 50)) for _ in range(length)]


def test_transform_examples():
    assert binomial_transform([1] * 8) == [2**n for n in range(8)]
    assert binomial_transform([1, 0, 0, 0]) == [1, 1, 1, 1]
    assert binomial_transform([0, 1, Fraction(3, 2)]) == [0, 1, Fraction(7, 2)]


def test_inverse_transform_examples():
    assert inverse_binomial_transform([2**n for n in range(8)]) == [1] * 8
    assert inverse_binomial_transform([1] * 6) == [1, 0, 0, 0, 0, 0]


def test_round_trip_random():
    rng = random.Random(17)
    for _ in range(100):
        a = _rand_seq(rng, 30)
        assert inverse_binomial_transform(binomial_transform(a)) == a


def test_empty_sequence_rejected():
    with pytest.raises(ValueError):
        binomial_transform([])
    with pytest.raises(ValueError):
        inverse_binomial_transform([])


def test_sanchez_weight_examples():
    assert sanchez_weight(5, 2, 1) == 20
    assert sanchez_weight(4, 3, 2) == 36
    for n in range(8):
        for k in range(n + 1):
            assert sanchez_weight(n, k, 0) == binom_int(n, k)


def test_sanchez_weight_exactness():
    for n in range(16):
        for k in range(n + 1):
            for p in range(7):
                assert sanchez_weight(n, k, p) == binom_int(n, k) * k**p


def test_sanchez_printed_specializations():
    for n in range(13):
        for k in range(n + 1):
            assert sanchez_weight_p1(n, k) == binom_int(n, k) * k
            assert sanchez_weight_p2(n, k) == binom_int(n, k) * k**2
            assert sanchez_weight_p3(n, k) == binom_int(n, k) * k**3


def test_sanchez_transform_examples():
    b = binomial_transform([Fraction(1)] * 4)
    assert sanchez_transform(b, 3, 1) == 12
    rng = random.Random(19)
    seq = _rand_seq(rng, 7)
    tb = binomial_transform(seq)
    for n in range(7):
        assert sanchez_transform(tb, n, 0) == tb[n]
    # harmonic weights: oracle sum C(2,k)*k*H_k = 2*1 + 2*(3/2) = 5
    h = [harmonic(k) for k in range(3)]
    oracle = sum(binom_int(2, k) * k * h[k] for k in range(3))
    assert oracle == 5
    assert sanchez_transform(binomial_transform(h), 2, 1) == 5


def test_sanchez_transform_consistency_random():
    rng = random.Random(29)
    for _ in range(8):
        a = _rand_seq(rng, 13)
        b = binomial_transform(a)
        for n in range(13):
            for p in range(n + 1):
                oracle = sum(binom_int(n, k) * k**p * a[k] for k in range(n + 1))
                assert sanchez_transform(b, n, p) == oracle


def test_sanchez_transform_validity_range():
    b = binomial_transform([Fraction(1)] * 4)
    with pytest.raises(OutOfValidityRangeError):
        sanchez_transform(b, 2, 3)


def test_weighted_nabla_collapse_at_m_equals_n():
    rng = random.Random(37)
    for n in range(1, 10):
        b = _rand_seq(rng, n + 1)
        direct = sum(binom_int(n, j) * (-1) ** (n - j) * b[j] for j in range(n + 1))
        assert weighted_nabla(b, n)[n] == direct


def test_weighted_nabla_constant_sequence():
    ones = [Fraction(1)] * 12
    for n in range(1, 12):
        # annihilates constants for 1 <= m < n; at m = 0 only j = n survives
        row = weighted_nabla(ones, n)
        assert row[1:n] == [0] * (n - 1)
        assert row[0] == 1


def test_weighted_nabla_direct_evaluation():
    # sum_j C(2,j)C(j,2-m)(-1)^(2-j) b_j with b = [0,1,4]: b_2 = 4, -2*1 + 2*4 = 6, -2*1 + 4 = 2
    assert weighted_nabla([0, 1, 4], 2) == [4, 6, 2]
    with pytest.raises(ValueError):
        weighted_nabla([0, 1], 2)
