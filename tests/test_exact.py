import math
import random
from fractions import Fraction

import pytest

from ghn.exact import RAT_DIGITS, _shared, binom_int, binom_rat, hockey_stick_sum, parse_rat, shared_run


def test_binom_int_small_values():
    assert binom_int(5, 2) == 10
    assert binom_int(4, 7) == 0
    assert binom_int(0, 0) == 1
    assert binom_int(6, -1) == 0


def test_binom_int_rejects_negative_n():
    with pytest.raises(ValueError):
        binom_int(-1, 0)


def test_binom_rat_examples():
    assert binom_rat(Fraction(5, 2), 2) == Fraction(15, 8)
    assert binom_rat(Fraction(7, 3), 0) == 1
    assert binom_rat(-1, 3) == -1
    assert binom_rat(Fraction(1, 2), -2) == 0


def test_parse_rat_caps_digits():
    assert parse_rat(" -3/7 ") == Fraction(-3, 7)
    assert parse_rat("1.5e-98") == Fraction(3, 2 * 10**98)
    assert parse_rat("9" * RAT_DIGITS) == 10**RAT_DIGITS - 1
    for text in ["9" * (RAT_DIGITS + 1), "1/" + "3" * (RAT_DIGITS + 1), "1e100", "1e-100"]:
        with pytest.raises(ValueError):
            parse_rat(text)
    # the exponent is bounded before Fraction expands it, whatever the mantissa
    for text in ["1e999999999", "0e999999999", "2.5E-999999999"]:
        with pytest.raises(ValueError, match="exponent"):
            parse_rat(text)
    # the exponent bound is RAT_DIGITS + len(text): an exponent at it reaches the digit
    # check, and one past it does not
    for text in ["1e105", "1e-106"]:
        with pytest.raises(ValueError, match="numerator and denominator may have at most"):
            parse_rat(text)
    for text in ["1e106", "1e-107"]:
        with pytest.raises(ValueError, match="exponent"):
            parse_rat(text)


def test_hockey_stick_examples():
    assert hockey_stick_sum(0, 3) == 4
    assert hockey_stick_sum(Fraction(3, 7), 0) == 1
    # direct sum: 1 + 3/2 + 15/8 = 35/8, equal to C(1/2+3, 2)
    direct = sum(binom_rat(Fraction(1, 2) + m, m) for m in range(3))
    assert direct == Fraction(35, 8)
    assert hockey_stick_sum(Fraction(1, 2), 2) == Fraction(35, 8)


def test_binom_rat_matches_binom_int_on_integers():
    for n in range(41):
        for k in range(n + 1):
            assert binom_rat(Fraction(n), k) == binom_int(n, k)


def test_pascal_rule_random_rationals():
    rng = random.Random(7)
    for _ in range(200):
        x = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        k = rng.randint(0, 30)
        assert binom_rat(x, k) == binom_rat(x - 1, k) + binom_rat(x - 1, k - 1)


def test_hockey_stick_closed_form_random():
    rng = random.Random(11)
    for _ in range(100):
        x = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        n = rng.randint(0, 30)
        assert hockey_stick_sum(x, n) == binom_rat(x + n + 1, n)


def test_results_stored_reduced():
    rng = random.Random(3)
    for _ in range(50):
        x = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        v = binom_rat(x, rng.randint(0, 12))
        assert math.gcd(v.numerator, v.denominator) == 1
        assert v.denominator > 0


def test_rat_string_round_trip():
    assert str(Fraction(-3, 4)) == "-3/4"
    assert str(Fraction(5)) == "5"
    assert parse_rat("-3/4") == Fraction(-3, 4)
    assert parse_rat("7") == 7


def _counting(value):
    """A build function that returns value and counts its calls."""

    def build():
        build.calls += 1
        return value

    build.calls = 0
    return build


def test_shared_builds_on_every_call_with_no_run_open():
    build = _counting("v")
    assert [_shared("k", build) for _ in range(3)] == ["v"] * 3
    assert build.calls == 3


def test_shared_builds_once_per_key_inside_a_run():
    first, second = _counting([1]), _counting([2])
    with shared_run():
        values = [_shared("a", first), _shared("b", second), _shared("a", second), _shared("b", first)]
    assert values == [[1], [2], [1], [2]]
    assert values[0] is values[2]
    assert (first.calls, second.calls) == (1, 1)


def test_shared_run_restores_the_outer_state():
    with shared_run():
        assert _shared("k", lambda: "outer") == "outer"
        with shared_run():
            # a nested run starts empty and leaves the outer memo as it was
            assert _shared("k", lambda: "inner") == "inner"
            assert _shared("k", lambda: "unused") == "inner"
        assert _shared("k", lambda: "unused") == "outer"
    assert _shared("k", lambda: "no run") == "no run"
    # an exception that ends a run drops its memo too
    with pytest.raises(RuntimeError):
        with shared_run():
            _shared("k", lambda: "dropped")
            raise RuntimeError
    build = _counting("fresh")
    assert [_shared("k", build) for _ in range(2)] == ["fresh"] * 2
    assert build.calls == 2
