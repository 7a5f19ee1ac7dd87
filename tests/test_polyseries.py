import copy
import pickle
import random
from fractions import Fraction

import pytest

from ghn.errors import CompositionDomainError
from ghn.polyseries import PolyQ, TruncSeries, geometric, harmonic_poly, log_one_minus
from ghn.sequences import harmonic, harmonic_p, skew_harmonic
from ghn.verifier import harmonic_genfunc, pan_lemma_series


def _rand_rat(rng):
    return Fraction(rng.randint(-50, 50), rng.randint(1, 50))


def test_poly_canonical_form():
    assert PolyQ([0, 1]) + PolyQ([0, -1]) == PolyQ()
    assert PolyQ([1, 2, 0, 0]).coeffs == (1, 2)
    assert PolyQ().degree == -1
    assert PolyQ([0, 0]).is_zero()


def test_poly_ring_ops():
    p = PolyQ([1, 2, 3])
    q = PolyQ([0, 1])
    assert (p * PolyQ()).is_zero()
    assert p * q == PolyQ([0, 1, 2, 3])
    assert p - p == PolyQ()
    assert 2 * q == PolyQ([0, 2])
    assert q**3 == PolyQ([0, 0, 0, 1])
    assert 1 - q == PolyQ([1, -1]) and q - Fraction(1, 2) == PolyQ([Fraction(-1, 2), 1])  # scalars, either side


@pytest.mark.parametrize(
    "op",
    [
        lambda: PolyQ([1, 2]) * TruncSeries([1, 2]),
        lambda: TruncSeries([1, 2]) * PolyQ([1, 2]),
        lambda: PolyQ([1]) * 1.5,
        lambda: 1.5 * TruncSeries([1]),
        lambda: PolyQ([1]) + 1.5,
        lambda: 1.5 - PolyQ([1]),
        lambda: PolyQ([1]) + TruncSeries([1]),
    ],
)
def test_mixed_operands_are_unsupported(op):
    # a scalar is an int or a Fraction; any other operand is Python's own TypeError
    with pytest.raises(TypeError, match="unsupported operand type"):
        op()


@pytest.mark.parametrize(
    "build",
    [
        lambda: PolyQ([0.1]),
        lambda: PolyQ([1, "1/3"]),
        lambda: TruncSeries(["1/3"], 2),
        lambda: TruncSeries([1, 0.5]),
        lambda: pan_lemma_series(3, 1, 1, [0.5, 0, 0, 0]),
    ],
)
def test_a_coefficient_that_is_no_int_or_fraction_raises(build):
    # as everywhere else in ghn, a float or a string term is refused, not read as Fraction() reads it
    with pytest.raises(TypeError, match="common_denominator takes int and Fraction values"):
        build()


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: log_one_minus(0.5, 3), "c"),
        (lambda: log_one_minus(0.5, 0), "c"),
        (lambda: geometric(0.1, 1), "c"),
        (lambda: pan_lemma_series(2, 0.5, 1, [1, 0, 0]), "lambda"),
        (lambda: pan_lemma_series(2, 1, 0.5, [1, 0, 0]), "mu"),
        (lambda: harmonic_genfunc(3, 0.5), "alpha"),
    ],
    ids=["log_one_minus", "log_one_minus-order-0", "geometric", "pan_lemma_series-lambda", "pan_lemma_series-mu", "harmonic_genfunc"],
)
def test_a_float_scalar_raises(build, name):
    # a float would be read as its binary expansion: geometric(0.1, 1) printed 3602879701896397/36028797018963968*t
    with pytest.raises(TypeError, match=f"^{name} must be an int or a Fraction, not float$"):
        build()


def test_poly_eval_horner():
    h2 = PolyQ([0, 1, Fraction(1, 2)])
    assert h2(1) == Fraction(3, 2)
    assert h2(Fraction(-1)) == Fraction(-1, 2)
    assert PolyQ()(Fraction(5, 3)) == 0


def test_harmonic_poly():
    assert harmonic_poly(0, 1) == PolyQ()
    assert harmonic_poly(2, 1) == PolyQ([0, 1, Fraction(1, 2)])
    assert harmonic_poly(2, 2) == PolyQ([0, 1, Fraction(1, 4)])
    assert harmonic_poly(7, 1).degree == 7


def test_harmonic_poly_evaluations():
    for n in range(61):
        p = harmonic_poly(n, 1)
        assert p(1) == harmonic(n)
        assert p(-1) == -skew_harmonic(n)


def test_series_mul_geometric_square():
    g = geometric(1, 12)
    sq = g * g
    assert [sq.coeffs[k] for k in range(13)] == [k + 1 for k in range(13)]
    one = TruncSeries([1], 12)
    assert g * one == g
    assert (g * TruncSeries([], 12)).coeffs == TruncSeries([], 12).coeffs


def test_series_min_order_rule():
    a = geometric(2, 10)
    b = geometric(3, 6)
    assert (a + b).order == 6
    assert (a * b).order == 6


def test_series_compose():
    t = TruncSeries([0, 1], 6)
    f = TruncSeries([3, 1, 4, 1, 5], 6)
    assert f.compose(t) == f
    f2 = TruncSeries([0, 0, 1], 5)  # t^2 at order 5
    g = TruncSeries([0, 1, 1], 5)  # t + t^2
    assert f2.compose(g) == TruncSeries([0, 0, 1, 2, 1], 5)
    assert f.compose(TruncSeries([], 6)) == TruncSeries([3], 6)
    with pytest.raises(CompositionDomainError):
        f.compose(TruncSeries([1], 6))


def test_series_compose_associative_random():
    rng = random.Random(31)
    for _ in range(20):
        f = TruncSeries([_rand_rat(rng) for _ in range(13)], 12)
        g = TruncSeries([0] + [_rand_rat(rng) for _ in range(12)], 12)
        h = TruncSeries([0] + [_rand_rat(rng) for _ in range(12)], 12)
        assert f.compose(g).compose(h) == f.compose(g.compose(h))


def test_log_one_minus():
    assert log_one_minus(1, 3) == TruncSeries([0, -1, Fraction(-1, 2), Fraction(-1, 3)])
    assert log_one_minus(0, 5) == TruncSeries([], 5)
    assert log_one_minus(-1, 2) == TruncSeries([0, 1, Fraction(-1, 2)])


def test_geometric():
    assert geometric(2, 2) == TruncSeries([1, 2, 4])
    assert geometric(0, 7) == TruncSeries([1], 7)
    assert geometric(Fraction(1, 3), 2) == TruncSeries([1, Fraction(1, 3), Fraction(1, 9)])
    # the inverse of 1 - c*t
    c = Fraction(5, 4)
    assert geometric(c, 9) * TruncSeries([1, -c], 9) == TruncSeries([1], 9)


def test_generating_function_of_generalized_harmonics():
    rng = random.Random(41)
    order = 40
    for _ in range(10):
        alpha = _rand_rat(rng)
        series = log_one_minus(alpha, order) * geometric(1, order)
        for n in range(order + 1):
            assert series.coeffs[n] == -harmonic_p(n, 1, alpha)


def test_traced_methods_stay_in_their_class_bodies():
    # bench/tracing.py (METHODS) wraps cls.__dict__[attr] for each of these, so
    # the shared base class must not be the one that defines them
    for cls in (PolyQ, TruncSeries):
        assert {"__mul__", "__rmul__"} <= set(vars(cls))
    assert "compose" in vars(TruncSeries)


def test_copy_and_pickle_round_trip():
    for value in (PolyQ(), PolyQ([Fraction(1, 2), 3]), TruncSeries([], 4), TruncSeries([1, Fraction(-2, 3), 0], 2)):
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value) and twin == value and twin.coeffs == value.coeffs


def test_str_forms():
    s = TruncSeries([1, Fraction(-1, 2), 0, Fraction(2, 3)])
    assert str(s) == "1 - 1/2*t + 2/3*t^3"
    assert str(PolyQ()) == "0"
