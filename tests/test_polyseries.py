import random
from fractions import Fraction

import pytest

from ghn.errors import CompositionDomainError
from ghn.polyseries import PolyQ, TruncSeries, geometric, harmonic_poly, log_one_minus
from ghn.sequences import harmonic, harmonic_p, skew_harmonic


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
    one = TruncSeries.one(12)
    assert g * one == g
    assert (g * TruncSeries.zero(12)).coeffs == TruncSeries.zero(12).coeffs


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
    assert f.compose(TruncSeries.zero(6)) == TruncSeries([3], 6)
    with pytest.raises(CompositionDomainError):
        f.compose(TruncSeries.one(6))


def test_series_compose_associative_random():
    rng = random.Random(31)
    for _ in range(20):
        f = TruncSeries([_rand_rat(rng) for _ in range(13)], 12)
        g = TruncSeries([0] + [_rand_rat(rng) for _ in range(12)], 12)
        h = TruncSeries([0] + [_rand_rat(rng) for _ in range(12)], 12)
        assert f.compose(g).compose(h) == f.compose(g.compose(h))


def test_log_one_minus():
    assert log_one_minus(1, 3) == TruncSeries([0, -1, Fraction(-1, 2), Fraction(-1, 3)])
    assert log_one_minus(0, 5) == TruncSeries.zero(5)
    assert log_one_minus(-1, 2) == TruncSeries([0, 1, Fraction(-1, 2)])


def test_geometric():
    assert geometric(2, 2) == TruncSeries([1, 2, 4])
    assert geometric(0, 7) == TruncSeries.one(7)
    assert geometric(Fraction(1, 3), 2) == TruncSeries([1, Fraction(1, 3), Fraction(1, 9)])
    # the inverse of 1 - c*t
    c = Fraction(5, 4)
    assert geometric(c, 9) * TruncSeries([1, -c], 9) == TruncSeries.one(9)


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


def test_str_and_json_forms():
    s = TruncSeries([1, Fraction(-1, 2), 0, Fraction(2, 3)])
    assert str(s) == "1 - 1/2*t + 2/3*t^3"
    assert s.to_json() == ["1", "-1/2", "0", "2/3"]
    assert str(PolyQ()) == "0"
    assert PolyQ([0, 1]).to_json() == ["0", "1"]
