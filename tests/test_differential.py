"""Property tests and differential tests against sympy.

hypothesis and sympy are dev-only tools: the tests skip when either is
missing, and the ghn runtime never imports them.  Examples are derandomized
so that a run is reproducible.
"""

import functools
import inspect
import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ghn import closed_forms, transforms  # noqa: E402
from ghn.closed_forms import (  # noqa: E402
    as_np_closed,
    boyadzhiev_ratio_closed,
    gould_generalized_rhs,
    lemma21_lhs,
    lemma21_rhs,
    pan_closed_form,
    thm33_nabla_rhs,
    thm33_rhs,
)
from ghn.errors import DomainError, OutOfValidityRangeError, SeqSpecError  # noqa: E402
from ghn.exact import binom_rat, common_denominator, hockey_stick_sum, shared_run  # noqa: E402
from ghn.polyseries import PolyQ, TruncSeries, _convolve_num  # noqa: E402
from ghn.registry import (  # noqa: E402
    Z_GRID,
    _bernoulli_alternating,
    _gould_oracle,
    _knuth_oracle,
    _laguerre_recurrence,
    _power_weight_oracle,
    _ratio_oracle,
    _thm33_clib,
    build_registry,
    declare,
)
from ghn.sequences import (  # noqa: E402
    SeqSpec,
    _harmonic_num,
    bernoulli,
    harmonic_p,
    harmonic_table,
    laguerre,
    parse_seq_spec,
    stirling2,
    stirling2_row,
)
from ghn.transforms import (  # noqa: E402
    binomial_transform,
    inverse_binomial_transform,
    sanchez_transform,
    sanchez_weight,
    weighted_nabla,
)
from ghn.verifier import ALPHA, CERTIFY_N, binomial_oracle, harmonic_genfunc, pan_lemma_series, run_entry  # noqa: E402

# one failure per property, so a mutation test can expect a plain AssertionError
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None, report_multiple_bugs=False)
rats = st.fractions(min_value=-4, max_value=4, max_denominator=9)
# the inputs that the integer kernels must also take: ints, and negative and 100-digit rationals
big_rats = st.builds(Fraction, st.integers(min_value=-(10**100) + 1, max_value=10**100 - 1), st.integers(min_value=10**99, max_value=10**100 - 1))
edge_rats = st.one_of(rats, st.integers(min_value=-9, max_value=9), big_rats)


def _all_fractions(values) -> bool:
    return all(type(v) is Fraction for v in values)


def _sym(x: Fraction | int):
    return sympy.Rational(x.numerator, x.denominator)


def _frac(x) -> Fraction:
    x = sympy.Rational(x)
    return Fraction(int(x.p), int(x.q))


@SETTINGS
@given(
    order=st.integers(min_value=0, max_value=12),
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
    # [t^n] log(1-alpha*t)/(1-t) = -H_n(alpha); at alpha = -1 that is H_n^-
    assert list(harmonic_genfunc(order, alpha).coeffs) == [-h for h in harmonic_table(order, 1, alpha)]


@SETTINGS
@example(n=25, p=48, alpha=Fraction(-7, 3))
@example(n=6, p=1, alpha=Fraction(0))
@example(n=0, p=1, alpha=2)
@example(n=20, p=3, alpha=-1)
@example(n=9, p=2, alpha=Fraction(-(10**99) - 7, 10**99 + 3))
@given(
    n=st.integers(min_value=0, max_value=25),
    p=st.integers(min_value=1, max_value=4),
    alpha=st.one_of(st.sampled_from([0, 1, -1, 2]), rats, st.integers(-9, 9)),
)
def test_harmonic_p_matches_sympy(n, p, alpha):
    j = sympy.Symbol("j", integer=True, positive=True)
    expected = sympy.summation(_sym(alpha) ** j / j**p, (j, 1, n))
    value = harmonic_p(n, p, alpha)
    assert value == _frac(expected) and type(value) is Fraction
    if alpha == 1:
        assert harmonic_p(n, p, 1) == _frac(sympy.harmonic(n, p))
    # the whole table against a plain Fraction loop, and harmonic_p as its last entry
    table = harmonic_table(n, p, alpha)
    assert table == [sum((Fraction(alpha) ** i / i**p for i in range(1, k + 1)), Fraction(0)) for k in range(n + 1)]
    assert _all_fractions(table) and table[n] == value
    # both views of the one integer kernel
    nums, den = _harmonic_num(n, p, alpha)
    assert len(nums) == n + 1 and all(type(v) is int for v in [*nums, den])


@SETTINGS
@given(p=st.integers(min_value=0, max_value=40), j=st.integers(min_value=0, max_value=45))
def test_stirling2_matches_sympy(p, j):
    assert stirling2(p, j) == int(sympy.functions.combinatorial.numbers.stirling(p, j, kind=2))


def _plain_binom(x, k: int) -> Fraction:
    """x(x-1)...(x-k+1)/k! by a plain Fraction loop; zero for k < 0."""
    if k < 0:
        return Fraction(0)
    num = Fraction(1)
    for i in range(k):
        num *= Fraction(x) - i
    return num / math.factorial(k)


@SETTINGS
@example(x=0, k=12)
@example(x=-7, k=5)
@example(x=9, k=12)
@given(x=st.one_of(edge_rats, st.integers(min_value=-12, max_value=12)), k=st.integers(min_value=-2, max_value=15))
def test_binom_rat_matches_sympy(x, k):
    # the one-Fraction product p(p-q)...(p-(k-1)q) / (q^k k!), at negative, integer and zero x too
    value = binom_rat(x, k)
    assert value == _frac(sympy.binomial(_sym(Fraction(x)), k)) == _plain_binom(x, k) and type(value) is Fraction


@SETTINGS
@example(x=Fraction(0), n=0)
@example(x=Fraction(-3), n=20)
@given(x=edge_rats, n=st.integers(min_value=0, max_value=20))
def test_hockey_stick_sum_matches_a_plain_fraction_loop(x, n):
    value = hockey_stick_sum(x, n)
    assert value == sum((_plain_binom(Fraction(x) + m, m) for m in range(n + 1)), Fraction(0))
    assert value == _plain_binom(Fraction(x) + n + 1, n) and type(value) is Fraction


def _bernoulli_alternating_per_term(n):
    """_bernoulli_alternating as it summed before: the Akiyama-Tanigawa row in Fractions."""
    row = []
    for m in range(n + 1):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
    return row[0]


def test_bernoulli_matches_sympy():
    # and the integer Akiyama-Tanigawa row of ex3.4-bernoulli, against its Fraction loop
    for n in range(41):
        expected = _frac(sympy.bernoulli(n))
        if n == 1:
            expected = -expected  # sympy >= 1.12 takes B_1 = +1/2; ghn takes -1/2
        assert bernoulli(n) == expected
        value = _bernoulli_alternating(n)
        assert value == (-1) ** n * expected == _bernoulli_alternating_per_term(n) and type(value) is Fraction


@SETTINGS
@example(nx=(0, Fraction(0)))
@example(nx=(60, Fraction(-7, 3)))
@example(nx=(6, Fraction(-(10**99) - 7, 10**99 + 3)))
@given(
    nx=st.one_of(
        st.tuples(st.integers(min_value=0, max_value=60), st.one_of(rats, st.integers(min_value=-9, max_value=9))),
        st.tuples(st.integers(min_value=0, max_value=6), big_rats),
    )
)
def test_laguerre_matches_its_recurrence_and_a_plain_fraction_sum(nx):
    # the integer sum over q^n n! against the three-term recurrence that ex3.4-laguerre
    # checks it by, and against the defining sum term by term in Fractions
    n, x = nx
    value = laguerre(n, x)
    plain = sum((math.comb(n, k) * Fraction(-x) ** k / math.factorial(k) for k in range(n + 1)), Fraction(0))
    assert value == plain == _laguerre_recurrence(n, x) and type(value) is Fraction


# --- ring laws, products and round trips ---------------------------------------

polys = st.lists(rats, max_size=6).map(PolyQ)
ORDER = 7
series = st.lists(rats, min_size=ORDER + 1, max_size=ORDER + 1).map(lambda cs: TruncSeries(cs, ORDER))
# a series with zero constant term, the argument of compose
inner_series = series.map(lambda s: TruncSeries([0, *s.coeffs[1:]], ORDER))


@SETTINGS
@given(p=polys, q=polys, r=polys, s=st.one_of(rats, st.integers(min_value=-9, max_value=9)))
def test_polyq_ring_laws(p, q, r, s):
    zero, one = PolyQ(), PolyQ([1])
    assert p + q == q + p and p * q == q * p
    assert (p + q) + r == p + (q + r) and (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + zero == p and p * one == p and p - p == zero
    assert (p * q)(Fraction(3, 7)) == p(Fraction(3, 7)) * q(Fraction(3, 7))
    # an int or Fraction scalar s on either side acts as the constant polynomial s
    const = PolyQ([s])
    assert p + s == s + p == p + const and p - s == p - const and s - p == const - p
    assert p * s == s * p == p * const


@SETTINGS
@given(f=series, g=series, h=series)
def test_truncseries_ring_laws(f, g, h):
    zero, one = TruncSeries([], ORDER), TruncSeries([1], ORDER)
    assert f + g == g + f and f * g == g * f
    assert (f + g) + h == f + (g + h) and (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + zero == f and f * one == f and f - f == zero


@SETTINGS
@example(a=[3], b=[-2])
@example(a=[Fraction(1, 2), Fraction(1, 2), 0, 0], b=[2, -2, 0])  # zero-padded: the top coefficients are 0
@example(a=[1, 1], b=[1, -1])  # (1 + t)(1 - t) has no t term
@given(a=st.lists(edge_rats, min_size=1, max_size=9), b=st.lists(edge_rats, min_size=1, max_size=9))
def test_products_match_sympy(a, b):
    # a series product is the polynomial product truncated to the smaller order
    t = sympy.Symbol("t")
    product = sympy.expand(sum(_sym(x) * t**i for i, x in enumerate(a)) * sum(_sym(y) * t**j for j, y in enumerate(b)))
    expected = [_frac(product.coeff(t, k)) for k in range(len(a) + len(b) - 1)]
    assert PolyQ(a) * PolyQ(b) == PolyQ(expected)
    assert TruncSeries(a) * TruncSeries(b) == TruncSeries(expected[: min(len(a), len(b))])
    # the integer product loop itself, on the numerators of a and b, against a plain
    # loop, with zeros kept: inside, at and past the full product length
    an, _ = common_denominator(a)
    bn, _ = common_denominator(b)
    size = len(a) + len(b) - 1
    plain = [0] * (size + 2)
    for i, x in enumerate(an):
        for j, y in enumerate(bn):
            plain[i + j] += x * y
    for cut in (size, min(len(a), len(b)), size + 2):
        assert _convolve_num(an, bn, cut) == plain[:cut]


def test_polyq_product_after_trailing_cancellation():
    # a sum whose top coefficients cancel has a lower degree, and so does its product
    p = PolyQ([Fraction(1, 3), 2, Fraction(5, 7)]) - PolyQ([0, 0, Fraction(5, 7)])
    q = PolyQ([Fraction(-10**99, 3), 0, 1]) + PolyQ([0, 0, -1])
    assert p.degree == 1 and q.degree == 0
    assert p * q == PolyQ([Fraction(-10**99, 9), Fraction(-2 * 10**99, 3)])
    assert (p * q).degree == 1 and _all_fractions((p * q).coeffs)


def _plain(cs, order: int | None = None) -> tuple:
    """cs as a tuple of Fractions, computed apart: without trailing zeros, as a
    PolyQ's coeffs, or cut or zero-padded to order + 1 terms, as a TruncSeries'."""
    out = [Fraction(c) for c in cs]
    if order is not None:
        return tuple(out[: order + 1] + [Fraction(0)] * (order + 1 - len(out)))
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _plain_add(a: tuple, b: tuple, order: int | None = None) -> tuple:
    return _plain(((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(max(len(a), len(b)))), order)


def _plain_mul(a: tuple, b: tuple, order: int | None = None) -> tuple:
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        # past t^order a product term is cut anyway
        for j, y in enumerate(b if order is None else b[: order + 1 - i]):
            out[i + j] += x * y
    return _plain(out, order)


def _plain_compose(f: tuple, g: tuple) -> tuple:
    """f(g) through f's order by Horner on Fraction tuples; g has zero constant term."""
    order = len(f) - 1
    acc = (f[-1],)
    for c in reversed(f[:-1]):
        acc = _plain_mul(acc, g, order)
        acc = (acc[0] + c, *acc[1:])
    return _plain(acc, order)


# parts in -9..9 over 1..9 for an order-24 outer series, which compose takes in
# blocks of 2 terms, each giant step keeping 2 coefficients more than the last,
# and inner series up to order 30
_CUT_A = [Fraction((7 * i) % 19 - 9, i % 9 + 1) for i in range(25)]
_CUT_B = [Fraction((5 * i + 3) % 19 - 9, (4 * i) % 9 + 1) for i in range(31)]


@SETTINGS
@example(a=_CUT_A, b=_CUT_B[:9], s=Fraction(-2, 3), k=1, orders=(24, 8))  # inner order below the outer
@example(a=_CUT_A, b=_CUT_B[:25], s=Fraction(5, 7), k=1, orders=(24, 24))
@example(a=_CUT_A, b=_CUT_B, s=Fraction(-8, 9), k=1, orders=(24, 30))  # inner order above the outer
@example(a=[Fraction(2, 4), 0], b=[Fraction(1, 2)], s=0, k=0, orders=(1, 0))  # equal, built apart; a zero scalar
@example(a=[1, Fraction(1, 3)], b=[-1, Fraction(-1, 3)], s=Fraction(-3, 2), k=5, orders=(1, 1))  # p + q == 0
@example(a=[1, 2, 3, 4, 5, 6], b=[0, Fraction(1, 3), Fraction(-2, 5)], s=Fraction(3, 7), k=1, orders=(5, 2))
@given(
    a=st.lists(edge_rats, max_size=7),
    b=st.lists(edge_rats, max_size=7),
    s=edge_rats,
    k=st.integers(min_value=0, max_value=5),
    orders=st.tuples(st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=7)),
)
def test_polyq_matches_plain_fraction_tuples(a, b, s, k, orders):
    # every operator on the integer form of PolyQ and of TruncSeries, against the
    # same operation on Fraction tuples
    p, q = PolyQ(a), PolyQ(b)
    pa, pb = _plain(a), _plain(b)
    neg_pa, fs = tuple(-c for c in pa), (Fraction(s),)
    cases = {
        "p": (p, pa),
        "p + q": (p + q, _plain_add(pa, pb)),
        "p - q": (p - q, _plain_add(pa, tuple(-c for c in pb))),
        "-p": (-p, neg_pa),
        "p + s": (p + s, _plain_add(pa, fs)),
        "s + p": (s + p, _plain_add(pa, fs)),
        "p - s": (p - s, _plain_add(pa, (-Fraction(s),))),
        "s - p": (s - p, _plain_add(neg_pa, fs)),
        "p * s": (p * s, _plain(c * s for c in pa)),
        "s * p": (s * p, _plain(c * s for c in pa)),
        "p * q": (p * q, _plain_mul(pa, pb)),
        "p ** k": (p**k, functools.reduce(_plain_mul, [pa] * k, (Fraction(1),))),
        "(p + q) - q": ((p + q) - q, pa),
    }
    for name, (poly, plain) in cases.items():
        assert type(poly) is PolyQ and poly.coeffs == plain and _all_fractions(poly.coeffs), name
        assert poly.degree == len(plain) - 1 and poly.is_zero() == (not plain), name
        # canonical: one reduced denominator and no trailing zero, so equal means equal hashes
        nums, den = poly._nums, poly._den
        assert den > 0 and math.gcd(den, *nums) == 1 and (not nums or nums[-1] != 0), name
        assert poly == PolyQ(plain) and hash(poly) == hash(PolyQ(plain)), name
        assert poly == PolyQ([*plain, 0, Fraction(0)]) and hash(poly) == hash(PolyQ([*plain, 0])), name
        # the printed forms of the Fraction tuple, as TruncSeries prints its own
        assert str(poly) == (str(TruncSeries(plain)) if plain else "0"), name
        assert repr(poly) == f"PolyQ([{', '.join(str(c) for c in plain)}])", name
    at = Fraction(s)
    value = p(s)
    assert value == sum((c * at**i for i, c in enumerate(pa)), Fraction(0)) and type(value) is Fraction
    assert (PolyQ(a) == PolyQ(b)) == (pa == pb)

    # TruncSeries: f and g of orders oa and ob, so that a sum or product keeps the
    # smaller; the inner series h and pan of compose have order ob, lower or higher than f's
    oa, ob = orders
    f, g = TruncSeries(a, oa), TruncSeries(b, ob)
    fa, fb = _plain(a, oa), _plain(b, ob)
    n = min(oa, ob)
    ha = _plain([0, *b[1:]], ob)
    # mu lam^(k-1) at t^k, as pan_lemma_series builds its inner series: mu = s, lam = s + 1/3
    lam = at + Fraction(1, 3)
    pan_inner = [0] + [at * lam ** (j - 1) for j in range(1, ob + 1)]
    series_cases = {
        "f": (f, fa),
        "f + g": (f + g, _plain_add(fa, fb, n)),
        "f - g": (f - g, _plain_add(fa, tuple(-c for c in fb), n)),
        "-f": (-f, tuple(-c for c in fa)),
        "f * s": (f * s, tuple(c * s for c in fa)),
        "s * f": (s * f, tuple(c * s for c in fa)),
        "f * g": (f * g, _plain_mul(fa, fb, n)),
        "f(h)": (f.compose(TruncSeries(ha, ob)), _plain_compose(fa, ha)),
        "f(pan inner)": (f.compose(TruncSeries(pan_inner, ob)), _plain_compose(fa, _plain(pan_inner))),
        "(f + g) - g": ((f + g) - g, fa[: n + 1]),
    }
    for name, (ser, plain) in series_cases.items():
        assert type(ser) is TruncSeries and ser.coeffs == plain and _all_fractions(ser.coeffs), name
        # canonical: one reduced denominator over exactly order + 1 numerators
        nums, den = ser._nums, ser._den
        assert ser.order == len(plain) - 1 == len(nums) - 1, name
        assert den > 0 and math.gcd(den, *nums) == 1, name
        # equal series built apart, from the Fraction tuple and from it without trailing zeros
        rebuilt = TruncSeries(_plain(plain), ser.order)
        assert ser == TruncSeries(plain) == rebuilt and hash(ser) == hash(rebuilt), name
        assert repr(ser) == f"TruncSeries([{', '.join(str(c) for c in plain)}])", name

    # a float is no scalar, on either side of any operator
    x = float(at)
    for op in (
        lambda: p + x, lambda: x + p, lambda: p - x, lambda: x - p, lambda: p * x, lambda: x * p,
        lambda: f * x, lambda: x * f, lambda: f + x,
    ):
        with pytest.raises(TypeError):
            op()


def test_polyq_canonical_form_of_equal_inputs():
    assert PolyQ([Fraction(2, 4), 0]) == PolyQ([Fraction(1, 2)])
    assert PolyQ([Fraction(2, 4), 0]).coeffs == (Fraction(1, 2),)
    assert hash(PolyQ([Fraction(1, 3), 0, 0])) == hash(PolyQ([2]) * Fraction(1, 6))
    assert PolyQ([0, 0])._nums == () and PolyQ([0, 0])._den == 1
    assert PolyQ([Fraction(3, 4), Fraction(5, 6)])._nums == (9, 10) and PolyQ([Fraction(3, 4), Fraction(5, 6)])._den == 12


@SETTINGS
# order 26, where compose runs in blocks of 3 terms
@example(f=TruncSeries(_CUT_B[:27]), g=TruncSeries(_CUT_B[4:]), h=TruncSeries([0, *_CUT_A[1:]], 26))
@given(f=series, g=series, h=inner_series)
def test_compose_is_a_ring_map(f, g, h):
    assert (f * g).compose(h) == f.compose(h) * g.compose(h)
    assert (f + g).compose(h) == f.compose(h) + g.compose(h)
    assert f.compose(TruncSeries([0, 1], ORDER)) == f
    assert (h * h).compose(TruncSeries([0, 1], ORDER)) == h * h


def _cut_parts(order: int, shift: int) -> list[Fraction]:
    """order + 1 rationals with parts in -9..9 over 1..9, a pattern set by shift."""
    return [Fraction((7 * i + shift) % 19 - 9, (4 * i + shift) % 9 + 1) for i in range(order + 1)]


def _pan_inner(lam: Fraction, mu: Fraction, order: int) -> list[Fraction]:
    """mu lam^(k-1) at t^k, as pan_lemma_series builds its inner series."""
    return [Fraction(0)] + [mu * lam ** (k - 1) for k in range(1, order + 1)]


# -H_k(alpha) at t^k, alpha = -11/7: the outer series of the pan-lemma check
_MINUS_H = [-sum((Fraction(-11, 7) ** j / j for j in range(1, k + 1)), Fraction(0)) for k in range(29)]


# compose runs in blocks of m = isqrt((order + 1) // 3) terms: m = 3 at orders 26
# and 28, 4 at 56 and 59, and the last block is whole only when m divides order + 1
@pytest.mark.parametrize(
    ("outer", "inner"),
    [
        pytest.param(_cut_parts(26, 1), [0, *_cut_parts(25, 2)], id="order 26, size 27, m 3"),
        pytest.param(_cut_parts(28, 3), [0, *_cut_parts(27, 4)], id="order 28, size 29, m 3"),
        pytest.param(_cut_parts(56, 5), [0, *_cut_parts(55, 6)], id="order 56, size 57, m 4"),
        pytest.param(_cut_parts(59, 7), [0, *_cut_parts(58, 8)], id="order 59, size 60, m 4"),
        pytest.param(_cut_parts(26, 9), [0, *_cut_parts(7, 10)], id="inner order 8 below the outer 26"),
        pytest.param(_cut_parts(28, 11), [0, *_cut_parts(58, 12)], id="inner order 59 above the outer 28"),
        pytest.param(_MINUS_H, _pan_inner(Fraction(-13, 5), Fraction(7, 11), 28), id="pan inner at order 28"),
        pytest.param(_cut_parts(12, 13), _pan_inner(Fraction(10**100 - 1, 10**100 - 3), Fraction(-2), 12), id="pan inner with a 100-digit lambda, order 12"),
    ],
)
def test_compose_in_blocks_matches_plain_horner(outer, inner):
    f, h = TruncSeries(outer), TruncSeries(inner)
    composed = f.compose(h)
    assert composed.coeffs == _plain_compose(_plain(outer, f.order), _plain(inner)) and _all_fractions(composed.coeffs)
    assert composed.order == f.order and composed._den > 0 and math.gcd(composed._den, *composed._nums) == 1


@SETTINGS
@example(n=0, p=0, a=[7] * 9)  # 0^0 = 1
@example(n=8, p=8, a=[Fraction(-(10**100) + 1, 10**99)] * 9)
@given(n=st.integers(min_value=0, max_value=8), p=st.integers(min_value=0, max_value=8), a=st.lists(edge_rats, min_size=9, max_size=9))
def test_sanchez_transform_matches_direct_sum(n, p, a):
    if p > n:
        with pytest.raises(OutOfValidityRangeError):
            sanchez_transform(binomial_transform(a), n, p)
        return
    value = sanchez_transform(binomial_transform(a), n, p)
    assert value == sum((math.comb(n, k) * k**p * a[k] for k in range(n + 1)), Fraction(0))
    assert type(value) is Fraction


@SETTINGS
@example(n=0, p=0)
@example(n=3, p=12)
@given(n=st.integers(min_value=0, max_value=14), p=st.integers(min_value=0, max_value=16))
def test_sanchez_weight_matches_direct_product(n, p):
    # p > n included: the row stops at l = min(p, n)
    assert [sanchez_weight(n, k, p) for k in range(n + 1)] == [math.comb(n, k) * k**p for k in range(n + 1)]


@SETTINGS
@given(a=st.lists(rats, min_size=1, max_size=12))
def test_binomial_transform_round_trips(a):
    assert inverse_binomial_transform(binomial_transform(a)) == a
    assert binomial_transform(inverse_binomial_transform(a)) == a


# (text, the SeqSpec it names), the text built here from the spec's values
specs = st.one_of(
    st.builds(
        lambda p, alpha: (f"harmonic:p={p},alpha={alpha}", SeqSpec("harmonic_p", {"p": Fraction(p), "alpha": alpha})),
        st.integers(min_value=1, max_value=48),
        rats,
    ),
    st.builds(lambda kind: (kind, SeqSpec(kind)), st.sampled_from(["skew", "bernoulli", "fibonacci", "lucas"])),
    st.builds(
        lambda kind, doubled: (f"{kind}:doubled={str(doubled).lower()}", SeqSpec(kind, {"doubled": Fraction(doubled)})),
        st.sampled_from(["fibonacci", "lucas"]),
        st.booleans(),
    ),
    st.builds(lambda x: (f"laguerre:x={x}", SeqSpec("laguerre", {"x": x})), rats),
    st.builds(lambda p: (f"stirling_row:p={p}", SeqSpec("stirling_row", {"p": Fraction(p)})), st.integers(min_value=0, max_value=180)),
    st.builds(lambda base: (f"powers:base={base}", SeqSpec("powers", {"base": base})), rats),
)


@SETTINGS
@given(case=specs)
def test_spec_text_parses_to_its_spec(case):
    text, spec = case
    assert parse_seq_spec(text) == spec


@SETTINGS
@given(
    case=st.one_of(
        st.builds(
            lambda p, a: (f"harmonic:p={p},alpha={a}", SeqSpec("harmonic_p", {"p": Fraction(p), "alpha": a})),
            st.integers(min_value=1, max_value=48),
            rats,
        ),
        st.builds(lambda b: (f"powers:base={b}", SeqSpec("powers", {"base": b})), rats),
        st.builds(
            lambda k, d: (f"{k}:doubled={d}", SeqSpec(k, {"doubled": Fraction(d == "true")})),
            st.sampled_from(["fibonacci", "lucas"]),
            st.sampled_from(["true", "false"]),
        ),
        st.sampled_from(
            [
                ("skew", SeqSpec("skew")),
                ("bernoulli", SeqSpec("bernoulli")),
                ("lucas", SeqSpec("lucas")),
                ("fibonacci", SeqSpec("fibonacci")),
                ("laguerre:x=2/5", SeqSpec("laguerre", {"x": Fraction(2, 5)})),
                ("stirling_row:p=4", SeqSpec("stirling_row", {"p": Fraction(4)})),
            ]
        ),
    )
)
def test_canonical_spec_text_survives_parsing(case):
    text, spec = case
    assert parse_seq_spec(text) == spec


@SETTINGS
@given(kind=st.sampled_from(["fibonacci", "lucas"]), doubled=st.one_of(st.sampled_from(["true", "false"]), rats.map(str)))
def test_accepted_doubled_specs_parse_to_their_flag(kind, doubled):
    # only the words true and false are accepted, as 1 and 0
    try:
        spec = parse_seq_spec(f"{kind}:doubled={doubled}")
    except SeqSpecError:
        assert doubled not in ("true", "false")
        return
    assert spec == SeqSpec(kind, {"doubled": Fraction(doubled == "true")})


# --- closed forms evaluated through the results they derive from ---------------
# Each rewritten closed form against a direct sum; the harmonic weights are
# summed term by term here, not by the sequences kernel the closed forms use.

lams = st.one_of(st.sampled_from([Fraction(0), Fraction(1)]), rats)
alphas = st.one_of(st.just(Fraction(1)), rats)
zs = st.one_of(st.just(Fraction(-1)), rats)
seqs = st.lists(rats, min_size=9, max_size=9)


def _h(k: int, alpha: Fraction) -> Fraction:
    return sum((alpha**j / j for j in range(1, k + 1)), Fraction(0))


@SETTINGS
@example(n=4, lam=Fraction(0), a=list(range(9)))
@example(n=5, lam=Fraction(1), a=[Fraction(10**99 + 1, -(10**99) - 2)] * 9)
@example(n=3, lam=Fraction(-3), a=[1] * 9)  # excluded
@given(n=st.integers(min_value=1, max_value=8), lam=st.one_of(lams, big_rats), a=st.lists(edge_rats, min_size=9, max_size=9))
def test_boyadzhiev_ratio_closed_matches_direct_sum(n, lam, a):
    # lambda = 0 and 1 included; against the oracle and a plain Fraction loop
    if lam.denominator == 1 and -n <= lam <= -1:
        with pytest.raises(DomainError):
            boyadzhiev_ratio_closed(a, n, lam)
        return
    direct = binomial_oracle(n, [0] + [a[k] / (k + lam) for k in range(1, n + 1)])
    plain = sum((math.comb(n, k) * Fraction(a[k]) / (k + lam) for k in range(1, n + 1)), Fraction(0))
    value = boyadzhiev_ratio_closed(a, n, lam)
    assert value == direct == plain and type(value) is Fraction


@SETTINGS
@given(n=st.integers(min_value=1, max_value=8), lam=lams, a=seqs, a0=rats)
def test_boyadzhiev_ratio_closed_ignores_a0(n, lam, a, a0):
    if lam.denominator == 1 and -n <= lam <= -1:
        return
    assert boyadzhiev_ratio_closed([a0, *a[1:]], n, lam) == boyadzhiev_ratio_closed(a, n, lam)


@SETTINGS
@example(n=5, alpha=Fraction(0), c=[Fraction(k - 4, 3) for k in range(9)])  # the Gould sums at a = 1
@example(n=4, alpha=Fraction(1), c=list(range(9)))
@example(n=6, alpha=Fraction(10**99 + 3, -(10**99) - 8), c=[Fraction(10**99 - k, 3 + k) for k in range(9)])
@given(n=st.integers(min_value=1, max_value=8), alpha=alphas, c=seqs)
def test_thm33_rhs_matches_direct_sum(n, alpha, c):
    assert thm33_rhs(c, n, alpha) == binomial_oracle(n, [_h(k, alpha) * c[k] for k in range(n + 1)], mu=-1)


@SETTINGS
@example(n=5, j=3, a=Fraction(1))  # (1 - a)^(t - j) is 0^0 at t = j
@example(n=4, j=0, a=Fraction(0))
@example(n=6, j=2, a=Fraction(10**99 + 1, -(10**99) - 2))
@example(n=3, j=1, a=-2)
@given(n=st.integers(min_value=1, max_value=8), j=st.integers(min_value=0, max_value=9), a=st.one_of(st.just(Fraction(1)), edge_rats))
def test_gould_generalized_rhs_matches_direct_sum(n, j, a):
    # at j = 0 the printed display drops a -H_n correction
    gap = _h(n, Fraction(1)) if j == 0 else 0
    rhs = gould_generalized_rhs(n, j, a)
    lhs = _gould_oracle(n, j, a)
    assert rhs == lhs + gap
    a = Fraction(a)
    plain_lhs = sum((math.comb(n, k) * math.comb(k, j) * (-a) ** k / k for k in range(1, n + 1)), Fraction(0))
    plain = sum((math.comb(t, j) * (1 - a) ** (t - j) / t for t in range(max(j, 1), n + 1)), Fraction(0))
    assert lhs == plain_lhs and type(lhs) is Fraction
    assert rhs == (-a) ** j * plain and type(rhs) is Fraction


def _gould_num_by_terms(n, j, p, q, lcm):
    """The Gould sum term by term, two fresh powers per term: (-p)^j sum_t C(t,j) (q-p)^(t-j) q^(n-t) (lcm/t)."""
    return (-p) ** j * sum(math.comb(t, j) * (q - p) ** (t - j) * q ** (n - t) * (lcm // t) for t in range(max(j, 1), n + 1))


# a = 1 makes q - p = 0, so (q - p)^(t - j) is 0^0 at t = j
GOULD_AS = [Fraction(1), Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(-7, 3), Fraction(10**99 + 7, -(10**99) - 3)]


def _gould_num_misses(kernel):
    """The points n <= 20, 0 <= j <= n + 1, a in GOULD_AS where kernel differs from the sum term by term."""
    misses = []
    for n in range(1, 21):
        lcm = math.lcm(*range(1, n + 1))
        for a in GOULD_AS:
            args = [(n, j, a.numerator, a.denominator, lcm) for j in range(n + 2)]
            misses += [point for point in args if kernel(*point) != _gould_num_by_terms(*point)]
    return misses


def test_gould_horner_sum_matches_the_sum_term_by_term():
    assert _gould_num_misses(closed_forms._gould_num) == []
    # without its last factor (q - p)^(max(j,1) - j) the Horner sum is wrong at j = 0
    source = inspect.getsource(closed_forms._gould_num)
    assert source.count("r ** (start - j) * ") == 1
    namespace = dict(vars(closed_forms))
    exec(compile(source.replace("r ** (start - j) * ", ""), inspect.getsourcefile(closed_forms), "exec"), namespace)
    misses = _gould_num_misses(namespace["_gould_num"])
    assert misses and {j for _, j, *_ in misses} == {0}


@SETTINGS
@example(n=5, mu=Fraction(2, 3), lam=Fraction(0), alpha=Fraction(-1, 4), branch="")  # lam = 0
@example(n=4, mu=Fraction(3), lam=Fraction(-1, 2), alpha=Fraction(0), branch="u=0")
@example(n=6, mu=Fraction(10**99 + 7, 10**99 - 3), lam=Fraction(-(10**99) - 1, 10**98 + 9), alpha=Fraction(10**99 + 2, 7), branch="")
@given(
    n=st.integers(min_value=0, max_value=8),
    mu=edge_rats,
    lam=st.one_of(st.just(Fraction(0)), edge_rats),
    alpha=st.one_of(st.just(Fraction(1)), edge_rats),
    branch=st.sampled_from(["", "mu+lam=0", "u=0"]),
)
def test_pan_closed_form_matches_direct_sum(n, mu, lam, alpha, branch):
    mu, lam, alpha = Fraction(mu), Fraction(lam), Fraction(alpha)
    if branch == "mu+lam=0":
        lam = -mu
    elif branch == "u=0" and mu:  # lam + mu*alpha = 0, the first argument of H_n is 0
        alpha = -lam / mu
    plain = sum((math.comb(n, k) * mu**k * lam ** (n - k) * _h(k, alpha) for k in range(n + 1)), Fraction(0))
    value = pan_closed_form(n, mu, lam, alpha)
    assert value == plain == _pan_lifted_by_fractions(n, mu, lam, alpha) and type(value) is Fraction


def _pan_lifted_by_fractions(n, mu, lam, alpha) -> Fraction:
    """pan_closed_form with its inputs lifted as it lifted them before: Fraction sums over their lcm."""
    if n == 0:
        return Fraction(0)
    mu, lam, alpha = Fraction(mu), Fraction(lam), Fraction(alpha)
    if mu + lam == 0:
        return lam**n * ((1 - alpha) ** n - 1) / n
    values = [lam + mu * alpha, lam, mu + lam]
    den = math.lcm(*[v.denominator for v in values])
    nu, nv, ns = (v.numerator * (den // v.denominator) for v in values)
    lcm = math.lcm(*range(1, n + 1))
    total = 0
    for k in range(1, n + 1):
        total = total * ns + (nu**k - nv**k) * (lcm // k)
    return Fraction(total, den**n * lcm)


def test_pan_closed_form_equals_the_fraction_lift_on_the_grid():
    # every pan-thm3.2 cell at n_max 20, seed 42 (n >= 1, 500 of them with mu + lam = 0), and n = 0
    cells = next(e for e in build_registry(20, 42) if e.id == "pan-thm3.2").cells
    assert any(c["mu"] + c["lambda"] == 0 for c in cells)
    for c in cells:
        args = (c["n"], c["mu"], c["lambda"], c["alpha"])
        assert pan_closed_form(*args) == _pan_lifted_by_fractions(*args), c
    assert pan_closed_form(0, Fraction(2, 3), Fraction(-2, 3), 5) == _pan_lifted_by_fractions(0, 1, 2, 3) == 0


def _relation_per_term(n, alpha):
    """generalized_harmonic_relation as it summed before: one Fraction (or PolyQ) product and sum per term."""
    if not isinstance(alpha, PolyQ):
        alpha = Fraction(alpha)
    d = alpha - 1
    total = harmonic_p(n, 1, 1)
    power = Fraction(1)
    for k in range(1, n + 1):
        power *= d
        total += Fraction(math.comb(n, k), k) * power
    return total


def _idi1_per_term(n, alpha):
    """idi1_rhs as it evaluated before: ((1 - alpha)^n - 1)/n in Fractions (or over Q[alpha])."""
    if not isinstance(alpha, PolyQ):
        alpha = Fraction(alpha)
    return ((1 - alpha) ** n - 1) * Fraction(1, n)


@functools.lru_cache(maxsize=4096)
def _hp(n, p, alpha):
    """H_n^(p)(alpha), one Fraction per term, for the references below; H_(n-1) is kept from the last n."""
    return _hp(n - 1, p, alpha) + Fraction(alpha) ** n / n**p if n else Fraction(0)


def _concl3_per_term(n, alpha, reading):
    """concl_item3_rhs as it summed before, with harmonic numbers summed term by term."""
    alpha, h = Fraction(alpha), _hp(n, 1, 1)
    if alpha == 1:
        return (h * h + _hp(n, 2, 1)) / 2
    second = _hp(n, 2, alpha) if reading == "p2" else _hp(n, 1, alpha) ** 2
    return _hp(n, 1, alpha) * h + second - _concl3_tail(n, alpha)


@functools.lru_cache(maxsize=4096)
def _concl3_tail(n, alpha):
    """sum_{k=1..n} alpha^k H_k / k, one Fraction per term; the sum to n-1 is kept from the last n."""
    return _concl3_tail(n - 1, alpha) + alpha**n * _hp(n, 1, 1) / n if n else Fraction(0)


def _concl4_per_term(n, alpha, reading):
    """concl_item4_rhs as it evaluated before."""
    x = 1 - Fraction(alpha)
    if reading == "p2":
        return _hp(n, 2, x) - _hp(n, 2, 1)
    return _hp(n, 1, x) ** 2 - _hp(n, 1, 1) ** 2


def _as_p1_per_term(n, z, alpha):
    """as_p1_closed as it evaluated before, in Fractions, at z != -1."""
    z, alpha = Fraction(z), Fraction(alpha)
    zp = 1 + z
    beta, gamma = (1 + alpha * z) / zp, 1 / zp
    inner = z * (_hp(n - 1, 1, beta) - _hp(n - 1, 1, gamma)) + zp * (beta**n - gamma**n) / n
    return n * zp ** (n - 1) * inner


def _zneg1_per_term(n, p, as_printed):
    """as_zneg1_alpha1_closed as it summed before: the tail one Fraction per term."""
    stirling = stirling2_row(p) + [0] * (n - p)
    weights = [math.comb(n, k) for k in range(n + 1)] if as_printed else stirling
    lead = (-1) ** n * math.factorial(n) * stirling[n] * _hp(n, 1, 1)
    return lead - sum((Fraction((-1) ** k * math.factorial(k) * weights[k], n - k) for k in range(n)), Fraction(0))


def _laguerre_per_term(n_max, x):
    """L_0(x), ..., L_n_max(x) by the three-term recurrence in Fractions, as ex3.4-laguerre's side was."""
    vals = [Fraction(1), 1 - Fraction(x)]
    for n in range(2, n_max + 1):
        vals.append(((2 * n - 1 - x) * vals[n - 1] - (n - 1) * vals[n - 2]) / n)
    return vals


_BIG_ALPHA = Fraction(-(10**99) - 7, 10**99 + 3)


@settings(SETTINGS, max_examples=20)
@example(alpha=0)
@example(alpha=1)
@example(alpha=Fraction(1))
@example(alpha=-1)
@example(alpha=Fraction(-7, 3))
@example(alpha=_BIG_ALPHA)
@example(alpha=-_BIG_ALPHA)
@given(alpha=edge_rats)
def test_alpha_forms_equal_their_per_term_sums(alpha):
    # the integer loops of the closed forms against the per-term sums they replaced, for
    # n = 1..36 at an int, Fraction or 100-digit alpha (also as z, x and the terms of a
    # sequence) and, for the forms that also take a PolyQ alpha, its text
    a = [Fraction(alpha - k) / (k + 1) for k in range(37)]  # a sequence of mixed denominators
    b = [sum((math.comb(m, k) * a[k] for k in range(m + 1)), Fraction(0)) for m in range(37)]  # its transform
    laguerre_vals = _laguerre_per_term(36, alpha)
    for n in range(1, 37):
        for form, per_term in ((closed_forms.generalized_harmonic_relation, _relation_per_term), (closed_forms.idi1_rhs, _idi1_per_term)):
            value = form(n, alpha)
            assert type(value) is Fraction and value == per_term(n, alpha), (form.__name__, n)
            assert form(n, str(alpha)) == value
        values = {
            "lambda1_case_rhs": (closed_forms.lambda1_case_rhs(a, n), (sum(b[1 : n + 1]) - n * b[0]) / (n + 1)),
            "_laguerre_recurrence": (_laguerre_recurrence(n, alpha), laguerre_vals[n]),
        }
        for reading in ("p2", "square"):
            values[f"concl_item3_rhs {reading}"] = (closed_forms.concl_item3_rhs(n, alpha, reading), _concl3_per_term(n, alpha, reading))
            values[f"concl_item4_rhs {reading}"] = (closed_forms.concl_item4_rhs(n, alpha, reading), _concl4_per_term(n, alpha, reading))
        for z, w in ((alpha, Fraction(-7, 3)), (Fraction(1, 2), alpha)):
            if z == -1:
                with pytest.raises(DomainError):
                    closed_forms.as_p1_closed(n, z, w)
            else:
                values[f"as_p1_closed z={z} alpha={w}"] = (closed_forms.as_p1_closed(n, z, w), _as_p1_per_term(n, z, w))
        p = 1 + abs(Fraction(alpha).numerator) % n
        for as_printed in (False, True):
            values[f"as_zneg1_alpha1_closed {p} {as_printed}"] = (
                closed_forms.as_zneg1_alpha1_closed(n, p, as_printed),
                _zneg1_per_term(n, p, as_printed),
            )
        for name, (value, per_term) in values.items():
            assert type(value) is Fraction and value == per_term, (name, n)
        for bad_p in (0, n + 1):
            with pytest.raises(OutOfValidityRangeError):
                closed_forms.as_zneg1_alpha1_closed(n, bad_p)
    for form in (closed_forms.concl_item3_rhs, closed_forms.concl_item4_rhs):
        with pytest.raises(ValueError, match="reading must be"):
            form(3, alpha, "other")


def test_alpha_forms_over_q_alpha_equal_their_per_term_sums():
    # the second lift, alpha -> (PolyQ, 1), runs the same loop and gives the same polynomial
    for n in range(1, 37):
        for form, per_term in ((closed_forms.generalized_harmonic_relation, _relation_per_term), (closed_forms.idi1_rhs, _idi1_per_term)):
            value = form(n, ALPHA)
            assert type(value) is PolyQ and value == per_term(n, ALPHA), (form.__name__, n)


@SETTINGS
@given(n=st.integers(min_value=1, max_value=7), p=st.integers(min_value=0, max_value=6), z=zs, alpha=alphas)
def test_as_np_closed_matches_direct_sum(n, p, z, alpha):
    p = 1 + p % n  # the closed form holds for 1 <= p <= n
    direct = binomial_oracle(n, [j**p * _h(j, alpha) for j in range(n + 1)], mu=z)
    assert as_np_closed(n, p, z, alpha) == direct


@SETTINGS
@given(
    n=st.integers(min_value=1, max_value=7),
    p=st.integers(min_value=0, max_value=6),
    z=zs,
    alpha=alphas,
    junk=st.lists(edge_rats, min_size=7, max_size=7),
)
def test_as_np_closed_reads_no_pan_value_below_n_minus_p(n, p, z, alpha, junk):
    # as_np_closed makes only b_(n-p..n); any values in the slots below n-p give the same sum
    p = 1 + p % n
    b = [pan_closed_form(m, z, 1, alpha) for m in range(n + 1)]
    junked = junk[: n - p] + b[n - p :]
    assert sanchez_transform(junked, n, p) == sanchez_transform(b, n, p) == as_np_closed(n, p, z, alpha)


@SETTINGS
@given(
    n=st.integers(min_value=1, max_value=7),
    p=st.integers(min_value=0, max_value=6),
    z=st.one_of(zs, st.integers(min_value=-3, max_value=3)),
    alpha=alphas,
)
def test_as_np_closed_is_the_same_inside_and_outside_a_run(n, p, z, alpha):
    # inside a run every (n', p') of a grid over three (z, alpha) reads the Pan values that the others made
    p = 1 + p % n
    points = [(m, q, x, a) for x, a in ((z, alpha), (z + 1, alpha), (z, alpha + 1)) for m in range(1, n + 1) for q in range(1, m + 1)]
    with shared_run():
        shared = [as_np_closed(*point) for point in points]
        repeated = as_np_closed(n, p, Fraction(z), alpha)
    assert shared == [as_np_closed(*point) for point in points]
    assert repeated == as_np_closed(n, p, z, alpha)


@settings(SETTINGS, max_examples=8)
@example(alpha=Fraction(1))
@example(alpha=Fraction(0))
@given(alpha=alphas)
def test_thm33_nabla_rhs_is_d_dotted_with_the_nabla_row(alpha):
    # at every n <= 12 of the 13 Theorem 3.3 sequences, d from a plain inverse-transform loop
    b = [Fraction(0)] + [((1 - alpha) ** j - 1) / j for j in range(1, 13)]
    for c in _thm33_clib(12, 42):
        d = [sum((math.comb(m, k) * (-1) ** (m - k) * c[k] for k in range(m + 1)), Fraction(0)) for m in range(13)]
        for n in range(1, 13):
            row = weighted_nabla(b, n)
            assert thm33_nabla_rhs(c, n, alpha) == sum((d[m] * row[m] for m in range(n + 1)), Fraction(0))


@SETTINGS
@example(lam=Fraction(0), alpha=Fraction(1), a=list(range(9)))
@example(lam=Fraction(-3), alpha=Fraction(10**99 + 3, -(10**99) - 8), a=[Fraction(10**99 - k, 3 + k) for k in range(9)])
@given(lam=st.one_of(lams, big_rats), alpha=st.one_of(alphas, big_rats), a=st.lists(edge_rats, min_size=9, max_size=9))
def test_one_run_serves_every_prefix(lam, alpha, a):
    # inside one run the memoized closed forms transform the whole of a once, and the
    # declared left sides lift the whole of a once, and each reads its first n+1 entries
    # at each n; that equals their value on those terms with no run open
    lhs = {e.id: e.lhs for i in ("thm2.3-general", "lemma2.1-coherence", "thm3.3-eqnnew8") for e in declare(i)}
    forms = (
        ("boyadzhiev_ratio_closed", boyadzhiev_ratio_closed, lam),
        ("thm33_rhs", thm33_rhs, alpha),
        ("thm33_nabla_rhs", thm33_nabla_rhs, alpha),
        ("thm2.3-general", lhs["thm2.3-general"], lam),
        ("lemma2.1-coherence", lhs["lemma2.1-coherence"], lam),
        ("thm3.3-eqnnew8", lhs["thm3.3-eqnnew8"], alpha),
    )

    def values(terms):
        out = {}
        for n in range(9):
            for name, fn, x in forms:
                try:
                    out[name, n] = fn(terms(n), n, x)
                except (DomainError, ValueError) as exc:  # n = 0, and lambda in {-1, ..., -n}
                    out[name, n] = type(exc)
        return out

    with shared_run():
        shared = values(lambda n: a)
    assert shared == values(lambda n: a[: n + 1])


@SETTINGS
@example(n=4, lam=Fraction(0), a=list(range(9)))
@example(n=3, lam=Fraction(-7, 2), a=[Fraction(10**99 + 1, -(10**99) - 2)] * 9)
@example(n=0, lam=Fraction(5), a=[1] * 9)
@given(n=st.integers(min_value=0, max_value=8), lam=st.one_of(lams, big_rats), a=st.lists(edge_rats, min_size=9, max_size=9))
def test_ratio_oracle_matches_a_plain_loop(n, lam, a):
    if lam.denominator == 1 and -n <= lam <= -1:
        with pytest.raises(DomainError):
            _ratio_oracle(a, n, lam)
        return
    plain = sum((math.comb(n, k) * Fraction(a[k]) / (k + lam) for k in range(1, n + 1)), Fraction(0))
    value = _ratio_oracle(a, n, lam)
    assert value == plain and type(value) is Fraction


@SETTINGS
@example(n=0, lam=Fraction(3, 2))
@example(n=0, lam=Fraction(-1))
@example(n=3, lam=Fraction(-5))
@example(n=8, lam=Fraction(-9))
@given(n=st.integers(min_value=0, max_value=8), lam=st.one_of(st.integers(min_value=-10, max_value=3).map(Fraction), rats, big_rats))
def test_knuth_oracle_matches_a_plain_loop(n, lam):
    # its k = 0 term and the ratio sum of (-1)^k, against the whole alternating sum
    for pole in range(-n, 1):  # lambda = 0 and each integer in -n..-1
        with pytest.raises(DomainError):
            _knuth_oracle(n, Fraction(pole))
    if lam.denominator == 1 and -n <= lam <= 0:
        return
    plain = sum((math.comb(n, k) * Fraction((-1) ** k) / (k + lam) for k in range(n + 1)), Fraction(0))
    value = _knuth_oracle(n, lam)
    assert value == plain and type(value) is Fraction


@SETTINGS
@example(n=0, p=0, mu=Fraction(1), a=[1] * 9)
@example(n=2, p=3, mu=Fraction(-1), a=[1] * 9)
@example(n=5, p=2, mu=Fraction(-1), a=list(range(9)))
@given(
    n=st.integers(min_value=0, max_value=8),
    p=st.integers(min_value=0, max_value=9),
    mu=st.one_of(st.sampled_from(Z_GRID), rats, big_rats),
    a=st.lists(edge_rats, min_size=9, max_size=9),
)
def test_power_weight_oracle_matches_a_plain_loop(n, p, mu, a):
    # p > n too: the closed form checks p <= n, and the oracle is the plain sum at every p
    plain = sum((math.comb(n, k) * mu**k * k**p * Fraction(a[k]) for k in range(n + 1)), Fraction(0))
    value = _power_weight_oracle(a, n, p, mu)
    assert value == plain and type(value) is Fraction


@SETTINGS
@example(n=5, lam=Fraction(0), b=list(range(9)))
@example(n=3, lam=Fraction(-1, 2), b=[Fraction(-(10**99) - 1, 10**99)] * 9)
@given(n=st.integers(min_value=1, max_value=8), lam=st.one_of(lams, big_rats), b=st.lists(edge_rats, min_size=9, max_size=9))
def test_lemma21_sides_match_plain_loops(n, lam, b):
    # both sides of Lemma 2.1 against the plain Fraction loops of their formulas
    if lam.denominator == 1 and -n <= lam <= -1:
        return
    suffix = [Fraction(1)] * (n + 2)  # (lam+m)...(lam+n)
    for m in range(n, 0, -1):
        suffix[m] = (lam + m) * suffix[m + 1]
    lhs = math.factorial(n) * sum((b[m] / (math.factorial(m) * suffix[m]) for m in range(1, n + 1)), Fraction(0))
    if lam == 0:
        rhs = sum((Fraction(b[m]) / m for m in range(1, n + 1)), Fraction(0))
    else:
        c, rhs = Fraction(1), Fraction(0)  # c = C(lam-1+m, m)
        for m in range(1, n + 1):
            c = c * (lam - 1 + m) / m
            rhs += c * b[m]
        rhs /= lam * binom_rat(lam + n, n)
    assert lemma21_lhs(b, n, lam) == lhs == rhs == lemma21_rhs(b, n, lam)
    assert type(lemma21_lhs(b, n, lam)) is Fraction and type(lemma21_rhs(b, n, lam)) is Fraction


@SETTINGS
@example(n=4, mu=Fraction(0), lam=Fraction(0), w=list(range(9)))  # 0^0 = 1 at k = 0 and k = n
@example(n=3, mu=Fraction(1), lam=Fraction(1), w=[1, 2, 3, 4, 0, 0, 0, 0, 0])
@given(n=st.integers(min_value=0, max_value=8), mu=st.one_of(st.just(Fraction(0)), rats, big_rats), lam=st.one_of(st.just(Fraction(0)), rats, big_rats), w=st.lists(edge_rats, min_size=9, max_size=9))
def test_binomial_oracle_matches_a_plain_loop(n, mu, lam, w):
    plain = sum((math.comb(n, k) * mu**k * lam ** (n - k) * w[k] for k in range(n + 1)), Fraction(0))
    value = binomial_oracle(n, w, mu, lam)
    assert value == plain and type(value) is Fraction


@functools.cache
def _certified_polys() -> tuple:
    """(entry, n, its rhs at alpha = ALPHA) for each certifiable entry and n <= CERTIFY_N."""
    entries = [e for e in declare() if e.certify is not None]
    return tuple((e, n, e.rhs(n, ALPHA)) for e in entries for n in range(1, CERTIFY_N + 1))


@SETTINGS
@given(a=rats)
def test_certified_rhs_over_q_alpha_evaluates_to_the_rational_rhs(a):
    # what certify proves, the rhs at ALPHA, is the rhs that the grid grades
    polys = _certified_polys()
    assert {e.id for e, _, _ in polys} == {"gen-harmonic-relation", "idi1-alternating", "concl-item2"}
    for entry, n, poly in polys:
        assert poly(a) == entry.rhs(n, a)


@SETTINGS
@example(b=[7])
@example(b=[Fraction(-(10**100) + 1, 10**99)])
@example(b=[1, -2, 0, 5, 3])
@given(b=st.lists(edge_rats, min_size=1, max_size=12))
def test_inverse_binomial_transform_matches_direct_sum(b):
    direct = [sum(math.comb(n, k) * (-1) ** (n - k) * b[k] for k in range(n + 1)) for n in range(len(b))]
    inverse = inverse_binomial_transform(b)
    assert inverse == direct and _all_fractions(inverse)
    # and the forward transform
    plain_forward = [sum(math.comb(n, k) * Fraction(b[k]) for k in range(n + 1)) for n in range(len(b))]
    forward = binomial_transform(b)
    assert forward == plain_forward and _all_fractions(forward)
    # and the integer kernel of both: unreduced int numerators over b's common denominator
    for inverse_kernel, plain in ((False, plain_forward), (True, direct)):
        nums, den = transforms._transform_num(b, inverse=inverse_kernel)
        assert [Fraction(num, den) for num in nums] == plain
        assert den == math.lcm(*[Fraction(v).denominator for v in b])
        assert all(type(v) is int for v in [*nums, den])
    # and weighted_nabla's row, which calls the inverse transform, at every (n, m), terms past n included
    nablas = [weighted_nabla(b, n) for n in range(len(b))]
    assert nablas == [
        [sum(math.comb(n, j) * math.comb(j, n - m) * (-1) ** (n - j) * b[j] for j in range(n + 1)) for m in range(n + 1)]
        for n in range(len(b))
    ]
    assert all(_all_fractions(row) for row in nablas)


def _indexed_forms():
    """Every public function of closed_forms and transforms called as f(seq, n, ...)."""
    for module in (closed_forms, transforms):
        for name, fn in vars(module).items():
            if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_"):
                params = list(inspect.signature(fn).parameters.values())
                if len(params) > 1 and params[0].annotation.startswith("Sequence") and params[1].name == "n":
                    yield fn


INDEXED_FORMS = list(_indexed_forms())


def test_indexed_forms_are_found():
    names = {fn.__name__ for fn in INDEXED_FORMS}
    assert {"lambda1_case_rhs", "thm33_rhs", "thm33_nabla_rhs", "lemma21_lhs", "weighted_nabla"} <= names


@SETTINGS
@given(data=st.data(), n=st.integers(min_value=1, max_value=8), alpha=rats)
def test_short_sequences_raise_value_error(data, n, alpha):
    # fewer than the n+1 terms 0..n is a ValueError, never a silent value or an IndexError
    seq = data.draw(st.lists(rats, max_size=n))
    rest = {"lam": Fraction(2), "alpha": alpha, "p": 1}
    for fn in INDEXED_FORMS:
        params = list(inspect.signature(fn).parameters.values())[2:]
        args = [rest[p.name] for p in params if p.default is inspect.Parameter.empty]
        with pytest.raises(ValueError, match="must provide indices 0..n"):
            fn(seq, n, *args)


def test_mutated_gould_sum_fails_thm33(monkeypatch):
    # the one Gould sum, which the eulerbnew right side and Theorem 3.3 both call
    real = closed_forms._gould_num
    monkeypatch.setattr(closed_forms, "_gould_num", lambda n, j, p, q, lcm: real(n, j + 1, p, q, lcm))
    # the property's own body at one point (a full run spends seconds shrinking)
    with pytest.raises(AssertionError):
        test_thm33_rhs_matches_direct_sum.hypothesis.inner_test(3, Fraction(1, 3), [Fraction(k) for k in range(9)])
    entries = {e.id: e for e in build_registry(6, 42)}
    assert [run_entry(entries[i]).tier for i in ("eq-eulerbnew", "thm3.3-eqnnew8")] == ["FAILS", "FAILS"]


def test_mutated_transform_fails_round_trip(monkeypatch):
    # off by one in the binomial row; the inverse calls the same kernel
    def mutated(a):
        return [sum(math.comb(n + 1, k) * a[k] for k in range(n + 1)) for n in range(len(a))]

    monkeypatch.setattr(transforms, "binomial_transform", mutated)
    monkeypatch.setitem(globals(), "binomial_transform", mutated)
    with pytest.raises(AssertionError):
        test_binomial_transform_round_trips()
