import copy
import pickle
import random
from fractions import Fraction

import pytest

from ghn.errors import SeqSpecError
from ghn.exact import binom_int
from ghn.sequences import (
    SeqSpec,
    bernoulli,
    bernoulli_table,
    fibonacci,
    harmonic,
    harmonic_p,
    harmonic_table,
    laguerre,
    lucas,
    materialize,
    parse_seq_spec,
    skew_harmonic,
    stirling2,
    stirling2_row,
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


def test_tables_reject_a_negative_index():
    for call in (lambda: stirling2_row(-1), lambda: stirling2(-1, 0), lambda: stirling2(3, -1)):
        with pytest.raises(ValueError, match="stirling2 requires p, j >= 0"):
            call()
    for call in (lambda: bernoulli_table(-1), lambda: bernoulli(-1)):
        with pytest.raises(ValueError, match="n must be >= 0"):
            call()
    assert stirling2_row(0) == [1] and bernoulli_table(0) == [1]


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


def test_spec_text_parses_to_its_spec():
    for text, spec in (
        ("harmonic:p=2,alpha=1/3", SeqSpec("harmonic_p", {"p": Fraction(2), "alpha": Fraction(1, 3)})),
        ("harmonic_p:alpha=-7/2", SeqSpec("harmonic_p", {"alpha": Fraction(-7, 2)})),
        ("laguerre:x=2/5", SeqSpec("laguerre", {"x": Fraction(2, 5)})),
        ("fibonacci:doubled=true", SeqSpec("fibonacci", {"doubled": Fraction(1)})),
        ("lucas:doubled=false", SeqSpec("lucas", {"doubled": Fraction(0)})),
        ("powers:base=-2", SeqSpec("powers", {"base": Fraction(-2)})),
        ("stirling_row:p=4", SeqSpec("stirling_row", {"p": Fraction(4)})),
        ("skew", SeqSpec("skew")),
        ("bernoulli", SeqSpec("bernoulli")),
    ):
        assert parse_seq_spec(text) == spec


def test_seq_spec_is_immutable_unhashable_and_equal_by_value():
    spec = SeqSpec("harmonic_p", {"p": Fraction(2), "alpha": Fraction(1, 3)})
    for name in ("kind", "params", "other"):
        with pytest.raises(AttributeError):
            setattr(spec, name, None)
    with pytest.raises(AttributeError):
        del spec.kind
    with pytest.raises(TypeError):
        hash(SeqSpec("skew"))
    assert spec == SeqSpec(kind="harmonic_p", params={"alpha": Fraction(1, 3), "p": Fraction(2)})
    assert spec != SeqSpec("harmonic_p", {"p": Fraction(2)})
    assert SeqSpec("skew") != ("skew", {})
    assert repr(spec) == "SeqSpec(kind='harmonic_p', params={'p': Fraction(2, 1), 'alpha': Fraction(1, 3)})"
    assert repr(SeqSpec("skew")) == "SeqSpec(kind='skew', params={})"
    assert SeqSpec("skew").params is not SeqSpec("skew").params
    assert copy.deepcopy(spec) == spec and pickle.loads(pickle.dumps(spec)) == spec
    with pytest.raises(TypeError):
        SeqSpec("skew", {}, 3)


def test_whitespace_around_a_kind_is_ignored():
    spec = SeqSpec("harmonic_p", {"p": Fraction(1)})
    for text in ("harmonic : p=1", "harmonic:p = 1", " harmonic_p\t:p=1 ", "harmonic:p=1"):
        assert parse_seq_spec(text) == spec
    assert parse_seq_spec(" skew ") == SeqSpec("skew")
    assert materialize(parse_seq_spec("harmonic : p=1"), 6) == materialize(parse_seq_spec("harmonic:p = 1"), 6)


KINDS = ["bernoulli", "fibonacci", "harmonic_p", "laguerre", "lucas", "powers", "skew", "stirling_row"]
KNOWN_KINDS = "['bernoulli', 'fibonacci', 'harmonic_p', 'laguerre', 'lucas', 'powers', 'skew', 'stirling_row']"


@pytest.mark.parametrize(
    "kind, params, message",
    [
        ("nosuch", {}, f"unknown sequence kind 'nosuch'; known: {KNOWN_KINDS}"),
        ("harmonic", {}, f"unknown sequence kind 'harmonic'; known: {KNOWN_KINDS}"),  # the alias is text-only
        ("fibonacci", {"x": 1}, "fibonacci does not take parameters ['x']"),
        ("skew", {"p": 1, "alpha": 1}, "skew does not take parameters ['alpha', 'p']"),
        ("bernoulli", {"doubled": 1}, "bernoulli does not take parameters ['doubled']"),
        ("harmonic_p", {"x": 1}, "harmonic_p does not take parameters ['x']"),
        ("laguerre", {}, "laguerre requires parameters ['x']"),
        ("stirling_row", {}, "stirling_row requires parameters ['p']"),
        ("powers", {}, "powers requires parameters ['base']"),
        ("harmonic_p", {"p": Fraction(3, 2)}, "harmonic_p requires integer p >= 1"),
        ("harmonic_p", {"p": Fraction(97, 2)}, "harmonic_p requires integer p >= 1"),
        ("harmonic_p", {"p": Fraction(0)}, "harmonic_p requires integer p >= 1"),
        ("harmonic_p", {"p": Fraction(-3)}, "harmonic_p requires integer p >= 1"),
        ("stirling_row", {"p": Fraction(1, 2)}, "stirling_row requires integer p >= 0"),
        ("stirling_row", {"p": Fraction(361, 2)}, "stirling_row requires integer p >= 0"),
        ("stirling_row", {"p": Fraction(-1)}, "stirling_row requires integer p >= 0"),
        ("harmonic_p", {"p": Fraction(49)}, "harmonic_p p=49 is out of range: must be at most 48"),
        ("stirling_row", {"p": Fraction(181)}, "stirling_row p=181 is out of range: must be at most 180"),
        ("fibonacci", {"doubled": Fraction(7)}, "fibonacci doubled must be 0 or 1 (false or true)"),
        ("lucas", {"doubled": Fraction(1, 2)}, "lucas doubled must be 0 or 1 (false or true)"),
    ],
)
def test_spec_validation_messages(kind, params, message):
    with pytest.raises(SeqSpecError) as exc:
        SeqSpec(kind, params)
    assert str(exc.value) == message


def test_spec_text_validation_messages():
    cases = {
        "nosuch:p=1": f"unknown sequence kind 'nosuch'; known: {KNOWN_KINDS}",
        "harmonic:p=49": "harmonic_p p=49 is out of range: must be at most 48",
        "harmonic:p=1/2": "harmonic_p requires integer p >= 1",
        "stirling_row:p=181": "stirling_row p=181 is out of range: must be at most 180",
        "stirling_row": "stirling_row requires parameters ['p']",
        "fibonacci:doubled=7": "doubled must be true or false, got '7'",
    }
    for text, message in cases.items():
        with pytest.raises(SeqSpecError) as exc:
            parse_seq_spec(text)
        assert str(exc.value) == message
    # the caps themselves are accepted
    assert materialize(parse_seq_spec("harmonic:p=48"), 1) == [0, 1]
    assert materialize(parse_seq_spec("stirling_row:p=180"), 1) == [0, 1]


def test_spec_items_are_read_in_order():
    # each item is checked as it is read, so the first bad item is the one reported:
    # the bad rational before the item with no "=" that follows it
    cases = {
        "harmonic:foo": "expected name=value, got 'foo'",
        "harmonic:alpha=x,foo": "bad rational 'x' for alpha: Invalid literal for Fraction: 'x'",
        "harmonic:p=1,foo,p=2": "expected name=value, got 'foo'",
        "harmonic:p=1,p=2,foo": "parameter 'p' is given twice",
        "fibonacci:doubled=no,doubled": "doubled must be true or false, got 'no'",
    }
    for text, message in cases.items():
        with pytest.raises(SeqSpecError) as exc:
            parse_seq_spec(text)
        assert str(exc.value) == message, text


def _direct_cases():
    """(spec, terms(k_max) from the generator called directly) for every kind over a small grid."""
    for p in (1, 2, 3, 48):
        for alpha in (Fraction(1), Fraction(-1, 3), Fraction(2)):
            spec = SeqSpec("harmonic_p", {"p": Fraction(p), "alpha": alpha})
            yield spec, lambda n, p=p, alpha=alpha: harmonic_table(n, p, alpha)
    yield SeqSpec("harmonic_p"), lambda n: harmonic_table(n, 1, 1)
    yield SeqSpec("harmonic_p", {"p": Fraction(2)}), lambda n: harmonic_table(n, 2, 1)
    yield SeqSpec("harmonic_p", {"alpha": Fraction(1, 2)}), lambda n: harmonic_table(n, 1, Fraction(1, 2))
    yield SeqSpec("skew"), lambda n: [skew_harmonic(k) for k in range(n + 1)]
    for kind, gen in (("fibonacci", fibonacci), ("lucas", lucas)):
        yield SeqSpec(kind), lambda n, gen=gen: [gen(k) for k in range(n + 1)]
        yield SeqSpec(kind, {"doubled": Fraction(0)}), lambda n, gen=gen: [gen(k) for k in range(n + 1)]
        yield SeqSpec(kind, {"doubled": Fraction(1)}), lambda n, gen=gen: [gen(2 * k) for k in range(n + 1)]
    yield SeqSpec("bernoulli"), lambda n: [bernoulli(k) for k in range(n + 1)]
    for x in (Fraction(-2, 3), Fraction(0), Fraction(1, 2), Fraction(3)):
        yield SeqSpec("laguerre", {"x": x}), lambda n, x=x: [laguerre(k, x) for k in range(n + 1)]
    for p in (0, 1, 4, 9, 180):
        yield SeqSpec("stirling_row", {"p": Fraction(p)}), lambda n, p=p: [stirling2(p, j) for j in range(n + 1)]
    for base in (Fraction(-2), Fraction(0), Fraction(1, 3), Fraction(5)):
        yield SeqSpec("powers", {"base": base}), lambda n, base=base: [base**k for k in range(n + 1)]


def test_materialize_equals_each_generator():
    cases = list(_direct_cases())
    assert sorted({spec.kind for spec, _ in cases}) == KINDS
    for spec, direct in cases:
        for n_max in range(13):
            terms = materialize(spec, n_max)
            assert terms == direct(n_max), (spec, n_max)
            assert all(type(t) is Fraction for t in terms)
    with pytest.raises(ValueError):
        materialize(SeqSpec("skew"), -1)


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
