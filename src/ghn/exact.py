"""Exact rational scalars and binomial/factorial primitives.

Every scalar in this package is exact: an ``int`` or a ``fractions.Fraction``.
A side may pass an integer scalar as an int (``registry._ht_sum(-1, n)``), and
a kernel reads either kind as an integer numerator and denominator (the reader
rule below); nothing here ever touches floating point.  Fractions are always
stored reduced with a positive denominator, parse from strings like ``"p/q"``
and print the same way, so they double as the wire format.  The series
kernels read their scalar arguments through ``as_fraction``, which refuses a
float instead of reading its binary expansion.

The lifting rule, for the whole package: a kernel that sums exact terms lifts
them once to integer numerators over one denominator and runs its inner loop
in ints, through one of two functions.  The closed forms (and the series
constructors) lift through ``common_denominator``; the direct-sum oracles lift
through ``_oracle_terms``.  No function calls both, so a fault in either lift
reaches one side of a row only and cannot cancel.  Both refuse a term that is
not an int or a Fraction, a float included, with a TypeError.  Each oracle is
that lift plus an integer kernel over (nums, den); the registry's grid sides
call the kernel on a lift read once per run: of each harmonic table and each
family sequence, whole, and of the Gould weights per (n, j).  Where the
weights of a sum depend only on the grid point (n and lambda, or n and
alpha), a pure row builder makes them once, as (weights, scale) in integers,
and a cell is one dot product of that row with the lifted numerators, one
Fraction: ``_oracle_dot`` on the oracle side, closed_forms._dot on the other.

The reader rule, written apart in the same way: a kernel reads a scalar
(alpha, lambda, mu, z, a) as its numerator and denominator through one of two
functions, ``_ratio`` on the closed forms' side and ``_oracle_ratio`` on the
oracles'.  Each reads an int or a Fraction as it is and any other scalar (a
float, a string) through Fraction(), and neither calls the other.  A weight
row per (n, scalar) is read through the run memo by closed_forms._row or
registry._oracle_row, which key it by the scalar their side's reader gives.
closed_forms.check_lambda_domain and sequences._harmonic_num, which both
sides of some rows reach, read their scalar inline, so no reader is shared.

The cache rule, for the whole package: every memo is the run memo.
``shared_run(size)`` opens one for the length of a ``with`` block, and
``_shared(key, build)`` returns build() once per key inside it; with no run
open, ``_shared`` builds on every call.  The verifier opens one per
``run_entry`` call, sized by the largest n of its cells, and it is dropped
when that call ends, so no value outlives its run and a kernel patched
between two runs reaches the second.  ``_shared_table`` reads a table indexed
0..n through it, built once to the run's size, so one table serves every n of
the run; outside a run it is built to the n asked for.  No module keeps a
cache of values of its own (cli builds its argument parser, with the parser
of each command, once per process; it holds no computed value).  No oracle
function calls ``_shared``, nor does a row builder.  Its readers, and their
tags, are:
  - closed_forms: per sequence, keyed by its id(), its transform ("ratio"
    for boyadzhiev_ratio_closed, of (0, a_1, a_2, ...); "transform" for
    power_weighted_rhs; "transform_num" for lambda1_case_rhs), inverse
    transform ("inverse", which both Theorem 3.3 forms read) or lift
    ("lemma21"); the weight rows, with their argument checks, of Lemma 2.1
    per (n, lambda) ("lemma21_row") and of Theorem 3.3 per (n, alpha)
    ("thm33_row", "nabla"); and the newcoffey form's Pan values per
    (m, z, alpha) ("pan"), which every (n, p) with n-p <= m <= n reads;
  - transforms: the Sanchez weights j! S(p, j), per p ("sanchez-weights");
  - registry: the oracle inputs and rows that its sides read, under tags
    that no closed form uses: through ``_shared_table``, the harmonic tables
    ("harmonic_table"), their lifts ("harmonic_terms"), the Bernoulli numbers
    ("bernoulli_table") and the series of Pan's lemma and of
    log(1-alpha*t)/(1-t) ("pan_lemma_series", "harmonic_genfunc"); through
    ``_shared``, the lift of each family sequence, keyed by its id()
    ("oracle_terms"), the Gould row per (n, j)
    ("gould_row"), the ratio and Lemma 2.1 oracle rows per (n, lambda)
    ("ratio_row", "lemma21_lhs_row") and the harmonic row
    sign^k C(n,k) N_k per (n, alpha, sign) ("harmonic_row").
A key is a tuple whose first item, its tag, names what it holds.  A rational
enters a key as the numerator and denominator that a scalar reader gives,
never as a Fraction, whose hash is recomputed on every lookup.  The memo lives
in a ContextVar.

binom_rat builds one Fraction from an integer product: with x = p/q,
C(x, k) = p(p-q)...(p-(k-1)q) / (q^k k!).  hockey_stick_sum, the oracle of the
hockey-stick row, sums its terms as integers over n! q^n and shares no kernel
with binom_rat.
"""

from __future__ import annotations

import contextvars
import math
import operator
import re
from contextlib import contextmanager
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Iterator, Sequence, TypeVar

RatLike = Fraction | int

T = TypeVar("T")

# Longest numerator or denominator a rational read from text may have, so
# that no input value can request unbounded work.
RAT_DIGITS = 100
_RAT_BOUND = 10**RAT_DIGITS
_EXPONENT = re.compile(r"e([-+]?\d[\d_]*)\s*$", re.IGNORECASE)


def parse_rat(text: str) -> Fraction:
    """Fraction(text), rejecting a numerator or denominator of more than RAT_DIGITS digits.

    Fraction expands an exponent ("1e999999999") before any check, so the
    exponent is bounded first.  Raises ValueError (or ZeroDivisionError for a
    zero denominator) like Fraction itself.
    """
    exp = _EXPONENT.search(text)
    if exp and abs(int(exp.group(1))) > RAT_DIGITS + len(text):
        raise ValueError(f"exponent of {text!r} is out of range: values may have at most {RAT_DIGITS} digits")
    value = Fraction(text)
    if abs(value.numerator) >= _RAT_BOUND or value.denominator >= _RAT_BOUND:
        raise ValueError(f"{text!r} is out of range: numerator and denominator may have at most {RAT_DIGITS} digits")
    return value


def as_fraction(x: RatLike, name: str) -> Fraction:
    """x as a Fraction; x must be an int or a Fraction, and any other type (a float, a string) raises TypeError."""
    if not isinstance(x, RatLike):
        raise TypeError(f"{name} must be an int or a Fraction, not {type(x).__name__}")
    return Fraction(x)


def check_terms(seq: Sequence, n: int, name: str) -> None:
    """Reject a sequence that lacks any of the terms 0..n (ValueError)."""
    if len(seq) < n + 1:
        raise ValueError(f"{name} must provide indices 0..n")


def common_denominator(values: Iterable[RatLike]) -> tuple[list[int], int]:
    """Integer numerators of ints and Fractions over their least common denominator.

    Returns (nums, den) with values[i] == Fraction(nums[i], den); den is 1 for
    no values or ints only, and any other value (a float) raises TypeError.
    The lift of the closed forms (the rule is in the module docstring): they
    sum these numerators and build one Fraction per output.  The PolyQ and
    TruncSeries constructors lift through it too, so the series oracles
    pan_lemma_series and harmonic_genfunc reach it; the other side of each of
    their rows (harmonic_table, binomial_oracle) does not, so a fault here
    still cannot hide.
    """
    values = list(values)
    try:
        den = math.lcm(*[v.denominator for v in values])
        return [v.numerator * (den // v.denominator) for v in values], den
    except AttributeError:
        raise TypeError("common_denominator takes int and Fraction values") from None


def _oracle_terms(values: Sequence[RatLike], who: str) -> tuple[list[int], int]:
    """The oracles' lift: integer numerators of ints and Fractions over their lcm.

    Returns (nums, den) with values[i] == Fraction(nums[i], den), as
    common_denominator does, but written apart from it, since the oracles
    check the closed forms that lift through it.  Any other term (a float)
    raises TypeError naming ``who``, the oracle that was given it.
    """
    try:
        dens = [v.denominator for v in values]
    except AttributeError:
        raise TypeError(f"{who} takes int and Fraction terms") from None
    den = math.lcm(*dens)
    return [v.numerator * (den // d) for v, d in zip(values, dens)], den


def _ratio(x: RatLike) -> tuple[int, int]:
    """The closed forms' scalar reader: (numerator, denominator) of x, an int or a Fraction as it is, any other scalar through Fraction()."""
    x = x if type(x) is Fraction or type(x) is int else Fraction(x)
    return x.numerator, x.denominator


def _oracle_ratio(x: RatLike) -> tuple[int, int]:
    """The oracles' scalar reader, written apart from _ratio: (numerator, denominator) of x, read as _ratio reads it."""
    x = x if type(x) is Fraction or type(x) is int else Fraction(x)
    return x.numerator, x.denominator


def _oracle_dot(row: tuple[Sequence[int], int], nums: Sequence[int], den: int) -> Fraction:
    """The oracles' dot product: sum_k weights[k] nums[k] over scale * den, one Fraction, for row = (weights, scale).

    nums may run past the row, and one that stops short of it is a ValueError
    (check_terms).  The closed forms dot their rows with a kernel of their
    own, so a fault here reaches the oracle side of a row only.
    """
    weights, scale = row
    check_terms(nums, len(weights) - 1, "the terms")
    return Fraction(sum(map(operator.mul, weights, nums)), scale * den)


# (the memo, the largest n) of the run that is open in this context, or None outside every run
_RUN: contextvars.ContextVar[tuple[dict, int] | None] = contextvars.ContextVar("ghn_shared_run", default=None)


@contextmanager
def shared_run(size: int = 0) -> Iterator[None]:
    """Open a fresh memo for _shared until the block ends, then restore the outer one.

    size is the largest n the run asks for; _shared_table builds its tables to
    it.  A key that names a sequence by its id() must keep a reference to that
    sequence in its value, so that the id cannot be reused while the run
    lasts; and no caller may mutate a sequence while a run is open.
    """
    token = _RUN.set(({}, size))
    try:
        yield
    finally:
        _RUN.reset(token)


def _shared(key: Hashable, build: Callable[[], T]) -> T:
    """build() once per key in the open run; with no run open, build() on every call."""
    run = _RUN.get()
    if run is None:
        return build()
    memo = run[0]
    value = memo.get(key, _RUN)  # _RUN marks a key not built yet: no build returns it
    if value is _RUN:
        value = memo[key] = build()
    return value


def _shared_table(tag: str, key: Hashable, n: int, build: Callable[[int], T]) -> T:
    """build(m), a table indexed 0..m, with m = max(n, the open run's size); through _shared under (tag, key, m).

    Inside a run each key is built once, to the run's size, and serves every n
    up to it; m is in the key, so an n past the size (a run opened with no
    size) builds a longer table of its own.  With no run open, m = n.
    """
    run = _RUN.get()
    m = n if run is None else max(n, run[1])
    return _shared((tag, key, m), lambda: build(m))


def binom_int(n: int, k: int) -> int:
    """C(n, k) for integer n >= 0; zero outside 0 <= k <= n."""
    if n < 0:
        raise ValueError("binom_int requires n >= 0")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def binom_rat(x: RatLike, k: int) -> Fraction:
    """Generalized binomial coefficient x(x-1)...(x-k+1)/k!; zero for k < 0.

    With x = p/q it is one Fraction, p(p-q)...(p-(k-1)q) / (q^k k!).
    """
    if k < 0:
        return Fraction(0)
    p, q = _ratio(x)
    num = 1
    for i in range(k):
        num *= p - i * q
    return Fraction(num, q**k * math.factorial(k))


def hockey_stick_sum(x: RatLike, n: int) -> Fraction:
    """sum_{m=0..n} C(x+m, m), summed term by term (it telescopes to C(x+n+1, n)).

    An oracle that shares no kernel with binom_rat: with x = p/q, term m is
    (p+q)(p+2q)...(p+mq) / (m! q^m), and the terms are summed over n! q^n by
    Horner's rule, so one Fraction is built.
    """
    if n < 0:
        raise ValueError("hockey_stick_sum requires n >= 0")
    p, q = _oracle_ratio(x)
    total = 0
    rising = den = 1  # (p+q)...(p+mq) and m! q^m
    for m in range(n + 1):
        if m > 0:
            rising *= p + m * q
            den *= m * q
        total = total * m * q + rising  # the terms 0..m over m! q^m
    return Fraction(total, den)
