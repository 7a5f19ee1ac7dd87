"""Exact rational scalars and binomial/factorial primitives.

Every scalar in this package is an exact ``fractions.Fraction`` (aliased as
``Rat``); nothing here ever touches floating point.  Fractions are always
stored reduced with a positive denominator, parse from strings like ``"p/q"``
and print the same way, so they double as the wire format.  The hot kernels
run their inner loops in ints: ``common_denominator`` lifts their inputs to
integer numerators over one denominator.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Sequence

Rat = Fraction

RatLike = Fraction | int

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


def check_terms(seq: Sequence, n: int, name: str) -> None:
    """Reject a sequence that lacks any of the terms 0..n (ValueError)."""
    if len(seq) < n + 1:
        raise ValueError(f"{name} must provide indices 0..n")


def common_denominator(values: Iterable[RatLike]) -> tuple[list[int], int]:
    """Integer numerators of ints and Fractions over their least common denominator.

    Returns (nums, den) with values[i] == Fraction(nums[i], den); den is 1 for
    no values or ints only.  The closed-form kernels sum these numerators and
    build one Fraction per output; no oracle calls this.
    """
    values = list(values)
    den = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (den // v.denominator) for v in values], den


def binom_int(n: int, k: int) -> int:
    """C(n, k) for integer n >= 0; zero outside 0 <= k <= n."""
    if n < 0:
        raise ValueError("binom_int requires n >= 0")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def binom_rat(x: RatLike, k: int) -> Fraction:
    """Generalized binomial coefficient x(x-1)...(x-k+1)/k!; zero for k < 0."""
    if k < 0:
        return Fraction(0)
    x = Fraction(x)
    num = Fraction(1)
    for i in range(k):
        num *= x - i
    return num / math.factorial(k)


def hockey_stick_sum(x: RatLike, n: int) -> Fraction:
    """sum_{m=0..n} C(x+m, m), which telescopes to C(x+n+1, n)."""
    if n < 0:
        raise ValueError("hockey_stick_sum requires n >= 0")
    x = Fraction(x)
    total = Fraction(0)
    term = Fraction(1)
    for m in range(n + 1):
        if m > 0:
            term = term * (x + m) / m
        total += term
    return total
