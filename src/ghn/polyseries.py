"""Dense polynomials and truncated power series over exact rationals.

``PolyQ`` certifies identities that are polynomial in a parameter by
coefficient-wise comparison; ``TruncSeries`` proves series identities through
a chosen order.  Both keep a tuple of ``Fraction`` coefficients, print as
``"c0 + c1*t + ..."`` and export their coefficients as arrays of ``"p/q"``
strings.  They differ only in their length rule: a ``PolyQ`` strips trailing
zeros and a product keeps every term, while a ``TruncSeries`` holds exactly
order + 1 coefficients and a product keeps the smaller operand's order.  Both
products, and the Horner steps of ``TruncSeries.compose``, run the one product
loop, ``_convolve``.  A scalar (an ``int`` or a ``Fraction``) may stand on
either side of a product and of a ``PolyQ`` sum or difference; no other type may.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import CompositionDomainError
from .exact import RatLike, common_denominator


def _convolve(a: Sequence[Fraction], b: Sequence[Fraction], size: int) -> list[Fraction]:
    """The first `size` coefficients of the product of coefficient vectors a and b.

    Convolves the integer numerators of a and b, each over its own common
    denominator, and divides once by the product of the two.
    """
    an, da = common_denominator(a[:size])
    bn, db = common_denominator(b[:size])
    rb = bn[::-1]
    last = len(bn) - 1
    den = da * db
    out = []
    for j in range(size):
        # i runs over lo..hi-1, and b_(j-i) is rb[last-j+i]
        lo, hi = max(0, j - last), min(j, len(an) - 1) + 1
        out.append(Fraction(sum(map(operator.mul, an[lo:hi], rb[last - j + lo : last - j + hi])), den))
    return out


class _Coeffs:
    """A coefficient tuple, c0 first; what PolyQ and TruncSeries share."""

    __slots__ = ("coeffs",)

    coeffs: tuple[Fraction, ...]

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __neg__(self):
        return type(self)([-c for c in self.coeffs])

    def __sub__(self, other):
        return self.__add__(-other)

    def __str__(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = f"{abs(c)}" if i == 0 else (f"{abs(c)}*t" if i == 1 else f"{abs(c)}*t^{i}")
            if not terms:
                terms.append(f"-{mag}" if c < 0 else mag)
            else:
                terms.append(f"- {mag}" if c < 0 else f"+ {mag}")
        return " ".join(terms) if terms else "0"

    def __repr__(self) -> str:
        return f"{type(self).__name__}([{', '.join(str(c) for c in self.coeffs)}])"

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coeffs]


class PolyQ(_Coeffs):
    """Dense univariate polynomial over Fraction, stored in canonical form.

    The coefficient tuple never has trailing zeros; the zero polynomial is the
    empty tuple (degree -1).
    """

    __slots__ = ()

    def __init__(self, coeffs: Iterable[RatLike] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        if isinstance(other, RatLike):
            other = PolyQ([other])
        elif not isinstance(other, PolyQ):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return PolyQ(out)

    __radd__ = __add__

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, PolyQ):
            a, b = self.coeffs, other.coeffs
            return PolyQ(_convolve(a, b, len(a) + len(b) - 1))
        if not isinstance(other, RatLike):
            return NotImplemented
        return PolyQ(c * other for c in self.coeffs)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "PolyQ":
        if k < 0:
            raise ValueError("negative polynomial power")
        out = PolyQ([1])
        for _ in range(k):
            out = out * self
        return out

    def __call__(self, at: RatLike) -> Fraction:
        at = Fraction(at)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * at + c
        return acc


def harmonic_poly(n: int, p: int = 1) -> PolyQ:
    """H_n^(p) as a polynomial in alpha: coefficient 1/j^p at degree j."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if p < 1:
        raise ValueError("p must be >= 1")
    return PolyQ([Fraction(0)] + [Fraction(1, j**p) for j in range(1, n + 1)])


class TruncSeries(_Coeffs):
    """Power series over Fraction kept through a fixed order (inclusive).

    Binary operations truncate to the smaller operand order; composition keeps
    the outer series' order, zero-extending the inner argument as needed.
    """

    __slots__ = ()

    def __init__(self, coeffs: Iterable[RatLike], order: int | None = None):
        cs = [Fraction(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError("order must be >= 0")
            cs = cs[: order + 1] + [Fraction(0)] * (order + 1 - len(cs))
        elif not cs:
            raise ValueError("an empty coefficient list needs an explicit order")
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, order: int) -> "TruncSeries":
        return cls([], order)

    @classmethod
    def one(cls, order: int) -> "TruncSeries":
        return cls([1], order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        if not isinstance(other, TruncSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return TruncSeries([self.coeffs[i] + other.coeffs[i] for i in range(n + 1)])

    def __mul__(self, other):
        if isinstance(other, TruncSeries):
            return TruncSeries(_convolve(self.coeffs, other.coeffs, min(self.order, other.order) + 1))
        if not isinstance(other, RatLike):
            return NotImplemented
        return TruncSeries([c * other for c in self.coeffs])

    __rmul__ = __mul__

    def compose(self, inner: "TruncSeries") -> "TruncSeries":
        """self(inner), by Horner; inner must have zero constant term."""
        if not isinstance(inner, TruncSeries):
            raise TypeError("compose expects a TruncSeries")
        if inner.coeffs[0] != 0:
            raise CompositionDomainError("inner series must have zero constant term")
        size = len(self.coeffs)
        acc = [self.coeffs[-1]]
        for c in reversed(self.coeffs[:-1]):
            acc = _convolve(acc, inner.coeffs, size)
            acc[0] += c
        return TruncSeries(acc, size - 1)


def log_one_minus(c: RatLike, order: int) -> TruncSeries:
    """Series of ln(1 - c*t): coefficient -c^k/k at t^k, zero constant term."""
    if order < 0:
        raise ValueError("order must be >= 0")
    c = Fraction(c)
    coeffs = [Fraction(0)]
    power = Fraction(1)
    for k in range(1, order + 1):
        power *= c
        coeffs.append(-power / k)
    return TruncSeries(coeffs, order)


def geometric(c: RatLike, order: int) -> TruncSeries:
    """Series of 1/(1 - c*t): coefficient c^k at t^k."""
    if order < 0:
        raise ValueError("order must be >= 0")
    c = Fraction(c)
    coeffs = [Fraction(1)]
    for _ in range(order):
        coeffs.append(coeffs[-1] * c)
    return TruncSeries(coeffs, order)
