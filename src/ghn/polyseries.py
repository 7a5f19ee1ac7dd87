"""Dense polynomials and truncated power series over exact rationals.

``PolyQ`` certifies identities that are polynomial in a parameter by
coefficient-wise comparison; ``TruncSeries`` proves series identities through
a chosen order.  A ``TruncSeries`` keeps a tuple of ``Fraction`` coefficients.
A ``PolyQ`` keeps integer numerators over one denominator, in lowest terms,
so that its sums, products and comparisons build no ``Fraction``; its
``coeffs`` is the ``Fraction`` view of that form.  Both print as
``"c0 + c1*t + ..."``.  Their length rules differ: a ``PolyQ`` strips
trailing zeros and a product keeps every term, while a ``TruncSeries`` holds
exactly order + 1 coefficients and a product keeps the smaller operand's
order.  Every product runs the one integer product loop, ``_convolve_num``: a
``PolyQ`` product passes the numerators it holds, and a ``TruncSeries``
product and the Horner steps of ``TruncSeries.compose`` go through
``_convolve``, which lifts each operand over its common denominator.  A
scalar (an ``int`` or a ``Fraction``) may stand on either side of a product
and of a ``PolyQ`` sum or difference; no other type may.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import CompositionDomainError
from .exact import RatLike, common_denominator


def _convolve_num(a: Sequence[int], b: Sequence[int], size: int) -> list[int]:
    """The first `size` coefficients of the product of integer vectors a and b."""
    rb = b[::-1]
    last = len(b) - 1
    out = []
    for j in range(size):
        # i runs over lo..hi-1, and b_(j-i) is rb[last-j+i]
        lo, hi = max(0, j - last), min(j, len(a) - 1) + 1
        out.append(sum(map(operator.mul, a[lo:hi], rb[last - j + lo : last - j + hi])))
    return out


def _convolve(a: Sequence[Fraction], b: Sequence[Fraction], size: int) -> list[Fraction]:
    """The first `size` coefficients of the product of coefficient vectors a and b.

    Convolves the integer numerators of a and b, each over its own common
    denominator, and divides once by the product of the two.
    """
    an, da = common_denominator(a[:size])
    bn, db = common_denominator(b[:size])
    den = da * db
    return [Fraction(c, den) for c in _convolve_num(an, bn, size)]


class _Coeffs:
    """A coefficient tuple, c0 first; what PolyQ and TruncSeries share.

    Equality, hashing and negation here read ``coeffs``; PolyQ overrides them
    on its integer form.
    """

    __slots__ = ()

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


class PolyQ(_Coeffs):
    """Dense univariate polynomial over Q, stored in canonical form.

    Integer numerators over one denominator: coefficient i is _nums[i] / _den,
    with _den > 0, gcd(_den, *_nums) == 1 and no trailing zero numerator, so
    the zero polynomial is ((), 1), of degree -1.  Each operation is integer
    list work followed by one gcd reduction; ``coeffs`` is the Fraction view of
    the same form.
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, coeffs: Iterable[RatLike] = ()):
        # a float or a string is read as Fraction() reads it
        self._canonize(*common_denominator([c if isinstance(c, RatLike) else Fraction(c) for c in coeffs]))

    def _canonize(self, nums: list[int], den: int) -> "PolyQ":
        """Set self to nums / den (den > 0): strip trailing zeros, divide out the gcd."""
        while nums and not nums[-1]:
            nums.pop()
        g = math.gcd(den, *nums)
        self._nums = tuple(c // g for c in nums) if g > 1 else tuple(nums)
        self._den = den // g
        return self

    @classmethod
    def _of(cls, nums: list[int], den: int) -> "PolyQ":
        return cls.__new__(cls)._canonize(nums, den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self._den) for c in self._nums)

    @property
    def degree(self) -> int:
        return len(self._nums) - 1

    def is_zero(self) -> bool:
        return not self._nums

    def __eq__(self, other) -> bool:
        return type(other) is PolyQ and self._den == other._den and self._nums == other._nums

    def __hash__(self) -> int:
        return hash((self._nums, self._den))

    def __neg__(self) -> "PolyQ":
        return PolyQ._of([-c for c in self._nums], self._den)

    def __add__(self, other):
        if isinstance(other, RatLike):
            other = PolyQ([other])
        elif not isinstance(other, PolyQ):
            return NotImplemented
        # over lcm(da, db) = da * (db // g)
        g = math.gcd(self._den, other._den)
        fa, fb = other._den // g, self._den // g
        a = [c * fa for c in self._nums]
        b = [c * fb for c in other._nums]
        if len(a) < len(b):
            a, b = b, a
        for i, c in enumerate(b):
            a[i] += c
        return PolyQ._of(a, self._den * fa)

    __radd__ = __add__

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, PolyQ):
            a, b = self._nums, other._nums
            if not a or not b:
                return PolyQ()
            return PolyQ._of(_convolve_num(a, b, len(a) + len(b) - 1), self._den * other._den)
        if not isinstance(other, RatLike):
            return NotImplemented
        return PolyQ._of([c * other.numerator for c in self._nums], self._den * other.denominator)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "PolyQ":
        if k < 0:
            raise ValueError("negative polynomial power")
        out, square = PolyQ([1]), self
        while k:  # by squaring
            if k & 1:
                out = out * square
            k >>= 1
            if k:
                square = square * square
        return out

    def __call__(self, at: RatLike) -> Fraction:
        at = Fraction(at)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * at + c
        return acc


def harmonic_poly(n: int, p: int = 1) -> PolyQ:
    """H_n^(p) as a polynomial in alpha: coefficient 1/j^p at degree j.

    The numerators are L // j^p over L = lcm(1..n)^p, the lcm of the j^p.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if p < 1:
        raise ValueError("p must be >= 1")
    lcm = math.lcm(*range(1, n + 1)) ** p
    return PolyQ._of([0] + [lcm // j**p for j in range(1, n + 1)], lcm)


class TruncSeries(_Coeffs):
    """Power series over Fraction kept through a fixed order (inclusive).

    Binary operations truncate to the smaller operand order; composition keeps
    the outer series' order, zero-extending the inner argument as needed.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RatLike], order: int | None = None):
        cs = [Fraction(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError("order must be >= 0")
            cs = cs[: order + 1] + [Fraction(0)] * (order + 1 - len(cs))
        elif not cs:
            raise ValueError("an empty coefficient list needs an explicit order")
        self.coeffs = tuple(cs)

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
