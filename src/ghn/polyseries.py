"""Dense polynomials and truncated power series over exact rationals.

``PolyQ`` certifies identities that are polynomial in a parameter by
coefficient-wise comparison; ``TruncSeries`` proves series identities through
a chosen order.  Both keep one form: integer numerators over one denominator,
in lowest terms, so that their sums, products, compositions and comparisons
build no ``Fraction``; ``coeffs`` is the ``Fraction`` view of that form.
Both print as ``"c0 + c1*t + ..."``.  Their length rules differ: a ``PolyQ``
strips trailing zeros and a product keeps every term, while a ``TruncSeries``
holds exactly order + 1 coefficients and a product keeps the smaller
operand's order.  Every product runs the one integer product loop,
``_convolve_num``, on the numerators the operands hold, and so does
``TruncSeries.compose``, by baby steps and giant steps (Paterson &
Stockmeyer, SIAM J. Comput. 2(1), 1973): with size = order + 1 and blocks of
m = max(1, isqrt(size // 3)) terms, its baby steps inner^2..inner^m ask for
size coefficients each, and the giant step that adds block j asks for only
the size - jm that can reach the result, since its accumulator is later
multiplied by inner^(jm), of valuation at least jm (Brent & Kung, J. ACM
25(4), 1978, section 2).  A scalar (an ``int`` or a ``Fraction``) may stand
on either side of a product and of a ``PolyQ`` sum or difference; no other
type may, and a coefficient that is not an ``int`` or a ``Fraction`` (a
float, a string) raises ``TypeError``.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import zip_longest
from typing import Iterable, Sequence

from .errors import CompositionDomainError
from .exact import RatLike, as_fraction, common_denominator


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


class _Coeffs:
    """Coefficients c0, c1, ... as integer numerators over one denominator.

    Coefficient i is _nums[i] / _den, with _den > 0 and gcd(_den, *_nums) == 1,
    so equal values have equal (_nums, _den) and equal hashes.  Every operation
    is integer list work followed by one gcd reduction, in _of; ``coeffs`` is
    the Fraction view of the same form.  A PolyQ also drops trailing zero
    numerators there (its ``_strip``), so the zero polynomial is ((), 1); a
    TruncSeries keeps exactly order + 1 of them.
    """

    __slots__ = ("_nums", "_den")
    # PolyQ sets it; tested here rather than in an override of _of, so that no
    # operation makes a second call
    _strip = False

    @classmethod
    def _of(cls, nums: list[int], den: int):
        """A new cls holding nums / den (den > 0), in canonical form."""
        if cls._strip:
            while nums and not nums[-1]:
                nums.pop()
        # the top numerator first: a series' largest denominators sit there, so
        # the running gcd falls at once and the rest are cheap
        g = math.gcd(den, nums[-1], *nums) if nums else den
        self = object.__new__(cls)  # cls.__new__ takes coefficients
        self._nums = tuple(c // g for c in nums) if g > 1 else tuple(nums)
        self._den = den // g
        return self

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self._den) for c in self._nums)

    def __getnewargs__(self):
        # copy and pickle rebuild through __new__, which takes the coefficients
        return (self.coeffs,)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._den == other._den and self._nums == other._nums

    def __hash__(self) -> int:
        return hash((self._nums, self._den))

    def __neg__(self):
        return self._of([-c for c in self._nums], self._den)

    def __sub__(self, other):
        return self.__add__(-other)

    def _sum(self, other, size: int | None):
        """self + other through `size` numerators (None: all of them)."""
        # over lcm(da, db) = da * (db // g)
        g = math.gcd(self._den, other._den)
        fa, fb = other._den // g, self._den // g
        pairs = zip_longest(self._nums[:size], other._nums[:size], fillvalue=0)
        return self._of([x * fa + y * fb for x, y in pairs], self._den * fa)

    def _scaled(self, s: RatLike):
        """self times the scalar s."""
        return self._of([c * s.numerator for c in self._nums], self._den * s.denominator)

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
    """Dense univariate polynomial over Q, with no trailing zero coefficient.

    The zero polynomial has degree -1, and a product keeps every term.
    """

    __slots__ = ()
    _strip = True

    def __new__(cls, coeffs: Iterable[RatLike] = ()):
        return cls._of(*common_denominator(coeffs))

    @property
    def degree(self) -> int:
        return len(self._nums) - 1

    def is_zero(self) -> bool:
        return not self._nums

    def __add__(self, other):
        if isinstance(other, RatLike):
            other = PolyQ([other])
        elif not isinstance(other, PolyQ):
            return NotImplemented
        return self._sum(other, None)

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
        return self._scaled(other)

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
    """Power series over Q kept through a fixed order (inclusive).

    It holds exactly order + 1 numerators.  Binary operations truncate to the
    smaller operand order; composition keeps the outer series' order,
    zero-extending the inner argument as needed.
    """

    __slots__ = ()

    def __new__(cls, coeffs: Iterable[RatLike], order: int | None = None):
        nums, den = common_denominator(coeffs)
        if order is not None:
            if order < 0:
                raise ValueError("order must be >= 0")
            nums = nums[: order + 1] + [0] * (order + 1 - len(nums))
        elif not nums:
            raise ValueError("an empty coefficient list needs an explicit order")
        return cls._of(nums, den)

    @property
    def order(self) -> int:
        return len(self._nums) - 1

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self._sum(other, min(len(self._nums), len(other._nums)))

    def __mul__(self, other):
        if isinstance(other, TruncSeries):
            size = min(len(self._nums), len(other._nums))
            return TruncSeries._of(_convolve_num(self._nums, other._nums, size), self._den * other._den)
        if not isinstance(other, RatLike):
            return NotImplemented
        return self._scaled(other)

    __rmul__ = __mul__

    def compose(self, inner: "TruncSeries") -> "TruncSeries":
        """self(inner), by baby steps and giant steps in integers; inner must
        have zero constant term.

        With size = order + 1 and m = max(1, isqrt(size // 3)), the baby steps
        are inner^1..inner^m, each cut to size coefficients and reduced by one
        gcd.  Block j, sum_(r<m) s_(jm+r) inner^r, is kept over the lcm of the
        denominators of inner^1..inner^(m-1), and Horner in G = inner^m runs
        over the blocks (Paterson & Stockmeyer, SIAM J. Comput. 2(1), 1973):
        about m size^2 / 2 + size^3 / (6 m) products, least near m =
        sqrt(size / 3), instead of size^3 / 6.  With self = s / S, the
        accumulator is acc / (S lcm e); the giant step that adds block j keeps
        only the first size - jm coefficients, since its accumulator is later
        multiplied by G^j, of valuation at least jm, so no later coefficient
        reaches the result (Brent & Kung, J. ACM 25(4), 1978, section 2).
        Below order 11, m = 1: each block is s_j alone, and the giant steps
        are plain Horner in inner.
        """
        if not isinstance(inner, TruncSeries):
            raise TypeError("compose expects a TruncSeries")
        if inner._nums[0]:
            raise CompositionDomainError("inner series must have zero constant term")
        s, size = self._nums, len(self._nums)
        m = math.isqrt(size // 3) or 1
        # baby steps: G = gn / gd is inner^m, and powers[r - 1] / dens[r - 1] is inner^r for r < m;
        # at m = 1 there are none, and the giant steps below are Horner in inner
        gn, gd = inner._nums[:size], inner._den
        lcm, cols = 1, ()
        if m > 1:
            q, d, powers, dens = gn, gd, [], []
            for _ in range(m - 1):
                powers.append(gn)
                dens.append(gd)
                p, den = _convolve_num(gn, q, size), gd * d
                g = math.gcd(den, *p)
                gn, gd = [c // g for c in p], den // g
            # cols[k][r - 1] is the t^k coefficient of inner^r, over lcm
            lcm = math.lcm(*dens)
            cols = list(zip_longest(*[[c * (lcm // den) for c in p] for p, den in zip(powers, dens)], fillvalue=0))
        # giant steps: i = jm runs down over the blocks, and acc holds size - i coefficients
        top = (size - 1) // m * m
        acc, e = [0] * (size - top), 1
        for i in range(top, -1, -m):
            acc[0] += s[i] * lcm * e
            if cols:
                si = [c * e for c in s[i + 1 : i + m]]
                for k, col in enumerate(cols[: size - i]):
                    acc[k] += sum(map(operator.mul, si, col))
            if i:
                g = math.gcd(e, *acc)
                if g > 1:
                    acc, e = [a // g for a in acc], e // g
                acc = _convolve_num(acc, gn, size - i + m)
                e *= gd
        return TruncSeries._of(acc, self._den * lcm * e)


def log_one_minus(c: RatLike, order: int) -> TruncSeries:
    """Series of ln(1 - c*t): coefficient -c^k/k at t^k, zero constant term."""
    if order < 0:
        raise ValueError("order must be >= 0")
    c = as_fraction(c, "c")
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
    c = as_fraction(c, "c")
    coeffs = [Fraction(1)]
    for _ in range(order):
        coeffs.append(coeffs[-1] * c)
    return TruncSeries(coeffs, order)
