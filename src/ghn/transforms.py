"""Binomial transform machinery.

Forward and inverse binomial transforms, the double-sum expansion of
C(n,k)*k^p over Stirling numbers (which turns plain transforms into
k^p-weighted ones), and the combined weighted-nabla sum used by the
alternating harmonic-transform decomposition.

binomial_transform is the one C(n,k)-weighted sum of the closed forms:
inverse_binomial_transform flips its signs, and weighted_nabla's row is one
transform of b_n, -b_(n-1), b_(n-2), ...  The Sanchez Stirling double sums
are one integer row, _sanchez_row, dotted with C(n-l,k) (sanchez_weight) or
with b_(n-l) (sanchez_transform); sequences.laguerre keeps its defining sum.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Sequence

from .errors import OutOfValidityRangeError
from .exact import RatLike, binom_int, check_terms, common_denominator
from .sequences import stirling2


def binomial_transform(a: Sequence[RatLike]) -> list[Fraction]:
    """b_n = sum_{k=0..n} C(n, k) a_k for every index of a.

    Sums integer numerators over the terms' common denominator, with the
    binomial row built by Pascal's rule; one Fraction per output.
    """
    nums, den = common_denominator(a)
    if not nums:
        raise ValueError("empty sequence")
    out = []
    row = [1]
    for n in range(len(nums)):
        if n:
            row = [1, *map(operator.add, row, row[1:]), 1]
        out.append(Fraction(sum(map(operator.mul, row, nums)), den))
    return out


def inverse_binomial_transform(b: Sequence[RatLike]) -> list[Fraction]:
    """a_n = sum_{k=0..n} C(n, k) (-1)^(n-k) b_k, as (-1)^n times the transform of (-1)^k b_k."""
    flipped = binomial_transform([-v if k % 2 else v for k, v in enumerate(b)])
    return [-v if n % 2 else v for n, v in enumerate(flipped)]


def _sanchez_row(n: int, p: int) -> list[int]:
    """(-1)^l C(n,l) sum_{j=l..p} C(n-l,j-l) j! S(p,j) for l <= min(p, n); C(n,l) is 0 past n."""
    weights = [math.factorial(j) * stirling2(p, j) for j in range(p + 1)]
    return [
        (-1) ** l * binom_int(n, l) * sum(binom_int(n - l, j - l) * weights[j] for j in range(l, p + 1))
        for l in range(min(p, n) + 1)
    ]


def sanchez_weight(n: int, k: int, p: int) -> int:
    """Signed double sum over shifted binomials that rebuilds C(n,k)*k^p.

    sum_{l,j} (-1)^l C(n-l,k) C(n,l) C(n-l,j-l) j! S(p,j), with l,j up to p:
    the row of _sanchez_row dotted with C(n-l,k).
    """
    if not 0 <= k <= n:
        raise ValueError("requires 0 <= k <= n")
    if p < 0:
        raise ValueError("p must be >= 0")
    return sum(c * binom_int(n - l, k) for l, c in enumerate(_sanchez_row(n, p)))


def _scaled_binom(coef: int, n: int, k: int) -> int:
    # lazily guards binom_int against negative n when the multiplier vanishes
    return coef * binom_int(n, k) if coef else 0


def sanchez_weight_p1(n: int, k: int) -> int:
    """Printed p = 1 specialization: n*C(n,k) - n*C(n-1,k)."""
    return _scaled_binom(n, n, k) - _scaled_binom(n, n - 1, k)


def sanchez_weight_p2(n: int, k: int) -> int:
    """Printed p = 2 specialization: n^2*C(n,k) - n(2n-1)*C(n-1,k) + n(n-1)*C(n-2,k)."""
    return (
        _scaled_binom(n * n, n, k)
        - _scaled_binom(n * (2 * n - 1), n - 1, k)
        + _scaled_binom(n * (n - 1), n - 2, k)
    )


def sanchez_weight_p3(n: int, k: int) -> int:
    """Printed p = 3 specialization with four shifted binomials."""
    return (
        _scaled_binom(n**3, n, k)
        - _scaled_binom(n * (3 * n * n - 3 * n + 1), n - 1, k)
        + _scaled_binom(3 * n * (n - 1) ** 2, n - 2, k)
        - _scaled_binom(n * (n - 1) * (n - 2), n - 3, k)
    )


def sanchez_transform(b: Sequence[RatLike], n: int, p: int) -> Fraction:
    """sum_k C(n,k) k^p a_k recovered from the plain transform b of a.

    The row of _sanchez_row dotted with the integer numerators of b_n, ...,
    b_(n-p) over their common denominator.  Valid for p <= n; larger p raises
    OutOfValidityRangeError rather than returning a silently wrong value.
    """
    if p < 0:
        raise ValueError("p must be >= 0")
    if p > n:
        raise OutOfValidityRangeError(f"weighted transform needs p <= n, got p={p}, n={n}")
    check_terms(b, n, "b")
    nums, den = common_denominator(b[n - p : n + 1])
    return Fraction(sum(map(operator.mul, _sanchez_row(n, p), reversed(nums))), den)


def weighted_nabla(b: Sequence[RatLike], n: int) -> list[Fraction]:
    """sum_{j=0..n} C(n,j) C(j,n-m) (-1)^(n-j) b_j for m = 0..n  (C(n,m) nabla^m b_n).

    By trinomial revision C(n,j) C(j,n-m) = C(n,m) C(m,n-j), term m is C(n,m)
    times the m-th binomial transform value of b_n, -b_(n-1), b_(n-2), ...
    """
    if n < 0:
        raise ValueError("requires n >= 0")
    check_terms(b, n, "b")
    flipped = binomial_transform([-v if i % 2 else v for i, v in enumerate(b[n::-1])])
    return [binom_int(n, m) * v for m, v in enumerate(flipped)]
