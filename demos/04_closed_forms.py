#!/usr/bin/env python3
"""Closed forms next to their brute-force oracles.

Each block evaluates a closed formula and the direct sum it claims to equal;
exact rational equality is the whole point.
"""

from fractions import Fraction

from ghn import (
    binom_int,
    boyadzhiev_ratio_closed,
    gould_generalized_rhs,
    harmonic_p,
    knuth_flajolet_rhs,
    pan_closed_form,
    thm33_rhs,
)

# Alternating ratio sum: sum C(n,k)(-1)^k/(k+lam) = 1/(lam*C(lam+n,n)).
n, lam = 2, Fraction(1, 2)
direct = sum(Fraction(binom_int(n, k) * (-1) ** k) / (k + lam) for k in range(n + 1))
print(f"alternating ratio sum, n={n}, lam={lam}: {direct} vs {knuth_flajolet_rhs(n, lam)}")

# The general ratio theorem routes any sequence through its transform.
a = [Fraction(1)] * 6
for lam in (Fraction(0), Fraction(1), Fraction(-7, 3)):
    direct = sum(binom_int(5, k) * a[k] / (k + lam) for k in range(1, 6))
    closed = boyadzhiev_ratio_closed(a, 5, lam)
    print(f"ratio theorem with a=1, lam={lam}: {direct} vs {closed}")

# Grid products of generalized harmonic numbers collapse to a two-term form.
n, mu, lam, alpha = 6, Fraction(2), Fraction(1), Fraction(-1, 3)
direct = sum(
    binom_int(n, k) * mu**k * lam ** (n - k) * harmonic_p(k, 1, alpha) for k in range(n + 1)
)
print(f"\ngrid product n={n}: {direct} vs {pan_closed_form(n, mu, lam, alpha)}")
# mu + lam = 0 switches branches:
direct = sum(
    binom_int(4, k) * Fraction(-2) ** k * Fraction(2) ** (4 - k) * harmonic_p(k, 1, alpha)
    for k in range(5)
)
print(f"second branch (mu=-2, lam=2): {direct} vs {pan_closed_form(4, -2, 2, alpha)}")

# The two-index alternating identity, valid for j >= 1.
n, j, a_val = 5, 2, Fraction(1, 2)
direct = sum(binom_int(n, k) * binom_int(k, j) * (-a_val) ** k / k for k in range(1, n + 1))
print(f"\ntwo-index alternating sum, n={n}, j={j}, a={a_val}:",
      direct, "vs", gould_generalized_rhs(n, j, a_val))

# The alternating weighted transform: the closed side only needs the inverse
# transform d of the weight sequence c.
c = [Fraction(k * k) for k in range(7)]
alpha = Fraction(1, 2)
direct = sum(
    binom_int(6, k) * (-1) ** k * harmonic_p(k, 1, alpha) * c[k] for k in range(7)
)
print(f"\nalternating weighted transform, c=k^2, n=6: {direct} vs {thm33_rhs(c, 6, alpha)}")
