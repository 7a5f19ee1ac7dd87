#!/usr/bin/env python3
"""Binomial transforms and the power-weighted machinery built on them."""

from fractions import Fraction

from ghn import (
    binom_int,
    binomial_transform,
    fibonacci,
    harmonic,
    inverse_binomial_transform,
    sanchez_transform,
    sanchez_weight,
    weighted_nabla,
)

# The binomial transform b_n = sum C(n,k) a_k and its alternating inverse.
a = [Fraction(k) for k in range(8)]
b = binomial_transform(a)
print("a:", [str(v) for v in a])
print("b:", [str(v) for v in b])
print("inverse recovers a:", inverse_binomial_transform(b) == a)

# Famous fixed points: Fibonacci numbers map onto their even-indexed halves.
fib = [Fraction(fibonacci(k)) for k in range(10)]
print("\ntransform of F_k:", [str(v) for v in binomial_transform(fib)])
print("F_{2n} directly:  ", [fibonacci(2 * n) for n in range(10)])

# C(n,k) * k^p unfolds into a signed double sum over Stirling numbers, which
# is what converts a plain transform into a k^p-weighted one.
n, k, p = 6, 2, 3
print(f"\nC({n},{k})*{k}^{p} = {binom_int(n, k) * k ** p} "
      f"= sanchez_weight -> {sanchez_weight(n, k, p)}")

# Given only b = transform(a), recover sum C(n,k) k^p a_k without touching a.
h = [harmonic(j) for j in range(6)]
bh = binomial_transform(h)
direct = sum(binom_int(5, j) * j**2 * h[j] for j in range(6))
print(f"\nsum C(5,k) k^2 H_k = {direct} "
      f"= sanchez_transform(b, 5, 2) -> {sanchez_transform(bh, 5, 2)}")

# The combined weighted-nabla sum used by the alternating decomposition.
vals = [Fraction(0), Fraction(1), Fraction(4)]
print("\nweighted_nabla([0,1,4], n=2, m=1) =", weighted_nabla(vals, 2)[1])
