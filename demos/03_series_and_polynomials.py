#!/usr/bin/env python3
"""Truncated power series and polynomial certification.

Series identities are proved coefficient-by-coefficient through a chosen
order; identities polynomial in alpha are proved exactly for each n by
comparing coefficient vectors.
"""

from fractions import Fraction

from ghn import (
    TruncSeries,
    geometric,
    harmonic_p,
    harmonic_poly,
    idi1_rhs,
    log_one_minus,
    run_entry,
)
from ghn.registry import declare
from ghn.verifier import ALPHA, CERTIFY_N

# The generating function of the generalized harmonic numbers:
#   log(1 - alpha*t) / (1 - t) = -sum H_n(alpha) t^n.
order = 12
alpha = Fraction(1, 3)
series = log_one_minus(alpha, order) * geometric(1, order)
print("coefficients of log(1-t/3)/(1-t):")
print("  ", [str(c) for c in series.coeffs[:7]])
print("  -H_n(1/3):", [str(-harmonic_p(n, 1, alpha)) for n in range(7)])

# Series arithmetic: products and composition stay exact.
s = TruncSeries([1, -1], 8)
print("\n(1-t) * 1/(1-t) =", s * geometric(1, 8))
f = TruncSeries([0, 0, 1], 6)
g = TruncSeries([0, 1, 1], 6)
print("(t+t^2)^2 via composition =", f.compose(g))

# The composition identity behind the grid-product transform:
#   f(mu*t/(1-lam*t)) / (1-lam*t) has coefficients sum C(n,k) mu^k lam^(n-k) a_k,
# here with a_k = -H_k(2/5).  `ghn series --check pan-lemma` runs this registry
# entry at n = 0..order, as below.
entry = next(e for e in declare() if e.id == "panequa1-series")
point = {"lambda": Fraction(2, 3), "mu": Fraction(5, 7), "alpha": Fraction(2, 5)}
result = run_entry(entry.replace(cells=[{**point, "n": n} for n in range(41)]))
print("\ncomposition identity through order 40:", result.tier, f"({result.cells} coefficients)")

# Polynomial certification: at alpha = ALPHA, the polynomial alpha, a
# certifiable entry's own right side returns a polynomial in alpha, which its
# certify hook compares coefficient-wise with a direct sum for each n.
print("\nH_2 as a polynomial in alpha:", harmonic_poly(2, 1))
print("((1-a)^3 - 1)/3 at alpha = ALPHA:", idi1_rhs(3, ALPHA))
for entry in declare():
    if entry.certify is not None:
        print(f"certify {entry.id} ({entry.anchor}) for n <= {CERTIFY_N}:", entry.certify(CERTIFY_N))
