"""Closed-form evaluators for the catalogued identities.

Every function here evaluates one side of an identity and returns an exact
value; none of them asserts its own correctness.  Agreement with the
direct-summation oracles is established solely by the verifier, which is what
lets demonstrably typo'd source formulas be evaluated as printed and reported
honestly.  Ratio sums always start at k = 1 (the k = 0 term carries a 1/k
factor), and 0^0 = 1 throughout.

Derivation map: a closed form that the paper derives from another result is
that result evaluated, not a copy of it.
  boyadzhiev_ratio_closed (Thm 2.3)  lemma21_rhs at the transform of (0, a_1, ..., a_n)
  thm33_rhs (Thm 3.3)                the Gould sum _gould_num(n, n-m, 1-alpha) per d_m
  thm33_nabla_rhs (eqnnew9)          d dotted with the row weighted_nabla(b, n)
  as_np_closed (newcoffey)           sanchez_transform of pan_closed_form(m, z, 1, alpha),
                                     for the m = n-p..n that it reads
  pan_closed_form (Thm 3.2)          its own integer sum, no harmonic_p; mu + lam = 0:
                                     lam^n idi1_rhs(n, alpha)
  Spivey, Frontczak, skew transform  pan_closed_form(n, 1, 1, alpha), -pan_closed_form(n, 2, 1, -1),
                                     -pan_closed_form(n, 1, 1, -1), in the registry
Printed displays keep their own form, so the ledger grades the display itself:
lemma21_rhs_ones, lambda1_case_rhs, second_case_ones_rhs, as_p1_closed,
as_zneg1_alpha1_closed.

generalized_harmonic_relation and idi1_rhs also run over Q[alpha]: at alpha =
verifier.ALPHA they return the PolyQ in alpha that CERTIFIED proves.  So neither
coerces alpha through Fraction(), and neither divides an int by an int, which
gives a float when alpha is an int.

Fraction-free kernels: lemma21_rhs, pan_closed_form, thm33_rhs and
gould_generalized_rhs (like binomial_transform, sanchez_transform and
harmonic_table below them) sum integer numerators over one denominator and
build one Fraction per value, or per part; the first three lift their inputs
through exact.common_denominator.  lemma21_rhs with lam = p/q needs no binomial
of a rational.  pan_closed_form sums over D^n lcm(1..n), D the common denominator
of mu+lam, lam+mu*alpha and lam.  The Gould sum is one integer kernel,
_gould_num, over q^n lcm(1..n) for a = p/q: gould_generalized_rhs wraps it in a
Fraction, and thm33_rhs dots it with the numerators of d_0..d_(n-1), so its
Gould part and its 1/(n-m) tail are one Fraction each.

Binomial sums: a closed form that needs a transform calls
transforms.binomial_transform or its inverse, and every direct-sum oracle of a
C(n,k)-weighted sum is verifier.binomial_oracle, called by the registry (the
Gould left side too).  The exceptions are sequences.laguerre's defining sum,
the Sanchez Stirling double sums and the registry's Theorem 2.3 ratio oracle,
which has its own integer loop like lemma21_lhs; a display that is itself a
binomial sum (generalized_harmonic_relation) is evaluated as printed.  The one
oracle kept here, lemma21_lhs, is not a binomial sum; it never calls the
lifting helper, but has its own integer coefficients over (p+q)...(p+nq) and
multiplies each b_m as it is.  Oracles call check_lambda_domain only for its
DomainError and keep the lambda they are given, so a fault in it reaches the
closed forms alone.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Sequence

from .errors import DomainError, OutOfValidityRangeError
from .exact import RatLike, binom_int, binom_rat, check_terms, common_denominator
from .sequences import harmonic, harmonic_p, harmonic_table, stirling2
from .transforms import binomial_transform, inverse_binomial_transform, sanchez_transform, weighted_nabla


def check_lambda_domain(lam: RatLike, n: int) -> Fraction:
    """Reject lambda in {-1, ..., -n}, where the telescoped products vanish."""
    lam = Fraction(lam)
    if lam.denominator == 1 and -n <= lam <= -1:
        raise DomainError(f"lambda={lam} is excluded for n={n}")
    return lam


def lemma21_lhs(b: Sequence[RatLike], n: int, lam: RatLike) -> Fraction:
    """n! * sum_{m=1..n} b_m / (m! (lam+m)(lam+m+1)...(lam+n)), summed directly."""
    if n < 1:
        raise ValueError("n must be >= 1")
    check_lambda_domain(lam, n)  # for its DomainError: an oracle takes lambda as given
    lam = Fraction(lam)
    check_terms(b, n, "b")
    # with lam = p/q, term m is b_m q^(n-m+1) (n!/m!) / ((p+mq)...(p+nq)); over the
    # denominator (p+q)...(p+nq) its integer coefficient gains (p+q)...(p+(m-1)q)
    p, q = lam.numerator, lam.denominator
    total = 0
    prefix = 1
    for m in range(1, n + 1):
        total += prefix * q ** (n - m + 1) * (math.factorial(n) // math.factorial(m)) * b[m]
        prefix *= p + m * q
    return total * Fraction(1, prefix)


def lemma21_rhs(b: Sequence[RatLike], n: int, lam: RatLike) -> Fraction:
    """Branch-selected closed form of lemma21_lhs.

    lam = 0: sum b_m/m; otherwise sum C(lam-1+m, m) b_m / (lam C(lam+n, n)).

    Both are one integer sum over the numerators of b_1..b_n.  With lam = p/q,
    C(lam-1+m, m) = p(p+q)...(p+(m-1)q) / (q^m m!) and
    lam C(lam+n, n) = p(p+q)...(p+nq) / (q^(n+1) n!).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    lam = check_lambda_domain(lam, n)
    check_terms(b, n, "b")
    nums, den = common_denominator(b[1 : n + 1])
    p, q = lam.numerator, lam.denominator
    if p == 0:
        lcm = math.lcm(*range(1, n + 1))
        return Fraction(sum(num * (lcm // m) for m, num in enumerate(nums, 1)), den * lcm)
    total = 0
    rising = 1  # p(p+q)...(p+(m-1)q)
    fact_n, fact_m = math.factorial(n), 1
    for m, num in enumerate(nums, 1):
        rising *= p + (m - 1) * q
        fact_m *= m
        total += rising * q ** (n - m) * (fact_n // fact_m) * num
    return Fraction(total * q, den * rising * (p + n * q))


def lemma21_rhs_ones(n: int, lam: RatLike, as_printed: bool = False) -> Fraction:
    """The b == 1 specialization of lemma21_rhs.

    The hockey-stick sum collapses the numerator to C(lam+n, n) - 1.  With
    ``as_printed`` the lower index n-1 of the source display is kept instead;
    the registry records how that variant fares against the oracle.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    lam = check_lambda_domain(lam, n)
    if lam == 0:
        return harmonic(n)
    top = binom_rat(lam + n, n - 1) if as_printed else binom_rat(lam + n, n)
    return (top - 1) / (lam * binom_rat(lam + n, n))


def boyadzhiev_ratio_closed(a: Sequence[RatLike], n: int, lam: RatLike) -> Fraction:
    """Closed form of sum_{k=1..n} C(n,k) a_k/(k+lam); a_0 never enters it."""
    return lemma21_rhs(binomial_transform([0, *a[1 : n + 1]]), n, lam)


def lambda1_case_rhs(a: Sequence[RatLike], n: int) -> Fraction:
    """lam = 1 simplification: (sum_{m=1..n} b_m - n b_0) / (n+1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    check_terms(a, n, "a")
    b = binomial_transform(a[: n + 1])
    return (sum(b[1:]) - n * b[0]) / (n + 1)


def knuth_flajolet_rhs(n: int, lam: RatLike) -> Fraction:
    """1 / (lam * C(lam+n, n)), the alternating ratio-sum closed form."""
    if n < 0:
        raise ValueError("n must be >= 0")
    lam = Fraction(lam)
    if lam == 0:
        raise DomainError("lambda = 0 is a pole of the alternating ratio sum")
    lam = check_lambda_domain(lam, n)
    return 1 / (lam * binom_rat(lam + n, n))


def generalized_harmonic_relation(n: int, alpha: RatLike) -> Fraction:
    """H_n + sum_{k=1..n} C(n,k) (alpha-1)^k / k; evaluates to H_n(alpha)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    d = alpha - 1
    total = harmonic(n)
    power = Fraction(1)
    for k in range(1, n + 1):
        power *= d
        total += Fraction(binom_int(n, k), k) * power
    return total


def second_case_ones_rhs(n: int) -> Fraction:
    """sum_{m=1..n} 2^m/m - H_n, the a == 1 case of the ratio-sum theorem."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return harmonic_p(n, 1, 2) - harmonic(n)


def gould_generalized_rhs(n: int, j: int, a: RatLike) -> Fraction:
    """(-a)^j sum_{t=max(j,1)..n} C(t,j) (1-a)^(t-j) / t.

    With a = p/q and L = lcm(1..n), one integer sum over q^n L: term t is
    C(t,j) (q-p)^(t-j) q^(n-t) (L/t), and the sum is scaled by (-p)^j.
    """
    if n < 1 or j < 0:
        raise ValueError("requires n >= 1 and j >= 0")
    a = Fraction(a)
    lcm = math.lcm(*range(1, n + 1))
    return Fraction(_gould_num(n, j, a.numerator, a.denominator, lcm), a.denominator**n * lcm)


def _gould_num(n: int, j: int, p: int, q: int, lcm: int) -> int:
    """gould_generalized_rhs(n, j, p/q) times q^n lcm, with lcm = lcm(1..n)."""
    total = sum(binom_int(t, j) * (q - p) ** (t - j) * q ** (n - t) * (lcm // t) for t in range(max(j, 1), n + 1))
    return (-p) ** j * total


def pan_closed_form(n: int, mu: RatLike, lam: RatLike, alpha: RatLike) -> Fraction:
    """Closed form of sum_k C(n,k) mu^k lam^(n-k) H_k(alpha).

    (mu+lam)^n (H_n((lam+mu*alpha)/(mu+lam)) - H_n(lam/(mu+lam))), or
    lam^n idi1_rhs(n, alpha) when mu + lam = 0.  At n = 0 it is the empty sum, 0.

    With u = lam+mu*alpha, v = lam and s = mu+lam over one denominator D as
    nu/D, nv/D and ns/D, the first form is one integer sum over D^n L, with
    L = lcm(1..n): s^n (H_n(u/s) - H_n(v/s)) = sum_k ns^(n-k) (nu^k - nv^k) (L/k) / (D^n L).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return Fraction(0)
    mu, lam, alpha = Fraction(mu), Fraction(lam), Fraction(alpha)
    s = mu + lam
    if s == 0:
        return lam**n * idi1_rhs(n, alpha)
    (nu, nv, ns), den = common_denominator([lam + mu * alpha, lam, s])
    lcm = math.lcm(*range(1, n + 1))
    total = 0
    upow = vpow = 1
    for k in range(1, n + 1):  # Horner in ns: term k ends up times ns^(n-k)
        upow *= nu
        vpow *= nv
        total = total * ns + (upow - vpow) * (lcm // k)
    return Fraction(total, den**n * lcm)


def idi1_rhs(n: int, alpha: RatLike) -> Fraction:
    """((1-alpha)^n - 1)/n: the alternating transform of H_k(alpha)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return ((1 - alpha) ** n - 1) * Fraction(1, n)


def thm33_rhs(c: Sequence[RatLike], n: int, alpha: RatLike) -> Fraction:
    """Decomposed form of sum_k C(n,k) (-1)^k H_k(alpha) c_k.

    Uses d = inverse binomial transform of c:
      (-1)^n d_n H_n(alpha) - sum_{m<n} d_m (-1)^m/(n-m)
      + [alpha != 1] (-1)^n sum_{m<n} d_m gould_generalized_rhs(n, n-m, 1-alpha).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    check_terms(c, n, "c")
    alpha = Fraction(alpha)
    d = inverse_binomial_transform(c[: n + 1])
    nums, den = common_denominator(d[:n])
    lcm = math.lcm(*range(1, n + 1))
    # the 1/(n-m) tail over den lcm, and the Gould part over den q^n lcm (a = 1 - alpha = p/q)
    total = (-1) ** n * d[n] * harmonic_p(n, 1, alpha)
    total -= Fraction(sum((-1) ** m * num * (lcm // (n - m)) for m, num in enumerate(nums)), den * lcm)
    if alpha != 1:
        a = 1 - alpha
        p, q = a.numerator, a.denominator
        gould = sum(num * _gould_num(n, n - m, p, q, lcm) for m, num in enumerate(nums) if num)
        total += Fraction((-1) ** n * gould, den * q**n * lcm)
    return total


def thm33_nabla_rhs(c: Sequence[RatLike], n: int, alpha: RatLike) -> Fraction:
    """Weighted-nabla decomposition: sum_m d_m * weighted_nabla(b, n)[m].

    b_j is the alternating transform of H_k(alpha) (zero at j = 0).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    check_terms(c, n, "c")
    alpha = Fraction(alpha)
    d = inverse_binomial_transform(c[: n + 1])
    b = [Fraction(0)] + [idi1_rhs(j, alpha) for j in range(1, n + 1)]
    return sum(map(operator.mul, d, weighted_nabla(b, n)), Fraction(0))


def as_np_closed(n: int, p: int, z: RatLike, alpha: RatLike) -> Fraction:
    """Closed form of sum_j C(n,j) j^p H_j(alpha) z^j, valid for 1 <= p <= n.

    Feeds Pan's values b_m = pan_closed_form(m, z, 1, alpha) to sanchez_transform;
    at z = -1 they come from Pan's mu + lam = 0 branch, and Pan's b_0 is the
    empty sum, an exact 0, so the l = n corner raises no 0/0.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if p < 1 or p > n:
        raise OutOfValidityRangeError(f"closed form needs 1 <= p <= n, got p={p}, n={n}")
    # sanchez_transform reads only b_(n-p..n), so the slots below n-p hold a 0 it never reads
    bvals = [0] * (n - p) + [pan_closed_form(m, z, 1, alpha) for m in range(n - p, n + 1)]
    return sanchez_transform(bvals, n, p)


def as_p1_closed(n: int, z: RatLike, alpha: RatLike) -> Fraction:
    """p = 1 expansion: n(1+z)^(n-1) {z H_(n-1)(B) - z H_(n-1)(G) + (1+z)(B^n - G^n)/n}

    with B = (1+alpha*z)/(1+z) and G = 1/(1+z); needs z != -1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    z, alpha = Fraction(z), Fraction(alpha)
    zp = 1 + z
    if zp == 0:
        raise DomainError("z = -1 lies outside this expansion")
    beta = (1 + alpha * z) / zp
    gamma = 1 / zp
    inner = z * (harmonic_p(n - 1, 1, beta) - harmonic_p(n - 1, 1, gamma))
    inner += zp * (beta**n - gamma**n) / n
    return n * zp ** (n - 1) * inner


def as_zneg1_alpha1_closed(n: int, p: int, as_printed: bool = False) -> Fraction:
    """z = -1, alpha = 1 case: (-1)^n n! S(p,n) H_n - sum_{k<n} (-1)^k k! w_k/(n-k).

    The oracle-validated weight is w_k = S(p,k); ``as_printed`` swaps in the
    source display's C(n,k) instead so the registry can report on it.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if p < 1 or p > n:
        raise OutOfValidityRangeError(f"closed form needs 1 <= p <= n, got p={p}, n={n}")
    lead = (-1) ** n * math.factorial(n) * stirling2(p, n) * harmonic(n)
    tail = Fraction(0)
    for k in range(n):
        w = binom_int(n, k) if as_printed else stirling2(p, k)
        if w:
            tail += Fraction((-1) ** k * math.factorial(k) * w, n - k)
    return lead - tail


# The concluding sums of items 3 and 4.  Their superscript-(2) notation is
# ambiguous: reading="p2" takes it as the weight-2 sum H_n^(2)(x), "square" as
# a square.  Neither pairing is asserted anywhere; the verifier only reports them.


def _check_concl_args(n: int, reading: str = "p2") -> None:
    if n < 1:
        raise ValueError("n must be >= 1")
    if reading not in ("p2", "square"):
        raise ValueError("reading must be 'p2' or 'square'")


def concl_item3_lhs(n: int, alpha: RatLike) -> Fraction:
    """sum_{k=1..n} H_k(alpha)/k."""
    _check_concl_args(n)
    return sum(h / k for k, h in enumerate(harmonic_table(n, 1, alpha)) if k)


def concl_item3_rhs(n: int, alpha: RatLike, reading: str = "p2") -> Fraction:
    """(H_n^2 + H_n^(2))/2 at alpha = 1, otherwise
    H_n(alpha) H_n + H_n^(2)(alpha) - sum_{k=1..n} alpha^k H_k/k."""
    _check_concl_args(n, reading)
    alpha = Fraction(alpha)
    if alpha == 1:
        h = harmonic(n)
        return (h * h + harmonic_p(n, 2, 1)) / 2
    second = harmonic_p(n, 2, alpha) if reading == "p2" else harmonic_p(n, 1, alpha) ** 2
    tail = sum(alpha**k * h / k for k, h in enumerate(harmonic_table(n, 1, 1)) if k)
    return harmonic_p(n, 1, alpha) * harmonic(n) + second - tail


def concl_item4_lhs(n: int, alpha: RatLike) -> Fraction:
    """sum_{k=1..n} (-1)^k H_k(alpha)/k."""
    _check_concl_args(n)
    return sum((-1) ** k * h / k for k, h in enumerate(harmonic_table(n, 1, alpha)) if k)


def concl_item4_rhs(n: int, alpha: RatLike, reading: str = "p2") -> Fraction:
    """H_n^(2)(1-alpha) - H_n^(2)(1), or with squares for reading="square"."""
    _check_concl_args(n, reading)
    alpha = Fraction(alpha)
    if reading == "p2":
        return harmonic_p(n, 2, 1 - alpha) - harmonic_p(n, 2, 1)
    return harmonic_p(n, 1, 1 - alpha) ** 2 - harmonic(n) ** 2
