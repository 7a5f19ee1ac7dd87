"""Closed-form evaluators for the catalogued identities.

Every function here evaluates one side of an identity and returns an exact
value; none of them asserts its own correctness.  Agreement with the
direct-summation oracles is established solely by the verifier, which is what
lets demonstrably typo'd source formulas be evaluated as printed and reported
honestly.  Ratio sums always start at k = 1 (the k = 0 term carries a 1/k
factor), and 0^0 = 1 throughout.

Derivation map: a closed form that the paper derives from another result is
that result evaluated, not a copy of it.
  boyadzhiev_ratio_closed (Thm 2.3)  lemma21_rhs at the transform of (0, a_1, a_2, ...)
  thm33_rhs (Thm 3.3)                d dotted with one row of H_n(alpha), the 1/(n-m) tail and
                                     the Gould sum _gould_num(n, n-m, 1-alpha), d the inverse
                                     transform of the whole of c
  thm33_nabla_rhs (eqnnew9)          d dotted with the row weighted_nabla(b, n)
  power_weighted_rhs (Sanchez)       sanchez_transform of the transform of the whole of a
  as_np_closed (newcoffey)           sanchez_transform of pan_closed_form(m, z, 1, alpha),
                                     for the m = n-p..n that it reads
  pan_closed_form (Thm 3.2)          its integer sum _pan_num, no harmonic_p; mu + lam = 0:
                                     lam^n idi1_rhs(n, alpha)
  Spivey, Frontczak, skew transform  pan_closed_form(n, 1, 1, alpha), -pan_closed_form(n, 2, 1, -1),
                                     -pan_closed_form(n, 1, 1, -1), in the registry
Printed displays keep their own form, so the ledger grades the display itself:
lemma21_rhs_ones, lambda1_case_rhs, second_case_ones_rhs, as_p1_closed,
as_zneg1_alpha1_closed and the right sides of the concluding items 3 and 4.

Shared work: entry m of a binomial transform depends on the terms 0..m
alone, so the closed forms that take a sequence transform, or lift, the whole
sequence they are given and read its first n+1 entries; that one value serves
every n.  What depends only on the grid point is a weight row, built once per
point: each family cell is then one integer dot product (_dot) of the row
with the sequence's numerators.  Inside a verifier run each is computed once
per run, through the run memo exact._shared: a sequence's transform or lift
per sequence, keyed by its id() (_per_sequence), and a row per (n, scalar)
(_row).  The exact docstring lists every value kept there and its tag.
A row builder raises for a point outside its domain (a DomainError), and a
raised build is never stored, so every excluded cell still skips.  The memo
holds each sequence it keys, so no id is reused while the run lasts, and a
side may not mutate a sequence during a run.  Outside a run every call
computes afresh.  No oracle here reads the memo; the cache rule is in exact.

generalized_harmonic_relation and idi1_rhs also run over Q[alpha]: at alpha =
verifier.ALPHA they return the PolyQ in alpha that CERTIFIED proves.  Each
lifts a rational alpha to integers x/y (alpha - 1 = x/y, or 1 - alpha = x/y)
and, by a second lift, a PolyQ alpha to (that polynomial, 1), and runs its one
integer loop on either.

Each kernel here sums integer numerators over one denominator and builds one
Fraction per value, so no per-term Fraction loop is left on a graded side.  It
reads a scalar through exact._ratio, and a weight row per (n, scalar) through
_row (the reader rule is in exact).  A row is (weights, scale), integers: a
cell is sum_m weights[m] nums[m] over scale * den, one Fraction (_dot).

Binomial sums: a closed form that needs a transform calls
transforms.binomial_transform, its inverse or their integer kernel
_transform_num, and every direct-sum oracle of a C(n,k)-weighted sum over
rationals is verifier.binomial_oracle or its integer kernel, called by the
registry (the Gould left side, the Theorem 3.3 left side and the
power-weighted sums too).  The exceptions are sequences.laguerre's defining
sum, the Sanchez Stirling double sums, the registry's ratio oracle of
sum_k C(n,k) a_k/(k+lam) (Theorem 2.3, and Knuth-Flajolet at a_k = (-1)^k),
which has its own integer kernel like lemma21_lhs, and the registry's Q[alpha]
oracle of the alternating sum, which adds its PolyQ terms itself; a display
that is itself a binomial sum (generalized_harmonic_relation) is evaluated as
printed.  The one oracle kept here, lemma21_lhs, is not a binomial sum; nor
are the left sides of the concluding items 3 and 4, one integer sum each over
the lifted harmonic table (_harmonic_over_k).  The oracles never call
common_denominator or a transform: binomial_oracle, the ratio oracle and
lemma21_lhs are the oracles' own lift, exact._oracle_terms (the rule is in
exact), of their terms plus an integer kernel over (nums, den), the way
binomial_transform is the view of _transform_num.  lemma21_lhs is the pure
row builder _lemma21_lhs_row, its own integer weights over (p+q)...(p+nq),
dotted with the lift by the oracles' dot product exact._oracle_dot, which no
closed form calls; the registry's lemma2.1-coherence side reads that row once
per run per (n, lam) and dots it with the lift of the whole grid sequence,
and lemma21_lhs itself reads no memo.  An identity's hypotheses (lambda not
in {-1, ..., -n}, p <= n, n >= 1) are checked by its closed form alone, through
check_lambda_domain, _check_concl_args and the like; an oracle, with its row
builder, is the plain sum and raises only at its own poles, a DomainError
where a factor of its divisor is 0, so a fault in a check reaches the closed
forms alone.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Sequence

from .errors import DomainError, OutOfValidityRangeError
from .exact import RatLike, _oracle_dot, _oracle_ratio, _oracle_terms, _ratio, _shared, binom_int, binom_rat, check_terms, common_denominator
from .polyseries import PolyQ
from .sequences import _harmonic_num, harmonic, harmonic_p, stirling2_row
from .transforms import _transform_num, binomial_transform, sanchez_transform, weighted_nabla


def check_lambda_domain(lam: RatLike, n: int) -> Fraction:
    """Reject lambda in {-1, ..., -n}, where the telescoped products vanish."""
    lam = lam if type(lam) is Fraction else Fraction(lam)
    if lam.denominator == 1 and -n <= lam <= -1:
        raise DomainError(f"lambda={lam} is excluded for n={n}")
    return lam


def lemma21_lhs(b: Sequence[RatLike], n: int, lam: RatLike) -> Fraction:
    """n! * sum_{m=1..n} b_m / (m! (lam+m)(lam+m+1)...(lam+n)), summed directly.

    The oracles' lift, exact._oracle_terms, of b_1..b_n (with a 0 in slot 0),
    dotted with the row _lemma21_lhs_row(n, lam) by exact._oracle_dot.
    """
    return _oracle_dot(_lemma21_lhs_row(n, lam), *_oracle_terms([0, *b[1 : n + 1]], "lemma21_lhs"))


def _lemma21_lhs_row(n: int, lam: RatLike) -> tuple[list[int], int]:
    """lemma21_lhs's row (weights, scale): b_m = nums[m] / den enters as weights[m] nums[m] over scale den.

    With lam = p/q, term m is b_m q^(n-m+1) (n!/m!) / ((p+mq)...(p+nq)); over the
    scale (p+q)...(p+nq) its weight gains (p+q)...(p+(m-1)q).  weights[0] is 0,
    so b_0 never enters.  A scale of 0, where a factor p + mq is 0 at lam = -m,
    is a pole of the sum: a DomainError.
    """
    p, q = _oracle_ratio(lam)
    weights = [0] * (n + 1)
    prefix = 1  # (p+q)...(p+(m-1)q)
    falling = math.factorial(n)  # n!/m!
    for m in range(1, n + 1):
        falling //= m
        weights[m] = prefix * falling * q ** (n - m + 1)
        prefix *= p + m * q
    if prefix == 0:
        raise DomainError(f"lambda={lam} is a pole of the sum for n={n}")
    return weights, prefix


def lemma21_rhs(b: Sequence[RatLike], n: int, lam: RatLike) -> Fraction:
    """Branch-selected closed form of lemma21_lhs.

    lam = 0: sum b_m/m; otherwise sum C(lam-1+m, m) b_m / (lam C(lam+n, n)).
    Both are one integer dot product with the numerators of (0, b_1, b_2, ...),
    lifted once per run for this sequence (_lemma21_num).
    """
    nums, den = _per_sequence("lemma21", b, lambda b: common_denominator([0, *b[1:]]))
    return _lemma21_num(nums, den, n, lam)


def _lemma21_num(nums: Sequence[int], den: int, n: int, lam: RatLike) -> Fraction:
    """lemma21_rhs at b_m = nums[m] / den for m = 1..n: the row _lemma21_row(n, lam), once per run, dotted with nums."""
    row = _row("lemma21_row", _lemma21_row, n, lam)
    check_terms(nums, n, "b")
    return _dot(row, nums, den)


def _lemma21_row(n: int, lam: RatLike) -> tuple[list[int], int]:
    """Lemma 2.1's row (weights, scale): b_m = nums[m] / den enters as weights[m] nums[m] over scale den.

    The argument checks of Lemma 2.1 and Theorem 2.3, so they run once per
    (n, lam) in a run; a DomainError is raised, never stored.  lam = 0: weight
    m is L/m over L = lcm(1..n).  Otherwise, with lam = p/q,
    C(lam-1+m, m) = p(p+q)...(p+(m-1)q) / (q^m m!) and
    lam C(lam+n, n) = p(p+q)...(p+nq) / (q^(n+1) n!), so weight m is
    p(p+q)...(p+(m-1)q) q^(n-m+1) n!/m! over the scale p(p+q)...(p+nq).
    weights[0] is 0, so b_0 never enters.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    lam = check_lambda_domain(lam, n)
    p, q = lam.numerator, lam.denominator
    if p == 0:
        lcm = math.lcm(*range(1, n + 1))
        return [0] + [lcm // m for m in range(1, n + 1)], lcm
    weights = [0] * (n + 1)
    rising = 1  # p(p+q)...(p+(m-1)q)
    fact_n, fact_m = math.factorial(n), 1
    for m in range(1, n + 1):
        rising *= p + (m - 1) * q
        fact_m *= m
        weights[m] = rising * q ** (n - m + 1) * (fact_n // fact_m)
    return weights, rising * (p + n * q)


def _dot(row: tuple[Sequence[int], int], nums: Sequence[int], den: int) -> Fraction:
    """The closed forms' dot product: sum_m weights[m] nums[m] over scale * den, one Fraction, for row = (weights, scale).

    nums may run past the row.  The oracles dot their rows with a kernel of
    their own (exact._oracle_dot), so a fault here reaches the closed forms only.
    """
    weights, scale = row
    return Fraction(sum(map(operator.mul, weights, nums)), scale * den)


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
    whole = binom_rat(lam + n, n)
    top = binom_rat(lam + n, n - 1) if as_printed else whole
    return (top - 1) / (lam * whole)


def boyadzhiev_ratio_closed(a: Sequence[RatLike], n: int, lam: RatLike) -> Fraction:
    """Closed form of sum_{k=1..n} C(n,k) a_k/(k+lam); a_0 never enters it.

    Lemma 2.1 at the transform b of (0, a_1, a_2, ...), whose integer
    numerators it takes as they are; b_0..b_n read a_1..a_n alone.
    """
    nums, den = _per_sequence("ratio", a, lambda a: _transform_num([0, *a[1:]]))
    return _lemma21_num(nums, den, n, lam)


def lambda1_case_rhs(a: Sequence[RatLike], n: int) -> Fraction:
    """lam = 1 simplification: (sum_{m=1..n} b_m - n b_0) / (n+1).

    With b_m = N_m / D, the integer numerators of the transform of a, read
    once per run: (sum_{m=1..n} N_m - n N_0) / ((n+1) D).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    check_terms(a, n, "a")
    nums, den = _per_sequence("transform_num", a, _transform_num)
    return Fraction(sum(nums[1 : n + 1]) - n * nums[0], (n + 1) * den)


def power_weighted_rhs(a: Sequence[RatLike], n: int, p: int) -> Fraction:
    """sum_k C(n,k) k^p a_k from the plain transform b of a: sanchez_transform(b, n, p).

    b is the transform of the whole of a, once per run; entry m
    reads a_0..a_m alone.  Valid for p <= n, like sanchez_transform.
    """
    check_terms(a, n, "a")
    return sanchez_transform(_per_sequence("transform", a, binomial_transform), n, p)


def knuth_flajolet_rhs(n: int, lam: RatLike) -> Fraction:
    """1 / (lam * C(lam+n, n)), the alternating ratio-sum closed form."""
    if n < 0:
        raise ValueError("n must be >= 0")
    lam = check_lambda_domain(lam, n)  # lambda = 0 is outside the set that it rejects
    if lam == 0:
        raise DomainError("lambda = 0 is a pole of the alternating ratio sum")
    return 1 / (lam * binom_rat(lam + n, n))


def generalized_harmonic_relation(n: int, alpha: RatLike) -> Fraction:
    """H_n + sum_{k=1..n} C(n,k) (alpha-1)^k / k; evaluates to H_n(alpha).

    With alpha - 1 = x/y and L = lcm(1..n), the sum is one integer sum over
    y^n L, sum_k C(n,k) (L/k) x^k y^(n-k), by Horner's rule in x.  A PolyQ
    alpha lifts to x = alpha - 1 and y = 1, and runs the same loop over Q[alpha].
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if isinstance(alpha, PolyQ):
        x, y = alpha - 1, 1
    else:
        x, y = _ratio(alpha)
        x -= y
    lcm = math.lcm(*range(1, n + 1))
    total = 0
    ypow = 1  # y^(n-k)
    for k in range(n, 0, -1):  # Horner in x: term k ends up times x^k
        total = (total + binom_int(n, k) * (lcm // k) * ypow) * x
        ypow *= y
    return harmonic(n) + Fraction(1, ypow * lcm) * total


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
    p, q = _ratio(a)
    lcm = math.lcm(*range(1, n + 1))
    return Fraction(_gould_num(n, j, p, q, lcm), q**n * lcm)


def _gould_num(n: int, j: int, p: int, q: int, lcm: int) -> int:
    """gould_generalized_rhs(n, j, p/q) times q^n lcm, with lcm = lcm(1..n).

    (-p)^j sum_{t=max(j,1)..n} C(t,j) (q-p)^(t-j) q^(n-t) (lcm/t), summed by
    Horner's rule in r = q-p, from t = n down, with a running power of q: term
    t ends up times r^(t-max(j,1)), and the sum is scaled by r^(max(j,1)-j),
    which is r at j = 0 and 1 otherwise.
    """
    r, start = q - p, max(j, 1)
    total, qpow = 0, 1  # qpow = q^(n-t)
    for t in range(n, start - 1, -1):
        total = total * r + binom_int(t, j) * qpow * (lcm // t)
        qpow *= q
    return (-p) ** j * r ** (start - j) * total


def _per_sequence(tag: str, seq: Sequence, build):
    """build(seq), once per run for this sequence object; the memo keeps seq so its id stays taken."""
    return _shared((tag, id(seq)), lambda: (seq, build(seq)))[1]


def _row(tag: str, build, n: int, x: RatLike):
    """build(n, x), a weight row, once per run per (n, x): through _shared under (tag, n, numerator, denominator of x)."""
    num, den = _ratio(x)
    return _shared((tag, n, num, den), lambda: build(n, x))


def _inverse_num(c: Sequence) -> tuple[list[int], int]:
    """The inverse _transform_num of c, once per run for both Theorem 3.3 forms."""
    return _per_sequence("inverse", c, lambda c: _transform_num(c, inverse=True))


def pan_closed_form(n: int, mu: RatLike, lam: RatLike, alpha: RatLike) -> Fraction:
    """Closed form of sum_k C(n,k) mu^k lam^(n-k) H_k(alpha).

    (mu+lam)^n (H_n((lam+mu*alpha)/(mu+lam)) - H_n(lam/(mu+lam))), or
    lam^n idi1_rhs(n, alpha) when mu + lam = 0.  At n = 0 it is the empty sum, 0.

    With u = lam+mu*alpha, v = lam and s = mu+lam over one denominator D as
    nu/D, nv/D and ns/D, the first form is one integer sum over D^n L, with
    L = lcm(1..n): s^n (H_n(u/s) - H_n(v/s)) = sum_k ns^(n-k) (nu^k - nv^k) (L/k) / (D^n L).
    The sum is homogeneous of degree n in (nu, nv, ns), so any common D gives
    the same value: with mu = a/b, lam = c/d and alpha = e/f it takes D = bdf.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return Fraction(0)
    a, b = _ratio(mu)
    c, d = _ratio(lam)
    e, f = _ratio(alpha)
    ns = (a * d + c * b) * f
    if ns == 0:
        return Fraction(c, d) ** n * idi1_rhs(n, alpha)
    nv = c * b * f
    nu = nv + a * e * d
    den = b * d * f
    lcm = math.lcm(*range(1, n + 1))
    return Fraction(_pan_num(nu, nv, ns, n, lcm), den**n * lcm)


def _pan_num(u: int, v: int, s: int, n: int, lcm: int) -> int:
    """sum_{k=1..n} s^(n-k) (u^k - v^k) (lcm/k), by Horner's rule in s: Pan's integer sum (pan_closed_form, as_p1_closed)."""
    total = 0
    upow = vpow = 1
    for k in range(1, n + 1):  # term k ends up times s^(n-k)
        upow *= u
        vpow *= v
        total = total * s + (upow - vpow) * (lcm // k)
    return total


def idi1_rhs(n: int, alpha: RatLike) -> Fraction:
    """((1-alpha)^n - 1)/n: the alternating transform of H_k(alpha).

    With 1 - alpha = x/y it is (x^n - y^n) / (n y^n), in integers.  A PolyQ
    alpha lifts to x = 1 - alpha and y = 1, and takes the same steps over Q[alpha].
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if isinstance(alpha, PolyQ):
        x, y = 1 - alpha, 1
    else:
        x, y = _ratio(alpha)
        x = y - x
    ypow = y**n
    return Fraction(1, n * ypow) * (x**n - ypow)


def thm33_rhs(c: Sequence[RatLike], n: int, alpha: RatLike) -> Fraction:
    """Decomposed form of sum_k C(n,k) (-1)^k H_k(alpha) c_k.

    Uses d = inverse binomial transform of c:
      (-1)^n d_n H_n(alpha) - sum_{m<n} d_m (-1)^m/(n-m)
      + [alpha != 1] (-1)^n sum_{m<n} d_m gould_generalized_rhs(n, n-m, 1-alpha),
    as one integer dot product of d's numerators with the row _thm33_row(n, alpha).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    check_terms(c, n, "c")
    return _dot(_row("thm33_row", _thm33_row, n, alpha), *_inverse_num(c))


def _thm33_row(n: int, alpha: RatLike) -> tuple[list[int], int]:
    """thm33_rhs's row (weights, scale): d_m = nums[m] / den enters as weights[m] nums[m] over scale den.

    With H_n(alpha) = N/D, L = lcm(1..n), a = 1 - alpha = p/q (q is alpha's
    denominator) and the scale S = lcm(D, q^n L): weight n is (-1)^n N (S/D),
    and weight m < n is the tail's -(-1)^m (L/(n-m)) (S/L) plus, unless
    alpha = 1, the Gould part's (-1)^n _gould_num(n, n-m, p, q, L) (S/(q^n L)).
    """
    e, q = _ratio(alpha)
    p = q - e  # 1 - alpha = p/q
    lcm = math.lcm(*range(1, n + 1))
    h = harmonic_p(n, 1, alpha)
    gould_den = q**n * lcm
    scale = math.lcm(h.denominator, gould_den)
    sign = (-1) ** n
    weights = [-((-1) ** m) * (lcm // (n - m)) * (scale // lcm) for m in range(n)]
    weights.append(sign * h.numerator * (scale // h.denominator))
    if p != 0:  # alpha != 1
        for m in range(n):
            weights[m] += sign * _gould_num(n, n - m, p, q, lcm) * (scale // gould_den)
    return weights, scale


def thm33_nabla_rhs(c: Sequence[RatLike], n: int, alpha: RatLike) -> Fraction:
    """Weighted-nabla decomposition: sum_m d_m * weighted_nabla(b, n)[m].

    b_j is the alternating transform of H_k(alpha) (zero at j = 0).  One
    integer dot product of d's numerators with the row's, over both denominators.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    check_terms(c, n, "c")
    return _dot(_row("nabla", _nabla_row, n, alpha), *_inverse_num(c))


def _nabla_row(n: int, alpha: RatLike) -> tuple[list[int], int]:
    """weighted_nabla(b, n) at b_j = idi1_rhs(j, alpha) for j >= 1 and b_0 = 0, over one denominator."""
    return common_denominator(weighted_nabla([Fraction(0)] + [idi1_rhs(j, alpha) for j in range(1, n + 1)], n))


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
    key = (*_ratio(z), *_ratio(alpha))
    # sanchez_transform reads only b_(n-p..n), so the slots below n-p hold a 0 it never reads;
    # a run computes each Pan value once for all the (n, p) that read it
    pan = [_shared(("pan", m, *key), lambda: pan_closed_form(m, z, 1, alpha)) for m in range(n - p, n + 1)]
    bvals = [0] * (n - p) + pan
    return sanchez_transform(bvals, n, p)


def as_p1_closed(n: int, z: RatLike, alpha: RatLike) -> Fraction:
    """p = 1 expansion: n(1+z)^(n-1) {z H_(n-1)(B) - z H_(n-1)(G) + (1+z)(B^n - G^n)/n}

    with B = (1+alpha*z)/(1+z) and G = 1/(1+z); needs z != -1.

    With z = a/b, alpha = e/f and s = f(a+b), B = u/s and G = v/s for
    u = bf + ae and v = bf.  Over s^n L, L = lcm(1..n), the bracket is
    a T + b (u^n - v^n) (L/n) divided by b s^n L, with T = _pan_num(u, v, s, n, L),
    Pan's integer sum: its terms k < n are weighted by a, term n by a + b.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    a, b = _ratio(z)
    e, f = _ratio(alpha)
    if a + b == 0:
        raise DomainError("z = -1 lies outside this expansion")
    s = f * (a + b)
    v = b * f
    u = v + a * e
    lcm = math.lcm(*range(1, n + 1))
    total = a * _pan_num(u, v, s, n, lcm) + b * (u**n - v**n) * (lcm // n)
    # n (1+z)^(n-1) = n (a+b)^(n-1) / b^(n-1), times the bracket's 1 / (b s^n L)
    return Fraction(n * (a + b) ** (n - 1) * total, (b * s) ** n * lcm)


def as_zneg1_alpha1_closed(n: int, p: int, as_printed: bool = False) -> Fraction:
    """z = -1, alpha = 1 case: (-1)^n n! S(p,n) H_n - sum_{k<n} (-1)^k k! w_k/(n-k).

    The oracle-validated weight is w_k = S(p,k); ``as_printed`` swaps in the
    source display's C(n,k) instead so the registry can report on it.  The
    lead and the tail are integers over L = lcm(1..n), the denominator of
    _harmonic_num's H_n: the tail's term k is (-1)^k k! w_k (L/(n-k)).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if p < 1 or p > n:
        raise OutOfValidityRangeError(f"closed form needs 1 <= p <= n, got p={p}, n={n}")
    stirling = stirling2_row(p) + [0] * (n - p)  # S(p, k) for k = 0..n
    h_nums, lcm = _harmonic_num(n, 1, 1)  # H_n = h_nums[n] / lcm
    total = (-1) ** n * math.factorial(n) * stirling[n] * h_nums[n]
    fact = 1  # k!
    for k in range(n):
        w = binom_int(n, k) if as_printed else stirling[k]
        total -= (-1) ** k * fact * w * (lcm // (n - k))
        fact *= k + 1
    return Fraction(total, lcm)


# The concluding sums of items 3 and 4.  Their superscript-(2) notation is
# ambiguous: reading="p2" takes it as the weight-2 sum H_n^(2)(x), "square" as
# a square.  Neither pairing is asserted anywhere; the verifier only reports them.
# Both right sides, under both readings, are sums of _concl_sums' integers.


def _check_concl_args(n: int, reading: str = "p2") -> None:
    if n < 1:
        raise ValueError("n must be >= 1")
    if reading not in ("p2", "square"):
        raise ValueError("reading must be 'p2' or 'square'")


def concl_item3_lhs(n: int, alpha: RatLike) -> Fraction:
    """sum_{k=1..n} H_k(alpha)/k."""
    return _harmonic_over_k(n, alpha, 1)


def _harmonic_over_k(n: int, alpha: RatLike, sign: int) -> Fraction:
    """sum_{k=1..n} sign^k H_k(alpha)/k, directly: with H_k(alpha) = N_k/D from the harmonic kernel
    _harmonic_num and L = lcm(1..n), the integer sum_k sign^k N_k (L/k) over D L."""
    nums, den = _harmonic_num(n, 1, alpha)
    lcm = math.lcm(*range(1, n + 1))
    return Fraction(sum(sign**k * nums[k] * (lcm // k) for k in range(1, n + 1)), den * lcm)


def concl_item3_rhs(n: int, alpha: RatLike, reading: str = "p2") -> Fraction:
    """(H_n^2 + H_n^(2))/2 at alpha = 1, otherwise
    H_n(alpha) H_n + H_n^(2)(alpha) - sum_{k=1..n} alpha^k H_k/k.

    With alpha = e/f and the sums of _concl_sums(n, e, f): H_n(alpha) = ha/(f^n L),
    H_n = h/L, H_n^(2)(alpha) = h2a/(f^n L^2), H_n^(2) = w2/L^2, and the tail
    sum is tail/(f^n L^2).
    """
    _check_concl_args(n, reading)
    e, f = _ratio(alpha)
    ha, h, h2a, w2, tail, fn, lcm = _concl_sums(n, e, f)
    if e == f:  # alpha = 1
        return Fraction(h * h + w2, 2 * lcm * lcm)
    if reading == "p2":
        return Fraction(ha * h + h2a - tail, fn * lcm * lcm)
    return Fraction((ha * h - tail) * fn + ha * ha, fn * fn * lcm * lcm)


def _concl_sums(n: int, x: int, y: int) -> tuple[int, int, int, int, int, int, int]:
    """The integer sums of the concluding right sides: (ha, h, h2a, w2, tail, y^n, L).

    With L = lcm(1..n), w_k = L/k, t_k = x^k y^(n-k) and h_k = w_1 + ... + w_k,
    one loop gives ha = sum t_k w_k, h = sum w_k, h2a = sum t_k w_k^2,
    w2 = sum w_k^2 and tail = sum t_k h_k w_k, for k = 1..n.  At z = x/y,
    H_n(z) = ha/(y^n L), H_n = h/L, H_n^(2)(z) = h2a/(y^n L^2) and
    H_n^(2) = w2/L^2.
    """
    lcm = math.lcm(*range(1, n + 1))
    ypow = [1]  # y^j for j = 0..n
    for _ in range(n):
        ypow.append(ypow[-1] * y)
    ha = h = h2a = w2 = tail = 0
    xpow = 1
    for k in range(1, n + 1):
        xpow *= x
        t = xpow * ypow[n - k]
        w = lcm // k
        h += w
        ha += t * w
        h2a += t * w * w
        w2 += w * w
        tail += t * h * w
    return ha, h, h2a, w2, tail, ypow[n], lcm


def concl_item4_lhs(n: int, alpha: RatLike) -> Fraction:
    """sum_{k=1..n} (-1)^k H_k(alpha)/k."""
    return _harmonic_over_k(n, alpha, -1)


def concl_item4_rhs(n: int, alpha: RatLike, reading: str = "p2") -> Fraction:
    """H_n^(2)(1-alpha) - H_n^(2)(1), or with squares for reading="square".

    With 1 - alpha = x/y and the sums of _concl_sums(n, x, y): "p2" is
    (h2a - y^n w2) over y^n L^2, and "square" is (ha^2 - h^2 y^(2n)) over
    y^(2n) L^2.
    """
    _check_concl_args(n, reading)
    e, y = _ratio(alpha)
    ha, h, h2a, w2, _, yn, lcm = _concl_sums(n, y - e, y)
    if reading == "p2":
        return Fraction(h2a - yn * w2, yn * lcm * lcm)
    return Fraction(ha * ha - h * h * yn * yn, yn * yn * lcm * lcm)
