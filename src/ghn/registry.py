"""The identity catalog: every registered entry, as its sides and its grid.

An entry's sides (``declare``) take the values of the names in its
``params`` as positional arguments, in that order, and are valid at any
in-domain point; ``ghn eval`` calls them at a point the user gives.  A side
that is one closed form or oracle as it stands is that function itself, and
an entry with a sequence parameter lists it first, as ``seq``.  Tables that
sides share are read through the run memo, keyed by value and by the length
they are built to, so no table depends on a grid or outlives a run (the cache
rule is in exact).  Each entry declares its grid beside its sides:
``grid(n_max, rng)`` returns the cells that ``verify`` and ``table`` run, and
an entry whose sides take a sequence also declares ``family(n_max, seed,
rng)``, the seeded sequences that a cell's ``seq`` indexes, resolved to their
terms when the sides are called.  An entry made from another with
``_variant`` keeps both unless it declares its own.

Entries are declared in groups, one builder per part of the paper, kept in
ledger order in ``_GROUPS``; ``GROUP_OF`` maps each id to its group and is
read once, at import, from the groups' own output, so no id is written twice.
``declare(size, pattern)`` gives the entries whose id matches the fnmatch
pattern, with no cells, and builds only the groups that hold them, so ``eval``
and ``series`` build one group's sides.  ``build_registry(n_max, seed,
pattern)`` builds the grids and families of those entries, and of no other
entry, so ``verify --filter`` and ``table`` build only what they run.

Grids are deterministic functions of (n_max, seed); each draws its random
values from its entry's own stream, seeded by (seed, id), so that filtering
or reordering entries cannot change any row.  The one family that two entries
share, Theorem 3.3's sequences, has a stream of its own and is drawn once per
build.

ASSERT entries are expected to hold and fail the suite if they do not;
REPORT_ONLY entries record conjectures, ambiguous readings, and source-text
displays that the oracles contradict ("as printed" rows), each with sample
cells.  Where a printed display provably disagrees with its own direct sum,
the corrected identity is registered under the plain id and the printed
variant under an ``-as-printed`` suffix, derived from the plain entry so that
the sides and the grid they share are written once.
"""

from __future__ import annotations

import math
import random
from fnmatch import fnmatchcase
from fractions import Fraction

from .closed_forms import (
    as_np_closed,
    as_p1_closed,
    as_zneg1_alpha1_closed,
    boyadzhiev_ratio_closed,
    check_lambda_domain,
    concl_item3_lhs,
    concl_item3_rhs,
    concl_item4_lhs,
    concl_item4_rhs,
    generalized_harmonic_relation,
    gould_generalized_rhs,
    idi1_rhs,
    knuth_flajolet_rhs,
    lambda1_case_rhs,
    lemma21_lhs,
    lemma21_rhs,
    lemma21_rhs_ones,
    pan_closed_form,
    second_case_ones_rhs,
    thm33_nabla_rhs,
    thm33_rhs,
)
from .errors import DomainError, OutOfValidityRangeError
from .exact import _shared, binom_int, binom_rat, hockey_stick_sum
from .polyseries import PolyQ, harmonic_poly
from .sequences import (
    bernoulli_table,
    fibonacci,
    harmonic,
    harmonic_p,
    harmonic_table,
    laguerre,
    lucas,
    skew_harmonic,
    stirling2_row,
)
from .transforms import (
    binomial_transform,
    sanchez_transform,
    sanchez_weight,
    sanchez_weight_p1,
    sanchez_weight_p2,
    sanchez_weight_p3,
)
from .verifier import (
    ASSERT,
    REPORT_ONLY,
    Cell,
    IdentityEntry,
    binomial_oracle,
    certify_alpha_identity,
    harmonic_genfunc,
    pan_lemma_series,
    rand_rat,
)

LAMBDA_GRID = [
    Fraction(-7, 3),
    Fraction(-2),  # excluded for n >= 2: exercises skip accounting
    Fraction(-1, 2),
    Fraction(0),
    Fraction(1, 2),
    Fraction(1),
    Fraction(3),
]
ALPHA_GRID = [Fraction(-1), Fraction(-1, 3), Fraction(1, 2), Fraction(1), Fraction(2)]
MU_LAMBDA_GRID = [
    Fraction(-2),
    Fraction(-1),
    Fraction(-1, 2),
    Fraction(0),
    Fraction(1, 2),
    Fraction(1),
    Fraction(3),
]
KNUTH_LAMBDAS = [Fraction(-1, 2), Fraction(1, 3), Fraction(1, 2), Fraction(5, 2)]
Z_GRID = [Fraction(-2), Fraction(-1, 2), Fraction(1, 2), Fraction(1), Fraction(2)]
GOULD_A_GRID = [Fraction(-2, 3), Fraction(-1, 2), Fraction(1, 2), Fraction(1), Fraction(2)]
AS_ALPHAS = [Fraction(-1), Fraction(1, 2), Fraction(1), Fraction(2)]
LAGUERRE_XS = [Fraction(-2, 3), Fraction(1, 2), Fraction(1), Fraction(3)]
# The named sequences c of the Theorem 3.3 grids, as (name, the terms c_0..c_n
# as a function of n); the grids index them in this order, then three seeded
# random sequences.
_THM33_NAMED = [
    ("ones", lambda n: [Fraction(1)] * (n + 1)),
    ("identity", lambda n: [Fraction(k) for k in range(n + 1)]),
    ("squares", lambda n: [Fraction(k * k) for k in range(n + 1)]),
    ("fib", lambda n: [Fraction(fibonacci(k)) for k in range(n + 1)]),
    ("fib2", lambda n: [Fraction(fibonacci(2 * k)) for k in range(n + 1)]),
    ("lucas", lambda n: [Fraction(lucas(k)) for k in range(n + 1)]),
    ("lucas2", lambda n: [Fraction(lucas(2 * k)) for k in range(n + 1)]),
    ("bernoulli-alt", lambda n: [(-1) ** k * b for k, b in enumerate(bernoulli_table(n))]),
    ("laguerre-half", lambda n: [laguerre(k, Fraction(1, 2)) for k in range(n + 1)]),
    ("harm-alt", lambda n: [-((-1) ** k) * harmonic(k) for k in range(n + 1)]),
]
THM33_SEQS = [name for name, _ in _THM33_NAMED] + [f"random-{i}" for i in range(3)]
_THM33_LEGEND = ", ".join(f"{i}={name}" for i, name in enumerate(THM33_SEQS))


def _rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"{seed}|{stream}")


def _memo(tag: str, build, size: int):
    """table(key, n): build(key, m) with m = max(size, n), once per run under the run-memo key (tag, key, m).

    A table of length m + 1 serves every n <= m, so on a grid of n_max = size
    each key is built once per run_entry call.
    """
    def table(key, n: int):
        m = max(size, n)
        return _shared((tag, key, m), lambda: build(key, m))

    return table


def _rand_seqs(rng: random.Random, count: int, n_max: int) -> list[tuple[Fraction, ...]]:
    return [tuple(rand_rat(rng) for _ in range(n_max + 1)) for _ in range(count)]


def _thm33_clib(n_max: int, seed: int) -> list[tuple[Fraction, ...]]:
    """The terms 0..n_max of each sequence named in THM33_SEQS; the random ones from a stream of their own."""
    named = [tuple(terms(n_max)) for _, terms in _THM33_NAMED]
    return named + _rand_seqs(_rng(seed, "thm3.3-clib"), len(THM33_SEQS) - len(named), n_max)


# Grids.  run_entry visits a grid as given, so each is built in lexicographic
# order of its cells' (name, value) pairs: the loops run over the names in
# sorted order (a < alpha < j < k < lambda < mu < n < p < pair < seq < x < z),
# and over each name's values in ascending order.  A grid draws its random
# values from the rng it is given, the entry's own stream, so filtering or
# reordering entries cannot change any row.

def _n_grid(n_max: int, rng) -> list[Cell]:
    return [{"n": n} for n in range(1, n_max + 1)]


def _n0_grid(n_max: int, rng) -> list[Cell]:
    return [{"n": n} for n in range(n_max + 1)]


def _alpha_grid(extra: int):
    """The grid of ALPHA_GRID and `extra` seeded alphas, by n = 1..n_max."""
    return lambda n_max, rng: [
        {"alpha": a, "n": n} for a in sorted({*ALPHA_GRID, *(rand_rat(rng) for _ in range(extra))}) for n in range(1, n_max + 1)
    ]


def _concl_grid(n_max: int, rng) -> list[Cell]:
    return [{"alpha": a, "n": n} for a in ALPHA_GRID for n in range(1, min(n_max, 20) + 1)]


def _variant(base: IdentityEntry, **changes) -> IdentityEntry:
    """dataclasses.replace(base, **changes) at half its cost; every eval calls declare()."""
    return IdentityEntry(**{**vars(base), **changes})


def _ones(n: int) -> list[Fraction]:
    return [Fraction(1)] * (n + 1)


def _ratio_oracle(a, n: int, lam) -> Fraction:
    """Direct sum_{k=1..n} C(n,k) a_k / (k + lam).

    With lam = p/q the term is C(n,k) a_k q / (kq + p): over the lcm M of the
    kq + p, and with a_k = num_k/den_k lifted inline over the lcm D of
    den_1..den_n, it is an integer, and the sum is divided once by M D.
    """
    check_lambda_domain(lam, n)  # for its DomainError: an oracle takes lambda as given
    lam = Fraction(lam)
    p, q = lam.numerator, lam.denominator
    lcm = math.lcm(*[k * q + p for k in range(1, n + 1)])
    try:
        den = math.lcm(*[a[k].denominator for k in range(1, n + 1)])
    except AttributeError:
        raise TypeError("_ratio_oracle takes int and Fraction terms") from None
    total = 0
    for k in range(1, n + 1):
        total += binom_int(n, k) * q * (lcm // (k * q + p)) * a[k].numerator * (den // a[k].denominator)
    return Fraction(total, lcm * den)


def _gould_oracle(n: int, j: int, a) -> Fraction:
    """Direct sum_{k=1..n} C(n,k) C(k,j) (-a)^k / k (k = 0 is excluded)."""
    return binomial_oracle(n, [0] + [Fraction(binom_int(k, j), k) for k in range(1, n + 1)], mu=-a)


def _knuth_oracle(n: int, lam) -> Fraction:
    lam = Fraction(lam)
    if lam == 0:
        raise DomainError("lambda = 0 is a pole")
    check_lambda_domain(lam, n)  # for its DomainError: an oracle takes lambda as given
    return binomial_oracle(n, [1 / (k + lam) for k in range(n + 1)], mu=-1)


def _power_weight_oracle(a, n: int, p: int) -> Fraction:
    if p > n:
        # mirrors the formula's declared validity range so the cell is skipped
        raise OutOfValidityRangeError("p > n")
    return binomial_oracle(n, [k**p * Fraction(a[k]) for k in range(n + 1)])


# Second definitions for the ex3.4 right sides: the identities are linear in
# the sequence, so a right side that called the generator would pass any
# multiple of it.


def _fibonacci_doubling(n: int) -> int:
    """F_n by fast doubling, F_2k = F_k (2 F_(k+1) - F_k) and F_(2k+1) = F_k^2 + F_(k+1)^2."""
    f, g = 0, 1  # F_k, F_(k+1), k = 0
    for bit in bin(n)[2:]:
        f, g = f * (2 * g - f), f * f + g * g
        if bit == "1":
            f, g = g, f + g
    return f


def _lucas_doubling(n: int) -> int:
    """L_n by fast doubling, L_2k = L_k^2 - 2(-1)^k and L_(2k+1) = L_k L_(k+1) - (-1)^k."""
    a, b, sign = 2, 1, 1  # L_k, L_(k+1), (-1)^k, k = 0
    for bit in bin(n)[2:]:
        a, b, sign = a * a - 2 * sign, a * b - sign, 1
        if bit == "1":
            a, b, sign = b, a + b, -1
    return a


def _bernoulli_alternating(n: int) -> Fraction:
    """(-1)^n B_n by the Akiyama-Tanigawa algorithm.

    The algorithm gives B_1 = +1/2, which is (-1)^n B_n under the B_1 = -1/2
    convention of sequences.bernoulli (odd B_n vanish past n = 1).
    """
    row: list[Fraction] = []
    for m in range(n + 1):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
    return row[0]


def _laguerre_recurrence(x, n_max: int) -> list[Fraction]:
    """L_0(x), ..., L_n_max(x) by the three-term recurrence (at least two terms)."""
    vals = [Fraction(1), 1 - x]
    for n in range(2, n_max + 1):
        vals.append(((2 * n - 1 - x) * vals[n - 1] - (n - 1) * vals[n - 2]) / n)
    return vals


# --- sides, by group -------------------------------------------------------------

def _exact_sides(ht, size: int) -> list[IdentityEntry]:
    return [
        IdentityEntry(
            id="hockey-stick",
            anchor="sum_{m=0..n} C(x+m,m) = C(x+n+1,n)",
            params=("n", "x"),
            lhs=lambda n, x: hockey_stick_sum(x, n),
            rhs=lambda n, x: binom_rat(x + n + 1, n),
            grid=lambda n_max, rng: [
                {"x": x, "n": n} for xs in [sorted({rand_rat(rng) for _ in range(20)})] for n in range(min(n_max, 30) + 1) for x in xs
            ],
        )
    ]


def _ratio_sides(ht, size: int) -> list[IdentityEntry]:
    ones = IdentityEntry(
        id="lemma2.1-ones",
        anchor="lemmaeq0: b=1, L!=0 branch = (C(L+n,n)-1)/(L*C(L+n,n))",
        params=("n", "lambda"),
        lhs=lambda n, lam: lemma21_lhs(_ones(n), n, lam),
        rhs=lemma21_rhs_ones,
        note="numerator corrected to C(L+n,n); the printed lower index n-1 fails the oracle (see lemma2.1-ones-as-printed)",
        grid=lambda n_max, rng: [{"lambda": lam, "n": n} for lam in LAMBDA_GRID if lam != 0 for n in range(1, n_max + 1)],
    )
    skew = IdentityEntry(
        id="skew-relation",
        anchor="H_n(-1) = H_n + sum_k C(n,k)(-2)^k/k",
        params=("n",),
        lhs=lambda n: harmonic_p(n, 1, -1),
        rhs=lambda n: generalized_harmonic_relation(n, -1),
        note="holds with H_n(-1) = -H_n^- on the left; the printed H_n^- reading fails (see skew-sign-convention)",
        grid=_n_grid,
    )
    return [
        IdentityEntry(
            id="lemma2.1-coherence",
            anchor="lemmaeq0: n!*sum_m b_m/(m!(L+m)..(L+n)) = branch(L)",
            params=("seq", "n", "lambda"),
            lhs=lemma21_lhs,
            rhs=lemma21_rhs,
            note="seq indexes the seeded random b sequences; integer lambdas in [-n,-1] are skipped",
            family=lambda n_max, seed, rng: _rand_seqs(rng, 30, n_max),
            grid=lambda n_max, rng: [{"seq": s, "lambda": lam, "n": n} for lam in LAMBDA_GRID for n in range(1, n_max + 1) for s in range(30)],
        ),
        IdentityEntry(
            id="lemma2.1-ones-zero",
            anchor="lemmaeq0: b=1, L=0 branch equals H_n",
            params=("n",),
            lhs=lambda n: lemma21_lhs(_ones(n), n, 0),
            rhs=lambda n: lemma21_rhs_ones(n, 0),
            grid=_n_grid,
        ),
        ones,
        _variant(
            ones,
            id="lemma2.1-ones-as-printed",
            anchor="lemmaeq0: b=1, L!=0 branch with numerator C(L+n,n-1) as printed",
            rhs=lambda n, lam: lemma21_rhs_ones(n, lam, as_printed=True),
            policy=REPORT_ONLY,
            note="as-printed variant; agreement only where C(L+n,n-1) happens to equal C(L+n,n)",
        ),
        IdentityEntry(
            id="thm2.3-general",
            anchor="suce11: sum_k C(n,k) a_k/(k+L) = transform closed form",
            params=("seq", "n", "lambda"),
            lhs=_ratio_oracle,
            rhs=boyadzhiev_ratio_closed,
            note="even seq indices have a_0 = 0, odd ones a_0 != 0",
            # even seq indices get a_0 = 0, so the b_0-correction path is exercised either way
            family=lambda n_max, seed, rng: [(Fraction(0), *s[1:]) if i % 2 == 0 else s for i, s in enumerate(_rand_seqs(rng, 30, n_max))],
            grid=lambda n_max, rng: [{"seq": i, "lambda": lam, "n": n} for lam in LAMBDA_GRID for n in range(1, n_max + 1) for i in range(30)],
        ),
        IdentityEntry(
            id="thm2.3-lambda0",
            anchor="suce11: L=0 branch sum b_m/m - b_0 H_n",
            params=("seq", "n"),
            lhs=lambda a, n: _ratio_oracle(a, n, 0),
            rhs=lambda a, n: boyadzhiev_ratio_closed(a, n, 0),
            family=lambda n_max, seed, rng: _rand_seqs(rng, 10, n_max),
            grid=lambda n_max, rng: [{"seq": i, "n": n} for n in range(1, n_max + 1) for i in range(10)],
        ),
        IdentityEntry(
            id="thm2.3-lambda1",
            anchor="suce11: L=1 case (sum_m b_m - n b_0)/(n+1)",
            params=("seq", "n"),
            lhs=lambda a, n: _ratio_oracle(a, n, 1),
            rhs=lambda1_case_rhs,
            family=lambda n_max, seed, rng: _rand_seqs(rng, 10, n_max),
            grid=lambda n_max, rng: [{"seq": i, "n": n} for n in range(1, n_max + 1) for i in range(10)],
        ),
        IdentityEntry(
            id="second-case-ones",
            anchor="sum_k C(n,k)/k = sum_m 2^m/m - H_n",
            params=("n",),
            lhs=lambda n: _ratio_oracle(_ones(n), n, 0),
            rhs=second_case_ones_rhs,
            grid=_n_grid,
        ),
        IdentityEntry(
            id="knuth-flajolet",
            anchor="sum_k C(n,k)(-1)^k/(k+L) = 1/(L*C(L+n,n))",
            params=("n", "lambda"),
            lhs=_knuth_oracle,
            rhs=knuth_flajolet_rhs,
            grid=lambda n_max, rng: [{"lambda": lam, "n": n} for lam in KNUTH_LAMBDAS for n in range(1, n_max + 1)],
        ),
        IdentityEntry(
            id="gen-harmonic-relation",
            anchor="H_n(a) = H_n + sum_k C(n,k)(a-1)^k/k",
            params=("n", "alpha"),
            lhs=lambda n, alpha: harmonic_p(n, 1, alpha),
            rhs=generalized_harmonic_relation,
            certify=lambda nm: certify_alpha_identity(harmonic_poly, generalized_harmonic_relation, nm),
            grid=_alpha_grid(20),
        ),
        skew,
        _variant(
            skew,
            id="skew-sign-convention",
            anchor="H_n^- = H_n + sum_k C(n,k)(-2)^k/k (as printed)",
            lhs=skew_harmonic,
            policy=REPORT_ONLY,
            note="resolves the sign convention empirically: this reading disagrees, the H_n(-1) reading holds",
        ),
    ]


def _gould_sides(ht, size: int) -> list[IdentityEntry]:
    j0 = IdentityEntry(
        id="eq-eulerbnew-j0",
        anchor="eulerbnew at j=0 as printed",
        params=("n", "a"),
        lhs=lambda n, a: _gould_oracle(n, 0, a),
        rhs=lambda n, a: gould_generalized_rhs(n, 0, a),
        policy=REPORT_ONLY,
        note="at j=0 the printed display drops the -b_0*H_n correction (b_0 = 1), so the sides differ by H_n",
        grid=lambda n_max, rng: [{"a": a, "j": 0, "n": n} for a in GOULD_A_GRID for n in range(1, n_max + 1)],
    )
    return [
        IdentityEntry(
            id="eq-eulerbnew",
            anchor="eulerbnew: sum_k C(n,k)C(k,j)(-a)^k/k = sum_t C(t,j)(-a)^j(1-a)^(t-j)/t",
            params=("n", "j", "a"),
            lhs=_gould_oracle,
            rhs=gould_generalized_rhs,
            note="j >= 1 grid; ratio sums start at k = 1; 0^0 = 1 at the a = 1 edge",
            grid=lambda n_max, rng: [
                {"a": a, "j": j, "n": n} for a in GOULD_A_GRID for j in range(1, n_max + 1) for n in range(j, n_max + 1)
            ],
        ),
        j0,
        _variant(
            j0,
            id="eq-eulerbnew-j0-corrected",
            anchor="eulerbnew at j=0 with the -H_n correction restored",
            rhs=lambda n, a, printed=j0.rhs: printed(n, a) - harmonic(n),
            policy=ASSERT,
            note="",
        ),
    ]


def _series_sides(ht, size: int) -> list[IdentityEntry]:
    # the series of Pan's lemma with a_k = -H_k(alpha) per (L, u, alpha), built at order 1
    # at least (its smallest order); the right sides negate the shared harmonic tables
    pan = _memo("pan_lemma_series", lambda key, m: pan_lemma_series(max(m, 1), key[0], key[1], [-h for h in ht(key[2], m)]).coeffs, size)
    genfunc = _memo("harmonic_genfunc", lambda alpha, m: harmonic_genfunc(m, alpha).coeffs, size)
    return [
        IdentityEntry(
            id="panequa1-series",
            anchor="panequa1: [t^n] f(ut/(1-Lt))/(1-Lt) = sum_k C(n,k)u^k L^(n-k) a_k",
            params=("n", "lambda", "mu", "alpha"),
            lhs=lambda n, lam, mu, alpha: pan((lam, mu, alpha), n)[n],
            rhs=lambda n, lam, mu, alpha: -binomial_oracle(n, ht(alpha, n), mu, lam),
            note="a_k = -H_k(alpha), the generating coefficients of log(1-alpha*t)/(1-t); seeded (L,u,alpha) triples",
            grid=lambda n_max, rng: [
                {"pair": i, "lambda": lam, "mu": mu, "alpha": alpha, "n": n}
                for alpha, lam, mu, i in sorted(
                    (alpha, lam, mu, i) for i, (lam, mu, alpha) in enumerate([[rand_rat(rng) for _ in range(3)] for _ in range(10)])
                )
                for n in range(n_max + 1)
            ],
        ),
        IdentityEntry(
            id="genfunc-alpha",
            anchor="conclusion-1: log(1-a*t)/(1-t) = -sum H_n(a) t^n",
            params=("n", "alpha"),
            lhs=lambda n, alpha: genfunc(alpha, n)[n],
            rhs=lambda n, alpha: -ht(alpha, n)[n],
            grid=lambda n_max, rng: [{"alpha": a, "n": n} for a in sorted({rand_rat(rng) for _ in range(10)}) for n in range(n_max + 1)],
        ),
        IdentityEntry(
            id="genfunc-harmonic",
            anchor="conclusion-1.1: log(1-t)/(1-t) = -sum H_n t^n",
            params=("n",),
            lhs=lambda n: genfunc(Fraction(1), n)[n],
            rhs=lambda n: -ht(1, n)[n],
            grid=lambda n_max, rng: [{"alpha": Fraction(1), "n": n} for n in range(n_max + 1)],
        ),
        IdentityEntry(
            id="genfunc-skew",
            anchor="conclusion-1.2: [t^n] log(1+t)/(1-t) = H_n^- = -H_n(-1)",
            params=("n",),
            lhs=lambda n: genfunc(Fraction(-1), n)[n],
            rhs=lambda n: -ht(-1, n)[n],
            note="the printed -H notation matches only under the H_n(-1) reading",
            grid=_n0_grid,
        ),
    ]


def _idi1_alternating(ht) -> IdentityEntry:
    """idi1-alternating, of the Pan group; the conclusion group restates it as concl-item2."""
    alternating_oracle = lambda n: sum((binom_int(n, k) * (-1) ** k * harmonic_poly(k) for k in range(n + 1)), PolyQ())
    return IdentityEntry(
        id="idi1-alternating",
        anchor="idi1: sum_k (-1)^k C(n,k) H_k(a) = ((1-a)^n - 1)/n",
        params=("n", "alpha"),
        lhs=lambda n, alpha: binomial_oracle(n, ht(alpha, n), mu=-1),
        rhs=idi1_rhs,
        certify=lambda nm: certify_alpha_identity(alternating_oracle, idi1_rhs, nm),
        grid=_alpha_grid(10),
    )


def _pan_sides(ht, size: int) -> list[IdentityEntry]:
    # the skew-harmonic weights are H_k^- = -H_k(-1); the last three right sides
    # are Pan's theorem at each display's own (mu, lam, alpha)
    return [
        IdentityEntry(
            id="pan-thm3.2",
            anchor="teorempan: sum_k C(n,k)u^k L^(n-k) H_k(a), both branches",
            params=("n", "mu", "lambda", "alpha"),
            lhs=lambda n, mu, lam, alpha: binomial_oracle(n, ht(alpha, n), mu, lam),
            rhs=pan_closed_form,
            note="grid includes every u+L = 0 line (second branch) and u = L = 0",
            grid=lambda n_max, rng: [
                {"mu": mu, "lambda": lam, "alpha": alpha, "n": n}
                for alpha in ALPHA_GRID for lam in MU_LAMBDA_GRID for mu in MU_LAMBDA_GRID for n in range(1, n_max + 1)
            ],
        ),
        _idi1_alternating(ht),
        IdentityEntry(
            id="skew-transform",
            anchor="sum_k C(n,k) H_k^- = 2^n H_n(1/2)",
            params=("n",),
            lhs=lambda n: -binomial_oracle(n, ht(-1, n)),
            rhs=lambda n: -pan_closed_form(n, 1, 1, -1),
            grid=_n_grid,
        ),
        IdentityEntry(
            id="frontczak-variant",
            anchor="sum_k C(n,k) 2^k H_k^- = -3^n (H_n(-1/3) - H_n(1/3))",
            params=("n",),
            lhs=lambda n: -binomial_oracle(n, ht(-1, n), mu=2),
            rhs=lambda n: -pan_closed_form(n, 2, 1, -1),
            grid=_n_grid,
        ),
        IdentityEntry(
            id="spivey-generalization",
            anchor="sum_{k>=1} C(n,k) H_k(a) = 2^n (H_n((1+a)/2) - H_n(1/2))",
            params=("n", "alpha"),
            lhs=lambda n, alpha: binomial_oracle(n, ht(alpha, n)),
            rhs=lambda n, alpha: pan_closed_form(n, 1, 1, alpha),
            grid=_alpha_grid(5),
        ),
    ]


def _thm33_sides(ht, size: int) -> list[IdentityEntry]:
    eqnnew8 = IdentityEntry(
        id="thm3.3-eqnnew8",
        anchor="eqnnew8: sum_k C(n,k)(-1)^k H_k(a) c_k via d = inverse transform of c",
        params=("seq", "n", "alpha"),
        lhs=lambda c, n, alpha: binomial_oracle(n, [h * ck for h, ck in zip(ht(alpha, n)[: n + 1], c)], mu=-1),
        rhs=thm33_rhs,
        note=f"promoted to ASSERT after a clean full oracle run; a and alpha are treated as one symbol; seq: {_THM33_LEGEND}",
        family=lambda n_max, seed, rng: _thm33_clib(n_max, seed),
        grid=lambda n_max, rng: [
            {"seq": i, "alpha": a, "n": n} for a in ALPHA_GRID for n in range(1, n_max + 1) for i in range(len(THM33_SEQS))
        ],
    )
    return [
        eqnnew8,
        _variant(
            eqnnew8,
            id="thm3.3-nabla",
            anchor="eqnnew9: same sum decomposed through weighted nabla terms",
            rhs=thm33_nabla_rhs,
            note=f"seq: {_THM33_LEGEND}",
            grid=lambda n_max, rng: [{"seq": i, "alpha": a, "n": n} for a in ALPHA_GRID for n in range(1, n_max + 1) for i in range(6)],
        ),
    ]


def _example34_sides(ht, size: int) -> list[IdentityEntry]:
    harmonic_alt = IdentityEntry(
        id="ex3.4-harmonic-alt",
        anchor="sum_k C(n,k)(-1)^(k-1) H_k = 1/n",
        params=("n",),
        lhs=lambda n: -binomial_oracle(n, ht(1, n), mu=-1),
        rhs=lambda n: Fraction(1, n),
        note="printed transform value (-1)^(n-1)/n holds only at odd n; see ex3.4-harmonic-alt-as-printed",
        grid=_n_grid,
    )
    return [
        IdentityEntry(
            id="ex3.4-stirling-power",
            anchor="sum_k C(n,k) k! S(p,k) = n^p",
            params=("n", "p"),
            lhs=lambda n, p: binomial_oracle(n, [math.factorial(k) * s for k, s in enumerate(stirling2_row(p))] + [0] * n),
            rhs=lambda n, p: n**p,
            note="integer exponents only; the complex-exponent form of this pair is out of scope",
            grid=lambda n_max, rng: [{"p": p, "n": n} for n in range(n_max + 1) for p in range(9)],
        ),
        harmonic_alt,
        _variant(
            harmonic_alt,
            id="ex3.4-harmonic-alt-as-printed",
            anchor="sum_k C(n,k)(-1)^(k-1) H_k = (-1)^(n-1)/n (as printed)",
            rhs=lambda n: Fraction((-1) ** (n + 1), n),  # (-1)^(n-1), an int also at n = 0
            policy=REPORT_ONLY,
            note="",
        ),
        IdentityEntry(
            id="ex3.4-fibonacci",
            anchor="sum_k C(n,k) F_k = F_2n",
            params=("n",),
            lhs=lambda n: binomial_oracle(n, [fibonacci(k) for k in range(n + 1)]),
            rhs=lambda n: _fibonacci_doubling(2 * n),
            grid=_n0_grid,
        ),
        IdentityEntry(
            id="ex3.4-fibonacci-alt",
            anchor="sum_k C(n,k)(-1)^(k-1) F_k = F_n",
            params=("n",),
            lhs=lambda n: -binomial_oracle(n, [fibonacci(k) for k in range(n + 1)], mu=-1),
            rhs=_fibonacci_doubling,
            grid=_n0_grid,
        ),
        IdentityEntry(
            id="ex3.4-lucas",
            anchor="sum_k C(n,k) L_k = L_2n",
            params=("n",),
            lhs=lambda n: binomial_oracle(n, [lucas(k) for k in range(n + 1)]),
            rhs=lambda n: _lucas_doubling(2 * n),
            grid=_n0_grid,
        ),
        IdentityEntry(
            id="ex3.4-lucas-alt",
            anchor="sum_k C(n,k)(-1)^k L_k = L_n",
            params=("n",),
            lhs=lambda n: binomial_oracle(n, [lucas(k) for k in range(n + 1)], mu=-1),
            rhs=_lucas_doubling,
            grid=_n0_grid,
        ),
        IdentityEntry(
            id="ex3.4-bernoulli",
            anchor="sum_k C(n,k) B_k = (-1)^n B_n",
            params=("n",),
            lhs=lambda n: binomial_oracle(n, bernoulli_table(n)),
            rhs=_bernoulli_alternating,
            note="pins the B_1 = -1/2 convention; the +1/2 convention fails at n = 1",
            grid=_n0_grid,
        ),
        IdentityEntry(
            id="ex3.4-laguerre",
            anchor="sum_k C(n,k)(-x)^k/k! = L_n(x)",
            params=("n", "x"),
            lhs=laguerre,
            rhs=lambda n, x: _laguerre_recurrence(x, n)[n],
            note="right side from the three-term recurrence, independent of the defining sum",
            grid=lambda n_max, rng: [{"x": x, "n": n} for n in range(n_max + 1) for x in LAGUERRE_XS],
        ),
    ]


def _sanchez_sides(ht, size: int) -> list[IdentityEntry]:
    entries = [
        IdentityEntry(
            id="sanchez-weight",
            anchor="sanchezlemma: C(n,k) k^p as the signed Stirling double sum",
            params=("n", "k", "p"),
            lhs=lambda n, k, p: binom_int(n, k) * k**p,
            rhs=sanchez_weight,
            note="uses the C(n-l,k), C(n-l,j-l) index reading; the printed C(n-1,*) occurrences fail the p=1..3 examples",
            grid=lambda n_max, rng: [
                {"n": n, "k": k, "p": p} for top in [min(n_max, 15)] for k in range(top + 1) for n in range(k, top + 1) for p in range(7)
            ],
        )
    ]
    for p, fn in ((1, sanchez_weight_p1), (2, sanchez_weight_p2), (3, sanchez_weight_p3)):
        entries.append(
            IdentityEntry(
                id=f"sanchez-p{p}",
                anchor=f"exsanchez: printed p={p} shifted-binomial specialization",
                params=("n", "k"),
                lhs=lambda n, k, p=p: binom_int(n, k) * k**p,
                rhs=fn,
                grid=lambda n_max, rng: [
                    {"n": n, "k": k} for top in [min(n_max, 12)] for k in range(top + 1) for n in range(k, top + 1)
                ],
            )
        )
    entries.append(
        IdentityEntry(
            id="sanchez-transform",
            anchor="sanchez: sum_k C(n,k) k^p a_k from the plain transform of a",
            params=("seq", "n", "p"),
            lhs=_power_weight_oracle,
            rhs=lambda a, n, p: sanchez_transform(binomial_transform(a[: n + 1]), n, p),
            note="cells with p > n are skipped by contract, not evaluated",
            family=lambda n_max, seed, rng: _rand_seqs(rng, 10, min(n_max, 12)),
            # p = n+1 cells exercise the validity-range skip
            grid=lambda n_max, rng: [
                {"seq": i, "n": n, "p": p} for n in range(1, min(n_max, 12) + 1) for p in range(min(n, 6) + 2) for i in range(10)
            ],
        )
    )
    return entries


def _asnp_sides(ht, size: int) -> list[IdentityEntry]:
    def oracle(n: int, p: int, z, alpha) -> Fraction:
        hs = ht(alpha, n)
        return binomial_oracle(n, [j**p * hs[j] for j in range(n + 1)], mu=z)

    general = IdentityEntry(
        id="as-newcoffey",
        anchor="newcoffey: sum_j C(n,j) j^p H_j(a) z^j, z != -1, via Stirling double sum",
        params=("n", "p", "z", "alpha"),
        lhs=oracle,
        rhs=as_np_closed,
        grid=lambda n_max, rng: [
            {"z": z, "alpha": alpha, "n": n, "p": p}
            for alpha in AS_ALPHAS for n in range(1, min(n_max, 12) + 1) for p in range(1, min(n, 4) + 1) for z in Z_GRID
        ],
    )
    alpha1 = IdentityEntry(
        id="as-newcoffey1",
        anchor="newcoffey1: z=-1, a=1 case with weights k! S(p,k)",
        params=("n", "p"),
        lhs=lambda n, p: oracle(n, p, Fraction(-1), Fraction(1)),
        rhs=as_zneg1_alpha1_closed,
        note="tail weight corrected to k! S(p,k), forced by the oracle and by the surrounding derivation; see -as-printed",
        grid=lambda n_max, rng: [{"n": n, "p": p} for n in range(1, min(n_max, 15) + 1) for p in range(1, min(n, 6) + 1)],
    )
    p0 = IdentityEntry(
        id="as-p0",
        anchor="p=0 case: sum_k C(n,k) z^k H_k(a) = (1+z)^n (H_n((1+az)/(1+z)) - H_n(1/(1+z)))",
        params=("n", "z", "alpha"),
        lhs=lambda n, z, alpha: binomial_oracle(n, ht(alpha, n), mu=z),
        rhs=lambda n, z, alpha: pan_closed_form(n, z, 1, alpha),
        note="printed display carries a stray (-1)^k on the left; see as-p0-as-printed",
        grid=lambda n_max, rng: [
            {"z": z, "alpha": alpha, "n": n} for alpha in AS_ALPHAS for n in range(1, min(n_max, 12) + 1) for z in Z_GRID
        ],
    )
    return [
        general,
        _variant(
            general,
            id="as-newcoff",
            anchor="newcoff: the z = -1 branch through the alternating transform values",
            note="promoted to ASSERT after a clean full oracle run; the l = n corner uses b_0 = 0 exactly, avoiding the printed 0/0",
            grid=lambda n_max, rng: [
                {"z": Fraction(-1), "alpha": alpha, "n": n, "p": p}
                for alpha in ALPHA_GRID for n in range(1, min(n_max, 15) + 1) for p in range(1, min(n, 4) + 1)
            ],
        ),
        alpha1,
        _variant(
            alpha1,
            id="as-newcoffey1-as-printed",
            anchor="newcoffey1 with the printed tail weight k! C(n,k)",
            rhs=lambda n, p: as_zneg1_alpha1_closed(n, p, as_printed=True),
            policy=REPORT_ONLY,
            note="",
        ),
        p0,
        _variant(
            p0,
            id="as-p0-as-printed",
            anchor="p=0 case with the printed (-1)^k kept on the left",
            lhs=lambda n, z, alpha: binomial_oracle(n, ht(alpha, n), mu=-z),
            policy=REPORT_ONLY,
            note="",
        ),
        IdentityEntry(
            id="as-p1-exemple1",
            anchor="exemple1: the factored p=1 expansion",
            params=("n", "z", "alpha"),
            lhs=lambda n, z, alpha: oracle(n, 1, z, alpha),
            rhs=as_p1_closed,
            # p = 1 is shown in the table; the sides do not read it
            grid=lambda n_max, rng: [
                {"z": z, "alpha": alpha, "n": n, "p": 1} for alpha in AS_ALPHAS for n in range(1, min(n_max, 12) + 1) for z in Z_GRID
            ],
        ),
        *(
            _variant(
                general,
                id=f"as-p{p}-display",
                anchor=f"p={p} display expansion",
                policy=REPORT_ONLY,
                note=(
                    "UNIMPLEMENTED-AS-PRINTED: the display has unbalanced parentheses and an "
                    "undefined symbol; cells compare the general closed form instead"
                ),
                # the display rows keep their smallest legal n even when n_max < p
                grid=lambda n_max, rng, p=p: [
                    {"z": z, "alpha": alpha, "n": n, "p": p}
                    for alpha in (Fraction(1), Fraction(2)) for n in range(p, max(min(n_max, 10), p) + 1) for z in (Fraction(1, 2), Fraction(1))
                ],
            )
            for p in (2, 3)
        ),
    ]


def _conclusion_sides(ht, size: int) -> list[IdentityEntry]:
    item3 = IdentityEntry(
        id="concl-item3",
        anchor="conclusion-3: sum_k H_k(a)/k vs product form, H(a)^(2) read as the weight-2 sum",
        params=("n", "alpha"),
        lhs=concl_item3_lhs,
        rhs=concl_item3_rhs,
        policy=REPORT_ONLY,
        note="question-marked in the source; registered as a conjecture, never asserted",
        grid=_concl_grid,
    )
    item4 = IdentityEntry(
        id="concl-item4",
        anchor="conclusion-4: sum_k (-1)^k H_k(a)/k vs H^(2)(1-a) - H^(2)(1)",
        params=("n", "alpha"),
        lhs=concl_item4_lhs,
        rhs=concl_item4_rhs,
        policy=REPORT_ONLY,
        note="weight-2 reading; disagrees beyond n = 1, counterexamples recorded",
        grid=_concl_grid,
    )
    return [
        _variant(
            _idi1_alternating(ht),
            id="concl-item2",
            anchor="conclusion-2: sum_k (-1)^k C(n,k) H_k(a) = ((1-a)^n - 1)/n",
            grid=_alpha_grid(5),
        ),
        item3,
        _variant(
            item3,
            id="concl-item3-square",
            anchor="conclusion-3 with H(a)^(2) read as a square",
            rhs=lambda n, alpha: concl_item3_rhs(n, alpha, reading="square"),
            note="alternative reading of the same conjecture",
        ),
        item4,
        _variant(
            item4,
            id="concl-item4-square",
            anchor="conclusion-4 with the squares reading",
            rhs=lambda n, alpha: concl_item4_rhs(n, alpha, reading="square"),
            note="alternative reading; also disagrees",
        ),
    ]


# The groups in ledger order.  Each is called as group(ht, size), where ht is
# the run memo's harmonic tables built for n >= size.
_GROUPS = (
    _exact_sides,
    _ratio_sides,
    _gould_sides,
    _series_sides,
    _pan_sides,
    _thm33_sides,
    _example34_sides,
    _sanchez_sides,
    _asnp_sides,
    _conclusion_sides,
)


def _harmonic_tables(size: int):
    return _memo("harmonic_table", lambda alpha, m: harmonic_table(m, 1, alpha), size)


# entry id -> the index in _GROUPS of the group that declares it, read from the groups once
GROUP_OF = {e.id: g for g, group in enumerate(_GROUPS) for e in group(_harmonic_tables(0), 0)}


def declare(size: int = 0, pattern: str = "*") -> list[IdentityEntry]:
    """The sides, params and policy of the entries whose id matches the fnmatch pattern, in ledger order, with no cells.

    Only the groups that hold a matching id are built.  The tables the sides
    share are read through the run memo (see exact); `size` is the n they are
    built for at least (a grid's n_max), and a side asking for a larger n
    builds them at that n.
    """
    # an id holds no fnmatch metacharacter, so an exact id matches only itself
    ids = {pattern} if pattern in GROUP_OF else {i for i in GROUP_OF if fnmatchcase(i, pattern)}
    ht = _harmonic_tables(size)
    return [e for g in sorted({GROUP_OF[i] for i in ids}) for e in _GROUPS[g](ht, size) if e.id in ids]


def _on_seqs(side, seqs: list[tuple]):
    """side with its first argument, a grid cell's `seq`, read as an index into seqs."""
    return lambda i, *rest: side(seqs[i], *rest)


def build_registry(n_max: int, seed: int, pattern: str = "*") -> list[IdentityEntry]:
    """The entries whose id matches the fnmatch pattern, with their grids sized by n_max and seeded by seed.

    Only the matching entries' sides (declare), grids and families are built.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    entries = declare(n_max, pattern)
    families: dict = {}  # family function -> its one draw in this build
    for e in entries:
        rng = _rng(seed, e.id)
        if e.family is not None:
            if e.family not in families:
                families[e.family] = e.family(n_max, seed, rng)
            seqs = families[e.family]
            e.lhs, e.rhs = _on_seqs(e.lhs, seqs), _on_seqs(e.rhs, seqs)
        e.cells = e.grid(n_max, rng)
    return entries
