"""The identity catalog: every registered entry, as its sides and its grid.

An entry's sides (``declare``) take the values of the names in its
``params`` as positional arguments, in that order, and are valid at any
in-domain point; ``ghn eval`` calls them at a point the user gives.  A side
that is one closed form or oracle as it stands is that function itself, and
an entry with a sequence parameter lists it first, as ``seq``.  Tables that
sides share are read through the run memo (exact._shared_table), keyed by
value and by the length they are built to: inside a run, the largest n of
its cells, and outside one, the n asked for.  So no declaration carries a
size, and no table depends on a grid or outlives a run (the cache rule is in
exact).  Each entry declares its grid beside its sides: ``grid(n_max, rng)``
returns the cells that ``verify`` and ``table`` run, and an entry whose sides
take a sequence also declares ``family(n_max, seed, rng)``, the seeded
sequences that a cell's ``seq`` indexes, resolved to their terms when the
sides are called.  Its grid leaves ``seq`` out: ``build_registry`` adds it as
the innermost name, over every sequence of the family, so a family's size is
written once.  An entry made from another with ``IdentityEntry.replace`` keeps
both unless it declares its own.

Each oracle (verifier.binomial_oracle, _ratio_oracle, closed_forms.lemma21_lhs,
_power_weight_oracle, _gould_oracle) is the oracles' lift, exact._oracle_terms,
plus an integer kernel over the lifted terms (nums, den), and reads no memo;
it checks none of its identity's hypotheses, only its own poles (the rule is
in closed_forms).
Where the weights depend only on the grid point, a pure row builder makes
them, (weights, scale) in integers, and the kernel is one dot product of the
row with the lift (exact._oracle_dot): _ratio_row per (n, lambda) for the
ratio sum, closed_forms._lemma21_lhs_row for Lemma 2.1's left side.  The
family and harmonic grid sides call an oracle's kernel, not the oracle, on a
lift or row read once per run through the run memo, under tags that no
closed form uses (the exact docstring lists them): _power_weight_num at the
lift of a family sequence (_seq_terms) or of a harmonic table (_ht_terms);
_gould_side at the Gould row per (n, j); _ratio_side and _lemma21_side at
their rows per (n, lambda) (_oracle_row); and _ht_sum and _thm33_side at the
harmonic row sign^k C(n,k) N_k per (n, alpha) (_harmonic_row), which _ht_sum
sums by Horner's rule at each (mu, lambda) and _thm33_side dots with the
lifted c, so a family cell is one integer dot product.  A lift of a whole
table or sequence serves every n up to its length.  _power_weight_oracle and
_gould_oracle are the references that tests hold those kernels to.  The
oracle sides read a scalar through exact._oracle_ratio; the series sides of
panequa1-series and genfunc-*, which lift through common_denominator, key
their series through exact._ratio (the reader rule is in exact).

Entries are declared in groups, one builder per part of the paper, kept in
ledger order in ``_GROUPS``; ``GROUP_OF`` maps each id to its group and is
read once, at import, from the groups' own output, so no id is written twice.
``declare(pattern)`` gives the entries whose id matches the fnmatch pattern,
with no cells, and builds only the groups that hold them, so ``eval`` and
``series`` build one group's sides.  It rebuilds those groups on every call
because sides bind their kernels when declared: a kernel patched between two
declares must reach the second.  ``build_registry(n_max, seed, pattern)``
builds the grids and families of those entries, and of no other entry, so
``verify --filter`` and ``table`` build only what they run.

Grids are deterministic functions of (n_max, seed); each draws its random
values from its entry's own stream, seeded by (seed, id), so that filtering
or reordering entries cannot change any row.  Theorem 3.3's random sequences,
which thm3.3-eqnnew8 alone reads (thm3.3-nabla reads six named ones), keep a
stream of their own, so that eqnnew8's draws, and so its tables, stay as they
were.

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
    _lemma21_lhs_row,
    as_np_closed,
    as_p1_closed,
    as_zneg1_alpha1_closed,
    boyadzhiev_ratio_closed,
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
    power_weighted_rhs,
    second_case_ones_rhs,
    thm33_nabla_rhs,
    thm33_rhs,
)
from .errors import DomainError
from .exact import _oracle_dot, _oracle_ratio, _oracle_terms, _ratio, _shared, _shared_table, binom_int, binom_rat, hockey_stick_sum
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
    _binomial_num,
    _binomial_row,
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


def _ones(n: int) -> list[Fraction]:
    return [Fraction(1)] * (n + 1)


# The named sequences c of the Theorem 3.3 grids, as (name, the terms c_0..c_n
# as a function of n); the grids index them in this order, then three seeded
# random sequences.
_THM33_NAMED = [
    ("ones", _ones),
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


def _ht(alpha, n: int) -> list[Fraction]:
    """H_0(alpha), ..., H_m(alpha) for an m >= n, shared through the run memo (exact._shared_table)."""
    return _shared_table("harmonic_table", _oracle_ratio(alpha), n, lambda m: harmonic_table(m, 1, alpha))


def _ht_terms(alpha, n: int) -> tuple[list[int], int]:
    """The oracles' lift of H_0(alpha), ..., H_m(alpha) for an m >= n: their numerators over one denominator.

    It lifts a harmonic_table of its own, not _ht's memo value, so a fault in
    the memo scales the lift once, not twice, and cannot cancel against the
    closed forms that read the memo twice.
    """
    return _shared_table("harmonic_terms", _oracle_ratio(alpha), n, lambda m: _oracle_terms(harmonic_table(m, 1, alpha), "_ht_terms"))


def _harmonic_row(n: int, alpha, sign: int) -> tuple[list[int], int]:
    """sign^k C(n,k) N_k for k = 0..n over D, with H_k(alpha) = N_k / D lifted by _ht_terms: a harmonic side's row."""
    nums, den = _ht_terms(alpha, n)
    return [sign**k * w for k, w in enumerate(_binomial_row(nums, n))], den


def _ht_sum(alpha, n: int, mu=1, lam=1) -> Fraction:
    """Direct sum_{k=0..n} C(n,k) mu^k lam^(n-k) H_k(alpha): binomial_oracle's kernel at the row _harmonic_row(n, alpha, 1), read once per run per (n, alpha)."""
    return _binomial_num(*_oracle_row("harmonic_row", _harmonic_row, n, alpha, 1), n, mu, lam)


def _seq_terms(seq) -> tuple[list[int], int]:
    """The oracles' lift of the whole of a grid sequence, once per run for this sequence object.

    The memo keeps seq, so its id stays taken while the run lasts.
    """
    return _shared(("oracle_terms", id(seq)), lambda: (seq, _oracle_terms(seq, "_seq_terms")))[1]


def _oracle_row(tag: str, build, n: int, x, *rest):
    """build(n, x, *rest), an oracle's weight row, once per run: through _shared under (tag, n, numerator, denominator of x, *rest)."""
    num, den = _oracle_ratio(x)
    return _shared((tag, n, num, den, *rest), lambda: build(n, x, *rest))


def _rand_seqs(rng: random.Random, count: int, n_max: int) -> list[tuple[Fraction, ...]]:
    return [tuple(rand_rat(rng) for _ in range(n_max + 1)) for _ in range(count)]


def _thm33_clib(n_max: int, seed: int) -> list[tuple[Fraction, ...]]:
    """The terms 0..n_max of each sequence named in THM33_SEQS; the random ones from a stream of their own."""
    named = [tuple(terms(n_max)) for _, terms in _THM33_NAMED]
    return named + _rand_seqs(_rng(seed, "thm3.3-clib"), len(THM33_SEQS) - len(named), n_max)


# Grids.  run_entry visits a grid as given, so each is built in lexicographic
# order of its cells' (name, value) pairs: the loops run over the names in
# sorted order (a < alpha < j < k < lambda < mu < n < p < pair < seq < x < z),
# and over each name's values in ascending order.  build_registry adds seq
# innermost, which keeps that order: no grid of a family entry uses x or z.  A
# grid draws its random values from the rng it is given, the entry's own
# stream, so filtering or reordering entries cannot change any row.

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


def _ratio_oracle(a, n: int, lam) -> Fraction:
    """Direct sum_{k=1..n} C(n,k) a_k / (k + lam): the row _ratio_row(n, lam) dotted with the oracles' lift of a_1..a_n."""
    return _oracle_dot(_ratio_row(n, lam), *_oracle_terms([0, *a[1 : n + 1]], "_ratio_oracle"))  # slot 0 has weight 0


def _ratio_row(n: int, lam) -> tuple[list[int], int]:
    """_ratio_oracle's row (weights, scale): a_k = nums[k] / den enters as weights[k] nums[k] over scale den.

    With lam = p/q the term is C(n,k) a_k q / (kq + p): over the lcm M of the
    kq + p, weight k is the integer C(n,k) q (M / (kq + p)), and the scale is M.
    weights[0] is 0, so a_0 never enters.  A factor kq + p that is 0, at lam = -k,
    is a pole of the sum: a DomainError.
    """
    p, q = _oracle_ratio(lam)
    lcm = math.lcm(*[k * q + p for k in range(1, n + 1)])
    if lcm == 0:
        raise DomainError(f"lambda={lam} is a pole of the sum for n={n}")
    return [0] + [binom_int(n, k) * q * (lcm // (k * q + p)) for k in range(1, n + 1)], lcm


def _ratio_side(a, n: int, lam) -> Fraction:
    """_ratio_oracle on a family sequence: its row read once per run per (n, lam), dotted with the sequence's lift."""
    return _oracle_dot(_oracle_row("ratio_row", _ratio_row, n, lam), *_seq_terms(a))


def _lemma21_side(b, n: int, lam) -> Fraction:
    """closed_forms.lemma21_lhs on a family sequence: its row read once per run per (n, lam), dotted with the sequence's lift."""
    return _oracle_dot(_oracle_row("lemma21_lhs_row", _lemma21_lhs_row, n, lam), *_seq_terms(b))


def _gould_row(n: int, j: int) -> tuple[list[int], int]:
    """The Gould sum's row: (-1)^k C(n,k) N_k over D, with N_k/D the oracles' lift of C(k,j)/k for k = 1..n after a 0 for k = 0 (the sum excludes it)."""
    nums, den = _oracle_terms([0] + [Fraction(binom_int(k, j), k) for k in range(1, n + 1)], "_gould_oracle")
    return [(-1) ** k * w for k, w in enumerate(_binomial_row(nums, n))], den


def _gould_oracle(n: int, j: int, a) -> Fraction:
    """Direct sum_{k=1..n} C(n,k) C(k,j) (-a)^k / k: binomial_oracle's kernel at the row _gould_row(n, j) and mu = a."""
    return _binomial_num(*_gould_row(n, j), n, a)


def _gould_side(n: int, j: int, a) -> Fraction:
    """_gould_oracle with its row read once per run per (n, j), for the five a of the grid."""
    return _binomial_num(*_shared(("gould_row", n, j), lambda: _gould_row(n, j)), n, a)


def _knuth_oracle(n: int, lam) -> Fraction:
    """Direct sum_{k=0..n} C(n,k) (-1)^k / (k + lam): its k = 0 term 1/lam plus the ratio sum of (-1)^k."""
    p, q = _oracle_ratio(lam)
    if p == 0:
        raise DomainError("lambda = 0 is a pole")
    return Fraction(q, p) + _ratio_oracle([(-1) ** k for k in range(n + 1)], n, lam)


def _power_weight_oracle(a, n: int, p: int, mu=1) -> Fraction:
    """Direct sum_{k=0..n} C(n,k) mu^k k^p a_k: the oracles' lift of a_0..a_n and its kernel _power_weight_num."""
    return _power_weight_num(*_oracle_terms(a[: n + 1], "_power_weight_oracle"), n, p, mu)


def _power_weight_num(nums, den: int, n: int, p: int, mu=1) -> Fraction:
    """_power_weight_oracle at a_k = nums[k] / den: binomial_oracle's kernel at the row of the integer weights k^p nums[k]."""
    return _binomial_num(_binomial_row([k**p * nums[k] for k in range(n + 1)], n), den, n, mu)


def _thm33_side(c, n: int, alpha) -> Fraction:
    """Direct sum_{k=0..n} C(n,k) (-1)^k H_k(alpha) c_k: the row _harmonic_row(n, alpha, -1), once per run per (n, alpha), dotted with the lifted c.

    With H_k(alpha) = N_k/D_H and c_k = M_k/D_c, weight k is (-1)^k C(n,k) N_k,
    and the dot is over D_H D_c.
    """
    return _oracle_dot(_oracle_row("harmonic_row", _harmonic_row, n, alpha, -1), *_seq_terms(c))


# Second definitions for the ex3.4 right sides: the identities are linear in
# the sequence, so a right side that called the generator would pass any
# multiple of it.


def _fibonacci_pair(n: int) -> tuple[int, int]:
    """(F_n, F_(n+1)) by fast doubling, F_2k = F_k (2 F_(k+1) - F_k) and F_(2k+1) = F_k^2 + F_(k+1)^2."""
    f, g = 0, 1  # F_k, F_(k+1), k = 0
    for bit in bin(n)[2:]:
        f, g = f * (2 * g - f), f * f + g * g
        if bit == "1":
            f, g = g, f + g
    return f, g


def _fibonacci_doubling(n: int) -> int:
    return _fibonacci_pair(n)[0]


def _lucas_doubling(n: int) -> int:
    """L_n = F_(n-1) + F_(n+1) = 2 F_(n+1) - F_n."""
    f, g = _fibonacci_pair(n)
    return 2 * g - f


def _bernoulli_alternating(n: int) -> Fraction:
    """(-1)^n B_n by the Akiyama-Tanigawa algorithm, in integers.

    The algorithm gives B_1 = +1/2, which is (-1)^n B_n under the B_1 = -1/2
    convention of sequences.bernoulli (odd B_n vanish past n = 1).  Its row
    starts at 1/(m+1) and each step is an integer combination of the row, so
    over L = lcm(1..n+1) every entry is an integer: seed L/(m+1).
    """
    lcm = math.lcm(*range(1, n + 2))
    row: list[int] = []
    for m in range(n + 1):
        row.append(lcm // (m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
    return Fraction(row[0], lcm)


def _laguerre_recurrence(n: int, x) -> Fraction:
    """L_n(x) by the three-term recurrence, independent of the defining sum.

    With x = p/q, M_k = k! q^k L_k(x) is an integer: M_0 = 1, M_1 = q - p and
    M_k = ((2k-1)q - p) M_(k-1) - (k-1)^2 q^2 M_(k-2), so L_n(x) = M_n / (n! q^n).
    """
    p, q = _ratio(x)
    prev, cur = 0, 1  # M_(k-1), M_k at k = 0; the step at k = 1 gives M_1 = q - p
    for k in range(1, n + 1):
        prev, cur = cur, ((2 * k - 1) * q - p) * cur - (k - 1) ** 2 * q * q * prev
    return Fraction(cur, math.factorial(n) * q**n)


# --- sides, by group -------------------------------------------------------------

def _exact_sides() -> list[IdentityEntry]:
    return [
        IdentityEntry(
            id="hockey-stick",
            anchor="sum_{m=0..n} C(x+m,m) = C(x+n+1,n)",
            params=("n", "x"),
            lhs=lambda n, x: hockey_stick_sum(x, n),
            rhs=lambda n, x: binom_rat(x + n + 1, n),
            grid=lambda n_max, rng: [
                {"x": x, "n": n} for xs in [sorted({rand_rat(rng) for _ in range(20)})] for n in range(n_max + 1) for x in xs
            ],
        )
    ]


def _ratio_sides() -> list[IdentityEntry]:
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
            lhs=_lemma21_side,
            rhs=lemma21_rhs,
            note="seq indexes the seeded random b sequences; integer lambdas in [-n,-1] are skipped",
            family=lambda n_max, seed, rng: _rand_seqs(rng, 30, n_max),
            grid=lambda n_max, rng: [{"lambda": lam, "n": n} for lam in LAMBDA_GRID for n in range(1, n_max + 1)],
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
        ones.replace(
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
            lhs=_ratio_side,
            rhs=boyadzhiev_ratio_closed,
            note="even seq indices have a_0 = 0, odd ones a_0 != 0",
            # even seq indices get a_0 = 0, so the b_0-correction path is exercised either way
            family=lambda n_max, seed, rng: [(Fraction(0), *s[1:]) if i % 2 == 0 else s for i, s in enumerate(_rand_seqs(rng, 30, n_max))],
            grid=lambda n_max, rng: [{"lambda": lam, "n": n} for lam in LAMBDA_GRID for n in range(1, n_max + 1)],
        ),
        IdentityEntry(
            id="thm2.3-lambda0",
            anchor="suce11: L=0 branch sum b_m/m - b_0 H_n",
            params=("seq", "n"),
            lhs=lambda a, n: _ratio_side(a, n, 0),
            rhs=lambda a, n: boyadzhiev_ratio_closed(a, n, 0),
            family=lambda n_max, seed, rng: _rand_seqs(rng, 10, n_max),
            grid=_n_grid,
        ),
        IdentityEntry(
            id="thm2.3-lambda1",
            anchor="suce11: L=1 case (sum_m b_m - n b_0)/(n+1)",
            params=("seq", "n"),
            lhs=lambda a, n: _ratio_side(a, n, 1),
            rhs=lambda1_case_rhs,
            family=lambda n_max, seed, rng: _rand_seqs(rng, 10, n_max),
            grid=_n_grid,
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
        skew.replace(
            id="skew-sign-convention",
            anchor="H_n^- = H_n + sum_k C(n,k)(-2)^k/k (as printed)",
            lhs=skew_harmonic,
            policy=REPORT_ONLY,
            note="resolves the sign convention empirically: this reading disagrees, the H_n(-1) reading holds",
        ),
    ]


def _gould_sides() -> list[IdentityEntry]:
    j0 = IdentityEntry(
        id="eq-eulerbnew-j0",
        anchor="eulerbnew at j=0 as printed",
        params=("n", "a"),
        lhs=lambda n, a: _gould_side(n, 0, a),
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
            lhs=_gould_side,
            rhs=gould_generalized_rhs,
            note="j >= 1 grid; ratio sums start at k = 1; 0^0 = 1 at the a = 1 edge",
            grid=lambda n_max, rng: [
                {"a": a, "j": j, "n": n} for a in GOULD_A_GRID for j in range(1, n_max + 1) for n in range(j, n_max + 1)
            ],
        ),
        j0,
        j0.replace(
            id="eq-eulerbnew-j0-corrected",
            anchor="eulerbnew at j=0 with the -H_n correction restored",
            rhs=lambda n, a, printed=j0.rhs: printed(n, a) - harmonic(n),
            policy=ASSERT,
            note="",
        ),
    ]


def _series_sides() -> list[IdentityEntry]:
    # the series of Pan's lemma with a_k = -H_k(alpha) per (L, u, alpha), built from a
    # harmonic table of its own, so that a fault in the memo scales it once, against the
    # twice of its right side's row; the genfunc right sides negate the shared harmonic tables
    def pan(lam, mu, alpha, n: int) -> list[Fraction]:
        (a, b), (c, d) = _ratio(lam), _ratio(mu)
        build = lambda m: pan_lemma_series(m, Fraction(a, b), Fraction(c, d), [-h for h in harmonic_table(m, 1, alpha)]).coeffs
        return _shared_table("pan_lemma_series", (a, b, c, d, *_ratio(alpha)), n, build)

    def genfunc(alpha, n: int) -> list[Fraction]:
        key = _ratio(alpha)
        return _shared_table("harmonic_genfunc", key, n, lambda m: harmonic_genfunc(m, Fraction(*key)).coeffs)

    return [
        IdentityEntry(
            id="panequa1-series",
            anchor="panequa1: [t^n] f(ut/(1-Lt))/(1-Lt) = sum_k C(n,k)u^k L^(n-k) a_k",
            params=("n", "lambda", "mu", "alpha"),
            lhs=lambda n, lam, mu, alpha: pan(lam, mu, alpha, n)[n],
            rhs=lambda n, lam, mu, alpha: -_ht_sum(alpha, n, mu, lam),
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
            rhs=lambda n, alpha: -_ht(alpha, n)[n],
            grid=lambda n_max, rng: [{"alpha": a, "n": n} for a in sorted({rand_rat(rng) for _ in range(10)}) for n in range(n_max + 1)],
        ),
        IdentityEntry(
            id="genfunc-harmonic",
            anchor="conclusion-1.1: log(1-t)/(1-t) = -sum H_n t^n",
            params=("n",),
            lhs=lambda n: genfunc(Fraction(1), n)[n],
            rhs=lambda n: -_ht(1, n)[n],
            grid=lambda n_max, rng: [{"alpha": Fraction(1), "n": n} for n in range(n_max + 1)],
        ),
        IdentityEntry(
            id="genfunc-skew",
            anchor="conclusion-1.2: [t^n] log(1+t)/(1-t) = H_n^- = -H_n(-1)",
            params=("n",),
            lhs=lambda n: genfunc(Fraction(-1), n)[n],
            rhs=lambda n: -_ht(-1, n)[n],
            note="the printed -H notation matches only under the H_n(-1) reading",
            grid=_n0_grid,
        ),
    ]


def _idi1_alternating() -> IdentityEntry:
    """idi1-alternating, of the Pan group; the conclusion group restates it as concl-item2."""
    alternating_oracle = lambda n: sum((binom_int(n, k) * (-1) ** k * harmonic_poly(k) for k in range(n + 1)), PolyQ())
    return IdentityEntry(
        id="idi1-alternating",
        anchor="idi1: sum_k (-1)^k C(n,k) H_k(a) = ((1-a)^n - 1)/n",
        params=("n", "alpha"),
        lhs=lambda n, alpha: _ht_sum(alpha, n, mu=-1),
        rhs=idi1_rhs,
        certify=lambda nm: certify_alpha_identity(alternating_oracle, idi1_rhs, nm),
        grid=_alpha_grid(10),
    )


def _pan_sides() -> list[IdentityEntry]:
    # the skew-harmonic weights are H_k^- = -H_k(-1); the last three right sides
    # are Pan's theorem at each display's own (mu, lam, alpha)
    return [
        IdentityEntry(
            id="pan-thm3.2",
            anchor="teorempan: sum_k C(n,k)u^k L^(n-k) H_k(a), both branches",
            params=("n", "mu", "lambda", "alpha"),
            lhs=lambda n, mu, lam, alpha: _ht_sum(alpha, n, mu, lam),
            rhs=pan_closed_form,
            note="grid includes every u+L = 0 line (second branch) and u = L = 0",
            grid=lambda n_max, rng: [
                {"mu": mu, "lambda": lam, "alpha": alpha, "n": n}
                for alpha in ALPHA_GRID for lam in MU_LAMBDA_GRID for mu in MU_LAMBDA_GRID for n in range(1, n_max + 1)
            ],
        ),
        _idi1_alternating(),
        IdentityEntry(
            id="skew-transform",
            anchor="sum_k C(n,k) H_k^- = 2^n H_n(1/2)",
            params=("n",),
            lhs=lambda n: -_ht_sum(-1, n),
            rhs=lambda n: -pan_closed_form(n, 1, 1, -1),
            grid=_n_grid,
        ),
        IdentityEntry(
            id="frontczak-variant",
            anchor="sum_k C(n,k) 2^k H_k^- = -3^n (H_n(-1/3) - H_n(1/3))",
            params=("n",),
            lhs=lambda n: -_ht_sum(-1, n, mu=2),
            rhs=lambda n: -pan_closed_form(n, 2, 1, -1),
            grid=_n_grid,
        ),
        IdentityEntry(
            id="spivey-generalization",
            anchor="sum_{k>=1} C(n,k) H_k(a) = 2^n (H_n((1+a)/2) - H_n(1/2))",
            params=("n", "alpha"),
            lhs=lambda n, alpha: _ht_sum(alpha, n),
            rhs=lambda n, alpha: pan_closed_form(n, 1, 1, alpha),
            grid=_alpha_grid(5),
        ),
    ]


def _thm33_sides() -> list[IdentityEntry]:
    eqnnew8 = IdentityEntry(
        id="thm3.3-eqnnew8",
        anchor="eqnnew8: sum_k C(n,k)(-1)^k H_k(a) c_k via d = inverse transform of c",
        params=("seq", "n", "alpha"),
        lhs=_thm33_side,
        rhs=thm33_rhs,
        note=f"promoted to ASSERT after a clean full oracle run; a and alpha are treated as one symbol; seq: {_THM33_LEGEND}",
        family=lambda n_max, seed, rng: _thm33_clib(n_max, seed),
        grid=lambda n_max, rng: [{"alpha": a, "n": n} for a in ALPHA_GRID for n in range(1, n_max + 1)],
    )
    return [
        eqnnew8,
        eqnnew8.replace(
            id="thm3.3-nabla",
            anchor="eqnnew9: same sum decomposed through weighted nabla terms",
            rhs=thm33_nabla_rhs,
            note=f"seq: {_THM33_LEGEND}",
            # the first six named sequences of eqnnew8's family
            family=lambda n_max, seed, rng: [tuple(terms(n_max)) for _, terms in _THM33_NAMED[:6]],
        ),
    ]


def _example34_sides() -> list[IdentityEntry]:
    harmonic_alt = IdentityEntry(
        id="ex3.4-harmonic-alt",
        anchor="sum_k C(n,k)(-1)^(k-1) H_k = 1/n",
        params=("n",),
        lhs=lambda n: -_ht_sum(1, n, mu=-1),
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
        harmonic_alt.replace(
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
            lhs=lambda n: binomial_oracle(n, _shared_table("bernoulli_table", (), n, bernoulli_table)),
            rhs=_bernoulli_alternating,
            note="pins the B_1 = -1/2 convention; the +1/2 convention fails at n = 1",
            grid=_n0_grid,
        ),
        IdentityEntry(
            id="ex3.4-laguerre",
            anchor="sum_k C(n,k)(-x)^k/k! = L_n(x)",
            params=("n", "x"),
            lhs=laguerre,
            rhs=_laguerre_recurrence,
            note="right side from the three-term recurrence, independent of the defining sum",
            grid=lambda n_max, rng: [{"x": x, "n": n} for n in range(n_max + 1) for x in LAGUERRE_XS],
        ),
    ]


def _sanchez_sides() -> list[IdentityEntry]:
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
            lhs=lambda a, n, p: _power_weight_num(*_seq_terms(a), n, p),
            rhs=power_weighted_rhs,
            note="cells with p > n are skipped by contract, not evaluated",
            family=lambda n_max, seed, rng: _rand_seqs(rng, 10, min(n_max, 12)),
            # p = n+1 cells exercise the validity-range skip
            grid=lambda n_max, rng: [{"n": n, "p": p} for n in range(1, min(n_max, 12) + 1) for p in range(min(n, 6) + 2)],
        )
    )
    return entries


def _asnp_sides() -> list[IdentityEntry]:
    general = IdentityEntry(
        id="as-newcoffey",
        anchor="newcoffey: sum_j C(n,j) j^p H_j(a) z^j, z != -1, via Stirling double sum",
        params=("n", "p", "z", "alpha"),
        lhs=lambda n, p, z, alpha: _power_weight_num(*_ht_terms(alpha, n), n, p, z),
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
        lhs=lambda n, p: _power_weight_num(*_ht_terms(1, n), n, p, -1),
        rhs=as_zneg1_alpha1_closed,
        note="tail weight corrected to k! S(p,k), forced by the oracle and by the surrounding derivation; see -as-printed",
        grid=lambda n_max, rng: [{"n": n, "p": p} for n in range(1, min(n_max, 15) + 1) for p in range(1, min(n, 6) + 1)],
    )
    p0 = IdentityEntry(
        id="as-p0",
        anchor="p=0 case: sum_k C(n,k) z^k H_k(a) = (1+z)^n (H_n((1+az)/(1+z)) - H_n(1/(1+z)))",
        params=("n", "z", "alpha"),
        lhs=lambda n, z, alpha: _ht_sum(alpha, n, mu=z),
        rhs=lambda n, z, alpha: pan_closed_form(n, z, 1, alpha),
        note="printed display carries a stray (-1)^k on the left; see as-p0-as-printed",
        grid=lambda n_max, rng: [
            {"z": z, "alpha": alpha, "n": n} for alpha in AS_ALPHAS for n in range(1, min(n_max, 12) + 1) for z in Z_GRID
        ],
    )
    return [
        general,
        general.replace(
            id="as-newcoff",
            anchor="newcoff: the z = -1 branch through the alternating transform values",
            note="promoted to ASSERT after a clean full oracle run; the l = n corner uses b_0 = 0 exactly, avoiding the printed 0/0",
            grid=lambda n_max, rng: [
                {"z": Fraction(-1), "alpha": alpha, "n": n, "p": p}
                for alpha in ALPHA_GRID for n in range(1, min(n_max, 15) + 1) for p in range(1, min(n, 4) + 1)
            ],
        ),
        alpha1,
        alpha1.replace(
            id="as-newcoffey1-as-printed",
            anchor="newcoffey1 with the printed tail weight k! C(n,k)",
            rhs=lambda n, p: as_zneg1_alpha1_closed(n, p, as_printed=True),
            policy=REPORT_ONLY,
            note="",
        ),
        p0,
        p0.replace(
            id="as-p0-as-printed",
            anchor="p=0 case with the printed (-1)^k kept on the left",
            lhs=lambda n, z, alpha: _ht_sum(alpha, n, mu=-z),
            policy=REPORT_ONLY,
            note="",
        ),
        IdentityEntry(
            id="as-p1-exemple1",
            anchor="exemple1: the factored p=1 expansion",
            params=("n", "z", "alpha"),
            lhs=lambda n, z, alpha: _power_weight_num(*_ht_terms(alpha, n), n, 1, z),
            rhs=as_p1_closed,
            # p = 1 is shown in the table; the sides do not read it
            grid=lambda n_max, rng: [
                {"z": z, "alpha": alpha, "n": n, "p": 1} for alpha in AS_ALPHAS for n in range(1, min(n_max, 12) + 1) for z in Z_GRID
            ],
        ),
        *(
            general.replace(
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


def _conclusion_sides() -> list[IdentityEntry]:
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
        _idi1_alternating().replace(
            id="concl-item2",
            anchor="conclusion-2: sum_k (-1)^k C(n,k) H_k(a) = ((1-a)^n - 1)/n",
            grid=_alpha_grid(5),
        ),
        item3,
        item3.replace(
            id="concl-item3-square",
            anchor="conclusion-3 with H(a)^(2) read as a square",
            rhs=lambda n, alpha: concl_item3_rhs(n, alpha, reading="square"),
            note="alternative reading of the same conjecture",
        ),
        item4,
        item4.replace(
            id="concl-item4-square",
            anchor="conclusion-4 with the squares reading",
            rhs=lambda n, alpha: concl_item4_rhs(n, alpha, reading="square"),
            note="alternative reading; also disagrees",
        ),
    ]


# The groups in ledger order, each called with no argument.
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


# entry id -> the index in _GROUPS of the group that declares it, read from the groups once
GROUP_OF = {e.id: g for g, group in enumerate(_GROUPS) for e in group()}


def declare(pattern: str = "*") -> list[IdentityEntry]:
    """The sides, params and policy of the entries whose id matches the fnmatch pattern, in ledger order, with no cells.

    Only the groups that hold a matching id are built.  The tables the sides
    share are read through the run memo, sized by the run that calls them
    (see exact), so a declaration carries no size.
    """
    # an id holds no fnmatch metacharacter, so an exact id matches only itself
    ids = {pattern} if pattern in GROUP_OF else {i for i in GROUP_OF if fnmatchcase(i, pattern)}
    return [e for g in sorted({GROUP_OF[i] for i in ids}) for e in _GROUPS[g]() if e.id in ids]


def _on_seqs(side, seqs: list[tuple]):
    """side with its first argument, a grid cell's `seq`, read as an index into seqs."""
    return lambda i, *rest: side(seqs[i], *rest)


def build_registry(n_max: int, seed: int, pattern: str = "*") -> list[IdentityEntry]:
    """The entries whose id matches the fnmatch pattern, with their grids sized by n_max and seeded by seed.

    Only the matching entries' sides (declare), grids and families are built.
    A family entry's cells are its grid with ``seq`` added innermost, over
    every sequence of its family.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    entries = declare(pattern)
    for e in entries:
        rng = _rng(seed, e.id)
        if e.family is None:
            e.cells = e.grid(n_max, rng)
        else:
            seqs = e.family(n_max, seed, rng)
            e.lhs, e.rhs = _on_seqs(e.lhs, seqs), _on_seqs(e.rhs, seqs)
            e.cells = [{**cell, "seq": i} for cell in e.grid(n_max, rng) for i in range(len(seqs))]
    return entries
