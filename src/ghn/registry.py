"""The identity catalog: every registered entry with its grid and policy.

Grids are deterministic functions of (n_max, seed); each entry draws its
random parameters from its own seeded stream so that filtering or reordering
entries cannot change any row.  ASSERT entries are expected to hold and fail
the suite if they do not; REPORT_ONLY entries record conjectures, ambiguous
readings, and source-text displays that the oracles contradict ("as printed"
rows), each with sample cells.  Where a printed display provably disagrees
with its own direct sum, the corrected identity is registered under the plain
id and the printed variant under an ``-as-printed`` suffix.
"""

from __future__ import annotations

import math
import random
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
    frontczak_rhs,
    generalized_harmonic_relation,
    gould_generalized_lhs,
    gould_generalized_rhs,
    idi1_rhs,
    knuth_flajolet_rhs,
    lambda1_case_rhs,
    lemma21_lhs,
    lemma21_rhs,
    lemma21_rhs_ones,
    pan_closed_form,
    second_case_ones_rhs,
    skew_transform_rhs,
    spivey_rhs,
    thm33_nabla_rhs,
    thm33_rhs,
)
from .errors import DomainError, OutOfValidityRangeError
from .exact import binom_int, binom_rat, hockey_stick_sum
from .polyseries import PolyQ, geometric, harmonic_poly, log_one_minus
from .sequences import (
    bernoulli,
    fibonacci,
    harmonic,
    harmonic_p,
    harmonic_table,
    laguerre,
    lucas,
    skew_harmonic,
    stirling2,
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
    IdentityEntry,
    binomial_oracle,
    certify_alpha_identity,
    pan_lemma_series,
    rand_rat,
)

LAMBDA_GRID = [
    Fraction(0),
    Fraction(1),
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(3),
    Fraction(-7, 3),
    Fraction(-2),  # excluded for n >= 2: exercises skip accounting
]
ALPHA_GRID = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-1, 3)]
MU_LAMBDA_GRID = [
    Fraction(-2),
    Fraction(-1),
    Fraction(-1, 2),
    Fraction(0),
    Fraction(1, 2),
    Fraction(1),
    Fraction(3),
]
KNUTH_LAMBDAS = [Fraction(1, 2), Fraction(1, 3), Fraction(5, 2), Fraction(-1, 2)]
Z_GRID = [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-1, 2), Fraction(-2)]
GOULD_A_GRID = [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-1, 2), Fraction(-2, 3)]


def _rng(seed: int, entry_id: str) -> random.Random:
    return random.Random(f"{seed}|{entry_id}")


def _dedup(values):
    seen = set()
    out = []
    for v in values:
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


def _ratio_oracle(a, n: int, lam) -> Fraction:
    """Direct sum_{k=1..n} C(n,k) a_k / (k + lam)."""
    lam = check_lambda_domain(lam, n)
    return binomial_oracle(n, [0] + [Fraction(a[k]) / (k + lam) for k in range(1, n + 1)])


def _knuth_oracle(n: int, lam) -> Fraction:
    lam = Fraction(lam)
    if lam == 0:
        raise DomainError("lambda = 0 is a pole")
    lam = check_lambda_domain(lam, n)
    return binomial_oracle(n, [1 / (k + lam) for k in range(n + 1)], mu=-1)


# --- polynomial certificates --------------------------------------------------

def gen_harmonic_poly_lhs(n: int) -> PolyQ:
    return harmonic_poly(n, 1)


def gen_harmonic_poly_rhs(n: int) -> PolyQ:
    """H_n + sum_k C(n,k)/k (alpha-1)^k expanded as a polynomial in alpha."""
    total = PolyQ([harmonic(n)])
    shift = PolyQ([-1, 1])
    power = PolyQ([1])
    for k in range(1, n + 1):
        power = power * shift
        total = total + Fraction(binom_int(n, k), k) * power
    return total


def idi1_poly_lhs(n: int) -> PolyQ:
    total = PolyQ()
    for k in range(n + 1):
        total = total + (binom_int(n, k) * (-1) ** k) * harmonic_poly(k, 1)
    return total


def idi1_poly_rhs(n: int) -> PolyQ:
    return (PolyQ([1, -1]) ** n - PolyQ([1])) * Fraction(1, n)


# --- entry groups --------------------------------------------------------------

def _exact_entries(n_max: int, seed: int) -> list[IdentityEntry]:
    rng = _rng(seed, "hockey-stick")
    xs = _dedup(rand_rat(rng) for _ in range(20))
    cells = [{"x": x, "n": n} for x in xs for n in range(min(n_max, 30) + 1)]
    return [
        IdentityEntry(
            id="hockey-stick",
            anchor="sum_{m=0..n} C(x+m,m) = C(x+n+1,n)",
            cells=cells,
            lhs=lambda c: hockey_stick_sum(c["x"], int(c["n"])),
            rhs=lambda c: binom_rat(c["x"] + int(c["n"]) + 1, int(c["n"])),
        )
    ]


def _ratio_entries(n_max: int, seed: int) -> list[IdentityEntry]:
    entries = []
    ones = [Fraction(1)] * (n_max + 1)
    nz_lambdas = [lam for lam in LAMBDA_GRID if lam != 0]

    rng = _rng(seed, "lemma2.1-coherence")
    seqs = [[rand_rat(rng) for _ in range(n_max + 1)] for _ in range(30)]
    cells = [
        {"seq": s, "lambda": lam, "n": n}
        for s in range(len(seqs))
        for lam in LAMBDA_GRID
        for n in range(1, n_max + 1)
    ]
    entries.append(
        IdentityEntry(
            id="lemma2.1-coherence",
            anchor="lemmaeq0: n!*sum_m b_m/(m!(L+m)..(L+n)) = branch(L)",
            cells=cells,
            lhs=lambda c, seqs=seqs: lemma21_lhs(seqs[int(c["seq"])], int(c["n"]), c["lambda"]),
            rhs=lambda c, seqs=seqs: lemma21_rhs(seqs[int(c["seq"])], int(c["n"]), c["lambda"]),
            note="seq indexes the seeded random b sequences; integer lambdas in [-n,-1] are skipped",
        )
    )

    cells = [{"n": n} for n in range(1, n_max + 1)]
    entries.append(
        IdentityEntry(
            id="lemma2.1-ones-zero",
            anchor="lemmaeq0: b=1, L=0 branch equals H_n",
            cells=cells,
            lhs=lambda c, ones=ones: lemma21_lhs(ones, int(c["n"]), 0),
            rhs=lambda c: harmonic(int(c["n"])),
        )
    )

    cells = [{"lambda": lam, "n": n} for lam in nz_lambdas for n in range(1, n_max + 1)]
    entries.append(
        IdentityEntry(
            id="lemma2.1-ones",
            anchor="lemmaeq0: b=1, L!=0 branch = (C(L+n,n)-1)/(L*C(L+n,n))",
            cells=cells,
            lhs=lambda c, ones=ones: lemma21_lhs(ones, int(c["n"]), c["lambda"]),
            rhs=lambda c: lemma21_rhs_ones(int(c["n"]), c["lambda"]),
            note="numerator corrected to C(L+n,n); the printed lower index n-1 fails the oracle (see lemma2.1-ones-as-printed)",
        )
    )
    entries.append(
        IdentityEntry(
            id="lemma2.1-ones-as-printed",
            anchor="lemmaeq0: b=1, L!=0 branch with numerator C(L+n,n-1) as printed",
            cells=list(cells),
            lhs=lambda c, ones=ones: lemma21_lhs(ones, int(c["n"]), c["lambda"]),
            rhs=lambda c: lemma21_rhs_ones(int(c["n"]), c["lambda"], as_printed=True),
            policy=REPORT_ONLY,
            note="as-printed variant; agreement only where C(L+n,n-1) happens to equal C(L+n,n)",
        )
    )

    rng = _rng(seed, "thm2.3-general")
    seqs23 = []
    for i in range(30):
        s = [rand_rat(rng) for _ in range(n_max + 1)]
        if i % 2 == 0:
            s[0] = Fraction(0)  # the b_0-correction path is exercised either way
        seqs23.append(s)
    cells = [
        {"seq": i, "lambda": lam, "n": n}
        for i in range(len(seqs23))
        for lam in LAMBDA_GRID
        for n in range(1, n_max + 1)
    ]
    entries.append(
        IdentityEntry(
            id="thm2.3-general",
            anchor="suce11: sum_k C(n,k) a_k/(k+L) = transform closed form",
            cells=cells,
            lhs=lambda c, seqs=seqs23: _ratio_oracle(seqs[int(c["seq"])], int(c["n"]), c["lambda"]),
            rhs=lambda c, seqs=seqs23: boyadzhiev_ratio_closed(seqs[int(c["seq"])], int(c["n"]), c["lambda"]),
            note="even seq indices have a_0 = 0, odd ones a_0 != 0",
        )
    )

    rng = _rng(seed, "thm2.3-lambda0")
    seqs0 = [[rand_rat(rng) for _ in range(n_max + 1)] for _ in range(10)]
    cells = [{"seq": i, "n": n} for i in range(len(seqs0)) for n in range(1, n_max + 1)]
    entries.append(
        IdentityEntry(
            id="thm2.3-lambda0",
            anchor="suce11: L=0 branch sum b_m/m - b_0 H_n",
            cells=cells,
            lhs=lambda c, seqs=seqs0: _ratio_oracle(seqs[int(c["seq"])], int(c["n"]), 0),
            rhs=lambda c, seqs=seqs0: boyadzhiev_ratio_closed(seqs[int(c["seq"])], int(c["n"]), 0),
        )
    )

    rng = _rng(seed, "thm2.3-lambda1")
    seqs1 = [[rand_rat(rng) for _ in range(n_max + 1)] for _ in range(10)]
    cells = [{"seq": i, "n": n} for i in range(len(seqs1)) for n in range(1, n_max + 1)]
    entries.append(
        IdentityEntry(
            id="thm2.3-lambda1",
            anchor="suce11: L=1 case (sum_m b_m - n b_0)/(n+1)",
            cells=cells,
            lhs=lambda c, seqs=seqs1: _ratio_oracle(seqs[int(c["seq"])], int(c["n"]), 1),
            rhs=lambda c, seqs=seqs1: lambda1_case_rhs(seqs[int(c["seq"])], int(c["n"])),
        )
    )

    cells = [{"n": n} for n in range(1, n_max + 1)]
    entries.append(
        IdentityEntry(
            id="second-case-ones",
            anchor="sum_k C(n,k)/k = sum_m 2^m/m - H_n",
            cells=cells,
            lhs=lambda c, ones=ones: _ratio_oracle(ones, int(c["n"]), 0),
            rhs=lambda c: second_case_ones_rhs(int(c["n"])),
        )
    )

    cells = [{"lambda": lam, "n": n} for lam in KNUTH_LAMBDAS for n in range(1, n_max + 1)]
    entries.append(
        IdentityEntry(
            id="knuth-flajolet",
            anchor="sum_k C(n,k)(-1)^k/(k+L) = 1/(L*C(L+n,n))",
            cells=cells,
            lhs=lambda c: _knuth_oracle(int(c["n"]), c["lambda"]),
            rhs=lambda c: knuth_flajolet_rhs(int(c["n"]), c["lambda"]),
        )
    )

    rng = _rng(seed, "gen-harmonic-relation")
    alphas = _dedup(ALPHA_GRID + [rand_rat(rng) for _ in range(20)])
    cells = [{"alpha": a, "n": n} for a in alphas for n in range(1, n_max + 1)]
    entries.append(
        IdentityEntry(
            id="gen-harmonic-relation",
            anchor="H_n(a) = H_n + sum_k C(n,k)(a-1)^k/k",
            cells=cells,
            lhs=lambda c: harmonic_p(int(c["n"]), 1, c["alpha"]),
            rhs=lambda c: generalized_harmonic_relation(int(c["n"]), c["alpha"]),
            certify=lambda nm: certify_alpha_identity(gen_harmonic_poly_lhs, gen_harmonic_poly_rhs, nm),
            poly_param="alpha",
            poly_degree=lambda n: n,
        )
    )

    cells = [{"n": n} for n in range(1, n_max + 1)]
    entries.append(
        IdentityEntry(
            id="skew-relation",
            anchor="H_n(-1) = H_n + sum_k C(n,k)(-2)^k/k",
            cells=cells,
            lhs=lambda c: harmonic_p(int(c["n"]), 1, -1),
            rhs=lambda c: generalized_harmonic_relation(int(c["n"]), -1),
            note="holds with H_n(-1) = -H_n^- on the left; the printed H_n^- reading fails (see skew-sign-convention)",
        )
    )
    entries.append(
        IdentityEntry(
            id="skew-sign-convention",
            anchor="H_n^- = H_n + sum_k C(n,k)(-2)^k/k (as printed)",
            cells=list(cells),
            lhs=lambda c: skew_harmonic(int(c["n"])),
            rhs=lambda c: generalized_harmonic_relation(int(c["n"]), -1),
            policy=REPORT_ONLY,
            note="resolves the sign convention empirically: this reading disagrees, the H_n(-1) reading holds",
        )
    )
    return entries


def _gould_entries(n_max: int, seed: int) -> list[IdentityEntry]:
    entries = []
    cells = [
        {"a": a, "j": j, "n": n}
        for a in GOULD_A_GRID
        for n in range(1, n_max + 1)
        for j in range(1, n + 1)
    ]
    entries.append(
        IdentityEntry(
            id="eq-eulerbnew",
            anchor="eulerbnew: sum_k C(n,k)C(k,j)(-a)^k/k = sum_t C(t,j)(-a)^j(1-a)^(t-j)/t",
            cells=cells,
            lhs=lambda c: gould_generalized_lhs(int(c["n"]), int(c["j"]), c["a"]),
            rhs=lambda c: gould_generalized_rhs(int(c["n"]), int(c["j"]), c["a"]),
            note="j >= 1 grid; ratio sums start at k = 1; 0^0 = 1 at the a = 1 edge",
        )
    )
    j0_cells = [{"a": a, "j": 0, "n": n} for a in GOULD_A_GRID for n in range(1, n_max + 1)]
    entries.append(
        IdentityEntry(
            id="eq-eulerbnew-j0",
            anchor="eulerbnew at j=0 as printed",
            cells=j0_cells,
            lhs=lambda c: gould_generalized_lhs(int(c["n"]), 0, c["a"]),
            rhs=lambda c: gould_generalized_rhs(int(c["n"]), 0, c["a"]),
            policy=REPORT_ONLY,
            note="at j=0 the printed display drops the -b_0*H_n correction (b_0 = 1), so the sides differ by H_n",
        )
    )
    entries.append(
        IdentityEntry(
            id="eq-eulerbnew-j0-corrected",
            anchor="eulerbnew at j=0 with the -H_n correction restored",
            cells=list(j0_cells),
            lhs=lambda c: gould_generalized_lhs(int(c["n"]), 0, c["a"]),
            rhs=lambda c: gould_generalized_rhs(int(c["n"]), 0, c["a"]) - harmonic(int(c["n"])),
        )
    )
    return entries


def _series_entries(n_max: int, seed: int) -> list[IdentityEntry]:
    entries = []
    order = n_max

    rng = _rng(seed, "panequa1-series")
    triples = [(rand_rat(rng), rand_rat(rng), rand_rat(rng)) for _ in range(10)]
    alists = []
    for lam, mu, alpha in triples:
        alists.append([-h for h in harmonic_table(order, 1, alpha)])
    cells = [
        {"pair": i, "lambda": lam, "mu": mu, "alpha": alpha, "n": n}
        for i, (lam, mu, alpha) in enumerate(triples)
        for n in range(order + 1)
    ]
    lhs_cache: dict[int, tuple] = {}

    def _pan_series_lhs(c, triples=triples, alists=alists, cache=lhs_cache, order=order):
        i = int(c["pair"])
        if i not in cache:
            lam, mu, _ = triples[i]
            cache[i] = pan_lemma_series(order, lam, mu, alists[i]).coeffs
        return cache[i][int(c["n"])]

    def _pan_series_rhs(c, triples=triples, alists=alists):
        i = int(c["pair"])
        lam, mu, _ = triples[i]
        return binomial_oracle(int(c["n"]), alists[i], mu, lam)

    entries.append(
        IdentityEntry(
            id="panequa1-series",
            anchor="panequa1: [t^n] f(ut/(1-Lt))/(1-Lt) = sum_k C(n,k)u^k L^(n-k) a_k",
            cells=cells,
            lhs=_pan_series_lhs,
            rhs=_pan_series_rhs,
            note="a_k = -H_k(alpha), the generating coefficients of log(1-alpha*t)/(1-t); seeded (L,u,alpha) triples",
        )
    )

    rng = _rng(seed, "genfunc-alpha")
    alphas = _dedup([rand_rat(rng) for _ in range(10)])
    series_cache: dict[Fraction, tuple] = {}

    def _genfunc_coeff(alpha, n, cache=series_cache, order=order):
        if alpha not in cache:
            cache[alpha] = (log_one_minus(alpha, order) * geometric(1, order)).coeffs
        return cache[alpha][n]

    cells = [{"alpha": a, "n": n} for a in alphas for n in range(order + 1)]
    entries.append(
        IdentityEntry(
            id="genfunc-alpha",
            anchor="conclusion-1: log(1-a*t)/(1-t) = -sum H_n(a) t^n",
            cells=cells,
            lhs=lambda c: _genfunc_coeff(c["alpha"], int(c["n"])),
            rhs=lambda c: -harmonic_p(int(c["n"]), 1, c["alpha"]),
        )
    )
    cells = [{"alpha": Fraction(1), "n": n} for n in range(order + 1)]
    entries.append(
        IdentityEntry(
            id="genfunc-harmonic",
            anchor="conclusion-1.1: log(1-t)/(1-t) = -sum H_n t^n",
            cells=cells,
            lhs=lambda c: _genfunc_coeff(c["alpha"], int(c["n"])),
            rhs=lambda c: -harmonic(int(c["n"])),
        )
    )

    cells = [{"n": n} for n in range(order + 1)]
    entries.append(
        IdentityEntry(
            id="genfunc-skew",
            anchor="conclusion-1.2: [t^n] log(1+t)/(1-t) = H_n^- = -H_n(-1)",
            cells=cells,
            lhs=lambda c: _genfunc_coeff(Fraction(-1), int(c["n"])),
            rhs=lambda c: skew_harmonic(int(c["n"])),
            note="the printed -H notation matches only under the H_n(-1) reading",
        )
    )
    return entries


def _pan_entries(n_max: int, seed: int) -> list[IdentityEntry]:
    entries = []
    htab = {alpha: harmonic_table(n_max, 1, alpha) for alpha in ALPHA_GRID}
    cells = [
        {"mu": mu, "lambda": lam, "alpha": alpha, "n": n}
        for mu in MU_LAMBDA_GRID
        for lam in MU_LAMBDA_GRID
        for alpha in ALPHA_GRID
        for n in range(1, n_max + 1)
    ]
    entries.append(
        IdentityEntry(
            id="pan-thm3.2",
            anchor="teorempan: sum_k C(n,k)u^k L^(n-k) H_k(a), both branches",
            cells=cells,
            lhs=lambda c, htab=htab: binomial_oracle(int(c["n"]), htab[c["alpha"]], c["mu"], c["lambda"]),
            rhs=lambda c: pan_closed_form(int(c["n"]), c["mu"], c["lambda"], c["alpha"]),
            note="grid includes every u+L = 0 line (second branch) and u = L = 0",
        )
    )

    rng = _rng(seed, "idi1-alternating")
    alphas = _dedup(ALPHA_GRID + [rand_rat(rng) for _ in range(10)])
    itab = {alpha: harmonic_table(n_max, 1, alpha) for alpha in alphas}
    cells = [{"alpha": a, "n": n} for a in alphas for n in range(1, n_max + 1)]
    entries.append(
        IdentityEntry(
            id="idi1-alternating",
            anchor="idi1: sum_k (-1)^k C(n,k) H_k(a) = ((1-a)^n - 1)/n",
            cells=cells,
            lhs=lambda c, itab=itab: binomial_oracle(int(c["n"]), itab[c["alpha"]], mu=-1),
            rhs=lambda c: idi1_rhs(int(c["n"]), c["alpha"]),
            certify=lambda nm: certify_alpha_identity(idi1_poly_lhs, idi1_poly_rhs, nm),
            poly_param="alpha",
            poly_degree=lambda n: n,
        )
    )

    stab = [skew_harmonic(k) for k in range(n_max + 1)]
    cells = [{"n": n} for n in range(1, n_max + 1)]
    entries.append(
        IdentityEntry(
            id="skew-transform",
            anchor="sum_k C(n,k) H_k^- = 2^n H_n(1/2)",
            cells=cells,
            lhs=lambda c, stab=stab: binomial_oracle(int(c["n"]), stab),
            rhs=lambda c: skew_transform_rhs(int(c["n"])),
        )
    )
    entries.append(
        IdentityEntry(
            id="frontczak-variant",
            anchor="sum_k C(n,k) 2^k H_k^- = -3^n (H_n(-1/3) - H_n(1/3))",
            cells=list(cells),
            lhs=lambda c, stab=stab: binomial_oracle(int(c["n"]), stab, mu=2),
            rhs=lambda c: frontczak_rhs(int(c["n"])),
        )
    )

    rng = _rng(seed, "spivey-generalization")
    alphas = _dedup(ALPHA_GRID + [rand_rat(rng) for _ in range(5)])
    sptab = {alpha: harmonic_table(n_max, 1, alpha) for alpha in alphas}
    cells = [{"alpha": a, "n": n} for a in alphas for n in range(1, n_max + 1)]
    entries.append(
        IdentityEntry(
            id="spivey-generalization",
            anchor="sum_{k>=1} C(n,k) H_k(a) = 2^n (H_n((1+a)/2) - H_n(1/2))",
            cells=cells,
            lhs=lambda c, sptab=sptab: binomial_oracle(int(c["n"]), sptab[c["alpha"]]),
            rhs=lambda c: spivey_rhs(int(c["n"]), c["alpha"]),
        )
    )
    return entries


def _thm33_clib(n_max: int, seed: int) -> tuple[list[str], list[list[Fraction]]]:
    htab = harmonic_table(n_max, 1, 1)
    names = [
        "ones",
        "identity",
        "squares",
        "fib",
        "fib2",
        "lucas",
        "lucas2",
        "bernoulli-alt",
        "laguerre-half",
        "harm-alt",
    ]
    seqs = [
        [Fraction(1)] * (n_max + 1),
        [Fraction(k) for k in range(n_max + 1)],
        [Fraction(k * k) for k in range(n_max + 1)],
        [Fraction(fibonacci(k)) for k in range(n_max + 1)],
        [Fraction(fibonacci(2 * k)) for k in range(n_max + 1)],
        [Fraction(lucas(k)) for k in range(n_max + 1)],
        [Fraction(lucas(2 * k)) for k in range(n_max + 1)],
        [(-1) ** k * bernoulli(k) for k in range(n_max + 1)],
        [laguerre(k, Fraction(1, 2)) for k in range(n_max + 1)],
        [-((-1) ** k) * htab[k] for k in range(n_max + 1)],
    ]
    rng = _rng(seed, "thm3.3-clib")
    for i in range(3):
        names.append(f"random-{i}")
        seqs.append([rand_rat(rng) for _ in range(n_max + 1)])
    return names, seqs


def _thm33_entries(n_max: int, seed: int) -> list[IdentityEntry]:
    entries = []
    names, seqs = _thm33_clib(n_max, seed)
    atab = {alpha: harmonic_table(n_max, 1, alpha) for alpha in ALPHA_GRID}
    # oracle weights H_k(alpha) c_k, one table per (seq, alpha) pair
    wtab = {
        (i, alpha): [h * ck for h, ck in zip(hs, cs)]
        for i, cs in enumerate(seqs)
        for alpha, hs in atab.items()
    }
    legend = ", ".join(f"{i}={name}" for i, name in enumerate(names))

    def _oracle(c, wtab=wtab):
        return binomial_oracle(int(c["n"]), wtab[int(c["seq"]), c["alpha"]], mu=-1)

    cells = [
        {"seq": i, "alpha": alpha, "n": n}
        for i in range(len(seqs))
        for alpha in ALPHA_GRID
        for n in range(1, n_max + 1)
    ]
    entries.append(
        IdentityEntry(
            id="thm3.3-eqnnew8",
            anchor="eqnnew8: sum_k C(n,k)(-1)^k H_k(a) c_k via d = inverse transform of c",
            cells=cells,
            lhs=_oracle,
            rhs=lambda c, seqs=seqs: thm33_rhs(seqs[int(c["seq"])], int(c["n"]), c["alpha"]),
            note=f"promoted to ASSERT after a clean full oracle run; a and alpha are treated as one symbol; seq: {legend}",
        )
    )

    nabla_cells = [
        {"seq": i, "alpha": alpha, "n": n}
        for i in range(6)
        for alpha in ALPHA_GRID
        for n in range(1, n_max + 1)
    ]
    entries.append(
        IdentityEntry(
            id="thm3.3-nabla",
            anchor="eqnnew9: same sum decomposed through weighted nabla terms",
            cells=nabla_cells,
            lhs=_oracle,
            rhs=lambda c, seqs=seqs: thm33_nabla_rhs(seqs[int(c["seq"])], int(c["n"]), c["alpha"]),
            note=f"seq: {legend}",
        )
    )
    return entries


def _example34_entries(n_max: int, seed: int) -> list[IdentityEntry]:
    entries = []
    htab = harmonic_table(n_max, 1, 1)
    cells_n0 = [{"n": n} for n in range(n_max + 1)]
    cells_n1 = [{"n": n} for n in range(1, n_max + 1)]

    cells = [{"p": p, "n": n} for p in range(9) for n in range(n_max + 1)]
    entries.append(
        IdentityEntry(
            id="ex3.4-stirling-power",
            anchor="sum_k C(n,k) k! S(p,k) = n^p",
            cells=cells,
            lhs=lambda c: binomial_oracle(
                int(c["n"]), [math.factorial(k) * stirling2(int(c["p"]), k) for k in range(int(c["n"]) + 1)]
            ),
            rhs=lambda c: Fraction(int(c["n"]) ** int(c["p"])),
            note="integer exponents only; the complex-exponent form of this pair is out of scope",
        )
    )

    entries.append(
        IdentityEntry(
            id="ex3.4-harmonic-alt",
            anchor="sum_k C(n,k)(-1)^(k-1) H_k = 1/n",
            cells=cells_n1,
            lhs=lambda c, htab=htab: -binomial_oracle(int(c["n"]), htab, mu=-1),
            rhs=lambda c: Fraction(1, int(c["n"])),
            note="printed transform value (-1)^(n-1)/n holds only at odd n; see ex3.4-harmonic-alt-as-printed",
        )
    )
    entries.append(
        IdentityEntry(
            id="ex3.4-harmonic-alt-as-printed",
            anchor="sum_k C(n,k)(-1)^(k-1) H_k = (-1)^(n-1)/n (as printed)",
            cells=list(cells_n1),
            lhs=lambda c, htab=htab: -binomial_oracle(int(c["n"]), htab, mu=-1),
            rhs=lambda c: Fraction((-1) ** (int(c["n"]) - 1), int(c["n"])),
            policy=REPORT_ONLY,
        )
    )

    fib = [Fraction(fibonacci(k)) for k in range(n_max + 1)]
    luc = [Fraction(lucas(k)) for k in range(n_max + 1)]
    entries.append(
        IdentityEntry(
            id="ex3.4-fibonacci",
            anchor="sum_k C(n,k) F_k = F_2n",
            cells=cells_n0,
            lhs=lambda c, fib=fib: binomial_oracle(int(c["n"]), fib),
            rhs=lambda c: Fraction(fibonacci(2 * int(c["n"]))),
        )
    )
    entries.append(
        IdentityEntry(
            id="ex3.4-fibonacci-alt",
            anchor="sum_k C(n,k)(-1)^(k-1) F_k = F_n",
            cells=list(cells_n0),
            lhs=lambda c, fib=fib: -binomial_oracle(int(c["n"]), fib, mu=-1),
            rhs=lambda c: Fraction(fibonacci(int(c["n"]))),
        )
    )
    entries.append(
        IdentityEntry(
            id="ex3.4-lucas",
            anchor="sum_k C(n,k) L_k = L_2n",
            cells=list(cells_n0),
            lhs=lambda c, luc=luc: binomial_oracle(int(c["n"]), luc),
            rhs=lambda c: Fraction(lucas(2 * int(c["n"]))),
        )
    )
    entries.append(
        IdentityEntry(
            id="ex3.4-lucas-alt",
            anchor="sum_k C(n,k)(-1)^k L_k = L_n",
            cells=list(cells_n0),
            lhs=lambda c, luc=luc: binomial_oracle(int(c["n"]), luc, mu=-1),
            rhs=lambda c: Fraction(lucas(int(c["n"]))),
        )
    )

    bern = [bernoulli(k) for k in range(n_max + 1)]
    entries.append(
        IdentityEntry(
            id="ex3.4-bernoulli",
            anchor="sum_k C(n,k) B_k = (-1)^n B_n",
            cells=list(cells_n0),
            lhs=lambda c, bern=bern: binomial_oracle(int(c["n"]), bern),
            rhs=lambda c, bern=bern: (-1) ** int(c["n"]) * bern[int(c["n"])],
            note="pins the B_1 = -1/2 convention; the +1/2 convention fails at n = 1",
        )
    )

    xs = [Fraction(1), Fraction(1, 2), Fraction(-2, 3), Fraction(3)]
    rec: dict[Fraction, list[Fraction]] = {}
    for x in xs:
        vals = [Fraction(1), 1 - x]
        for n in range(2, n_max + 1):
            vals.append(((2 * n - 1 - x) * vals[n - 1] - (n - 1) * vals[n - 2]) / n)
        rec[x] = vals
    cells = [{"x": x, "n": n} for x in xs for n in range(n_max + 1)]
    entries.append(
        IdentityEntry(
            id="ex3.4-laguerre",
            anchor="sum_k C(n,k)(-x)^k/k! = L_n(x)",
            cells=cells,
            lhs=lambda c: laguerre(int(c["n"]), c["x"]),
            rhs=lambda c, rec=rec: rec[c["x"]][int(c["n"])],
            note="right side from the three-term recurrence, independent of the defining sum",
        )
    )
    return entries


def _sanchez_entries(n_max: int, seed: int) -> list[IdentityEntry]:
    entries = []
    top = min(n_max, 15)
    cells = [
        {"n": n, "k": k, "p": p}
        for n in range(top + 1)
        for k in range(n + 1)
        for p in range(7)
    ]
    entries.append(
        IdentityEntry(
            id="sanchez-weight",
            anchor="sanchezlemma: C(n,k) k^p as the signed Stirling double sum",
            cells=cells,
            lhs=lambda c: Fraction(binom_int(int(c["n"]), int(c["k"])) * int(c["k"]) ** int(c["p"])),
            rhs=lambda c: Fraction(sanchez_weight(int(c["n"]), int(c["k"]), int(c["p"]))),
            note="uses the C(n-l,k), C(n-l,j-l) index reading; the printed C(n-1,*) occurrences fail the p=1..3 examples",
        )
    )
    top12 = min(n_max, 12)
    pair_cells = [{"n": n, "k": k} for n in range(top12 + 1) for k in range(n + 1)]
    for p, fn in ((1, sanchez_weight_p1), (2, sanchez_weight_p2), (3, sanchez_weight_p3)):
        entries.append(
            IdentityEntry(
                id=f"sanchez-p{p}",
                anchor=f"exsanchez: printed p={p} shifted-binomial specialization",
                cells=list(pair_cells),
                lhs=lambda c, p=p: Fraction(binom_int(int(c["n"]), int(c["k"])) * int(c["k"]) ** p),
                rhs=lambda c, fn=fn: Fraction(fn(int(c["n"]), int(c["k"]))),
            )
        )

    rng = _rng(seed, "sanchez-transform")
    seqs = [[rand_rat(rng) for _ in range(top12 + 1)] for _ in range(10)]
    tf = [binomial_transform(s) for s in seqs]
    cells = [
        {"seq": i, "n": n, "p": p}
        for i in range(len(seqs))
        for n in range(1, top12 + 1)
        for p in range(min(n, 6) + 2)  # p = n+1 cells exercise the validity-range skip
    ]
    entries.append(
        IdentityEntry(
            id="sanchez-transform",
            anchor="sanchez: sum_k C(n,k) k^p a_k from the plain transform of a",
            cells=cells,
            lhs=lambda c, seqs=seqs: _power_weight_oracle(seqs[int(c["seq"])], int(c["n"]), int(c["p"])),
            rhs=lambda c, tf=tf: sanchez_transform(tf[int(c["seq"])], int(c["n"]), int(c["p"])),
            note="cells with p > n are skipped by contract, not evaluated",
        )
    )
    return entries


def _power_weight_oracle(a, n: int, p: int) -> Fraction:
    if p > n:
        # mirrors the formula's declared validity range so the cell is skipped
        raise OutOfValidityRangeError("p > n")
    return binomial_oracle(n, [k**p * Fraction(a[k]) for k in range(n + 1)])


def _asnp_entries(n_max: int, seed: int) -> list[IdentityEntry]:
    entries = []
    top = min(n_max, 12)
    alphas4 = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)]
    # the p=2,3 display rows keep their smallest legal n even when n_max < p
    tabs = {alpha: harmonic_table(max(n_max, 3), 1, alpha) for alpha in ALPHA_GRID}

    def _as_oracle(c, tabs=tabs):
        n, p = int(c["n"]), int(c["p"])
        hs = tabs[c["alpha"]]
        return binomial_oracle(n, [j**p * hs[j] for j in range(n + 1)], mu=c["z"])

    cells = [
        {"z": z, "alpha": alpha, "n": n, "p": p}
        for z in Z_GRID
        for alpha in alphas4
        for n in range(1, top + 1)
        for p in range(1, min(n, 4) + 1)
    ]
    entries.append(
        IdentityEntry(
            id="as-newcoffey",
            anchor="newcoffey: sum_j C(n,j) j^p H_j(a) z^j, z != -1, via Stirling double sum",
            cells=cells,
            lhs=_as_oracle,
            rhs=lambda c: as_np_closed(int(c["n"]), int(c["p"]), c["z"], c["alpha"]),
        )
    )

    top15 = min(n_max, 15)
    cells = [
        {"z": Fraction(-1), "alpha": alpha, "n": n, "p": p}
        for alpha in ALPHA_GRID
        for n in range(1, top15 + 1)
        for p in range(1, min(n, 4) + 1)
    ]
    entries.append(
        IdentityEntry(
            id="as-newcoff",
            anchor="newcoff: the z = -1 branch through the alternating transform values",
            cells=cells,
            lhs=_as_oracle,
            rhs=lambda c: as_np_closed(int(c["n"]), int(c["p"]), -1, c["alpha"]),
            note="promoted to ASSERT after a clean full oracle run; the l = n corner uses b_0 = 0 exactly, avoiding the printed 0/0",
        )
    )

    cells = [
        {"n": n, "p": p} for n in range(1, top15 + 1) for p in range(1, min(n, 6) + 1)
    ]
    entries.append(
        IdentityEntry(
            id="as-newcoffey1",
            anchor="newcoffey1: z=-1, a=1 case with weights k! S(p,k)",
            cells=cells,
            lhs=lambda c: _as_oracle({**c, "z": Fraction(-1), "alpha": Fraction(1)}),
            rhs=lambda c: as_zneg1_alpha1_closed(int(c["n"]), int(c["p"])),
            note="tail weight corrected to k! S(p,k), forced by the oracle and by the surrounding derivation; see -as-printed",
        )
    )
    entries.append(
        IdentityEntry(
            id="as-newcoffey1-as-printed",
            anchor="newcoffey1 with the printed tail weight k! C(n,k)",
            cells=list(cells),
            lhs=lambda c: _as_oracle({**c, "z": Fraction(-1), "alpha": Fraction(1)}),
            rhs=lambda c: as_zneg1_alpha1_closed(int(c["n"]), int(c["p"]), as_printed=True),
            policy=REPORT_ONLY,
        )
    )

    p0_cells = [
        {"z": z, "alpha": alpha, "n": n}
        for z in Z_GRID
        for alpha in alphas4
        for n in range(1, top + 1)
    ]

    entries.append(
        IdentityEntry(
            id="as-p0",
            anchor="p=0 case: sum_k C(n,k) z^k H_k(a) = (1+z)^n (H_n((1+az)/(1+z)) - H_n(1/(1+z)))",
            cells=p0_cells,
            lhs=lambda c, tabs=tabs: binomial_oracle(int(c["n"]), tabs[c["alpha"]], mu=c["z"]),
            rhs=lambda c: pan_closed_form(int(c["n"]), c["z"], 1, c["alpha"]),
            note="printed display carries a stray (-1)^k on the left; see as-p0-as-printed",
        )
    )
    entries.append(
        IdentityEntry(
            id="as-p0-as-printed",
            anchor="p=0 case with the printed (-1)^k kept on the left",
            cells=list(p0_cells),
            lhs=lambda c, tabs=tabs: binomial_oracle(int(c["n"]), tabs[c["alpha"]], mu=-c["z"]),
            rhs=lambda c: pan_closed_form(int(c["n"]), c["z"], 1, c["alpha"]),
            policy=REPORT_ONLY,
        )
    )

    cells = [
        {"z": z, "alpha": alpha, "n": n, "p": 1}
        for z in Z_GRID
        for alpha in alphas4
        for n in range(1, top + 1)
    ]
    entries.append(
        IdentityEntry(
            id="as-p1-exemple1",
            anchor="exemple1: the factored p=1 expansion",
            cells=cells,
            lhs=_as_oracle,
            rhs=lambda c: as_p1_closed(int(c["n"]), c["z"], c["alpha"]),
        )
    )

    for p in (2, 3):
        cells = [
            {"z": z, "alpha": alpha, "n": n, "p": p}
            for z in (Fraction(1), Fraction(1, 2))
            for alpha in (Fraction(1), Fraction(2))
            for n in range(p, max(min(n_max, 10), p) + 1)
        ]
        entries.append(
            IdentityEntry(
                id=f"as-p{p}-display",
                anchor=f"p={p} display expansion",
                cells=cells,
                lhs=_as_oracle,
                rhs=lambda c: as_np_closed(int(c["n"]), int(c["p"]), c["z"], c["alpha"]),
                policy=REPORT_ONLY,
                note=(
                    "UNIMPLEMENTED-AS-PRINTED: the display has unbalanced parentheses and an "
                    "undefined symbol; cells compare the general closed form instead"
                ),
            )
        )
    return entries


def _conclusion_entries(n_max: int, seed: int) -> list[IdentityEntry]:
    entries = []
    rng = _rng(seed, "concl-item2")
    alphas = _dedup(ALPHA_GRID + [rand_rat(rng) for _ in range(5)])
    itab = {alpha: harmonic_table(n_max, 1, alpha) for alpha in alphas}
    cells = [{"alpha": a, "n": n} for a in alphas for n in range(1, n_max + 1)]
    entries.append(
        IdentityEntry(
            id="concl-item2",
            anchor="conclusion-2: sum_k (-1)^k C(n,k) H_k(a) = ((1-a)^n - 1)/n",
            cells=cells,
            lhs=lambda c, itab=itab: binomial_oracle(int(c["n"]), itab[c["alpha"]], mu=-1),
            rhs=lambda c: idi1_rhs(int(c["n"]), c["alpha"]),
            certify=lambda nm: certify_alpha_identity(idi1_poly_lhs, idi1_poly_rhs, nm),
            poly_param="alpha",
            poly_degree=lambda n: n,
        )
    )

    top = min(n_max, 20)
    grid = [{"alpha": a, "n": n} for a in ALPHA_GRID for n in range(1, top + 1)]
    entries.append(
        IdentityEntry(
            id="concl-item3",
            anchor="conclusion-3: sum_k H_k(a)/k vs product form, H(a)^(2) read as the weight-2 sum",
            cells=list(grid),
            lhs=lambda c: concl_item3_lhs(int(c["n"]), c["alpha"]),
            rhs=lambda c: concl_item3_rhs(int(c["n"]), c["alpha"]),
            policy=REPORT_ONLY,
            note="question-marked in the source; registered as a conjecture, never asserted",
        )
    )
    entries.append(
        IdentityEntry(
            id="concl-item3-square",
            anchor="conclusion-3 with H(a)^(2) read as a square",
            cells=list(grid),
            lhs=lambda c: concl_item3_lhs(int(c["n"]), c["alpha"]),
            rhs=lambda c: concl_item3_rhs(int(c["n"]), c["alpha"], reading="square"),
            policy=REPORT_ONLY,
            note="alternative reading of the same conjecture",
        )
    )
    entries.append(
        IdentityEntry(
            id="concl-item4",
            anchor="conclusion-4: sum_k (-1)^k H_k(a)/k vs H^(2)(1-a) - H^(2)(1)",
            cells=list(grid),
            lhs=lambda c: concl_item4_lhs(int(c["n"]), c["alpha"]),
            rhs=lambda c: concl_item4_rhs(int(c["n"]), c["alpha"]),
            policy=REPORT_ONLY,
            note="weight-2 reading; disagrees beyond n = 1, counterexamples recorded",
        )
    )
    entries.append(
        IdentityEntry(
            id="concl-item4-square",
            anchor="conclusion-4 with the squares reading",
            cells=list(grid),
            lhs=lambda c: concl_item4_lhs(int(c["n"]), c["alpha"]),
            rhs=lambda c: concl_item4_rhs(int(c["n"]), c["alpha"], reading="square"),
            policy=REPORT_ONLY,
            note="alternative reading; also disagrees",
        )
    )
    return entries


def build_registry(n_max: int, seed: int) -> list[IdentityEntry]:
    """All registered entries with grids sized by n_max and seeded randomness."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    entries: list[IdentityEntry] = []
    entries += _exact_entries(n_max, seed)
    entries += _ratio_entries(n_max, seed)
    entries += _gould_entries(n_max, seed)
    entries += _series_entries(n_max, seed)
    entries += _pan_entries(n_max, seed)
    entries += _thm33_entries(n_max, seed)
    entries += _example34_entries(n_max, seed)
    entries += _sanchez_entries(n_max, seed)
    entries += _asnp_entries(n_max, seed)
    entries += _conclusion_entries(n_max, seed)
    ids = [e.id for e in entries]
    if len(ids) != len(set(ids)):
        raise RuntimeError("duplicate registry ids")
    return entries
