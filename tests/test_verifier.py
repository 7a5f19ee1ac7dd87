import ast
import inspect
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ghn.errors import DomainError, OutOfValidityRangeError
from ghn.exact import shared_run
from ghn.polyseries import PolyQ, harmonic_poly
from ghn.registry import THM33_SEQS, _thm33_clib, build_registry
from ghn.sequences import bernoulli, fibonacci, harmonic, laguerre, lucas
from ghn.verifier import (
    ASSERT,
    CERTIFY_N,
    HOLDS_ON_GRID,
    REPORT_ONLY,
    SAMPLE_CAP,
    IdentityEntry,
    binomial_oracle,
    certify_alpha_identity,
    rand_rat,
    run_entry,
    run_suite,
)




def test_binomial_oracle_examples():
    mu, lam = Fraction(2, 3), Fraction(-1, 5)
    for n in range(6):
        assert binomial_oracle(n, [1] * (n + 1), mu, lam) == (mu + lam) ** n
    assert binomial_oracle(3, [0, 1, 2, 3]) == 12  # sum_k C(3,k) k = 3 * 2^2
    assert binomial_oracle(4, [1] * 5, mu=-1) == 0


def test_binomial_oracle_takes_only_ints_and_fractions():
    # a float weight gives no float sum, and a polynomial weight is summed by its caller
    for weight in (0.5, PolyQ([0, 1]), "1/2"):
        with pytest.raises(TypeError):
            binomial_oracle(2, [weight, 1, 1])
    assert binomial_oracle(2, [Fraction(1, 2), 1, True]) == Fraction(7, 2)


@pytest.mark.parametrize(
    "name",
    [
        "common_denominator",
        "lemma21_lhs",
        "lemma21_rhs",
        "boyadzhiev_ratio_closed",
        "thm33_rhs",
        "thm33_nabla_rhs",
        "_ratio_oracle",
        "binomial_oracle",
        "_power_weight_oracle",
        "sanchez_transform",
    ],
)
def test_a_float_term_is_a_type_error(name):
    # one error type for one mistake, whether an oracle or a closed form lifts the terms
    from ghn import closed_forms, exact, registry, transforms

    a = [Fraction(1), 0.5, Fraction(2, 3), 3]
    lam, alpha = Fraction(1, 2), Fraction(2)
    calls = {
        "common_denominator": lambda: exact.common_denominator(a),
        "lemma21_lhs": lambda: closed_forms.lemma21_lhs(a, 3, lam),
        "lemma21_rhs": lambda: closed_forms.lemma21_rhs(a, 3, lam),
        "boyadzhiev_ratio_closed": lambda: closed_forms.boyadzhiev_ratio_closed(a, 3, lam),
        "thm33_rhs": lambda: closed_forms.thm33_rhs(a, 3, alpha),
        "thm33_nabla_rhs": lambda: closed_forms.thm33_nabla_rhs(a, 3, alpha),
        "_ratio_oracle": lambda: registry._ratio_oracle(a, 3, lam),
        "binomial_oracle": lambda: binomial_oracle(3, a),
        "_power_weight_oracle": lambda: registry._power_weight_oracle(a, 3, 2),
        "sanchez_transform": lambda: transforms.sanchez_transform(a, 3, 2),
    }
    with pytest.raises(TypeError, match="int and Fraction"):
        calls[name]()


def test_faulty_harmonic_kernel_fails_genfunc(monkeypatch):
    # the genfunc entries check the shared running harmonic sum against series
    # coefficients that never call it, so an off-by-one in it cannot hide; the
    # registry's own binding feeds the harmonic memo that their right sides negate
    import ghn.registry as registry_mod
    import ghn.sequences as sequences_mod

    real = sequences_mod.harmonic_table
    faulty = lambda n_max, p, alpha: real(n_max + 1, p, alpha)[1:]
    monkeypatch.setattr(sequences_mod, "harmonic_table", faulty)
    monkeypatch.setattr(registry_mod, "harmonic_table", faulty)
    report = run_suite("genfunc-*", 8, 42)
    assert [r.tier for r in report.results] == ["FAILS"] * 3


def _toy_entry(policy=ASSERT, offset=0):
    cells = [{"n": n} for n in range(1, 6)]
    return IdentityEntry(
        id="toy",
        anchor="toy",
        params=("n",),
        cells=cells,
        lhs=lambda n: Fraction(n**2),
        rhs=lambda n: Fraction(n**2 + offset),
        policy=policy,
    )


def test_run_entry_holds():
    res = run_entry(_toy_entry())
    assert res.tier == "HOLDS_ON_GRID"
    assert res.cells == 5
    assert res.skipped == 0
    assert res.counterexamples == []


def test_run_entry_fault_injection():
    res = run_entry(_toy_entry(offset=1))
    assert res.tier == "FAILS"
    assert len(res.counterexamples) == 1
    # the first failing cell in the order the grid lists its cells
    assert res.counterexamples[0]["params"] == {"n": "1"}
    assert res.counterexamples[0]["lhs"] == "1"
    assert res.counterexamples[0]["rhs"] == "2"


def test_run_entry_visits_cells_in_the_order_given():
    faulty = {2, 4}
    seen = []
    entry = IdentityEntry(
        id="descending",
        anchor="descending",
        params=("n",),
        cells=[{"n": n} for n in range(5, 0, -1)],
        lhs=lambda n: Fraction(n),
        rhs=lambda n: Fraction(n + (n in faulty)),
    )
    res = run_entry(entry, on_cell=lambda cell, lv, rv: seen.append(cell["n"]))
    assert res.tier == "FAILS"
    assert [c["params"] for c in res.counterexamples] == [{"n": "4"}]
    assert seen == [5, 4]


@pytest.mark.parametrize("entry_id", ["skew-transform", "as-newcoffey"])
def test_run_entry_calls_the_sides_the_entry_holds_when_it_starts(entry_id):
    # a side replaced after build_registry, as the bench tracer wraps them, is the side
    # that runs, and it takes the values of entry.params in that order, for one name or several
    entry = next(e for e in build_registry(6, 42) if e.id == entry_id)
    real, calls = entry.lhs, []

    def recording(*args):
        calls.append(args)
        return real(*args)

    entry.lhs = recording
    assert run_entry(entry).tier == HOLDS_ON_GRID
    assert calls == [tuple(cell[name] for name in entry.params) for cell in entry.cells]
    entry.lhs = lambda *args: real(*args) + 1
    assert run_entry(entry).tier == "FAILS"


@pytest.mark.parametrize("params", [(), ("b",), ("b", "a"), ("c", "a", "b")])
def test_run_entry_passes_the_params_in_their_order(params):
    # the cells list their names in another order, and carry a display-only name besides
    cells = [{"a": n, "b": 10 * n, "c": 100 * n, "shown": -n} for n in range(1, 4)]
    calls = []
    side = lambda *args: calls.append(args) or Fraction(0)
    entry = IdentityEntry(id="order", anchor="order", lhs=side, rhs=side, params=params, cells=cells)
    assert run_entry(entry).tier == HOLDS_ON_GRID
    assert calls == [tuple(cell[name] for name in params) for cell in cells for _ in "lr"]


def test_identity_entry_fields_and_replace():
    side = lambda n: Fraction(n)
    entry = IdentityEntry("toy", "toy anchor", side, side)  # positional, in declaration order
    assert vars(entry) == {
        "id": "toy", "anchor": "toy anchor", "lhs": side, "rhs": side, "params": (), "cells": (),
        "policy": ASSERT, "note": "", "certify": None, "grid": None, "family": None,
    }
    with pytest.raises(TypeError):
        IdentityEntry(id="x", anchor="x", lhs=side, rhs=side, bogus=1)
    with pytest.raises(TypeError):
        IdentityEntry(id="x", anchor="x", lhs=side)
    original = _toy_entry()
    before = dict(vars(original))
    variant = original.replace(id="toy-variant")
    assert variant is not original and variant.id == "toy-variant"
    assert {**vars(variant), "id": "toy"} == before and vars(original) == before
    with pytest.raises(TypeError):
        original.replace(bogus=1)
    assert vars(original) == before


def test_result_and_report_fields():
    from ghn.verifier import EntryResult, VerdictReport

    result = EntryResult("toy", "toy anchor", HOLDS_ON_GRID, 5, 0, [], "", 0.5)
    assert (result.id, result.tier, result.cells, result.seconds, result.certify_seconds) == ("toy", HOLDS_ON_GRID, 5, 0.5, 0.0)
    with pytest.raises(TypeError):
        EntryResult("toy", "toy anchor", HOLDS_ON_GRID, 5, 0, [], "")  # no seconds
    first, second = VerdictReport("toy", 0, 5), VerdictReport(suite="toy", seed=0, n_max=5)
    assert first.results == [] and first.results is not second.results and first.seconds == 0.0
    first.results.append(result)
    assert second.results == []


GRID_SEEDS =[(20, 42), (20, 7), (1, 0), (2, 7), (3, 123456789), (12, 1), (25, 42), (30, 5)]


@pytest.mark.parametrize("n_max, seed", GRID_SEEDS)
def test_registry_grids_are_built_in_visiting_order(n_max, seed):
    # run_entry does not sort, so each grid must already be in lexicographic
    # order of its cells' (name, value) pairs: the first failing cell it reports
    # is then the smallest one
    key = lambda cell: tuple(sorted(cell.items()))
    unsorted = [e.id for e in build_registry(n_max, seed) if e.cells != sorted(e.cells, key=key)]
    assert unsorted == []


def test_run_entry_report_only_records_everything():
    res = run_entry(_toy_entry(policy=REPORT_ONLY, offset=1))
    assert res.tier == "REPORT_ONLY"
    assert 5 > SAMPLE_CAP and len(res.counterexamples) == SAMPLE_CAP  # capped, at the first cells visited
    assert [c["params"]["n"] for c in res.counterexamples] == [str(n) for n in range(1, SAMPLE_CAP + 1)]
    assert "disagrees at 5 of 5" in res.note
    res = run_entry(_toy_entry(policy=REPORT_ONLY))
    assert res.tier == "REPORT_ONLY"
    assert len(res.counterexamples) == 1  # agreement sample
    assert res.counterexamples[0]["lhs"] == res.counterexamples[0]["rhs"]


def test_run_entry_skips_domain_errors():
    def lhs(n):
        if n % 2:
            raise DomainError("odd cells excluded")
        return Fraction(1)

    entry = IdentityEntry(
        id="skips",
        anchor="skips",
        params=("n",),
        cells=[{"n": n} for n in range(1, 7)],
        lhs=lhs,
        rhs=lambda n: Fraction(1),
    )
    res = run_entry(entry)
    assert res.tier == "HOLDS_ON_GRID"
    assert res.cells == 3
    assert res.skipped == 3


CERTIFIABLE = ["gen-harmonic-relation", "idi1-alternating", "concl-item2"]


def test_certify_alpha_identity():
    entries = [e for e in build_registry(6, 42) if e.certify is not None]
    assert [e.id for e in entries] == CERTIFIABLE
    # 36 > CERTIFY_N: the series-certify bench workload certifies up to n = 36
    assert all(e.certify(36) for e in entries)
    # fault injection: an extra alpha^(n+1) term on the right side
    rhs = entries[0].rhs
    bad = lambda n, alpha: rhs(n, alpha) + PolyQ([0] * (n + 1) + [1])
    assert certify_alpha_identity(harmonic_poly, rhs, 10)
    assert not certify_alpha_identity(harmonic_poly, bad, 10)


def test_certify_proves_the_graded_closed_forms_beyond_the_grid(monkeypatch):
    # each closed form off by one at a single n above the grid's n_max = 20 but
    # within CERTIFY_N: the grid holds, and certify must no longer pass
    import ghn.registry as registry_mod

    relation, alternating = registry_mod.generalized_harmonic_relation, registry_mod.idi1_rhs
    relation_25 = lambda n, alpha: relation(n, alpha) + (1 if n == 25 else 0)
    alternating_27 = lambda n, alpha: alternating(n, alpha) + (1 if n == 27 else 0)
    monkeypatch.setattr(registry_mod, "generalized_harmonic_relation", relation_25)
    monkeypatch.setattr(registry_mod, "idi1_rhs", alternating_27)
    entries = {e.id: e for e in build_registry(20, 42)}
    assert {i: run_entry(entries[i]).tier for i in CERTIFIABLE} == dict.fromkeys(CERTIFIABLE, HOLDS_ON_GRID)
    # each hook's right side off at n = 36 alone, in its constant or its top coefficient:
    # certify(36) must fail and certify(35) still pass
    for bump in (lambda alpha: 1, lambda alpha: alpha**36 * Fraction(1, 10**9)):
        monkeypatch.setattr(registry_mod, "generalized_harmonic_relation",
                            lambda n, alpha: relation(n, alpha) + (bump(alpha) if n == 36 else 0))
        monkeypatch.setattr(registry_mod, "idi1_rhs", lambda n, alpha: alternating(n, alpha) + (bump(alpha) if n == 36 else 0))
        assert {i: (entries[i].certify(35), entries[i].certify(36)) for i in CERTIFIABLE} == dict.fromkeys(
            CERTIFIABLE, (True, False)
        )


def test_certify_hooks_reach_the_kernels_the_benchmark_traces(monkeypatch):
    # bench/tracing.py wraps PolyQ.__mul__ and __rmul__ by name in the class body, and
    # the series-certify trace gates need nonzero polyseries.PolyQ.mul and
    # polyseries.harmonic_poly counts from its certify calls.  The change to the
    # benchmark that redefines series-certify and retires Q[alpha] (ROADMAP item 1)
    # removes this test.
    assert {"__mul__", "__rmul__"} <= set(vars(PolyQ))
    counts = dict.fromkeys(("mul", "harmonic_poly"), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for attr in ("__mul__", "__rmul__"):
        monkeypatch.setattr(PolyQ, attr, counted("mul", vars(PolyQ)[attr]))
    assert "ghn.registry.harmonic_poly" in _rebind(monkeypatch, harmonic_poly, counted("harmonic_poly", harmonic_poly))
    entries = [e for e in build_registry(6, 42) if e.certify is not None]
    assert [e.id for e in entries] == CERTIFIABLE
    for entry in entries:
        counts.update(mul=0, harmonic_poly=0)
        assert entry.certify(4) is True
        assert counts["mul"] > 0 and counts["harmonic_poly"] > 0, (entry.id, counts)


def _rebind(monkeypatch, real, replacement):
    """Replace the function real in every ghn module that binds it; the names rebound."""
    bound = []
    for name, mod in list(sys.modules.items()):
        if name == "ghn" or name.startswith("ghn."):
            for attr, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, attr, replacement)
                    bound.append(f"{name}.{attr}")
    return bound


def _rebind_lifting_helper(monkeypatch, replacement):
    """Replace exact.common_denominator in every ghn module that imported it."""
    import ghn.exact as exact_mod

    real = exact_mod.common_denominator
    return real, _rebind(monkeypatch, real, replacement)


def test_faulty_lifting_helper_fails_the_closed_forms(monkeypatch):
    # the closed-form kernels and the series oracles (pan_lemma_series and
    # harmonic_genfunc, through TruncSeries) lift through common_denominator, and
    # the other side of each row does not, so a wrong denominator shows as FAILS
    def doubled(values):
        nums, den = real(values)
        return nums, 2 * den

    real, bound = _rebind_lifting_helper(monkeypatch, doubled)
    assert {"ghn.transforms.common_denominator", "ghn.closed_forms.common_denominator", "ghn.polyseries.common_denominator"} <= set(bound)
    entries = {e.id: e for e in build_registry(6, 42)}
    for entry_id in (
        "thm2.3-general",
        "lemma2.1-coherence",
        "thm3.3-eqnnew8",
        "thm3.3-nabla",
        "sanchez-transform",
        "as-newcoffey",
        "panequa1-series",
        "genfunc-alpha",
        "genfunc-harmonic",
        "genfunc-skew",
    ):
        assert run_entry(entries[entry_id]).tier == "FAILS", entry_id


@pytest.mark.parametrize(
    "old, new",
    [("nv = c * b * f", "nv = c * d * f"), ("nu = nv + a * e * d", "nu = nv + a * e * b"), ("den = b * d * f", "den = b * d")],
)
def test_wrong_lift_in_pan_fails_its_entries(monkeypatch, old, new):
    # pan_closed_form lifts mu, lam and alpha over bdf itself; a wrong share of that
    # denominator must fail Theorem 3.2 and the newcoffey row that reads Pan's values
    from ghn import closed_forms

    mutated = _mutated(closed_forms.pan_closed_form, old, new)
    assert "ghn.closed_forms.pan_closed_form" in _rebind(monkeypatch, closed_forms.pan_closed_form, mutated)
    entries = {e.id: e for e in build_registry(6, 42)}
    for entry_id in ("pan-thm3.2", "as-newcoffey"):
        assert run_entry(entries[entry_id]).tier == "FAILS", entry_id


def test_shifted_lambda_check_fails_every_lambda_row(monkeypatch):
    # the closed forms alone check lambda's hypothesis; each oracle raises at its own
    # poles and never calls check_lambda_domain, so a lambda shifted there reaches the
    # closed forms alone
    import ghn.closed_forms as closed_forms_mod

    real = closed_forms_mod.check_lambda_domain
    bound = _rebind(monkeypatch, real, lambda lam, n: real(lam, n) + Fraction(1, 997))
    assert "ghn.closed_forms.check_lambda_domain" in bound and "ghn.registry.check_lambda_domain" not in bound
    entries = {e.id: e for e in build_registry(8, 42)}
    lambda_rows = [
        "lemma2.1-coherence",
        "lemma2.1-ones",
        "lemma2.1-ones-zero",
        "thm2.3-general",
        "thm2.3-lambda0",
        "knuth-flajolet",
    ]
    assert {i: run_entry(entries[i]).tier for i in lambda_rows} == dict.fromkeys(lambda_rows, "FAILS")
    # the printed lambda = 1 display has no lambda, so the shift reaches neither of its sides
    assert run_entry(entries["thm2.3-lambda1"]).tier == HOLDS_ON_GRID


def test_the_oracles_are_plain_sums():
    # an oracle checks none of the hypotheses of the identity it grades (n >= 1,
    # p <= n, lambda not in -1..-n); those are the closed forms' checks.  It raises
    # only where its own sum has a zero divisor: the ratio sum and Lemma 2.1's left
    # side at lambda = -k for k <= n, and nowhere past -n
    import math

    from ghn.closed_forms import concl_item3_lhs, concl_item4_lhs, lemma21_lhs
    from ghn.registry import _power_weight_oracle, _ratio_oracle

    seq = [Fraction(2 * k - 5, k + 2) for k in range(9)]
    for lam in (Fraction(-2), Fraction(0), Fraction(1, 2)):
        assert lemma21_lhs(seq, 0, lam) == 0  # the empty sum
    for alpha in (Fraction(-1, 3), Fraction(1), Fraction(2)):
        assert concl_item3_lhs(0, alpha) == 0 and concl_item4_lhs(0, alpha) == 0
    for n in range(7):
        p = n + 1
        assert _power_weight_oracle(seq, n, p) == sum((math.comb(n, k) * k**p * seq[k] for k in range(n + 1)), Fraction(0))
        for k in range(1, n + 1):
            for oracle in (_ratio_oracle, lemma21_lhs):
                with pytest.raises(DomainError):
                    oracle(seq, n, Fraction(-k))
        lam = Fraction(-(n + 1))
        ratio = sum((math.comb(n, k) * seq[k] / (k + lam) for k in range(1, n + 1)), Fraction(0))
        lemma = math.factorial(n) * sum(
            (seq[m] / (math.factorial(m) * math.prod(lam + i for i in range(m, n + 1))) for m in range(1, n + 1)), Fraction(0)
        )
        assert (_ratio_oracle(seq, n, lam), lemma21_lhs(seq, n, lam)) == (ratio, lemma), n


def test_mutated_sanchez_row_fails_its_entries(monkeypatch):
    # the Stirling row is shared by both Sanchez sums and, through the transform,
    # by the newcoffey closed form; a sign flip at l = 1 must show in each
    from ghn import transforms

    real = transforms._sanchez_row

    def flipped(n, p):
        row = real(n, p)
        if len(row) > 1:
            row[1] = -row[1]
        return row

    monkeypatch.setattr(transforms, "_sanchez_row", flipped)
    entries = {e.id: e for e in build_registry(6, 42)}
    for entry_id in ("sanchez-weight", "sanchez-transform", "as-newcoffey"):
        assert run_entry(entries[entry_id]).tier == "FAILS", entry_id


def test_each_sanchez_row_is_built_once_per_run(monkeypatch):
    # both Sanchez sums read the row through the run memo, so a run builds it once per
    # (n, p) of its grid, however many cells (k, z, alpha, seq) share that point
    from ghn import transforms

    real, builds = transforms._sanchez_row, []

    def counting(n, p):
        builds.append((n, p))
        return real(n, p)

    monkeypatch.setattr(transforms, "_sanchez_row", counting)
    entries = {e.id: e for e in build_registry(8, 42)}
    for entry_id in ("sanchez-weight", "as-newcoffey"):
        builds.clear()
        entry = entries[entry_id]
        assert run_entry(entry).tier == HOLDS_ON_GRID
        points = {(cell["n"], cell["p"]) for cell in entry.cells}
        assert len(entry.cells) > len(points)
        assert sorted(builds) == sorted(points), entry_id


def test_shifted_binom_rat_product_fails_its_entries(monkeypatch):
    # C(x, k) built from (x-1)...(x-k): the right sides of the hockey stick, the b = 1
    # display and Knuth-Flajolet read binom_rat, and their oracles do not
    from ghn import exact

    mutated = _mutated(exact.binom_rat, "p - i * q", "p - (i + 1) * q")
    assert {"ghn.registry.binom_rat", "ghn.closed_forms.binom_rat"} <= set(_rebind(monkeypatch, exact.binom_rat, mutated))
    entries = {e.id: e for e in build_registry(6, 42)}
    for entry_id in ("hockey-stick", "lemma2.1-ones", "knuth-flajolet"):
        assert run_entry(entries[entry_id]).tier == "FAILS", entry_id


def test_off_by_one_hockey_stick_oracle_fails_its_entry(monkeypatch):
    from ghn import exact

    mutated = _mutated(exact.hockey_stick_sum, "range(n + 1)", "range(n)")
    assert "ghn.registry.hockey_stick_sum" in _rebind(monkeypatch, exact.hockey_stick_sum, mutated)
    entry = next(e for e in build_registry(6, 42) if e.id == "hockey-stick")
    assert run_entry(entry).tier == "FAILS"


def test_doubled_pan_closed_form_fails_the_newcoffey_rows_through_the_memo(monkeypatch):
    # as_np_closed reads each Pan value through the run memo; a clean run first fills and
    # drops it, and a doubled Pan must then fail both rows that read it
    from ghn import closed_forms

    entries = {e.id: e for e in build_registry(6, 42)}
    rows = ("as-newcoffey", "as-newcoff")
    assert {i: run_entry(entries[i]).tier for i in rows} == dict.fromkeys(rows, HOLDS_ON_GRID)
    real = closed_forms.pan_closed_form
    assert "ghn.closed_forms.pan_closed_form" in _rebind(monkeypatch, real, _doubled(real))
    assert {i: run_entry(entries[i]).tier for i in rows} == dict.fromkeys(rows, "FAILS")


def _mutated(fn, old, new):
    """fn compiled again from its source, with the one occurrence of old replaced by new."""
    source = inspect.getsource(fn)
    assert source.count(old) == 1, old
    namespace = dict(fn.__globals__)
    exec(compile(source.replace(old, new), inspect.getsourcefile(fn), "exec"), namespace)
    return namespace[fn.__name__]


# each oracle that lifts its terms through exact._oracle_terms, and the entries it checks;
# _power_weight_oracle lifts through binomial_oracle's kernel, so sanchez-transform is listed there
ORACLE_LIFTS = [
    ("verifier", "binomial_oracle", ("pan-thm3.2", "as-newcoffey", "eq-eulerbnew", "sanchez-transform")),
    ("closed_forms", "lemma21_lhs", ("lemma2.1-coherence",)),
    ("registry", "_ratio_oracle", ("thm2.3-general", "knuth-flajolet")),
]
LIFT_SHARE = "den // d"  # the share of the lcm that _oracle_terms gives each term
# the cell names whose distinct values are the distinct inputs that each entry's oracle
# lifts: a harmonic table per alpha, a sequence per seq, the Gould weights per (n, j); the
# Knuth-Flajolet terms (-1)^k are made afresh on each cell
LIFT_INPUTS = {
    "pan-thm3.2": ("alpha",),
    "as-newcoffey": ("alpha",),
    "eq-eulerbnew": ("n", "j"),
    "sanchez-transform": ("seq",),
    "lemma2.1-coherence": ("seq",),
    "thm2.3-general": ("seq",),
    "knuth-flajolet": ("n", "lambda"),
}


@pytest.mark.parametrize(
    "module, name, entry_ids", ORACLE_LIFTS, ids=[f"{module}-{name}-{LIFT_SHARE}" for module, name, _ in ORACLE_LIFTS]
)
def test_wrong_weight_lift_in_an_oracle_fails_its_entries(monkeypatch, module, name, entry_ids):
    # the oracles lift their terms through exact._oracle_terms, and a run lifts each of
    # their inputs once; with the term at index 1 over a wrong share of the lcm, each
    # oracle that lifts through it must fail the entries that it checks
    import importlib

    from ghn import exact

    oracle = getattr(importlib.import_module(f"ghn.{module}"), name)
    assert "_oracle_terms(" in inspect.getsource(oracle), name
    real = exact._oracle_terms
    entries = {e.id: e for e in build_registry(6, 42)}
    calls = []

    def counted(values, who):
        calls.append(who)
        return real(values, who)

    _rebind(monkeypatch, real, counted)
    for entry_id in entry_ids:
        calls.clear()
        assert run_entry(entries[entry_id]).tier == HOLDS_ON_GRID, entry_id
        inputs = {tuple(cell[key] for key in LIFT_INPUTS[entry_id]) for cell in entries[entry_id].cells}
        assert 0 < len(calls) <= len(inputs), entry_id
    monkeypatch.undo()
    mutated = _mutated(
        real,
        f"[v.numerator * ({LIFT_SHARE}) for v, d in zip(values, dens)]",
        f"[v.numerator * ({LIFT_SHARE} + (k == 1)) for k, (v, d) in enumerate(zip(values, dens))]",
    )
    bound = _rebind(monkeypatch, real, mutated)
    assert sorted(bound) == ["ghn.closed_forms._oracle_terms", "ghn.exact._oracle_terms", "ghn.registry._oracle_terms", "ghn.verifier._oracle_terms"]
    for entry_id in entry_ids:
        assert run_entry(entries[entry_id]).tier == "FAILS", entry_id


def test_shifted_pascal_row_fails_the_transform_consumers(monkeypatch):
    # row C(n, k+1) in place of C(n, k): Theorem 2.3 reads the forward numerators
    # and Theorem 3.3 the inverse ones, so each must fail
    from ghn import transforms

    mutated = _mutated(transforms._transform_num, "map(operator.mul, row, nums)", "map(operator.mul, row[1:], nums)")
    assert "ghn.closed_forms._transform_num" in _rebind(monkeypatch, transforms._transform_num, mutated)
    entries = {e.id: e for e in build_registry(6, 42)}
    for entry_id in ("thm2.3-general", "thm3.3-eqnnew8"):
        assert run_entry(entries[entry_id]).tier == "FAILS", entry_id


MEMOIZED = ("thm2.3-general", "thm3.3-eqnnew8", "thm3.3-nabla")
# entries that read the registry's harmonic tables on one side only
HARMONIC_TABLE_READERS = ("genfunc-alpha", "pan-thm3.2", "thm3.3-eqnnew8", "spivey-generalization")


# the builders of the weight rows (weights, scale) that a run reads once per (n, lambda)
# or (n, alpha), the module that defines each, and the entries that read it: the
# closed-form Lemma 2.1 row, which Theorem 2.3 reads too, and Theorem 3.3's folded row;
# the oracle rows of the ratio sum and of Lemma 2.1's left side, and the harmonic row
# sign^k C(n,k) N_k of the Theorem 3.3 left sides and of every _ht_sum side
ROW_BUILDERS = {
    "_lemma21_row": ("closed_forms", ("lemma2.1-coherence", "thm2.3-general", "thm2.3-lambda0")),
    "_thm33_row": ("closed_forms", ("thm3.3-eqnnew8",)),
    "_lemma21_lhs_row": ("closed_forms", ("lemma2.1-coherence",)),
    "_ratio_row": ("registry", ("thm2.3-general", "thm2.3-lambda0", "thm2.3-lambda1")),
    "_harmonic_row": (
        "registry",
        ("thm3.3-eqnnew8", "thm3.3-nabla", "pan-thm3.2", "skew-transform", "spivey-generalization", "panequa1-series"),
    ),
}


def _bumped(fn):
    """fn with the last weight of the row (weights, scale) that it returns raised by one."""

    def bumped(*args):
        weights, scale = fn(*args)
        return [*weights[:-1], weights[-1] + 1], scale

    return bumped


@pytest.mark.parametrize(
    "name, entry_ids",
    [
        ("_transform_num", MEMOIZED),
        ("_gould_num", ("thm3.3-eqnnew8",)),
        ("weighted_nabla", ("thm3.3-nabla",)),
        ("harmonic_table", HARMONIC_TABLE_READERS),
        *((name, entry_ids) for name, (_, entry_ids) in ROW_BUILDERS.items()),
        ("_sanchez_row", ("sanchez-weight", "sanchez-transform", "as-newcoffey")),
    ],
)
def test_no_memo_outlives_its_run(monkeypatch, name, entry_ids):
    # clean runs of the entries whose sides share work fill and drop their memos; a
    # kernel fault made after them must reach the next runs on the same registry
    from ghn import closed_forms, registry, sequences, transforms

    entries = {e.id: e for e in build_registry(6, 42)}
    warm = dict.fromkeys([*MEMOIZED, *entry_ids])
    assert {i: run_entry(entries[i]).tier for i in warm} == dict.fromkeys(warm, HOLDS_ON_GRID)
    real = next(getattr(mod, name) for mod in (transforms, closed_forms, sequences, registry) if hasattr(mod, name))
    if name == "_transform_num":
        mutated = _mutated(real, "map(operator.mul, row, nums)", "map(operator.mul, row[1:], nums)")
    elif name == "_gould_num":
        mutated = lambda n, j, p, q, lcm: real(n, j + 1, p, q, lcm)
    elif name == "_sanchez_row":
        mutated = lambda n, p: [*real(n, p), 1][1:]  # the row shifted by one place, its length kept
    elif name in ROW_BUILDERS:
        mutated = _bumped(real)
    else:
        mutated = _doubled(real)
    if name in ROW_BUILDERS:
        reader = ROW_BUILDERS[name][0]
    else:
        reader = {"harmonic_table": "registry", "_sanchez_row": "transforms"}.get(name, "closed_forms")
    assert f"ghn.{reader}.{name}" in _rebind(monkeypatch, real, mutated)
    for entry_id in entry_ids:
        assert run_entry(entries[entry_id]).tier == "FAILS", entry_id


@pytest.mark.parametrize(
    "name, old, new, entry_ids",
    [
        (
            "stirling2_row",
            "i *",
            "(i + 1) *",
            ("ex3.4-stirling-power", "sanchez-weight", "sanchez-transform", "as-newcoffey", "as-newcoffey1"),
        ),
        ("bernoulli_table", "den * (m + 1)", "den * (m + 2)", ("ex3.4-bernoulli",)),
    ],
    ids=["stirling2_row", "bernoulli_table"],
)
def test_no_sequence_table_outlives_its_run(monkeypatch, name, old, new, entry_ids):
    # Stirling rows and Bernoulli numbers are built afresh on each call, so a recurrence
    # broken after a warm run reaches the next run, on a new registry as on the old one
    from ghn import sequences

    entries = {e.id: e for e in build_registry(6, 42)}
    assert {i: run_entry(entries[i]).tier for i in entry_ids} == dict.fromkeys(entry_ids, HOLDS_ON_GRID)
    real = getattr(sequences, name)
    assert f"ghn.registry.{name}" in _rebind(monkeypatch, real, _mutated(real, old, new))
    for entries in (entries, {e.id: e for e in build_registry(6, 42)}):
        assert {i: run_entry(entries[i]).tier for i in entry_ids} == dict.fromkeys(entry_ids, "FAILS")


def _holds_a_fraction(key) -> bool:
    return isinstance(key, Fraction) or (isinstance(key, tuple) and any(map(_holds_a_fraction, key)))


def test_no_run_memo_key_holds_a_fraction():
    # a rational enters a key as its numerator and denominator, so no lookup hashes a Fraction
    from ghn import exact

    keys = set()
    for entry in build_registry(8, 42):
        run_entry(entry, on_cell=lambda cell, lhs, rhs: keys.update(exact._RUN.get()[0]))
    rational_tags = {
        "lemma21_row", "thm33_row", "nabla", "pan", "harmonic_row", "ratio_row", "lemma21_lhs_row",
        "harmonic_table", "harmonic_terms", "pan_lemma_series", "harmonic_genfunc",
    }
    assert rational_tags <= {key[0] for key in keys}
    assert [key for key in keys if _holds_a_fraction(key)] == []


def test_no_run_memo_tag_is_read_by_both_sides(monkeypatch):
    # each tag is read from the closed forms' modules or from the registry's oracle
    # sides, never from both, so no memo value is work that both sides of a row share
    from ghn import exact

    real, readers = exact._shared, {}

    def recording(key, build):
        frame = sys._getframe(1)
        while frame.f_globals["__name__"] == "ghn.exact":  # _shared_table reads for its caller
            frame = frame.f_back
        readers.setdefault(key[0], set()).add(frame.f_globals["__name__"])
        return real(key, build)

    assert _rebind(monkeypatch, real, recording)
    run_suite("*", 8, 42)
    closed, oracle = {"ghn.closed_forms", "ghn.transforms"}, {"ghn.registry"}
    assert {tag: mods for tag, mods in readers.items() if not (mods <= closed or mods <= oracle)} == {}
    assert len(readers) == 20


def _value_or_error(side, point):
    try:
        return side(*point)
    except (DomainError, OutOfValidityRangeError, ValueError, ZeroDivisionError) as exc:
        return type(exc)


def test_a_memo_key_tells_apart_rationals_that_share_a_numerator():
    # each side at its largest-n cell with one rational parameter set to 1/2 and then to 1:
    # inside one run it must give what it gives with no run open, so no key drops a denominator
    for entry in build_registry(6, 42):
        cell = max(entry.cells, key=lambda c: c.get("n", 0))
        for name in entry.params:
            if type(cell[name]) is not Fraction:
                continue
            points = [[value if p == name else cell[p] for p in entry.params] for value in (Fraction(1, 2), Fraction(1))]
            for side in (entry.lhs, entry.rhs):
                fresh = [_value_or_error(side, point) for point in points]
                with shared_run(6):
                    assert [_value_or_error(side, point) for point in points] == fresh, (entry.id, name)


def test_oracles_never_call_the_lifting_helper(monkeypatch):
    # nor the integer transform kernel that the closed forms read their numerators from,
    # nor the run memo that the closed forms share their work through
    from ghn import exact, transforms
    from ghn.closed_forms import boyadzhiev_ratio_closed, lemma21_lhs, lemma21_rhs, thm33_nabla_rhs, thm33_rhs
    from ghn.registry import _gould_oracle, _knuth_oracle, _power_weight_oracle, _ratio_oracle
    from ghn.sequences import harmonic_table
    from ghn.transforms import binomial_transform

    a = [Fraction(k * k - 3, k + 2) for k in range(8)]
    lam, mu = Fraction(-5, 3), Fraction(2, 7)
    oracles = {
        "binomial_oracle": lambda: binomial_oracle(7, a, mu, lam),
        "_ratio_oracle": lambda: _ratio_oracle(a, 7, lam),
        "_knuth_oracle": lambda: _knuth_oracle(7, lam),
        "_power_weight_oracle": lambda: _power_weight_oracle(a, 7, 3),
        "lemma21_lhs": lambda: lemma21_lhs(a, 7, lam),
        "_gould_oracle": lambda: _gould_oracle(7, 2, mu),
        "harmonic_table": lambda: harmonic_table(7, 2, mu),
    }
    expected = {name: oracle() for name, oracle in oracles.items()}

    def broken(values):
        raise RuntimeError("common_denominator called")

    _rebind_lifting_helper(monkeypatch, broken)
    with pytest.raises(RuntimeError):
        binomial_transform(a)
    assert {name: oracle() for name, oracle in oracles.items()} == expected

    def broken_kernel(a, inverse=False):
        raise RuntimeError("_transform_num called")

    bound = _rebind(monkeypatch, transforms._transform_num, broken_kernel)
    assert sorted(bound) == ["ghn.closed_forms._transform_num", "ghn.transforms._transform_num"]
    for closed_form in (boyadzhiev_ratio_closed, thm33_rhs, thm33_nabla_rhs):
        with pytest.raises(RuntimeError, match="_transform_num"):
            closed_form(a, 7, lam)
    assert {name: oracle() for name, oracle in oracles.items()} == expected

    def broken_memo(key, build):
        raise RuntimeError("_shared called")

    # the registry's sides read their tables through exact._shared_table, which calls
    # exact._shared, and their lifted sequences and Gould weights through exact._shared
    bound = _rebind(monkeypatch, exact._shared, broken_memo)
    assert sorted(bound) == ["ghn.closed_forms._shared", "ghn.exact._shared", "ghn.registry._shared", "ghn.transforms._shared"]
    for closed_form in (boyadzhiev_ratio_closed, thm33_rhs, thm33_nabla_rhs):
        with pytest.raises(RuntimeError, match="_shared"):
            closed_form(a, 7, lam)
    with shared_run():
        assert {name: oracle() for name, oracle in oracles.items()} == expected

    # the converse: the closed forms never call the oracles' lift
    closed_forms = {
        "boyadzhiev_ratio_closed": lambda: boyadzhiev_ratio_closed(a, 7, lam),
        "thm33_rhs": lambda: thm33_rhs(a, 7, lam),
        "thm33_nabla_rhs": lambda: thm33_nabla_rhs(a, 7, lam),
        "lemma21_rhs": lambda: lemma21_rhs(a, 7, lam),
        "binomial_transform": lambda: binomial_transform(a),
    }
    monkeypatch.undo()
    closed_expected = {name: closed_form() for name, closed_form in closed_forms.items()}

    def broken_oracle_lift(values, who):
        raise RuntimeError("_oracle_terms called")

    bound = _rebind(monkeypatch, exact._oracle_terms, broken_oracle_lift)
    assert sorted(bound) == ["ghn.closed_forms._oracle_terms", "ghn.exact._oracle_terms", "ghn.registry._oracle_terms", "ghn.verifier._oracle_terms"]
    with pytest.raises(RuntimeError, match="_oracle_terms"):
        lemma21_lhs(a, 7, lam)
    assert {name: closed_form() for name, closed_form in closed_forms.items()} == closed_expected


def test_scalar_readers_are_written_apart(monkeypatch):
    # the closed forms read a scalar through exact._ratio and the oracles through
    # exact._oracle_ratio, so a fault in either reader reaches one side of a row only
    from ghn import closed_forms as cf
    from ghn import exact, registry
    from ghn.registry import declare

    a = [Fraction(k * k - 3, k + 2) for k in range(8)]
    lam, mu, alpha = Fraction(-5, 3), Fraction(2, 7), Fraction(-3, 4)
    [pan_series], [genfunc] = declare("panequa1-series"), declare("genfunc-alpha")
    oracles = {
        "binomial_oracle": lambda: binomial_oracle(7, a, mu, lam),
        "_ratio_oracle": lambda: registry._ratio_oracle(a, 7, lam),
        "_knuth_oracle": lambda: registry._knuth_oracle(7, lam),
        "_power_weight_oracle": lambda: registry._power_weight_oracle(a, 7, 3, mu),
        "_gould_oracle": lambda: registry._gould_oracle(7, 2, mu),
        "lemma21_lhs": lambda: cf.lemma21_lhs(a, 7, lam),
        "concl_item3_lhs": lambda: cf.concl_item3_lhs(7, alpha),
        "concl_item4_lhs": lambda: cf.concl_item4_lhs(7, alpha),
        "hockey_stick_sum": lambda: exact.hockey_stick_sum(lam, 7),
        "_ht": lambda: registry._ht(alpha, 7)[7],
        "_ht_sum": lambda: registry._ht_sum(alpha, 7, mu, lam),
        "_ratio_side": lambda: registry._ratio_side(a, 7, lam),
        "_lemma21_side": lambda: registry._lemma21_side(a, 7, lam),
        "_thm33_side": lambda: registry._thm33_side(a, 7, alpha),
        "_gould_side": lambda: registry._gould_side(7, 2, mu),
    }
    closed_forms = {
        "pan_closed_form": lambda: cf.pan_closed_form(7, mu, lam, alpha),
        "pan_closed_form:mu+lam=0": lambda: cf.pan_closed_form(7, mu, -mu, alpha),
        "lemma21_rhs": lambda: cf.lemma21_rhs(a, 7, lam),
        "boyadzhiev_ratio_closed": lambda: cf.boyadzhiev_ratio_closed(a, 7, lam),
        "knuth_flajolet_rhs": lambda: cf.knuth_flajolet_rhs(7, lam),
        "thm33_rhs": lambda: cf.thm33_rhs(a, 7, alpha),
        "thm33_nabla_rhs": lambda: cf.thm33_nabla_rhs(a, 7, alpha),
        "gould_generalized_rhs": lambda: cf.gould_generalized_rhs(7, 2, mu),
        "generalized_harmonic_relation": lambda: cf.generalized_harmonic_relation(7, alpha),
        "idi1_rhs": lambda: cf.idi1_rhs(7, alpha),
        "as_np_closed": lambda: cf.as_np_closed(7, 3, mu, alpha),
        "as_p1_closed": lambda: cf.as_p1_closed(7, mu, alpha),
        "concl_item3_rhs": lambda: cf.concl_item3_rhs(7, alpha),
        "concl_item4_rhs": lambda: cf.concl_item4_rhs(7, alpha, "square"),
        "binom_rat": lambda: exact.binom_rat(lam, 7),
        "_laguerre_recurrence": lambda: registry._laguerre_recurrence(7, alpha),
        "panequa1-series lhs": lambda: pan_series.lhs(7, lam, mu, alpha),
        "genfunc-alpha lhs": lambda: genfunc.lhs(7, alpha),
    }

    def values(sides):
        with shared_run(7):
            return {name: side() for name, side in sides.items()}

    expected = values(oracles), values(closed_forms)

    def broken(x):
        raise RuntimeError("reader called")

    bound = _rebind(monkeypatch, exact._ratio, broken)
    assert sorted(bound) == ["ghn.closed_forms._ratio", "ghn.exact._ratio", "ghn.registry._ratio"]
    for side in closed_forms.values():
        with pytest.raises(RuntimeError, match="reader called"):
            side()
    assert values(oracles) == expected[0]
    monkeypatch.undo()
    bound = _rebind(monkeypatch, exact._oracle_ratio, broken)
    assert sorted(bound) == [
        "ghn.closed_forms._oracle_ratio", "ghn.exact._oracle_ratio", "ghn.registry._oracle_ratio", "ghn.verifier._oracle_ratio"
    ]
    for name, side in oracles.items():
        if name not in ("concl_item3_lhs", "concl_item4_lhs"):  # these read alpha through _harmonic_num alone
            with pytest.raises(RuntimeError, match="reader called"):
                side()
    assert values(closed_forms) == expected[1]


def test_declared_sides_bind_their_closed_forms():
    # a side that is one closed form as it stands is that function, with no adapter around it
    from ghn import closed_forms as cf
    from ghn import sequences, transforms
    from ghn.registry import _bernoulli_alternating, _fibonacci_doubling, _gould_side, _lucas_doubling, declare

    entries = {e.id: e for e in declare()}
    bound = {
        "pan-thm3.2": cf.pan_closed_form,
        "idi1-alternating": cf.idi1_rhs,
        "gen-harmonic-relation": cf.generalized_harmonic_relation,
        "thm2.3-general": cf.boyadzhiev_ratio_closed,
        "lemma2.1-coherence": cf.lemma21_rhs,
        "knuth-flajolet": cf.knuth_flajolet_rhs,
        "eq-eulerbnew": cf.gould_generalized_rhs,
        "thm3.3-eqnnew8": cf.thm33_rhs,
        "as-newcoffey": cf.as_np_closed,
        # int-valued kernels, bound with no Fraction wrapper
        "sanchez-weight": transforms.sanchez_weight,
        "sanchez-p1": transforms.sanchez_weight_p1,
        "sanchez-p2": transforms.sanchez_weight_p2,
        "sanchez-p3": transforms.sanchez_weight_p3,
        # second definitions, independent of the generators that the left sides call
        "ex3.4-fibonacci-alt": _fibonacci_doubling,
        "ex3.4-lucas-alt": _lucas_doubling,
        "ex3.4-bernoulli": _bernoulli_alternating,
    }
    for entry_id, fn in bound.items():
        assert entries[entry_id].rhs is fn, entry_id
    assert [entries[i].rhs(6) for i in ("ex3.4-fibonacci", "ex3.4-lucas")] == [sequences.fibonacci(12), sequences.lucas(12)]
    # the Gould oracle with its lifted weights read through the run memo
    assert entries["eq-eulerbnew"].lhs is _gould_side


def test_rand_rat_bounds():
    import random

    rng = random.Random(1)
    for _ in range(200):
        v = rand_rat(rng)
        assert -50 <= v <= 50


def test_registry_well_formed():
    entries = build_registry(6, 42)
    ids = [e.id for e in entries]
    assert len(ids) == len(set(ids))
    for e in entries:
        assert e.cells, f"{e.id} has an empty grid"
        assert e.policy in (ASSERT, REPORT_ONLY)
        # an id is a build_registry pattern that matches only itself
        assert not set("*?[]") & set(e.id), e.id
        # run_entry sizes the run's tables by the largest n of the cells
        assert "n" in e.params, e.id
    # smallest legal grids still exist at n_max = 1, and each entry still
    # evaluates at least one cell there
    for e in build_registry(1, 42):
        assert e.cells, f"{e.id} empty at n_max=1"
    tiny = run_suite("*", n_max=1, seed=42)
    assert all(res.cells >= 1 for res in tiny.results)
    assert not tiny.has_assert_failure()


def test_run_suite_filter_and_determinism():
    r1 = run_suite("pan*", n_max=8, seed=7)
    assert {res.id for res in r1.results} == {"pan-thm3.2", "panequa1-series"}
    r2 = run_suite("pan*", n_max=8, seed=7)
    assert r1.to_json() == r2.to_json()
    assert json.loads(r1.to_json())["suite"] == "ghn:pan*"


def test_run_suite_matching_nothing_returns_an_empty_report():
    # the library keeps an empty report; only the command line calls it a usage error
    report = run_suite("hocky*", n_max=3, seed=42)
    assert report.results == [] and not report.has_assert_failure()
    assert json.loads(report.to_json())["entries"] == []


@pytest.mark.parametrize("n_max, seed", [(5, 3), (20, 42)])
def test_filtering_cannot_change_a_row(n_max, seed):
    # each grid draws from its entry's own stream, so an entry run alone gives its row of the full run
    full = json.loads(run_suite("*", n_max, seed).to_json())["entries"]
    for row in full:
        assert json.loads(run_suite(row["id"], n_max, seed).to_json())["entries"] == [row]


# each family entry and the number of sequences in its family
FAMILY_SIZES = {
    "lemma2.1-coherence": 30,
    "thm2.3-general": 30,
    "thm2.3-lambda0": 10,
    "thm2.3-lambda1": 10,
    "thm3.3-eqnnew8": 13,
    "thm3.3-nabla": 6,
    "sanchez-transform": 10,
}


@pytest.mark.parametrize("n_max, seed", [(2, 7), (20, 42), (30, 5)])
def test_a_family_sizes_its_seq_axis(n_max, seed):
    # a family entry's grid leaves seq out, and build_registry adds it as the innermost name,
    # over every sequence of the family; a cell's seq resolves to that sequence's terms
    from ghn.registry import _rng, declare

    built = {e.id: e for e in build_registry(n_max, seed)}
    families = {}
    for e in declare():
        if e.family is not None:
            rng = _rng(seed, e.id)
            families[e.id] = seqs = e.family(n_max, seed, rng)
            grid = e.grid(n_max, rng)
            assert grid and not any("seq" in cell for cell in grid), e.id
            assert built[e.id].cells == [{**cell, "seq": i} for cell in grid for i in range(len(seqs))], e.id
            cell = built[e.id].cells[len(seqs) - 1]  # the first grid cell, at the last sequence
            point = [cell[name] for name in e.params[1:]]
            assert built[e.id].rhs(cell["seq"], *point) == e.rhs(seqs[-1], *point), e.id
    assert {i: len(seqs) for i, seqs in families.items()} == FAMILY_SIZES
    # thm3.3-nabla reads the first six named sequences that thm3.3-eqnnew8 reads
    assert families["thm3.3-nabla"] == families["thm3.3-eqnnew8"][:6]
    assert THM33_SEQS[:6] == ["ones", "identity", "squares", "fib", "fib2", "lucas"]


def test_run_suite_builds_each_harmonic_table_once_to_the_grids_largest_n(monkeypatch):
    # as-newcoffey's grid stops at n = 12 whatever n_max is, and its run sizes the tables by its cells
    import ghn.registry as registry_mod
    from ghn.registry import AS_ALPHAS

    calls = []
    real = registry_mod.harmonic_table
    monkeypatch.setattr(registry_mod, "harmonic_table", lambda n, p, alpha: calls.append((n, alpha)) or real(n, p, alpha))
    [result] = run_suite("as-newcoffey", 20, 42).results
    assert result.tier == HOLDS_ON_GRID
    assert sorted(calls) == [(12, alpha) for alpha in AS_ALPHAS]


def test_thm33_named_rows_equal_their_generators():
    ks = range(21)
    direct = {
        "ones": [1 for k in ks],
        "identity": list(ks),
        "squares": [k * k for k in ks],
        "fib": [fibonacci(k) for k in ks],
        "fib2": [fibonacci(2 * k) for k in ks],
        "lucas": [lucas(k) for k in ks],
        "lucas2": [lucas(2 * k) for k in ks],
        "bernoulli-alt": [(-1) ** k * bernoulli(k) for k in ks],
        "laguerre-half": [laguerre(k, Fraction(1, 2)) for k in ks],
        "harm-alt": [-((-1) ** k) * harmonic(k) for k in ks],
    }
    rows = _thm33_clib(20, 42)
    assert len(rows) == len(THM33_SEQS) == 13
    for name, row in zip(THM33_SEQS, rows):
        assert len(row) == 21 and all(type(c) is Fraction for c in row)
        if name in direct:
            assert list(row) == direct[name], name
    assert THM33_SEQS[len(direct):] == ["random-0", "random-1", "random-2"]
    assert rows[len(direct):] == _thm33_clib(20, 42)[len(direct):] != _thm33_clib(20, 7)[len(direct):]
    legend = (
        "seq: 0=ones, 1=identity, 2=squares, 3=fib, 4=fib2, 5=lucas, 6=lucas2, 7=bernoulli-alt, "
        "8=laguerre-half, 9=harm-alt, 10=random-0, 11=random-1, 12=random-2"
    )
    notes = {e.id: e.note for e in build_registry(2, 42)}
    assert notes["thm3.3-eqnnew8"].endswith(legend) and notes["thm3.3-nabla"] == legend


def test_report_json_schema():
    report = run_suite("knuth*", n_max=6, seed=42)
    payload = json.loads(report.to_json())
    assert set(payload) == {"suite", "seed", "n_max", "entries"}
    row = payload["entries"][0]
    assert set(row) == {"id", "anchor", "tier", "cells", "skipped", "counterexamples", "note"}
    assert row["tier"] in ("CERTIFIED", "HOLDS_ON_GRID", "FAILS", "REPORT_ONLY")
    md = report.to_markdown()
    assert "| id | tier |" in md


def test_suite_exit_semantics_with_fault():
    entries = [_toy_entry(offset=1)]
    from ghn.verifier import VerdictReport

    report = VerdictReport(suite="toy", seed=0, n_max=5, results=[run_entry(e) for e in entries])
    assert report.has_assert_failure()


def _block_statements(body):
    """The statements of a function body, nested blocks included, nested functions not."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            continue
        for field_name in ("body", "orelse", "finalbody"):
            yield from _block_statements(getattr(stmt, field_name, []))
        for handler in getattr(stmt, "handlers", []):
            yield from _block_statements(handler.body)


def _unexecuted_statements(modules, run):
    """(function, statement text) of each non-raise statement in the modules' functions that run() never executes.

    A statement counts as executed when any of its own lines, the ones no
    nested statement covers, runs; the tracer follows only frames of these files.
    """
    paths = {inspect.getsourcefile(module) for module in modules}
    executed = set()

    def on_line(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: on_line if frame.f_code.co_filename in paths else None)
    try:
        run()
    finally:
        sys.settrace(previous)
    missed = set()
    for path in paths:
        source = Path(path).read_text(encoding="utf-8")
        lines = source.splitlines()
        for fn in ast.walk(ast.parse(source)):
            if not isinstance(fn, ast.FunctionDef):
                continue
            body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
            for stmt in _block_statements(body):
                if isinstance(stmt, (ast.Raise, ast.FunctionDef, ast.ClassDef)):
                    continue
                own = set(range(stmt.lineno, stmt.end_lineno + 1))
                for child in _block_statements([stmt]):
                    if child is not stmt:
                        own -= set(range(child.lineno, child.end_lineno + 1))
                if not any((path, line) in executed for line in own):
                    missed.add((fn.name, lines[stmt.lineno - 1].strip()))
    return missed


def test_every_closed_form_statement_is_reached_by_the_ledger():
    # apart from raises, the ledger runs every statement of closed_forms and transforms:
    # lemma2.1-ones-zero reaches the lambda = 0 branch of the b = 1 display, and
    # as-newcoffey takes its b_0 from Pan at n = 0
    from ghn import closed_forms, transforms

    missed = _unexecuted_statements([closed_forms, transforms], lambda: run_suite("*", 3, 42))
    assert missed == set()


def _functions_reached(entry_id, side_name):
    """Names of the ghn functions outside the registry's wiring that one side calls on every cell of its entry.

    Each side runs on a fresh registry of its own entry, so no memo that the
    other side filled hides a call.
    """
    import ghn
    import ghn.registry as registry_mod
    from ghn.errors import OutOfValidityRangeError

    package = str(Path(inspect.getsourcefile(ghn)).parent)
    wiring = inspect.getsourcefile(registry_mod)
    (entry,) = build_registry(8, 42, entry_id)
    side = getattr(entry, side_name)
    names = set()

    def on_call(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(package) and code.co_filename != wiring:
            if not code.co_name.startswith("<"):
                names.add(code.co_name)

    previous = sys.getprofile()
    sys.setprofile(on_call)
    try:
        for cell in entry.cells:
            try:
                side(*[cell[name] for name in entry.params])
            except (DomainError, OutOfValidityRangeError):
                pass
    finally:
        sys.setprofile(previous)
    return names


# The ghn functions that both sides of each entry reach, over every cell of every
# row, ASSERT and REPORT_ONLY alike.  Pan's closed form, the p = 1 expansion
# (as_p1_closed) and the ex3.4 right sides call no sequence generator.  _shared is
# the run memo: the registry's lifted oracle inputs (tables through _shared_table),
# the oracle rows and the closed forms' rows are all read through it, under tags of
# their own.  check_terms is called by the oracles' dot product
# (exact._oracle_dot) and by the closed forms that take a sequence.  Only the
# closed forms check an identity's hypotheses (check_lambda_domain,
# _check_concl_args); an oracle raises at its own poles alone.  So the lambda rows
# share no check, and the concluding items' rows, whose right sides sum
# _concl_sums' integers and reach no harmonic kernel, share no function at all.
SHARED = {
    **dict.fromkeys(
        ["thm2.3-general", "thm2.3-lambda0", "thm2.3-lambda1", "lemma2.1-coherence"], {"check_terms", "_shared"}
    ),
    **dict.fromkeys(["gen-harmonic-relation", "skew-relation"], {"harmonic_p", "_harmonic_num"}),
    "as-newcoffey1": {"_harmonic_num"},
    "panequa1-series": {"harmonic_table", "_harmonic_num", "_shared", "_shared_table"},
    "thm3.3-eqnnew8": {"binom_int", "_harmonic_num", "check_terms", "_shared"},
    "thm3.3-nabla": {"binom_int", "check_terms", "_shared"},
    **dict.fromkeys(["genfunc-alpha", "genfunc-harmonic", "genfunc-skew"], {"_shared", "_shared_table"}),
    **dict.fromkeys(["as-newcoffey", "as-newcoff"], {"binom_int", "_shared"}),
    **dict.fromkeys(["eq-eulerbnew", "eq-eulerbnew-j0-corrected"], {"binom_int"}),
    "sanchez-transform": {"binom_int", "_shared"},
    **dict.fromkeys(["sanchez-weight", "sanchez-p1", "sanchez-p2", "sanchez-p3"], {"binom_int"}),
    # REPORT_ONLY
    "skew-sign-convention": {"harmonic_p", "_harmonic_num"},
    "eq-eulerbnew-j0": {"binom_int"},
    "as-newcoffey1-as-printed": {"_harmonic_num", "binom_int"},
    **dict.fromkeys(["as-p2-display", "as-p3-display"], {"binom_int", "_shared"}),
}


def test_functions_both_sides_reach_are_pinned():
    """The ghn functions that both sides of each entry reach, so that new sharing fails here.

    A fault in a function that both sides call can cancel out; the kernel-fault
    test below shows that none of these does on the ASSERT rows.
    """
    shared = {}
    for entry in build_registry(8, 42):
        both = _functions_reached(entry.id, "lhs") & _functions_reached(entry.id, "rhs")
        if both:
            shared[entry.id] = both
    assert shared == SHARED
    # the coefficient rows belong to the closed forms alone
    assert not any({"_sanchez_row", "weighted_nabla"} & names for names in shared.values())


def _double(value):
    """value with every number in it doubled; of integer numerators over one denominator, the numerators."""
    if isinstance(value, tuple) and len(value) == 2 and isinstance(value[0], list):
        return [2 * v for v in value[0]], value[1]
    if isinstance(value, (list, tuple)):  # a table, or a run-memo value made of several parts
        return type(value)(map(_double, value))
    return 2 * value


def _doubled(fn):
    return lambda *args: _double(fn(*args))


# The ASSERT rows of build_registry(8, 42) that FAIL when every run-memo value is
# doubled (19 before the weight rows were read through the memo).  A row left out reads
# the memo alike on both sides, so a fault that scales every memo value cancels on it:
# lemma2.1-coherence, thm2.3-general and thm2.3-lambda0 read a lifted sequence and a
# weight row on each side, and the genfunc rows a series against a table.  A new
# symmetric read drops a row from this set and fails here.
DOUBLED_MEMO_FAILS = {
    "as-newcoff", "as-newcoffey", "as-newcoffey1", "as-p0", "as-p1-exemple1", "concl-item2", "eq-eulerbnew",
    "eq-eulerbnew-j0-corrected", "ex3.4-bernoulli", "ex3.4-harmonic-alt", "frontczak-variant", "idi1-alternating",
    "pan-thm3.2", "panequa1-series", "sanchez-transform", "sanchez-weight", "skew-transform", "spivey-generalization",
    "thm2.3-lambda1", "thm3.3-eqnnew8", "thm3.3-nabla",
}


def test_doubled_memo_census_is_pinned(monkeypatch):
    from ghn import exact

    assert _rebind(monkeypatch, exact._shared, _doubled(exact._shared))
    failing = {e.id for e in build_registry(8, 42) if e.policy == ASSERT and run_entry(e).tier == "FAILS"}
    assert failing == DOUBLED_MEMO_FAILS
    assert len(failing) >= 19


@pytest.mark.parametrize(
    "name",
    # every function both sides reach but check_terms and _check_concl_args, which
    # return nothing, and the generators that the ex3.4 left sides call, so their
    # right sides must not
    sorted(set().union(*SHARED.values()) - {"check_terms", "_check_concl_args"} | {"fibonacci", "lucas", "bernoulli_table"}),
)
def test_doubled_shared_function_fails_an_assert_entry(monkeypatch, name):
    from ghn import closed_forms, exact, sequences

    real = next(getattr(mod, name) for mod in (exact, sequences, closed_forms) if hasattr(mod, name))
    assert _rebind(monkeypatch, real, _doubled(real))
    entries = [e for e in build_registry(8, 42) if e.policy == ASSERT]
    assert any(run_entry(e).tier == "FAILS" for e in entries), name
