"""Acceptance criteria, one test per criterion.

Every check is exact (no tolerances anywhere); each test prints one
"criterion N: PASS/FAIL" line with its elapsed time and enforces the stated
runtime budget.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import time
from fractions import Fraction
from pathlib import Path

from ghn.registry import build_registry
from ghn.verifier import run_entry, run_suite

SEED = 42
REPORTS = Path(__file__).resolve().parent.parent / "reports"

_CACHE = {}


def _full_report():
    if "report" not in _CACHE:
        _CACHE["report"] = run_suite("*", n_max=20, seed=SEED)
    return _CACHE["report"]


def _entry(n_max, entry_id, seed=SEED):
    for e in build_registry(n_max, seed):
        if e.id == entry_id:
            return e
    raise KeyError(entry_id)


def _finish(num, ok, t0, budget):
    elapsed = time.perf_counter() - t0
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s, budget {budget}s)")
    assert ok, f"criterion {num} failed"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_1_exact_polynomial_certification():
    # gen-harmonic-relation and idi1-alternating CERTIFIED for 1 <= n <= 30
    t0 = time.perf_counter()
    r1 = run_entry(_entry(30, "gen-harmonic-relation"))
    r2 = run_entry(_entry(30, "idi1-alternating"))
    _finish(1, r1.tier == "CERTIFIED" and r2.tier == "CERTIFIED", t0, 5)


def test_criterion_2_pan_theorem_full_grid():
    # closed form == oracle on the full 7x7 x 5-alpha x 25-n grid, incl. mu+lam=0
    t0 = time.perf_counter()
    entry = _entry(25, "pan-thm3.2")
    second_branch_cells = sum(1 for c in entry.cells if c["mu"] + c["lambda"] == 0)
    assert second_branch_cells == 5 * 5 * 25  # five mu+lam=0 pairs in the grid
    res = run_entry(entry)
    ok = res.tier == "HOLDS_ON_GRID" and res.cells == 7 * 7 * 5 * 25 and res.skipped == 0
    _finish(2, ok, t0, 30)


def test_criterion_3_ratio_lemma_and_theorem_branches():
    # all four branches of the ratio lemma plus both theorem branches vs oracles,
    # 30 seeded sequences, the stated lambda grid, n <= 25, excluded cells skipped
    t0 = time.perf_counter()
    ids = [
        "lemma2.1-coherence",
        "lemma2.1-ones-zero",
        "lemma2.1-ones",
        "thm2.3-general",
        "thm2.3-lambda0",
        "thm2.3-lambda1",
    ]
    results = {i: run_entry(_entry(25, i)) for i in ids}
    ok = all(r.tier == "HOLDS_ON_GRID" for r in results.values())
    coherence = _entry(25, "lemma2.1-coherence")
    ok = ok and len({c["seq"] for c in coherence.cells}) == 30
    lambdas = {c["lambda"] for c in coherence.cells}
    ok = ok and {Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-1, 2), Fraction(3), Fraction(-7, 3)} <= lambdas
    # integer lambda -2 cells with n >= 2 are skipped, never failed
    ok = ok and results["lemma2.1-coherence"].skipped == 30 * 24
    ok = ok and results["thm2.3-general"].skipped == 30 * 24
    _finish(3, ok, t0, 30)


def test_criterion_4_knuth_flajolet():
    t0 = time.perf_counter()
    entry = _entry(30, "knuth-flajolet")
    res = run_entry(entry)
    side = lambda f, c: f(*(c[p] for p in entry.params))
    spot = next(
        (side(entry.lhs, c), side(entry.rhs, c))
        for c in entry.cells
        if c["n"] == 2 and c["lambda"] == Fraction(1, 2)
    )
    ok = res.tier == "HOLDS_ON_GRID" and spot == (Fraction(16, 15), Fraction(16, 15))
    _finish(4, ok, t0, 2)


def test_criterion_5_series_identities_to_order_40():
    t0 = time.perf_counter()
    ids = ["panequa1-series", "genfunc-alpha", "genfunc-harmonic", "genfunc-skew"]
    results = [run_entry(_entry(40, i)) for i in ids]
    pairs = {c["pair"] for c in _entry(40, "panequa1-series").cells}
    ok = all(r.tier == "HOLDS_ON_GRID" for r in results) and len(pairs) == 10
    ok = ok and all(r.cells % 41 == 0 for r in results)  # coefficients 0..40 per parameter set
    _finish(5, ok, t0, 10)


def test_criterion_6_example_transform_pairs():
    t0 = time.perf_counter()
    ids = [
        "ex3.4-fibonacci",
        "ex3.4-lucas",
        "ex3.4-bernoulli",
        "ex3.4-laguerre",
        "ex3.4-stirling-power",
        "ex3.4-harmonic-alt",
        "ex3.4-fibonacci-alt",
        "ex3.4-lucas-alt",
    ]
    results = [run_entry(_entry(20, i)) for i in ids]
    _finish(6, all(r.tier == "HOLDS_ON_GRID" for r in results), t0, 5)


def test_criterion_7_power_weight_machinery():
    t0 = time.perf_counter()
    weight = run_entry(_entry(15, "sanchez-weight"))
    ok = weight.tier == "HOLDS_ON_GRID" and weight.cells == 16 * 17 // 2 * 7
    for p in (1, 2, 3):
        res = run_entry(_entry(12, f"sanchez-p{p}"))
        ok = ok and res.tier == "HOLDS_ON_GRID" and res.cells == 13 * 14 // 2
    _finish(7, ok, t0, 5)


def test_criterion_8_ledger_completeness_and_determinism():
    t0 = time.perf_counter()
    report = _full_report()
    again = run_suite("*", n_max=20, seed=SEED)
    payload = report.to_json()
    ok = payload == again.to_json()  # byte-identical
    # the shipped ledger and its markdown twin are exactly this run
    ok = ok and payload == (REPORTS / "verdicts.json").read_text(encoding="utf-8")
    ok = ok and report.to_markdown() == (REPORTS / "verdicts.md").read_text(encoding="utf-8")
    rows = {r["id"]: r for r in json.loads(payload)["entries"]}
    required = [
        "lemma2.1-coherence",
        "lemma2.1-ones-zero",
        "lemma2.1-ones",
        "lemma2.1-ones-as-printed",
        "thm2.3-general",
        "thm2.3-lambda0",
        "thm2.3-lambda1",
        "eq-eulerbnew",
        "eq-eulerbnew-j0",
        "panequa1-series",
        "pan-thm3.2",
        "thm3.3-eqnnew8",
        "as-newcoffey",
        "as-newcoff",
        "as-newcoffey1",
        "as-newcoffey1-as-printed",
        "as-p1-exemple1",
        "genfunc-alpha",
        "genfunc-harmonic",
        "genfunc-skew",
        "concl-item2",
        "concl-item3",
        "concl-item3-square",
        "concl-item4",
        "concl-item4-square",
    ]
    ok = ok and all(rid in rows for rid in required)
    # every registered entry produced a row with a final tier
    ok = ok and len(rows) == len(build_registry(20, SEED))
    tiers = {"CERTIFIED", "HOLDS_ON_GRID", "FAILS", "REPORT_ONLY"}
    ok = ok and all(r["tier"] in tiers for r in rows.values())
    # FAILS/REPORT_ONLY rows carry at least one exact counterexample or sample
    for r in rows.values():
        if r["tier"] in ("FAILS", "REPORT_ONLY"):
            ok = ok and len(r["counterexamples"]) >= 1
    # no ASSERT entry fails on the shipped registry
    ok = ok and not any(r["tier"] == "FAILS" for r in rows.values())
    _finish(8, ok, t0, 120)


def test_named_entries_reach_required_tiers():
    # registry invariant at n_max = 20: these entries hold or better; two are
    # certified outright
    rows = {r.id: r.tier for r in _full_report().results}
    for rid in (
        "knuth-flajolet",
        "lemma2.1-coherence",
        "thm2.3-lambda0",
        "thm2.3-lambda1",
        "spivey-generalization",
        "frontczak-variant",
        "ex3.4-fibonacci",
        "ex3.4-lucas",
        "ex3.4-bernoulli",
        "ex3.4-laguerre",
        "ex3.4-stirling-power",
        "ex3.4-harmonic-alt",
    ):
        assert rows[rid] in ("HOLDS_ON_GRID", "CERTIFIED"), rid
    assert rows["pan-thm3.2"] in ("HOLDS_ON_GRID", "CERTIFIED")
    assert rows["gen-harmonic-relation"] == "CERTIFIED"
    assert rows["idi1-alternating"] == "CERTIFIED"
