import ast
import inspect
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ghn.errors import DomainError
from ghn.polyseries import PolyQ, harmonic_poly
from ghn.registry import build_registry
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
    # lexicographically smallest failing cell
    assert res.counterexamples[0]["params"] == {"n": "1"}
    assert res.counterexamples[0]["lhs"] == "1"
    assert res.counterexamples[0]["rhs"] == "2"


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
    assert all(e.certify(CERTIFY_N) for e in entries)
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
    # the closed-form kernels lift through common_denominator and their oracles
    # do not, so a wrong denominator shows as FAILS
    def doubled(values):
        nums, den = real(values)
        return nums, 2 * den

    real, bound = _rebind_lifting_helper(monkeypatch, doubled)
    assert {"ghn.transforms.common_denominator", "ghn.closed_forms.common_denominator"} <= set(bound)
    entries = {e.id: e for e in build_registry(6, 42)}
    for entry_id in (
        "thm2.3-general",
        "lemma2.1-coherence",
        "pan-thm3.2",
        "thm3.3-eqnnew8",
        "thm3.3-nabla",
        "sanchez-transform",
        "as-newcoffey",
    ):
        assert run_entry(entries[entry_id]).tier == "FAILS", entry_id


def test_shifted_lambda_check_fails_every_lambda_row(monkeypatch):
    # the oracles call check_lambda_domain only for its DomainError and keep the
    # lambda they were given, so a lambda shifted there reaches the closed forms alone
    import ghn.closed_forms as closed_forms_mod

    real = closed_forms_mod.check_lambda_domain
    bound = _rebind(monkeypatch, real, lambda lam, n: real(lam, n) + Fraction(1, 997))
    assert {"ghn.closed_forms.check_lambda_domain", "ghn.registry.check_lambda_domain"} <= set(bound)
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


def test_oracles_never_call_the_lifting_helper(monkeypatch):
    from ghn.closed_forms import lemma21_lhs
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


def test_declared_sides_bind_their_closed_forms():
    # a side that is one closed form as it stands is that function, with no adapter around it
    from ghn import closed_forms as cf
    from ghn import sequences, transforms
    from ghn.registry import _bernoulli_alternating, _fibonacci_doubling, _gould_oracle, _lucas_doubling, declare

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
    assert entries["eq-eulerbnew"].lhs is _gould_oracle


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
    """Names of the ghn functions outside the registry's wiring that one side calls on up to 15 cells.

    Each side runs on its own fresh registry, so no memo that the other side
    filled hides a call.
    """
    import ghn
    import ghn.registry as registry_mod
    from ghn.errors import OutOfValidityRangeError

    package = str(Path(inspect.getsourcefile(ghn)).parent)
    wiring = inspect.getsourcefile(registry_mod)
    entry = next(e for e in build_registry(8, 42) if e.id == entry_id)
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
        for cell in entry.cells[:15]:
            try:
                side(*[cell[name] for name in entry.params])
            except (DomainError, OutOfValidityRangeError):
                pass
    finally:
        sys.setprofile(previous)
    return names


# The ghn functions that both sides of each ASSERT entry reach.  Pan's closed
# form and the ex3.4 right sides call no sequence generator.
SHARED = {
    **dict.fromkeys(
        ["lemma2.1-ones-zero", "lemma2.1-ones", "thm2.3-general", "thm2.3-lambda0", "knuth-flajolet"],
        {"check_lambda_domain"},
    ),
    "lemma2.1-coherence": {"check_lambda_domain", "check_terms"},
    **dict.fromkeys(["gen-harmonic-relation", "skew-relation"], {"harmonic_p", "harmonic_table"}),
    **dict.fromkeys(["panequa1-series", "as-newcoffey1", "as-p1-exemple1"], {"harmonic_table"}),
    "thm3.3-eqnnew8": {"binom_int", "harmonic_table"},
    **dict.fromkeys(
        ["eq-eulerbnew", "eq-eulerbnew-j0-corrected", "thm3.3-nabla", "as-newcoffey", "as-newcoff", "sanchez-transform"],
        {"binom_int"},
    ),
    **dict.fromkeys(["sanchez-weight", "sanchez-p1", "sanchez-p2", "sanchez-p3"], {"binom_int"}),
}


def test_functions_both_sides_reach_are_pinned():
    """The ghn functions that both sides of each ASSERT entry reach, so that new sharing fails here.

    A fault in a function that both sides call can cancel out; the kernel-fault
    test below shows that none of these does.
    """
    shared = {}
    for entry in build_registry(8, 42):
        if entry.policy == ASSERT:
            both = _functions_reached(entry.id, "lhs") & _functions_reached(entry.id, "rhs")
            if both:
                shared[entry.id] = both
    assert shared == SHARED
    # the coefficient rows belong to the closed forms alone
    assert not any({"_sanchez_row", "weighted_nabla"} & names for names in shared.values())


def _doubled(fn):
    def double(*args):
        value = fn(*args)
        return [2 * v for v in value] if isinstance(value, list) else 2 * value

    return double


@pytest.mark.parametrize(
    "name",
    # every function both sides reach but check_terms, which returns nothing, and
    # the generators that the ex3.4 left sides call, so their right sides must not
    sorted(set().union(*SHARED.values()) - {"check_terms"} | {"fibonacci", "lucas", "bernoulli"}),
)
def test_doubled_shared_function_fails_an_assert_entry(monkeypatch, name):
    from ghn import closed_forms, exact, sequences

    real = next(getattr(mod, name) for mod in (exact, sequences, closed_forms) if hasattr(mod, name))
    assert _rebind(monkeypatch, real, _doubled(real))
    entries = [e for e in build_registry(8, 42) if e.policy == ASSERT]
    assert any(run_entry(e).tier == "FAILS" for e in entries), name
