"""Grid execution, polynomial certification, and tiered verdict reporting.

An IdentityEntry pairs two sides, functions of its parameters, with a finite
grid of exact rational parameter points.  run_entry grades it:

  CERTIFIED      its rhs over Q[alpha] equals a direct sum for n <= 30 (strongest),
  HOLDS_ON_GRID  exact agreement at every evaluated cell,
  FAILS          at least one mismatch (ASSERT entries only), carrying the
                 first failing cell in grid order,
  REPORT_ONLY    outcome recorded without judgement (conjectures, suspected
                 typos); such rows always carry at least one sample cell.

Cells whose parameters violate an identity's hypotheses (DomainError or
OutOfValidityRangeError) are skipped and counted, never failed.  Reports are
deterministic functions of (filter, n_max, seed): cells are visited in grid
order and wall-clock timings are kept out of the serialized formats.  An
EntryResult times its cell loop (seconds) apart from its certify hook
(certify_seconds); VerdictReport.to_timings_json writes them to a sidecar of
their own, never to the ledger.

Shared work: run_entry opens an exact.shared_run memo for its cell loop,
sized by the largest n of its cells, and drops it when the loop ends.  That
run memo is the one cache of the package; its rule and its readers are
written once, in exact.  binomial_oracle is the oracles' lift of its weights,
their row C(n,k) N_k (_binomial_row) and its integer kernel _binomial_num over
that row; the registry's sides call the kernel on rows built once per run, and
binomial_oracle itself reads no memo.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from typing import Callable, Sequence

from .errors import DomainError, OutOfValidityRangeError
from .exact import RatLike, _oracle_ratio, _oracle_terms, as_fraction, binom_int, shared_run
from .polyseries import PolyQ, TruncSeries, geometric, log_one_minus

ASSERT = "ASSERT"
REPORT_ONLY = "REPORT_ONLY"

CERTIFIED = "CERTIFIED"
HOLDS_ON_GRID = "HOLDS_ON_GRID"
FAILS = "FAILS"

# counterexamples a result keeps, the first mismatching cells in visiting order
SAMPLE_CAP = 3
# a certify hook proves its identity for each n <= CERTIFY_N at alpha = ALPHA, alpha itself
CERTIFY_N = 30
ALPHA = PolyQ([0, 1])
# the EntryResult fields that a ledger entry holds, in the order it writes them
LEDGER_FIELDS = ("id", "anchor", "tier", "cells", "skipped", "counterexamples", "note")

Cell = dict


class IdentityEntry:
    """One catalogued identity: two sides, the names they take, a grid, a policy.

    ``lhs`` and ``rhs`` take the values of the names in ``params``, in that
    order, and return an exact value; ``cells`` are the grid points (dicts
    holding at least the names in ``params``) in the order run_entry visits
    them, and may carry display-only names besides them.  An entry with
    ``certify`` has an ``rhs(n, alpha)`` that is, at alpha = ALPHA, a
    polynomial in alpha; ``certify(n_max)`` compares it coefficient-wise with
    a direct-sum oracle over Q[alpha] for every n <= n_max.

    A registry entry declares how its cells are made: ``grid(n_max, rng)``
    returns them, drawing any random value from ``rng``, the entry's own
    seeded stream.  An entry whose sides take a sequence ``seq`` declares
    ``family(n_max, seed, rng)``, the seeded sequences that a cell's ``seq``
    indexes; its grid leaves ``seq`` out, and the registry adds it as the
    innermost name, over every sequence of the family.  ``replace(**changes)``
    makes a variant: a new entry with the fields named changed.
    """

    def __init__(
        self, id: str, anchor: str, lhs: Callable[..., Fraction], rhs: Callable[..., Fraction], params: tuple[str, ...] = (),
        cells: Sequence[Cell] = (), policy: str = ASSERT, note: str = "", certify: Callable[[int], bool] | None = None,
        grid: Callable[[int, random.Random], list[Cell]] | None = None,
        family: Callable[[int, int, random.Random], list[tuple]] | None = None,
    ):
        self.id, self.anchor, self.lhs, self.rhs, self.params, self.cells = id, anchor, lhs, rhs, params, cells
        self.policy, self.note, self.certify, self.grid, self.family = policy, note, certify, grid, family

    def replace(self, **changes) -> IdentityEntry:
        return IdentityEntry(**{**vars(self), **changes})


class EntryResult:
    def __init__(
        self, id: str, anchor: str, tier: str, cells: int, skipped: int, counterexamples: list[dict], note: str,
        seconds: float,  # the cell loop's wall time
        certify_seconds: float = 0.0,  # the certify hook's wall time, 0 for an entry without one
    ):
        self.id, self.anchor, self.tier, self.cells, self.skipped = id, anchor, tier, cells, skipped
        self.counterexamples, self.note, self.seconds, self.certify_seconds = counterexamples, note, seconds, certify_seconds


class VerdictReport:
    """Per-entry outcomes for one suite run."""

    def __init__(self, suite: str, seed: int, n_max: int, results: list[EntryResult] | None = None, seconds: float = 0.0):
        self.suite, self.seed, self.n_max, self.seconds = suite, seed, n_max, seconds
        self.results = [] if results is None else results

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "n_max": self.n_max,
            "entries": [{name: getattr(r, name) for name in LEDGER_FIELDS} for r in self.results],
        }

    def to_json(self) -> str:
        import json  # here, not at the top: a text query never loads it

        return json.dumps(self.to_dict(), indent=2) + "\n"

    def to_markdown(self) -> str:
        lines = [
            f"# Identity verification report",
            "",
            f"suite: `{self.suite}`, seed: {self.seed}, n_max: {self.n_max}",
            "",
            "| id | tier | cells | skipped | note |",
            "|---|---|---:|---:|---|",
        ]
        for r in self.results:
            note = r.note.replace("|", "\\|")
            lines.append(f"| {r.id} | {r.tier} | {r.cells} | {r.skipped} | {note} |")
        lines.append("")
        samples = [(r.id, ce) for r in self.results for ce in r.counterexamples]
        if samples:
            lines += ["## Sample cells", ""]
        for entry_id, ce in samples:
            params = ", ".join(f"{k}={v}" for k, v in ce["params"].items())
            verdict = "==" if ce["lhs"] == ce["rhs"] else "!="
            lines.append(f"- `{entry_id}` at {params}: lhs={ce['lhs']} {verdict} rhs={ce['rhs']}")
        lines.append("")
        return "\n".join(lines)

    def to_timings_json(self) -> str:
        """The timings sidecar: each entry's grid and certify seconds, cells, skipped cells and cells per grid second.

        Wall-clock figures, so never part of the ledger, which stays a
        deterministic function of (filter, n_max, seed).
        """
        import json  # as in to_json

        entries = [
            {
                "id": r.id,
                "grid_s": r.seconds,
                "certify_s": r.certify_seconds,
                "cells": r.cells,
                "skipped": r.skipped,
                "cells_per_s": r.cells / r.seconds if r.seconds else 0.0,
            }
            for r in self.results
        ]
        payload = {"suite": self.suite, "seed": self.seed, "n_max": self.n_max, "seconds": self.seconds, "entries": entries}
        return json.dumps(payload, indent=2) + "\n"

    def has_assert_failure(self) -> bool:
        return any(r.tier == FAILS for r in self.results)


def rand_rat(rng: random.Random) -> Fraction:
    """Uniform reduced rational with numerator in [-50, 50], denominator in [1, 50]."""
    return Fraction(rng.randint(-50, 50), rng.randint(1, 50))


def binomial_oracle(n: int, w: Sequence[RatLike], mu: RatLike = 1, lam: RatLike = 1) -> Fraction:
    """Exact sum_{k=0..n} C(n,k) mu^k lam^(n-k) w[k], summed in integers.

    The direct-sum oracle behind every binomial-weighted identity: the
    oracles' lift, exact._oracle_terms, of w[0..n], their row C(n,k) N_k
    (_binomial_row) and its integer kernel _binomial_num.  It calls no
    transform, so it stays independent of the closed forms it checks.  The
    weights are ints and Fractions (any other type raises TypeError), and w
    must hold w[0..n].
    """
    nums, den = _oracle_terms([w[k] for k in range(n + 1)], "binomial_oracle")
    return _binomial_num(_binomial_row(nums, n), den, n, mu, lam)


def _binomial_row(nums: Sequence[int], n: int) -> list[int]:
    """C(n,k) nums[k] for k = 0..n: binomial_oracle's integer weights at w[k] = nums[k] / den; nums may run past n."""
    return [binom_int(n, k) * nums[k] for k in range(n + 1)]


def _binomial_num(row: Sequence[int], den: int, n: int, mu: RatLike = 1, lam: RatLike = 1) -> Fraction:
    """sum_{k=0..n} row[k] mu^k lam^(n-k) / den, for a row of _binomial_row(nums, n): binomial_oracle's kernel.

    With mu = a/b and lam = c/d, term k is the integer row[k] (ad)^k (bc)^(n-k),
    and the sum is divided once by den (bd)^n.  It is summed by Horner's rule
    in ad, from k = n down, with a running power of bc.  mu and lam are read
    by exact._oracle_ratio.
    """
    a, b = _oracle_ratio(mu)
    c, d = _oracle_ratio(lam)
    x = a * d
    y = b * c
    total = 0
    ypow = 1  # y^(n-k)
    for k in range(n, -1, -1):
        total = total * x + row[k] * ypow
        ypow *= y
    return Fraction(total, den * (b * d) ** n)


def _sample(cell: Cell, lhs: Fraction, rhs: Fraction) -> dict:
    return {
        "params": {name: str(cell[name]) for name in sorted(cell)},
        "lhs": str(lhs),
        "rhs": str(rhs),
    }


def run_entry(
    entry: IdentityEntry,
    on_cell: Callable[[Cell, Fraction | None, Fraction | None], None] | None = None,
) -> EntryResult:
    """Evaluate both sides at the params of every grid cell and grade the entry.

    The grid sets the order: the cells are visited as ``entry.cells`` lists
    them.  ``on_cell(cell, lhs, rhs)`` sees each one, with ``lhs = rhs =
    None`` for a skipped cell, and an ASSERT entry stops at its first failing
    cell.  The cell loop runs inside one exact.shared_run, sized by the
    largest n of the cells (a cell with no n sizes nothing), so the tables
    the sides share are built once, to that n; the sides may not mutate a
    grid sequence.
    """
    start = time.perf_counter()
    evaluated = 0
    skipped = 0
    mismatches = 0
    counterexamples: list[dict] = []
    agreement: dict | None = None
    with shared_run(max((cell.get("n", 0) for cell in entry.cells), default=0)):
        for cell in entry.cells:
            args = [cell[name] for name in entry.params]
            try:
                lv = entry.lhs(*args)
                rv = entry.rhs(*args)
            except (DomainError, OutOfValidityRangeError):
                skipped += 1
                if on_cell is not None:
                    on_cell(cell, None, None)
                continue
            evaluated += 1
            if on_cell is not None:
                on_cell(cell, lv, rv)
            if lv != rv:
                mismatches += 1
                if len(counterexamples) < SAMPLE_CAP:
                    counterexamples.append(_sample(cell, lv, rv))
                if entry.policy == ASSERT:
                    break
            elif agreement is None:
                agreement = _sample(cell, lv, rv)
    seconds = time.perf_counter() - start
    certify_seconds = 0.0
    note = entry.note
    if entry.policy == ASSERT:
        if mismatches:
            tier = FAILS
        else:
            tier = HOLDS_ON_GRID
            if entry.certify is not None:
                start = time.perf_counter()
                if entry.certify(CERTIFY_N):
                    tier = CERTIFIED
                certify_seconds = time.perf_counter() - start
    else:
        tier = REPORT_ONLY
        outcome = (
            f"agrees at all {evaluated} evaluated cells"
            if mismatches == 0
            else f"disagrees at {mismatches} of {evaluated} evaluated cells"
        )
        note = f"{note} [{outcome}]" if note else outcome
        if not counterexamples and agreement is not None:
            counterexamples.append(agreement)
    return EntryResult(
        id=entry.id,
        anchor=entry.anchor,
        tier=tier,
        cells=evaluated,
        skipped=skipped,
        counterexamples=counterexamples,
        note=note,
        seconds=seconds,
        certify_seconds=certify_seconds,
    )


def certify_alpha_identity(oracle: Callable[[int], PolyQ], rhs: Callable[[int, PolyQ], PolyQ], n_max: int) -> bool:
    """True iff oracle(n) equals rhs(n, ALPHA), coefficient-wise, for 1..n_max."""
    return all(oracle(n) == rhs(n, ALPHA) for n in range(1, n_max + 1))


def pan_lemma_series(order: int, lam: RatLike, mu: RatLike, a: Sequence[RatLike]) -> TruncSeries:
    """f(mu*t/(1-lam*t))/(1-lam*t) through t^order, where f = sum_k a_k t^k."""
    if order < 1:
        raise ValueError("order must be >= 1")
    lam, mu = as_fraction(lam, "lambda"), as_fraction(mu, "mu")
    inner = [Fraction(0)] + [mu * lam ** (k - 1) for k in range(1, order + 1)]
    return TruncSeries(a, order).compose(TruncSeries(inner, order)) * geometric(lam, order)


def harmonic_genfunc(order: int, alpha: RatLike) -> TruncSeries:
    """log(1-alpha*t)/(1-t) through t^order; its t^n coefficient is -H_n(alpha)."""
    return log_one_minus(as_fraction(alpha, "alpha"), order) * geometric(1, order)


def run_suite(pattern: str = "*", n_max: int = 20, seed: int = 42) -> VerdictReport:
    """Run every registry entry whose id matches the fnmatch pattern.

    Only the matching entries' grids are built (registry.build_registry).
    Deterministic: identical (pattern, n_max, seed) give byte-identical JSON.
    """
    from .registry import build_registry

    start = time.perf_counter()
    results = [run_entry(e) for e in build_registry(n_max, seed, pattern)]
    return VerdictReport(
        suite=f"ghn:{pattern}",
        seed=seed,
        n_max=n_max,
        results=results,
        seconds=time.perf_counter() - start,
    )
