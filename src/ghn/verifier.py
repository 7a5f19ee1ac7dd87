"""Grid execution, polynomial certification, and tiered verdict reporting.

An IdentityEntry pairs two sides, functions of its parameters, with a finite
grid of exact rational parameter points.  run_entry grades it:

  CERTIFIED      its rhs over Q[alpha] equals a direct sum for n <= 30 (strongest),
  HOLDS_ON_GRID  exact agreement at every evaluated cell,
  FAILS          at least one mismatch (ASSERT entries only), carrying the
                 lexicographically smallest failing cell,
  REPORT_ONLY    outcome recorded without judgement (conjectures, suspected
                 typos); such rows always carry at least one sample cell.

Cells whose parameters violate an identity's hypotheses (DomainError or
OutOfValidityRangeError) are skipped and counted, never failed.  Reports are
deterministic functions of (filter, n_max, seed): cells are iterated in
sorted order and wall-clock timings are kept out of the serialized formats.
"""

from __future__ import annotations

import fnmatch
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .errors import DomainError, OutOfValidityRangeError
from .exact import RatLike, binom_int
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

Cell = dict


@dataclass
class IdentityEntry:
    """One catalogued identity: two sides, the names they take, a grid, a policy.

    ``lhs`` and ``rhs`` take the values of the names in ``params``, in that
    order, and return an exact value; ``cells`` are the grid points (dicts
    holding at least the names in ``params``) that run_entry visits, and may
    carry display-only names besides them.  An entry with ``certify`` has an
    ``rhs(n, alpha)`` that is, at alpha = ALPHA, a polynomial in alpha;
    ``certify(n_max)`` compares it coefficient-wise with a direct-sum oracle
    over Q[alpha] for every n <= n_max.
    """

    id: str
    anchor: str
    lhs: Callable[..., Fraction]
    rhs: Callable[..., Fraction]
    params: tuple[str, ...] = ()
    cells: list[Cell] = field(default_factory=list)
    policy: str = ASSERT
    note: str = ""
    certify: Callable[[int], bool] | None = None


@dataclass
class EntryResult:
    id: str
    anchor: str
    tier: str
    cells: int
    skipped: int
    counterexamples: list[dict]
    note: str
    seconds: float


@dataclass
class VerdictReport:
    """Per-entry outcomes for one suite run."""

    suite: str
    seed: int
    n_max: int
    results: list[EntryResult] = field(default_factory=list)
    seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "n_max": self.n_max,
            "entries": [
                {
                    "id": r.id,
                    "anchor": r.anchor,
                    "tier": r.tier,
                    "cells": r.cells,
                    "skipped": r.skipped,
                    "counterexamples": r.counterexamples,
                    "note": r.note,
                }
                for r in self.results
            ],
        }

    def to_json(self) -> str:
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
        shown = False
        for r in self.results:
            if not r.counterexamples:
                continue
            if not shown:
                lines.append("## Sample cells")
                lines.append("")
                shown = True
            for ce in r.counterexamples:
                params = ", ".join(f"{k}={v}" for k, v in ce["params"].items())
                verdict = "==" if ce["lhs"] == ce["rhs"] else "!="
                lines.append(f"- `{r.id}` at {params}: lhs={ce['lhs']} {verdict} rhs={ce['rhs']}")
        lines.append("")
        return "\n".join(lines)

    def has_assert_failure(self) -> bool:
        return any(r.tier == FAILS for r in self.results)


def rand_rat(rng: random.Random) -> Fraction:
    """Uniform reduced rational with numerator in [-50, 50], denominator in [1, 50]."""
    return Fraction(rng.randint(-50, 50), rng.randint(1, 50))


def binomial_oracle(n: int, w: Sequence[RatLike], mu: RatLike = 1, lam: RatLike = 1) -> Fraction:
    """Exact sum_{k=0..n} C(n,k) mu^k lam^(n-k) w[k], summed term by term.

    The direct-sum oracle behind every binomial-weighted identity; it uses no
    transform, so it stays independent of the closed forms it checks.  With
    mu = a/b and lam = c/d, the integer C(n,k) (ad)^k (bc)^(n-k) multiplies
    w[k] as it is (a Fraction, or a PolyQ over Q[alpha]), and the sum is
    divided once by (bd)^n.
    """
    mu, lam = Fraction(mu), Fraction(lam)
    x = mu.numerator * lam.denominator
    y = mu.denominator * lam.numerator
    total = 0
    for k in range(n + 1):
        total += binom_int(n, k) * x**k * y ** (n - k) * w[k]
    return total * Fraction(1, (mu.denominator * lam.denominator) ** n)


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

    ``on_cell(cell, lhs, rhs)`` sees each visited cell in order, with
    ``lhs = rhs = None`` for a skipped cell; an ASSERT entry stops at its
    first failing cell.
    """
    start = time.perf_counter()
    # cell values are ints and Fractions, which compare with each other exactly
    cells = sorted(entry.cells, key=lambda cell: tuple(sorted(cell.items())))
    evaluated = 0
    skipped = 0
    mismatches = 0
    counterexamples: list[dict] = []
    agreement: dict | None = None
    for cell in cells:
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
    note = entry.note
    if entry.policy == ASSERT:
        if mismatches:
            tier = FAILS
        else:
            tier = HOLDS_ON_GRID
            if entry.certify is not None and entry.certify(CERTIFY_N):
                tier = CERTIFIED
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
        seconds=time.perf_counter() - start,
    )


def certify_alpha_identity(oracle: Callable[[int], PolyQ], rhs: Callable[[int, PolyQ], PolyQ], n_max: int) -> bool:
    """True iff oracle(n) equals rhs(n, ALPHA), coefficient-wise, for 1..n_max."""
    return all(oracle(n) == rhs(n, ALPHA) for n in range(1, n_max + 1))


def pan_lemma_series(order: int, lam: RatLike, mu: RatLike, a: Sequence[RatLike]) -> TruncSeries:
    """f(mu*t/(1-lam*t))/(1-lam*t) through t^order, where f = sum_k a_k t^k."""
    if order < 1:
        raise ValueError("order must be >= 1")
    lam, mu = Fraction(lam), Fraction(mu)
    inner = [Fraction(0)] + [mu * lam ** (k - 1) for k in range(1, order + 1)]
    return TruncSeries(a, order).compose(TruncSeries(inner, order)) * geometric(lam, order)


def harmonic_genfunc(order: int, alpha: RatLike) -> TruncSeries:
    """log(1-alpha*t)/(1-t) through t^order; its t^n coefficient is -H_n(alpha)."""
    return log_one_minus(alpha, order) * geometric(1, order)


def run_suite(pattern: str = "*", n_max: int = 20, seed: int = 42) -> VerdictReport:
    """Run every registry entry whose id matches the fnmatch pattern.

    Deterministic: identical (pattern, n_max, seed) give byte-identical JSON.
    """
    from .registry import build_registry

    start = time.perf_counter()
    entries = [e for e in build_registry(n_max, seed) if fnmatch.fnmatchcase(e.id, pattern)]
    results = [run_entry(e) for e in entries]
    return VerdictReport(
        suite=f"ghn:{pattern}",
        seed=seed,
        n_max=n_max,
        results=results,
        seconds=time.perf_counter() - start,
    )
