"""Command-line front end.

Subcommands: compute (sequence tables), eval (both sides of one registry
entry at a point), verify (run the identity registry and write a verdict
report), series (coefficient-exact series checks), table (per-cell view of
one registry entry).  All rationals cross this boundary as "p/q" strings.
main reads a named command's arguments once, with that command's own parser;
any other argv (none, -h, an unknown command) goes to the top-level parser.

eval builds no grid: it checks its id against registry.GROUP_OF, takes the
entry's sides from registry.declare with the id as the pattern, so that only
the group that holds the entry is built, casts each --param by the entry's
params (integers n, p, j, k; sequence specs for seq, b, c; rationals
otherwise) and calls rhs, then lhs, with those values in the order of params.
A --param given twice is a usage error.  series does the same for the entry
its --check names (SERIES_CHECKS), then runs that entry through
verifier.run_entry at n = 0..order, which builds each series the entry reads
once, to that order, and stops at the first differing coefficient.  Neither
passes a size: eval's sides build their tables to its n, and series's run
sizes them by its largest n.  table refuses an --id that is not in
registry.GROUP_OF, a pattern too, before it builds anything; it then passes
the id to registry.build_registry as the pattern and builds one grid.

verify --timings FILE writes a JSON sidecar beside the ledger: per entry, the
seconds of its cell loop and of its certify hook, its cells, skipped cells and
cells per second.  The ledger's bytes do not depend on it.  A FILE that is
the --out file (compared after os.path.realpath) is refused before the suite
runs, since the sidecar would overwrite the ledger.

Exit codes: 0 success, 1 verification failure, 2 usage/parse error (among
them a verify --filter that matches no entry id, and --timings naming the
--out file), 3 report or timings I/O failure.

Integer arguments are capped so that no input can request unbounded work:
verify and table take --n-max 1..30, compute takes --n-max 0..180, series
takes --order 1..180, table takes --limit >= 1, and eval takes its integer
parameters (n, p, j, k) in 0..48.  Sequence specs cap their own p
(sequences.SeqSpec): harmonic 1..48, stirling_row 0..180.  Every rational,
an eval or series --param or a spec value, is read by exact.parse_rat, which
rejects a numerator or denominator of more than 100 digits.  A value too long
for Python to print (sys.get_int_max_str_digits()) is a usage error that
names its field: a compute row by its n, an eval row by its label.
"""

from __future__ import annotations

import argparse
import csv
import functools
import os
import sys
from collections import Counter

from .errors import DomainError, OutOfValidityRangeError, SeqSpecError
from .exact import parse_rat
from .registry import GROUP_OF, build_registry, declare
from .sequences import materialize, parse_seq_spec
from .verifier import run_entry, run_suite

FORMATS = ("text", "json", "csv", "markdown")
GRID_CAP = 30  # verify/table --n-max
TERMS_CAP = 180  # compute --n-max, series --order
EVAL_CAP = 48  # eval n, p, j, k


class UsageError(Exception):
    pass


def _bounded_int(lo: int, hi: int | None = None):
    """argparse type for an integer in [lo, hi]; hi=None leaves it unbounded above."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < lo or (hi is not None and value > hi):
            bound = f"at least {lo}" if hi is None else f"between {lo} and {hi}"
            raise argparse.ArgumentTypeError(f"{value} is out of range: must be {bound}")
        return value

    return parse


def _emit_table(title: str, headers: list[str], rows: list[list[str]], fmt: str, out) -> None:
    if fmt == "json":
        import json  # here, not at the top: a text query never loads it

        payload = {"table": title, "columns": headers, "rows": [dict(zip(headers, r)) for r in rows]}
        out.write(json.dumps(payload, indent=2) + "\n")
    elif fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(rows)
    elif fmt == "markdown":
        out.write("| " + " | ".join(headers) + " |\n")
        out.write("|" + "|".join("---" for _ in headers) + "|\n")
        for r in rows:
            out.write("| " + " | ".join(r) + " |\n")
    else:
        widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h) for i, h in enumerate(headers)]
        out.write("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip() + "\n")
        for r in rows:
            out.write("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip() + "\n")


def _parse_params(pairs: list[str]) -> dict[str, str]:
    out = {}
    for item in pairs or []:
        key, eq, value = item.partition("=")
        if not eq:
            raise UsageError(f"expected name=value, got {item!r}")
        key = key.strip()
        if key in out:
            raise UsageError(f"parameter {key!r} is given twice")
        out[key] = value.strip()
    return out


_INT_PARAMS = {"n", "p", "j", "k"}
_SPEC_PARAMS = {"b", "c", "seq"}
_eval_int = _bounded_int(0, EVAL_CAP)


def _cast_params(raw: dict[str, str], names: list[str]) -> dict:
    missing = [name for name in names if name not in raw]
    if missing:
        raise UsageError(f"missing --param {', '.join(missing)}")
    extra = [name for name in raw if name not in names]
    if extra:
        raise UsageError(f"unknown parameter(s) {', '.join(extra)}; expected {', '.join(names) or 'no parameters'}")
    out = {}
    for name in names:
        value = raw[name]
        try:
            if name in _INT_PARAMS:
                out[name] = _eval_int(value)
            elif name in _SPEC_PARAMS:
                out[name] = parse_seq_spec(value)
            else:
                out[name] = parse_rat(value)
        except (ValueError, ZeroDivisionError, SeqSpecError, argparse.ArgumentTypeError) as exc:
            raise UsageError(f"bad value for {name}: {exc}") from exc
    for name in _SPEC_PARAMS.intersection(names):
        out[name] = tuple(materialize(out[name], out["n"]))  # a sequence parameter is used as its terms 0..n
    return out


# Names eval took before it reached every registry id: alias -> registry id,
# and the name under which these ids take their sequence parameter `seq`.
ALIASES = {"lemma2.1": "lemma2.1-coherence", "thm2.3": "thm2.3-general", "as-np": "as-newcoffey"}
SEQ_NAMES = {"lemma2.1": "b", "thm2.3": "c", "thm3.3-eqnnew8": "c"}

# Rows printed after lhs, rhs and equal: id -> (row, the entry whose rhs is
# another reading of the same display).
READINGS = {
    "as-newcoffey1": ("rhs_as_printed", "as-newcoffey1-as-printed"),
    "concl-item3": ("rhs_square_reading", "concl-item3-square"),
    "concl-item4": ("rhs_square_reading", "concl-item4-square"),
}

# series --check name -> the registry entry it runs at n = 0..order
SERIES_CHECKS = {"pan-lemma": "panequa1-series", "genfunc-alpha": "genfunc-alpha", "genfunc-skew": "genfunc-skew"}


def _shown(field: str, value) -> str:
    """str(value); a value past Python's limit on digits printed is a usage error naming field."""
    try:
        return str(value)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise UsageError(f"{field} has more than {limit} digits; use smaller parameters") from None


def cmd_compute(args) -> int:
    spec = parse_seq_spec(args.seq)
    rows = [[str(n), _shown(f"the value at n={n}", v)] for n, v in enumerate(materialize(spec, args.n_max))]
    _emit_table(args.seq, ["n", "value"], rows, args.format, sys.stdout)
    return 0


def cmd_eval(args) -> int:
    entry_id = ALIASES.get(args.id, args.id)
    if entry_id not in GROUP_OF:
        raise UsageError(f"unknown identity id {args.id!r}; known: {', '.join(sorted([*GROUP_OF, *ALIASES]))}")
    [entry] = declare(pattern=entry_id)
    names = [SEQ_NAMES.get(args.id, "seq") if name == "seq" else name for name in entry.params]
    cast = _cast_params(_parse_params(args.param), names)
    point = [cast[name] for name in names]
    try:
        # the closed form's domain check runs before the oracle can divide by zero
        rhs = entry.rhs(*point)
        lhs = entry.lhs(*point)
        rows = [["lhs", _shown("lhs", lhs)], ["rhs", _shown("rhs", rhs)], ["equal", "true" if lhs == rhs else "false"]]
        if entry.id in READINGS:
            label, other = READINGS[entry.id]
            [reading] = declare(pattern=other)
            rows.append([label, _shown(label, reading.rhs(*point))])
    except (DomainError, OutOfValidityRangeError, ValueError, ZeroDivisionError) as exc:
        raise UsageError(str(exc)) from exc
    _emit_table(args.id, ["field", "value"], rows, args.format, sys.stdout)
    return 0


def _write_file(path: str, text: str, what: str) -> bool:
    """Write text to path; on an OSError say so on stderr, naming what, and return False."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {what}: {exc}", file=sys.stderr)
        return False
    return True


def cmd_verify(args) -> int:
    if args.out and args.timings and os.path.realpath(args.out) == os.path.realpath(args.timings):
        raise UsageError(f"--out and --timings name the same file, {args.out!r}")
    report = run_suite(args.filter, args.n_max, args.seed)
    if not report.results:  # a mistyped filter is not a clean run
        raise UsageError(f"no entry id matches {args.filter!r}")
    payload = report.to_json() if args.format == "json" else report.to_markdown()
    if not args.out:
        sys.stdout.write(payload)
    elif not _write_file(args.out, payload, "report"):
        return 3
    if args.timings and not _write_file(args.timings, report.to_timings_json(), "timings"):
        return 3
    tiers = Counter(r.tier for r in report.results)
    summary = ", ".join(f"{k}={v}" for k, v in sorted(tiers.items()))
    print(
        f"{len(report.results)} entries ({summary}) in {report.seconds:.2f}s",
        file=sys.stderr,
    )
    return 1 if report.has_assert_failure() else 0


def cmd_series(args) -> int:
    [entry] = declare(SERIES_CHECKS[args.check])
    point = _cast_params(_parse_params(args.param), [name for name in entry.params if name != "n"])
    # run_entry visits n = 0..order in order and stops an ASSERT entry at its first failing cell
    result = run_entry(entry.replace(cells=[{**point, "n": n} for n in range(args.order + 1)]))
    if not result.counterexamples:
        print(f"PASS: {args.check} coefficient-exact through order {args.order}")
        return 0
    first = result.counterexamples[0]
    print(f"FAIL: {args.check} first differing coefficient at n={first['params']['n']}: "
          f"lhs={first['lhs']} rhs={first['rhs']}")
    return 1


def cmd_table(args) -> int:
    # a pattern that matches some id, such as 'hockey*', is not an id; an id is
    # build_registry's pattern, so only its grid is built
    if args.id not in GROUP_OF:
        raise UsageError(f"unknown entry id {args.id!r}; known: {', '.join(sorted(GROUP_OF))}")
    [entry] = build_registry(args.n_max, args.seed, args.id)
    param_names = sorted({name for cell in entry.cells for name in cell})
    rows = []

    def on_cell(cell, lv, rv):
        if lv is None:
            shown = ["-", "-", "skipped"]
        else:
            shown = [str(lv), str(rv), "yes" if lv == rv else "NO"]
        rows.append([str(cell.get(name, "")) for name in param_names] + shown)

    result = run_entry(entry, on_cell=on_cell)
    rows = rows[: args.limit]
    _emit_table(args.id, param_names + ["lhs", "rhs", "equal"], rows, args.format, sys.stdout)
    print(f"tier: {result.tier} ({result.cells} cells, {result.skipped} skipped)", file=sys.stderr)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it unchanged.

    Its commands attribute maps each command name to that command's parser.
    """
    parser = argparse.ArgumentParser(prog="ghn", description="exact generalized-harmonic identity toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    p = sub.add_parser("compute", help="tabulate a sequence")
    p.add_argument("--seq", required=True, help='e.g. "harmonic:p=1,alpha=1/3"')
    p.add_argument("--n-max", type=_bounded_int(0, TERMS_CAP), default=10)
    p.add_argument("--format", choices=FORMATS, default="text")

    p = sub.add_parser("eval", help="evaluate a closed form at one parameter point")
    p.add_argument("--id", required=True)
    p.add_argument("--param", action="append", default=[], help="name=value (repeatable)")
    p.add_argument("--format", choices=FORMATS, default="text")

    p = sub.add_parser("verify", help="run the identity registry and report tiers")
    p.add_argument("--filter", default="*", help="fnmatch pattern on entry ids")
    p.add_argument("--n-max", type=_bounded_int(1, GRID_CAP), default=20)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--format", choices=("json", "md"), default="json")
    p.add_argument("--out", default=None)
    p.add_argument("--timings", default=None, help="also write each entry's timings, as JSON, to this file")

    p = sub.add_parser("series", help="coefficient-exact series checks")
    p.add_argument("--check", choices=SERIES_CHECKS, required=True)
    p.add_argument("--order", type=_bounded_int(1, TERMS_CAP), default=40)
    p.add_argument("--param", action="append", default=[])

    p = sub.add_parser("table", help="per-cell table for one registry entry")
    p.add_argument("--id", required=True)
    p.add_argument("--n-max", type=_bounded_int(1, GRID_CAP), default=8)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--limit", type=_bounded_int(1), default=None)
    p.add_argument("--format", choices=FORMATS, default="markdown")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in parser.commands:  # parse_args would read argv here, then again in this parser
        args, extra = parser.commands[argv[0]].parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if extra:  # reported as parse_args reports them
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    else:  # no command named: only the top-level parser prints its usage
        args = parser.parse_args(argv)
    try:
        # looked up at call time, so a rebound cmd_* function is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    except (UsageError, SeqSpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
