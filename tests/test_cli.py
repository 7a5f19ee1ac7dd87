import argparse
import ast
import csv
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ghn.cli import ALIASES, READINGS, SEQ_NAMES, SERIES_CHECKS, build_parser, main, run
from ghn.polyseries import TruncSeries
from ghn.registry import GROUP_OF, _GROUPS, build_registry, declare
from ghn.sequences import harmonic_table, materialize, parse_seq_spec, skew_harmonic
from ghn.verifier import ASSERT, REPORT_ONLY, IdentityEntry, binomial_oracle, run_suite


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage errors and -h
        return exc.code


# Loads ghn in a fresh interpreter, runs a suite, a series check and an eval, and
# prints the modules that this loaded, each line with the exit codes: first the
# top-level modules beyond ghn and the standard library, then the slow-to-import
# standard modules (dataclasses pulls in inspect, which pulls in ast, dis and tokenize).
_LOADED_BY_A_RUN = """
import sys
before = set(sys.modules)
import ghn, ghn.cli
ghn.run_suite("hockey*", 3, 1).to_json()
codes = [ghn.cli.main(argv) for argv in (
    ["series", "--check", "genfunc-alpha", "--order", "7", "--param", "alpha=1/3"],
    ["eval", "--id", "hockey-stick", "--param", "n=3", "--param", "x=1/2"],
)]
loaded = set(sys.modules) - before
print(sorted({name.partition(".")[0] for name in loaded} - set(sys.stdlib_module_names) - {"ghn"}), codes)
print(sorted(loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"}), codes)
"""


def _fresh_interpreter(script: str) -> list[str]:
    # the tests import hypothesis, sympy, inspect and json themselves, so only a
    # fresh interpreter shows what the runtime loads
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def _loaded_by_a_run() -> list[str]:
    return _fresh_interpreter(_LOADED_BY_A_RUN)[-2:]


def test_runtime_loads_only_the_standard_library():
    assert _loaded_by_a_run()[0] == "[] [0, 0]"


def test_runtime_loads_no_slow_standard_module():
    # dataclasses and inspect, with the modules they load, would take about a third of import ghn
    assert _loaded_by_a_run()[1] == "[] [0, 0]"


# Loads ghn in a fresh interpreter and runs one eval that prints text; json is
# loaded only where json is written (VerdictReport.to_json, to_timings_json and
# --format json), so this run leaves it out.
_JSON_AFTER_A_TEXT_QUERY = """
import contextlib, io, sys
before = set(sys.modules)
import ghn, ghn.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = ghn.cli.main(["eval", "--id", "hockey-stick", "--param", "n=3", "--param", "x=1/2"])
print(sorted({"json", "json.decoder", "json.encoder", "json.scanner"} & (set(sys.modules) - before)), code)
"""


def test_a_text_query_does_not_load_json():
    assert _fresh_interpreter(_JSON_AFTER_A_TEXT_QUERY)[-1] == "[] 0"


def test_sources_parse_as_the_oldest_supported_python():
    # pyproject.toml says requires-python >= 3.10; ast rejects later syntax, such as except*
    for path in sorted((Path(__file__).resolve().parent.parent / "src" / "ghn").glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


# Snapshots every module-level list, dict and set of every ghn module in a fresh
# interpreter, runs the ledger, two compute queries, an eval and a series check,
# and prints the names whose value changed, with the exit codes.
_MODULE_CONTAINERS_CHANGED = """
import contextlib, copy, io, sys
import ghn, ghn.cli

def snapshot():
    return {
        f"{name}.{attr}": copy.deepcopy(value)
        for name, mod in sorted(sys.modules.items()) if name == "ghn" or name.startswith("ghn.")
        for attr, value in vars(mod).items()
        if not attr.startswith("__") and isinstance(value, (list, dict, set))
    }

before = snapshot()
ghn.run_suite("*", 8, 42)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [ghn.cli.main(argv) for argv in (
        ["compute", "--seq", "bernoulli"],
        ["compute", "--seq", "stirling_row:p=12"],
        ["eval", "--id", "sanchez-weight", "--param", "n=9", "--param", "k=4", "--param", "p=5"],
        ["series", "--check", "pan-lemma", "--order", "40", "--param", "lambda=2/3", "--param", "mu=5/7", "--param", "alpha=2/5"],
    )]
after = snapshot()
print(sorted(k for k in before.keys() | after.keys() if before.get(k) != after.get(k)), codes)
"""


def test_no_module_level_container_grows_across_runs():
    # every memo is the run memo, which is dropped when its run ends; a module-level
    # cache of values would outlive it and could hide a kernel fault from later runs,
    # the series tables that a series run sizes included
    assert _fresh_interpreter(_MODULE_CONTAINERS_CHANGED)[-1] == "[] [0, 0, 0, 0]"


def test_compute_harmonic_table(capsys):
    code, out, _ = run_cli(["compute", "--seq", "harmonic:p=1,alpha=1", "--n-max", "4"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["n", "value"]
    assert lines[-1].split() == ["4", "25/12"]


def test_compute_alpha_zero_all_zero(capsys):
    code, out, _ = run_cli(["compute", "--seq", "harmonic:p=1,alpha=0", "--n-max", "5"], capsys)
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        assert line.split()[1] == "0"


def test_compute_stirling_row(capsys):
    code, out, _ = run_cli(
        ["compute", "--seq", "stirling_row:p=4", "--n-max", "4", "--format", "csv"], capsys
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "value"]
    assert [r[1] for r in rows[1:]] == ["0", "1", "7", "6", "1"]


def test_compute_csv_round_trip(capsys):
    code, out, _ = run_cli(
        ["compute", "--seq", "harmonic:p=2,alpha=-1/3", "--n-max", "8", "--format", "csv"], capsys
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    parsed = [Fraction(v) for _, v in rows]
    from ghn.sequences import harmonic_p

    assert parsed == [harmonic_p(n, 2, Fraction(-1, 3)) for n in range(9)]


def test_compute_too_long_term_exits_2(capsys):
    # a term past str()'s digit limit is a usage error, not a traceback
    code, out, err = run_cli(["compute", "--seq", "harmonic:p=48,alpha=7777777777/11", "--n-max", "180"], capsys)
    assert code == 2
    assert out == "" and err.startswith("error:") and "digits" in err


@pytest.mark.parametrize(
    "args, field",
    [
        (["compute", "--seq", "powers:base={x}", "--n-max", "180"], "the value at n=44"),
        (["eval", "--id", "gen-harmonic-relation", "--param", "n=48", "--param", "alpha={x}"], "lhs"),
    ],
)
def test_too_long_value_names_its_field(capsys, args, field):
    # a value past Python's limit on printed digits is refused by the field that holds
    # it, not by the Python limit that refuses to print it
    x = "7" * 100 + "/" + "3" * 99 + "1"
    code, out, err = run_cli([a.format(x=x) for a in args], capsys)
    assert code == 2 and out == ""
    assert err == f"error: {field} has more than 4300 digits; use smaller parameters\n"


def test_compute_spec_with_spaces_around_kind_and_key(capsys):
    outputs = []
    for spec in ("harmonic : p=1", "harmonic:p = 1"):
        code, out, err = run_cli(["compute", "--seq", spec, "--n-max", "6", "--format", "csv"], capsys)
        assert code == 0 and err == ""
        outputs.append(list(csv.reader(io.StringIO(out)))[1:])
    assert outputs[0] == outputs[1] == [[str(n), str(h)] for n, h in enumerate(harmonic_table(6, 1, 1))]


def test_compute_bad_spec_exits_2(capsys):
    code, _, err = run_cli(["compute", "--seq", "nosuch:p=1"], capsys)
    assert code == 2
    assert "unknown sequence kind" in err


def test_eval_known_ids(capsys):
    code, out, _ = run_cli(
        ["eval", "--id", "knuth-flajolet", "--param", "n=2", "--param", "lambda=1/2"], capsys
    )
    assert code == 0
    assert "16/15" in out
    assert "true" in out
    # at n = 0 both sums are their k = 0 term, 1/lambda
    code, out, _ = run_cli(["eval", "--id", "knuth-flajolet", "--param", "n=0", "--param", "lambda=3/2"], capsys)
    assert code == 0
    assert [line.split() for line in out.strip().splitlines()[-3:]] == [["lhs", "2/3"], ["rhs", "2/3"], ["equal", "true"]]
    code, out, _ = run_cli(
        [
            "eval",
            "--id",
            "thm3.3-eqnnew8",
            "--param",
            "n=3",
            "--param",
            "alpha=1/2",
            "--param",
            "c=fibonacci:doubled=true",
            "--format",
            "json",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    rows = {r["field"]: r["value"] for r in payload["rows"]}
    assert rows["lhs"] == rows["rhs"]


def test_group_index_agrees_with_declare():
    groups = [[e.id for e in group()] for group in _GROUPS]
    ids = [entry_id for group in groups for entry_id in group]
    assert ids == [e.id for e in declare()] == list(GROUP_OF) and len(set(ids)) == len(ids) == 55
    assert all(GROUP_OF[entry_id] == g for g, group in enumerate(groups) for entry_id in group)


@pytest.mark.parametrize(
    "argv, built",
    [
        (["--check", "pan-lemma", "--order", "56", "--param", "lambda=2/3", "--param", "mu=-5/7", "--param", "alpha=2/5"], "pan_lemma_series"),
        (["--check", "genfunc-alpha", "--order", "180", "--param", "alpha=-3/11"], "harmonic_genfunc"),
    ],
)
def test_series_builds_its_series_once_at_its_order(argv, built, capsys, monkeypatch):
    # the run over n = 0..order sizes the entry's series table by its largest n, with no size passed
    import ghn.registry as registry_mod

    calls = []
    for name in ("pan_lemma_series", "harmonic_genfunc"):
        real = getattr(registry_mod, name)
        monkeypatch.setattr(registry_mod, name, lambda order, *args, real=real, name=name: calls.append((name, order)) or real(order, *args))
    code, out, _ = run_cli(["series", *argv], capsys)
    assert code == 0 and out.startswith("PASS:")
    assert calls == [(built, int(argv[3]))]


def _only_groups_of(monkeypatch, *entry_ids):
    """Make the builder of every group that holds none of entry_ids raise."""
    import ghn.registry as registry_mod

    kept = {GROUP_OF[entry_id] for entry_id in entry_ids}

    def refused():
        raise AssertionError("built a group that holds no entry asked for")

    monkeypatch.setattr(registry_mod, "_GROUPS", tuple(group if g in kept else refused for g, group in enumerate(_GROUPS)))


# one in-domain point per id that eval took before it reached the whole registry
EVAL_POINTS = {
    "gen-harmonic-relation": ["n=5", "alpha=2/3"],
    "knuth-flajolet": ["n=4", "lambda=1/2"],
    "pan-thm3.2": ["n=6", "mu=2", "lambda=1", "alpha=-1/3"],
    "idi1-alternating": ["n=5", "alpha=3/2"],
    "spivey-generalization": ["n=5", "alpha=-2"],
    "frontczak-variant": ["n=7"],
    "skew-transform": ["n=7"],
    "eq-eulerbnew": ["n=6", "j=2", "a=1/2"],
    "as-np": ["n=5", "p=2", "z=1/2", "alpha=2"],
    "as-p1-exemple1": ["n=5", "z=2", "alpha=1/3"],
    "as-newcoffey1": ["n=5", "p=3"],
    "thm3.3-eqnnew8": ["n=5", "alpha=1/2", "c=lucas"],
    "lemma2.1": ["n=5", "lambda=-1/2", "b=harmonic:p=1,alpha=1/3"],
    "thm2.3": ["n=5", "lambda=3", "c=bernoulli"],
    "concl-item2": ["n=5", "alpha=2"],
    "concl-item3": ["n=5", "alpha=2"],
    "concl-item4": ["n=5", "alpha=2"],
}
GRID = {e.id: e for e in build_registry(3, 42)}
SIDES = {e.id: e for e in declare()}
EVAL_IDS = sorted([*SIDES, *ALIASES])


def _seq_name(eval_id):
    return SEQ_NAMES.get(eval_id, "seq")


def _grid_point(eval_id, **fixed):
    """--param values from the first cell of the entry's n_max 3 grid, overridden by `fixed`."""
    entry = SIDES[ALIASES.get(eval_id, eval_id)]
    cell = {**GRID[entry.id].cells[0], **fixed}
    out = []
    for name in entry.params:
        if name == "seq":
            out.append(f"{_seq_name(eval_id)}=lucas")
        else:
            out.append(f"{name}={cell[name]}")
    return out


def _at(side, entry, cell):
    """side called with the values of the entry's params at cell."""
    return side(*(cell[p] for p in entry.params))


def _eval_rows(argv, capsys):
    code, out, err = run_cli(argv + ["--format", "json"], capsys)
    assert code == 0, err
    return {r["field"]: r["value"] for r in json.loads(out)["rows"]}


@pytest.mark.parametrize("entry_id", EVAL_IDS)
def test_eval_every_id(entry_id, capsys, monkeypatch):
    argv = ["eval", "--id", entry_id]
    point = EVAL_POINTS.get(entry_id) or _grid_point(entry_id, n=3)
    for param in point:
        argv += ["--param", param]
    entry = SIDES[ALIASES.get(entry_id, entry_id)]
    _only_groups_of(monkeypatch, entry.id, *([READINGS[entry.id][1]] if entry.id in READINGS else []))
    rows = _eval_rows(argv, capsys)
    if entry_id in ("concl-item3", "concl-item4"):
        assert "rhs_square_reading" in rows
    elif entry.policy == ASSERT:
        assert rows["equal"] == "true" and rows["lhs"] == rows["rhs"]
    else:
        assert entry.policy == REPORT_ONLY and rows["equal"] in ("true", "false")


@pytest.mark.parametrize("entry_id", sorted(i for i, e in SIDES.items() if "seq" not in e.params))
def test_eval_agrees_with_table(entry_id, capsys):
    code, out, _ = run_cli(
        ["table", "--id", entry_id, "--n-max", "3", "--seed", "42", "--format", "json", "--limit", "1"], capsys
    )
    assert code == 0
    (row,) = json.loads(out)["rows"]
    assert row["equal"] != "skipped"
    argv = ["eval", "--id", entry_id]
    for name in SIDES[entry_id].params:
        argv += ["--param", f"{name}={row[name]}"]
    rows = _eval_rows(argv, capsys)
    assert (rows["lhs"], rows["rhs"]) == (row["lhs"], row["rhs"])


@pytest.mark.parametrize(
    "eval_id", sorted([i for i, e in SIDES.items() if "seq" in e.params] + ["lemma2.1", "thm2.3"])
)
def test_eval_seq_ids_match_sides(eval_id, capsys):
    argv = ["eval", "--id", eval_id]
    for param in _grid_point(eval_id, n=4, p=2, alpha=Fraction(2, 3), **{"lambda": Fraction(1, 2)}):
        argv += ["--param", param]
    rows = _eval_rows(argv, capsys)
    entry = SIDES[ALIASES.get(eval_id, eval_id)]
    point = {**GRID[entry.id].cells[0], "n": 4, "p": 2, "alpha": Fraction(2, 3), "lambda": Fraction(1, 2)}
    point["seq"] = tuple(materialize(parse_seq_spec("lucas"), 4))
    assert (rows["lhs"], rows["rhs"]) == (str(_at(entry.lhs, entry, point)), str(_at(entry.rhs, entry, point)))


def test_eval_reading_rows_come_from_sibling_entries(capsys):
    rows = _eval_rows(["eval", "--id", "as-newcoffey1", "--param", "n=5", "--param", "p=3"], capsys)
    assert rows["rhs_as_printed"] == str(SIDES["as-newcoffey1-as-printed"].rhs(5, 3))
    rows = _eval_rows(["eval", "--id", "concl-item4", "--param", "n=5", "--param", "alpha=2"], capsys)
    assert rows["rhs_square_reading"] == str(SIDES["concl-item4-square"].rhs(5, Fraction(2)))


@pytest.mark.parametrize("n", [0, 1])
def test_eval_small_n_never_raises(n, capsys):
    # a point off every grid may leave an identity's domain: exit 2, never a traceback
    for eval_id in EVAL_IDS:
        argv = ["eval", "--id", eval_id]
        for param in _grid_point(eval_id, n=n):
            argv += ["--param", param]
        code, out, err = run_cli(argv, capsys)
        assert code in (0, 2), (eval_id, err)
        assert (code == 0) == bool(out) and (code == 2) == err.startswith("error:")


def test_eval_alpha_off_every_grid(capsys):
    for eval_id in EVAL_IDS:
        entry = SIDES[ALIASES.get(eval_id, eval_id)]
        if "alpha" not in entry.params:
            continue
        argv = ["eval", "--id", eval_id]
        for param in _grid_point(eval_id, n=4, p=2, alpha=Fraction(-13, 17)):
            argv += ["--param", param]
        rows = _eval_rows(argv, capsys)
        assert rows["equal"] == "true" or entry.policy == REPORT_ONLY, eval_id


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--seq", "harmonic", "--n-max", "-1"],
        ["compute", "--seq", "harmonic", "--n-max", "181"],
        ["series", "--check", "genfunc-skew", "--order", "-2"],
        ["series", "--check", "genfunc-skew", "--order", "181"],
        ["verify", "--n-max", "0"],
        ["verify", "--n-max", "31"],
        ["table", "--id", "knuth-flajolet", "--n-max", "0"],
        ["table", "--id", "knuth-flajolet", "--limit", "0"],
        ["table", "--id", "knuth-flajolet", "--limit", "two"],
        ["eval", "--id", "pan-thm3.2", "--param", "n=99999999", "--param", "mu=1", "--param", "lambda=1",
         "--param", "alpha=1"],
        ["eval", "--id", "as-newcoffey1", "--param", "n=3", "--param", "p=-1"],
        ["compute", "--seq", "harmonic:p=49"],
        ["compute", "--seq", "stirling_row:p=181"],
    ],
)
def test_out_of_range_integers_exit_2(argv, capsys):
    # an exception escaping main would be a traceback; none may
    code = _exit_code(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err and ("out of range" in err or "expected an integer" in err)


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--seq", "fibonacci:doubled=7"],
        ["compute", "--seq", "lucas:doubled=1/2"],
        ["compute", "--seq", "harmonic:alpha=true"],
        ["compute", "--seq", "powers:base=false"],
        ["eval", "--id", "thm2.3", "--param", "n=3", "--param", "lambda=2", "--param", "c=fibonacci:doubled=5"],
        ["compute", "--seq", "harmonic:alpha=1,alpha=2"],
        ["compute", "--seq", "fibonacci:doubled=true,doubled=false"],
    ],
)
def test_bad_spec_values_exit_2(argv, capsys):
    # doubled takes only true/false, every other spec value is a rational, and no key repeats
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == "" and err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--id", "gen-harmonic-relation", "--param", "n=1", "--param", "alpha=1e5000"],
        ["compute", "--seq", "powers:base=1e5000"],
        ["compute", "--seq", "laguerre:x=1/" + "7" * 101],
        ["series", "--check", "genfunc-alpha", "--param", "alpha=" + "3" * 101],
    ],
)
def test_oversized_rationals_exit_2(argv, capsys):
    # a numerator or denominator of more than 100 digits is a usage error
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == "" and err.startswith("error:") and "at most 100 digits" in err


def test_successive_calls_share_no_parsed_values(capsys):
    # the parser is built once per process; each call still parses afresh
    first = ["eval", "--id", "pan-thm3.2", "--param", "n=2", "--param", "mu=1", "--param", "lambda=1",
             "--param", "alpha=1/2"]
    code, out, err = run_cli(first, capsys)
    assert code == 0, err
    code, again, err = run_cli(["eval", "--id", "idi1-alternating", "--param", "n=3", "--param", "alpha=1/3"], capsys)
    assert code == 0, err
    assert "equal  true" in again
    assert run_cli(first, capsys) == (0, out, "")


_TOP_USAGE = "usage: ghn [-h] {compute,eval,verify,series,table} ...\n"
_NO_SUCH_COMMAND = "ghn: error: argument command: invalid choice: {!r} (choose from 'compute', 'eval', 'verify', 'series', 'table')\n"
_EVAL_USAGE = "usage: ghn eval [-h] --id ID [--param PARAM]\n                [--format {text,json,csv,markdown}]\n"
_BERNOULLI_TO_3 = "n  value\n0  1\n1  -1/2\n2  1/6\n3  0\n"
_PAN_POINT = ["--id", "pan-thm3.2", "--param", "n=6", "--param", "mu=2", "--param", "lambda=1", "--param", "alpha=-1/3"]

# argv -> exit code, stdout, stderr, as main gave them when it parsed every argv with the
# top-level parser; "help:NAME" stands for the -h text of the top-level parser ("help:") or
# of command NAME's parser, which argparse prints as format_help() gives it
PARSE_CONTRACT = [
    ([], 2, "", _TOP_USAGE + "ghn: error: the following arguments are required: command\n"),
    (["-h"], 0, "help:", ""),
    (["--help"], 0, "help:", ""),
    (["-h", "eval"], 0, "help:", ""),
    (["frobnicate"], 2, "", _TOP_USAGE + _NO_SUCH_COMMAND.format("frobnicate")),
    (["frobnicate", "--x"], 2, "", _TOP_USAGE + _NO_SUCH_COMMAND.format("frobnicate")),
    (["--"], 2, "", _TOP_USAGE + "ghn: error: the following arguments are required: command\n"),
    (["--", "eval", "--id", "pan-thm3.2"], 2, "", _TOP_USAGE + _NO_SUCH_COMMAND.format("--")),
    (["eval"], 2, "", _EVAL_USAGE + "ghn eval: error: the following arguments are required: --id\n"),
    (["eval", "--", "--id", "pan-thm3.2"], 2, "", _EVAL_USAGE + "ghn eval: error: the following arguments are required: --id\n"),
    (["eval", "--id", "pan-thm3.2", "-h"], 0, "help:eval", ""),
    (["eval", "--id", "pan-thm3.2", "--bogus"], 2, "", _TOP_USAGE + "ghn: error: unrecognized arguments: --bogus\n"),
    (["compute", "--seq", "bernoulli", "extra"], 2, "", _TOP_USAGE + "ghn: error: unrecognized arguments: extra\n"),
    (["verify", "--n-max", "0"], 2, "",
     "usage: ghn verify [-h] [--filter FILTER] [--n-max N_MAX] [--seed SEED]\n"
     "                  [--format {json,md}] [--out OUT] [--timings TIMINGS]\n"
     "ghn verify: error: argument --n-max: 0 is out of range: must be between 1 and 30\n"),
    (["table", "--id", "hockey-stick", "--limit", "0"], 2, "",
     "usage: ghn table [-h] --id ID [--n-max N_MAX] [--seed SEED] [--limit LIMIT]\n"
     "                 [--format {text,json,csv,markdown}]\n"
     "ghn table: error: argument --limit: 0 is out of range: must be at least 1\n"),
    (["series", "--check", "nope"], 2, "",
     "usage: ghn series [-h] --check {pan-lemma,genfunc-alpha,genfunc-skew}\n"
     "                  [--order ORDER] [--param PARAM]\n"
     "ghn series: error: argument --check: invalid choice: 'nope' (choose from 'pan-lemma', 'genfunc-alpha', 'genfunc-skew')\n"),
    (["compute", "--se", "bernoulli", "--n", "3"], 0, _BERNOULLI_TO_3, ""),
    (["compute", "--seq=bernoulli", "--n-max=3"], 0, _BERNOULLI_TO_3, ""),
    (["compute", "--seq", "harmonic", "--seq", "bernoulli", "--n-max", "3"], 0, _BERNOULLI_TO_3, ""),
]


@pytest.mark.parametrize(("argv", "code", "out", "err"), PARSE_CONTRACT,
                         ids=[" ".join(case[0]) or "(none)" for case in PARSE_CONTRACT])
def test_parse_contract(argv, code, out, err, capsys, monkeypatch):
    # a named command is read by its own parser, anything else by the top-level one;
    # both must print what the top-level parser printed, byte for byte
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal width
    if out.startswith("help:"):
        name = out[len("help:"):]
        out = (build_parser().commands[name] if name else build_parser()).format_help()
    assert _exit_code(argv) == code
    assert capsys.readouterr() == (out, err)


ONE_ARGV_PER_COMMAND = [
    ["compute", "--seq", "harmonic:p=2", "--n-max", "4", "--format", "csv"],
    ["eval", *_PAN_POINT, "--format", "json"],
    ["verify", "--filter", "pan-*", "--n-max", "5", "--seed", "7", "--format", "md"],
    ["series", "--check", "genfunc-alpha", "--order", "12", "--param", "alpha=1/2"],
    ["table", "--id", "hockey-stick", "--n-max", "4", "--limit", "3"],
]


def _count_parses(monkeypatch):
    parsers = []
    real = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        parsers.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    return parsers


@pytest.mark.parametrize("argv", ONE_ARGV_PER_COMMAND, ids=lambda argv: argv[0])
def test_a_named_command_is_parsed_once_by_its_own_parser(argv, monkeypatch):
    # the top-level parser would read every argument and then hand them all to the
    # command's parser to read again; main hands the command's parser the same namespace
    import ghn.cli as cli_mod

    expected = build_parser().parse_args(argv)
    handed = []
    monkeypatch.setattr(cli_mod, f"cmd_{argv[0]}", lambda args: handed.append(args) or 0)
    parsers = _count_parses(monkeypatch)
    assert main(argv) == 0
    assert handed == [expected]
    assert len(parsers) == 1 and parsers[0] is build_parser().commands[argv[0]]


@pytest.mark.parametrize("argv", [[], ["-h"], ["frobnicate"]])
def test_argv_naming_no_command_reaches_the_top_level_parser(argv, monkeypatch, capsys):
    parsers = _count_parses(monkeypatch)
    with pytest.raises(SystemExit):
        main(argv)
    assert parsers[0] is build_parser()


def test_main_without_argv_reads_sys_argv(monkeypatch, capsys):
    # run(), the ghn console entry, calls main() with no argv
    monkeypatch.setattr(sys, "argv", ["ghn", "compute", "--seq", "bernoulli", "--n-max", "3"])
    assert run_cli(None, capsys) == (0, _BERNOULLI_TO_3, "")
    with pytest.raises(SystemExit) as exc:
        run()
    assert exc.value.code == 0 and capsys.readouterr().out == _BERNOULLI_TO_3
    monkeypatch.setattr(sys, "argv", ["ghn", "eval", *_PAN_POINT, "--bogus"])
    assert _exit_code(None) == 2
    assert capsys.readouterr() == ("", _TOP_USAGE + "ghn: error: unrecognized arguments: --bogus\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--id", "gen-harmonic-relation", "--param", "n=3", "--param", "n=5", "--param", "alpha=2"],
        ["series", "--check", "genfunc-alpha", "--param", "alpha=1", "--param", "alpha=2"],
    ],
)
def test_repeated_param_exits_2(argv, capsys):
    # a name given twice is a usage error, as a repeated spec key is, not "the last one wins"
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: parameter ") and "given twice" in err and "Traceback" not in err


def _h(k, alpha):
    return sum((Fraction(alpha) ** j / j for j in range(1, k + 1)), Fraction(0))


def _weighted(n, mu, lam, alpha, p=0):
    """sum_k C(n,k) k^p mu^k lam^(n-k) H_k(alpha), by plain loops."""
    return sum(
        (math.comb(n, k) * k**p * Fraction(mu) ** k * Fraction(lam) ** (n - k) * _h(k, alpha) for k in range(n + 1)),
        Fraction(0),
    )


def _gould(n, j, a):
    return sum((Fraction(math.comb(n, k) * math.comb(k, j)) * (-Fraction(a)) ** k / k for k in range(max(j, 1), n + 1)),
               Fraction(0))


# id -> (--param values, the direct sum there).  Each point is asymmetric in every pair
# of parameters of one kind, so sides that swapped such a pair together would differ
SWAP_PINS = {
    "pan-thm3.2": (["n=5", "mu=2", "lambda=1/3", "alpha=-3/2"], _weighted(5, 2, Fraction(1, 3), Fraction(-3, 2))),
    "panequa1-series": (["n=5", "lambda=1/3", "mu=2", "alpha=-3/2"], -_weighted(5, 2, Fraction(1, 3), Fraction(-3, 2))),
    "as-p0": (["n=5", "z=2", "alpha=1/3"], _weighted(5, 2, 1, Fraction(1, 3))),
    "as-p1-exemple1": (["n=5", "z=2", "alpha=1/3"], _weighted(5, 2, 1, Fraction(1, 3), p=1)),
    "as-newcoffey": (["n=5", "p=2", "z=2", "alpha=1/3"], _weighted(5, 2, 1, Fraction(1, 3), p=2)),
    "eq-eulerbnew": (["n=6", "j=2", "a=1/2"], _gould(6, 2, Fraction(1, 2))),
}


@pytest.mark.parametrize("entry_id", sorted(SWAP_PINS))
def test_eval_pins_each_parameter_to_its_name(entry_id, capsys):
    params, direct = SWAP_PINS[entry_id]
    argv = ["eval", "--id", entry_id]
    for param in params:
        argv += ["--param", param]
    rows = _eval_rows(argv, capsys)
    assert (rows["lhs"], rows["rhs"]) == (str(direct), str(direct))


def test_eval_pan_empty_sum_on_the_opposite_line(capsys):
    # mu + lambda = 0 at n = 0 is the empty sum, as off that line
    code, out, err = run_cli(
        ["eval", "--id", "pan-thm3.2", "--param", "n=0", "--param", "mu=1", "--param", "lambda=-1", "--param", "alpha=2"],
        capsys,
    )
    assert code == 0, err
    rows = dict(line.split() for line in out.strip().splitlines()[1:])
    assert rows == {"lhs": "0", "rhs": "0", "equal": "true"}


def test_eval_unknown_id_lists_known(capsys):
    code, _, err = run_cli(["eval", "--id", "bogus"], capsys)
    assert code == 2
    assert "known:" in err


def test_eval_missing_param(capsys):
    code, _, err = run_cli(["eval", "--id", "pan-thm3.2", "--param", "n=2"], capsys)
    assert code == 2
    assert "missing" in err


def test_eval_domain_error_is_usage_error(capsys):
    code, _, err = run_cli(
        ["eval", "--id", "knuth-flajolet", "--param", "n=3", "--param", "lambda=-2"], capsys
    )
    assert code == 2
    assert "excluded" in err


def test_series_checks(capsys):
    code, out, _ = run_cli(
        [
            "series",
            "--check",
            "pan-lemma",
            "--order",
            "40",
            "--param",
            "lambda=2/3",
            "--param",
            "mu=5/7",
            "--param",
            "alpha=1/3",
        ],
        capsys,
    )
    assert code == 0
    assert out.startswith("PASS")
    code, out, _ = run_cli(
        ["series", "--check", "genfunc-alpha", "--order", "30", "--param", "alpha=1"], capsys
    )
    assert code == 0
    code, out, _ = run_cli(["series", "--check", "genfunc-skew", "--order", "30"], capsys)
    assert code == 0


@pytest.mark.parametrize(
    "check, params",
    [
        ("pan-lemma", ["lambda=2/3", "mu=0", "alpha=1/3"]),  # mu = 0 degenerates to a_0 * geometric(lam)
        ("pan-lemma", ["lambda=0", "mu=5/7", "alpha=1/3"]),  # lam = 0 degenerates to pure scaling
        ("genfunc-alpha", ["alpha=1"]),
        ("genfunc-alpha", ["alpha=-2/7"]),
        ("genfunc-alpha", ["alpha=-1"]),
        ("genfunc-skew", []),  # log(1+t)/(1-t) = sum H_n^- t^n
    ],
    ids=["pan-lemma-mu0", "pan-lemma-lambda0", "alpha1", "alpha-2/7", "alpha-1", "skew"],
)
def test_series_check_cases(check, params, capsys, monkeypatch):
    argv = ["series", "--check", check, "--order", "40"]
    for param in params:
        argv += ["--param", param]
    _only_groups_of(monkeypatch, SERIES_CHECKS[check])
    assert run_cli(argv, capsys) == (0, f"PASS: {check} coefficient-exact through order 40\n", "")


def test_series_reports_first_differing_coefficient(capsys, monkeypatch):
    import ghn.registry as registry_mod

    real = registry_mod.harmonic_genfunc

    def faulty(order, alpha):
        coeffs = list(real(order, alpha).coeffs)
        coeffs[7] += 1
        return TruncSeries(coeffs, order)

    monkeypatch.setattr(registry_mod, "harmonic_genfunc", faulty)
    code, out, _ = run_cli(["series", "--check", "genfunc-skew", "--order", "10"], capsys)
    assert code == 1
    h7 = skew_harmonic(7)
    assert out == f"FAIL: genfunc-skew first differing coefficient at n=7: lhs={h7 + 1} rhs={h7}\n"


def test_off_by_one_pan_series_fails_at_its_first_n(capsys, monkeypatch):
    import ghn.registry as registry_mod

    real = registry_mod.pan_lemma_series
    # drops a_order: only the last coefficient loses its a_order * mu^order term
    monkeypatch.setattr(registry_mod, "pan_lemma_series", lambda order, lam, mu, a: real(order, lam, mu, a[:order]))
    argv = ["series", "--check", "pan-lemma", "--order", "10", "--param", "lambda=2/3", "--param", "mu=5/7",
            "--param", "alpha=1/3"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 1
    a = [-h for h in harmonic_table(10, 1, Fraction(1, 3))]
    rhs = binomial_oracle(10, a, Fraction(5, 7), Fraction(2, 3))
    lhs = rhs - Fraction(5, 7) ** 10 * a[10]
    assert out == f"FAIL: pan-lemma first differing coefficient at n=10: lhs={lhs} rhs={rhs}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--check", "genfunc-skew", "--param", "alpha=1"], "unknown parameter(s) alpha; expected no parameters"),
        (["--check", "pan-lemma", "--param", "alpha=1"], "missing --param lambda, mu"),
        (["--check", "genfunc-alpha", "--param", "alpha=x"], "bad value for alpha: "),
    ],
)
def test_series_bad_params_exit_2(argv, message, capsys):
    code, out, err = run_cli(["series", *argv], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}")


def test_verify_writes_report_and_exits_zero(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, _, err = run_cli(
        ["verify", "--filter", "ex3.4-*", "--n-max", "8", "--out", str(out_file)], capsys
    )
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["n_max"] == 8
    assert any(row["id"] == "ex3.4-fibonacci" for row in payload["entries"])
    assert "entries" in err


def test_verify_filter_matching_nothing_exits_2(tmp_path, capsys):
    # a mistyped filter is a usage error, not a clean run over no entries
    out_file = tmp_path / "report.json"
    code, out, err = run_cli(["verify", "--filter", "hocky*", "--n-max", "4", "--out", str(out_file)], capsys)
    assert code == 2
    assert out == "" and err == "error: no entry id matches 'hocky*'\n"
    assert not out_file.exists()


def test_verify_markdown_format(capsys):
    # an ASSERT row that holds keeps no sample cell, so the report is the table alone, with no sample section
    code, out, _ = run_cli(["verify", "--filter", "knuth*", "--n-max", "6", "--format", "md"], capsys)
    assert code == 0
    assert out == (
        "# Identity verification report\n"
        "\n"
        "suite: `ghn:knuth*`, seed: 42, n_max: 6\n"
        "\n"
        "| id | tier | cells | skipped | note |\n"
        "|---|---|---:|---:|---|\n"
        "| knuth-flajolet | HOLDS_ON_GRID | 24 | 0 |  |\n"
        "\n"
    )


def test_verify_exit_1_on_injected_fault(capsys, monkeypatch):
    import ghn.verifier as verifier_mod

    def fake_registry(n_max, seed, pattern="*"):
        cells = [{"n": n} for n in range(1, 4)]
        return [
            IdentityEntry(
                id="injected-fault",
                anchor="fault",
                params=("n",),
                cells=cells,
                lhs=lambda n: Fraction(0),
                rhs=lambda n: Fraction(1),
                policy=ASSERT,
            )
        ]

    import ghn.registry as registry_mod

    monkeypatch.setattr(registry_mod, "build_registry", fake_registry)
    code, _, err = run_cli(["verify", "--filter", "*", "--n-max", "3"], capsys)
    assert code == 1
    assert "FAILS=1" in err


def test_verify_io_failure_exits_3(capsys):
    code, _, err = run_cli(
        ["verify", "--filter", "knuth*", "--n-max", "4", "--out", "/nonexistent/dir/r.json"],
        capsys,
    )
    assert code == 3
    assert "cannot write report" in err


def test_verify_timings_sidecar_leaves_the_ledger_unchanged(tmp_path, capsys):
    # the sidecar holds the wall-clock figures, one row per entry; the ledger bytes are
    # those of a run without it
    plain, timed, sidecar = tmp_path / "plain.json", tmp_path / "timed.json", tmp_path / "timings.json"
    argv = ["verify", "--filter", "*", "--n-max", "3"]
    assert run_cli([*argv, "--out", str(plain)], capsys)[0] == 0
    assert run_cli([*argv, "--out", str(timed), "--timings", str(sidecar)], capsys)[0] == 0
    assert timed.read_bytes() == plain.read_bytes()
    ledger = json.loads(plain.read_text())["entries"]
    rows = json.loads(sidecar.read_text())["entries"]
    assert [(r["id"], r["cells"], r["skipped"]) for r in rows] == [(r["id"], r["cells"], r["skipped"]) for r in ledger]
    assert all(set(r) == {"id", "grid_s", "certify_s", "cells", "skipped", "cells_per_s"} for r in rows)
    assert all(r["grid_s"] > 0 and r["cells_per_s"] == r["cells"] / r["grid_s"] for r in rows)
    # only the entries with a certify hook spend certificate time
    certified = {r["id"] for r in ledger if r["tier"] == "CERTIFIED"}
    assert certified and {r["id"] for r in rows if r["certify_s"] > 0} == certified


def test_verify_timings_on_the_ledger_file_exits_2(tmp_path, capsys, monkeypatch):
    # the sidecar would overwrite the ledger, however the two paths are spelled: refused before the suite runs
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    ledger = tmp_path / "report.json"
    argv = ["verify", "--filter", "knuth*", "--n-max", "4", "--out", "report.json", "--timings", "sub/../report.json"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err == "error: --out and --timings name the same file, 'report.json'\n"
    assert not ledger.exists()


def test_verify_timings_io_failure_exits_3(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    argv = ["verify", "--filter", "knuth*", "--n-max", "4", "--out", str(out_file), "--timings", "/nonexistent/dir/t.json"]
    code, _, err = run_cli(argv, capsys)
    assert code == 3
    assert "cannot write timings" in err


def test_table_command(capsys):
    code, out, err = run_cli(["table", "--id", "knuth-flajolet", "--n-max", "4"], capsys)
    assert code == 0
    assert out.startswith("| lambda | n |")
    assert "yes" in out
    assert "tier: HOLDS_ON_GRID" in err
    code, limited, _ = run_cli(["table", "--id", "knuth-flajolet", "--n-max", "4", "--limit", "3"], capsys)
    assert code == 0
    assert limited.splitlines() == out.splitlines()[:5]
    code, _, err = run_cli(["table", "--id", "bogus"], capsys)
    assert code == 2


def test_only_the_grids_asked_for_are_built(capsys, monkeypatch):
    import ghn.registry as registry_mod

    table = run_cli(["table", "--id", "knuth-flajolet", "--n-max", "4"], capsys)
    ledger = run_suite("knuth*", 4, 42).to_json()

    def unasked(n_max, rng):
        raise AssertionError("built a grid that was not asked for")

    def guarded(group):
        # every entry but knuth-flajolet, in its own group too, gets a grid that raises
        return lambda: [e if e.id == "knuth-flajolet" else e.replace(grid=unasked) for e in group()]

    monkeypatch.setattr(registry_mod, "_GROUPS", tuple(guarded(group) for group in _GROUPS))
    with pytest.raises(AssertionError, match="not asked for"):
        build_registry(4, 42, "second-case-ones")  # the guard is live, in knuth-flajolet's group too
    assert run_cli(["table", "--id", "knuth-flajolet", "--n-max", "4"], capsys) == table
    assert run_suite("knuth*", 4, 42).to_json() == ledger


@pytest.mark.parametrize("pattern", ["hockey*", "knuth-flajolet?", "[h]ockey-stick", "*"])
def test_table_takes_no_pattern_for_an_id(pattern, capsys, monkeypatch):
    import ghn.cli as cli_mod

    def unbuilt(*args):
        raise AssertionError("built a grid for a pattern")

    # refused before anything is built
    monkeypatch.setattr(cli_mod, "build_registry", unbuilt)
    _only_groups_of(monkeypatch)
    code, out, err = run_cli(["table", "--id", pattern, "--n-max", "30"], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: unknown entry id {pattern!r}; known: as-newcoff, ") and "hockey-stick" in err
    assert err == f"error: unknown entry id {pattern!r}; known: {', '.join(sorted(SIDES))}\n"


def test_table_ends_at_first_failing_cell(capsys, monkeypatch):
    import ghn.cli as cli_mod

    def fake_registry(n_max, seed, pattern="*"):
        return [
            IdentityEntry(
                id="injected-fault",
                anchor="fault",
                params=("n",),
                cells=[{"n": n} for n in range(1, 6)],
                lhs=lambda n: Fraction(n),
                rhs=lambda n: Fraction(0 if n == 3 else n),
                policy=ASSERT,
            )
        ]

    monkeypatch.setattr(cli_mod, "build_registry", fake_registry)
    monkeypatch.setattr(cli_mod, "GROUP_OF", {"injected-fault": 0})  # table refuses an id the index lacks
    code, out, err = run_cli(["table", "--id", "injected-fault"], capsys)
    assert code == 0
    assert out.splitlines()[2:] == ["| 1 | 1 | 1 | yes |", "| 2 | 2 | 2 | yes |", "| 3 | 3 | 0 | NO |"]
    assert "tier: FAILS (3 cells, 0 skipped)" in err
