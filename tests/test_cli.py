import csv
import io
import json
from fractions import Fraction

import pytest

from ghn.cli import EVAL_FORMS, main
from ghn.verifier import ASSERT, IdentityEntry


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


# one in-domain point per eval id
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


@pytest.mark.parametrize("entry_id", sorted(EVAL_FORMS))
def test_eval_every_id(entry_id, capsys):
    argv = ["eval", "--id", entry_id, "--format", "json"]
    for param in EVAL_POINTS[entry_id]:
        argv += ["--param", param]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    rows = {r["field"]: r["value"] for r in json.loads(out)["rows"]}
    if entry_id in ("concl-item3", "concl-item4"):
        assert "rhs_square_reading" in rows
    else:
        assert rows["equal"] == "true" and rows["lhs"] == rows["rhs"]


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
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err and ("out of range" in err or "expected an integer" in err)


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


def test_series_reports_first_differing_coefficient(capsys, monkeypatch):
    import ghn.cli as cli_mod

    monkeypatch.setattr(
        cli_mod, "harmonic_genfunc_first_diff", lambda order, alpha: (7, Fraction(1, 2), Fraction(1, 3))
    )
    code, out, _ = run_cli(["series", "--check", "genfunc-skew", "--order", "10"], capsys)
    assert code == 1
    assert "n=7" in out and "1/2" in out and "1/3" in out


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


def test_verify_markdown_format(capsys):
    code, out, _ = run_cli(["verify", "--filter", "knuth*", "--n-max", "6", "--format", "md"], capsys)
    assert code == 0
    assert out.startswith("# Identity verification report")


def test_verify_exit_1_on_injected_fault(capsys, monkeypatch):
    import ghn.verifier as verifier_mod

    def fake_registry(n_max, seed):
        cells = [{"n": n} for n in range(1, 4)]
        return [
            IdentityEntry(
                id="injected-fault",
                anchor="fault",
                cells=cells,
                lhs=lambda c: Fraction(0),
                rhs=lambda c: Fraction(1),
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


def test_table_ends_at_first_failing_cell(capsys, monkeypatch):
    import ghn.cli as cli_mod

    def fake_registry(n_max, seed):
        return [
            IdentityEntry(
                id="injected-fault",
                anchor="fault",
                cells=[{"n": n} for n in range(1, 6)],
                lhs=lambda c: Fraction(c["n"]),
                rhs=lambda c: Fraction(0 if c["n"] == 3 else c["n"]),
                policy=ASSERT,
            )
        ]

    monkeypatch.setattr(cli_mod, "build_registry", fake_registry)
    code, out, err = run_cli(["table", "--id", "injected-fault"], capsys)
    assert code == 0
    assert out.splitlines()[2:] == ["| 1 | 1 | 1 | yes |", "| 2 | 2 | 2 | yes |", "| 3 | 3 | 0 | NO |"]
    assert "tier: FAILS (3 cells, 0 skipped)" in err
