import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "series_cost.py"
_spec = importlib.util.spec_from_file_location("series_cost", _PATH)
series_cost = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(series_cost)


@pytest.mark.parametrize("args", [["--help"], ["-h"], ["20"], ["--order", "40"]])
def test_any_argument_prints_the_usage_line_before_a_query_runs(monkeypatch, capsys, args):
    def timed(argv):
        raise AssertionError(f"a query ran: {argv}")

    monkeypatch.setattr(series_cost, "timed", timed)
    assert series_cost.main(["series_cost.py", *args]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", series_cost.USAGE + "\n")


def test_with_no_argument_each_query_is_timed(monkeypatch, capsys):
    asked = []
    monkeypatch.setattr(series_cost, "timed", lambda argv: (asked.append(argv), (0.5, 0))[1])
    assert series_cost.main(["series_cost.py"]) == 0
    assert asked == [query for _, query in series_cost.QUERIES]
    assert len(capsys.readouterr().out.splitlines()) == len(series_cost.QUERIES)
