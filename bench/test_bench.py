"""Self-checks of the benchmark: its correctness gates catch a broken program.

Run from the root of a ghn checkout (takes about half a minute):

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import hostclock  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

workloads.set_clock(hostclock.PlainClock())  # no SIGALRM samples inside the test process


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.fixture
def broken_pan_closed_form():
    """pan_closed_form off by one, rebound wherever ghn imported it."""
    from ghn import closed_forms

    original = closed_forms.pan_closed_form
    undo = tracing.patch_function("closed_forms", "pan_closed_form", lambda *a, **k: original(*a, **k) + 1)
    yield
    tracing.undo_patches(undo)


def failed(round_: workloads.Round) -> int:
    return sum(1 for op in round_.ops if not op.ok)


@pytest.mark.parametrize("name", ["series-certify", "point-queries"])
def test_reference_round_passes(name):
    workload = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, ROOT / "src")
    assert workload.reference["rounds"], "reference digests missing"
    round_ = workload.round(0)
    assert failed(round_) == 0, round_.problems


def test_broken_closed_form_fails_point_queries(broken_pan_closed_form):
    workload = workloads.PointQueries(workloads.DEFAULT_SEED, ROOT / "src")
    round_ = workload.round(0)
    assert failed(round_) > 0
    assert any("pan-thm3.2" in p for p in round_.problems)


def test_broken_closed_form_fails_ledger(broken_pan_closed_form):
    round_ = workloads.Ledger(workloads.DEFAULT_SEED, ROOT / "src").trace_round()
    assert failed(round_) > 0
    assert any("pan-thm3.2" in p for p in round_.problems)


def test_fraction_counts_repeat_exactly():
    workload = workloads.SeriesCertify(workloads.DEFAULT_SEED, ROOT / "src")
    counts = []
    for _ in range(2):
        counter = tracing.FractionCounter()
        counter.install()
        try:
            workload.trace_round()
        finally:
            counter.uninstall()
        counts.append(counter.counts)
    assert counts[0] == counts[1]
    assert all(counts[0].values())


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "point-queries", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
