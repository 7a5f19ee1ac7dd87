"""Time the slowest series queries that every per-argument cap still admits.

Each query of QUERIES runs through ``ghn.cli.main`` in this process, with its
output discarded, under a ``signal.alarm`` budget of BUDGET seconds; one that
runs past it is stopped and prints ``> budget``.  The pan-lemma check composes a series whose
inner coefficients carry 100 k digits at t^k.  Composition by baby steps and
giant steps makes about order^2.5 products, but their operands grow with the
order too, so the check's time grows about as order^3.6 to order^3.8: with a
100-digit lambda it read 0.06, 0.75 and 3.5 s at orders 20, 40 and 60 on a
2-core x86-64 host, against 0.06, 1.29 and 7.6 s (about order^4.4) for plain
Horner, which makes about order^3 / 6 products.  Stdlib only, Unix only (SIGALRM);
no thread or process is started.

Run from the repository root:

    python tools/series_cost.py
"""

from __future__ import annotations

import contextlib
import io
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ghn import cli  # noqa: E402

BUDGET = 60  # seconds per query
BIG = f"{10**100 - 1}/{10**100 - 3}"  # 100 digits over 100 digits

# (label, argv): ROADMAP item 7's series queries
QUERIES = [
    *(
        (f"pan-lemma order {order}, 100-digit lambda", ["series", "--check", "pan-lemma", "--order", str(order), "--param", f"lambda={BIG}", "--param", "mu=-2", "--param", "alpha=1/2"])
        for order in (20, 40, 60)
    ),
    ("pan-lemma order 180, 100-digit mu", ["series", "--check", "pan-lemma", "--order", "180", "--param", "lambda=1/3", "--param", f"mu=-{10**100 - 1}/3", "--param", "alpha=1/2"]),
    ("genfunc-alpha order 180, 100-digit alpha", ["series", "--check", "genfunc-alpha", "--order", "180", "--param", f"alpha={BIG}"]),
]


class _OverBudget(BaseException):
    """Raised by the alarm; a BaseException, so no handler in ghn swallows it."""


def _alarm(signum, frame):
    raise _OverBudget


def timed(argv: list[str]) -> tuple[float | None, int | None]:
    """(seconds, exit code) of cli.main(argv), or (None, None) past BUDGET."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            signal.alarm(BUDGET)
            try:
                code = cli.main(argv)
            finally:
                signal.alarm(0)
    except _OverBudget:
        return None, None
    finally:
        signal.signal(signal.SIGALRM, previous)
    return time.perf_counter() - start, code


def main() -> int:
    for label, query in QUERIES:
        seconds, code = timed(query)
        shown = f"> budget ({BUDGET} s)" if seconds is None else f"{seconds:.2f} s, exit {code}"
        print(f"{shown:>18}  {label}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
