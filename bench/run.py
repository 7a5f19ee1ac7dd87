"""Benchmark of ghn: one workload per run, end-to-end or per-layer metrics.

Run from the root of a ghn checkout:

    python3 bench/run.py --workload ledger-n20 --seed 42 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics with tracing off: rounds of the
workload run while the next one should end within --seconds (at least two).
Rates and the mean round time pool every round, latency percentiles pool
every request, and set-up time is the median of several fresh interpreters.
Every time is in seconds at a reference host speed (see hostclock.py): the
shared host drifts by up to 2x over minutes, so the benchmark samples the
host's speed with a fixed stdlib loop every 25 ms and scales each stretch of
time by it.  The plain wall time per round goes to stderr.

--trace 1 runs round 0 of the workload five times: untraced, with one span
per layer call, untraced again, and twice under Fraction call counting, and
reports the per-layer metrics.  It times by plain wall time, because
calibration samples would land inside spans and Fraction counts.  Every output is
checked; the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A human-readable table goes to stderr, with
fail_ratio (failed / attempted), which is 0 on correct code and so is not a
metric.  The self-checks are in bench/test_bench.py.

End-to-end metrics, on every workload:
  wall_s         mean time of one round (ledger-n20: one verify run)
  setup_s        `import ghn` in a fresh interpreter (ledger-n20: plus
                 build_registry(20, seed)), median of SETUP_RUNS
  peak_rss_mb    peak resident memory of the process that did the work, over
                 the first two rounds, so that it does not depend on how many
                 rounds fit in --seconds
  cells_per_s    identity comparisons per second: grid cells (ledger-n20),
                 series coefficients and certified n (series-certify),
                 eval comparisons (point-queries)
  queries_per_s  client requests per second: verify runs, series checks and
                 certify calls, or ghn commands
  query_p50_ms, query_p99_ms
                 latency percentiles over every request of the run; a
                 ledger-n20 run has one request, the filtered verify run
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import hostclock
import tracing
import workloads

SETUP_RUNS = 15
HEAVY_ENTRIES = (
    "thm2.3-general",
    "pan-thm3.2",
    "lemma2.1-coherence",
    "thm3.3-eqnnew8",
    "as-newcoffey",
    "thm3.3-nabla",
    "panequa1-series",
    "concl-item2",
    "eq-eulerbnew",
)
CLOSED_FORM_FNS = (
    "boyadzhiev_ratio_closed",
    "thm33_rhs",
    "thm33_nabla_rhs",
    "pan_closed_form",
    "lemma21_rhs",
    "as_np_closed",
)
TRANSFORM_FNS = ("binomial_transform", "inverse_binomial_transform", "sanchez_transform", "weighted_nabla")
CLI_COMMANDS = ("eval", "compute", "table", "series")

# Per-layer counts that must be nonzero on the workload that exercises them.
EXPECT_NONZERO = {
    "ledger-n20": ("transforms.binomial_transform.calls", "exact.binom_int.calls", "sequences.harmonic_p.calls",
                   "closed_forms.calls", "verifier.cells_evaluated", "fractions.new_calls"),
    "series-certify": ("polyseries.TruncSeries.mul.calls", "polyseries.TruncSeries.compose.calls",
                       "polyseries.PolyQ.mul.calls", "polyseries.harmonic_poly.calls", "fractions.mul_calls"),
    "point-queries": ("cli.query_p50_ms.eval", "cli.query_p50_ms.compute", "cli.query_p50_ms.table",
                      "sequences.materialize.calls", "registry.grid_cells"),
}

# Times `import ghn` (plus the workload's set-up code), then samples the host
# speed right after, so that the parent can scale the time to the reference host.
SETUP_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
SEED = int(sys.argv[2])
start = time.perf_counter()
import ghn
%s
elapsed = time.perf_counter() - start
sys.path.insert(0, sys.argv[3])
import hostclock
print(elapsed, hostclock.slowdown(5))
"""


def calibrate() -> float:
    """Median time of a fixed stdlib Fraction loop, to show host speed drift."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = Fraction(0)
        for j in range(1, 3000):
            total += Fraction(1, j) * Fraction(j % 7 + 1, j % 5 + 2)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure_setup(workload: workloads.Workload) -> float:
    """Median of fresh-interpreter set-up times at reference host speed.

    A first discarded run fills the bytecode cache.
    """
    code = SETUP_CHILD % workload.setup_extra
    times = []
    for _ in range(SETUP_RUNS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", code, str(workload.src), str(workload.seed), str(workloads.BENCH_DIR)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        elapsed, slowdown = map(float, proc.stdout.split())
        times.append(elapsed / slowdown)
    return statistics.median(times[1:])


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mb(rounds) -> float:
    return max(r.rss_kb for r in rounds) / 1024.0


def run_timed(workload, seconds: float) -> tuple[dict, list]:
    setup_s = measure_setup(workload)
    rounds = []
    start = time.perf_counter()
    # Start a round only if it should end within the run's seconds.
    while len(rounds) < workload.min_rounds or (time.perf_counter() - start) / len(rounds) * (len(rounds) + 1) <= seconds:
        round_ = workload.round(len(rounds))
        # A round run in this process gets the peak so far, so that the first
        # rounds' figure leaves out the benchmark's records of later rounds.
        round_.rss_kb = round_.rss_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rounds.append(round_)
    wall_s, latencies = workload.timing(rounds)
    raw_s = statistics.median(r.raw_s for r in rounds)
    print(f"plain wall per round, median: {raw_s:.6f} s (wall_s {wall_s:.6f} s is at reference host speed)",
          file=sys.stderr)
    ops_per_round = sum(len(r.ops) for r in rounds) / len(rounds)
    cells_per_round = sum(r.cells for r in rounds) / len(rounds)
    metrics = {
        "wall_s": (wall_s, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(rounds[: workload.min_rounds]), "MB"),
        "cells_per_s": (cells_per_round / wall_s, "cells/s"),
        "queries_per_s": (ops_per_round / wall_s, "1/s"),
        "query_p50_ms": (percentile(latencies, 50), "ms"),
        "query_p99_ms": (percentile(latencies, 99), "ms"),
    }
    return metrics, rounds


def _layer_metrics(tracer: tracing.Tracer) -> dict:
    summary = tracer.summary()
    by_name: dict[str, list] = {}
    for (name, _tag), (calls, total, own) in summary.items():
        rec = by_name.setdefault(name, [0, 0.0, 0.0])
        rec[0] += calls
        rec[1] += total
        rec[2] += own

    def calls(name):
        return by_name.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return by_name.get(name, [0, 0.0, 0.0])[1]

    def own(name):
        return by_name.get(name, [0, 0.0, 0.0])[2]

    def layer_self(prefix):
        return sum(rec[2] for name, rec in by_name.items() if name.startswith(prefix + "."))

    m: dict[str, tuple] = {}
    entry_s = {tag: rec[1] for (name, tag), rec in summary.items() if name == "verifier.run_entry"}
    for entry_id in HEAVY_ENTRIES:
        seconds = entry_s.get(entry_id, 0.0)
        cells = tracer.entry_cells.get(entry_id, (0, 0))[0]
        m[f"verifier.entry_s.{entry_id}"] = (seconds, "s")
        m[f"verifier.cells_per_s.{entry_id}"] = (cells / seconds if seconds else 0.0, "cells/s")
    m["verifier.entry_s.rest"] = (sum(s for i, s in entry_s.items() if i not in HEAVY_ENTRIES), "s")
    m["verifier.lhs_s"] = (total("registry.entry.lhs"), "s")
    m["verifier.rhs_s"] = (total("registry.entry.rhs"), "s")
    m["verifier.certify_s"] = (total("registry.entry.certify"), "s")
    m["verifier.self_s"] = (layer_self("verifier"), "s")
    evaluated = sum(c for c, _ in tracer.entry_cells.values())
    skipped = sum(s for _, s in tracer.entry_cells.values())
    m["verifier.cells_evaluated"] = (evaluated, "count")
    m["verifier.cells_skipped"] = (skipped, "count")
    m["verifier.useful_ratio"] = (evaluated / (evaluated + skipped) if evaluated + skipped else 0.0, "ratio")
    m["verifier.series_lemma_s"] = (total("verifier.series_lemma_first_diff"), "s")
    m["verifier.genfunc_s"] = (total("verifier.harmonic_genfunc_first_diff") + total("verifier.skew_genfunc_first_diff"), "s")
    m["verifier.certify_alpha_s"] = (total("verifier.certify_alpha_identity"), "s")
    m["registry.build_s"] = (total("registry.build_registry"), "s")
    m["registry.grid_cells"] = (tracer.counts["registry.grid_cells"], "count")
    m["registry.self_s"] = (layer_self("registry"), "s")
    m["closed_forms.calls"] = (sum(rec[0] for name, rec in by_name.items() if name.startswith("closed_forms.")), "count")
    m["closed_forms.self_s"] = (layer_self("closed_forms"), "s")
    for fn in CLOSED_FORM_FNS:
        m[f"closed_forms.{fn}.self_s"] = (own(f"closed_forms.{fn}"), "s")
    for fn in TRANSFORM_FNS:
        m[f"transforms.{fn}.calls"] = (calls(f"transforms.{fn}"), "count")
        m[f"transforms.{fn}.self_s"] = (own(f"transforms.{fn}"), "s")
    for fn in ("binomial_transform", "inverse_binomial_transform"):
        m[f"transforms.{fn}.terms"] = (tracer.counts[f"transforms.{fn}.terms"], "count")
    m["sequences.harmonic_p.calls"] = (calls("sequences.harmonic_p"), "count")
    m["sequences.harmonic_p.self_s"] = (own("sequences.harmonic_p"), "s")
    m["sequences.harmonic_p.terms"] = (tracer.counts["sequences.harmonic_p.terms"], "count")
    m["sequences.stirling2.calls"] = (tracer.counts["sequences.stirling2.calls"], "count")
    for fn in ("materialize", "bernoulli"):
        m[f"sequences.{fn}.calls"] = (calls(f"sequences.{fn}"), "count")
        m[f"sequences.{fn}.self_s"] = (own(f"sequences.{fn}"), "s")
    m["polyseries.TruncSeries.mul.calls"] = (calls("polyseries.TruncSeries.mul"), "count")
    m["polyseries.TruncSeries.mul.self_s"] = (own("polyseries.TruncSeries.mul"), "s")
    m["polyseries.TruncSeries.mul.coeff_ops"] = (tracer.counts["polyseries.TruncSeries.mul.coeff_ops"], "count")
    for name in ("polyseries.TruncSeries.compose", "polyseries.PolyQ.mul", "polyseries.harmonic_poly"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (own(name), "s")
    m["exact.binom_int.calls"] = (tracer.counts["exact.binom_int.calls"], "count")
    m["exact.binom_rat.calls"] = (calls("exact.binom_rat"), "count")
    m["exact.binom_rat.self_s"] = (own("exact.binom_rat"), "s")
    m["cli.self_s"] = (layer_self("cli"), "s")
    return m


def run_traced(workload) -> tuple[dict, list, list[str]]:
    problems = []
    calib = calibrate()
    plain = workload.trace_round()

    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = workload.trace_round()
    finally:
        tracer.uninstall()

    plain_again = workload.trace_round()  # untraced once more: host drift and cold caches hit either pass

    fraction_counts = []
    counted = []
    for _ in range(2):
        counter = tracing.FractionCounter()
        counter.install()
        try:
            counted.append(workload.trace_round())
        finally:
            counter.uninstall()
        fraction_counts.append(counter.counts)
    if fraction_counts[0] != fraction_counts[1]:
        problems.append(f"Fraction counts differ between passes: {fraction_counts}")

    m = _layer_metrics(tracer)
    for op in ("new", "mul", "add", "div"):
        m[f"fractions.{op}_calls"] = (fraction_counts[0][op], "count")
    for command in CLI_COMMANDS:
        ms = [op.ms for op in plain.ops if op.kind == command]
        m[f"cli.query_p50_ms.{command}"] = (statistics.median(ms) if ms else 0.0, "ms")
    m["host.calib_s"] = (calib, "s")
    m["trace.overhead_s"] = (traced.wall_s - min(plain.wall_s, plain_again.wall_s), "s")
    for name in EXPECT_NONZERO[workload.name]:
        if not m[name][0]:
            problems.append(f"per-layer count {name} is zero on {workload.name}")

    out = Path(".bench_out")
    out.mkdir(exist_ok=True)
    tracer.write(out / f"trace-{workload.name}-seed{workload.seed}.tsv")
    return m, [plain, traced, plain_again, *counted], problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    for needed in (src / "ghn" / "__init__.py", workloads.LEDGER_REFERENCE):
        if not needed.is_file():
            print(f"error: {needed} not found; run from the root of a ghn checkout", file=sys.stderr)
            return 2
    sys.path.insert(0, str(src))

    if args.trace:
        # Calibration samples would land inside spans and Fraction counts.
        workloads.set_clock(hostclock.PlainClock())
    workload = workloads.WORKLOADS[args.workload](args.seed, src)
    try:
        if args.trace:
            metrics, rounds, problems = run_traced(workload)
        else:
            print(f"host.calib_s {calibrate():.6f} s", file=sys.stderr)
            metrics, rounds = run_timed(workload, args.seconds)
            problems = []
    finally:
        workloads.stop_clock()
    problems += [p for r in rounds for p in r.problems]
    attempted = sum(len(r.ops) for r in rounds)
    failed = sum(1 for r in rounds for op in r.ops if not op.ok)

    print(f"{args.workload} seed={args.seed} rounds={len(rounds)}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:>16.6g} {unit}", file=sys.stderr)
    print(f"  {'fail_ratio':48s} {failed / attempted:>16.6g} 1 ({failed}/{attempted})", file=sys.stderr)
    for p in problems[:20]:
        print(f"  problem: {p}", file=sys.stderr)

    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
