"""The three benchmark workloads of ghn and their correctness checks.

Every workload is one closed-loop client in one process: each operation
starts after the previous one ends.  Inputs come only from the workload seed,
and ghn receives only the generated inputs.  Times are read from a
hostclock.HostClock, in seconds at the reference host speed; each round also
keeps its plain wall time.

ledger-n20      run_suite("*", 20, seed) + to_json(), the shipped `ghn verify`.
                Each round runs in a fresh interpreter, as a user's verify
                does, so no in-process cache survives from one round to the
                next.  An operation is a ledger entry.
series-certify  The three `ghn series` checks at high orders plus the certify
                hooks of the certifiable entries at n above 30.  Every round
                draws fresh parameters.  An operation is one check or call.
point-queries   A stream of one-shot `ghn eval` / `compute` / `table` commands
                through ghn.cli.main; no query repeats within a run.  An
                operation is one query.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from hostclock import HostClock, PlainClock

DEFAULT_SEED = 42
LEDGER_N_MAX = 20
LEDGER_REFERENCE = Path("reports") / "verdicts.json"
BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_FILE = BENCH_DIR / "reference.json"
_CLOCK: HostClock | PlainClock | None = None


@dataclass
class Op:
    """One operation: what ran, how long it took and whether it was right."""

    kind: str
    ms: float
    ok: bool
    digest: str = ""
    cells: int = 0


@dataclass
class Round:
    wall_s: float
    ops: list[Op]
    rss_kb: int = 0
    raw_s: float = 0.0  # plain wall time, not scaled to the reference host speed
    problems: list[str] = field(default_factory=list)

    @property
    def cells(self) -> int:
        return sum(op.cells for op in self.ops)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:8]


def load_reference() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def set_clock(clock: HostClock | PlainClock) -> None:
    """Time every workload of this process by `clock`."""
    global _CLOCK
    _CLOCK = clock


def stop_clock() -> None:
    """Stop the process's clock, if one was started; a process must do so before it exits."""
    if _CLOCK is not None:
        _CLOCK.stop()


def call_cli(argv: list[str], clock: HostClock | PlainClock) -> tuple[int, str, float]:
    """Run ghn.cli.main in-process; return exit code, stdout and milliseconds by `clock`."""
    from ghn import cli

    out, err = io.StringIO(), io.StringIO()
    start = clock.now()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed query, not the end of the run
            rc = -1
            traceback.print_exc()
    ms = (clock.now() - start) * 1000.0
    if rc == -1:
        print(f"query {' '.join(argv)} raised:\n{err.getvalue()}", file=sys.stderr)
    return rc, out.getvalue(), ms


def rat(rng: random.Random, height: int, nonzero: bool = True) -> Fraction:
    while True:
        value = Fraction(rng.randint(-height, height), rng.randint(1, height))
        if value or not nonzero:
            return value


class Workload:
    name = ""
    min_rounds = 2
    setup_extra = ""  # code timed after `import ghn` in the fresh-interpreter set-up

    def __init__(self, seed: int, src: Path):
        self.seed = seed
        self.src = src
        self.reference = load_reference().get(self.name, {}) if seed == DEFAULT_SEED else {}

    @property
    def clock(self) -> HostClock | PlainClock:
        """The process's one clock: a host clock started on first use, unless set_clock chose another."""
        global _CLOCK
        if _CLOCK is None:
            _CLOCK = HostClock()
        return _CLOCK

    def round(self, index: int) -> Round:
        raise NotImplementedError

    def timing(self, rounds: list[Round]) -> tuple[float, list[float]]:
        """Mean round wall time and every operation's latency in ms."""
        return sum(r.wall_s for r in rounds) / len(rounds), [op.ms for r in rounds for op in r.ops]

    def trace_round(self) -> Round:
        """Round 0 run in this process, so that it can be traced."""
        return self.round(0)

    def check_digests(self, index: int, ops: list[Op]) -> None:
        rounds = self.reference.get("rounds", [])
        if index >= len(rounds):
            return
        expected = [rounds[index][i : i + 8] for i in range(0, len(rounds[index]), 8)]
        if len(expected) != len(ops):
            for op in ops:
                op.ok = False
            return
        for op, want in zip(ops, expected):
            if op.digest != want:
                op.ok = False


# --- ledger-n20 ------------------------------------------------------------------

# One verify run in a fresh interpreter, timed by its own host clock.
LEDGER_CHILD = """
import json, resource, sys
sys.path[:0] = [sys.argv[1], sys.argv[3]]
from hostclock import HostClock
from ghn import verifier
seed = int(sys.argv[2])
clock = HostClock()
try:
    start, raw_start = clock.now(), clock.raw_now()
    text = verifier.run_suite("*", %d, seed).to_json()
    wall, raw = clock.now() - start, clock.raw_now() - raw_start
finally:
    clock.stop()
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
stats = {"wall_s": wall, "raw_s": raw, "rss_kb": rss}
sys.stdout.write(json.dumps(stats) + "\\n" + text)
""" % LEDGER_N_MAX


class Ledger(Workload):
    name = "ledger-n20"
    setup_extra = "from ghn.registry import build_registry; build_registry(%d, SEED)" % LEDGER_N_MAX

    def __init__(self, seed: int, src: Path):
        super().__init__(seed, src)
        self.shipped_text = LEDGER_REFERENCE.read_text(encoding="utf-8")
        self.shipped = json.loads(self.shipped_text)

    def check(self, text: str) -> tuple[list[Op], list[str]]:
        """One op per shipped entry; at the default seed rows must match byte for byte."""
        problems = []
        try:
            got = json.loads(text)
            rows = {e["id"]: e for e in got["entries"]}
        except (ValueError, KeyError, TypeError) as exc:
            return [Op("entry", 0.0, False) for _ in self.shipped["entries"]], [f"unreadable ledger: {exc}"]
        ops = []
        for want in self.shipped["entries"]:
            have = rows.get(want["id"])
            if self.seed == DEFAULT_SEED:
                ok = have == want
            else:
                ok = have is not None and have["tier"] == want["tier"] and have["tier"] != "FAILS"
            if not ok:
                problems.append(f"entry {want['id']}: {have and have.get('tier')} vs shipped {want['tier']}")
            ops.append(Op("entry", 0.0, ok, cells=(have or {}).get("cells", 0)))
        extra = set(rows) - {e["id"] for e in self.shipped["entries"]}
        for entry_id in sorted(extra):
            problems.append(f"entry {entry_id} is not in the shipped ledger")
            ops.append(Op("entry", 0.0, False))
        if (got.get("seed"), got.get("n_max")) != (self.seed, LEDGER_N_MAX):
            problems.append("ledger header does not match the run")
            ops.append(Op("header", 0.0, False))
        elif self.seed == DEFAULT_SEED and text != self.shipped_text and not problems:
            problems.append(f"ledger bytes differ from {LEDGER_REFERENCE}")
            ops.append(Op("bytes", 0.0, False))
        return ops, problems

    def round(self, index: int) -> Round:
        proc = subprocess.run(
            [sys.executable, "-c", LEDGER_CHILD, str(self.src), str(self.seed), str(BENCH_DIR)],
            capture_output=True,
            text=True,
            timeout=170,
        )
        if proc.returncode != 0:
            ops = [Op("entry", 0.0, False) for _ in self.shipped["entries"]]
            return Round(0.0, ops, problems=[f"ledger run exited {proc.returncode}: {proc.stderr[-500:]}"])
        head, _, text = proc.stdout.partition("\n")
        stats = json.loads(head)
        ops, problems = self.check(text)
        return Round(stats["wall_s"], ops, rss_kb=stats["rss_kb"], raw_s=stats["raw_s"], problems=problems)

    def timing(self, rounds: list[Round]) -> tuple[float, list[float]]:
        """Mean wall time of a verify run; one query is one verify run, so p50 = p99 = wall.

        Each round is a fresh interpreter, so no cache carries over from the
        round before.
        """
        wall = sum(r.wall_s for r in rounds) / len(rounds)
        return wall, [wall * 1000.0]

    def trace_round(self) -> Round:
        from ghn import verifier

        start, raw_start = self.clock.now(), self.clock.raw_now()
        text = verifier.run_suite("*", LEDGER_N_MAX, self.seed).to_json()
        wall, raw = self.clock.now() - start, self.clock.raw_now() - raw_start
        ops, problems = self.check(text)
        return Round(wall, ops, raw_s=raw, problems=problems)


# --- series-certify ------------------------------------------------------------------

# A round is seven operations: pan-lemma at order 56, genfunc-alpha at orders
# 180 and 100, genfunc-skew at an order from SKEW_ORDERS and three certify
# calls.  The sizes put the three certify calls in the middle of the latency
# order, so the median latency falls in one homogeneous group of calls.
PAN_ORDER = 56
GENFUNC_ALPHA_ORDERS = (180, 100)
SKEW_ORDERS = range(110, 150)
CERTIFY_N = range(33, 37)
BAND = (5, 7, 11, 13)  # series parameters are +-p/q with p != q from BAND, so their sizes match
CERTIFIABLE = ("gen-harmonic-relation", "idi1-alternating", "concl-item2")


def _banded(rng: random.Random) -> Fraction:
    num, den = rng.sample(BAND, 2)
    return Fraction(rng.choice((-1, 1)) * num, den)


class SeriesCertify(Workload):
    name = "series-certify"

    def __init__(self, seed: int, src: Path):
        super().__init__(seed, src)
        self.certify = self.certifiable()
        rng = random.Random(f"{seed}|series-certify")
        skew = list(SKEW_ORDERS)
        rng.shuffle(skew)
        self.plans = []
        for index in range(len(skew)):
            lam, mu, alpha = (_banded(rng) for _ in range(3))
            plan = [
                ["series", "--check", "pan-lemma", "--order", str(PAN_ORDER),
                 "--param", f"lambda={lam}", "--param", f"mu={mu}", "--param", f"alpha={alpha}"],
                *(["series", "--check", "genfunc-alpha", "--order", str(order), "--param", f"alpha={_banded(rng)}"]
                  for order in GENFUNC_ALPHA_ORDERS),
                ["series", "--check", "genfunc-skew", "--order", str(skew[index])],
            ]
            plan += [("certify", entry_id, rng.choice(CERTIFY_N)) for entry_id in CERTIFIABLE]
            self.plans.append(plan)

    def certifiable(self) -> dict:
        from ghn import registry

        entries = {e.id: e for e in registry.build_registry(LEDGER_N_MAX, self.seed)}
        return {i: entries[i] for i in CERTIFIABLE}

    def trace_round(self) -> Round:
        self.certify = self.certifiable()  # built under the tracer, if one is installed
        return self.round(0)

    def round(self, index: int) -> Round:
        ops = []
        clock = self.clock
        start, raw_start = clock.now(), clock.raw_now()
        for item in self.plans[index % len(self.plans)]:
            if item[0] == "certify":
                _, entry_id, n = item
                t0 = clock.now()
                try:
                    ok = self.certify[entry_id].certify(n) is True
                except Exception:  # a crash is a failed call, not the end of the run
                    traceback.print_exc()
                    ok = False
                ms = (clock.now() - t0) * 1000.0
                ops.append(Op("certify", ms, ok, digest(f"{entry_id} {n} {ok}"), cells=n))
            else:
                rc, out, ms = call_cli(item, clock)
                ok = rc == 0 and out.startswith("PASS:")
                ops.append(Op("series", ms, ok, digest(f"{rc}\n{out}"), cells=int(item[4]) + 1))
        wall, raw = clock.now() - start, clock.raw_now() - raw_start
        self.check_digests(index, ops)
        problems = [f"round {index} op {i} failed" for i, op in enumerate(ops) if not op.ok]
        return Round(wall, ops, raw_s=raw, problems=problems)


# --- point-queries -----------------------------------------------------------------

# Every round holds the same mix of 400 queries, shuffled: TABLES_PER_ROUND
# small-n_max tables, COMPUTES_PER_ROUND sequence tables and the eval counts
# of EVAL_IDS.  A fixed mix keeps the cost of a round from depending on the
# seed; table ids walk a seeded permutation of every (entry, n_max) pair.
TABLES_PER_ROUND = 10
TABLE_N_MAX = (2, 3, 4)
COMPUTES_PER_ROUND = 40
NOT_ASSERTED = {"concl-item3", "concl-item4"}  # REPORT_ONLY identities: equal may be false


def _lam(rng, n, allow_zero=True):
    while True:
        lam = rat(rng, 9, nonzero=False)
        if lam.denominator == 1 and (-n <= lam <= -1 or (lam == 0 and not allow_zero)):
            continue
        return lam


def _z(rng):
    while True:
        z = rat(rng, 9)
        if z != -1:
            return z


def _spec(rng) -> str:
    """A sequence spec for `compute --seq` and for the c and b parameters of eval."""
    kind = rng.choice(("harmonic", "fibonacci", "lucas", "bernoulli", "laguerre", "stirling_row", "powers", "skew"))
    if kind == "harmonic":
        return f"harmonic:p={rng.randint(1, 2)},alpha={rat(rng, 9)}"
    if kind in ("fibonacci", "lucas"):
        return f"{kind}:doubled={rng.choice(('true', 'false'))}"
    if kind == "laguerre":
        return f"laguerre:x={rat(rng, 9)}"
    if kind == "stirling_row":
        return f"stirling_row:p={rng.randint(0, 5)}"
    if kind == "powers":
        return f"powers:base={rat(rng, 9)}"
    return kind


def _n(rng, hi):
    return rng.randint(1, hi)


# id -> (queries per round, parameter generator); parameters stay inside each
# identity's domain.  Ids with few distinct parameter points get few queries.
EVAL_IDS = {
    "gen-harmonic-relation": (26, lambda r: (n := _n(r, 18), [f"n={n}", f"alpha={rat(r, 9)}"])[1]),
    "knuth-flajolet": (26, lambda r: (n := _n(r, 18), [f"n={n}", f"lambda={_lam(r, n, allow_zero=False)}"])[1]),
    "pan-thm3.2": (26, lambda r: [f"n={_n(r, 14)}", f"mu={rat(r, 9)}", f"lambda={rat(r, 9)}", f"alpha={rat(r, 9)}"]),
    "idi1-alternating": (26, lambda r: [f"n={_n(r, 18)}", f"alpha={rat(r, 9)}"]),
    "spivey-generalization": (26, lambda r: [f"n={_n(r, 18)}", f"alpha={rat(r, 9)}"]),
    "frontczak-variant": (2, lambda r: [f"n={_n(r, 48)}"]),
    "skew-transform": (2, lambda r: [f"n={_n(r, 48)}"]),
    "eq-eulerbnew": (26, lambda r: (n := _n(r, 18), [f"n={n}", f"j={r.randint(1, n)}", f"a={rat(r, 9)}"])[1]),
    "as-np": (26, lambda r: (n := _n(r, 12), [f"n={n}", f"p={r.randint(1, min(n, 4))}", f"z={_z(r)}", f"alpha={rat(r, 9)}"])[1]),
    "as-p1-exemple1": (26, lambda r: [f"n={_n(r, 14)}", f"z={_z(r)}", f"alpha={rat(r, 9)}"]),
    "as-newcoffey1": (8, lambda r: (n := _n(r, 24), [f"n={n}", f"p={r.randint(1, n)}"])[1]),
    "thm3.3-eqnnew8": (26, lambda r: [f"n={_n(r, 12)}", f"alpha={rat(r, 9)}", f"c={_spec(r)}"]),
    "lemma2.1": (26, lambda r: (n := _n(r, 12), [f"n={n}", f"lambda={_lam(r, n)}", f"b={_spec(r)}"])[1]),
    "thm2.3": (26, lambda r: (n := _n(r, 12), [f"n={n}", f"lambda={_lam(r, n)}", f"c={_spec(r)}"])[1]),
    "concl-item2": (26, lambda r: [f"n={_n(r, 18)}", f"alpha={rat(r, 9)}"]),
    "concl-item3": (13, lambda r: [f"n={_n(r, 14)}", f"alpha={rat(r, 9)}"]),
    "concl-item4": (13, lambda r: [f"n={_n(r, 14)}", f"alpha={rat(r, 9)}"]),
}


class PointQueries(Workload):
    name = "point-queries"

    def __init__(self, seed: int, src: Path):
        super().__init__(seed, src)
        from ghn import registry

        entries = registry.build_registry(2, DEFAULT_SEED)
        self.asserted_tables = {e.id for e in entries if e.policy == "ASSERT"}
        self.rng = random.Random(f"{seed}|point-queries")
        self.tables = [(e.id, n) for e in entries for n in TABLE_N_MAX]
        self.rng.shuffle(self.tables)
        self.tables_asked = 0
        self.seen: set[str] = set()
        self.rounds: list[list[list[str]]] = []

    def _table(self) -> list[str]:
        entry_id, n_max = self.tables[self.tables_asked % len(self.tables)]
        self.tables_asked += 1
        return ["table", "--id", entry_id, "--n-max", str(n_max), "--seed", str(self.rng.randint(0, 10**9))]

    def _compute(self) -> list[str]:
        return ["compute", "--seq", _spec(self.rng), "--n-max", str(self.rng.randint(4, 30))]

    def _eval(self, entry_id: str) -> list[str]:
        argv = ["eval", "--id", entry_id]
        for p in EVAL_IDS[entry_id][1](self.rng):
            argv += ["--param", p]
        return argv

    def _unseen(self, draw, attempts: int = 200) -> list[str]:
        """A query not asked before in this run; pan-thm3.2 evals if `draw` runs dry."""
        for _ in range(attempts):
            argv = draw()
            if " ".join(argv) not in self.seen:
                break
        else:
            return self._unseen(lambda: self._eval("pan-thm3.2"))
        self.seen.add(" ".join(argv))
        return argv

    def queries(self, index: int) -> list[list[str]]:
        while len(self.rounds) <= index:
            batch = [self._unseen(self._table) for _ in range(TABLES_PER_ROUND)]
            batch += [self._unseen(self._compute) for _ in range(COMPUTES_PER_ROUND)]
            for entry_id, (count, _) in EVAL_IDS.items():
                batch += [self._unseen(lambda: self._eval(entry_id)) for _ in range(count)]
            self.rng.shuffle(batch)
            self.rounds.append(batch)
        return self.rounds[index]

    def check_query(self, argv: list[str], rc: int, out: str) -> tuple[bool, int]:
        """(passed, cells compared) for one query by its own output.

        Only eval comparisons count as cells: table row counts differ tenfold
        between entries and would make the cell rate depend on the seed.
        """
        if rc != 0:
            return False, 0
        command = argv[0]
        if command == "eval":
            equal = [line.split()[1] for line in out.splitlines() if line.startswith("equal ")]
            ok = bool(equal) and (equal[0] == "true" or argv[2] in NOT_ASSERTED)
            return ok, 1
        if command == "table":
            failing = any(line.endswith("| NO |") for line in out.splitlines())
            return not (failing and argv[2] in self.asserted_tables), 0
        return len(out.splitlines()) == int(argv[-1]) + 2, 0

    def round(self, index: int) -> Round:
        queries = self.queries(index)
        ops = []
        start, raw_start = self.clock.now(), self.clock.raw_now()
        for argv in queries:
            rc, out, ms = call_cli(argv, self.clock)
            ok, cells = self.check_query(argv, rc, out)
            ops.append(Op(argv[0], ms, ok, digest(f"{rc}\n{out}"), cells))
        wall, raw = self.clock.now() - start, self.clock.raw_now() - raw_start
        self.check_digests(index, ops)
        problems = [" ".join(q) for q, op in zip(queries, ops) if not op.ok]
        return Round(wall, ops, raw_s=raw, problems=problems)


WORKLOADS = {w.name: w for w in (Ledger, SeriesCertify, PointQueries)}
