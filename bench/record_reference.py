"""Record the reference output digests that the benchmark checks at the default seed.

Run from the root of a ghn checkout whose outputs are known to be right:

    python3 bench/record_reference.py

It writes bench/reference.json: for series-certify and point-queries, one
8-hex-digit digest per operation of each of the first rounds at seed 42.  The
ledger-n20 reference is the shipped reports/verdicts.json itself; its digest
is recorded here only to document which ledger the digests were taken with.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import hostclock
import workloads

ROUNDS = {"series-certify": 16, "point-queries": 32}


def main() -> int:
    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    workloads.set_clock(hostclock.PlainClock())  # digests do not depend on timing
    reference: dict = {"default_seed": workloads.DEFAULT_SEED}
    for name, count in ROUNDS.items():
        workload = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, src)
        workload.reference = {}
        rounds = [workload.round(i) for i in range(count)]
        problems = [p for r in rounds for p in r.problems]
        if problems:
            print(f"error: {name} fails its own checks: {problems[:5]}", file=sys.stderr)
            return 1
        reference[name] = {"rounds": ["".join(op.digest for op in r.ops) for r in rounds]}
        print(f"{name}: {count} rounds, {sum(len(r.ops) for r in rounds)} operations", file=sys.stderr)
    ledger = workloads.LEDGER_REFERENCE.read_bytes()
    reference["ledger-n20"] = {
        "reference": str(workloads.LEDGER_REFERENCE),
        "sha256": hashlib.sha256(ledger).hexdigest(),
    }
    workloads.REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
