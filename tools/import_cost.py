"""Time `import ghn` in fresh interpreters, without and with a bytecode cache.

Each mode starts N interpreters, one after another, and prints the median
seconds of the import itself (interpreter start-up is not counted), with the
fastest and slowest run:

  no bytecode cache   a copy of the package's sources, with no __pycache__,
                      imported under PYTHONDONTWRITEBYTECODE=1, so every ghn
                      module is compiled on each import;
  bytecode cache      the same copy under a private PYTHONPYCACHEPREFIX, filled
                      first by one untimed import, so every module loads from
                      bytecode.

The two modes take turns, one interpreter each.  Neither figure depends on
whether the tree holds a src/ghn/__pycache__, but both move with the speed of
the host, so compare two trees by alternating runs of this script.  Then
it prints the ten modules that the import loads with the most self time under
-X importtime, each the median over N cached imports.  Stdlib only.

Run from the repository root:

    python tools/import_cost.py [N] [PACKAGE_DIR]

N defaults to 20, PACKAGE_DIR to src/ghn next to this script's directory.
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

TIMED_IMPORT = "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); import ghn; print(time.perf_counter() - start)"
# a marker on stderr before the import, so that the modules site loaded at start-up are left out
MARKED_IMPORT = "import sys; sys.path.insert(0, sys.argv[1]); print('import ghn', file=sys.stderr, flush=True); import ghn"
TOP = 10


def run(env: dict, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120, check=True)


def self_times(stderr: str) -> dict[str, int]:
    """Module -> self microseconds, from the lines that -X importtime writes after MARKED_IMPORT's marker."""
    times = {}
    for line in stderr.partition("import ghn\n")[2].splitlines():
        if line.startswith("import time:") and "self [us]" not in line:
            self_us, _, module = line.removeprefix("import time:").split("|")
            times[module.strip()] = int(self_us)
    return times


def main(argv: list[str]) -> int:
    n = int(argv[1]) if len(argv) > 1 else 20
    package = Path(argv[2]) if len(argv) > 2 else Path(__file__).resolve().parent.parent / "src" / "ghn"
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "src"
        shutil.copytree(package, root / "ghn", ignore=shutil.ignore_patterns("__pycache__"))
        bare = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        bare.pop("PYTHONPYCACHEPREFIX", None)
        cached = dict(os.environ, PYTHONPYCACHEPREFIX=str(Path(tmp) / "pycache"))
        cached.pop("PYTHONDONTWRITEBYTECODE", None)
        run(cached, "-c", TIMED_IMPORT, str(root))  # fills the cache, untimed
        modes = {"no bytecode cache": bare, "bytecode cache": cached}
        times = defaultdict(list)
        for _ in range(n):  # the modes take turns, so that a drift in host speed reaches both
            for label, env in modes.items():
                times[label].append(float(run(env, "-c", TIMED_IMPORT, str(root)).stdout))
        print(f"import ghn, median of {n} fresh interpreters (fastest-slowest):")
        for label, ts in times.items():
            print(f"  {label:<18} {statistics.median(ts):.4f} s  ({min(ts):.4f}-{max(ts):.4f})")
        samples = defaultdict(list)
        for _ in range(n):
            for module, us in self_times(run(cached, "-X", "importtime", "-c", MARKED_IMPORT, str(root)).stderr).items():
                samples[module].append(us)
    medians = sorted(((statistics.median(us), module) for module, us in samples.items()), reverse=True)
    print(f"the {TOP} modules of the import with the most self time under -X importtime, bytecode cache, median of {n}:")
    for us, module in medians[:TOP]:
        print(f"  {us / 1000:7.2f} ms  {module}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
