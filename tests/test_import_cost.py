import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "import_cost.py"
_spec = importlib.util.spec_from_file_location("import_cost", _PATH)
import_cost = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(import_cost)

# -X importtime lines of a start-up import, the marker, then the import of ghn
STDERR = """import time: self [us] | cumulative | imported package
import time:       120 |        120 |   site
import ghn
import time:       300 |        300 |     numbers
import time:      1500 |       1800 |   fractions
import time:       400 |       2200 | ghn
"""


def test_self_times_reads_the_modules_after_the_marker():
    assert import_cost.self_times(STDERR) == {"numbers": 300, "fractions": 1500, "ghn": 400}
