"""Start-up: `import rdclab` and every CLI subcommand load no scipy module.

scipy is imported inside ``w2_squared_lp`` and ``discretize_gaussian`` on
their first call.  Each check runs in a fresh interpreter, because this test
process has long since imported scipy through other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rdclab

SRC = str(Path(rdclab.__file__).resolve().parents[1])

SCIPY_MODULES = (
    "import json, sys\n"
    "print(json.dumps(sorted(m for m in sys.modules"
    " if m == 'scipy' or m.startswith('scipy.'))))\n"
)


def fresh_python(code: str) -> str:
    """Run code in a new interpreter that imports rdclab from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_import_rdclab_loads_no_scipy():
    assert json.loads(fresh_python("import rdclab\n" + SCIPY_MODULES)) == []


SUBCOMMANDS = {
    "gauss-curves": ["gauss-curves", "--points", "5", "--out", "{out}.csv"],
    "discrepancy-report": [
        "discrepancy-report", "--grid-c", "2", "--grid-r", "2", "--out", "{out}.json",
    ],
    "bounds": ["bounds", "--out", "{out}.json"],
    "discrete-region": [
        "discrete-region", "--source", "{flip01}", "--levels", "3", "--out", "{out}",
    ],
}


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_subcommand_loads_no_scipy(name, tmp_path):
    code = (
        "from rdclab.cli import bundled_source_path, main\n"
        f"argv = [a.format(out={str(tmp_path / 'out')!r},"
        " flip01=str(bundled_source_path())) for a in "
        f"{SUBCOMMANDS[name]!r}]\n"
        "assert main(argv) == 0\n" + SCIPY_MODULES
    )
    assert json.loads(fresh_python(code)) == []


def test_scipy_functions_unchanged_after_cold_import():
    code = (
        "import hashlib, json, sys\n"
        "from rdclab import DiscreteDistribution, discretize_gaussian, w2_squared_lp\n"
        "p = DiscreteDistribution([0.0, 1.0, 3.0], [0.2, 0.5, 0.3])\n"
        "q = DiscreteDistribution([-1.0, 0.5, 2.0, 4.0], [0.1, 0.4, 0.25, 0.25])\n"
        "print(json.dumps({\n"
        "    'lp': w2_squared_lp(p, q),\n"
        "    'atoms7': discretize_gaussian(0.5, 2.0, n=7).support.tolist(),\n"
        "    'sha10000': hashlib.sha256(\n"
        "        discretize_gaussian(0.5, 2.0).support.tobytes()).hexdigest(),\n"
        "    'scipy': 'scipy' in sys.modules,\n"
        "}))\n"
    )
    got = json.loads(fresh_python(code))
    # Values returned by the module-level-import version of both functions.
    assert got["lp"] == 0.7000000000000001
    assert got["atoms7"] == [
        -1.5721535016632346, -0.619546055568835, -0.017752575058369024, 0.5,
        1.0177525750583691, 1.619546055568835, 2.5721535016632346,
    ]
    assert got["sha10000"] == (
        "f0d09b1cdd15869e77a16de5656224e5781f6edb2eac7312d6321e4a8f3fe141"
    )
    assert got["scipy"]

