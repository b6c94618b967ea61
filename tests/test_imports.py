"""Start-up: which of numpy and scipy `import rdclab` and each CLI subcommand load.

``import rdclab`` and the Gaussian subcommands (``gauss-curves``,
``discrepancy-report``, ``bounds``) load neither: the Gaussian modules and
``bounds_eval`` need only ``math`` (the harness draws its seeded rates from a
pure-Python PCG64 stream), and the package serves the names of its
numpy-backed modules on first access.  ``discrete-region`` loads numpy for
its arrays.  scipy is imported inside ``w2_squared_lp`` and
``discretize_gaussian`` on their first call, so no subcommand loads it, and
``scipy.stats`` is never imported.  Each check runs in a fresh interpreter,
because this test process has long since imported numpy and scipy through
other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rdclab
from rdclab.cli import bundled_source_path

SRC = str(Path(rdclab.__file__).resolve().parents[1])

HEAVY_MODULES = (
    "import json, sys\n"
    "print(json.dumps(sorted({m.split('.')[0] for m in sys.modules}"
    " & {'numpy', 'scipy'})))\n"
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
    assert json.loads(fresh_python("import rdclab\n" + HEAVY_MODULES)) == []  # nor numpy


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
# The heavy packages each subcommand loads: scipy in none, numpy where it is used.
LOADS = {
    "gauss-curves": [],
    "discrepancy-report": [],
    "bounds": [],
    "discrete-region": ["numpy"],
}


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_subcommand_loads_no_scipy(name, tmp_path):
    # As `python -m rdclab.cli` runs it: the package __init__, then the CLI.
    argv = [
        a.format(out=str(tmp_path / "out"), flip01=str(bundled_source_path()))
        for a in SUBCOMMANDS[name]
    ]
    code = (
        "import runpy, sys\n"
        f"sys.argv = {['rdclab', *argv]!r}\n"
        "try:\n"
        "    runpy.run_module('rdclab.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n" + HEAVY_MODULES
    )
    assert json.loads(fresh_python(code)) == LOADS[name]


def test_every_export_resolves_lazily():
    code = (
        "import json, sys, types\n"
        "import rdclab\n"
        "names = rdclab.__all__\n"
        "listed = set(dir(rdclab))\n"
        "before = 'numpy' in sys.modules\n"
        "from rdclab import DiscreteSource\n"
        "homes = {n: getattr(rdclab, n).__module__ for n in names}\n"
        "subs = {s: isinstance(getattr(rdclab, s), types.ModuleType) for s in\n"
        "        ('_kernels', 'bounds_eval', 'discrete_region', 'validation_oracles')}\n"
        "same = all(getattr(sys.modules[homes[n]], n) is getattr(rdclab, n) for n in names)\n"
        "try:\n"
        "    rdclab.no_such_name\n"
        "    missing = 'resolved'\n"
        "except AttributeError as exc:\n"
        "    missing = str(exc)\n"
        "print(json.dumps({'names': names, 'unlisted': sorted(set(names) - listed),\n"
        "    'before': before, 'homes': sorted(set(homes.values())), 'subs': subs,\n"
        "    'same': same, 'missing': missing,\n"
        "    'source': DiscreteSource is rdclab.discrete_region.DiscreteSource}))\n"
    )
    got = json.loads(fresh_python(code))
    assert len(got["names"]) == len(set(got["names"])) == 58
    assert got["unlisted"] == []
    assert not got["before"]
    assert got["homes"] == [
        "rdclab.bounds_eval", "rdclab.discrete_region", "rdclab.errors",
        "rdclab.gaussian_model", "rdclab.gaussian_tradeoff", "rdclab.universal_gaussian",
        "rdclab.validation_oracles",
    ]
    assert all(got["subs"].values())
    assert got["same"] and got["source"]
    assert got["missing"] == "module 'rdclab' has no attribute 'no_such_name'"


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
        "    'scipy.stats': 'scipy.stats' in sys.modules,\n"
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
    assert not got["scipy.stats"]  # ~1.5 s and ~23 MB that neither function needs
