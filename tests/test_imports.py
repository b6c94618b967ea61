"""Start-up: which modules `import rdclab` and each CLI subcommand load, and
what a subcommand leaves running.

``import rdclab`` loads ``rdclab.errors`` and nothing else; the package serves
every other name, and each module, on first access.  Each subcommand imports
the modules it runs: the Gaussian ones (``gauss-curves``,
``discrepancy-report``, ``bounds``) load only Gaussian modules and ``math``
(the harness draws its seeded rates from a pure-Python PCG64 stream), and
``discrete-region`` loads numpy, ``discrete_region`` and ``_kernels``, without
``numpy.ma``.  The value types are plain classes on ``errors.Frozen``, so no
subcommand loads ``dataclasses``, and the Gaussian ones load neither
``inspect`` nor ``typing``.  scipy is imported inside ``w2_squared_lp`` (the
HiGHS bindings of ``scipy.optimize``) and ``discretize_gaussian``
(``scipy.special``) on their first call, so no subcommand loads it, and
``scipy.stats`` is never imported.  ``discrete-region`` asks OpenBLAS for one
thread unless its caller set a thread count.  Each check runs in a fresh
interpreter, because this test process has long since imported numpy and
scipy through other tests.
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


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def fresh_python(code: str, *flags: str, **env_vars: str) -> str:
    """Run code in a new interpreter, started with ``flags``, that imports rdclab
    from this checkout, with no BLAS thread count but the ones given; returns
    its last stdout line."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.update(env_vars)
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_import_rdclab_loads_no_scipy():
    assert json.loads(fresh_python("import rdclab\n" + HEAVY_MODULES)) == []  # nor numpy


def test_import_rdclab_loads_only_errors():
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import rdclab\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    assert json.loads(fresh_python(code)) == ["rdclab", "rdclab.errors"]


def test_cli_loads_no_importlib_resources():
    # Only bundled_source_path needs it.  -S keeps out site, whose .pth files
    # may import it first.
    code = "import sys\nimport rdclab.cli\nprint('importlib.resources' in sys.modules)\n"
    assert fresh_python(code, "-S") == "False"


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


# The package modules and numpy parts each subcommand loads, of those watched.
MODULES = {
    "gauss-curves": ["gaussian_model", "gaussian_tradeoff", "universal_gaussian"],
    "discrepancy-report": ["gaussian_model", "gaussian_tradeoff"],
    "bounds": ["bounds_eval", "gaussian_model", "gaussian_tradeoff", "universal_gaussian"],
    "discrete-region": ["_kernels", "discrete_region", "numpy"],
}
WATCHED_MODULES = (
    "import json, sys\n"
    "watched = {'numpy', 'numpy.ma', *(f'rdclab.{m}' for m in ('_kernels', 'bounds_eval',\n"
    "    'discrete_region', 'gaussian_model', 'gaussian_tradeoff', 'universal_gaussian',\n"
    "    'validation_oracles'))}\n"
    "print(json.dumps(sorted(m.removeprefix('rdclab.') for m in watched & set(sys.modules))))\n"
)


def cli_code(name: str, tmp_path, report: str, levels: str = "3") -> str:
    """Code running one subcommand as `python -m rdclab.cli` does (the package
    __init__, then the CLI), then ``report``."""
    argv = [
        a.format(out=str(tmp_path / "out"), flip01=str(bundled_source_path()))
        for a in SUBCOMMANDS[name]
    ]
    if name == "discrete-region":
        argv[argv.index("--levels") + 1] = levels
    return (
        "import runpy, sys\n"
        f"sys.argv = {['rdclab', *argv]!r}\n"
        "try:\n"
        "    runpy.run_module('rdclab.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n" + report
    )


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_subcommand_loads_no_scipy(name, tmp_path):
    assert json.loads(fresh_python(cli_code(name, tmp_path, HEAVY_MODULES))) == LOADS[name]


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_subcommand_loads_only_its_modules(name, tmp_path):
    # discrete-region loads no Gaussian module and no numpy.ma, which np.unique
    # and np.union1d would import: its alphabets are sorted Python sets.  The
    # Gaussian subcommands load neither discrete module.
    got = json.loads(fresh_python(cli_code(name, tmp_path, WATCHED_MODULES)))
    assert got == MODULES[name]


INTROSPECTION = (
    "import json, sys\n"
    "print(json.dumps(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules))))\n"
)


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_subcommand_loads_no_dataclasses(name, tmp_path):
    # The Gaussian subcommands run under -S, which keeps out site and the
    # .pth files that import typing first, and load none of the three.
    # discrete-region needs site-packages for numpy, which imports inspect and
    # typing itself.
    code = cli_code(name, tmp_path, INTROSPECTION)
    if name == "discrete-region":
        assert "dataclasses" not in json.loads(fresh_python(code))
    else:
        assert json.loads(fresh_python(code, "-S")) == []


def test_main_in_process_returns_and_leaves_stdout(tmp_path):
    # The traced benchmark calls main in its own process under redirect_stdout:
    # a subcommand that exits the process, registers an exit hook or writes to
    # the real stdout would end it early or add lines after its result.
    calls = [
        [a.format(out=str(tmp_path / name), flip01=str(bundled_source_path()))
         for a in SUBCOMMANDS[name]]
        for name in sorted(SUBCOMMANDS)
    ]
    code = (
        "import contextlib, io, json\n"
        "from rdclab.cli import main\n"
        "codes = []\n"
        f"for argv in {calls!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(main(argv))\n"
        "print(json.dumps({'sentinel': codes}))\n"
    )
    assert json.loads(fresh_python(code)) == {"sentinel": [0, 0, 0, 0]}


THREADS = (
    "print([line.split()[1] for line in open('/proc/self/status')\n"
    "       if line.startswith('Threads:')][0])\n"
)
needs_proc_status = pytest.mark.skipif(
    not Path("/proc/self/status").exists(), reason="reads /proc/self/status (Linux)"
)


@needs_proc_status
def test_discrete_region_starts_no_blas_threads(tmp_path):
    assert fresh_python(cli_code("discrete-region", tmp_path, THREADS)) == "1"


@needs_proc_status
@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
def test_callers_blas_threads_stand_and_keep_the_bytes(tmp_path):
    # The bytes under a caller's two threads are checked, with every golden,
    # by test_golden.py's test_discrete_region_bytes_on_every_host.
    code = cli_code("discrete-region", tmp_path, THREADS, levels="12")
    assert fresh_python(code, OPENBLAS_NUM_THREADS="2") == "2"


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
        "        ('_kernels', 'bounds_eval', 'discrete_region', 'gaussian_model',\n"
        "         'gaussian_tradeoff', 'universal_gaussian', 'validation_oracles')}\n"
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
