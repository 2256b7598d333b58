"""The benchmark's own gates, run on this tree: its machinery selftest and
one short traced pass of each workload.  A traced pass checks every unit's
payload digest and that each function the benchmark traces is still
wrapped and still reached, so renaming or moving a traced function fails
here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _passes(args):
    done = subprocess.run([sys.executable, *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, (args, done.stdout[-2000:],
                                  done.stderr[-2000:])


def _traced(workload):
    return ["perfbench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "0.5", "--trace", "1"]


def test_benchmark_selftest_and_traced_catalog_pass():
    _passes(["perfbench/selftest.py"])
    _passes(_traced("catalog"))


def test_benchmark_traced_semidirect4_pass():
    """The one workload whose units extract bar cocycles on an algebra of
    dim 4 (four fg twists): its digest pins that extraction."""
    _passes(_traced("semidirect4"))


def test_benchmark_traced_borel_adjoint_p7_pass():
    """The one workload that extracts no bar cocycle (S = 0, ker phi = 0):
    its units read the aug x aug product table only for the bar d1."""
    _passes(_traced("borel-adjoint-p7"))
