"""The benchmark's own gates, run on this tree: its machinery selftest and
one short traced catalog pass.  The traced pass checks every unit's payload
digest and that each function the benchmark traces is still wrapped and
still reached, so renaming or moving a traced function fails here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_and_traced_catalog_pass():
    for args in (["perfbench/selftest.py"],
                 ["perfbench/run.py", "--workload", "catalog", "--seed", "1",
                  "--seconds", "0.5", "--trace", "1"]):
        done = subprocess.run([sys.executable, *args], cwd=ROOT,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, (args, done.stdout[-2000:],
                                      done.stderr[-2000:])
