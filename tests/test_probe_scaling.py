"""``tools/probe_scaling.py``: one report in a child process under an
address-space cap, reported as one JSON object."""

import json
import subprocess
import sys
from pathlib import Path

PROBE = Path(__file__).resolve().parent.parent / "tools" / "probe_scaling.py"


def _probe(*args):
    done = subprocess.run([sys.executable, str(PROBE), *args],
                          capture_output=True, text=True, timeout=120)
    return done.returncode, json.loads(done.stdout.strip().splitlines()[-1])


def test_probe_reports_one_catalog_pair():
    code, out = _probe("a4-borel", "--max-as-mb", "3000")
    assert code == 0 and out["exit"] == 0
    assert (out["module"], out["p"], out["dims"]) == ("k", 3, [0, 1, 2, 1, 0, 0])
    assert out["all_exact"] and out["bar_c2_dim"] == 64
    assert out["bar_c2_weight0_dim"] == 22  # weight 0 under the torus t
    assert 0 <= out["seconds"] < 1 and out["peak_mb"] > 0
    assert out["max_as_mb"] == 3000


def test_probe_reports_a_child_that_exceeds_its_cap():
    """A 40 MB address space is too small to import numpy: the child fails,
    and the probe still prints its JSON, with the exit status, and exits 1."""
    code, out = _probe("a4-borel", "--max-as-mb", "40")
    assert code == 1 and out["exit"] != 0 and "dims" not in out
    assert out["max_as_mb"] == 40
