"""Time one six-term report in a child process under an address-space cap.

    python tools/probe_scaling.py INPUT [--p P] [--module M] [--semidirect]
                                  [--max-as-mb N]

INPUT is a catalog entry id or an algebra file.  ``--p`` replaces its
modulus.  ``--semidirect`` replaces g by g |x ad(g).  ``--module`` names the
module: ``trivial``, ``adjoint`` or one defined in INPUT (the catalog
entry's own module by default, ``trivial`` for a file or with
``--semidirect``).

The report runs in a fresh child process; ``--max-as-mb`` caps that child's
address space (``RLIMIT_AS``, set in the child between fork and exec), so
an input that needs more fails there instead of pressing on the host.  The
probe prints one JSON object: the input, the report's dims and exactness,
the dimension of the bar C^2 and of its weight-0 part (the one a report
reduces when g has a basis torus), its seconds, the child's peak RSS in MB
(``ru_maxrss``) and its exit status.  It exits 0 when the child did, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _parser():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("input")
    ap.add_argument("--p", type=int)
    ap.add_argument("--module")
    ap.add_argument("--semidirect", action="store_true")
    ap.add_argument("--max-as-mb", type=int)
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return ap


def _inputs(args):
    """(g, rep, module name) of the probe's input."""
    from supercoh import catalog
    from supercoh.algfile import parse_algebra, parse_algebra_dict
    from supercoh.superalg import adjoint_module, semidirect, trivial_module

    if Path(args.input).is_file():
        g, modules, _ = parse_algebra(Path(args.input).read_text(),
                                      p_override=args.p)
        name = args.module or "trivial"
    else:
        entry = catalog.get_entry(args.input)
        data = entry.data if args.p is None else dict(entry.data, p=args.p)
        g, modules, _ = parse_algebra_dict(data)
        name = args.module or ("trivial" if args.semidirect
                               else entry.module_name)
    if args.semidirect:
        g, modules = semidirect(g, adjoint_module(g))[0], {}
    builtin = {"trivial": trivial_module, "adjoint": adjoint_module}
    rep = modules[name] if name in modules else builtin[name](g)
    return g, rep, name


def _child(args):
    sys.path.insert(0, str(SRC))
    from supercoh.sixterm import build_six_term

    g, rep, name = _inputs(args)
    t0 = time.perf_counter()
    report = build_six_term(g, rep, args.input, name)
    print(json.dumps({"module": name, "p": g.p, "dims": list(report.dims),
                      "all_exact": report.all_exact,
                      "bar_c2_dim": report.sizes["bar_c2_dim"],
                      "bar_c2_weight0_dim": report.sizes["bar_c2_weight0_dim"],
                      "seconds": round(time.perf_counter() - t0, 3)}))


def main(argv=None):
    args = _parser().parse_args(argv)
    if args.child:
        return _child(args)
    cap = args.max_as_mb

    def limit():
        if cap:
            resource.setrlimit(resource.RLIMIT_AS, (cap << 20, cap << 20))
    cmd = [sys.executable, __file__, "--child", *(argv or sys.argv[1:])]
    done = subprocess.run(cmd, capture_output=True, text=True,
                          preexec_fn=limit)
    out = {"input": args.input, "semidirect": args.semidirect,
           "max_as_mb": cap, "exit": done.returncode}
    if done.returncode == 0:
        out.update(json.loads(done.stdout.strip().splitlines()[-1]))
    else:
        lines = done.stderr.strip().splitlines()
        out["error"] = lines[-1] if lines else None
    # the one child this process waited for
    out["peak_mb"] = round(
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, 1)
    print(json.dumps(out))
    return 0 if done.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
