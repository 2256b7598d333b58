"""One benchmark pass in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --spawn-ns T
                                --mode setup|plain|traced [--spans FILE]

Imports `supercoh` from the `src/` next to this directory, builds the
workload's inputs, and (unless `--mode setup`) computes every unit's
six-term report.  `--spawn-ns` is the parent's `time.monotonic_ns()` just
before it started this process, so `setup_s` runs from interpreter start
until the inputs are parsed, validated and built.  Prints one JSON object;
the parent judges correctness.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_supercoh():
    sys.path.insert(0, str(SRC))
    import supercoh
    import supercoh.algfile  # noqa: F401  (the package does not import it)
    if Path(supercoh.__file__).resolve().parent != SRC / "supercoh":
        raise ImportError(f"supercoh imported from {supercoh.__file__}, "
                          f"not from {SRC}")
    return supercoh


def run_units(supercoh, units, tracer):
    out = []
    for k, u in enumerate(units):
        if tracer is not None:
            tracer.unit = k
        t0 = time.perf_counter_ns()
        rec = {"id": u.unit_id, "expected_dims": u.expected_dims}
        try:
            report = supercoh.sixterm.build_six_term(
                u.g, u.rep, algebra_id=u.unit_id, module_id=u.module_id)
            payload = workloads.canonical_payload(report)
            text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
            rec.update(dims=payload["dims"], all_exact=report.all_exact,
                       sha256=hashlib.sha256(text.encode()).hexdigest())
        except Exception as exc:  # a failed unit is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            rec["error"] = repr(exc)
        rec["wall_ns"] = time.perf_counter_ns() - t0
        out.append(rec)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawn-ns", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "plain", "traced"),
                    required=True)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    supercoh = import_supercoh()
    tracer = None
    if args.mode == "traced":
        tracer = Tracer()
        tracer.install(supercoh)
    units = workloads.build(args.workload, args.seed, supercoh)
    result = {"setup_s": (time.monotonic_ns() - args.spawn_ns) / 1e9}
    if args.mode != "setup":
        c0 = time.process_time()
        t0 = time.perf_counter()
        result["units"] = run_units(supercoh, units, tracer)
        result["wall_s"] = time.perf_counter() - t0
        result["cpu_s"] = time.process_time() - c0
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer is not None:
        walls = {k: rec["wall_ns"] for k, rec in enumerate(result["units"])}
        result["trace"] = {
            "metrics": tracer.layer_metrics(),
            "self_check": tracer.self_check(walls),
            "unbound": tracer.unbound_originals(supercoh),
        }
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
