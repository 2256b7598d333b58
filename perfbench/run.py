"""The supercoh benchmark.

    python3 perfbench/run.py --workload catalog|semidirect4|borel-adjoint-p7
                             --seed N --seconds S --trace 0|1

`--workload all` measures the three in turn, each printing its own lines.

Run from the root of a source checkout.  Each pass runs in a fresh,
single-threaded worker process (`worker.py`), so peak RSS and the
straightening caches never carry over from one pass to the next; the
`UAlgebra` caches are never warmed, because users pay them on every report.
The first pass always runs; another starts only if, judging by the longest
pass so far, it ends within `--seconds`.  Consecutive passes are grouped
into samples of at least 4 s of work (a sample is the mean over its
passes), and the end-to-end metrics are medians over the samples: the host's
speed swings by up to a quarter within seconds, and the median of many
sub-second catalog passes flips between its fast and slow modes.

With `--trace 0` the last line of stdout is one JSON object with the
end-to-end metrics of `BENCHMARK.json`:

    setup_s      interpreter start until the inputs are parsed, validated
                 and built (median over every worker started, at least 11)
    wall_s       wall seconds of one pass, every verification included
    cpu_s        process CPU seconds of one pass
    peak_rss_mb  ru_maxrss of the worker

With `--trace 1`, plain and traced passes alternate and the JSON line holds
the per-layer metrics (see `tracer.py`) plus `trace_overhead`, the traced
over the plain median wall time.

A unit is one six-term report.  It fails on an exception, a false
exactness verdict, dims that differ from the catalog's `expected_dims`, or a
digest of its canonical payload that differs from `expected.json`.  The
human-readable lines above the JSON give `fail_ratio`; any failure sets
`correct` to false and the exit code to 1.  Exit code 2 means the checkout
holds no `src/supercoh` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

MIN_SETUP_SAMPLES = 11
MIN_SAMPLE_S = 4.0
# every run must end within 180 s; a worker still running then is killed
DEADLINE_S = 170.0

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"))


def worker(workload, seed, mode, timeout, spans=None):
    """Run one pass in a fresh process; returns its JSON result."""
    # one thread; a fixed hash seed so that the iteration order of sets of
    # strings, and with it the work done, repeats from pass to pass
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if spans:
        cmd += ["--spans", str(spans)]
    cmd += ["--spawn-ns", str(time.monotonic_ns())]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_units(result, expected, problems):
    """Judge one pass; returns (attempted, failed) unit counts."""
    units = result["units"]
    failed = 0
    for rec in units:
        uid = rec["id"]
        want = expected.get(uid)
        if "error" in rec:
            why = f"raised {rec['error']}"
        elif not rec["all_exact"]:
            why = "an exactness verdict is false"
        elif rec["expected_dims"] not in (None, rec["dims"]):
            why = f"dims {rec['dims']} != catalog {rec['expected_dims']}"
        elif want is None:
            why = "no recorded digest"
        elif rec["dims"] != want["dims"]:
            why = f"dims {rec['dims']} != recorded {want['dims']}"
        elif rec["sha256"] != want["sha256"]:
            why = "payload digest differs from the recorded one"
        else:
            continue
        failed += 1
        problems.append(f"{uid}: {why}")
    missing = set(expected) - {rec["id"] for rec in units}
    if missing:
        problems.append(f"units not run: {sorted(missing)}")
        failed += len(missing)
    return len(units) + len(missing), failed


def check_trace(workload, trace, seed_calls, problems):
    """A traced pass must have wrapped every binding and kept the span
    invariants; a layer the seed reached must still be reached."""
    problems.extend(f"trace: {b}" for b in trace["self_check"])
    if trace["unbound"]:
        problems.append(f"trace: unwrapped bindings {trace['unbound']}")
    m = trace["metrics"]
    for name, calls in seed_calls.items():
        if calls and not m[f"{name}.calls"]:
            problems.append(f"trace: {name} called {calls} times at the seed "
                            f"commit, now never; a binding was missed")
    # fg twists and extracts one extension per basis element of S, and
    # S = 0 only on borel-adjoint-p7
    ext = (m["extensions.assoc_2cocycle_from_restricted_ext.calls"]
           + m["extensions.twist_pmap.calls"])
    if (workload == "borel-adjoint-p7") != (ext == 0):
        problems.append(f"trace: {ext} extension twists/extractions on {workload}")


def sample_groups(passes):
    """Consecutive passes grouped until each group has run MIN_SAMPLE_S;
    a short tail joins the group before it.  A timing sample is the mean
    over one group, so that it spans the host's second-scale speed swings."""
    groups = [[]]
    for r in passes:
        if sum(g["wall_s"] for g in groups[-1]) >= MIN_SAMPLE_S:
            groups.append([])
        groups[-1].append(r)
    if len(groups) > 1 and sum(g["wall_s"] for g in groups[-1]) < MIN_SAMPLE_S:
        groups[-2].extend(groups.pop())
    return groups


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "supercoh" / "__init__.py").is_file():
        print(f"no supercoh sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = NAMES if args.workload == "all" else (args.workload,)
    return max([bench(w, args.seed, args.seconds, args.trace) for w in names])


def bench(workload, seed, seconds, trace):
    """Measure one workload; prints its summary and result line, returns
    the exit code."""
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        recorded = json.load(fh)
    expected = recorded[workload]["units"]

    t_start = time.monotonic()
    elapsed = lambda: time.monotonic() - t_start  # noqa: E731
    modes = ("plain", "traced") if trace else ("plain",)
    passes = {m: [] for m in modes}
    problems = []
    attempted = failed = 0
    longest_round = 0.0
    while True:
        t_round = time.monotonic()
        for mode in modes:
            spans = None
            if mode == "traced" and not passes["traced"]:
                OUT.mkdir(exist_ok=True)
                spans = OUT / f"{workload}-seed{seed}.spans.jsonl"
            try:
                res = worker(workload, seed, mode,
                             DEADLINE_S - elapsed(), spans)
            except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
                problems.append(f"{mode} pass: {exc}")
                attempted += len(expected)
                failed += len(expected)
                break
            a, f = check_units(res, expected, problems)
            attempted += a
            failed += f
            if mode == "traced":
                check_trace(workload, res["trace"],
                            recorded[workload]["seed_calls"], problems)
            passes[mode].append(res)
        longest_round = max(longest_round, time.monotonic() - t_round)
        if problems or elapsed() + longest_round > seconds:
            break
    plain = passes["plain"]
    setup = [r["setup_s"] for r in plain]
    while not (problems or trace) and len(setup) < MIN_SETUP_SAMPLES:
        try:
            setup.append(worker(workload, seed, "setup",
                                DEADLINE_S - elapsed())["setup_s"])
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            problems.append(f"setup pass: {exc}")

    for p in problems:
        print(f"FAIL {p}")
    print(f"workload {workload}  seed {seed}  "
          f"{len(plain)} plain pass(es)"
          + (f", {len(passes['traced'])} traced" if trace else ""))
    print(f"  fail_ratio   {failed / max(attempted, 1):10.4f} ratio "
          f"({failed} of {attempted} units failed)")
    metrics = {}
    if plain and not trace:
        groups = sample_groups(plain)
        series = {"setup_s": setup,
                  **{k: [statistics.fmean(r[k] for r in g) for g in groups]
                     for k, _ in END_TO_END[1:]}}
        for name, unit in END_TO_END:
            xs = series[name]
            med = statistics.median(xs)
            metrics[name] = {"value": med, "unit": unit}
            print(f"  {name:12s} {med:10.4f} {unit:5s} median of "
                  f"{len(xs)} {'workers' if name == 'setup_s' else 'samples'}"
                  f" (min {min(xs):.4f}, max {max(xs):.4f})")
    elif trace and passes["traced"]:
        metrics = layer_metrics(plain, passes["traced"])
        for name, m in metrics.items():
            print(f"  {name:58s} {m['value']:14.6g} {m['unit']}"
                  if m["unit"] != "count" else
                  f"  {name:58s} {m['value']:14d} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


def layer_metrics(plain, traced):
    """The `per_layer` metrics of `BENCHMARK.json`: times are medians over
    the traced passes, counts must repeat exactly across them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer"]
    out = {}
    for m in declared:
        name, unit = m["name"], m["unit"]
        if name == "trace_overhead":
            vals = [statistics.median(r["wall_s"] for r in traced)
                    / statistics.median(r["wall_s"] for r in plain)]
        else:
            vals = [r["trace"]["metrics"][name] for r in traced]
        if unit == "count":
            if len(set(vals)) != 1:
                raise RuntimeError(f"{name} differs between traced passes: {vals}")
            out[name] = {"value": vals[0], "unit": unit}
        else:
            out[name] = {"value": statistics.median(vals), "unit": unit}
    return out


if __name__ == "__main__":
    sys.exit(main())
