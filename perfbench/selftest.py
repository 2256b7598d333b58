"""Self-test of the benchmark's own machinery.

    python3 perfbench/selftest.py

Runs the `catalog` workload once plain and once traced, in two different
entry orders, and checks that

  * the traced and plain passes give identical payload digests, equal to
    the ones recorded in `expected.json`;
  * every span has self time >= 0;
  * the self times of one unit sum to at most that unit's wall time;
  * every per-layer metric `BENCHMARK.json` declares is produced;
  * a digest or dims mismatch is counted as a failed unit;
  * a binding the tracer failed to replace is reported.

Exits 0 when all hold.  Takes about 5 s.
"""

from __future__ import annotations

import collections
import copy
import json
import sys

import run

FAILURES = []


def check(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def main():
    with open(run.HERE / "expected.json", encoding="utf-8") as fh:
        expected = json.load(fh)["catalog"]["units"]
    run.OUT.mkdir(exist_ok=True)
    spans_path = run.OUT / "selftest.spans.jsonl"
    plain = run.worker("catalog", 0, "plain", 120)
    traced = run.worker("catalog", 1, "traced", 120, spans_path)

    def digests(res):
        return {u["id"]: u["sha256"] for u in res["units"]}
    order = [u["id"] for u in plain["units"]], [u["id"] for u in traced["units"]]
    check(order[0] != order[1], "the two seeds order the entries differently")
    check(digests(plain) == digests(traced),
          "traced and plain passes give identical digests")
    check(digests(plain) == {k: v["sha256"] for k, v in expected.items()},
          "digests equal the recorded ones")

    with open(spans_path, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh]
    spans = lines[:-1]
    check(bool(spans) and all(s["self_ns"] >= 0 for s in spans),
          f"all {len(spans)} recorded spans have self time >= 0")
    per_unit = collections.Counter()
    for s in spans:
        per_unit[s["unit"]] += s["self_ns"]
    walls = {k: u["wall_ns"] for k, u in enumerate(traced["units"])}
    check(all(per_unit[k] <= w for k, w in walls.items()),
          "recorded self times of each unit sum to at most its wall time")
    check(traced["trace"]["self_check"] == [],
          f"tracer invariants over every call: {traced['trace']['self_check']}")

    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    missing = declared - set(traced["trace"]["metrics"]) - {"trace_overhead"}
    check(not missing, f"every declared per-layer metric is produced {sorted(missing)}")

    tampered = copy.deepcopy(expected)
    first = plain["units"][0]["id"]
    tampered[first]["sha256"] = "0" * 64
    problems = []
    _, failed = run.check_units(plain, tampered, problems)
    check(failed == 1 and first in problems[0], "a digest mismatch fails its unit")
    bad_dims = copy.deepcopy(plain)
    bad_dims["units"][0]["dims"] = [9] * 6
    problems = []
    _, failed = run.check_units(bad_dims, expected, problems)
    check(failed == 1, "a dims mismatch fails its unit")

    check(missed_binding_is_reported(), "a binding left unwrapped is reported")
    return 1 if FAILURES else 0


def missed_binding_is_reported():
    import worker
    from tracer import Tracer
    supercoh = worker.import_supercoh()
    import supercoh.sixterm as sixterm
    tracer = Tracer()
    tracer.install(supercoh)
    clean = tracer.unbound_originals(supercoh) == []
    sixterm.nullspace = sixterm.nullspace.__wrapped__
    return clean and tracer.unbound_originals(supercoh) == ["supercoh.sixterm.nullspace"]


if __name__ == "__main__":
    sys.exit(main())
