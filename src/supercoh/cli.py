"""Command-line interface.

Subcommands::

    supercoh validate <file>
    supercoh cohomology <file> --module NAME --degree {0,1,2} --kind {lie,restricted}
    supercoh sixterm <file> --module NAME
    supercoh examples {list, show ID, run-all}
    supercoh selftest

Global flags: ``--json OUT`` writes a machine-readable report (identical
inputs give identical payloads; wall-clock telemetry goes to stderr),
``--p-override P`` supplies p for files that omit it, ``--seed N`` seeds
the randomized self-test suites.

Exit codes: 0 success, 2 parse error, 3 validation failure, 4 exactness
failure, 5 internal error or self-test failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from . import catalog as _catalog
from .algfile import parse_algebra, parse_algebra_dict
from .errors import ParseError, SupercohError, ValidationError

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_EXACTNESS = 4
EXIT_INTERNAL = 5


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _report(kind, digest, payload):
    return {
        "schema_version": SCHEMA_VERSION,
        "command": kind,
        "input_digest": digest,
        "payload": payload,
    }


def _emit(report, json_path, telemetry=None):
    if telemetry:
        for key, val in sorted(telemetry.items()):
            print(f"[telemetry] {key}: {val}", file=sys.stderr)
    if json_path:
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        if json_path == "-":
            sys.stdout.write(text)
        else:
            with open(json_path, "w", encoding="utf-8") as fh:
                fh.write(text)


def _load(path, p_override):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    g, modules, warnings = parse_algebra(text, p_override=p_override)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return text, g, modules


def _size_warning(g, rep):
    """Warn on stderr when the bar complex's degree-2 cochains, the largest
    space a bar route builds, are many: about (dim u - 1)^2 dim M."""
    dim_u = g.p ** g.space.n_even * 2 ** g.space.n_odd
    cells = (dim_u - 1) ** 2 * rep.dim
    if cells > 10 ** 6:
        print(f"warning: bar complex has ~{cells} degree-2 cells; "
              f"this may take a long time", file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args):
    text, g, modules = _load(args.file, args.p_override)
    payload = {
        "p": g.p,
        "dim_even": g.space.n_even,
        "dim_odd": g.space.n_odd,
        "modules": sorted(modules),
        "valid": True,
    }
    print(f"ok: restricted Lie superalgebra of dimension "
          f"({g.space.n_even}|{g.space.n_odd}) over GF({g.p}), "
          f"modules: {', '.join(sorted(modules))}")
    _emit(_report("validate", _digest(text), payload), args.json)
    return EXIT_OK


def cmd_cohomology(args):
    text, g, modules = _load(args.file, args.p_override)
    if args.module not in modules:
        raise ValidationError(f"module {args.module!r} not defined "
                              f"(available: {', '.join(sorted(modules))})")
    rep = modules[args.module]
    from .cohomology import CochainComplex, lie_cohomology, restricted_cohomology
    t0 = time.perf_counter()
    if args.kind == "lie":
        res = lie_cohomology(CochainComplex(g, rep, "lie"), args.degree)
    else:
        _size_warning(g, rep)
        res = restricted_cohomology(CochainComplex(g, rep, "bar"), args.degree)
    dt = time.perf_counter() - t0
    payload = {
        "p": g.p,
        "module": args.module,
        "degree": args.degree,
        "kind": args.kind,
        "dim_cochains": res.cochain_dim,
        "dim_cocycles": res.Z.dim,
        "dim_coboundaries": res.B.dim,
        "dim_h": res.dim_h,
        "representatives": [list(r) for r in res.representatives],
    }
    print(f"H^{args.degree}{'_*' if args.kind == 'restricted' else ''}"
          f"({args.file}:{args.module}) = {res.dim_h}  "
          f"(cocycles {res.Z.dim}, coboundaries {res.B.dim})")
    _emit(_report("cohomology", _digest(text), payload), args.json,
          telemetry={"seconds": f"{dt:.3f}"})
    return EXIT_OK


def _sixterm_payload(report):
    return {
        "algebra": report.algebra_id,
        "module": report.module_id,
        "p": report.p,
        "dims": list(report.dims),
        "space_dims": list(report.sizes.get("space_dims", ())),
        "maps": {k: {"rows": m.rows, "cols": m.cols,
                     "entries": {f"{i},{j}": v
                                 for (i, j), v in sorted(m.entries.items())}}
                 for k, m in report.maps.items()},
        "exactness": dict(report.exactness),
        "offending": {k: list(v) for k, v in report.offending.items()},
        "all_exact": report.all_exact,
    }


def cmd_sixterm(args):
    from .sixterm import build_six_term
    text, g, modules = _load(args.file, args.p_override)
    if args.module not in modules:
        raise ValidationError(f"module {args.module!r} not defined "
                              f"(available: {', '.join(sorted(modules))})")
    rep = modules[args.module]
    _size_warning(g, rep)
    report = build_six_term(g, rep, algebra_id=args.file, module_id=args.module)
    print(report.summary())
    payload = _sixterm_payload(report)
    _emit(_report("sixterm", _digest(text), payload), args.json,
          telemetry={f"t_{k}": f"{v:.3f}" for k, v in report.timings.items()})
    return EXIT_OK if report.all_exact else EXIT_EXACTNESS


def cmd_examples(args):
    if args.action == "list":
        for e in _catalog.ENTRIES:
            print(f"{e.entry_id:24s} {e.description}")
        _emit(_report("examples-list", _digest(""),
                      {"entries": list(_catalog.entry_ids())}), args.json)
        return EXIT_OK
    if args.action == "show":
        if not args.entry:
            raise ParseError("examples show requires an entry id")
        try:
            e = _catalog.get_entry(args.entry)
        except KeyError as exc:
            raise ParseError(exc.args[0]) from None
        print(json.dumps(e.data, indent=2, sort_keys=True))
        _emit(_report("examples-show", _digest(e.entry_id),
                      {"entry": e.entry_id, "module": e.module_name,
                       "data": e.data}), args.json)
        return EXIT_OK
    # run-all
    from .sixterm import build_six_term
    results = []
    worst = EXIT_OK
    t0 = time.perf_counter()
    for e in _catalog.ENTRIES:
        g, modules, _ = parse_algebra_dict(e.data)
        rep = modules[e.module_name]
        report = build_six_term(g, rep, algebra_id=e.entry_id,
                                module_id=e.module_name)
        ok = report.all_exact
        dims_ok = (e.expected_dims is None
                   or tuple(report.dims) == tuple(e.expected_dims))
        status = "ok" if (ok and dims_ok) else "FAIL"
        print(f"{e.entry_id:24s} dims={report.dims} exact={ok} {status}")
        results.append({"entry": e.entry_id, "dims": list(report.dims),
                        "exactness": dict(report.exactness),
                        "dims_expected_ok": dims_ok})
        if not (ok and dims_ok):
            worst = EXIT_EXACTNESS
    dt = time.perf_counter() - t0
    print(f"{'all exact' if worst == EXIT_OK else 'FAILURES'} "
          f"({len(_catalog.ENTRIES)} entries)")
    _emit(_report("examples-run-all", _digest(""), {"results": results}),
          args.json, telemetry={"seconds": f"{dt:.3f}"})
    return worst


def cmd_selftest(args):
    import random

    from .cohomology import CochainComplex, restricted_cohomology
    from .envelope import check_commutator_identities
    from .extensions import (assoc_2cocycle_from_restricted_ext,
                             cocycle_from_algebra_ext, algebra_ext_from_2cocycle,
                             semidirect_extension)

    rng = random.Random(args.seed)
    failures = []

    def check(name, ok):
        print(f"  {name}: {'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append(name)

    for e in _catalog.ENTRIES:
        g, modules, _ = parse_algebra_dict(e.data)
        rep = modules[e.module_name]
        lie = CochainComplex(g, rep, "lie")
        bar = CochainComplex(g, rep, "bar")
        print(f"selftest {e.entry_id}:")
        for n in (0, 1):
            check(f"lie d^2=0 at n={n}", lie.d(n + 1).matmul(lie.d(n)).is_zero())
            check(f"bar d^2=0 at n={n}", bar.d(n + 1).matmul(bar.d(n)).is_zero())
        check("commutator identities",
              check_commutator_identities(g, trials=10, seed=rng.randrange(10**6)).ok)
        h1s = restricted_cohomology(bar, 1)
        h1p, h2p = (restricted_cohomology(bar.pair(), n) for n in (1, 2))
        check("p-th power condition agreement", h1p.dim_h == h1s.dim_h)
        Z2 = lie.kernel(2)
        ok = True
        for row in Z2.basis_rows[:3]:
            ext = algebra_ext_from_2cocycle(lie, row)
            ok = ok and cocycle_from_algebra_ext(ext, lie) == tuple(int(x) for x in row)
        check("2-cocycle round trip", ok)
        s0 = semidirect_extension(g, rep)
        c0 = assoc_2cocycle_from_restricted_ext(s0, bar)
        h2s = restricted_cohomology(bar, 2)
        check("trivial extension has class zero",
              all(v == 0 for v in h2s.class_coords(c0)))
        check("pair-model dim H^2_* agrees with the bar complex",
              h2p.dim_h == bar.kernel(2).dim - bar.image(1).dim)
    print("selftest:", "ok" if not failures else f"{len(failures)} failure(s)")
    _emit(_report("selftest", _digest(str(args.seed)),
                  {"failures": failures, "seed": args.seed}), args.json)
    return EXIT_OK if not failures else EXIT_INTERNAL


# ---------------------------------------------------------------------------

def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", metavar="OUT",
                        help="write a machine-readable report ('-' for stdout)")
    common.add_argument("--p-override", type=int, metavar="P",
                        help="characteristic for files that do not pin p")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for randomized self-test suites")
    ap = argparse.ArgumentParser(
        prog="supercoh",
        description="Cohomology of restricted Lie superalgebras over GF(p) "
                    "and the six-term exact sequence connecting the "
                    "restricted and ordinary theories.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("validate", parents=[common],
                        help="check a description file")
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("cohomology", parents=[common],
                        help="compute one cohomology space")
    sp.add_argument("file")
    sp.add_argument("--module", default="trivial")
    sp.add_argument("--degree", type=int, choices=(0, 1, 2), required=True)
    sp.add_argument("--kind", choices=("lie", "restricted"), required=True)
    sp.set_defaults(fn=cmd_cohomology)

    sp = sub.add_parser("sixterm", parents=[common],
                        help="build and verify the six-term sequence")
    sp.add_argument("file")
    sp.add_argument("--module", default="trivial")
    sp.set_defaults(fn=cmd_sixterm)

    sp = sub.add_parser("examples", parents=[common], help="built-in catalog")
    sp.add_argument("action", choices=("list", "show", "run-all"))
    sp.add_argument("entry", nargs="?")
    sp.set_defaults(fn=cmd_examples)

    sp = sub.add_parser("selftest", parents=[common],
                        help="run the invariant suites")
    sp.set_defaults(fn=cmd_selftest)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except FileNotFoundError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SupercohError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # noqa: BLE001 - exit-code contract
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
