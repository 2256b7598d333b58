"""Benchmark workloads: the six-term reports one pass computes.

Each workload varies (dim g, p, dim M), the axes the bar complex scales
with; `workloads.json` records their sizes and why each was chosen.  A unit
is one verified six-term report.  `catalog` only supplies inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

NAMES = ("catalog", "semidirect4", "borel-adjoint-p7")


@dataclass(frozen=True)
class Unit:
    unit_id: str
    module_id: str
    g: object
    rep: object
    expected_dims: tuple | None


def build(name, seed, supercoh):
    """Parse, validate and build the inputs of one pass.

    The seed sets the order of the catalog entries, so a cache leaking from
    one report into the next shows up as an order-dependent digest.  The
    other workloads have one unit each and the seed does not change them.
    """
    from supercoh import catalog
    parse = supercoh.algfile.parse_algebra_dict
    if name == "catalog":
        entries = list(catalog.ENTRIES)
        random.Random(seed).shuffle(entries)
        units = []
        for e in entries:
            g, modules, _ = parse(e.data)
            units.append(Unit(e.entry_id, e.module_name, g,
                              modules[e.module_name], e.expected_dims))
        return units
    if name == "semidirect4":
        # borel |x adjoint: dim g = 4 at p = 3, on the trivial module
        entry = catalog.get_entry("a4-borel-adjoint")
        g, modules, _ = parse(entry.data)
        E, _ = supercoh.superalg.semidirect(g, modules["adjoint"])
        supercoh.superalg.require_valid(E)
        return [Unit(name, "trivial", E, supercoh.superalg.trivial_module(E),
                     None)]
    if name == "borel-adjoint-p7":
        entry = catalog.get_entry("a4-borel-adjoint")
        g, modules, _ = parse(dict(entry.data, p=7))
        return [Unit(name, "adjoint", g, modules["adjoint"], None)]
    raise ValueError(f"unknown workload {name!r}")


def canonical_payload(report):
    """The deterministic part of a six-term report: dims, space dims,
    exactness verdicts and every map entry, sorted."""
    return {
        "dims": [int(d) for d in report.dims],
        "space_dims": [int(d) for d in report.sizes["space_dims"]],
        "exactness": {k: bool(v) for k, v in sorted(report.exactness.items())},
        "maps": {k: {"rows": int(m.rows), "cols": int(m.cols),
                     "entries": [[int(i), int(j), int(v)]
                                 for (i, j), v in sorted(m.entries.items())]}
                 for k, m in sorted(report.maps.items())},
    }
