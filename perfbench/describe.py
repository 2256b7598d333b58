"""Print the size descriptors of every benchmark unit as JSON.

    python3 perfbench/describe.py > perfbench/workloads.json.new

For each unit: dim g (even|odd), p, dim M (even|odd), dim u(g), the bar
cochain dims C^1 and C^2, the shape and nnz of the bar differential d2
(C^2 -> C^3), and dim S(g_0, M_0^g).  Building d2 is the costly part:
about 10 s for `semidirect4`.  `workloads.json` keeps the output together
with the reason each workload was chosen.
"""

from __future__ import annotations

import json
import sys

import workloads
from worker import import_supercoh


def describe(supercoh, unit):
    from supercoh.cohomology import assoc_cochain_basis, assoc_differential_matrix
    from supercoh.envelope import UAlgebra
    from supercoh.superalg import invariants, semilinear_pairs
    g, rep = unit.g, unit.rep
    ualg = UAlgebra(g, restricted=True)
    c1, c2 = (assoc_cochain_basis(ualg, rep.space, n).dim for n in (1, 2))
    d2 = assoc_differential_matrix(ualg, rep, 2)
    return {
        "dim_g": f"{g.space.n_even}|{g.space.n_odd}",
        "p": g.p,
        "dim_M": f"{rep.space.n_even}|{rep.space.n_odd}",
        "dim_u": ualg.dim,
        "bar_c1": c1,
        "bar_c2": c2,
        "d2_shape": [d2.rows, d2.cols],
        "d2_nnz": d2.nnz,
        "dim_S": len(semilinear_pairs(g, invariants(g, rep)[1])),
    }


def main():
    supercoh = import_supercoh()
    out = {}
    for name in workloads.NAMES:
        out[name] = {u.unit_id: describe(supercoh, u)
                     for u in workloads.build(name, 0, supercoh)}
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    print()


if __name__ == "__main__":
    main()
