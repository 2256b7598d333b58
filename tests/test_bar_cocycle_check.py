"""``is_bar_2cocycle`` reads the generator slices of the bar d2 off the
coordinates of a weight-zero complex, one run of rows per grade, and is
checked here against the dense all-slices oracle
``oracles.bar_2cocycle_all_slices`` on the weight-zero bar complex of every
(g, M) pair of ``test_lie_array_form.PAIRS`` that has a basis torus of
nonzero weight (catalog and ``tests/data`` inputs) and on semidirect4
(a4-borel-adjoint |x adjoint with trivial M).

The inputs are random weight-0 cochains, d1 images, Ker d2 vectors, and
cocycles with one coordinate bent: at a coordinate read by the action
term alone, by the left term c(x s_2, s_3) alone, by the right term
c(x, s_2 s_3) alone, and at a random one.  Each is checked alone, and
all of a pair's as one stack, as a stack of one more axis and as an
empty stack."""

import random

import numpy as np
import pytest

from supercoh.cohomology import CochainComplex, is_bar_2cocycle
from supercoh.gflin import nullspace
from supercoh.sixterm import SixTermContext
from supercoh.superalg import semidirect, trivial_module

from oracles import bar_2cocycle_all_slices
from test_lie_array_form import PAIRS

TORUS_PAIRS = [(label, g, rep) for label, g, rep in PAIRS
               if CochainComplex(g, rep, "bar").weight_zero().torus]
FAMILIES = ("action", "left", "right")


def _readers(bar):
    """For each coordinate ((s_2, s_3), nu) of ``bar``'s 2-cochains, the
    term families of the generator slices of d2 that read it: the action
    x . c(s_2, s_3) when column nu of some rho(x) is nonzero, the left
    term when s_2 is a term of some x b, the right term when s_2 is a
    generator and s_3 a term of some product a b."""
    p = bar.g.p
    gens = {bar.aug_power(i, 1) for i in range(bar.g.dim)}
    a, _, w, coef = bar.ualg.aug_product_table()
    live = coef % p != 0
    left = set(w[live & np.isin(a, list(gens))].tolist())
    right = set(w[live].tolist())
    acted = {nu for m in bar.rep.mats for nu in np.flatnonzero(m.any(axis=0))}
    return [{f for f, reads in (("action", nu in acted), ("left", s2 in left),
                                ("right", s2 in gens and s3 in right))
             if reads}
            for (s2, s3), nu in bar.basis(2).items]


def _cases(bar, cocycles, rng):
    """(cochain, bent family or None) for ``bar``: two random cochains, two
    d1 images, the given cocycles, and each one-reader bend of the first
    cocycle, plus one random bend."""
    p, n1 = bar.g.p, bar.d(0).rows
    n2 = bar.d(1).rows
    cases = [(np.array([rng.randrange(p) for _ in range(n2)]), None)
             for _ in range(2)]
    images = [np.array(bar.d(1).matvec([rng.randrange(p) for _ in range(n1)]))
              for _ in range(2)]
    base = [np.asarray(z) for z in cocycles] + images
    cases += [(z, None) for z in base]
    readers = _readers(bar)
    for family in FAMILIES:
        only = [k for k, r in enumerate(readers) if r == {family}]
        if only:
            bent = base[0].copy()
            k = rng.choice(only)
            bent[k] = (bent[k] + 1) % p
            cases.append((bent, family))
    bent = base[0].copy()
    k = rng.randrange(n2)
    bent[k] = (bent[k] + rng.randrange(1, p)) % p
    cases.append((bent, None))
    return cases


def _check(bar, cases):
    """Every case alone and all as a stack agree with the oracle; a bend
    read by one family only is caught.  Returns the families bent."""
    want = [bar_2cocycle_all_slices(bar, c) for c, _ in cases]
    got = [is_bar_2cocycle(bar, c) for c, _ in cases]
    assert got == want
    assert all(np.shape(v) == () for v in got)
    stack = np.array([c for c, _ in cases])
    assert is_bar_2cocycle(bar, stack).tolist() == want
    assert is_bar_2cocycle(bar, stack[:, None]).tolist() == [[v] for v in want]
    assert is_bar_2cocycle(bar, stack[:0]).shape == (0,)
    bent = {family for (_, family), ok in zip(cases, want) if family}
    assert not any(ok for (_, family), ok in zip(cases, want) if family)
    return bent


@pytest.mark.parametrize("label,g,rep", TORUS_PAIRS,
                         ids=[t[0] for t in TORUS_PAIRS])
def test_is_bar_2cocycle_agrees_with_all_slices_on_weight_zero(label, g, rep):
    """The weight-zero complex of every torus-bearing pair: Ker d2 vectors
    from the assembled d2 when |aug| <= 30; above that (osp(1|2), sl2 at
    p = 5) the d2 has over a million rows, and the d1 images are the Ker
    d2 vectors."""
    bar = CochainComplex(g, rep, "bar").weight_zero()
    rng = random.Random(label)
    cocycles = (nullspace(bar.d(2)).basis_rows[:3]
                if len(bar.ualg.aug_basis()) <= 30 else [])
    _check(bar, _cases(bar, cocycles, rng))


def test_the_torus_pairs_bend_every_family():
    """Across the torus-bearing pairs each family has a coordinate that it
    alone reads, and the pairs include odd parts and nontrivial actions."""
    seen = set()
    for _, g, rep in TORUS_PAIRS:
        bar = CochainComplex(g, rep, "bar").weight_zero()
        seen |= {frozenset(r) for r in _readers(bar)}
    assert {frozenset({f}) for f in FAMILIES} <= seen
    assert len(TORUS_PAIRS) == 31
    assert any(g.space.n_odd for _, g, _ in TORUS_PAIRS)


def test_is_bar_2cocycle_agrees_with_all_slices_on_semidirect4(loaded_catalog):
    """semidirect4's weight-zero complex (|aug| = 80, trivial M, so no
    action term): its fg cocycles and fills as the Ker d2 vectors, and the
    one-reader bends of the left and right terms."""
    _, g, modules = loaded_catalog["a4-borel-adjoint"]
    E, _ = semidirect(g, modules["adjoint"])
    ctx = SixTermContext(E, trivial_module(E))
    bar = ctx.bar
    assert bar.torus
    cocycles = list(ctx.fg_cocycles) + list(ctx.h2s.R.rows)
    cases = _cases(bar, cocycles, random.Random(4))
    assert _check(bar, cases) == {"left", "right"}
