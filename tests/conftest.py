import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from supercoh import catalog
from supercoh.algfile import parse_algebra_dict
from supercoh.superalg import adjoint_module

# sl2 = <e, h, f> at p = 5 with e^[p] = f^[p] = 0, h^[p] = h.  Not a catalog
# entry: the catalog workload and the golden payloads iterate over those.
SL2_P5 = {
    "p": 5,
    "even": ["e", "h", "f"],
    "odd": [],
    "brackets": {"[h,e]": {"e": 2}, "[h,f]": {"f": -2}, "[e,f]": {"h": 1}},
    "pmap": {"e": {}, "h": {"h": 1}, "f": {}},
    "modules": {"k": {"even": ["m"], "odd": [], "action": {}}},
}


@pytest.fixture(scope="session")
def loaded_catalog():
    """entry_id -> (entry, algebra, {module name: Representation})."""
    out = {}
    for e in catalog.ENTRIES:
        g, modules, warnings = parse_algebra_dict(e.data)
        assert not warnings
        out[e.entry_id] = (e, g, modules)
    return out


@pytest.fixture(scope="session")
def small_catalog(loaded_catalog):
    """The p=3 entries with at most 2-dimensional algebras, for heavy fuzz."""
    keep = ("a1-null", "a2-torus", "a3-heisenberg", "a4-borel",
            "a5-odd-line", "a7-mixed-line")
    return {k: loaded_catalog[k] for k in keep}


@pytest.fixture(scope="session")
def sl2_p5_adjoint():
    """(sl2 at p = 5, its adjoint module): a bar d1 of 46128 x 372."""
    g, _, warnings = parse_algebra_dict(SL2_P5)
    assert not warnings
    return g, adjoint_module(g)


def fixture_algebra(loaded_catalog, entry_id, module="k"):
    e, g, modules = loaded_catalog[entry_id]
    return g, modules[module]
