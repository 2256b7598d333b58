"""PBW bases and the straightening product in u(g).

The restricted enveloping algebra u(g) has monomial basis with even
exponents below p and odd exponents below 2.  Products are straightened
one generator at a time: x_k m, for m = x_j m' with x_j its first
generator, is a PBW monomial when k < j; when k = j it raises the exponent
or uses x^p = x^[p] or the odd square y^2 = (1/2)[y,y]; when k > j it is
(+-) x_j (x_k m') + [x_k, x_j] m' with the Koszul sign.  A
degree-truncated U(g) mode exists for identities that must be evaluated
before the p-th power relation fires.
"""

import numpy as np

from supercoh import LieSuperAlgebra, SuperSpace, UAlgebra, check_commutator_identities
from supercoh.errors import DegreeOverflowError

p = 3
space = SuperSpace(("z",), ("y",))
br = np.zeros((2, 2, 2), dtype=np.int64)
br[1, 1] = [1, 0]
g = LieSuperAlgebra(space, p, br, {0: [0, 0]})

u = UAlgebra(g)
print(f"dim u(g) = {u.dim} = p^(even) * 2^(odd) = {p}^1 * 2^1")
print("PBW basis (degree, lex):", u.pbw_basis())
print("augmentation-ideal basis:", u.aug_basis())

y = u.generator(1)
print("\ny * y =", y * y, "   (= (1/2)[y,y] = 2z over GF(3))")
print("y^6 =", u.power(y, 2 * p), "  (z is 3-nilpotent)")

z = u.generator(0)
w = z + y
print("(z + y)^2 =", u.power(w, 2))

print("\nclassical commutator identities inside u(g):",
      check_commutator_identities(g, trials=20, seed=1).summary())

# the truncated mode refuses to leave its degree window
U = UAlgebra(g, restricted=False, degree_bound=p + 2)
zU = U.generator(0)
print("\nin truncated U(g): z^4 =", U.power(zU, 4), "(no reduction)")
try:
    U.multiply(U.power(zU, 3), U.power(zU, 3))
except DegreeOverflowError as exc:
    print("z^3 * z^3 overflows the window:", exc)
