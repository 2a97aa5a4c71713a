"""The finite Heisenberg group H[3] (g = 2) and its action on the nine theta
coordinates Z_b, b in (Z/3)^2.

Conventions
-----------
* Coordinates are named Z00, Z01, Z02, Z10, ..., Z22 in row-major order.
* An element is (t_exp, x, xstar): the central scalar is w**t_exp, x is a
  translation in (Z/3)^2 and xstar a character v -> w**(xstar . v).  A
  class eta = (x, xstar) of A[3] = H[3]/center is written as its lift
  (0, x, xstar).
* The action on coordinates is the printed formula

      (t, x, x*) . Z_b  =  w^t * w^(x* . (b - x)) * Z_{b-x}.

  `monomial_action` is the one transcription of it; the translation table,
  the K^-invariance test of orbit sums, the action on polynomials and the
  fixed-plane charts of `coble.nu` are all read off its output.
"""

from __future__ import annotations

from operator import itemgetter, mul

from .fields import OMEGA
from .poly import Polynomial, PolyRing

COORDS = [(i, j) for i in range(3) for j in range(3)]
COORD_INDEX = {b: k for k, b in enumerate(COORDS)}
THETA_VARS = tuple(f"Z{i}{j}" for i, j in COORDS)


def theta_ring(extra_params=()):
    """The standard polynomial ring in the nine theta coordinates, optionally
    extended by formal parameter variables (appended after the theta block)."""
    return PolyRing(THETA_VARS + tuple(extra_params))


def coord_name(b):
    return f"Z{b[0] % 3}{b[1] % 3}"


def neg2(u):
    return ((-u[0]) % 3, (-u[1]) % 3)


class HeisenbergElement:
    __slots__ = ("t_exp", "x", "xstar")

    def __init__(self, t_exp, x, xstar):
        self.t_exp = t_exp % 3
        self.x = (x[0] % 3, x[1] % 3)
        self.xstar = (xstar[0] % 3, xstar[1] % 3)

    def __eq__(self, other):
        return (isinstance(other, HeisenbergElement) and self.t_exp == other.t_exp
                and self.x == other.x and self.xstar == other.xstar)

    def __hash__(self):
        return hash((self.t_exp, self.x, self.xstar))

    def __repr__(self):
        return f"H(t={self.t_exp}, x={self.x}, xstar={self.xstar})"


def classes_mod_sign():
    """The 40 nonzero classes of A[3] modulo eta ~ -eta, each as the t = 0
    lift of whichever of x + x* and its negative has the smaller key,
    sorted by that key."""
    keys = {min(x + xstar, neg2(x) + neg2(xstar))
            for x in COORDS for xstar in COORDS} - {(0, 0, 0, 0)}
    return [HeisenbergElement(0, key[:2], key[2:]) for key in sorted(keys)]


def generators():
    """(1, e1, 0), (1, e2, 0), (1, 0, e1*), (1, 0, e2*) — generate H[3] with
    the center."""
    return [
        HeisenbergElement(0, (1, 0), (0, 0)),
        HeisenbergElement(0, (0, 1), (0, 0)),
        HeisenbergElement(0, (0, 0), (1, 0)),
        HeisenbergElement(0, (0, 0), (0, 1)),
    ]


def monomial_action(g):
    """The action of g on the theta coordinates as a monomial map: entry k is
    (target index, phase exponent mod 3) with g . Z_k = w^phase * Z_target.
    This is the printed formula  (t,x,x*) . Z_b = w^t w^(x*.(b-x)) Z_{b-x},
    where b = (i, j) runs through COORDS and Z_(i,j) has index 3i + j."""
    t, (x0, x1), (u, v) = g.t_exp, g.x, g.xstar
    return [(3 * ((i - x0) % 3) + (j - x1) % 3,
             (t + u * (i - x0) + v * (j - x1)) % 3) for i, j in COORDS]


def exponent_getter(ring, perm):
    """An itemgetter that moves the theta exponents of a monomial of `ring`
    by the index permutation `perm` (the result has e[perm[k]] at Z_k);
    the ring must start with the theta coordinates, and the exponents of
    later variables pass through."""
    if ring.varnames[:9] != THETA_VARS:
        raise ValueError(f"not a theta-coordinate ring: {ring}")
    return itemgetter(*perm, *range(9, ring.nvars))


def act_on_polynomial(g, p):
    """Apply g to the theta variables of p (its ring starts with them)
    through `monomial_action`.  A monomial map sends distinct monomials to
    distinct monomials, so each term moves on its own: its exponent at
    Z_target is its exponent at Z_k, and its coefficient picks up
    w^(sum e_k * phase_k).  Later variables pass through."""
    action = monomial_action(g)
    source = [0] * 9
    for k, (target, _) in enumerate(action):
        source[target] = k
    move = exponent_getter(p.ring, source)
    phases = [phase for _, phase in action]
    powers = (1, OMEGA, OMEGA * OMEGA)
    return Polynomial(p.ring, {move(e): c * powers[sum(map(mul, e, phases)) % 3]
                               for e, c in p.terms.items()})


class NotKhatInvariant(Exception):
    """Seed monomial whose weighted index sum is nonzero mod 3."""


# The targets of the nine translations (0, x, 0), x in COORDS order, as index
# permutations of the nine theta exponents.  Read as a getter, the table of
# x puts e[perm[k]] at Z_k, moving the exponent of Z_c to Z_(c+x): the nine
# translates of e are its K-orbit.
TRANSLATIONS = tuple(tuple(target for target, _ in
                           monomial_action(HeisenbergElement(0, x, (0, 0))))
                     for x in COORDS)

# The phases of Z_k under the characters (0, 0, e1*) and (0, 0, e2*): a
# monomial e is K^-invariant iff both fix it, sum e_k * phase_k = 0 mod 3.
CHARACTER_PHASES = tuple(tuple(phase for _, phase in
                               monomial_action(HeisenbergElement(0, (0, 0), xstar)))
                         for xstar in ((1, 0), (0, 1)))


def orbit_sum(ring, seed_exps):
    """Sum of the distinct K-translates of a seed monomial, coefficient 1.

    seed_exps: a dense exponent tuple for the ring, theta block first.  The
    seed must be K^-invariant: sum of e_b * b = 0 mod 3.
    """
    seed_exps = tuple(seed_exps)
    s0, s1 = (sum(map(mul, seed_exps, phases)) % 3
              for phases in CHARACTER_PHASES)
    if s0 or s1:
        raise NotKhatInvariant(f"index sum ({s0},{s1}) != (0,0)")
    return Polynomial(ring, {exponent_getter(ring, perm)(seed_exps): 1
                             for perm in TRANSLATIONS})
