"""The finite Heisenberg group H[3] (g = 2) and its action on the nine theta
coordinates Z_b, b in (Z/3)^2.

Conventions
-----------
* Coordinates are named Z00, Z01, Z02, Z10, ..., Z22 in row-major order.
* An element is (t_exp, x, xstar): the central scalar is w**t_exp, x is a
  translation in (Z/3)^2 and xstar a character v -> w**(xstar . v).
* The action on coordinates is the printed formula

      (t, x, x*) . Z_b  =  w^t * w^(x* . (b - x)) * Z_{b-x}.

* The group law stores the cocycle exponent additively; it is *defined* by
  compatibility with the action (acting by g*h equals acting by g after h),
  which forces the correction term  xstar_h . x_g.
"""

from __future__ import annotations

from operator import itemgetter

from .fields import QW, omega_pow
from .poly import Polynomial, PolyRing

COORDS = [(i, j) for i in range(3) for j in range(3)]
COORD_INDEX = {b: k for k, b in enumerate(COORDS)}
THETA_VARS = tuple(f"Z{i}{j}" for i, j in COORDS)


def theta_ring(extra_params=(), field=QW):
    """The standard polynomial ring in the nine theta coordinates, optionally
    extended by formal parameter variables (appended after the theta block)."""
    return PolyRing(field, THETA_VARS + tuple(extra_params))


def coord_name(b):
    return f"Z{b[0] % 3}{b[1] % 3}"


def dot(u, v):
    return (u[0] * v[0] + u[1] * v[1]) % 3


def add2(u, v):
    return ((u[0] + v[0]) % 3, (u[1] + v[1]) % 3)


def neg2(u):
    return ((-u[0]) % 3, (-u[1]) % 3)


class Apoint:
    """An element of A[3] = (Z/3)^4, written (x, xstar)."""

    __slots__ = ("x", "xstar")

    def __init__(self, x, xstar):
        self.x = (x[0] % 3, x[1] % 3)
        self.xstar = (xstar[0] % 3, xstar[1] % 3)

    def __neg__(self):
        return Apoint(neg2(self.x), neg2(self.xstar))

    def is_zero(self):
        return self.x == (0, 0) and self.xstar == (0, 0)

    def key(self):
        return self.x + self.xstar

    def canonical_mod_sign(self):
        """The representative of {a, -a} with the smaller 4-tuple key."""
        other = -self
        return self if self.key() <= other.key() else other

    def __eq__(self, other):
        return isinstance(other, Apoint) and self.x == other.x and self.xstar == other.xstar

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Apoint(x={self.x}, xstar={self.xstar})"


def weil_form(a, b):
    """<(x, x*), (y, y*)> = y*(x) - x*(y), valued in Z/3."""
    return (dot(b.xstar, a.x) - dot(a.xstar, b.x)) % 3


def apoint_classes_mod_sign():
    """The 40 nonzero classes of A[3] modulo a ~ -a, canonical reps, sorted."""
    reps = set()
    for x0 in range(3):
        for x1 in range(3):
            for u in range(3):
                for v in range(3):
                    a = Apoint((x0, x1), (u, v))
                    if a.is_zero():
                        continue
                    reps.add(a.canonical_mod_sign())
    return sorted(reps, key=lambda a: a.key())


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

    def to_json(self):
        return {"t": self.t_exp, "x": list(self.x), "xstar": list(self.xstar)}

    def is_central(self):
        return self.x == (0, 0) and self.xstar == (0, 0)

    def inverse(self):
        # (t, x, x*)^-1 = (-t + x*.x, -x, -x*): check via group_mul = identity.
        return HeisenbergElement(-self.t_exp + dot(self.xstar, self.x),
                                 neg2(self.x), neg2(self.xstar))


IDENTITY = HeisenbergElement(0, (0, 0), (0, 0))


def group_mul(g, h):
    """Product g*h; cocycle exponent fixed by action compatibility:
    act(g*h, p) == act(g, act(h, p))."""
    t = (g.t_exp + h.t_exp + dot(h.xstar, g.x)) % 3
    return HeisenbergElement(t, add2(g.x, h.x), add2(g.xstar, h.xstar))


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
    This is the printed formula  (t,x,x*) . Z_b = w^t w^(x*.(b-x)) Z_{b-x}."""
    out = []
    for b in COORDS:
        target = add2(b, neg2(g.x))
        out.append((COORD_INDEX[target], (g.t_exp + dot(g.xstar, target)) % 3))
    return out


def act_on_polynomial(g, p):
    """Apply g multiplicatively to the theta variables of p through
    `monomial_action`; parameter variables pass through unchanged."""
    ring = p.ring
    field = ring.field
    omega = field.omega()  # requires a field containing a cube root of unity
    images = {ring.index[THETA_VARS[k]]: (ring.index[THETA_VARS[target]], phase)
              for k, (target, phase) in enumerate(monomial_action(g))}
    omega_powers = [field.one(), omega, omega * omega]
    out = {}
    for e, c in p.terms.items():
        new_e = list(e)
        phase = 0
        for i in images:
            new_e[i] = 0
        for i, (j, ph) in images.items():
            if e[i]:
                new_e[j] += e[i]
                phase += e[i] * ph
        new_e = tuple(new_e)
        c2 = c * omega_powers[phase % 3]
        s = out.get(new_e)
        s = c2 if s is None else s + c2
        if s:
            out[new_e] = s
        elif new_e in out:
            del out[new_e]
    return Polynomial(ring, out)


def action_matrix(g):
    """The 9x9 matrix of g on V = span{Z_b} over Q(w): column b carries the
    image g . Z_b."""
    from .linalg import ExactMatrix

    zero = QW.zero()
    m = [[zero] * 9 for _ in range(9)]
    for k, (target, phase) in enumerate(monomial_action(g)):
        m[target][k] = omega_pow(phase)
    return ExactMatrix(QW, m)


class NotKhatInvariant(Exception):
    """Seed monomial whose weighted index sum is nonzero mod 3."""


# The nine translations Z_b -> Z_{b+shift} of (Z/3)^2, in COORDS order, as
# index permutations of the nine theta exponents: the translate of e has
# exponent e[perm[k]] at Z_k.
TRANSLATIONS = tuple(tuple(COORD_INDEX[add2(b, neg2(shift))] for b in COORDS)
                     for shift in COORDS)


def translation_getters(n):
    """The nine translations as itemgetters on n-long exponent tuples (theta
    block first); parameter exponents after the theta block pass through."""
    tail = tuple(range(9, n))
    return [itemgetter(*perm, *tail) for perm in TRANSLATIONS]


def orbit_sum(ring, seed_exps):
    """Sum of the distinct K-translates of a seed monomial, coefficient 1.

    seed_exps: dict var-name -> exponent, or a dense exponent tuple for the
    ring.  The seed must be K^-invariant: sum of e_b * b = 0 mod 3.
    """
    if isinstance(seed_exps, dict):
        dense = [0] * ring.nvars
        for name, e in seed_exps.items():
            dense[ring.index[name]] = e
        seed_exps = tuple(dense)
    else:
        seed_exps = tuple(seed_exps)
    s0 = s1 = 0
    for k, e in enumerate(seed_exps[:9]):
        if e:
            s0 += e * COORDS[k][0]
            s1 += e * COORDS[k][1]
    if s0 % 3 or s1 % 3:
        raise NotKhatInvariant(f"index sum ({s0 % 3},{s1 % 3}) != (0,0)")
    one = ring.field.one()
    return Polynomial(ring, {translate(seed_exps): one
                             for translate in translation_getters(len(seed_exps))})
