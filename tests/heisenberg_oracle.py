"""The group structure of H[3] and its 9x9 action matrix over Q(w), which no
certificate uses: the product, inverse and center of the group, the Weil
pairing on A[3] (its classes written as t = 0 elements, `class_lift`), the
powers of w and the action as an exact matrix.  They are the references
the monomial action (`heisenberg.monomial_action`) and the int chart test
(`nu.fixes_chart`) are compared against, with the action transcribed
through the pair helpers `add2`, `neg2` and `dot`.
"""

from coble.fields import OMEGA, Eisenstein
from coble.heisenberg import (COORD_INDEX, COORDS, HeisenbergElement,
                              monomial_action, neg2)

from linalg_oracle import ExactMatrix

IDENTITY = HeisenbergElement(0, (0, 0), (0, 0))
OMEGA2 = OMEGA * OMEGA


def dot(u, v):
    return (u[0] * v[0] + u[1] * v[1]) % 3


def add2(u, v):
    return ((u[0] + v[0]) % 3, (u[1] + v[1]) % 3)


def monomial_action_by_helpers(g):
    """The printed formula (t,x,x*) . Z_b = w^t w^(x*.(b-x)) Z_{b-x} through
    the pair helpers, in the output format of `monomial_action`."""
    out = []
    for b in COORDS:
        target = add2(b, neg2(g.x))
        out.append((COORD_INDEX[target], (g.t_exp + dot(g.xstar, target)) % 3))
    return out


def omega_pow(k):
    """w**k for any integer k."""
    return (Eisenstein(1), OMEGA, OMEGA2)[k % 3]


def group_mul(g, h):
    """Product g*h; the cocycle exponent is fixed by compatibility with the
    action, act(g*h, p) == act(g, act(h, p)), which forces the correction
    term xstar_h . x_g."""
    t = (g.t_exp + h.t_exp + dot(h.xstar, g.x)) % 3
    return HeisenbergElement(t, add2(g.x, h.x), add2(g.xstar, h.xstar))


def inverse(g):
    """(t, x, x*)^-1 = (-t + x*.x, -x, -x*)."""
    return HeisenbergElement(-g.t_exp + dot(g.xstar, g.x),
                             neg2(g.x), neg2(g.xstar))


def class_lift(x, xstar):
    """The class {(x, x*), -(x, x*)} of A[3] mod sign as `classes_mod_sign`
    lists it: the t = 0 lift of the member with the smaller key x + x*."""
    g = HeisenbergElement(0, x, xstar)
    key = min(g.x + g.xstar, neg2(g.x) + neg2(g.xstar))
    return HeisenbergElement(0, key[:2], key[2:])


def is_central(g):
    return g.x == (0, 0) and g.xstar == (0, 0)


def weil_form(a, b):
    """<(x, x*), (y, y*)> = y*(x) - x*(y), valued in Z/3."""
    return (dot(b.xstar, a.x) - dot(a.xstar, b.x)) % 3


def action_matrix(g):
    """The 9x9 matrix of g on V = span{Z_b} over Q(w): column b carries the
    image g . Z_b."""
    m = [[0] * 9 for _ in range(9)]
    for k, (target, phase) in enumerate(monomial_action(g)):
        m[target][k] = omega_pow(phase)
    return ExactMatrix(m)
