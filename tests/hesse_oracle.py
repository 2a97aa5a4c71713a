"""The brute-force route to the Hesse duality oracle, kept as the reference
the production orbit walk (`hesse.curve_points`) is compared against: every
point of P^2(F_p) is tested in the representatives (1 : y : z), (0 : 1 : z),
(0 : 0 : 1), which is O(p^2) work.  `scan` evaluates the dual sextic
exactly over Q before reducing it mod p and is meant for p <= 103;
`point_set` alone takes about half a second at p = 1033.  `expand` turns
the walk's representatives back into the orbits of points they stand for.
Also the exact gradient map of the pencil, whose image is the dual curve,
projective equality of points, the cusp identities of the dual sextic at
(lam : 1 : 1), and the plane Heisenberg orbits of the flexes and of the
cusps over Q(w), which no certificate uses.
"""

from fractions import Fraction

from coble.fields import OMEGA
from coble.hesse import PENCIL, Y_RING, det3, dual_sextic, reduce_mod
from coble.poly import PolyRing
from linalg_oracle import qw
from nu_oracle import substitute

X_NAMES = ("X0", "X1", "X2")


class ZeroGradient(Exception):
    pass


def gradient_map(lam, point):
    """D(X) = grad f_lam at X, the partials of `PENCIL` evaluated exactly."""
    at = dict(zip(X_NAMES, point), lam=Fraction(lam))
    g = tuple(PENCIL.partial_derivative(v).evaluate(at) for v in X_NAMES)
    if not any(g):
        raise ZeroGradient(f"singular point {point} at lam = {at['lam']}")
    return g


def proj_eq(p, q):
    """Projective equality of coordinate tuples over any common field."""
    n = len(p)
    for i in range(n):
        if bool(p[i]) != bool(q[i]):
            return False
    for i in range(n):
        if p[i]:
            # compare q * p[i] with p * q[i]
            return all(q[j] * p[i] == p[j] * q[i] for j in range(n))
    return False


def representatives(p):
    """One point of each class of P^2(F_p), first nonzero coordinate 1."""
    for y in range(p):
        for z in range(p):
            yield 1, y, z
    for z in range(p):
        yield 0, 1, z
    yield 0, 0, 1


def point_set(lam_p, p):
    """The points of f_lam (lam = lam_p mod p) over F_p, found by testing
    every point of P^2(F_p)."""
    return {(x0, x1, x2) for x0, x1, x2 in representatives(p)
            if (x0 ** 3 + x1 ** 3 + x2 ** 3 - 3 * lam_p * x0 * x1 * x2) % p == 0}


def scan(lam, p):
    """(points, checked, counterexamples) for f_lam over F_p: the set of its
    points, how many have a nonzero gradient, and those whose gradient the
    dual sextic does not vanish on."""
    lam = Fraction(lam)
    lam_p = reduce_mod(lam, p)
    sextic = dual_sextic(lam)
    points, checked, counterexamples = point_set(lam_p, p), 0, []
    for x0, x1, x2 in points:
        g = ((3 * x0 * x0 - 3 * lam_p * x1 * x2) % p,
             (3 * x1 * x1 - 3 * lam_p * x0 * x2) % p,
             (3 * x2 * x2 - 3 * lam_p * x0 * x1) % p)
        if not any(g):
            continue
        checked += 1
        value = sextic.evaluate({"Y0": g[0], "Y1": g[1], "Y2": g[2],
                                 "lam": lam})
        if reduce_mod(value, p):
            counterexamples.append((x0, x1, x2))
    return points, checked, counterexamples


def normalize_mod(point, p):
    """The point of P^2(F_p) with its first nonzero coordinate 1."""
    point = [x % p for x in point]
    lead = next(x for x in point if x)
    inv = pow(lead, p - 2, p)
    return tuple(x * inv % p for x in point)


def cube_root_of_unity(p):
    """A cube root of 1 other than 1 mod p, p = 1 mod 3, by search."""
    return next(e for e in range(2, p) if e * e * e % p == 1)


def expand(representatives, p):
    """The points that `hesse.curve_points` representatives stand for, in
    walk order: for each (x0, y1, y2, n) the normalized orbit of
    (x0 : y1 : y2) under sigma, (x0 : x1 : x2) -> (x0 : e x1 : e^2 x2)
    with e a cube root of 1 mod p, and the X1 <-> X2 twin, as a list of its
    distinct points."""
    e = cube_root_of_unity(p)
    orbits = []
    for x0, y1, y2, _ in representatives:
        orbit = []
        for x1, x2 in ((y1, y2), (y2, y1)):
            for k in range(3):
                point = normalize_mod((x0, x1 * e ** k, x2 * e ** (2 * k)), p)
                if point not in orbit:
                    orbit.append(point)
        orbits.append(orbit)
    return orbits


# ----- plane Heisenberg orbits over Q(w) -----------------------------------

def _proj_normalize(p):
    """The point p of P^2, coordinates lifted into Q(w), scaled so that its
    first nonzero coordinate is 1."""
    p = [qw(c) for c in p]
    for c in p:
        if c:
            inv = c.inverse()
            return tuple(x * inv for x in p)
    raise ValueError("zero point")


def plane_orbit(point):
    """Orbit of a projective point of P^2 under the plane Heisenberg group
    (cyclic coordinate shift and the omega character scaling), with
    normalized Q(w) coordinates; the input coordinates may be ints,
    Fractions or elements of Q(w)."""
    seen = {}
    stack = [_proj_normalize(point)]
    while stack:
        p = stack.pop()
        if p in seen:
            continue
        seen[p] = None
        shift = _proj_normalize((p[2], p[0], p[1]))
        scale = _proj_normalize((p[0], p[1] * OMEGA, p[2] * OMEGA * OMEGA))
        stack.extend([shift, scale])
    return list(seen)


def inflection_orbit():
    """The nine inflection points of every pencil member: the plane
    Heisenberg orbit of (0 : 1 : -1), with exact Q(omega) coordinates."""
    base = (0, 1, -1)
    orbit = plane_orbit(base)
    if len(orbit) != 9:
        raise AssertionError(f"inflection orbit has size {len(orbit)}")
    return orbit


def _at_point(poly, point):
    """poly with X0, X1, X2 set to the Q(omega) coordinates of point: a
    polynomial in the formal lam over Q(omega)."""
    return substitute(poly, dict(zip(X_NAMES, point)),
                      target_ring=PolyRing(("lam",)))


def on_pencil_member(point):
    """f_lam at a Q(omega) point with lam formal: the residual polynomial in
    lam (zero iff the point lies on every pencil member)."""
    return _at_point(PENCIL, point)


def hessian_determinant_at(point):
    """det of the matrix of second partials of f_lam, evaluated at a
    Q(omega) point, as a polynomial in the formal lam."""
    return det3([[_at_point(PENCIL.partial_derivative(a).partial_derivative(b),
                            point) for b in X_NAMES] for a in X_NAMES])


def cusp_orbit(lam):
    """The nine cusp candidates: the plane Heisenberg orbit of the dual
    point (lam : 1 : 1); reports whether they are distinct."""
    orbit = plane_orbit((Fraction(lam), 1, 1))
    return orbit, len(orbit) == 9


def cusp_orbit_check():
    """Certify (lam : 1 : 1) as a cusp of the dual sextic, identically in
    lam: its three partials vanish there, and its restriction to
    Y1 = Y2 = 1 vanishes to order >= 3 at Y0 = lam.  Returns the residual
    polynomials by name, all zero on success."""
    lam = Y_RING.var("lam")
    dual = dual_sextic(lam)
    at_cusp = {"Y0": lam, "Y1": 1, "Y2": 1}
    report = {}
    for v in ("Y0", "Y1", "Y2"):
        report[f"d/d{v}"] = substitute(dual.partial_derivative(v), at_cusp)
    r = substitute(dual, {"Y1": 1, "Y2": 1})
    for order in (0, 1, 2):
        report[f"restriction_order_{order}"] = substitute(r, {"Y0": lam})
        r = r.partial_derivative("Y0")
    return report
