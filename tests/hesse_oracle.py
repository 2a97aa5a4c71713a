"""The brute-force route to the Hesse duality oracle, kept as the reference
the production line walk (`hesse.curve_points`) is compared against: every
point of P^2(F_p) is tested in the representatives (1 : y : z), (0 : 1 : z),
(0 : 0 : 1), which is O(p^2) work.  `scan` evaluates the dual sextic
exactly over Q before reducing it mod p and is meant for p <= 103;
`point_set` alone takes about half a second at p = 1033.  Also the exact
gradient map of the pencil, whose image is the dual curve, and projective
equality of points.
"""

from fractions import Fraction

from coble.hesse import PENCIL, X_NAMES, dual_sextic, reduce_mod


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
