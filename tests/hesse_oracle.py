"""The brute-force route to the Hesse duality oracle, kept as the reference
the production line walk (`hesse.curve_points`) is compared against: every
point of P^2(F_p) is tested in the representatives (1 : y : z), (0 : 1 : z),
(0 : 0 : 1), which is O(p^2) work.  `scan` evaluates the dual sextic
exactly over Q before reducing it mod p and is meant for p <= 103;
`point_set` alone takes about half a second at p = 1033.
"""

from fractions import Fraction

from coble.hesse import dual_sextic, reduce_mod


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
