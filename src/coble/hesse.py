"""The Hesse pencil of plane cubics, its dual sextic, the cusp linear
system, and an independent finite-field duality oracle.

The three printed formulas are each written once, as functions of lam that
take numbers or polynomials alike:
- `pencil`: f_lam = X0^3 + X1^3 + X2^3 - 3*lam*X0*X1*X2, smooth exactly
  when lam^3 != 1;
- `dual_sextic`: the dual of a smooth member, F_lam = S1 + a1*S2 + a2*S3 +
  a3*S4 with a1 = 4*lam^3 - 2, a2 = -6*lam^2, a3 = -3*lam*(lam^3 - 4)
  (`dual_coefficients`), S1 = sum Y_i^6, S2 = sum_{i<j} Y_i^3 Y_j^3,
  S3 = Y0 Y1 Y2 * sum Y_i^3, S4 = Y0^2 Y1^2 Y2^2;
- `cusp_system`: the 3x3 linear system in (a1, a2, a3) saying that
  (lam : 1 : 1) is a cusp of F_lam.
The formal cubic `PENCIL` and the cusp residuals (row . a - rhs at formal
lam) derive from them.
The coefficients come three times (closed form; the discriminant of f_lam
on a line, from `pencil` alone; the cusp system by Cramer's rule, singular
exactly at lam = 0 and lam = 1) and are certified over prime fields
p = 1 mod 3: the gradient of every F_p-point of f_lam must lie on the dual
sextic.  The points are walked one orbit at a time under the order-6 group
generated by the X1 <-> X2 twin and sigma: (x0 : x1 : x2) ->
(x0 : e x1 : e^2 x2), e^3 = 1.  f_lam is invariant under both, and S1..S4
under the matching maps of the gradient, so each orbit is checked once
(`curve_points`: ints and table lookups, no inverse mod p).
`tests/hesse_oracle.py` checks that walk against its own transcription,
and holds the cusp identities and the plane Heisenberg orbits of the
flexes and cusps, which no certificate uses.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .fields import cube_roots, square_roots
from .poly import NotInSpan, PolyRing


class SingularSystem(Exception):
    pass


class CounterexamplePoint(Exception):
    def __init__(self, point, message):
        self.point = point
        super().__init__(f"{message} at {point}")


X_RING = PolyRing(("X0", "X1", "X2", "lam"))
Y_RING = PolyRing(("Y0", "Y1", "Y2", "lam"))
LINE_RING = PolyRing(("s", "t", "Y0", "Y1", "Y2", "lam"))


def pencil(x0, x1, x2, lam):
    """f_lam at (x0 : x1 : x2); numbers or polynomials of one ring."""
    return x0 ** 3 + x1 ** 3 + x2 ** 3 - 3 * lam * x0 * x1 * x2


# f_lam over X_RING with lam formal.
PENCIL = pencil(*(X_RING.var(v) for v in X_RING.varnames))


def dual_coefficients(lam):
    """(a1, a2, a3) with lam a Polynomial, Fraction or int."""
    return (4 * lam ** 3 - 2,
            -6 * lam ** 2,
            -3 * lam * (lam ** 3 - 4))


def s_basis(ring):
    """S1..S4 in the variables Y0, Y1, Y2 of `ring`."""
    y0, y1, y2 = ring.var("Y0"), ring.var("Y1"), ring.var("Y2")
    return [y0 ** 6 + y1 ** 6 + y2 ** 6,
            y0 ** 3 * y1 ** 3 + y0 ** 3 * y2 ** 3 + y1 ** 3 * y2 ** 3,
            y0 * y1 * y2 * (y0 ** 3 + y1 ** 3 + y2 ** 3),
            y0 ** 2 * y1 ** 2 * y2 ** 2]


# S1..S4 over Y_RING, built once and shared by every dual sextic.
S_BASIS = s_basis(Y_RING)


def dual_sextic(lam):
    """F_lam over Y_RING; lam a number, or Y_RING.var("lam") for the
    formal sextic."""
    s1, s2, s3, s4 = S_BASIS
    a1, a2, a3 = dual_coefficients(lam)
    return s1 + a1 * s2 + a2 * s3 + a3 * s4


@cache
def dual_coefficients_from_discriminant(cubic):
    """(a1, a2, a3), polynomials in lam over Y_RING, from the pencil `cubic`
    alone, once per pencil and process.  On the line Y . x = 0 the cubic
    cubic(Y2 s, Y2 t, -(Y0 s + Y1 t), lam) = a s^3 + b s^2 t + c s t^2 + d t^3
    has discriminant (4 (b^2 - 3ac)(c^2 - 3bd) - (bc - 9ad)^2) / 3 =
    -27 Y2^6 F_lam(Y).  Each a_i is read at one monomial of Y2^6 S_(i+1);
    raises NotInSpan unless that holds identically in lam."""
    s, t, y0, y1, y2, lam = (LINE_RING.var(v) for v in LINE_RING.varnames)
    g = cubic(y2 * s, y2 * t, -(y0 * s + y1 * t), lam)
    a, b, c, d = (Y_RING.from_terms({e[2:]: x for e, x in g.terms.items()
                                     if e[0] == k}) for k in (3, 2, 1, 0))
    p, q, r = b * b - 3 * a * c, b * c - 9 * a * d, c * c - 3 * b * d
    disc3 = 4 * p * r - q * q  # 3 times the discriminant
    a1, a2, a3 = (Y_RING.from_terms({(0, 0, 0, e[3]): Fraction(x, -81)
                                     for e, x in disc3.terms.items()
                                     if e[:3] == (m[0], m[1], m[2] + 6)})
                  for m in (next(iter(si.terms)) for si in S_BASIS[1:]))
    s1, s2, s3, s4 = S_BASIS
    sextic = s1 + a1 * s2 + a2 * s3 + a3 * s4
    if disc3 != -81 * Y_RING.var("Y2") ** 6 * sextic:
        raise NotInSpan("the discriminant of f_lam on a line is not "
                        "-27 Y2^6 (S1 + a1 S2 + a2 S3 + a3 S4)")
    return a1, a2, a3


def cusp_system(lam):
    """The 3x3 linear system in (a1, a2, a3) expressing that (lam:1:1) is a
    cusp of the dual sextic, as printed: rows are the coefficients and the
    right-hand side moves the a-free terms across."""
    rows = [
        [6 * lam ** 2, 4 * lam ** 3 + 2, 2 * lam],
        [3 * (lam ** 3 + 1), lam * (lam ** 3 + 5), 2 * lam ** 2],
        [9 * lam ** 2, 4 * lam ** 3 + 5, 4 * lam],
    ]
    rhs = [-6 * lam ** 5, -6, 0]
    return rows, rhs


def det3(rows):
    """The determinant of a 3x3 matrix, numbers or polynomials."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def dual_sextic_from_cusp_system(lam):
    """(a1, a2, a3) from the cusp system by Cramer's rule.  Its determinant
    is 6 lam (lam^3 - 1)^2, so it is singular exactly at lam = 0 and 1."""
    rows, rhs = cusp_system(Fraction(lam))
    det = det3(rows)
    if not det:
        raise SingularSystem(f"cusp system is singular at lam = {lam}")
    return tuple(det3([row[:k] + [b] + row[k + 1:]
                       for row, b in zip(rows, rhs)]) / det for k in range(3))


def cusp_system_residuals():
    """row . a - rhs for the three printed cusp equations, with the
    closed-form coefficients a and lam formal; all must be identically
    zero."""
    lam = PolyRing(("lam",)).var("lam")
    a = dual_coefficients(lam)
    rows, rhs = cusp_system(lam)
    return [row[0] * a[0] + row[1] * a[1] + row[2] * a[2] - b
            for row, b in zip(rows, rhs)]


# ----- finite-field oracle -------------------------------------------------

def reduce_mod(lam, p):
    """lam mod p; ValueError when p divides its denominator."""
    lam = Fraction(lam)
    return lam.numerator * pow(lam.denominator, -1, p) % p


def singular_mod(lam, p):
    """Whether f_lam reduces to a singular member mod p (lam^3 = 1)."""
    return pow(reduce_mod(lam, p), 3, p) == 1


def oracle_skip(lam, p):
    """Why the oracle does not apply to f_lam mod p, or None when it does:
    "skipped_singular_member" when f_lam is singular over Q (lam^3 = 1,
    that is lam = 1: three lines), "skipped_singular_reduction" when only
    its reduction is (lam^3 = 1 mod p, as for lam = 3 mod 13)."""
    if Fraction(lam) == 1:
        return "skipped_singular_member"
    if singular_mod(lam, p):
        return "skipped_singular_reduction"
    return None


def curve_points(lam_p, p):
    """Every F_p-point of f_lam (lam = lam_p mod p), p = 1 mod 3, as one
    projective representative (x0, y1, y2, n) per orbit of the order-6
    group generated by the X1 <-> X2 twin and sigma: (x0 : x1 : x2) ->
    (x0 : e x1 : e^2 x2), e a cube root of 1 mod p.  f_lam is invariant
    under both; the orbit has n in {3, 6} points.

    In the chart x0 = 1 the sigma-invariants of (1 : x1 : x2) are u = x1 x2
    and v = x1^3, and the twin sends v to x2^3 = u^3 / v.  Multiplying
    f_lam = 1 + v + u^3 / v - 3 lam u by v gives

        v^2 - s v + u^3 = 0,    s = 3 lam u - 1,

    whose two roots are the twins' v.  So for each u in 1..p - 1 the walk
    reads d, a square root of s^2 - 4 u^3, from a table of every square root
    mod p (`fields.square_roots`), and x1, a cube root of v = (s + d) / 2,
    from a table of every cube root mod p (`fields.cube_roots`), both built
    once per call.  No root d means no point with x1 x2 = u; a v that is no
    cube means none either, since then u^3 / v is no cube.  Otherwise the
    three cube roots of v are the sigma-orbit of (1 : x1 : u / x1), yielded
    as (x1 : x1^2 : u), scaled by x1 so that it takes no inverse.  The
    twins' orbit is the same one when d = 0 (n = 3) and another (n = 6)
    otherwise.  The points with x1 x2 = 0 are the orbit of (1 : 0 : -1),
    n = 6, and, off the chart, that of (0 : 1 : -1), n = 3.  Memory is two
    tables of p entries, the cube roots in a typed buffer.

    Raises ValueError unless p = 1 mod 3: for p = 3 every gradient
    3 (...) vanishes, and for p = 2 mod 3 there is no e, so sigma is not
    defined over F_p.  It also raises for lam^3 = 1 mod p, where f_lam is
    three lines."""
    if p % 3 != 1:
        raise ValueError(f"the orbit walk needs an odd prime p = 1 mod 3, "
                         f"not {p}")
    if lam_p * lam_p * lam_p % p == 1:
        raise ValueError(f"a line lies on f_lam mod {p}, lam = {lam_p}: "
                         f"lam^3 = 1, so f_lam is three lines")
    roots, cubes = square_roots(p), cube_roots(p)
    half = (p + 1) // 2  # 1 / 2 mod p
    three_lam = 3 * lam_p % p
    yield 0, 1, p - 1, 3
    yield 1, 0, p - 1, 6
    for u in range(1, p):
        s = three_lam * u - 1  # reduced only inside the two lookups
        d = roots[(s * s - 4 * u * u * u) % p]
        if d is not None:
            x1 = cubes[(s + d) * half % p]
            if x1:
                yield x1, x1 * x1 % p, u, 6 if d else 3


def _normalized(point, p):
    """The point of P^2(F_p) with its first nonzero coordinate 1."""
    inv = pow(next(x for x in point if x % p), -1, p)
    return tuple(x * inv % p for x in point)


def finite_field_duality_oracle(lam, p):
    """Find every F_p-point of f_lam = 0, one orbit of sigma and the
    X1 <-> X2 twin at a time (`curve_points`: p - 1 values of u = x1 x2,
    tables of square and cube roots mod p), check that the gradient of
    every nonsingular point lies on the dual sextic (raising
    `CounterexamplePoint` at the first that does not, normalized to first
    nonzero coordinate 1), and report whether the point count N meets the
    Hasse bound (N - p - 1)^2 <= 4p.  A count outside it is no point, so it
    is reported, not raised.

    Each representative of `curve_points` is checked once and counts for
    its n points, so the residual is evaluated about p / 6 times.  That is
    exact: the gradient at the X1 <-> X2 twin is (g0, g2, g1) and at the
    sigma-image (x0 : e x1 : e^2 x2) it is (g0, e^2 g1, e g2); the residual
    below is unchanged by both, as S1..S4 are, and it is homogeneous, so
    its zero test holds for every scaling of the point."""
    lam = Fraction(lam)
    if singular_mod(lam, p):
        raise ValueError(f"lam = {lam} is a singular pencil member mod {p}")
    lam_p = reduce_mod(lam, p)
    a1, a2, a3 = (a % p for a in dual_coefficients(lam_p))
    count = 0
    checked = 0
    for x0, y1, y2, n in curve_points(lam_p, p):
        count += n
        g0 = 3 * (x0 * x0 - lam_p * y1 * y2) % p
        g1 = 3 * (y1 * y1 - lam_p * x0 * y2) % p
        g2 = 3 * (y2 * y2 - lam_p * x0 * y1) % p
        if not (g0 or g1 or g2):
            continue  # singular point; excluded from the duality check
        checked += n
        # F_lam(g) = S1 + a1 S2 + a2 S3 + a3 S4 at g, from its cubes k_i
        k0, k1, k2 = g0 * g0 * g0 % p, g1 * g1 * g1 % p, g2 * g2 * g2 % p
        m = g0 * g1 * g2 % p
        if (k0 * k0 + k1 * k1 + k2 * k2 + a1 * (k0 * k1 + k0 * k2 + k1 * k2)
                + m * (a2 * (k0 + k1 + k2) + a3 * m)) % p:
            raise CounterexamplePoint(_normalized((x0, y1, y2), p),
                                      f"dual sextic nonzero (lam={lam}, p={p})")
    return {"p": p, "lam": str(lam), "points": count, "checked": checked,
            "hasse_ok": (count - p - 1) ** 2 <= 4 * p, "counterexamples": 0}

