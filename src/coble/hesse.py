"""The Hesse pencil of plane cubics, the closed-form dual sextic, the cusp
linear system, and an independent finite-field duality oracle.

The pencil is f_lam = X0^3 + X1^3 + X2^3 - 3*lam*X0*X1*X2, smooth exactly
when lam^3 != 1.  The dual curve of a smooth member is the sextic

    F_lam = S1 + a1*S2 + a2*S3 + a3*S4,
    a1 = 4*lam^3 - 2,  a2 = -6*lam^2,  a3 = -3*lam*(lam^3 - 4),

in the symmetric basis S1 = sum Y_i^6, S2 = sum_{i<j} Y_i^3 Y_j^3,
S3 = Y0 Y1 Y2 * sum Y_i^3, S4 = Y0^2 Y1^2 Y2^2.  The coefficients are
derived twice (closed form and the cusp 3x3 linear system) and certified a
third time over prime fields: every F_p-point of f_lam is found on the p + 1
lines through the rational flex (0 : 1 : -1), and its gradient must lie on
the dual sextic.
"""

from __future__ import annotations

from fractions import Fraction

from .fields import QQ, QW, OMEGA, square_roots
from .linalg import ExactMatrix
from .poly import PolyRing


class SingularSystem(Exception):
    pass


class ZeroGradient(Exception):
    pass


class CounterexamplePoint(Exception):
    def __init__(self, point, message):
        self.point = point
        super().__init__(f"{message} at {point}")


X_RING = PolyRing(QQ, ("X0", "X1", "X2", "lam"))
Y_RING = PolyRing(QQ, ("Y0", "Y1", "Y2", "lam"))


def _x(i):
    return X_RING.var(f"X{i}")


class HesseCubic:
    """f_lam; lam is a Fraction, or None for the formal parameter."""

    def __init__(self, lam=None):
        self.lam = None if lam is None else Fraction(lam)
        lam_poly = X_RING.var("lam") if lam is None else X_RING.const(self.lam)
        x0, x1, x2 = _x(0), _x(1), _x(2)
        self.poly = x0 ** 3 + x1 ** 3 + x2 ** 3 - 3 * lam_poly * x0 * x1 * x2

    def is_smooth(self):
        if self.lam is None:
            raise ValueError("smoothness needs a numeric lam")
        return self.lam ** 3 != 1

    def gradient(self):
        return [self.poly.partial_derivative(f"X{i}") for i in range(3)]


def dual_coefficients(lam_poly):
    """(a1, a2, a3) with lam_poly a Polynomial, Fraction or int."""
    return (4 * lam_poly ** 3 - 2,
            -6 * lam_poly ** 2,
            -3 * lam_poly * (lam_poly ** 3 - 4))


def s_basis(ring):
    """S1..S4 in the variables Y0, Y1, Y2 of `ring`."""
    y0, y1, y2 = ring.var("Y0"), ring.var("Y1"), ring.var("Y2")
    return [y0 ** 6 + y1 ** 6 + y2 ** 6,
            y0 ** 3 * y1 ** 3 + y0 ** 3 * y2 ** 3 + y1 ** 3 * y2 ** 3,
            y0 * y1 * y2 * (y0 ** 3 + y1 ** 3 + y2 ** 3),
            y0 ** 2 * y1 ** 2 * y2 ** 2]


# S1..S4 over Y_RING, built once and shared by every DualSextic.
S_BASIS = s_basis(Y_RING)


class DualSextic:
    def __init__(self, lam=None):
        self.lam = None if lam is None else Fraction(lam)
        lam_poly = Y_RING.var("lam") if lam is None else Y_RING.const(self.lam)
        self.a = dual_coefficients(lam_poly)
        s1, s2, s3, s4 = S_BASIS
        self.poly = s1 + self.a[0] * s2 + self.a[1] * s3 + self.a[2] * s4

    def coefficient_values(self):
        """(a1, a2, a3) as Fractions (numeric lam only)."""
        if self.lam is None:
            raise ValueError("formal lam has polynomial coefficients")
        return tuple(dual_coefficients(self.lam))


def dual_sextic_closed_form(lam=None):
    return DualSextic(lam)


def cusp_system(lam):
    """The 3x3 linear system in (a1, a2, a3) expressing that (lam:1:1) is a
    cusp of the dual sextic, as printed: rows are the coefficients and the
    right-hand side moves the a-free terms across."""
    lam = Fraction(lam)
    rows = [
        [6 * lam ** 2, 4 * lam ** 3 + 2, 2 * lam],
        [3 * (lam ** 3 + 1), lam * (lam ** 3 + 5), 2 * lam ** 2],
        [9 * lam ** 2, 4 * lam ** 3 + 5, 4 * lam],
    ]
    rhs = [-6 * lam ** 5, Fraction(-6), Fraction(0)]
    return rows, rhs


def dual_sextic_from_cusp_system(lam):
    rows, rhs = cusp_system(lam)
    m = ExactMatrix(QQ, [[Fraction(c) for c in r] for r in rows])
    if m.rank() < 3:
        raise SingularSystem(f"cusp system is singular at lam = {lam}")
    sol = m.solve([Fraction(c) for c in rhs])
    if sol is None:
        raise SingularSystem(f"cusp system is inconsistent at lam = {lam}")
    return tuple(sol)


def cusp_system_residuals():
    """Substitute the closed-form coefficients into the three printed cusp
    equations with lam formal; all residuals must be identically zero."""
    ring = PolyRing(QQ, ("lam",))
    lam = ring.var("lam")
    a1, a2, a3 = dual_coefficients(lam)
    return [
        6 * lam ** 5 + 6 * a1 * lam ** 2 + a2 * (4 * lam ** 3 + 2) + 2 * a3 * lam,
        6 + 3 * a1 * (lam ** 3 + 1) + a2 * lam * (lam ** 3 + 5) + 2 * a3 * lam ** 2,
        9 * a1 * lam ** 2 + a2 * (4 * lam ** 3 + 5) + 4 * a3 * lam,
    ]


def gradient_map(lam, point):
    """D(X) = (3X0^2 - 3 lam X1 X2, 3X1^2 - 3 lam X0 X2, 3X2^2 - 3 lam X0 X1)."""
    lam = Fraction(lam)
    x0, x1, x2 = point
    g = (3 * x0 * x0 - 3 * lam * x1 * x2,
         3 * x1 * x1 - 3 * lam * x0 * x2,
         3 * x2 * x2 - 3 * lam * x0 * x1)
    if not any(g):
        raise ZeroGradient(f"singular point {point} at lam = {lam}")
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


def _proj_normalize(p):
    """The point p of P^2, coordinates coerced into Q(w), scaled so that its
    first nonzero coordinate is 1."""
    p = [QW.coerce(c) for c in p]
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
    base = (QW.zero(), QW.one(), -QW.one())
    orbit = plane_orbit(base)
    if len(orbit) != 9:
        raise AssertionError(f"inflection orbit has size {len(orbit)}")
    return orbit


def on_pencil_member(point):
    """Evaluate f_lam at a Q(omega) point with lam formal: the residual
    polynomial in lam (zero iff the point lies on every pencil member)."""
    ring = PolyRing(QW, ("lam",))
    lam = ring.var("lam")
    x0, x1, x2 = (ring.const(c) for c in point)
    return x0 ** 3 + x1 ** 3 + x2 ** 3 - 3 * lam * x0 * x1 * x2


def hessian_determinant_at(point):
    """det of the matrix of second partials of f_lam, evaluated at a
    Q(omega) point, as a polynomial in the formal lam."""
    ring = PolyRing(QW, ("lam",))
    lam = ring.var("lam")
    x = [ring.const(c) for c in point]
    h = [[6 * x[0], -3 * lam * x[2], -3 * lam * x[1]],
         [-3 * lam * x[2], 6 * x[1], -3 * lam * x[0]],
         [-3 * lam * x[1], -3 * lam * x[0], 6 * x[2]]]
    return (h[0][0] * (h[1][1] * h[2][2] - h[1][2] * h[2][1])
            - h[0][1] * (h[1][0] * h[2][2] - h[1][2] * h[2][0])
            + h[0][2] * (h[1][0] * h[2][1] - h[1][1] * h[2][0]))


def cusp_orbit_check():
    """Certify (lam : 1 : 1) as a cusp of the dual sextic, identically in
    lam: both partials vanish there, and the printed restriction to
    Y1 = Y2 = 1 vanishes to order >= 3 at Y0 = lam."""
    dual = DualSextic(None)
    lam = Y_RING.var("lam")
    at_cusp = {"Y0": lam, "Y1": 1, "Y2": 1}
    report = {}
    for v in ("Y0", "Y1", "Y2"):
        report[f"d/d{v}"] = dual.poly.partial_derivative(v).substitute(at_cusp)
    restriction = dual.poly.substitute({"Y1": 1, "Y2": 1})
    r = restriction
    for order in (0, 1, 2):
        report[f"restriction_order_{order}"] = r.substitute({"Y0": lam})
        r = r.partial_derivative("Y0")
    return report


def cusp_orbit(lam):
    """The nine cusp candidates: the plane Heisenberg orbit of the dual
    point (lam : 1 : 1); reports whether they are distinct."""
    lam = Fraction(lam)
    base = (QW.coerce(lam), QW.one(), QW.one())
    orbit = plane_orbit(base)
    return orbit, len(orbit) == 9


# ----- finite-field oracle -------------------------------------------------

DEFAULT_ORACLE_PRIMES = (13, 31, 997)
DEFAULT_ORACLE_LAMBDAS = (2, 3, 5)


def reduce_mod(lam, p):
    """lam mod p; ValueError when p divides its denominator."""
    lam = Fraction(lam)
    return lam.numerator * pow(lam.denominator, -1, p) % p


def singular_mod(lam, p):
    """Whether f_lam reduces to a singular member mod p (lam^3 = 1)."""
    return pow(reduce_mod(lam, p), 3, p) == 1


FLEX = (0, 1, -1)


def curve_points(lam_p, p):
    """Every F_p-point of f_lam (lam = lam_p mod p) once, with its first
    nonzero coordinate 1.

    The flex FLEX lies on every pencil member, and every other point is
    Q + s*FLEX for exactly one s in F_p and one Q on the line X1 = 0, which
    misses FLEX: Q = (1 : 0 : t) or (0 : 0 : 1).  As f(FLEX) = 0,

        f(Q + s FLEX) = f(Q) + s grad f(Q).FLEX + s^2 grad f(FLEX).Q,

    so the points on each of the p + 1 lines through FLEX are the roots of a
    quadratic a + b s + c s^2.  For Q = (1 : 0 : t) it has a = 1 + t^3,
    b = -3 t (lam + t) = -t c and c = 3 (lam + t), so its roots are
    s = t/2 +- e with (2 c e)^2 = b^2 - 4 a c, and its points are
    (1 : t/2 + e : t/2 - e) and the swap of the last two coordinates.  The
    square root is read from a table of all square roots mod p
    (`fields.square_roots`), built once per call, so memory is O(p): at most
    3079 entries for the benchmark's primes, about 0.1M at p = 100003.  On
    the tangent at FLEX the quadratic is a nonzero constant; a line inside
    the curve raises, since a smooth cubic contains none."""
    roots = square_roots(p)
    half = (p + 1) // 2
    yield 0, 1, p - 1
    for t in range(p):
        a = (1 + t * t * t) % p
        c = 3 * (lam_p + t) % p
        if not c:
            # The tangent at FLEX meets f there three times, so b = 0 as
            # well, and it holds no other point unless it lies on f.
            if a:
                continue
            raise ValueError(f"the line through {FLEX} and {(1, 0, t)} lies "
                             f"on f_lam mod {p}, lam = {lam_p}")
        d = roots[(t * t * c - 4 * a) * c % p]  # b^2 - 4 a c, as b = -t c
        if d is None:
            continue
        h = t * half
        e = d * pow(2 * c, -1, p)
        yield 1, (h + e) % p, (h - e) % p
        if d:
            yield 1, (h - e) % p, (h + e) % p
    # Q = (0 : 0 : 1): a = 1, b = -3, c = 3, and s != 0 as a != 0.
    d = roots[-3 % p]
    if d is not None:
        inv6 = pow(6, -1, p)
        for s in {(3 + d) * inv6 % p, (3 - d) * inv6 % p}:
            yield 0, 1, (1 - s) * pow(s, -1, p) % p


def finite_field_duality_oracle(lam, p):
    """Find every F_p-point of f_lam = 0 on the lines through the flex
    (`curve_points`: p + 1 lines, one table of square roots mod p), check
    that the gradient of every nonsingular point lies on the dual sextic,
    and sanity check the point count against the Hasse bound."""
    lam = Fraction(lam)
    if singular_mod(lam, p):
        raise ValueError(f"lam = {lam} is a singular pencil member mod {p}")
    lam_p = reduce_mod(lam, p)
    a1, a2, a3 = (a % p for a in dual_coefficients(lam_p))
    count = 0
    checked = 0
    for x0, y1, y2 in curve_points(lam_p, p):
        count += 1
        g0 = 3 * (x0 * x0 - lam_p * y1 * y2) % p
        g1 = 3 * (y1 * y1 - lam_p * x0 * y2) % p
        g2 = 3 * (y2 * y2 - lam_p * x0 * y1) % p
        if not (g0 or g1 or g2):
            continue  # singular point; excluded from the duality check
        checked += 1
        # F_lam(g) = S1 + a1 S2 + a2 S3 + a3 S4 at g, from its cubes k_i
        k0, k1, k2 = g0 * g0 * g0 % p, g1 * g1 * g1 % p, g2 * g2 * g2 % p
        m = g0 * g1 * g2 % p
        if (k0 * k0 + k1 * k1 + k2 * k2 + a1 * (k0 * k1 + k0 * k2 + k1 * k2)
                + m * (a2 * (k0 + k1 + k2) + a3 * m)) % p:
            raise CounterexamplePoint((x0, y1, y2),
                                      f"dual sextic nonzero (lam={lam}, p={p})")
    hasse_ok = (count - p - 1) ** 2 <= 4 * p
    if not hasse_ok:
        raise CounterexamplePoint((count,), f"Hasse bound violated (lam={lam}, p={p})")
    return {"p": p, "lam": str(lam), "points": count,
            "checked": checked, "hasse_ok": hasse_ok, "counterexamples": 0}


def run_default_oracle(lams=DEFAULT_ORACLE_LAMBDAS, primes=DEFAULT_ORACLE_PRIMES):
    """Run the duality oracle over the default grid.  Pairs whose reduction
    is a singular pencil member (lam^3 = 1 mod p) violate the oracle's
    precondition and are reported as skipped, not failed."""
    reports = []
    for lam in lams:
        for p in primes:
            if singular_mod(lam, p):
                reports.append({"p": p, "lam": str(lam),
                                "status": "skipped_singular_reduction"})
                continue
            r = finite_field_duality_oracle(lam, p)
            r["status"] = "ok"
            reports.append(r)
    return reports
