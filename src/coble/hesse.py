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
The formal cubic `PENCIL`, the cusp residuals (row . a - rhs at formal
lam) and the cusp certificate derive from them.
The coefficients come three times (closed form; the discriminant of f_lam
on a line, from `pencil` alone; one elimination of the cusp system, which
is singular at lam = 0) and are certified over prime fields: every F_p-point
of f_lam is found on the p + 1 lines through the rational flex (0 : 1 : -1),
and its gradient must lie on the dual sextic.  Each line yields one
projective representative, (2c : tc + d : tc - d) on the line through
(1 : 0 : t), with no inverse mod p, and it is checked once for itself and
its X1 <-> X2 twin: f_lam and F_lam are both symmetric in the last two
coordinates.  That loop inlines f_lam and F_lam mod p on ints;
`tests/hesse_oracle.py` checks it against its own transcription, and holds
the plane Heisenberg orbits of the flexes and cusps, which no certificate
uses.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .fields import QQ, square_roots
from .linalg import ExactMatrix
from .poly import NotInSpan, PolyRing


class SingularSystem(Exception):
    pass


class CounterexamplePoint(Exception):
    def __init__(self, point, message):
        self.point = point
        super().__init__(f"{message} at {point}")


X_RING = PolyRing(QQ, ("X0", "X1", "X2", "lam"))
Y_RING = PolyRing(QQ, ("Y0", "Y1", "Y2", "lam"))
LINE_RING = PolyRing(QQ, ("s", "t", "Y0", "Y1", "Y2", "lam"))


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
    a1, a2, a3 = (Y_RING.from_terms({(0, 0, 0, e[3]): x / -81
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


def dual_sextic_from_cusp_system(lam):
    """(a1, a2, a3) from one elimination of the augmented 3x4 system, which
    is singular exactly when its pivots are not the three a-columns."""
    rows, rhs = cusp_system(Fraction(lam))
    reduced, pivots = ExactMatrix(QQ, [row + [Fraction(b)]
                                       for row, b in zip(rows, rhs)]).rref()
    if pivots != [0, 1, 2]:
        raise SingularSystem(f"cusp system is singular at lam = {lam}")
    return tuple(row[3] for row in reduced)


def cusp_system_residuals():
    """row . a - rhs for the three printed cusp equations, with the
    closed-form coefficients a and lam formal; all must be identically
    zero."""
    lam = PolyRing(QQ, ("lam",)).var("lam")
    a = dual_coefficients(lam)
    rows, rhs = cusp_system(lam)
    return [row[0] * a[0] + row[1] * a[1] + row[2] * a[2] - b
            for row, b in zip(rows, rhs)]


def cusp_orbit_check():
    """Certify (lam : 1 : 1) as a cusp of the dual sextic, identically in
    lam: both partials vanish there, and the printed restriction to
    Y1 = Y2 = 1 vanishes to order >= 3 at Y0 = lam."""
    lam = Y_RING.var("lam")
    dual = dual_sextic(lam)
    at_cusp = {"Y0": lam, "Y1": 1, "Y2": 1}
    report = {}
    for v in ("Y0", "Y1", "Y2"):
        report[f"d/d{v}"] = dual.partial_derivative(v).substitute(at_cusp)
    r = dual.substitute({"Y1": 1, "Y2": 1})
    for order in (0, 1, 2):
        report[f"restriction_order_{order}"] = r.substitute({"Y0": lam})
        r = r.partial_derivative("Y0")
    return report


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


FLEX = (0, 1, -1)


def curve_points(lam_p, p):
    """Every F_p-point of f_lam (lam = lam_p mod p), as one projective
    representative (x0, y1, y2, n) per line through FLEX: it stands for
    n in {1, 2} points, itself and, when n = 2, its X1 <-> X2 twin
    (x0 : y2 : y1), another point of f_lam, which is symmetric in X1 and
    X2.

    The flex FLEX lies on every pencil member, and every other point is
    Q + s*FLEX for exactly one s in F_p and one Q on the line X1 = 0, which
    misses FLEX: Q = (1 : 0 : t) or (0 : 0 : 1).  As f(FLEX) = 0,

        f(Q + s FLEX) = f(Q) + s grad f(Q).FLEX + s^2 grad f(FLEX).Q,

    so the points on each of the p + 1 lines through FLEX are the roots of a
    quadratic a + b s + c s^2.  For Q = (1 : 0 : t) it has a = 1 + t^3,
    b = -3 t (lam + t) = -t c and c = 3 (lam + t), so its roots are
    s = (t c +- d) / (2 c) with d^2 = b^2 - 4 a c, and its points
    (1 : s : t - s) are (2 c : t c + d : t c - d) and the twin: scaled by
    2 c, no line needs an inverse.  For Q = (0 : 0 : 1), a = 1, b = -3 and
    c = 3, so s = (3 +- d) / 6 with d^2 = -3, and (0 : s : 1 - s) is
    (0 : 3 + d : 3 - d), again with its twin.  Either twin is the same
    point exactly when d = 0, where n = 1; FLEX itself has n = 1.  The
    square root is read from a table of all square roots mod p
    (`fields.square_roots`), built once per call, so memory is O(p): at most
    3079 entries for the benchmark's primes, about 0.1M at p = 100003.  On
    the tangent at FLEX the quadratic is a nonzero constant; a line inside
    the curve raises, since a smooth cubic contains none, and so does
    p = 2, where 2 c = 0."""
    if p == 2:
        raise ValueError("the line walk needs an odd prime, not 2")
    roots = square_roots(p)
    yield 0, 1, p - 1, 1
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
        tc = t * c
        d = roots[(t * tc - 4 * a) * c % p]  # b^2 - 4 a c, as b = -t c
        if d is not None:
            yield 2 * c % p, (tc + d) % p, (tc - d) % p, 2 if d else 1
    d = roots[-3 % p]  # Q = (0 : 0 : 1)
    if d is not None:
        yield 0, (3 + d) % p, (3 - d) % p, 2 if d else 1


def _normalized(point, p):
    """The point of P^2(F_p) with its first nonzero coordinate 1."""
    inv = pow(next(x for x in point if x % p), -1, p)
    return tuple(x * inv % p for x in point)


def finite_field_duality_oracle(lam, p):
    """Find every F_p-point of f_lam = 0 on the lines through the flex
    (`curve_points`: p + 1 lines, one table of square roots mod p), check
    that the gradient of every nonsingular point lies on the dual sextic
    (raising `CounterexamplePoint` at the first that does not, normalized
    to first nonzero coordinate 1), and report whether the point count N
    meets the Hasse bound (N - p - 1)^2 <= 4p.  A count outside it is no
    point, so it is reported, not raised.

    Each representative of `curve_points` is checked once and counts for
    its n points.  That is exact: the gradient at the X1 <-> X2 twin is
    (g0, g2, g1), the residual below is symmetric in g1 and g2, as S1..S4
    are, and it is homogeneous, so its zero test holds for every scaling of
    the point."""
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


def run_default_oracle(lams=DEFAULT_ORACLE_LAMBDAS, primes=DEFAULT_ORACLE_PRIMES):
    """Run the duality oracle over the default grid.  Pairs where f_lam or
    its reduction is singular violate the oracle's precondition and are
    reported as skipped (`oracle_skip`), not failed."""
    reports = []
    for lam in lams:
        for p in primes:
            skip = oracle_skip(lam, p)
            if skip:
                reports.append({"p": p, "lam": str(lam), "status": skip})
                continue
            r = finite_field_duality_oracle(lam, p)
            r["status"] = "ok"
            reports.append(r)
    return reports
