"""Matrix and genus arithmetic for the cyclic and dihedral covers: the
order-3 and order-2 automorphism matrices on E x E, the polarization matrix
with its kernel, and the quotient-genus formulas."""

from __future__ import annotations

from fractions import Fraction


class NonIntegralGenus(Exception):
    pass


class InadmissibleCover(Exception):
    pass


class NoSolution(Exception):
    pass


class IntMatrix2:
    """Exact 2x2 integer matrix."""

    def __init__(self, a, b, c, d):
        self.rows = ((a, b), (c, d))

    def __mul__(self, other):
        (a, b), (c, d) = self.rows
        (e, f), (g, h) = other.rows
        return IntMatrix2(a * e + b * g, a * f + b * h,
                          c * e + d * g, c * f + d * h)

    def __add__(self, other):
        (a, b), (c, d) = self.rows
        (e, f), (g, h) = other.rows
        return IntMatrix2(a + e, b + f, c + g, d + h)

    def __neg__(self):
        (a, b), (c, d) = self.rows
        return IntMatrix2(-a, -b, -c, -d)

    def __eq__(self, other):
        return isinstance(other, IntMatrix2) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"IntMatrix2{self.rows}"

    def transpose(self):
        (a, b), (c, d) = self.rows
        return IntMatrix2(a, c, b, d)

    def det(self):
        (a, b), (c, d) = self.rows
        return a * d - b * c

    def apply(self, v):
        (a, b), (c, d) = self.rows
        return (a * v[0] + b * v[1], c * v[0] + d * v[1])


T = IntMatrix2(0, -1, 1, -1)
J_TILDE = IntMatrix2(1, -1, 0, -1)
J = -(J_TILDE * T * T)
I2 = IntMatrix2(1, 0, 0, 1)
ZERO2 = IntMatrix2(0, 0, 0, 0)


def dihedral_identities():
    """The printed identities for the order-3 translation structure and the
    involutions; every entry of the report must be True."""
    return {
        "T^3 = I": T * T * T == I2,
        "J^2 = I": J * J == I2,
        "Jtilde^2 = I": J_TILDE * J_TILDE == I2,
        "J = [[0,-1],[-1,0]]": J == IntMatrix2(0, -1, -1, 0),
        "T J = J T^2": T * J == J * T * T,
        "T^2 + T + I = 0": T * T + T + I2 == ZERO2,
    }


def group_generated_by_T_J():
    """Exhaustive closure of <T, J>; the dihedral group of order 6."""
    elems = {I2}
    frontier = [I2]
    while frontier:
        m = frontier.pop()
        for g in (T, J):
            p = m * g
            if p not in elems:
                elems.add(p)
                frontier.append(p)
    return elems


def phi_matrix(beta):
    return IntMatrix2(2, beta, beta, 2)


def polarization_beta_solve():
    """The unique integer beta making phi = [[2, beta],[beta, 2]] satisfy
    phi T^-1 = (transpose T) phi; also certifies the mod-3 kernel
    K = {(x, -x)}."""
    t_inv = T * T  # T^3 = I
    def residual(beta):
        return phi_matrix(beta) * t_inv + -(T.transpose() * phi_matrix(beta))

    # The residual is affine in beta, r(0) + beta (r(1) - r(0)): beta solves
    # the first entry with a nonzero slope, and then every entry must vanish.
    r0, r1 = residual(0), residual(1)
    lines = [(a, b - a) for a, b in zip(r0.rows[0] + r0.rows[1],
                                        r1.rows[0] + r1.rows[1]) if b != a]
    if not lines:
        raise NoSolution("no entry of the residual depends on beta")
    a, slope = lines[0]
    beta, rest = divmod(-a, slope)
    if rest:
        raise NoSolution(f"beta = {Fraction(-a, slope)} is not an integer")
    if residual(beta) != ZERO2:
        raise NoSolution(f"beta = {beta} leaves a nonzero residual")
    phi = phi_matrix(beta)
    kernel = {v for v in _three_torsion()
              if all(x % 3 == 0 for x in phi.apply(v))}
    expected = {(x % 3, (-x) % 3) for x in range(3)}
    return {"beta": beta, "det": phi.det(), "kernel_mod_3": sorted(kernel),
            "kernel_is_antidiagonal": kernel == expected}


def _three_torsion():
    return [(a, b) for a in range(3) for b in range(3)]


def genus_of_quotient(n, g, t_size=0):
    """Genus of the quotient curve: (n-1)(g-1)/2 for n odd;
    (n/2)(g-1) + 1 - |T|/2 for n even (|T| even, result >= 0).  |T| is a
    set size, so a negative one is no cover for any n."""
    if n < 2:
        raise ValueError("cover degree must be >= 2")
    if t_size < 0:
        raise InadmissibleCover(f"|T| = {t_size} must be >= 0")
    if n % 2:
        value = Fraction((n - 1) * (g - 1), 2)
    else:
        if t_size % 2:
            raise InadmissibleCover(f"|T| = {t_size} must be even")
        value = Fraction(n, 2) * (g - 1) + 1 - Fraction(t_size, 2)
    if value.denominator != 1:
        raise NonIntegralGenus(f"n={n}, g={g}, |T|={t_size}: {value}")
    if value < 0:
        raise InadmissibleCover(f"n={n}, g={g}, |T|={t_size}: genus {value} < 0")
    return int(value)


def prym_dimension_match(n, g):
    """dim P = (n-1)(g-1) must equal twice the quotient genus (n odd)."""
    if n % 2 == 0:
        raise ValueError("the comparison is for odd cover degree")
    dim_p, twice_genus = (n - 1) * (g - 1), 2 * genus_of_quotient(n, g)
    return {"dim_prym": dim_p, "twice_genus": twice_genus,
            "match": dim_p == twice_genus}
