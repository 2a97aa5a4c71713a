"""The generic Q(w) route to nu, kept as the reference the production route
is compared against: restriction by polynomial substitution
(`FixedPlaneChart.restrict`), coordinates by an exact solve
(`coefficient_in_basis`) or by the source computation's substitution
Y1 = Y2 = 1, and exact elimination (`ExactMatrix.rank_and_kernel`).
"""

from coble.fields import QW
from coble.linalg import ExactMatrix
from coble.nu import S_BASIS
from coble.poly import coefficient_in_basis


def hack_rows(res):
    """The source computation's row extraction: coefficients of Y0^2, Y0^3,
    Y0^4, Y0^6 after Y1 = Y2 = 1."""
    line = res.substitute({"Y1": 1, "Y2": 1})
    return [line.terms.get((k, 0, 0), QW.zero()) for k in (2, 3, 4, 6)]


def coordinates(res, method):
    """Coordinates of a restricted sextic `res` in either convention."""
    if method == "hack":
        return hack_rows(res)
    if res.is_zero():
        return [QW.zero()] * 4
    return coefficient_in_basis(res, S_BASIS)


def restrictions(charts, elements):
    """Every element restricted to every chart, chart by chart."""
    return [[chart.restrict(p) for p in elements] for chart in charts]


def nu_matrix(restricted, method):
    """The nu matrix from `restrictions(...)`: four rows per chart."""
    rows = []
    for block in restricted:
        cols = [coordinates(res, method) for res in block]
        rows.extend([col[r] for col in cols] for r in range(4))
    return ExactMatrix(QW, rows)
