"""Content checks for `coble` certificates, and a tamper test that proves
the checks can fail.

A certificate passes only if the command exited 0, printed one JSON
certificate for the command that was asked, every check in it passes, and
the pinned mathematical outputs are right.  Values the harness can compute
on its own (the Hesse dual coefficients, the nu kernel span, the Prym
genus) are recomputed here and compared.  `artifact_hash` and
`timing_ms` are never compared, so certificates may gain new fields.
"""

from __future__ import annotations

import copy
import json
from fractions import Fraction

INVARIANT_DIMS = {3: 5, 6: 43, 9: 310}
BASIS_SIZES = {3: 5, 6: 43}
CHART_COUNTS = {"annexe": 40, "all_lifts": 120}
NU_RANK, NU_KERNEL_DIM = 39, 4
# The nu kernel is spanned by T8-T7, T11-T10, T14-T13, T17-T16.
KERNEL_PAIRS = (("T8", "T7"), ("T11", "T10"), ("T14", "T13"), ("T17", "T16"))


def label(argv):
    return argv[0] if len(argv) == 1 else f"{argv[0]} {argv[1]}"


def _option(argv, name, default=None):
    for i, a in enumerate(argv):
        if a == name:
            return argv[i + 1]
        if a.startswith(name + "="):
            return a[len(name) + 1:]
    return default


def _check(cert, name):
    for c in cert.get("checks", ()):
        if c.get("name") == name:
            return c
    return None


# ----- Q(w) arithmetic for the kernel span check --------------------------
# An element a + b*w is the pair (a, b), with w^2 = -1 - w.

def _qw(obj):
    return Fraction(obj["re"]), Fraction(obj["om"])


def _qw_mul(x, y):
    a, b = x
    c, d = y
    return a * c - b * d, a * d + b * c - b * d


def _qw_inv(x):
    a, b = x
    n = a * a - a * b + b * b
    return (a - b) / n, -b / n


def _qw_rank(rows):
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if any(rows[i][col])),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = _qw_inv(rows[rank][col])
        rows[rank] = [_qw_mul(inv, x) for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and any(rows[i][col]):
                f = rows[i][col]
                rows[i] = [(a[0] - m[0], a[1] - m[1]) for a, m in
                           zip(rows[i], (_qw_mul(f, x) for x in rows[rank]))]
        rank += 1
    return rank


def kernel_span_problems(kernel):
    """Does the printed kernel span exactly <T8-T7, T11-T10, T14-T13,
    T17-T16>?  The four differences have disjoint supports, so a vector lies
    in their span iff it vanishes off those eight labels and its two entries
    in each pair cancel; four independent such vectors span all of it."""
    if len(kernel) != len(KERNEL_PAIRS):
        return [f"kernel has {len(kernel)} vectors, expected {len(KERNEL_PAIRS)}"]
    allowed = {lab for pair in KERNEL_PAIRS for lab in pair}
    zero = (Fraction(0), Fraction(0))
    coords = []
    for k, vec in enumerate(kernel):
        entries = {lab: _qw(c) for lab, c in vec.items()}
        extra = sorted(lab for lab, c in entries.items()
                       if lab not in allowed and c != zero)
        if extra:
            return [f"kernel vector {k} uses {extra}"]
        row = []
        for plus, minus in KERNEL_PAIRS:
            a, b = entries.get(plus, zero), entries.get(minus, zero)
            if (a[0] + b[0], a[1] + b[1]) != zero:
                return [f"kernel vector {k} is not a multiple of {plus}-{minus}"]
            row.append(a)
        coords.append(row)
    if _qw_rank(coords) != len(KERNEL_PAIRS):
        return ["kernel vectors are linearly dependent"]
    return []


# ----- per-command content checks -----------------------------------------

def _nu_problems(argv, cert, outputs):
    problems = []
    if outputs.get("rank") != NU_RANK:
        problems.append(f"nu rank {outputs.get('rank')} != {NU_RANK}")
    if outputs.get("kernel_dimension") != NU_KERNEL_DIM:
        problems.append(f"nu kernel dimension {outputs.get('kernel_dimension')}"
                        f" != {NU_KERNEL_DIM}")
    mode = _option(argv, "--mode", "annexe")
    if cert.get("inputs", {}).get("mode") != mode:
        problems.append(f"certificate is for mode {cert.get('inputs')}")
    if argv[1] == "kernel":
        problems += kernel_span_problems(outputs.get("kernel", []))
    return problems


def _hesse_problems(argv, cert, outputs):
    lam = Fraction(_option(argv, "--lambda"))
    p = int(_option(argv, "--oracle-prime"))
    expected = [4 * lam ** 3 - 2, -6 * lam ** 2, -3 * lam * (lam ** 3 - 4)]
    closed = _check(cert, "closed-form coefficients")
    if closed is None or [Fraction(str(a)) for a in closed["actual"]] != expected:
        return [f"dual coefficients differ from {expected}"]
    oracle = outputs.get("oracle")
    if not isinstance(oracle, dict):
        return [f"oracle did not scan: {oracle!r}"]
    problems = []
    if oracle.get("counterexamples") != 0 or oracle.get("hasse_ok") is not True:
        problems.append(f"oracle reports {oracle.get('counterexamples')} "
                        f"counterexamples, hasse_ok={oracle.get('hasse_ok')}")
    if oracle.get("p") != p or Fraction(oracle.get("lam")) != lam:
        problems.append(f"oracle ran on p={oracle.get('p')}, lam={oracle.get('lam')}")
    points = oracle.get("points", -1)
    if (points - p - 1) ** 2 > 4 * p or not 0 < oracle.get("checked", 0) <= points:
        problems.append(f"oracle point counts {points}/{oracle.get('checked')}"
                        f" are impossible mod {p}")
    return problems


def _prym_genus(n, g):
    return (n - 1) * (g - 1) // 2 if n % 2 else n // 2 * (g - 1) + 1


def content_problems(argv, cert):
    """Problems with a parsed certificate beyond its own pass flags."""
    outputs = cert.get("outputs", {})
    kind = label(argv)
    if kind == "verify-all":
        nu = outputs.get("nu", {})
        problems = []
        if nu.get("rank") != NU_RANK or nu.get("kernel_dimension") != NU_KERNEL_DIM:
            problems.append(f"verify-all nu rank/kernel {nu.get('rank')}/"
                            f"{nu.get('kernel_dimension')}")
        if not str(nu.get("verdict", "")).startswith("text: rank 39"):
            problems.append(f"verify-all verdict {nu.get('verdict')!r}")
        return problems
    if kind in ("nu rank", "nu kernel"):
        return _nu_problems(argv, cert, outputs)
    if kind == "nu charts":
        want = CHART_COUNTS[_option(argv, "--mode", "annexe")]
        got = len(outputs.get("charts", ()))
        return [] if got == want else [f"{got} charts, expected {want}"]
    if kind == "hesse dual":
        return _hesse_problems(argv, cert, outputs)
    if kind == "invariants dim":
        d = int(_option(argv, "--degree"))
        c = _check(cert, f"dimension degree {d}")
        if d in INVARIANT_DIMS and (c is None or c["actual"] != INVARIANT_DIMS[d]):
            return [f"dimension in degree {d} is not {INVARIANT_DIMS[d]}"]
        return []
    if kind == "invariants basis":
        d = int(_option(argv, "--degree"))
        got = len(outputs.get("labels", ()))
        return [] if got == BASIS_SIZES[d] else [f"basis of size {got}"]
    if kind == "enum degree-dual":
        c = _check(cert, "dual degree")
        return [] if c is not None and c["actual"] == 6 else ["dual degree is not 6"]
    if kind == "enum zagier" and _option(argv, "--h") == "1":
        return [] if outputs.get("value") == "1/945" else ["v_{1,1,1} != 1/945"]
    if kind == "prym genus":
        n, g = int(_option(argv, "--n")), int(_option(argv, "--g"))
        want = _prym_genus(n, g)
        got = outputs.get("genus")
        return [] if got == want else [f"genus {got}, expected {want}"]
    return []


def certificate_problems(argv, rc, text):
    """Everything wrong with one certificate; an empty list means it passes."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        cert = json.loads(text)
    except ValueError as exc:
        return [f"output is not one JSON certificate: {exc}"]
    if cert.get("command") != label(argv):
        return [f"certificate for {cert.get('command')!r}, asked {label(argv)!r}"]
    failing = [c.get("name") for c in cert.get("checks", ()) if c.get("pass") is not True]
    if failing:
        return [f"failing checks {failing}"]
    return content_problems(argv, cert)


class Tally:
    """Counts attempted and failed certificates; keeps the first problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.examples = []

    def record(self, argv, rc, text):
        problems = certificate_problems(argv, rc, text)
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.examples) < 5:
                self.examples.append({"argv": argv, "problems": problems})
        return not problems


# ----- tamper test ---------------------------------------------------------

def _set_check(cert, name, actual):
    c = _check(cert, name)
    if c is not None:
        c["actual"] = actual


def _content_tamper(argv, cert):
    """A wrong mathematical output that keeps every pass flag set, or None
    when the harness has no pinned value for this command."""
    kind = label(argv)
    out = cert.setdefault("outputs", {})
    if kind == "verify-all":
        out["nu"]["rank"] = NU_RANK + 1
    elif kind == "nu rank":
        out["rank"] = NU_RANK + 1
    elif kind == "nu kernel":
        out["kernel"][0] = out["kernel"][1]
    elif kind == "nu charts":
        out["charts"] = out["charts"][1:]
    elif kind == "hesse dual":
        c = _check(cert, "closed-form coefficients")
        c["actual"] = [str(Fraction(str(c["actual"][0])) + 1)] + c["actual"][1:]
    elif kind == "invariants dim" and int(_option(argv, "--degree")) in INVARIANT_DIMS:
        d = int(_option(argv, "--degree"))
        _set_check(cert, f"dimension degree {d}", INVARIANT_DIMS[d] + 1)
    elif kind == "invariants basis":
        out["labels"] = out["labels"][1:]
    elif kind == "enum degree-dual":
        _set_check(cert, "dual degree", 7)
    elif kind == "prym genus":
        out["genus"] = out["genus"] + 1
    else:
        return None
    return cert


def tampered_variants(argv, text):
    """(what, rc, text) variants of a passing certificate that a sound
    content gate must all count as failed."""
    cert = json.loads(text)
    variants = [("exit code 1", 1, text), ("truncated output", 0, text[: len(text) // 2])]
    if cert.get("checks"):
        broken = copy.deepcopy(cert)
        broken["checks"][0]["pass"] = False
        variants.append(("one failing check", 0, json.dumps(broken)))
    wrong = _content_tamper(argv, copy.deepcopy(cert))
    if wrong is not None:
        variants.append(("wrong pinned output", 0, json.dumps(wrong)))
    return variants


def tamper_test(samples):
    """Feed tampered copies of passing certificates through a fresh Tally.
    `samples` maps a command label to one (argv, text) that passed.  Returns
    the variants the gate let through (an empty list means it is sound)."""
    leaks = []
    for argv, text in samples.values():
        for what, rc, bad in tampered_variants(argv, text):
            tally = Tally()
            if tally.record(argv, rc, bad) or tally.failed != 1:
                leaks.append(f"{label(argv)}: {what}")
    return leaks
