"""Command-line front end: runs the verification commands and emits
machine-readable certificates.

Standard output carries exactly one JSON certificate (or a text rendering
with --format text); progress for long eliminations goes to standard error.
Exit codes: 0 all checks pass, 1 a check failed, 2 usage error, 3 internal
error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction

from . import enumerative, hesse, invariants, nu, prym
from .coble_forms import (coble_ring, coble_cubic, eta_plane_expected,
                          quadric_rank, restrict_to_eta_plane,
                          verify_derivative_identity)
from .fields import Eisenstein, is_prime
from .heisenberg import act_on_polynomial, generators, theta_ring


def jsonable(obj):
    if isinstance(obj, Eisenstein):
        return obj.to_json()
    if isinstance(obj, Fraction):
        return str(obj) if obj.denominator != 1 else obj.numerator
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, set):
        obj = sorted(obj)
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return str(obj)


class Certificate:
    def __init__(self, command, inputs):
        self.command = command
        self.inputs = inputs
        self.checks = []
        self.outputs = {}
        self.started = time.monotonic()

    def check(self, name, expected, actual, provenance):
        self.checks.append({"name": name, "expected": jsonable(expected),
                            "provenance": provenance,
                            "actual": jsonable(actual),
                            "pass": jsonable(expected) == jsonable(actual)})

    def passed(self):
        return all(c["pass"] for c in self.checks)

    def to_dict(self):
        body = {"command": self.command, "inputs": jsonable(self.inputs),
                "checks": self.checks, "outputs": jsonable(self.outputs)}
        digest = hashlib.sha256(
            json.dumps(body, sort_keys=True).encode()).hexdigest()
        body["timing_ms"] = round((time.monotonic() - self.started) * 1000, 1)
        body["artifact_hash"] = digest
        return body

    def render(self, fmt):
        if fmt == "json":
            return json.dumps(self.to_dict(), indent=2)
        lines = [f"command: {self.command}"]
        for c in self.checks:
            status = "PASS" if c["pass"] else "FAIL"
            lines.append(f"  [{status}] {c['name']}: expected={c['expected']} "
                         f"({c['provenance']}) actual={c['actual']}")
        for k, v in self.outputs.items():
            lines.append(f"  {k}: {jsonable(v)}")
        return "\n".join(lines)


def progress(msg):
    print(msg, file=sys.stderr, flush=True)


# ----- command implementations --------------------------------------------

def cmd_invariants_dim(args, cert):
    expected = {3: 5, 6: 43, 9: 310}
    d = args.degree
    actual = invariants.invariant_dimension(d)
    if d in expected:
        cert.check(f"dimension degree {d}", expected[d], actual, "PAPER")
    cert.check(f"orbit count degree {d}", actual, invariants.orbit_count(d),
               "DERIVED")


def cmd_invariants_basis(args, cert):
    ring = theta_ring()
    basis = invariants.invariant_basis(ring, args.degree)
    expected = {3: 5, 6: 43}[args.degree]
    cert.check(f"basis size degree {args.degree}", expected, len(basis), "PAPER")
    cert.outputs["labels"] = basis.labels
    if args.degree == 6:
        split = invariants.iota_split(basis)
        cert.check("involution split dims", [39, 4],
                   [len(split.plus_basis), len(split.minus_basis)], "DERIVED")


def cmd_coble_check(args, cert):
    ring = coble_ring()
    f = coble_cubic(ring)
    residuals = verify_derivative_identity(f)
    for name, poly in residuals.items():
        cert.check(name, True, poly.is_zero(), "PAPER")
    invariant = all(act_on_polynomial(g, f) == f for g in generators())
    cert.check("Heisenberg invariance of F", True, invariant, "PAPER")
    cert.check("restriction to the fixed plane of (1,00,10)", True,
               restrict_to_eta_plane(f) == eta_plane_expected(ring),
               "PAPER")
    cert.check("quadric linear-system rank", 9, quadric_rank(), "DERIVED")


def cmd_nu_charts(args, cert):
    charts = nu.fixed_plane_charts(args.mode)
    cert.check("chart count", {"annexe": 40, "all_lifts": 120}[args.mode],
               len(charts), "PAPER" if args.mode == "annexe" else "DERIVED")
    signs = [[s for s, _ in lifts] for lifts in nu.matching_lifts(charts)]
    per_sign_ok = all(s.count(1) == 1 and s.count(-1) == 1 for s in signs)
    cert.check("one matching lift per sign", True, per_sign_ok, "DERIVED")
    cert.outputs["charts"] = [ch.family_tag for ch in charts]


def cmd_nu_rank(args, cert):
    rank, kernel, report = nu.nu_rank_and_kernel(mode=args.mode,
                                                 progress=progress)
    cert.check("rank-nullity", True, report["rank_nullity_ok"], "TRIVIAL")
    cert.check("kernel iota-anti-invariant", True,
               report["kernel_iota_anti_invariant"], "PAPER")
    cert.check("kernel dimension in {3,4}", True,
               report["kernel_dimension"] in (3, 4), "PAPER")
    cert.outputs.update({"rank": report["rank"],
                         "kernel_dimension": report["kernel_dimension"],
                         "verdict": report["verdict"],
                         "rank_certificate": report["rank_certificate"]})
    if args.command == "kernel":
        cert.outputs["kernel"] = report["kernel"]


def cmd_hesse_dual(args, cert):
    lam = Fraction(args.lam)
    dual = hesse.dual_sextic_closed_form(lam)
    a = dual.coefficient_values()
    cert.check("closed-form coefficients",
               [4 * lam ** 3 - 2, -6 * lam ** 2, -3 * lam * (lam ** 3 - 4)],
               list(a), "PAPER")
    try:
        from_system = hesse.dual_sextic_from_cusp_system(lam)
        cert.check("cusp-system solution equals closed form", list(a),
                   list(from_system), "PAPER")
    except hesse.SingularSystem as exc:
        cert.outputs["cusp_system"] = f"singular: {exc}"
    p = args.oracle_prime
    if hesse.singular_mod(lam, p):
        cert.outputs["oracle"] = "skipped_singular_reduction"
    else:
        report = hesse.finite_field_duality_oracle(lam, p)
        cert.check(f"duality oracle mod {p}", 0, report["counterexamples"],
                   "DERIVED")
        cert.check(f"Hasse bound mod {p}", True, report["hasse_ok"], "DERIVED")
        cert.outputs["oracle"] = report
    cert.outputs["sextic"] = dual.poly.to_json()


def cmd_enum_degree_dual(args, cert):
    expansion = enumerative.dual_degree_expansion()
    cert.check("coefficient of H^8", 384, expansion.coefficients[8], "PAPER")
    cert.check("derived intersection table", enumerative.HARDCODED_TABLE,
               enumerative.derived_intersection_table(), "PAPER")
    cert.check("dual degree", 6, enumerative.dual_degree_computation(), "PAPER")


def cmd_enum_verlinde(args, cert):
    seq = enumerative.verlinde_sequence(args.kmax)
    cert.check("dimension at k=1", 9, seq[1], "PAPER")
    cert.check("theta degree from finite differences", 2,
               enumerative.theta_degree_from_verlinde(), "PAPER")
    cert.outputs["dimensions"] = seq


def cmd_enum_quadric_count(args, cert):
    cert.check("45 - 36", 9, enumerative.quadric_dimension_count(), "PAPER")
    cert.check("Barth quadric rank", 9, quadric_rank(), "DERIVED")


def cmd_enum_zagier(args, cert):
    v = enumerative.zagier_leading_coefficient(args.h)
    if args.h == 1:
        cert.check("v_{1,1,1}", Fraction(1, 945), v, "PAPER")
        cert.check("theta degree via Bernoulli route", 2,
                   enumerative.theta_degree_from_zagier(), "PAPER")
    cert.outputs["value"] = str(v)


def cmd_prym_check(args, cert):
    for name, ok in prym.dihedral_identities().items():
        cert.check(name, True, ok, "PAPER")
    cert.check("order of <T, J>", 6, len(prym.group_generated_by_T_J()),
               "DERIVED")
    sol = prym.polarization_beta_solve()
    cert.check("beta", -1, sol["beta"], "PAPER")
    cert.check("det phi", 3, sol["det"], "DERIVED")
    cert.check("kernel is the antidiagonal", True,
               sol["kernel_is_antidiagonal"], "PAPER")


def cmd_prym_genus(args, cert):
    value = prym.genus_of_quotient(args.n, args.g, args.t)
    cert.outputs["genus"] = value
    if args.n == 3 and args.g == 2:
        cert.check("genus n=3 g=2", 1, value, "PAPER")
    if args.n % 2:
        cert.check("prym dimension match", True,
                   prym.prym_dimension_match(args.n, args.g)["match"],
                   "PAPER")


VERIFY_ALL_LAMBDA = 2


def cmd_verify_all(args, cert):
    progress("invariant dimensions")
    for d, expected in ((3, 5), (6, 43)):
        cert.check(f"dimension degree {d}", expected,
                   invariants.invariant_dimension(d), "PAPER")
    progress("coble identities")
    residuals = verify_derivative_identity(coble_cubic(coble_ring()))
    cert.check("coble identities", True,
               all(p.is_zero() if hasattr(p, "is_zero") else bool(p)
                   for p in residuals.values()), "PAPER")
    progress("nu elimination (annexe charts)")
    _, _, report = nu.nu_rank_and_kernel(progress=progress)
    cert.check("nu kernel iota-anti-invariant", True,
               report["kernel_iota_anti_invariant"], "PAPER")
    cert.check("nu kernel dimension in {3,4}", True,
               report["kernel_dimension"] in (3, 4), "PAPER")
    cert.outputs["nu"] = {"rank": report["rank"],
                          "kernel_dimension": report["kernel_dimension"],
                          "verdict": report["verdict"],
                          "rank_certificate": report["rank_certificate"]}
    progress("hesse duality")
    cert.check("cusp system identities", True,
               all(r.is_zero() for r in hesse.cusp_system_residuals()),
               "PAPER")
    oracle = hesse.finite_field_duality_oracle(VERIFY_ALL_LAMBDA,
                                               args.oracle_prime)
    cert.check("duality oracle", 0, oracle["counterexamples"], "DERIVED")
    progress("enumerative")
    cert.check("dual degree", 6, enumerative.dual_degree_computation(), "PAPER")
    cert.check("theta degree", 2, enumerative.theta_degree_from_verlinde(),
               "PAPER")
    cert.check("v_{1,1,1}", Fraction(1, 945),
               enumerative.zagier_leading_coefficient(1), "PAPER")
    cert.check("quadric count", 9, enumerative.quadric_dimension_count(),
               "PAPER")
    progress("prym")
    cert.check("dihedral identities", True,
               all(prym.dihedral_identities().values()), "PAPER")
    cert.check("beta", -1, prym.polarization_beta_solve()["beta"], "PAPER")


# ----- argument parsing ----------------------------------------------------

def checked_int(predicate, requirement):
    """An argparse type: an int satisfying `predicate`; anything else is a
    usage error (exit 2) saying that the value is not `requirement`."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if not predicate(value):
            raise argparse.ArgumentTypeError(f"{value} is not {requirement}")
        return value
    return parse


DEGREE = checked_int(lambda d: d >= 0 and d % 3 == 0, "a multiple of 3 >= 0")
POSITIVE = checked_int(lambda n: n >= 1, "a positive integer")
COVER_DEGREE = checked_int(lambda n: n >= 2, "a cover degree >= 2")
ORACLE_PRIME = checked_int(lambda p: p % 3 == 1 and is_prime(p),
                           "a prime congruent to 1 mod 3")


def fraction_text(text):
    """An argparse type: a rational number, kept as the text given."""
    try:
        Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a rational number") from None
    return text


def combination_error(args):
    """Why arguments that are each valid are not valid together, or None."""
    if args.func is cmd_hesse_dual and \
            Fraction(args.lam).denominator % args.oracle_prime == 0:
        return (f"argument --oracle-prime: {args.oracle_prime} divides the "
                f"denominator of --lambda {args.lam}")
    if args.func is cmd_verify_all and \
            hesse.singular_mod(VERIFY_ALL_LAMBDA, args.oracle_prime):
        return (f"argument --oracle-prime: the oracle's lambda = "
                f"{VERIFY_ALL_LAMBDA} is singular mod {args.oracle_prime}")
    if args.func is cmd_prym_genus:
        try:
            prym.genus_of_quotient(args.n, args.g, args.t)
        except prym.InadmissibleCover as exc:
            return f"arguments --n, --g, --t: no such cover: {exc}"
    return None


# group -> command -> (handler, options); a group with no commands, like
# verify-all, maps straight to its (handler, options).  An option is
# (flag, argparse keywords); every command also takes --format.
MODE = ("--mode", {"choices": ("annexe", "all_lifts"), "default": "annexe"})
ORACLE = ("--oracle-prime", {"type": ORACLE_PRIME, "default": 997})

COMMANDS = {
    "invariants": {
        "dim": (cmd_invariants_dim, [("--degree", {"type": DEGREE, "default": 6})]),
        "basis": (cmd_invariants_basis,
                  [("--degree", {"type": int, "default": 6, "choices": (3, 6)})]),
    },
    "coble": {"check": (cmd_coble_check, [])},
    "nu": {"charts": (cmd_nu_charts, [MODE]), "rank": (cmd_nu_rank, [MODE]),
           "kernel": (cmd_nu_rank, [MODE])},
    "hesse": {"dual": (cmd_hesse_dual, [
        ("--lambda", {"dest": "lam", "type": fraction_text, "default": "2"}),
        ORACLE])},
    "enum": {
        "degree-dual": (cmd_enum_degree_dual, []),
        "verlinde": (cmd_enum_verlinde, [("--kmax", {"type": POSITIVE, "default": 8})]),
        "quadric-count": (cmd_enum_quadric_count, []),
        "zagier": (cmd_enum_zagier, [("--h", {"type": POSITIVE, "default": 1})]),
    },
    "prym": {
        "check": (cmd_prym_check, []),
        "genus": (cmd_prym_genus, [
            ("--n", {"type": COVER_DEGREE, "required": True}),
            ("--g", {"type": int, "required": True}),
            ("--t", {"type": int, "default": 0})]),
    },
    "verify-all": (cmd_verify_all, [ORACLE]),
}


def split_off(prog, name, choices, argv, **kwargs):
    """Parse the positional `name` (one of `choices`) off the front of argv
    with a parser for `prog`; returns it and the arguments after it."""
    parser = argparse.ArgumentParser(prog=prog, **kwargs)
    parser.add_argument(name, choices=choices)
    parser.add_argument("args", nargs=argparse.REMAINDER,
                        help=f"the arguments of the {name}")
    ns = parser.parse_args(argv)
    return getattr(ns, name), ns.args


def parse(argv):
    """The namespace for argv, building only the parsers on its path: the
    root, the group (when it has commands) and the command."""
    group, rest = split_off(
        "coble", "group", COMMANDS, argv, description="Exact verification "
        "of the invariant-form, restriction and enumerative computations.")
    entry, command, prog = COMMANDS[group], group, f"coble {group}"
    if isinstance(entry, dict):
        command, rest = split_off(prog, "command", entry, rest)
        entry, prog = entry[command], f"{prog} {command}"
    func, options = entry
    parser = argparse.ArgumentParser(prog=prog)
    parser.add_argument("--format", choices=("json", "text"), default="json")
    for flag, kwargs in options:
        parser.add_argument(flag, **kwargs)
    args = parser.parse_args(rest, argparse.Namespace(group=group,
                                                      command=command))
    args.func = func
    error = combination_error(args)
    if error:
        parser.error(error)
    return args


def main(argv=None):
    args = parse(argv)
    label = args.group if args.group == args.command else \
        f"{args.group} {args.command}"
    inputs = {k: jsonable(v) for k, v in vars(args).items()
              if k not in ("func", "group", "command", "format")}
    cert = Certificate(label, inputs)
    try:
        args.func(args, cert)
    except Exception as exc:  # internal error contract
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3
    print(cert.render(args.format))
    return 0 if cert.passed() else 1


if __name__ == "__main__":
    sys.exit(main())
