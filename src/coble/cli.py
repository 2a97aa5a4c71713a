"""Command-line front end: runs the verification commands and emits
machine-readable certificates.

Standard output carries exactly one JSON certificate (or a text rendering
with --format text); progress, such as the charts of nu's rank certificate,
goes to standard error.
Exit codes: 0 all checks pass, 1 a check failed, 2 usage error, 3 internal
error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

# The builtin module hashes as hashlib does without loading OpenSSL; it is
# named _sha2 from Python 3.12 on.
try:
    from _sha256 import sha256
except ImportError:
    try:
        from _sha2 import sha256
    except ImportError:
        from hashlib import sha256

from . import enumerative, hesse, invariants, nu, prym
from .coble_forms import (ETA_PLANE, barth_quadrics, coble_cubic,
                          eta_plane_coordinates, quadric_rank,
                          verify_derivative_identity)
from .fields import Eisenstein, is_prime
from .heisenberg import act_on_polynomial, generators, theta_ring
from .poly import NotInSpan, Polynomial


def jsonable(obj):
    """obj as certificate JSON; a type not handled here raises TypeError."""
    if isinstance(obj, Eisenstein):
        return {"re": str(obj.re), "om": str(obj.om)}
    if isinstance(obj, Polynomial):
        return [{"coeff": jsonable(c) if isinstance(c, Eisenstein) else str(c),
                 "exps": list(e)} for e, c in obj.sorted_terms()]
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
    raise TypeError(f"no certificate JSON for {type(obj).__name__}: {obj!r}")


class Certificate:
    def __init__(self, command, inputs):
        self.command = command
        self.inputs = inputs
        self.checks = []
        self.outputs = {}
        self.started = time.monotonic()

    def check(self, name, expected, actual, provenance):
        expected, actual = jsonable(expected), jsonable(actual)
        self.checks.append({"name": name, "expected": expected,
                            "provenance": provenance, "actual": actual,
                            "pass": expected == actual})

    def passed(self):
        return all(c["pass"] for c in self.checks)

    def to_dict(self):
        body = {"command": self.command, "inputs": jsonable(self.inputs),
                "checks": self.checks, "outputs": jsonable(self.outputs)}
        digest = sha256(
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
    labels, elements = invariants.invariant_basis(ring, args.degree)
    expected = {3: 5, 6: 43}[args.degree]
    cert.check(f"basis size degree {args.degree}", expected, len(elements),
               "PAPER")
    cert.outputs["labels"] = labels
    if args.degree == 6:
        plus, minus = invariants.iota_split(elements)
        cert.check("involution split dims", [39, 4], [len(plus), len(minus)],
                   "DERIVED")


def cmd_coble_check(args, cert):
    f = coble_cubic()
    quadrics = barth_quadrics()
    residuals = verify_derivative_identity(f, quadrics)
    for name, poly in residuals.items():
        cert.check(name, True, poly.is_zero(), "PAPER")
    invariant = all(act_on_polynomial(g, f) == f for g in generators())
    cert.check("Heisenberg invariance of F", True, invariant, "PAPER")
    try:
        on_plane = eta_plane_coordinates() == ETA_PLANE
    except NotInSpan as exc:
        on_plane = str(exc)
    cert.check("restriction to the fixed plane of (1,00,10)", True, on_plane,
               "PAPER")
    cert.check("quadric linear-system rank", 9, quadric_rank(quadrics), "DERIVED")


def cmd_nu_charts(args, cert):
    charts = nu.fixed_plane_charts(args.mode)
    cert.check("chart count", {"annexe": 40, "all_lifts": 120}[args.mode],
               len(charts), "PAPER" if args.mode == "annexe" else "DERIVED")
    signs = [[s for s, _ in lifts] for lifts in nu.matching_lifts(charts)]
    per_sign_ok = all(s.count(1) == 1 and s.count(-1) == 1 for s in signs)
    cert.check("one matching lift per sign", True, per_sign_ok, "DERIVED")
    cert.outputs["charts"] = [ch.family_tag for ch in charts]


NU_OUTPUTS = ("rank", "kernel_dimension", "verdict", "rank_certificate")


def proven_rank(report):
    """The rank of a nu report, or why it is not proven: on the "unproven"
    route the rank reported is only the rank mod p, a lower bound."""
    if report["rank_certificate"]["route"] == "unproven":
        return f"unproven: at least {report['rank']}"
    return report["rank"]


def cmd_nu_rank(args, cert):
    rank, kernel, report = nu.nu_rank_and_kernel(mode=args.mode,
                                                 progress=progress)
    cert.check("rank-nullity", True, report["rank_nullity_ok"], "TRIVIAL")
    cert.check("kernel iota-anti-invariant", True,
               report["kernel_iota_anti_invariant"], "PAPER")
    cert.check("kernel dimension in {3,4}", True,
               report["kernel_dimension"] in (3, 4), "PAPER")
    cert.check("rank", 39, proven_rank(report), "PAPER")
    cert.check("kernel dimension", 4, report["kernel_dimension"], "PAPER")
    cert.outputs.update({k: report[k] for k in NU_OUTPUTS})
    if args.command == "kernel":
        cert.outputs["kernel"] = report["kernel"]


def cmd_hesse_dual(args, cert):
    lam = Fraction(args.lam)
    a = hesse.dual_coefficients(lam)
    from_pencil = hesse.dual_coefficients_from_discriminant(hesse.pencil)
    cert.check("closed-form coefficients", list(a),
               [c.evaluate({"lam": lam}) for c in from_pencil] if from_pencil
               else "the discriminant of f_lam on a line is not "
                    "-27 Y2^6 (S1 + a1 S2 + a2 S3 + a3 S4)", "PAPER")
    from_system = hesse.dual_sextic_from_cusp_system(lam)
    if from_system is None:
        cert.outputs["cusp_system"] = \
            f"singular: cusp system is singular at lam = {lam}"
    else:
        cert.check("cusp-system solution equals closed form", list(a),
                   list(from_system), "PAPER")
    p = args.oracle_prime
    skip = hesse.oracle_skip(lam, p)
    if skip:
        cert.outputs["oracle"] = skip
    else:
        report = hesse.finite_field_duality_oracle(lam, p)
        cert.check(f"duality oracle mod {p}", 0, report["counterexamples"],
                   "DERIVED")
        cert.check(f"Hasse bound mod {p}", True, report["hasse_ok"], "DERIVED")
        cert.outputs["oracle"] = report
    if skip == "skipped_singular_member":
        cert.outputs["dual_curve"] = ("none: f_1 is three lines, whose dual is "
                                      "three points, not a sextic")
    else:
        cert.outputs["sextic"] = hesse.dual_sextic(lam)


def cmd_enum_degree_dual(args, cert):
    expansion = enumerative.dual_degree_expansion()
    cert.check("coefficient of H^8", 384, expansion[8], "PAPER")
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
    cert.check("Barth quadric rank", 9, quadric_rank(barth_quadrics()),
               "DERIVED")


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
    residuals = verify_derivative_identity(coble_cubic(), barth_quadrics())
    cert.check("coble identities", True,
               all(p.is_zero() for p in residuals.values()), "PAPER")
    progress("nu rank certificate (annexe charts)")
    _, _, report = nu.nu_rank_and_kernel(progress=progress)
    cert.check("nu kernel iota-anti-invariant", True,
               report["kernel_iota_anti_invariant"], "PAPER")
    cert.check("nu kernel dimension in {3,4}", True,
               report["kernel_dimension"] in (3, 4), "PAPER")
    cert.check("nu rank", 39, proven_rank(report), "PAPER")
    cert.check("nu kernel dimension", 4, report["kernel_dimension"], "PAPER")
    cert.outputs["nu"] = {k: report[k] for k in NU_OUTPUTS}
    progress("hesse duality")
    cert.check("cusp system identities", True,
               all(r.is_zero() for r in hesse.cusp_system_residuals()),
               "PAPER")
    report = hesse.finite_field_duality_oracle(VERIFY_ALL_LAMBDA,
                                               args.oracle_prime)
    found, n, p = report["counterexamples"], report["points"], report["p"]
    if found:  # a point off the sextic outranks the count of points
        found = (f"dual sextic nonzero at {found} points (lam={report['lam']}, "
                 f"p={p}), first at {report['first_counterexample']}")
    elif not report["hasse_ok"]:
        found = (f"Hasse bound violated (lam={report['lam']}, p={p}): N = {n} "
                 f"points, (N - p - 1)^2 = {(n - p - 1) ** 2} > 4p = {4 * p}")
    cert.check("duality oracle", 0, found, "DERIVED")
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

def checked_int(*checks):
    """An argparse type: an int passing each (predicate, requirement) check
    in turn; the first that fails is a usage error (exit 2) saying that the
    value is not its requirement."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        for predicate, requirement in checks:
            if not predicate(value):
                raise argparse.ArgumentTypeError(f"{value} is not {requirement}")
        return value
    return parse


# Size bounds, checked before any work (`invariants dim --degree 21` takes
# 0.4 s and 71 MB, degree 18 0.12 s and 43 MB: each step of 3 about 3.5x
# the time and 1.7x the memory).
DEGREE_MAX, KMAX_MAX, H_MAX = 21, 1000, 40
POSITIVE = (lambda n: n >= 1, "a positive integer")
DEGREE = checked_int((lambda d: d <= DEGREE_MAX, f"at most {DEGREE_MAX}"),
                     (lambda d: d >= 0 and d % 3 == 0, "a multiple of 3 >= 0"))
KMAX = checked_int((lambda n: n <= KMAX_MAX, f"at most {KMAX_MAX}"), POSITIVE)
H = checked_int((lambda n: n <= H_MAX, f"at most {H_MAX}"), POSITIVE)
# From inputs of thousands of digits `prym genus` makes a genus too long to
# write (an int of over 4300 digits, `sys.get_int_max_str_digits`).
PRYM_MAX = 10 ** 6
PRYM = (lambda n: abs(n) <= PRYM_MAX, f"at most {PRYM_MAX} in absolute value")
COVER_DEGREE = checked_int(PRYM, (lambda n: n >= 2, "a cover degree >= 2"))
GENUS = checked_int(PRYM)
SET_SIZE = checked_int(PRYM, (lambda n: n >= 0, "a set size >= 0"))
# The oracle walks p - 1 values of u = x1 x2 with tables of p square roots
# and p cube roots, so its time and memory grow with p; the bound is checked
# before the trial division of `is_prime`, which is slow for large p.  At
# the largest admissible prime, `hesse dual --lambda 2 --oracle-prime
# 9999991` takes 13.7-14.6 s and peaks at 283 MB (2 vCPUs, Python 3.11.7);
# the walk over the p + 1 lines through a flex that it replaced took
# 23.0-25.0 s and 249 MB there.
ORACLE_PRIME_MAX = 10 ** 7
ORACLE_PRIME = checked_int(
    (lambda p: p <= ORACLE_PRIME_MAX, f"at most {ORACLE_PRIME_MAX}"),
    (lambda p: p % 3 == 1 and is_prime(p), "a prime congruent to 1 mod 3"))


# The dual sextic's a3 = -3 lam (lam^3 - 4) has about four times as many
# digits as lambda, and an int of over 4300 cannot be written out.  A decimal
# exponent above EXPONENT_MAX is refused before 10^e is built (`1e10000000`
# alone takes 10 s to build).
FRACTION_DIGITS_MAX, EXPONENT_MAX = 1000, 2000


def fraction_text(text):
    """An argparse type: a rational number whose numerator and denominator
    have at most FRACTION_DIGITS_MAX digits, kept as the text given."""
    try:
        exponent = int(text.lower().partition("e")[2] or 0)
        value = Fraction(text) if abs(exponent) <= EXPONENT_MAX else None
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a rational number") from None
    if value is None or max(abs(value.numerator),
                            value.denominator) >= 10 ** FRACTION_DIGITS_MAX:
        raise argparse.ArgumentTypeError(f"{text!r} has more than "
                                         f"{FRACTION_DIGITS_MAX} digits")
    return text


def join_fractions(argv, flags):
    """argv with each option of `flags` joined to the token that follows
    it, as flag=value: argparse alone reads a value such as -5/11 as an
    option, so `--lambda -5/11` would be a usage error.  The joined value
    is then checked as any other (`fraction_text`)."""
    out = []
    for token in argv:
        if out and out[-1] in flags:
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


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
# (flag, argparse keywords); every command also takes FORMAT.
FORMAT = ("--format", {"choices": ("json", "text"), "default": "json"})
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
        "verlinde": (cmd_enum_verlinde, [("--kmax", {"type": KMAX, "default": 8})]),
        "quadric-count": (cmd_enum_quadric_count, []),
        "zagier": (cmd_enum_zagier, [("--h", {"type": H, "default": 1})]),
    },
    "prym": {
        "check": (cmd_prym_check, []),
        "genus": (cmd_prym_genus, [
            ("--n", {"type": COVER_DEGREE, "required": True}),
            ("--g", {"type": GENUS, "required": True}),
            ("--t", {"type": SET_SIZE, "default": 0})]),
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


def look_up(table, argv):
    """(argv[0], argv[1:]) when argv[0] names an entry of table, else None.
    A "--" right after the name is a miss too: argparse would take it with
    the name, so only `split_off` gives what follows."""
    if argv and argv[0] in table and argv[1:2] != ["--"]:
        return argv[0], argv[1:]
    return None


def dest(flag, kwargs):
    """The attribute argparse gives the option (flag, kwargs)."""
    return kwargs.get("dest", flag[2:].replace("-", "_"))


def look_up_options(options, argv):
    """The values argparse would give `options` ((flag, keywords) pairs),
    by dest in their order, when argv is only `--flag value` or
    `--flag=value` of these flags, each value accepted by its type and
    choices and every required flag given; else None.  A value in a token
    of its own that starts with "-" is a miss: argparse may read it as an
    option (a joined `--lambda`, `join_fractions`, is no such token)."""
    keywords, given = dict(options), {}
    tokens = iter(argv)
    for token in tokens:
        flag, joined, text = token.partition("=")
        text = text if joined else next(tokens, "-")
        kwargs = keywords.get(flag)
        if kwargs is None or not joined and text.startswith("-"):
            return None
        try:
            value = kwargs.get("type", str)(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if value not in kwargs.get("choices", (value,)):
            return None
        given[flag] = value
    values = {}
    for flag, kwargs in options:
        if flag not in given and kwargs.get("required"):
            return None
        value = given.get(flag, kwargs.get("default"))
        if flag not in given and isinstance(value, str):
            value = kwargs.get("type", str)(value)
        values[dest(flag, kwargs)] = value
    return values


def parse(argv):
    """The namespace for argv.  A valid call is looked up in COMMANDS, the
    group and command by name and the options by `look_up_options`, so no
    parser is built.  Where a lookup misses (help, an unknown or missing
    name, an option or "--" in the way, a value that its option refuses),
    that level's parser runs, `split_off`'s for a name or the command's
    own for its options, and reports or skips what argparse would."""
    argv = list(sys.argv[1:] if argv is None else argv)
    group, rest = look_up(COMMANDS, argv) or split_off(
        "coble", "group", COMMANDS, argv, description="Exact verification "
        "of the invariant-form, restriction and enumerative computations.")
    entry, command, prog = COMMANDS[group], group, f"coble {group}"
    if isinstance(entry, dict):
        command, rest = look_up(entry, rest) or split_off(
            prog, "command", entry, rest)
        entry, prog = entry[command], f"{prog} {command}"
    func, options = entry
    options = [FORMAT, *options]
    rest = join_fractions(rest, {flag for flag, kwargs in options
                                 if kwargs.get("type") is fraction_text})
    values = look_up_options(options, rest)
    if values is not None:
        args = argparse.Namespace(group=group, command=command, **values,
                                  func=func)
        if combination_error(args) is None:
            return args
    parser = argparse.ArgumentParser(prog=prog)
    for flag, kwargs in options:
        parser.add_argument(flag, **kwargs)
    args = parser.parse_args(rest, argparse.Namespace(group=group,
                                                      command=command))
    args.func = func
    # Before Python 3.13 argparse takes "--" out of `--flag=--` and sets the
    # option to [], which no type or choices check sees.
    empty = [flag for flag, kwargs in options
             if getattr(args, dest(flag, kwargs)) == []]
    error = f"argument {empty[0]}: expected one argument" if empty else \
        combination_error(args)
    if error:
        parser.error(error)
    return args


def main(argv=None):
    args = parse(argv)
    label = args.group if args.group == args.command else \
        f"{args.group} {args.command}"
    inputs = {k: v for k, v in vars(args).items()
              if k not in ("func", "group", "command", "format")}
    cert = Certificate(label, inputs)
    try:
        args.func(args, cert)
        print(cert.render(args.format))
    except Exception as exc:  # internal error contract
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3
    return 0 if cert.passed() else 1


if __name__ == "__main__":
    sys.exit(main())
