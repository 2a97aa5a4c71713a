import argparse
import hashlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

from fractions import Fraction

from coble import cli, coble_forms, hesse, nu
from coble.cli import COMMANDS, jsonable, main
from coble.fields import Eisenstein
from coble.heisenberg import theta_ring
from coble.invariants import pinned_basis
from coble.poly import NotInSpan, Polynomial


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, _ = run(capsys, argv)
    return code, json.loads(out)


def test_invariants_dim(capsys):
    code, cert = run_json(capsys, ["invariants", "dim", "--degree", "3"])
    assert code == 0
    assert cert["command"] == "invariants dim"
    assert all(c["pass"] for c in cert["checks"])
    assert {"name", "expected", "provenance", "actual", "pass"} <= \
        set(cert["checks"][0])
    assert {"command", "inputs", "checks", "outputs", "timing_ms",
            "artifact_hash"} <= set(cert)


def test_coble_check_builds_the_quadrics_once(capsys, monkeypatch):
    builds = []
    build = coble_forms.barth_quadrics

    def counting():
        builds.append(1)
        return build()

    for module in (cli, coble_forms):
        monkeypatch.setattr(module, "barth_quadrics", counting)
    code, cert = run_json(capsys, ["coble", "check"])
    assert code == 0 and all(c["pass"] for c in cert["checks"])
    assert len(builds) == 1


def test_invariants_basis(capsys):
    code, cert = run_json(capsys, ["invariants", "basis"])
    assert code == 0
    assert len(cert["outputs"]["labels"]) == 43


def test_format_text(capsys):
    code, out, _ = run(capsys, ["enum", "zagier", "--format", "text"])
    assert code == 0
    assert out.startswith("command: enum zagier")
    assert "[PASS]" in out


def test_prym_check(capsys):
    code, cert = run_json(capsys, ["prym", "check"])
    assert code == 0 and all(c["pass"] for c in cert["checks"])


def test_prym_genus(capsys):
    code, cert = run_json(capsys, ["prym", "genus", "--n", "3", "--g", "2"])
    assert code == 0
    assert cert["outputs"]["genus"] == 1


def test_enum_commands(capsys):
    for argv in (["enum", "degree-dual"], ["enum", "quadric-count"],
                 ["enum", "verlinde", "--kmax", "4"]):
        code, cert = run_json(capsys, argv)
        assert code == 0, argv
        assert all(c["pass"] for c in cert["checks"]), argv


def test_hesse_dual_with_small_oracle(capsys):
    code, cert = run_json(capsys, ["hesse", "dual", "--lambda", "2",
                                   "--oracle-prime", "13"])
    assert code == 0
    assert cert["outputs"]["oracle"]["points"] == 18


def test_closed_form_is_checked_against_the_pencil(capsys, monkeypatch):
    # The check's actual value derives from `pencil` alone, so a wrong
    # pencil fails it; with the closed form on both sides it passed.
    pencil = hesse.pencil
    monkeypatch.setattr(hesse, "pencil",
                        lambda x0, x1, x2, lam: pencil(x0, x1, x2, lam + 1))
    code, out, err = run(capsys, ["hesse", "dual", "--lambda", "7/3"])
    assert code == 1 and "internal error" not in err
    failed = [c for c in json.loads(out)["checks"] if not c["pass"]]
    assert [c["name"] for c in failed] == ["closed-form coefficients"]
    assert failed[0]["expected"] == \
        [str(a) for a in hesse.dual_coefficients(Fraction(7, 3))]


def test_hesse_dual_singular_reduction_skips(capsys):
    code, cert = run_json(capsys, ["hesse", "dual", "--lambda", "3",
                                   "--oracle-prime", "13"])
    assert code == 0
    assert cert["outputs"]["oracle"] == "skipped_singular_reduction"
    # Only the reduction is singular: f_3 over Q keeps its dual sextic.
    assert "sextic" in cert["outputs"] and "dual_curve" not in cert["outputs"]


def test_hesse_dual_singular_member_skips(capsys):
    # f_1 is three lines over Q, not only mod p: a label of its own.
    for p in ("13", "997"):
        code, cert = run_json(capsys, ["hesse", "dual", "--lambda", "1",
                                       "--oracle-prime", p])
        assert code == 0
        assert cert["outputs"]["oracle"] == "skipped_singular_member"
        assert cert["outputs"]["cusp_system"].startswith("singular")
        # Three lines have no dual curve, so no sextic is written for them.
        assert "sextic" not in cert["outputs"]
        assert cert["outputs"]["dual_curve"].startswith("none: f_1 is three lines")


# The failed check's actual value: `hesse dual` gives the oracle's count,
# verify-all the count and the first point, ahead of the Hasse bound.
COUNTEREXAMPLE_ACTUAL = {
    "duality oracle mod 997": 1,
    "duality oracle": "dual sextic nonzero at 1 points (lam=2, p=997), "
                      "first at (1, 5, 7)",
}


@pytest.mark.parametrize("argv, name", [
    (["hesse", "dual"], "duality oracle mod 997"),
    (["verify-all"], "duality oracle"),
])
def test_duality_counterexample_is_a_failed_check(capsys, monkeypatch, argv,
                                                  name):
    # (1 : 5 : 7) is no point of f_2 mod 997 and its gradient misses the
    # dual sextic: the oracle counts it as one point and walks on.
    points = hesse.curve_points

    def one_more(lam_p, p):
        yield from points(lam_p, p)
        yield 1, 5, 7, 1

    monkeypatch.setattr(hesse, "curve_points", one_more)
    code, out, err = run(capsys, argv)
    assert code == 1 and "internal error" not in err
    cert = json.loads(out)
    failed = [c for c in cert["checks"] if not c["pass"]]
    assert [(c["name"], c["expected"], c["actual"]) for c in failed] == \
        [(name, 0, COUNTEREXAMPLE_ACTUAL[name])]
    if argv == ["hesse", "dual"]:
        # The report is kept: the Hasse check is made on its point count.
        report = cert["outputs"]["oracle"]
        assert "Hasse bound mod 997" in {c["name"] for c in cert["checks"]}
        assert (report["counterexamples"], report["first_counterexample"]) \
            == (1, [1, 5, 7])
        assert report["points"] == report["checked"] == 1 + \
            sum(n for *_, n in points(2, 997))


def no_points(monkeypatch):
    # 0 points mod 997 is far outside the Hasse bound (0 - 998)^2 <= 4 * 997
    monkeypatch.setattr(hesse, "curve_points", lambda lam_p, p: iter(()))


def test_hasse_violation_fails_the_hasse_check(capsys, monkeypatch):
    no_points(monkeypatch)
    code, out, err = run(capsys, ["hesse", "dual"])
    assert code == 1 and "internal error" not in err
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["duality oracle mod 997"]["pass"]
    assert checks["duality oracle mod 997"]["actual"] == 0
    hasse = checks["Hasse bound mod 997"]
    assert (hasse["expected"], hasse["actual"], hasse["pass"]) == \
        (True, False, False)
    assert json.loads(out)["outputs"]["oracle"]["points"] == 0


def test_hasse_violation_fails_the_verify_all_oracle(capsys, monkeypatch):
    no_points(monkeypatch)
    code, out, err = run(capsys, ["verify-all"])
    assert code == 1 and "internal error" not in err
    failed = [c for c in json.loads(out)["checks"] if not c["pass"]]
    assert [c["name"] for c in failed] == ["duality oracle"]
    assert failed[0]["actual"] == (
        "Hasse bound violated (lam=2, p=997): N = 0 points, "
        "(N - p - 1)^2 = 996004 > 4p = 3988")


def test_nu_charts(capsys):
    code, cert = run_json(capsys, ["nu", "charts"])
    assert code == 0
    assert len(cert["outputs"]["charts"]) == 40


def test_nu_rank(capsys):
    code, cert = run_json(capsys, ["nu", "rank"])
    assert code == 0
    assert cert["outputs"]["rank"] == 39
    assert cert["outputs"]["kernel_dimension"] == 4
    assert cert["outputs"]["verdict"].startswith("text: rank 39")
    assert cert["outputs"]["rank_certificate"]["route"] == "modular+kernel"
    assert "kernel" not in cert["outputs"]


def test_unproven_nu_rank_fails_its_checks(capsys, monkeypatch):
    # With the column T8 := T7 + T10 the rank stays 39, but T8 - T7 is no
    # kernel vector, so only three of iota's four pairs verify and the
    # bounds do not meet (39 + 3 < 43): the certificate claims the lower
    # bound only, with no kernel, and fails; with no kernel claimed, there
    # is none to be anti-invariant.
    nu_matrix = nu._nu_matrix
    labels = pinned_basis(theta_ring(), 6)[0]
    j7, j8, j10 = (labels.index(t) for t in ("T7", "T8", "T10"))

    def dependent(charts, packing, progress):
        return [row[:j8] + [(row[j7][0] + row[j10][0],
                             row[j7][1] + row[j10][1])] + row[j8 + 1:]
                for row in nu_matrix(charts, packing, progress)]

    monkeypatch.setattr(nu, "_nu_matrix", dependent)
    code, out, err = run(capsys, ["nu", "rank"])
    assert code == 1 and "internal error" not in err
    cert = json.loads(out)
    assert [c["name"] for c in cert["checks"] if not c["pass"]] == \
        ["rank-nullity", "kernel iota-anti-invariant",
         "kernel dimension in {3,4}", "rank", "kernel dimension"]
    # The rank mod p is only a lower bound, so the rank check claims no 39.
    assert [c["actual"] for c in cert["checks"] if c["name"] == "rank"] == \
        ["unproven: at least 39"]
    outputs = cert["outputs"]
    assert outputs["rank_certificate"]["route"] == "unproven"
    assert outputs["rank_certificate"]["kernel_vectors_verified"] == 3
    assert (outputs["rank"], outputs["kernel_dimension"]) == (39, 0)
    assert outputs["verdict"] == "neither printed kernel"
    code, out, err = run(capsys, ["verify-all"])
    assert code == 1 and "internal error" not in err
    assert [c["name"] for c in json.loads(out)["checks"] if not c["pass"]] \
        == ["nu kernel iota-anti-invariant", "nu kernel dimension in {3,4}",
            "nu rank", "nu kernel dimension"]


def test_printed_pairs_only_name_the_kernel(capsys, monkeypatch):
    # The proof takes its kernel candidates from iota, not from the text: a
    # wrong printed pair leaves the certificate proven and changes only the
    # verdict.
    argv = ["nu", "kernel", "--mode", "annexe"]
    text = run_json(capsys, argv)[1]["outputs"]
    monkeypatch.setattr(nu, "TEXT_KERNEL_PAIRS",
                        [("T9", "T7")] + nu.ANNEXE_KERNEL_PAIRS)
    code, cert = run_json(capsys, argv)
    assert code == 0 and all(c["pass"] for c in cert["checks"])
    outputs = cert["outputs"]
    assert outputs["rank_certificate"]["route"] == "modular+kernel"
    assert outputs["rank_certificate"]["kernel_vectors_verified"] == 4
    assert outputs["rank"] == 39
    assert outputs["verdict"] == "neither printed kernel"
    assert {**outputs, "verdict": text["verdict"]} == text


def test_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["nu", "rank", "--mode", "bogus"])
    assert exc.value.code == 2


# The message of a usage error, where a test asks for it.
USAGE_MESSAGES = {
    "invariants dim --degree x": "'x' is not an integer",
    "hesse dual --oracle-prime 1": "1 is not a prime congruent to 1 mod 3",
}


@pytest.mark.parametrize("argv", [
    ["invariants", "dim", "--degree", "4"],
    ["invariants", "dim", "--degree", "-3"],
    ["hesse", "dual", "--lambda", "abc"],
    # the token after --lambda is its value, even an option's name
    ["hesse", "dual", "--lambda", "--format", "json"],
    ["hesse", "dual", "--lambda", "-x"],
    ["hesse", "dual", "--oracle-prime", "11"],
    ["prym", "genus", "--n", "0", "--g", "2"],
    ["enum", "zagier", "--h", "0"],
    ["enum", "verlinde", "--kmax", "-1"],
    # each argument valid alone, not together
    ["hesse", "dual", "--lambda", "1/13", "--oracle-prime", "13"],
    ["prym", "genus", "--n", "4", "--g", "2", "--t", "1"],
    ["verify-all", "--oracle-prime", "7"],
    # |T| is a set size: a negative one gave a genus before
    ["prym", "genus", "--n", "2", "--g", "2", "--t", "-2"],
    # a genus of over 4300 digits cannot be written out
    ["prym", "genus", "--n", "9" * 3000, "--g", "9" * 3000],
    ["invariants", "dim", "--degree", "x"],
    # 1 = 1 mod 3 passes to the primality test, which refuses it
    ["hesse", "dual", "--oracle-prime", "1"],
])
def test_bad_argument_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error: argument" in captured.err
    assert USAGE_MESSAGES.get(" ".join(argv), "") in captured.err


@pytest.mark.parametrize("argv, module, route, name", [
    (["coble", "check"], cli, "eta_plane_coordinates",
     "restriction to the fixed plane of (1,00,10)"),
    (["hesse", "dual"], hesse, "dual_coefficients_from_discriminant",
     "closed-form coefficients"),
])
def test_restriction_off_the_span_is_a_failed_check(capsys, monkeypatch,
                                                    argv, module, route, name):
    # The plane read-off raises NotInSpan, which `coble check` catches; the
    # discriminant route returns None, which `hesse dual` writes out.
    def off_span(*args):
        raise NotInSpan("injected: off the span")

    actual = "injected: off the span"
    if module is hesse:
        off_span, actual = (lambda cubic: None), (
            "the discriminant of f_lam on a line is not "
            "-27 Y2^6 (S1 + a1 S2 + a2 S3 + a3 S4)")
    monkeypatch.setattr(module, route, off_span)
    code, out, err = run(capsys, argv)
    assert code == 1 and "internal error" not in err
    failed = [c for c in json.loads(out)["checks"] if not c["pass"]]
    assert [(c["name"], c["actual"]) for c in failed] == [(name, actual)]


def run_python(script, *args, **kwargs):
    """`python -c script *args` with `coble` importable from this checkout."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), COLUMNS="80")
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, **kwargs)


BOUNDED_MAIN = """\
import json, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from coble.cli import main
start = time.monotonic()
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, time.monotonic() - start]))
"""


@pytest.mark.parametrize("argv", [
    ["hesse", "dual", "--oracle-prime", str(2 ** 61 - 1)],
    ["verify-all", "--oracle-prime", "100000081"],
])
def test_oracle_prime_above_the_bound_is_a_usage_error(argv):
    # Both are primes = 1 mod 3: 2^61 - 1 used to stall in trial division,
    # 100000081 to exhaust memory in the oracle's table of square roots.
    done = run_python(BOUNDED_MAIN, *argv, timeout=10)
    code, seconds = json.loads(done.stdout)
    assert code == 2 and seconds < 1
    assert f"{argv[-1]} is not at most {cli.ORACLE_PRIME_MAX}" in done.stderr


@pytest.mark.parametrize("argv, bound", [
    (["invariants", "dim", "--degree"], cli.DEGREE_MAX),
    (["enum", "verlinde", "--kmax"], cli.KMAX_MAX),
    (["enum", "zagier", "--h"], cli.H_MAX),
    (["prym", "genus", "--g", "2", "--n"], cli.PRYM_MAX),
    (["prym", "genus", "--n", "3", "--g"], cli.PRYM_MAX),
    (["prym", "genus", "--n", "3", "--g", "2", "--t"], cli.PRYM_MAX),
], ids=lambda x: " ".join(x) if isinstance(x, list) else str(x))
def test_size_argument_is_bounded(capsys, argv, bound):
    # The bound itself parses; one more is a usage error, found before any
    # work is done.
    assert vars(cli.parse(argv + [str(bound)]))[argv[-1][2:]] == bound
    for value in (bound + 1, bound + 3):
        with pytest.raises(SystemExit) as exc:
            main(argv + [str(value)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{value} is not at most {bound}" in captured.err


def test_lambda_size_is_bounded(capsys):
    # Each part of --lambda may have FRACTION_DIGITS_MAX digits: a3 then has
    # about four times as many, short of the 4300 an int can be written in.
    n = cli.FRACTION_DIGITS_MAX
    for lam in ("9" * n, "-1/" + "9" * n, f"1e{n - 1}", f"7e-{n - 1}"):
        assert cli.parse(["hesse", "dual", f"--lambda={lam}"]).lam == lam
    code, out, err = run(capsys, ["hesse", "dual", "--lambda", "9" * n,
                                  "--oracle-prime", "13"])
    assert code == 0 and "internal error" not in err
    # Over the bound is a usage error; so is an exponent above EXPONENT_MAX,
    # refused before 10^e is built.
    for lam in ("1" + "0" * n, "1/" + "1" * (n + 1), f"1e{n}", f"-1e-{n}",
                "1e1080", f"1e{cli.EXPONENT_MAX + 1}", "1e999999999"):
        with pytest.raises(SystemExit) as exc:
            main(["hesse", "dual", f"--lambda={lam}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "argument --lambda" in captured.err
    # A negative value in its own token gets the same message as joined.
    for argv in (["--lambda=-1e1000"], ["--lambda", "-1e1000"]):
        with pytest.raises(SystemExit) as exc:
            main(["hesse", "dual", *argv])
        assert exc.value.code == 2
        assert f"has more than {n} digits" in capsys.readouterr().err


def test_internal_error(capsys, monkeypatch):
    def boom(d):
        raise RuntimeError("injected")

    monkeypatch.setattr("coble.invariants.invariant_dimension", boom)
    code, out, err = run(capsys, ["invariants", "dim", "--degree", "3"])
    assert code == 3
    assert out == ""
    assert "internal error" in err and "injected" in err


def test_render_failure_is_an_internal_error(capsys, monkeypatch):
    def boom(self, fmt):
        raise ValueError("injected")

    monkeypatch.setattr(cli.Certificate, "render", boom)
    code, out, err = run(capsys, ["prym", "check"])
    assert code == 3
    assert out == ""
    assert "internal error" in err and "injected" in err


def test_value_of_no_json_type_is_an_internal_error(capsys, monkeypatch):
    # jsonable writes no value as its str: a type it does not list fails.
    monkeypatch.setattr("coble.enumerative.quadric_dimension_count", object)
    code, out, err = run(capsys, ["enum", "quadric-count"])
    assert code == 3 and out == ""
    assert "internal error" in err and "no certificate JSON for object" in err


def test_artifact_hash_deterministic(capsys):
    _, cert1 = run_json(capsys, ["prym", "check"])
    _, cert2 = run_json(capsys, ["prym", "check"])
    assert cert1["artifact_hash"] == cert2["artifact_hash"]


# Certificates pinned by their artifact_hash: a deliberate change to one of
# these certificates must update its hash here.
PINNED_HASHES = [
    (["verify-all"],
     "b9ab4128b1f809df2612acf9deb162d77761ab228ea19a8c243fa91912aa608a"),
    (["hesse", "dual"],
     "408da8dade095bc07483d7ca5a9246aff252e9e0c79d8f2c2561f82fdea64cf3"),
    (["hesse", "dual", "--lambda", "7/3", "--oracle-prime", "97"],
     "e18f833b7669459e288480b0c201dfe22cc7217e3ffd3fed16ef8bfd134c3cd7"),
    (["hesse", "dual", "--lambda=-5/11", "--oracle-prime", "31"],
     "82dc9e33a9425b5bf5814fa2d4a9f02ebbe991260d447976780a261e04c60e08"),
    (["coble", "check"],
     "b21979b3825257f5796b290392f5b487ae797a423062e2cae197fbcc68eb54a3"),
    (["nu", "kernel", "--mode", "all_lifts"],
     "858e4ed5c61409b523f67982a68e03613e4f57f288dbd77fcdcd19634ca94404"),
    (["invariants", "basis", "--degree", "6"],
     "16e518904e94d6057f7973e7b7ae3f021cc444e97a6588b9772356ebf6117ea7"),
    (["nu", "charts", "--mode", "annexe"],
     "9e5a66441e5559be31b882d5eef8a30e8cd88b5d161767fe5dfe9eb334a2cb2c"),
    (["nu", "charts", "--mode", "all_lifts"],
     "1c2cb6d760cbbb6594d97ca9367e73b8a3c178ff2bc0bda79e637611b13a4a74"),
    (["invariants", "basis", "--degree", "3"],
     "6de9a58aa54a7f5c1d7231161f0d1f5ba7efde895c893c206e730e42596400b4"),
    (["nu", "kernel", "--mode", "annexe"],
     "7e342eb5cbe1ce575722743734607925d03deac7e3e264b67c995aae429cdffa"),
    (["nu", "rank", "--mode", "annexe"],
     "4951ade6879c9010cb03da6ae892796e68f8403ea82cba5713ea172d19b75b73"),
    (["nu", "rank", "--mode", "all_lifts"],
     "4b9c315462f019dd41b53a72983414e98dbc036dbc72d1d247f6b7779092417e"),
]


@pytest.mark.parametrize("argv, digest", PINNED_HASHES,
                         ids=[" ".join(argv) for argv, _ in PINNED_HASHES])
def test_certificate_hash_is_pinned(capsys, argv, digest):
    code, cert = run_json(capsys, argv)
    assert code == 0
    assert cert["artifact_hash"] == digest


def test_negative_fraction_after_lambda_is_its_value(capsys):
    # argparse alone reads the -5/11 of `--lambda -5/11` as an option.
    joined = ["hesse", "dual", "--lambda=-5/11", "--oracle-prime", "31"]
    code, cert = run_json(capsys, ["hesse", "dual", "--lambda", "-5/11",
                                   "--oracle-prime", "31"])
    assert code == 0
    assert [cert["artifact_hash"]] == [digest for argv, digest in PINNED_HASHES
                                       if argv == joined]


HASH_VERIFY_ALL = """\
import contextlib, io, json, sys
if sys.argv[1] == "fallback":
    sys.modules["_sha256"] = sys.modules["_sha2"] = None
from coble import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["verify-all"])
loaded = [m for m in ("hashlib", "_hashlib") if m in sys.modules]
import importlib.util
print(json.dumps({"code": code, "cert": json.loads(out.getvalue()),
                  "loaded": loaded,
                  "builtin": any(importlib.util.find_spec(name) is not None
                                 for name in ("_sha256", "_sha2"))}))
"""


def hash_verify_all(path):
    return json.loads(run_python(HASH_VERIFY_ALL, path, check=True).stdout)


def test_builtin_and_hashlib_sha256_give_the_same_artifact_hash():
    plain, fallback = hash_verify_all("plain"), hash_verify_all("fallback")
    assert plain["code"] == fallback["code"] == 0
    body = {k: v for k, v in plain["cert"].items()
            if k not in ("timing_ms", "artifact_hash")}
    digest = hashlib.sha256(json.dumps(body, sort_keys=True).encode())
    assert plain["cert"]["artifact_hash"] == \
        fallback["cert"]["artifact_hash"] == digest.hexdigest()
    # With the builtin module a certificate process never loads OpenSSL.
    if plain["builtin"]:
        assert plain["loaded"] == []
    assert not fallback["builtin"] and "_hashlib" in fallback["loaded"]


def perfbench_module(name):
    """perfbench/<name>.py, loaded by path; the benchmark is only read."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cli_mix_commands():
    """Every distinct argument list of the benchmark's cli-mix plans for
    seeds 1 to 3 (perfbench/workloads.py)."""
    workloads = perfbench_module("workloads")
    return sorted({tuple(argv) for seed in (1, 2, 3)
                   for argv in workloads.plan_cli_mix(seed)})


def workload_argvs():
    """Every argument list of the benchmark's workload plans, seeds 1 to 3."""
    workloads = perfbench_module("workloads")
    return sorted({tuple(argv) for plan, _, _ in workloads.WORKLOADS.values()
                   for seed in (1, 2, 3) for argv in plan(seed)})


def test_workload_certificates_pass_the_benchmark_gate(capsys):
    # The benchmark counts a certificate as a failed operation unless its
    # content gate (perfbench/checks.py) passes it, and refuses a run whose
    # gate lets a tampered copy through; tier-1 runs the same gate on every
    # certificate of every plan, seeds 1 to 3.
    checks = perfbench_module("checks")
    samples = {}
    for argv in map(list, workload_argvs()):
        code, out, _ = run(capsys, argv)
        assert checks.certificate_problems(argv, code, out) == [], argv
        samples.setdefault(checks.label(argv), (argv, out))
    assert len(samples) == 13
    assert checks.tamper_test(samples) == []


# The verify-all and nu certificates, every certificate of the benchmark's
# cli-mix, and `hesse dual` at lam = 0 and 1, where the cusp system is
# singular.
NO_ELIMINATION = [("verify-all",)] + [
    ("nu", command, "--mode", mode) for command in ("rank", "kernel")
    for mode in ("annexe", "all_lifts")] + cli_mix_commands() + [
    ("hesse", "dual", "--lambda", lam) for lam in ("0", "1")]


@pytest.mark.parametrize("argv", NO_ELIMINATION, ids=" ".join)
def test_certificates_build_no_exact_matrix(capsys, argv):
    # No certificate divides in Q(w), so none eliminates over it: nu's rows
    # stay Z[w] pairs up to the modular rank certificate, and the cusp
    # system is solved by Cramer's rule over Q.  The type says so: an
    # element of Z[w] has int parts and no division.
    for name in ("inverse", "__truediv__", "__rtruediv__"):
        assert not hasattr(Eisenstein, name), name
    with pytest.raises(TypeError):
        Eisenstein(Fraction(1, 2))
    code, out, err = run(capsys, list(argv))
    assert code == 0 and "internal error" not in err, err
    assert all(c["pass"] for c in json.loads(out)["checks"])


def test_cli_mix_commands_substitute_nothing(capsys):
    # Restriction to a fixed plane is the packed read-off, for the Coble
    # cubic as for nu's sextics: polynomial substitution is no part of the
    # package, only of the tests' reference (`nu_oracle.substitute`).
    assert not hasattr(Polynomial, "substitute")
    commands = cli_mix_commands()
    assert ("coble", "check") in commands
    for argv in commands:
        code, _, err = run(capsys, list(argv))
        assert code == 0 and "internal error" not in err, (argv, err)


def test_jsonable_sorts_sets():
    assert jsonable({3, 1, 2}) == [1, 2, 3]
    assert jsonable({Fraction(1, 2), Fraction(-3)}) == [-3, "1/2"]
    assert jsonable({"b": {(1, 0), (0, 2)}, "a": (Eisenstein(1, 2),)}) == \
        {"b": [[0, 2], [1, 0]], "a": [{"re": "1", "om": "2"}]}


# Every (group, command) of the table, with the arguments it requires.
REQUIRED = {("prym", "genus"): ["--n", "3", "--g", "2"]}
TABLE = [[group, command] for group, entry in COMMANDS.items()
         if isinstance(entry, dict) for command in entry]
TABLE += [[group] for group, entry in COMMANDS.items()
          if not isinstance(entry, dict)]


@pytest.fixture
def parsers_built(monkeypatch):
    """A list that gains one entry per ArgumentParser built."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return built


@pytest.mark.parametrize("path", TABLE, ids=" ".join)
def test_every_command_builds_only_its_path(capsys, parsers_built, path):
    argv = path + REQUIRED.get(tuple(path), [])
    for _ in range(2):  # nothing is kept from one call to the next
        parsers_built.clear()
        code, out, _ = run(capsys, argv)
        assert code in (0, 1), argv
        assert json.loads(out)["command"] == " ".join(path)
        assert parsers_built == []  # every level is a lookup


def outcome(capsys, argv):
    """vars(parse(argv)), or the exit code and output of a parse that exits."""
    try:
        return vars(cli.parse(argv))
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err


@pytest.mark.parametrize("path", TABLE, ids=" ".join)
def test_lookup_equals_the_split_off_route(capsys, monkeypatch, path):
    argvs = [path + REQUIRED.get(tuple(path), []) + tail
             for tail in ([], ["--format", "text"], ["--help"], ["--"],
                          ["--", "--format", "text"], ["extra"])]
    argvs += [path[:k] + ["--"] + path[k:] for k in range(len(path) + 1)]
    found = [outcome(capsys, argv) for argv in argvs]
    # The reference: every lookup misses, so each level's split_off runs.
    monkeypatch.setattr(cli, "look_up", lambda table, argv: None)
    assert found == [outcome(capsys, argv) for argv in argvs]


# The argparse keywords that `cli.look_up_options` reproduces.
LOOKUP_KEYWORDS = {"type", "default", "choices", "required", "dest"}


def command_options(path):
    """The options of the command at path, FORMAT first, as parse takes them."""
    entry = COMMANDS[path[0]]
    return [cli.FORMAT, *(entry[path[1]] if isinstance(entry, dict)
                          else entry)[1]]


@pytest.mark.parametrize("path", TABLE, ids=" ".join)
def test_options_use_only_the_keywords_the_lookup_reproduces(path):
    # An option with, say, `nargs` or `action` would parse one way through
    # the lookup and another through argparse.
    for flag, kwargs in command_options(path):
        assert flag.startswith("--") and set(kwargs) <= LOOKUP_KEYWORDS, flag


# A valid value of each option other than its default.
VALID = {"--format": "text", "--degree": "3", "--mode": "all_lifts",
         "--lambda": "-5/11", "--oracle-prime": "31", "--kmax": "4",
         "--h": "2", "--n": "5", "--g": "3", "--t": "1"}


def option_argvs(path):
    """Each option of the command at path given well and badly, alone and
    after the required ones, then help, "--" and an extra token after a
    valid call.  "-0_0" is the int 0, which argparse reads as an option."""
    base = path + REQUIRED.get(tuple(path), [])
    argvs = [base + tail for tail in ([], ["--help"], ["-h"], ["--"],
                                      ["--", "--format", "text"], ["extra"],
                                      ["--format", "text", "extra"])]
    for flag, _ in command_options(path):
        v = VALID[flag]
        argvs += [path + [flag, v]] + [base + tail for tail in (
            [flag, v], [f"{flag}={v}"], [flag[:-1], v], [f"{flag[:-1]}={v}"],
            [flag, v, flag, v], [flag, "x", flag, v], [flag, v, flag, "x"],
            [flag], [f"{flag}="], [flag, "x"], [f"{flag}=x"], [flag, "-1"],
            [f"{flag}=-1"], [flag, "-0_0"], [f"{flag}=-0_0"], [flag, "-x"],
            [flag, "--"], [f"{flag}=--"], [flag, v, "--"])]
    return argvs


@pytest.mark.parametrize("argvs", [[list(argv) for argv in workload_argvs()]]
                         + [option_argvs(path) for path in TABLE],
                         ids=["workloads"] + [" ".join(p) for p in TABLE])
def test_option_lookup_equals_the_parser_route(capsys, monkeypatch, argvs):
    found = [outcome(capsys, argv) for argv in argvs]
    # The reference: the option lookup misses, so the command's parser runs.
    monkeypatch.setattr(cli, "look_up_options", lambda options, argv: None)
    assert found == [outcome(capsys, argv) for argv in argvs]


@pytest.mark.parametrize("argv", [["--", "nu", "charts"],
                                  ["nu", "--", "charts"]])
def test_double_dash_before_a_name_falls_back(capsys, parsers_built, argv):
    code, cert = run_json(capsys, argv)
    assert code == 0 and cert["command"] == "nu charts"
    assert len(cert["outputs"]["charts"]) == 40
    # Only the level that missed builds its parser: the rest are lookups.
    assert parsers_built == ["coble"]


COUNT_PARSERS = """\
import argparse, contextlib, io, json, sys
built = []
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
import coble.cli
"""
COUNT_PARSERS_AT_IMPORT = COUNT_PARSERS + "print(len(built))\n"
# The parsers one call builds, whether it loads `locale` (gettext does, for
# a parser's titles), and its exit code and output.
COUNT_PARSERS_IN_MAIN = COUNT_PARSERS + """\
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    try:
        code = coble.cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(json.dumps([built, "locale" in sys.modules, code, out.getvalue(),
                  err.getvalue()]))
"""


def test_no_parser_is_built_at_import():
    out = run_python(COUNT_PARSERS_AT_IMPORT, check=True).stdout
    assert out.strip() == "0"


@pytest.mark.parametrize("argv", [
    ["verify-all"],
    ["hesse", "dual", "--lambda", "-5/11", "--oracle-prime", "31"],
    ["prym", "genus", "--n", "3", "--g", "2", "--format", "text"],
], ids=" ".join)
def test_a_valid_call_builds_no_parser_and_loads_no_locale(argv):
    built, has_locale, code, _, _ = json.loads(
        run_python(COUNT_PARSERS_IN_MAIN, *argv, check=True).stdout)
    assert (built, has_locale, code) == ([], False, 0)


@pytest.mark.parametrize("argv, shown", [
    (["nu", "charts", "--help"], "usage: coble nu charts [-h]"),
    (["invariants", "dim", "--degree", "x"], "'x' is not an integer"),
], ids=lambda x: " ".join(x) if isinstance(x, list) else "")
def test_a_missed_option_lookup_runs_the_commands_parser(
        capsys, monkeypatch, argv, shown):
    built, _, *found = json.loads(
        run_python(COUNT_PARSERS_IN_MAIN, *argv, check=True).stdout)
    assert built == ["coble " + " ".join(argv[:2])]
    assert shown in found[1] + found[2]
    # The same exit and output as with no option lookup at all.
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(cli, "look_up_options", lambda options, argv: None)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert found == [exc.value.code, *capsys.readouterr()]


@pytest.mark.parametrize("argv, listed", [
    (["--help"], ["usage: coble ", *COMMANDS]),
    (["nu", "--help"], ["usage: coble nu ", "charts", "rank", "kernel"]),
    (["nu", "charts", "--help"], ["usage: coble nu charts ", "--format",
                                  "--mode", "annexe", "all_lifts"]),
])
def test_help_lists_the_next_step(capsys, argv, listed):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for word in listed:
        assert word in out, word


@pytest.mark.parametrize("argv, message", [
    (["bogus"], "invalid choice: 'bogus'"),
    (["nu", "bogus"], "invalid choice: 'bogus'"),
    (["nu"], "required: command"),
    ([], "required: group"),
    # Before Python 3.13 argparse reads `--flag=--` as [] and checks nothing.
    (["verify-all", "--oracle-prime=--"], "argument --oracle-prime: "),
    (["hesse", "dual", "--lambda", "--"], "argument --lambda: "),
    (["nu", "charts", "--mode=--"], "argument --mode: "),
])
def test_bad_path_is_a_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err
