"""Seeded workload plans: each plan is the list of `coble` argument lists
that one measured pass sends to `coble.cli.main`.

Every pass of a run repeats the same plan, so per-pass counts repeat
exactly.  The same seed always gives the same plan.  The reasons each
workload exists are in README.md next to this file.
"""

from __future__ import annotations

import random
from fractions import Fraction

HESSE_P_RANGE = (1000, 3100)
HESSE_ITEMS = 12
MIX_PRIMES = (13, 31, 97, 103)


def is_prime(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def oracle_primes(lo, hi):
    """Primes p = 1 (mod 3) in [lo, hi]: the fields the oracle accepts."""
    return [p for p in range(lo, hi + 1) if p % 3 == 1 and is_prime(p)]


def scanning_lambda(rng, p):
    """A lambda = a/b whose reduction mod p is a smooth pencil member, so the
    oracle really scans the F_p grid instead of skipping."""
    while True:
        lam = Fraction(rng.choice((-1, 1)) * rng.randint(1, 60),
                       rng.randint(1, 25))
        if lam.denominator % p == 0:
            continue
        lam_p = lam.numerator * pow(lam.denominator, -1, p) % p
        if pow(lam_p, 3, p) != 1:
            return lam


def hesse_item(lam, p):
    return ["hesse", "dual", f"--lambda={lam}", "--oracle-prime", str(p)]


def plan_verify_all(seed):
    return [["verify-all"]]


def plan_nu_all_lifts(seed):
    return [["nu", "kernel", "--mode", "all_lifts"]]


def plan_hesse_oracle(seed):
    """HESSE_ITEMS oracle certificates, one prime per equal-width stratum of
    HESSE_P_RANGE so that every seed asks for about the same amount of grid
    work.  The top stratum always uses the largest admissible prime, and the
    items run in ascending p, so the memory peak (the largest p x p grid on
    top of what the smaller grids left in the heap) is the same for every
    seed and every pass."""
    rng = random.Random(seed)
    lo, hi = HESSE_P_RANGE
    primes = oracle_primes(lo, hi)
    width = (hi - lo) / HESSE_ITEMS
    chosen = []
    for k in range(HESSE_ITEMS - 1):
        a, b = lo + k * width, lo + (k + 1) * width
        chosen.append(rng.choice([p for p in primes if a <= p < b]))
    chosen.append(primes[-1])
    return [hesse_item(scanning_lambda(rng, p), p) for p in chosen]


def plan_cli_mix(seed):
    """A fixed multiset of short commands (the costly kinds appear a fixed
    number of times) with seeded parameters and a seeded order."""
    rng = random.Random(seed)
    plan = [["coble", "check"]] * 2
    plan += [["invariants", "basis", "--degree", str(d)] for d in (3, 3, 6, 6)]
    plan += [["invariants", "dim", "--degree", str(d)] for d in (3, 6, 9, 12)]
    plan += [["nu", "charts", "--mode", m] for m in ("annexe", "annexe", "all_lifts")]
    plan += [["enum", "degree-dual"]] * 2 + [["enum", "quadric-count"]] * 2
    plan += [["enum", "verlinde", "--kmax", str(rng.randint(1, 12))] for _ in range(3)]
    plan += [["enum", "zagier", "--h", str(rng.randint(1, 3))] for _ in range(3)]
    plan += [["prym", "check"]] * 2
    for _ in range(4):
        n, g = rng.randint(2, 7), rng.randint(2, 6)
        plan.append(["prym", "genus", "--n", str(n), "--g", str(g)])
    for k in range(12):
        p = MIX_PRIMES[k % len(MIX_PRIMES)]
        plan.append(hesse_item(scanning_lambda(rng, p), p))
    plan = [list(argv) for argv in plan]
    rng.shuffle(plan)
    return plan


# name -> (plan function, whether the seed changes the plan, whether its
# times are calibrated for machine speed).  hesse-oracle spends its time in
# numpy, which the machine's slow phases barely touch: over five seeds its
# raw pass time spread 0.03 and its calibrated one 0.09, so calibrating
# would add noise and would favour moving work into Python.  See speed.py.
WORKLOADS = {
    "verify-all": (plan_verify_all, False, True),
    "nu-all-lifts": (plan_nu_all_lifts, False, True),
    "hesse-oracle": (plan_hesse_oracle, True, False),
    "cli-mix": (plan_cli_mix, True, True),
}
