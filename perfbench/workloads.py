"""Seeded request lists for the three benchmark workloads.

A workload is a list of *rounds*. A round holds one CLI request per
(command, field, length, degree) stratum of the workload; the timed closed
loop runs the rounds in order. The concrete inputs of round r (the codes,
shift constants, suite seeds and trial counts) are drawn from (workload,
seed, r), so no two rounds repeat a request and a per-input cache in the
program cannot serve a later round. Every request carries its full argv
(with --budget, --seed and --trials pinned) and the facts its correctness
check needs.

The strata span the ranges each workload is meant to cover, one request
each. Their proportions are a choice, not a measurement of real traffic:
no trace of how skewcodes is used exists to take them from.

Generation calls the library (to find right divisors and to certify
distance properties); that time goes into no metric.
"""

from __future__ import annotations

import functools
import json
import random
from math import comb

BUDGET = 20_000_000  # the CLI's default, passed explicitly
DEFAULT_TRIALS = 1000

# (p, m, modulus, t). F81t2 has a non-trivial twist (1 < t < m).
FIELDS = {
    "F3": (3, 1, [0, 1], 1),
    "F5": (5, 1, [0, 1], 1),
    "F9": (3, 2, [1, 0, 1], 1),
    "F25": (5, 2, [1, 1, 1], 1),
    "F27": (3, 3, [1, 2, 0, 1], 1),
    "F49": (7, 2, [3, 6, 1], 1),
    "F81t2": (3, 4, [2, 0, 0, 1, 1], 2),
    "F125": (5, 3, [3, 3, 0, 1], 1),
    "F243": (3, 5, [1, 2, 0, 0, 0, 1], 1),
}

# The fields that the bundled examples and verification suites build.
EXAMPLE_FIELDS = ("F9", "F25", "F49")
SUITE_FIELDS = ("F9", "F25", "F27", "F49")

# CRT views of the sixteen shift constants that can give self-dual codes.
PLUS_MINUS_ONE = [(a, b, c, d) for a in (1, -1) for b in (1, -1) for c in (1, -1) for d in (1, -1)]


def field_json(name):
    p, m, modulus, t = FIELDS[name]
    return {"p": p, "m": m, "modulus": list(modulus), "t": t}


@functools.lru_cache(maxsize=None)
def _field(name):
    from skewcodes.gf import make_field

    p, m, modulus, t = FIELDS[name]
    return make_field(p, m, modulus, t)


def cli_argv(command, payload=None, seed=0, trials=DEFAULT_TRIALS, extra=()):
    argv = [command, *extra]
    if payload is not None:
        argv += ["--input", json.dumps(payload, sort_keys=True, separators=(",", ":"))]
    return argv + ["--budget", str(BUDGET), "--seed", str(seed), "--trials", str(trials)]


def _request(kind, argv, **expect):
    return {"kind": kind, "argv": argv, "expect": expect}


# --- right divisors by peeling linear factors ---

_ROOTS = {}  # (field, cofactor codes) -> linear right roots; generation only


def _linear_right_roots(cofactor, field):
    """Codes a with (x - a) a right factor of `cofactor`.

    The remainder of f on right division by x - a is sum_i f_i N_i(a) with
    N_i(a) = theta^(i-1)(a) ... theta(a) a, so each candidate costs O(deg f)
    field operations instead of one full division.
    """
    coeffs = cofactor.coeffs
    key = (field, tuple(c.to_int() for c in coeffs))
    if key in _ROOTS:
        return _ROOTS[key]
    roots = []
    for code in range(field.q):
        a = field.from_int(code)
        acc, norm = coeffs[0], field.one
        for i in range(1, len(coeffs)):
            norm = a.frob(i - 1) * norm
            acc = acc + coeffs[i] * norm
        if acc.is_zero:
            roots.append(code)
    _ROOTS[key] = roots
    return roots


def right_divisor(field, n, beta, degree, rng):
    """Monic right divisor of x^n - beta of degree <= `degree` (fewer when the
    cofactor runs out of linear right factors)."""
    from skewcodes.skewpoly import SkewPoly, right_divmod

    one = field.one
    cofactor = SkewPoly(field, "fq", [-field.from_int(beta)] + [field.zero] * (n - 1) + [one])
    divisor = SkewPoly(field, "fq", [one])
    for _ in range(degree):
        roots = _linear_right_roots(cofactor, field)
        if not roots:
            break
        factor = SkewPoly(field, "fq", [-field.from_int(rng.choice(roots)), one])
        cofactor, rem = right_divmod(cofactor, factor)
        if not rem.is_zero:
            raise AssertionError("peeled factor is not a right factor")
        divisor = factor * divisor
    return divisor


def _poly_json(g):
    return {"ring": "fq", "coeffs": [c.to_int() for c in g.coeffs]}


def _code_spec(name, n, betas, gens):
    p = FIELDS[name][0]
    return {
        "field": field_json(name),
        "n": n,
        "alpha": {"crt": [b % p for b in betas]},
        "gens": [_poly_json(g) for g in gens],
    }


def _random_code(name, n, rng, degrees):
    """A cyclic code whose components get the given degrees in seeded order."""
    field = _field(name)
    degrees = rng.sample(degrees, 4)
    gens = [right_divisor(field, n, 1, d, rng) for d in degrees]
    return _code_spec(name, n, (1, 1, 1, 1), gens), [g.degree for g in gens]


# --- audit ---

def _component_distance_ok(field, n, gen):
    """True when <gen> (if nonzero) has minimum distance >= 3 and every row
    the distance sweep starts from weighs >= 4.

    For the direct-sum Gray image this makes the bounded-weight sweep find
    nothing at weights 1 and 2 and go on to sweep weight 3.
    """
    from skewcodes.distance import min_distance
    from skewcodes.linalg import rref
    from skewcodes.skewpoly import ModulusSpec, generator_basis_words

    rows = generator_basis_words(gen, ModulusSpec(n, field.one))
    if not rows:
        return True
    basis, _ = rref(rows)
    weights = [sum(not c.is_zero for c in r) for r in list(rows) + list(basis)]
    dist = min_distance(rows, field, budget=BUDGET)
    return min(weights) >= 4 and dist.exact is not None and dist.exact >= 3


def _deep_code(rng):
    """An F9 code whose params request sweeps past weight 2 (as example 2 does)."""
    field = _field("F9")
    n = DEEP_LENGTH
    for _ in range(1000):
        gens = [right_divisor(field, n, 1, rng.randint(3, 4), rng) for _ in range(4)]
        dims = [n - g.degree for g in gens]
        if 9 ** sum(dims) <= 200_000:
            continue  # message enumeration would be used instead of the sweep
        if all(g.degree >= 3 and _component_distance_ok(field, n, g) for g in gens):
            return _code_spec("F9", n, (1, 1, 1, 1), gens), [g.degree for g in gens]
    raise RuntimeError("no code with a weight-3 sweep found in 1000 draws")


# (field, length, component generator degrees) of the codes that params,
# dual and gray-image each get one of per round. Fixed lengths and degrees
# keep the cost of a stratum the same for every seed.
AUDIT_CODES = (
    ("F9", 6, (1, 2, 2, 3)),
    ("F25", 5, (1, 1, 2, 2)),
    ("F27", 5, (1, 2, 2, 3)),
    ("F49", 5, (1, 1, 2, 2)),
    ("F81t2", 4, (1, 2, 2, 3)),
    ("F243", 4, (1, 1, 1, 2)),
)
DEEP_PARAMS = 2  # a quarter of a round's 8 params requests
DEEP_LENGTH = 6
EXAMPLES = (1, 2, 3, 4)


def sweep_floor(n):
    """Candidates a sweep over F9 counts once it has finished weights 1 and 2."""
    return comb(4 * n, 1) * 8 + comb(4 * n, 2) * 64


def audit(rng, first):
    """One audit round. The bundled examples have no inputs to vary, so they
    are only in the first round: a repeat could be served from a cache."""
    reqs = []
    for _ in range(DEEP_PARAMS):
        spec, degs = _deep_code(rng)
        reqs.append(_request("params", cli_argv("params", spec), q=9, n=spec["n"], degrees=degs, deep=True))
    for command in ("params", "dual", "gray-image"):
        for name, n, degrees in AUDIT_CODES:
            spec, degs = _random_code(name, n, rng, degrees)
            q = FIELDS[name][0] ** FIELDS[name][1]
            reqs.append(_request(command, cli_argv(command, spec), q=q, n=n, degrees=degs, deep=False))
    if first:
        reqs += [_request("example", cli_argv("example", extra=(str(k),)), number=k) for k in EXAMPLES]
    return reqs


# --- search ---

# (field, degree, length) of each divisor-search over F_q, each at most
# about 1 s on a quiet machine. Degree 3 is searched over F9 only, degree 2
# not over F125, and F81 t=2 at degree 2 with n = 3: the others take
# 1.2-100 s each, and one of them would set the whole run.
FQ_SEARCH = (
    ("F9", 1, 5), ("F25", 1, 5), ("F27", 1, 5), ("F49", 1, 5), ("F81t2", 1, 5), ("F125", 1, 5),
    ("F9", 2, 6), ("F25", 2, 5), ("F27", 2, 5), ("F49", 2, 4), ("F81t2", 2, 3),
    ("F9", 3, 4), ("F9", 3, 6),
)
# (field, length) of each degree-1 divisor-search over R. Over F5 the cost
# doubles from n = 2 to n = 4 (0.3-0.7 s) and passes 1.2 s from n = 6 on.
R_SEARCH = (("F3", 2), ("F3", 4), ("F3", 6), ("F3", 8), ("F5", 2), ("F5", 3), ("F5", 4))
# (field, admissible lengths) for idempotent requests: gcd(n, k) = gcd(n, q) = 1.
IDEMPOTENT = (("F9", (5, 7)), ("F25", (3, 7)), ("F27", (2, 4, 5)), ("F49", (3, 5)))


def search(rng):
    reqs = []
    for name, degree, n in FQ_SEARCH:
        q = FIELDS[name][0] ** FIELDS[name][1]
        payload = {"field": field_json(name), "n": n, "alpha": rng.randrange(1, q), "degree": degree}
        reqs.append(_request("divisor-search", cli_argv("divisor-search", payload), ring="fq", degree=degree))
    for name, n in R_SEARCH:
        p = FIELDS[name][0]
        crt = [c % p for c in rng.choice(PLUS_MINUS_ONE)]
        payload = {"field": field_json(name), "n": n, "alpha": {"crt": crt}, "degree": 1}
        reqs.append(_request("divisor-search", cli_argv("divisor-search", payload), ring="R", degree=1))
    for name, lengths in IDEMPOTENT:
        field = _field(name)
        n = rng.choice(lengths)
        alpha = rng.choice((1, field.p - 1))
        f = right_divisor(field, n, alpha, rng.randint(1, n - 1), rng)
        payload = {"field": field_json(name), "n": n, "alpha": alpha, "f": _poly_json(f)}
        reqs.append(_request("idempotent", cli_argv("idempotent", payload)))
    return reqs


# --- verify ---

GRAY_TRIAL_BANDS = (20, 40, 60, 80, 96)  # one gray-commutation request per band [b, b+4)
SUITES = ("decomposition", "dual-contract", "ret1", "ret2")  # one request each at 20 trials


def verify(rng, decomposition_seeds):
    reqs = []
    for band in GRAY_TRIAL_BANDS:
        trials = band + rng.randrange(4)
        argv = cli_argv("verify", seed=rng.randrange(2**31), trials=trials, extra=("gray-commutation",))
        reqs.append(_request("verify", argv, suite="gray-commutation"))
    for suite in SUITES:
        # The decomposition suite's cost varies fivefold with its own seed,
        # so its seeds come from those whose library-call count is near the
        # median (decomposition_seeds.json): a round's cost does not swing
        # with the benchmark seed.
        seed = rng.choice(decomposition_seeds) if suite == "decomposition" else rng.randrange(2**31)
        reqs.append(_request("verify", cli_argv("verify", seed=seed, trials=20, extra=(suite,)), suite=suite))
    return reqs


def warmup_fields(name):
    return {
        "audit": sorted(set(EXAMPLE_FIELDS) | {s[0] for s in AUDIT_CODES}),
        "search": sorted({s[0] for s in FQ_SEARCH} | {s[0] for s in R_SEARCH} | {s[0] for s in IDEMPOTENT}),
        "verify": sorted(SUITE_FIELDS),
    }[name]


def warmup_argv(name):
    """A params request on a small code over the field: fills field_tables."""
    spec = {"field": field_json(name), "n": 2, "alpha": 1,
            "gens": [{"ring": "fq", "coeffs": [FIELDS[name][0] - 1, 1]}] * 4}
    return cli_argv("params", spec)


# Rounds generated per run: more than the timed loop gets through in
# run_seconds. The loop stops early, and says so, if it runs out.
ROUNDS = {"audit": 48, "search": 12, "verify": 24}


def generate(name, seed, decomposition_seeds, rounds=None):
    """(rounds of requests, warm-up argvs) of workload `name`.

    A request's "stratum" is its place in the round before shuffling: the
    same in every round. The examples, issued once per run, have none: one
    sample is too noisy to time them by.
    """
    rounds_out = []
    for r in range(ROUNDS[name] if rounds is None else rounds):
        rng = random.Random(f"{name}:{seed}:{r}")
        if name == "audit":
            reqs = audit(rng, r == 0)
        elif name == "search":
            reqs = search(rng)
        else:
            reqs = verify(rng, decomposition_seeds)
        for stratum, req in enumerate(reqs):
            req["stratum"] = None if req["kind"] == "example" else stratum
        rng.shuffle(reqs)
        rounds_out.append(reqs)
    return rounds_out, [warmup_argv(f) for f in warmup_fields(name)]


WORKLOADS = ("audit", "search", "verify")
