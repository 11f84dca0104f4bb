"""Every monic right divisor of x^n - alpha over F3 (n <= 4), F9 (n <= 3)
and F27 (n <= 3), for every alpha in F_q and every degree, through every
command that takes one, in process through cli.main:

- divisor-search itself, which lists the divisors;
- idempotent in the f form, and in the gens form with the divisor in each
  of the four places and 1 in the others, over the constant alpha of R;
- dual, params and gray-image, with the divisor as all four generators.

No request may fail its own check (exit 1). A refusal (exit 2) must be an
input error that names the hypothesis or limit it refuses. A seeded sample
of the answers (exit 0) of each kind is checked against tests/oracle.py,
through the helpers of tests/test_oracle.py.
"""

import functools
import itertools
import json
import random
from collections import namedtuple

import oracle
import pytest
from reference import rank_idempotent_check, run_main
from test_oracle import (
    FIELDS,
    MAX_WORDS,
    assert_dual_is_the_oracle,
    assert_f_idempotent_is_the_oracle,
    assert_gens_idempotent_is_the_oracle,
    assert_gray_image_is_the_oracle,
    assert_params_is_the_oracle,
    ring,
)

import skewcodes.skewpoly as skewpoly
from skewcodes.errors import HypothesisViolatedError, VerificationError
from skewcodes.gf import make_field
from skewcodes.serial import poly_from_json
from skewcodes.skewpoly import ModulusSpec, SkewPoly, idempotent_generator

LENGTHS = {"F3": 4, "F9": 3, "F27": 3}
# the phrases with which a kind of request may refuse a swept input: the
# hypotheses of the idempotent construction and the unit constant of a dual
REFUSALS = {
    "idempotent f": (
        "need gcd(n,k)=1 and gcd(n,q)=1",
        "is not a unit",
        "must be fixed by the twist",
        "theta(alpha) != alpha",
        "has no idempotent generator",
    ),
    "dual": ("is not a unit",),
}
REFUSALS["idempotent gens"] = REFUSALS["idempotent f"]
KINDS = ["divisor-search", "idempotent f", "idempotent gens", "dual", "params", "gray-image"]
# answers of each kind checked against the oracle
SAMPLE = 20

# g is a divisor's coefficient list, and place the CRT place that holds it
# in an idempotent gens request (None in the others)
Request = namedtuple("Request", "kind name n alpha degree g place rc report")


def request(kind, name, n, **obj):
    p, m, modulus, t = FIELDS[name]
    obj = {"field": {"p": p, "m": m, "modulus": list(modulus), "t": t}, "n": n, **obj}
    rc, out = run_main([kind.split()[0], "--input", json.dumps(obj)])
    return rc, json.loads(out)


def fq(coeffs):
    return {"ring": "fq", "coeffs": coeffs}


@functools.lru_cache(maxsize=None)
def sweep():
    out = []
    for name, top in LENGTHS.items():
        for n in range(1, top + 1):
            for alpha in range(ring(name).field.q):
                for degree in range(n + 1):
                    rc, report = request("divisor-search", name, n, alpha=alpha, degree=degree)
                    out.append(Request("divisor-search", name, n, alpha, degree, None, None, rc, report))
                    for g in report["result"].get("divisors", []):
                        g = g["coeffs"]
                        rc, rep = request("idempotent f", name, n, alpha=alpha, f=fq(g))
                        out.append(Request("idempotent f", name, n, alpha, degree, g, None, rc, rep))
                        for place in range(4):
                            gens = [fq(g if i == place else [1]) for i in range(4)]
                            rc, rep = request("idempotent gens", name, n, alpha={"crt": [alpha] * 4}, gens=gens)
                            out.append(Request("idempotent gens", name, n, alpha, degree, g, place, rc, rep))
                        for kind in ("dual", "params", "gray-image"):
                            rc, rep = request(kind, name, n, alpha={"crt": [alpha] * 4}, gens=[fq(g)] * 4)
                            out.append(Request(kind, name, n, alpha, degree, g, None, rc, rep))
    return out


def test_the_sweep_covers_every_kind():
    kinds = {r.kind for r in sweep()}
    assert kinds == set(KINDS)
    assert all(any(r.kind == kind and r.rc == 0 for r in sweep()) for kind in KINDS)


def test_no_swept_request_fails_its_own_check():
    failed = [(r.kind, r.name, r.n, r.alpha, r.g, r.place, r.report["result"]) for r in sweep() if r.rc == 1]
    assert failed == []


def test_every_refusal_names_the_hypothesis_it_refuses():
    for r in sweep():
        if r.rc == 0:
            continue
        assert r.rc == 2 and r.report["status"] == "input_error", r
        message = r.report["result"]["error"]
        assert any(phrase in message for phrase in REFUSALS.get(r.kind, ())), (r.kind, message)


def test_a_refused_idempotent_names_the_twist_that_moves_alpha():
    """No idempotent generator for an alpha that theta moves: the refusal
    says theta(alpha) != alpha, unlike that of alpha = 0, where
    x^n - alpha is not squarefree."""
    refused = [
        r for r in sweep()
        if r.kind.startswith("idempotent") and r.rc == 2
        and "has no idempotent generator" in r.report["result"]["error"]
    ]
    moved = [ring(r.name).field.theta(r.alpha) != r.alpha for r in refused]
    assert any(moved) and not all(moved)
    for r, alpha_moved in zip(refused, moved):
        message = r.report["result"]["error"]
        assert ("theta(alpha) != alpha" in message) == alpha_moved, (r.kind, r.name, r.n, r.alpha, message)


def code(r):
    """The swept code of r as test_oracle's codes() draws them: the divisor
    as all four generators over alpha = alpha * 1, (a, b, c, d) = (alpha, 0, 0, 0)."""
    return r.name, r.n, (r.alpha, 0, 0, 0), [r.g] * 4


def check(r):
    if r.kind == "divisor-search":
        field = ring(r.name).field
        assert r.report["result"]["divisors"] == oracle.right_divisors(field, r.n, r.alpha, r.degree)
    elif r.kind == "idempotent f":
        assert_f_idempotent_is_the_oracle(r.name, r.n, r.alpha, r.g)
    elif r.kind == "idempotent gens":
        gens = [r.g if i == r.place else [1] for i in range(4)]
        assert_gens_idempotent_is_the_oracle(r.name, r.n, (r.alpha,) * 4, gens)
    elif r.kind == "dual":
        assert_dual_is_the_oracle(code(r))
    elif r.kind == "params":
        assert_params_is_the_oracle(code(r))
    else:
        assert_gray_image_is_the_oracle(code(r))


@pytest.mark.parametrize("kind", KINDS)
def test_sampled_answers_are_the_oracle(kind):
    """params lists every codeword, so only codes of at most MAX_WORDS
    codewords are drawn for it."""
    answers = [
        r for r in sweep()
        if r.kind == kind and r.rc == 0 and r.report["result"].get("cardinality", 0) <= MAX_WORDS
    ]
    for r in random.Random(kind).sample(answers, min(SAMPLE, len(answers))):
        check(r)


# the refusals of idempotent_generator's skew checks of a solved e
CHECK_FAILURES = ("not skew-idempotent", "idempotent generates a different submodule than f")


def test_the_idempotent_check_by_inclusions_is_the_rank_check(monkeypatch):
    """Every swept divisor f for which the solve gives an e: the package's
    check, e*e = e and two inclusions (f right-divides e, f*e = f), and the
    rank reference (tests/reference.py) give the same verdict on e and on
    wrong candidates: 0, 2e, e plus the word x*f of <f>, and the e of every
    other divisor of the same x^n - alpha. The product that builds e from
    the solve is patched to hand back each candidate in turn."""
    real, built, swap = skewpoly.c_mul, [], []

    def product(a, b):
        if a is b:  # f*f, the solve's right-hand side
            return real(a, b)
        built.append(real(a, b))
        return swap[0] if swap else built[-1]

    monkeypatch.setattr(skewpoly, "c_mul", product)

    def accepts(f, mod, e):
        swap[:] = [e]
        try:
            return idempotent_generator(f, mod) == e
        except (VerificationError, HypothesisViolatedError) as exc:
            assert any(phrase in str(exc) for phrase in CHECK_FAILURES), exc
            return False
        finally:
            swap.clear()

    groups = {}
    for r in sweep():
        if r.kind == "divisor-search":
            groups.setdefault((r.name, r.n, r.alpha), []).extend(g["coeffs"] for g in r.report["result"]["divisors"])
    verdicts = []
    for (name, n, alpha), coeffs in groups.items():
        p, m, modulus, t = FIELDS[name]
        spec = make_field(p, m, list(modulus), t)
        mod = ModulusSpec(n, spec.from_int(alpha))
        solved = {}
        for g in coeffs:
            f = poly_from_json(spec, {"ring": "fq", "coeffs": g})
            built.clear()
            try:
                idempotent_generator(f, mod)
            except HypothesisViolatedError:
                pass
            if built:
                solved[f] = built[0]
        for f, e in solved.items():
            word_of_f = SkewPoly(spec, "fq", next(itertools.islice(skewpoly._shift_orbit(f, mod), 1, None)))
            candidates = [e, SkewPoly.zero(spec), e.scale_left(spec.constant(2)), e + word_of_f]
            for candidate in candidates + [other for g, other in solved.items() if g != f]:
                verdict = accepts(f, mod, candidate)
                assert verdict == rank_idempotent_check(candidate, f, mod), (name, n, alpha, f, candidate)
                verdicts.append(verdict)
    assert verdicts.count(True) and verdicts.count(False)
