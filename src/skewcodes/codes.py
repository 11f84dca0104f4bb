"""Linear codes over R and their shift operators.

A SkewCode of length n is stored by its four CRT component generators
f1..f4 over F_q. Component i is the left submodule <f_i> of
F_q[x; theta]/(x^n - beta_i), where (beta_1..beta_4) is the CRT view of the
shift constant alpha. Membership, duals, and closure checks all run in CRT
coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .distance import DEFAULT_BUDGET
from .errors import (
    BadIndexError,
    BudgetExceededError,
    EvenLengthError,
    HypothesisViolatedError,
    InconsistentError,
    LengthMismatchError,
    MixedRingsError,
    NotADivisorError,
    NotAUnitError,
    VerificationError,
)
from .gf import FieldElement, FieldSpec
from .linalg import inner_product
from .ring4 import RingElement, idempotents, split_word
from .skewpoly import (
    ModulusSpec,
    SkewPoly,
    dual_generator,
    generator_basis_words,
    right_divmod,
    word_to_poly,
)


# --- shift operators ---

def skew_cyclic_shift(word):
    """(c_0..c_{n-1}) -> (theta(c_{n-1}), theta(c_0), .., theta(c_{n-2}))."""
    word = tuple(word)
    return (word[-1].frob(1),) + tuple(c.frob(1) for c in word[:-1])


def skew_constacyclic_shift(word, alpha):
    """Like the cyclic shift but the wrapped entry is scaled by alpha."""
    word = tuple(word)
    return (alpha * word[-1].frob(1),) + tuple(c.frob(1) for c in word[:-1])


def constacyclic_shift(word, alpha):
    """Untwisted constacyclic shift: no automorphism, alpha on the wrap."""
    word = tuple(word)
    return (alpha * word[-1],) + word[:-1]


def quasi_twist_shift(word, alpha, block: int):
    """Rotate by one size-`block` chunk; the wrapped chunk is scaled by alpha.

    This is the untwisted quasi-twisted shift of index `block`.
    """
    word = tuple(word)
    n = len(word)
    if block < 1 or n % block != 0:
        raise BadIndexError(f"block size {block} does not divide length {n}")
    return tuple(alpha * c for c in word[n - block:]) + word[: n - block]


def _block_constants(alpha, blocks: int, sample_entry):
    # alpha may be a single scalar or, for 4 blocks over F_q, an R constant
    # whose CRT components drive the individual blocks.
    if isinstance(alpha, RingElement) and isinstance(sample_entry, FieldElement):
        if blocks != 4:
            raise BadIndexError("an R constant drives exactly 4 base-field blocks")
        return alpha.crt()
    return (alpha,) * blocks


def blockwise_cyclic_shift(word, blocks: int):
    """Split into `blocks` equal chunks and apply the skew cyclic shift to each."""
    word = tuple(word)
    n = len(word)
    if blocks < 1 or n % blocks != 0:
        raise BadIndexError(f"{blocks} blocks do not divide length {n}")
    size = n // blocks
    out = []
    for b in range(blocks):
        out.extend(skew_cyclic_shift(word[b * size:(b + 1) * size]))
    return tuple(out)


def blockwise_constacyclic_shift(word, blocks: int, alpha):
    """Apply the skew constacyclic shift blockwise.

    When alpha is an R constant and the entries are base-field elements,
    block i uses the i-th CRT component of alpha.
    """
    word = tuple(word)
    n = len(word)
    if blocks < 1 or n % blocks != 0:
        raise BadIndexError(f"{blocks} blocks do not divide length {n}")
    size = n // blocks
    consts = _block_constants(alpha, blocks, word[0])
    out = []
    for b in range(blocks):
        out.extend(skew_constacyclic_shift(word[b * size:(b + 1) * size], consts[b]))
    return tuple(out)


# --- the code object ---

@dataclass(frozen=True)
class SkewCode:
    field: FieldSpec
    n: int
    alpha: RingElement
    gens: tuple
    warnings: tuple = ()
    component_ok: tuple = (True, True, True, True)

    @property
    def component_constants(self):
        return self.alpha.crt()

    def modulus(self, i: int) -> ModulusSpec:
        return ModulusSpec(self.n, self.component_constants[i])

    @property
    def dims(self):
        return tuple(self.n - f.degree for f in self.gens)

    @property
    def cardinality(self) -> int:
        return self.field.q ** sum(self.dims)

    def component_basis(self, i: int):
        return generator_basis_words(self.gens[i], self.modulus(i))

    def basis_words(self):
        """R-words e_i * (x^j * f_i), ordered by component then by j."""
        es = idempotents(self.field)
        out = []
        for i in range(4):
            for w in self.component_basis(i):
                out.append(tuple(es[i] * c for c in w))
        return out

    def contains(self, word) -> bool:
        word = tuple(word)
        if len(word) != self.n:
            raise LengthMismatchError(f"word length {len(word)} != code length {self.n}")
        for i, comp in enumerate(split_word(word)):
            rem = right_divmod(word_to_poly(comp, self.field, "fq"), self.gens[i])[1]
            if not rem.is_zero:
                return False
        return True

    def __repr__(self):
        gens = ", ".join(repr(g) for g in self.gens)
        return f"SkewCode(n={self.n}, alpha={self.alpha!r}, gens=[{gens}])"


def build_code(field: FieldSpec, n: int, alpha: RingElement, gens, strict: bool = True) -> SkewCode:
    """Validate and build a SkewCode.

    Every generator must be monic; each must right-divide x^n - beta_i for
    its CRT component constant. With strict=False a divisibility failure is
    recorded as a warning instead of raised, so stated-but-broken inputs can
    still be audited.
    """
    gens = tuple(gens)
    if len(gens) != 4:
        raise InconsistentError("a code needs exactly four component generators")
    if n < 1:
        raise LengthMismatchError("code length must be positive")
    if not isinstance(alpha, RingElement) or alpha.spec != field:
        raise MixedRingsError("shift constant must be a ring element over the code field")
    warnings = []
    for f in gens:
        if f.spec != field or f.ring != "fq":
            raise MixedRingsError("generators must be base-field polynomials over the code field")
        if f.is_zero or not f.is_monic:
            raise ValueError(f"generator {f!r} is not monic")
        if f.degree > n:
            raise LengthMismatchError(f"generator degree {f.degree} exceeds length {n}")
    if not alpha.is_unit:
        warnings.append(f"shift constant is not a unit: crt={alpha.crt_ints()}")
    ok = []
    constants = alpha.crt()
    for i, f in enumerate(gens):
        rem = right_divmod(ModulusSpec(n, constants[i]).poly(), f)[1]
        good = rem.is_zero
        ok.append(good)
        if not good:
            msg = (
                f"component {i + 1}: {f!r} does not right-divide"
                f" x^{n} - ({constants[i]!r}); remainder {rem!r}"
            )
            if strict:
                raise NotADivisorError(msg, component=i + 1)
            warnings.append(msg)
    return SkewCode(field, n, alpha, gens, tuple(warnings), tuple(ok))


def is_closed_under(code: SkewCode, shift, budget: int = DEFAULT_BUDGET) -> bool:
    """Check the image shift(w) of every basis word w for membership.

    Each of the sum(dims) basis words is tested by four right divisions of
    length n, so the check counts sum(dims) * 4n against the budget, and is
    refused before the first membership test when that is over it.
    """
    words = sum(code.dims)
    steps = words * 4 * code.n
    if steps > budget:
        raise BudgetExceededError(
            f"closure check needs {words} basis words * 4n = {steps} steps, over the budget of {budget}"
        )
    return all(code.contains(shift(w)) for w in code.basis_words())


# --- duals ---

def cofactors(code: SkewCode):
    """h_i with x^n - beta_i = h_i * f_i."""
    out = []
    for i, f in enumerate(code.gens):
        q, rem = right_divmod(code.modulus(i).poly(), f)
        if not rem.is_zero:
            raise NotADivisorError(
                f"component {i + 1} generator is not a right divisor", component=i + 1
            )
        out.append(q)
    return tuple(out)


def dual_code(code: SkewCode) -> SkewCode:
    """The dual as a SkewCode with generators from the reversed cofactors.

    Component generators are the monic normalizations of the twisted
    reversals of h_i; the shift constant is alpha^{-1}.
    """
    alpha_inv = code.alpha.inverse()
    hs = cofactors(code)
    duals = tuple(dual_generator(h).monic() for h in hs)
    return build_code(code.field, code.n, alpha_inv, duals)


@dataclass(frozen=True)
class SelfDualReport:
    verdict: bool
    dims: tuple
    half_length: object
    gram_zero: tuple


def self_dual_report(code: SkewCode) -> SelfDualReport:
    """Componentwise self-duality: dim = n/2 and all basis inner products 0."""
    dims = code.dims
    half = code.n / 2
    gram = []
    for i in range(4):
        basis = code.component_basis(i)
        gram.append(
            all(
                inner_product(x, y).is_zero
                for xi, x in enumerate(basis)
                for y in basis[xi:]
            )
        )
    verdict = all(d == half for d in dims) and all(gram)
    return SelfDualReport(verdict, dims, half, tuple(gram))


def is_self_dual(code: SkewCode) -> bool:
    return self_dual_report(code).verdict


def self_dual_constant_list(field: FieldSpec):
    """The sixteen constants whose codes can be self-dual (CRT view in {1,-1}^4)."""
    specs = [
        (1, 0, 0, 0), (-1, 0, 0, 0),
        (1, -2, 0, 0), (1, 0, -2, 0), (1, 0, 0, -2),
        (-1, 2, 0, 0), (-1, 0, 2, 0), (-1, 0, 0, 2),
        (1, -2, 0, 2), (1, 0, -2, 2), (-1, 2, 0, -2), (-1, 0, 2, -2),
        (1, -2, -2, 2), (-1, 2, 2, -2), (1, -2, -2, 4), (-1, 2, 2, -4),
    ]
    return [RingElement.from_ints(field, *s) for s in specs]


def self_dual_constant_check(alpha: RingElement) -> bool:
    """True when every CRT component of alpha is 1 or -1.

    Cross-checked against literal membership in the explicit 16-element list;
    the two characterizations must agree.
    """
    if not alpha.is_unit:
        raise NotAUnitError(f"{alpha!r} is not a unit")
    spec = alpha.spec
    pm = {spec.one, -spec.one}
    by_components = all(c in pm for c in alpha.crt())
    by_list = any(alpha == cand for cand in self_dual_constant_list(spec))
    if by_components != by_list:
        raise VerificationError(
            "componentwise +-1 test disagrees with the 16-element constant list"
        )
    return by_components


# --- constacyclic equivalence maps ---

def power_scale_word(word, alpha):
    """Scale position i by alpha^i."""
    out = []
    acc = None
    for i, c in enumerate(word):
        if i == 0:
            out.append(c)
            acc = alpha
        else:
            out.append(acc * c)
            acc = acc * alpha
    return tuple(out)


def power_scale_poly(f: SkewPoly, alpha, n: int) -> SkewPoly:
    """Substitute (alpha x) for x: coefficient j picks up alpha theta(alpha)..theta^{j-1}(alpha).

    Defined for odd n and alpha with alpha^2 = 1, where it carries submodules
    of the cyclic quotient to submodules of the alpha-constacyclic quotient.
    """
    if n % 2 == 0:
        raise EvenLengthError("variable scaling requires odd length")
    one = f._one_coeff()
    if not (isinstance(alpha, type(one)) and alpha * alpha == one):
        raise HypothesisViolatedError("shift constant must square to 1")
    coeffs = []
    norm = one  # running product alpha * theta(alpha) * .. * theta^{j-1}(alpha)
    for j, c in enumerate(f.coeffs):
        coeffs.append(c * norm)
        norm = norm * alpha.frob(j)
    return SkewPoly(f.spec, f.ring, coeffs)
