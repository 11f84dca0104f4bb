"""Linear codes over R.

A SkewCode of length n is stored by its four CRT component generators
f1..f4 over F_q. Component i is the left submodule <f_i> of
F_q[x; theta]/(x^n - beta_i), where (beta_1..beta_4) is the CRT view of the
shift constant alpha. Membership, duals, orthogonality and closure checks
all run in CRT coordinates.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

from .errors import (
    DEFAULT_BUDGET,
    InconsistentError,
    LengthMismatchError,
    MixedRingsError,
    NotADivisorError,
    NotAUnitError,
    charge,
)
from .gf import FieldSpec
from .linalg import inner_product
from .ring4 import RingElement, join_word, split_word
from .skewpoly import (
    ModulusSpec,
    SkewPoly,
    dual_generator,
    generator_basis_words,
    is_theta_fixed,
    poly_to_word,
    quasi_twist_shift,
    residue_sum,
    residues,
    right_divmod,
)


# --- the code object ---

@dataclass(frozen=True)
class SkewCode:
    field: FieldSpec
    n: int
    alpha: RingElement
    gens: tuple
    warnings: tuple = ()

    def __post_init__(self):
        if len(self.gens) != 4:
            raise InconsistentError("a code needs exactly four component generators")
        if self.n < 1:
            raise LengthMismatchError("code length must be positive")
        field = self.field
        if not isinstance(self.alpha, RingElement) or self.alpha.spec is not field:
            raise MixedRingsError("shift constant must be a ring element over the code field")
        for i, f in enumerate(self.gens, 1):
            if f.spec is not field or f.ring != "fq":
                raise MixedRingsError("generators must be base-field polynomials over the code field")
            if f.is_zero or not f.is_monic:
                raise ValueError(f"component {i}: generator {f!r} is not monic")
        for f in self.gens:
            if f.degree > self.n:
                raise LengthMismatchError(f"generator degree {f.degree} exceeds length {self.n}")

    @property
    def component_constants(self):
        return self.alpha.crt()

    def modulus(self, i: int) -> ModulusSpec:
        return ModulusSpec(self.n, self.component_constants[i])

    @functools.cached_property
    def dims(self):
        """Component dimensions n - deg g_i, computed once per code."""
        return tuple(self.n - f.degree for f in self.gens)

    @property
    def cardinality(self) -> int:
        return self.field.q ** sum(self.dims)

    @functools.cached_property
    def _component_bases(self):
        return [None] * len(self.gens)

    def component_basis(self, i: int):
        """The words x^j * g_i, j < n - deg g_i, of component i: built once
        per code, when first asked for, and returned as a new list."""
        bases = self._component_bases
        if bases[i] is None:
            bases[i] = tuple(generator_basis_words(self.gens[i], self.modulus(i)))
        return list(bases[i])

    def lift(self, i: int, word):
        """The R-word e_i * word of an F_q word: word in CRT place i and
        zero words in the other three."""
        zeros = (self.field.zero,) * len(word)
        return join_word(word if j == i else zeros for j in range(4))

    @functools.cached_property
    def _basis_words(self):
        return tuple(self.lift(i, w) for i in range(4) for w in self.component_basis(i))

    def basis_words(self):
        """R-words e_i * (x^j * f_i), ordered by component then by j; built
        once per code, returned as a new list."""
        return list(self._basis_words)

    @functools.cached_property
    def residue_rows(self):
        """Per component, the rows x^D mod g_i for deg g_i <= D <= n, built
        once per code: (n + 1 - d_i) * d_i entries. They are each
        component's only source of right remainders by g_i."""
        return tuple(list(itertools.islice(residues(g), max(self.n + 1 - g.degree, 0))) for g in self.gens)

    @functools.cached_property
    def remainders(self):
        """r_i = (x^n - beta_i) mod g_i on the right: the last row of
        residue_rows, x^n mod g_i, with beta_i subtracted from its constant
        term, and 0 when deg g_i = 0. No arithmetic but that subtraction,
        and no division. g_i right-divides x^n - beta_i, so C_i is
        tau-closed, exactly when r_i is zero."""
        return tuple(
            SkewPoly(g.spec, g.ring, [rows[-1][0] - beta, *rows[-1][1:]] if g.degree else [])
            for g, beta, rows in zip(self.gens, self.component_constants, self.residue_rows)
        )

    def contains(self, word) -> bool:
        """Whether each CRT component of word is right-divisible by g_i:
        its remainder is read off residue_rows, with no division. An
        all-zero component is a member without one. Entries must be ring
        elements over the code's field: fields are interned, so each entry's
        field check is `is`."""
        word = tuple(word)
        if len(word) != self.n:
            raise LengthMismatchError(f"word length {len(word)} != code length {self.n}")
        field = self.field
        if not all(c.__class__ is RingElement and c.spec is field for c in word):
            raise MixedRingsError("word entries must be ring elements over the code field")
        zero = self.field.zero
        return all(
            comp.count(zero) == self.n or residue_sum(comp, g, rows).is_zero
            for comp, g, rows in zip(split_word(word), self.gens, self.residue_rows)
        )

    def __repr__(self):
        gens = ", ".join(repr(g) for g in self.gens)
        return f"SkewCode(n={self.n}, alpha={self.alpha!r}, gens=[{gens}])"


def build_code(field: FieldSpec, n: int, alpha: RingElement, gens) -> SkewCode:
    """Validate and build a SkewCode.

    SkewCode checks the generators, n and alpha; each generator must also
    right-divide x^n - beta_i for its CRT component constant, or
    NotADivisorError names the component.
    """
    code = SkewCode(field, n, alpha, tuple(gens))
    if not alpha.is_unit:
        code = replace(code, warnings=(f"shift constant is not a unit: crt={alpha.crt_ints()}",))
    for i, (f, beta, rem) in enumerate(zip(code.gens, code.component_constants, code.remainders)):
        if not rem.is_zero:
            raise NotADivisorError(
                f"component {i + 1}: {f!r} does not right-divide"
                f" x^{n} - ({beta!r}); remainder {rem!r}",
                component=i + 1,
            )
    return code


def _charge_closure(code: SkewCode, budget: int):
    """Refuse a closure check over the budget: sum(dims) * 4n, as below."""
    words = sum(code.dims)
    charge(budget, words * 4 * code.n, f"closure check needs {words} basis words * 4n")


def is_closed_under(code: SkewCode, shift, budget: int = DEFAULT_BUDGET) -> bool:
    """Check the image shift(w) of every basis word w for membership.

    A basis word is a member, so an image equal to the next basis word
    needs no test: for the skew constacyclic shift that is every word of a
    component but its last, since word j + 1 is the shift of word j. Every
    other image is tested by code.contains. Each of the sum(dims) images
    costs at most four right remainders of length n, so the check counts
    sum(dims) * 4n against the budget, an upper bound, and is refused
    before the first membership test when that is over it.
    """
    _charge_closure(code, budget)
    words = code.basis_words()
    return all(
        image == following or code.contains(image)
        for image, following in zip(map(shift, words), words[1:] + [None])
    )


def shift_closures(code: SkewCode, budget: int = DEFAULT_BUDGET):
    """(tau, l, quasi_twist): whether code is closed under tau_alpha, the
    index l = gcd(n, k), and whether it is closed under the untwisted
    quasi-twist rho_l (the untwisted constacyclic shift when l = 1).

    Decided per CRT component, with tau the skew beta_i-constacyclic shift
    and C_i the span of the basis x^j * g_i = tau^j(g_i), j < k_i:
    - tau maps basis word j to basis word j + 1, and the last shift is
      x^(k_i) * g_i - (x^n - beta_i), so C_i is tau-closed iff g_i
      right-divides x^n - beta_i: r_i of code.remainders is zero.
    - rho_l is F_q-linear and commutes with tau when theta(beta_i) = beta_i,
      so for a tau-closed C_i, rho_l(C_i) is in C_i iff rho_l(g_i) is. Where
      theta moves beta_i, or C_i is not tau-closed, every basis word of C_i
      is tested, as is_closed_under does.
    Charged and refused over the budget as is_closed_under is.
    """
    _charge_closure(code, budget)
    n, alpha = code.n, code.alpha
    l = math.gcd(n, code.field.k)
    tau = rho = True
    parts = zip(code.gens, code.dims, code.component_constants, code.remainders)
    for i, (g, k, beta, rem) in enumerate(parts):
        if k == 0:
            continue
        tau_i = rem.is_zero
        tau = tau and tau_i
        if not rho:
            continue
        if tau_i and is_theta_fixed(beta):
            words = [code.lift(i, poly_to_word(g, n))]
        else:
            words = (code.lift(i, w) for w in code.component_basis(i))
        rho = all(code.contains(quasi_twist_shift(w, alpha, l)) for w in words)
    return tau, l, rho


# --- duals ---

def cofactors(code: SkewCode):
    """h_i with x^n - beta_i = h_i * f_i: one right division per component,
    the only one a code makes, since only a dual reads the quotients."""
    hs = []
    for i, f in enumerate(code.gens):
        h, rem = right_divmod(code.modulus(i).poly(), f)
        if not rem.is_zero:
            raise NotADivisorError(
                f"component {i + 1} generator is not a right divisor", component=i + 1
            )
        hs.append(h)
    return tuple(hs)


def dual_code(code: SkewCode) -> SkewCode:
    """The dual as a SkewCode with generators from the reversed cofactors.

    Component generators are the monic normalizations of the twisted
    reversals of h_i; the shift constant is alpha^{-1}.
    """
    alpha_inv = code.alpha.inverse()
    hs = cofactors(code)
    duals = tuple(dual_generator(h, code.n).monic() for h in hs)
    return build_code(code.field, code.n, alpha_inv, duals)


@dataclass(frozen=True)
class SelfDualReport:
    verdict: bool
    dims: tuple
    half_length: object
    gram_zero: tuple


def component_orthogonality(code: SkewCode, other: SkewCode):
    """Per CRT component i, whether code's C_i and other's C'_i are
    orthogonal over F_q. C and other are orthogonal over R iff all four
    are, since <e_i u, e_j v> = e_i e_j <u, v>.

    When beta_i * beta'_i = 1, <tau u, v> = theta(<u, tau'^-1 v>) for the
    skew beta_i- and beta'_i-constacyclic shifts, and tau' permutes the
    submodule C'_i. So <tau^j g_i, v> = theta^j(<g_i, tau'^-j v>): g_i
    against the basis of C'_i decides it, and symmetrically g'_i against the
    basis of C_i. The generator of the larger side is tested against the
    basis of the smaller, the only basis built. Otherwise every pair of
    basis words is tested.
    """
    out = []
    for i, (beta, beta2) in enumerate(zip(code.component_constants, other.component_constants)):
        small, large = sorted((code, other), key=lambda c: c.dims[i])
        if small.dims[i] == 0:
            out.append(True)
            continue
        if beta * beta2 == code.field.one:
            ours = [poly_to_word(large.gens[i], code.n)]
        else:
            ours = large.component_basis(i)
        theirs = small.component_basis(i)
        out.append(all(inner_product(x, y).is_zero for x in ours for y in theirs))
    return tuple(out)


def self_dual_report(code: SkewCode) -> SelfDualReport:
    """Componentwise self-duality: dim = n/2 and all basis inner products 0."""
    dims = code.dims
    half = code.n / 2
    gram = component_orthogonality(code, code)
    verdict = all(d == half for d in dims) and all(gram)
    return SelfDualReport(verdict, dims, half, gram)


def is_self_dual(code: SkewCode) -> bool:
    return self_dual_report(code).verdict


def self_dual_constant_check(alpha: RingElement) -> bool:
    """True when every CRT component of alpha is 1 or -1: the sixteen
    constants whose codes can be self-dual. A non-unit is refused."""
    if not alpha.is_unit:
        raise NotAUnitError(f"{alpha!r} is not a unit")
    spec = alpha.spec
    return all(c in (spec.one, -spec.one) for c in alpha.crt())
