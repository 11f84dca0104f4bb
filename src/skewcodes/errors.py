"""Exception hierarchy shared by all skewcodes modules."""


class SkewcodesError(Exception):
    """Base class for every error raised by this package."""


class NonPrimeError(SkewcodesError):
    """The field characteristic is not an odd prime."""


class BadDegreeError(SkewcodesError):
    """The extension degree m of a field is not positive."""


class FieldTooLargeError(SkewcodesError):
    """q = p^m exceeds gf.MAX_Q, the largest field whose tables are built."""


class ReducibleModulusError(SkewcodesError):
    """The supplied modulus polynomial is not irreducible."""


class BadTwistError(SkewcodesError):
    """The twist exponent does not divide the extension degree."""


class DivisionByZeroError(SkewcodesError):
    """Multiplicative inverse of zero requested."""


class NotAUnitError(SkewcodesError):
    """Ring element has no inverse (some CRT component is zero)."""


class MixedRingsError(SkewcodesError):
    """Operands live in different fields or coefficient rings."""


class DivisionByZeroPolyError(SkewcodesError):
    """Polynomial division by the zero polynomial."""


class NonUnitLeadingCoeffError(SkewcodesError):
    """Right division requires the divisor's leading coefficient to be a unit."""


class ZeroPolynomialError(SkewcodesError):
    """Operation undefined for the zero polynomial."""


class BudgetExceededError(SkewcodesError):
    """An exhaustive search would exceed the configured candidate budget."""


DEFAULT_BUDGET = 20_000_000


def charge(budget: int, steps: int, needs: str, unit: str = "steps"):
    """Refuse work of `steps` units, described by `needs`, over the budget:
    called before the work starts."""
    if steps > budget:
        raise BudgetExceededError(f"{needs} = {steps} {unit}, over the budget of {budget}")


class HypothesisViolatedError(SkewcodesError):
    """A theorem-backed routine was called outside its hypotheses."""


class NotADivisorError(SkewcodesError):
    """A generator fails the required right-divisibility.

    ``component`` is the 1-based CRT component index when the failure is
    component-specific, else None.
    """

    def __init__(self, message, component=None):
        super().__init__(message)
        self.component = component


class NonMonicGeneratorError(SkewcodesError):
    """A code's component generator is zero or not monic."""


class LengthMismatchError(SkewcodesError):
    """Vector or polynomial length does not match the code length."""


class BadIndexError(SkewcodesError):
    """Block index does not divide the vector length."""


class InconsistentError(SkewcodesError):
    """Component codes disagree on length, field, or shift constants."""


class VerificationError(SkewcodesError):
    """A constructed object failed its own postcondition check."""


class UnknownSuiteError(SkewcodesError):
    """Verification suite name not recognized."""


class ParseError(SkewcodesError):
    """Malformed JSON input."""
