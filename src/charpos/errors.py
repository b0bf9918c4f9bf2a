"""Exception types shared across the package."""


class CharposError(Exception):
    """Base class for all errors raised by this package."""


class InvalidModulus(CharposError, ValueError):
    """The modulus does not define a usable odd real character."""


class DomainError(CharposError, ValueError):
    """An argument is outside the domain an operation is defined on."""


class ExactnessError(CharposError):
    """An exact decision could not be made with the available bounds.

    Raised instead of silently falling back to floating point when a
    certificate-grade comparison lands inside the gap between the rational
    lower and upper bounds used for pi, and when an exact identity a
    kernel rests on fails for its input (a table whose sum of j*chi(j)
    over one period is not a multiple of q, against the class number
    formula).
    """


class SearchBudgetExceeded(CharposError):
    """A bounded search ran out of candidates before finding a witness."""


class CertificateError(CharposError):
    """A certificate is structurally invalid (not merely failing)."""


class InsufficientBound(CharposError):
    """The requested interval cannot be certified with the achieved margin.

    Carries the best lower endpoint that could be certified, if any, so a
    caller can retry with a narrower request.

    Attributes:
        best_eps: smallest certifiable left endpoint as a Fraction, or None.
        detail: human-readable explanation.
    """

    def __init__(self, detail, best_eps=None):
        super().__init__(detail)
        self.detail = detail
        self.best_eps = best_eps
