"""Exception types shared across the toolkit."""


class C4BookError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(C4BookError):
    """An argument is outside the domain an operation is defined on."""


class NonPrimeCharacteristic(DomainError):
    """Field characteristic must be prime."""


class CapExceeded(DomainError):
    """A size cap (field order, enumeration order, ...) was exceeded."""


class DivisionByZero(C4BookError):
    """Multiplicative inverse of zero requested."""


class MalformedGraph6(C4BookError):
    """graph6 input could not be decoded.

    ``offset`` is the byte position where decoding failed.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class NotPrimePower(DomainError):
    """An integer was required to be a prime power."""


class NotC4Free(C4BookError):
    """A certificate was refused because the graph contains a 4-cycle."""


class InternalInconsistency(C4BookError):
    """A structural invariant that is mathematically guaranteed failed.

    Raised instead of silently returning: it signals a bug, not bad input.
    """


class BudgetExhausted(C4BookError):
    """An incomplete search ran out of budget; not a proof of nonexistence."""


class AttemptsExhausted(C4BookError):
    """A randomized construction failed within its attempt allowance."""


class AsymptoticRegimeNotReached(DomainError):
    """Default constants give a degenerate parameter at this input size."""
