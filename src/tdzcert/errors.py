"""Exception taxonomy shared by all algebra modules."""


class InputError(ValueError):
    """Invalid argument: bad shape, wrong space, out-of-range parameter."""


class DegenerateInputError(InputError):
    """Input is the zero element, which is excluded from divisor analysis."""


class UnsupportedProductError(InputError):
    """Pointwise product of these representations leaves the closed class."""


class CompositionUnrepresentableError(InputError):
    """Composite of these self-maps leaves the representation class."""


class NotARootError(InputError):
    """Synthetic division left a remainder above the tolerance bound."""


class InvalidSymbolError(InputError):
    """Composition symbol does not map the disk into the closed disk."""


class CertificateMalformedError(Exception):
    """A certificate generator failed to produce the requested element."""


class NumericError(Exception):
    """A numerical routine produced a non-finite or unusable value."""
