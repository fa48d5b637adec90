"""Exception types shared across the library."""


class ShapeMismatchError(ValueError):
    """Raised when shapes are incompatible for an operation."""


class SpecMismatchError(ValueError):
    """Raised when a sequence's channel spec does not match a layer's expectation."""


class BlockSizeError(ValueError):
    """Raised when step() receives a time extent that is not a multiple of block_size."""


class NotSteppableError(RuntimeError):
    """Raised by get_initial_state/step on layers without step support."""


class MissingConstantError(ValueError):
    """Raised when a layer requires a constants entry that was not provided."""


class PipelineError(ValueError):
    """Raised for invalid pipeline specs; carries a path-qualified message."""


class SpecParseError(PipelineError):
    """Raised for malformed spec text; includes line/column where available."""


class FormatError(ValueError):
    """Raised for a malformed or truncated SLT1/SLS1 file or parameter archive."""
