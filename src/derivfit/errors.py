"""Exception types shared across the package."""


class DerivfitError(Exception):
    """Base class for all package-specific failures."""


class SingularGramError(DerivfitError):
    """The empirical Gram matrix is numerically singular at the requested dimension."""


class EmptyCollectionError(DerivfitError):
    """No dimension in the candidate grid passes the collection membership test."""


class DataFormatError(DerivfitError):
    """Malformed input data (CSV or config file).

    line is 1-based; 0 means the file itself (e.g. empty).
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
