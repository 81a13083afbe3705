"""Exception hierarchy.

The CLI maps these onto exit codes: anything under ``InputError`` (and
``DimensionError`` / ``WriteError``) is a bad-input problem (exit 2),
``NumericalError`` and ``NoResultError`` are numerical failures (exit 3).
"""


class MMFuseError(Exception):
    """Base class for all package errors."""


class InputError(MMFuseError):
    """Invalid user-supplied data (files, configurations, vocabularies)."""


class ParseError(InputError):
    """Malformed file content; carries the offending path and line number (None: the whole file)."""

    def __init__(self, path, line_no, message):
        where = path if line_no is None else f"{path}:{line_no}"
        super().__init__(f"{where}: {message}")
        self.path = str(path)
        self.line_no = line_no


class DuplicateEntryError(InputError):
    """Duplicate word or word pair where uniqueness is required."""


class EmptyInputError(InputError):
    """A file or collection that must be non-empty is empty."""


class AlignmentError(InputError):
    """Vocabularies or row counts that must match do not."""


class ConfigurationError(InputError):
    """A configuration violates the composition constraints."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class GridError(InputError):
    """Degenerate grid specification or empty configuration set."""


class WordLookupError(InputError):
    """A word is missing from a model vocabulary."""


class DimensionError(MMFuseError):
    """Array shapes or requested dimensions are inconsistent."""


class WriteError(MMFuseError):
    """An output file could not be written."""


class NumericalError(MMFuseError):
    """A numerical procedure failed (e.g. singular covariance)."""


class UndefinedCorrelationError(NumericalError):
    """Rank correlation is undefined (too few points or zero variance)."""


class NoResultError(MMFuseError):
    """A sweep finished without a single successful configuration."""
