"""Exception hierarchy for the eforest package.

One class per thing a caller can do about the error; the message carries
the detail.
"""


class EForestError(Exception):
    """Base class for all eforest errors."""


class FormatError(EForestError):
    """Input data or a data file is malformed: bad magic, truncation, bad
    header, disagreeing dimensions or counts, or a category outside the
    declared value list. Fix the input."""


class ParseError(FormatError):
    """A cell could not be parsed; carries the offending row and column."""

    def __init__(self, message: str, row: int, col: int):
        super().__init__(f"{message} (row {row}, col {col})")
        self.row = row
        self.col = col


class InvalidModelError(EForestError):
    """A model file is damaged, of an unsupported version, or violates
    structural invariants. Use an intact model file, or retrain."""


class ModelMismatchError(EForestError):
    """A model does not fit the data or encodings it is given: another
    schema, a leaf ordinal out of range, or another model's encodings."""


class ConfigError(EForestError):
    """A request is invalid: a configuration value, missing labels, empty
    training data, or a metric outside its domain."""


class EmptyMCRError(EForestError):
    """Rules or encodings describe an empty region; never produced by rules
    taken from one instance's encoding."""
