"""Exception hierarchy. The CLI maps these to process exit codes."""


class SociolensError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class ConfigError(SociolensError):
    """Invalid or inconsistent configuration (bad keys, bad values). Exit code 2."""

    exit_code = 2


class DataError(SociolensError):
    """Problem with input data: missing files, bad schema, broken invariants. Exit code 3."""

    exit_code = 3


class NumericError(SociolensError):
    """Non-finite values or numerically undefined quantities. Exit code 4."""

    exit_code = 4


class SchemaError(DataError):
    """A declared column or attribute is missing or malformed."""


class DuplicateError(DataError):
    """Duplicate (text_id, annotator_id) pairs in an annotation table."""


class EmptyDatasetError(DataError):
    """An operation produced or received a dataset with no records."""


class EncodingError(DataError):
    """A category is not in the active schema's vocabulary for its attribute."""
