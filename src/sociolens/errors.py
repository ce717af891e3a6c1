"""Exception hierarchy. The CLI maps these to process exit codes."""


class SociolensError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class ConfigError(SociolensError):
    """Invalid or inconsistent configuration (bad keys, bad values). Exit code 2."""

    exit_code = 2


class DataError(SociolensError):
    """Problem with input data: missing files, bad schema, duplicate or empty data, broken invariants. Exit code 3."""

    exit_code = 3


class NumericError(SociolensError):
    """Non-finite values or numerically undefined quantities. Exit code 4."""

    exit_code = 4

