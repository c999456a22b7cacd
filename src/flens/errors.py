"""Exception types, one per CLI exit code.

Every failure is a ConfigError (exit 2), a DataError (exit 3) or a
NumericError (exit 4). The type says only which exit code a fault maps to;
the message names the fault and, for a config value, its JSON path.
"""

from __future__ import annotations


class FlensError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(FlensError):
    """Invalid configuration or parameter choice (CLI exit code 2)."""


class DataError(FlensError):
    """Invalid, malformed, or degenerate input data (CLI exit code 3)."""


class NumericError(FlensError):
    """Numerical failure during computation (CLI exit code 4)."""
