"""Exception taxonomy and process exit codes shared by all subsystems.

Exit-code contract: 0 success, 2 configuration/domain/specification error,
3 resource (budget) error.  An input file named by a flag (`--config`,
`--series`) that is missing, unreadable or not in its expected format is
a configuration error (2).  Failures writing outputs and unexpected
exceptions exit 1.
"""

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2
EXIT_RESOURCE = 3


class TerncorrError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = EXIT_FAILURE


class BudgetError(TerncorrError):
    """A configured memory/size/time budget would be exceeded."""

    exit_code = EXIT_RESOURCE


class ConfigurationError(TerncorrError):
    """Invalid run configuration (bad keys, incompatible parameters)."""

    exit_code = EXIT_CONFIG


class DomainError(TerncorrError):
    """Arguments outside an operation's mathematical domain."""

    exit_code = EXIT_CONFIG


class SpecificationError(TerncorrError):
    """A user-supplied Euler rule is incomplete for the requested range."""

    exit_code = EXIT_CONFIG
