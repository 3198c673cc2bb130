"""Typed errors shared across the package.

Each error class carries the process exit code used by the CLI, so that
callers (and shell scripts around the CLI) can tell configuration mistakes,
infeasible instances, transport failures, and protocol violations apart.
"""


class MppsiError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class ConfigError(MppsiError):
    """Malformed or invalid configuration / input data."""

    exit_code = 2


class InfeasibleError(MppsiError):
    """The instance cannot run the protocol (e.g. a client has one database)."""

    exit_code = 3


class TransportError(MppsiError):
    """Networked transport failure (connect, timeout, framing on a socket)."""

    exit_code = 4


class ProtocolViolationError(MppsiError):
    """A peer deviated from the protocol (bad tags, missing/extra answers)."""

    exit_code = 5


class BoundExceededError(MppsiError):
    """An exact enumeration would exceed the configured outcome bound."""


class AuditPartError(MppsiError):
    """A part of a split audit walk ended without sending its result."""
