"""Exception types shared across the package.

Each class carries the process exit code the CLI maps it to, so error
handling stays in one place.
"""


class QueueRlError(Exception):
    exit_code = 1


class ConfigError(QueueRlError):
    """A network or hyperparameter configuration violates its invariants."""

    exit_code = 2


class ParseError(QueueRlError):
    """An input file is missing, unreadable, or structurally malformed."""

    exit_code = 3


class UnknownNode(QueueRlError):
    exit_code = 4


class DimensionMismatch(QueueRlError):
    exit_code = 5


class CheckpointError(QueueRlError):
    exit_code = 6


class NoArrivals(QueueRlError):
    """Reward requested before any external arrival reached the network."""

    exit_code = 7


class InsufficientBuffer(QueueRlError):
    exit_code = 8


class InsufficientData(QueueRlError):
    exit_code = 8


class NoBlockableNodes(QueueRlError):
    exit_code = 9
