"""Exception types shared across the toolkit."""


class MedcoverError(Exception):
    """Base class for all toolkit errors."""


class EmptyGraph(MedcoverError):
    """Raised when an operation needs at least one edge."""


class InstanceTooLarge(MedcoverError):
    """Raised when an exhaustive oracle is asked to exceed its configured ceiling."""


class NotConverged(MedcoverError):
    """Raised when an iterative solver hits its iteration cap before its stopping rule holds."""


class NotBipartite(MedcoverError):
    """Raised by the Koenig cover when the input graph has an odd cycle."""


class PreconditionViolated(MedcoverError):
    """Raised when an operation's structural precondition does not hold."""


class Stuck(MedcoverError):
    """A state the proofs rule out was reached: a decomposition loop found no
    qualifying pair on a non-terminal graph, a residual class is not
    fundamental, a construction produced a non-cover or left more matching
    edges than the maximum matching allows (the residual-matching case of the
    general cover), or an oracle broke its own invariant.

    The underlying lemmas prove this unreachable for valid inputs, so seeing it
    means either the precondition was violated silently or the code has a
    bug; it should never be caught and ignored.
    """


class InvalidPartition(MedcoverError):
    """Raised when a clustering does not partition the edge set as required."""


class DomainError(MedcoverError):
    """Raised when numeric arguments fall outside a formula's domain."""
