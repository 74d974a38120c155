"""Exception types shared across the package."""


class WignerlabError(Exception):
    """Base class for all package-specific errors."""


class UnsupportedGeometryError(WignerlabError):
    """Operation not defined for this state-space backend combination."""


class DomainError(WignerlabError):
    """A point lies outside the state space it was evaluated on."""


class PreconditionError(WignerlabError):
    """A documented operation precondition does not hold."""


class ContainmentError(PreconditionError):
    """A map sends a point of its source outside its target: the source
    point ``witness_point`` goes to ``witness_image``."""

    def __init__(self, message, witness_point=None, witness_image=None):
        super().__init__(message)
        self.witness_point = witness_point
        self.witness_image = witness_image


class PairError(PreconditionError):
    """A theory has no designated pair of observables, or its ``pair``
    does not name two of its observables."""


class SizeGuardError(WignerlabError):
    """An enumeration would exceed its documented size guard."""


class ParseError(WignerlabError):
    """A theory file or report could not be parsed."""

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        where = []
        if path:
            where.append(f"at {path}")
        if line is not None:
            where.append(f"line {line}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)
