"""Exception types shared across the package."""


class GgmWatchError(Exception):
    """Base class for all ggmwatch errors."""


class NotPositiveDefinite(GgmWatchError):
    """A matrix required to be positive definite is not (Cholesky pivot <= 0)."""


class DimensionMismatch(GgmWatchError):
    """Operands have incompatible shapes."""


class NonFiniteSample(GgmWatchError):
    """A streamed sample holds a nan or infinite entry, or samples are so large
    that their second moment overflows."""


class NonPositiveDiagonal(GgmWatchError):
    """A plug-in precision estimate has a diagonal entry <= 0."""


class NoConvergence(GgmWatchError):
    """An iterative numerical routine exhausted its budget."""


class Infeasible(GgmWatchError):
    """A linear program has no feasible point at the requested level."""


class SolverStall(GgmWatchError):
    """The LP solver stopped without an optimality certificate."""


class InvalidConfig(GgmWatchError):
    """A detector or experiment configuration violates its contract."""


class TargetOutOfRange(GgmWatchError):
    """The tail-probability target of a critical-value solve is >= 1."""


class NegativeZetaSquared(GgmWatchError):
    """A closed-form critical value came out imaginary (tiny p, large rate)."""
