"""Exception types shared across the package."""


class CircleGatherError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(CircleGatherError):
    """Malformed input document or angle literal."""


class MultiplicityPresent(CircleGatherError):
    """Operation requires all robots at distinct points.

    Raised for a configuration with a shared point and for a snapshot with a
    multiplicity flag, which hypothesis reasoning cannot read.
    """


class SymmetricConfiguration(CircleGatherError):
    """Operation requires a rotationally asymmetric configuration."""


class TooFewRobots(CircleGatherError):
    """A run needs at least two robots: a lone robot never sees a peer."""


class AmbiguousSymmetric(CircleGatherError):
    """Both antipodal hypotheses are rotationally symmetric.

    This cannot arise from a legal run and signals harness misuse.
    """


class NotConfusedLeader(CircleGatherError):
    """Operation is only defined for observers classified as confused leaders."""


class UnknownRobot(CircleGatherError):
    """Referenced robot id or position is not part of the configuration."""


class ContractViolation(CircleGatherError):
    """A value violates an interface contract (e.g. a snapshot offset of 1/2)."""


class InvariantViolation(CircleGatherError):
    """A checked model invariant failed; aborts with diagnostics."""


class ObserverMoving(CircleGatherError):
    """A robot never takes a snapshot during its own move."""


class ScheduleError(CircleGatherError):
    """A scripted schedule violates the per-robot activation rules."""


class GenerationExhausted(CircleGatherError):
    """Rejection sampling hit its retry cap without a legal configuration."""


class LimitExceeded(CircleGatherError):
    """Simulation hit its event or time limit; carries the partial trace."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace
