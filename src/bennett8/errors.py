"""Exception types shared across the package."""


class DegenerateCircle(ValueError):
    """Two circles span the same plane, or the defining points coincide/are antipodal."""


class ParallelLines(ValueError):
    """Two lines are parallel (including identical), so no unique common perpendicular exists."""


class DegenerateBranch(ValueError):
    """The selected transmission branch has a vanishing denominator."""


class InvalidSpec(ValueError):
    """A linkage/isogram spec violates one of its constraints; message names it."""


class ClosureFailure(RuntimeError):
    """Internal loop-closure verification failed; the pose was not returned."""


class CollapsedPose(RuntimeError):
    """Operation needs a non-aligned pose but got a collapsed one."""
