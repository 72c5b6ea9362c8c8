"""Exception hierarchy shared across the package."""


class IsoredError(Exception):
    """Base class for all package-specific errors."""


class NegativeEntry(IsoredError):
    def __init__(self, i, j, value):
        super().__init__(f"negative entry {value!r} at (row {i + 1}, col {j + 1})")
        self.i, self.j, self.value = i, j, value


class ColumnSumViolation(IsoredError):
    def __init__(self, j, total):
        super().__init__(f"column {j + 1} sums to {total!r}, expected 1")
        self.j, self.total = j, total


class ZeroColumn(IsoredError):
    def __init__(self, j):
        super().__init__(f"column {j + 1} is entirely zero")
        self.j = j


class VectorSumViolation(IsoredError):
    def __init__(self, total):
        super().__init__(f"vector sums to {total!r}, expected 1")
        self.total = total


class IndexOutOfRange(IsoredError):
    pass


class DimensionMismatch(IsoredError):
    pass


class EigensolverFailure(IsoredError):
    pass


class SingularElimination(IsoredError):
    """The block being eliminated is (numerically) singular at the chosen shift."""

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class NoViablePivot(IsoredError):
    pass


class AbsorbingPivot(NoViablePivot):
    def __init__(self, k, diagonal):
        super().__init__(f"node {k + 1} has diagonal {diagonal!r}, too close to 1")
        self.k, self.diagonal = k, diagonal


class SingularSystem(IsoredError):
    """The fixed-point system is singular: the stationary measure is not unique."""


class NoConvergence(IsoredError):
    pass


class PreconditionViolation(IsoredError):
    pass


class EmptyInput(IsoredError):
    pass


class DivisionByZeroFunction(IsoredError):
    pass


class NotStructural(IsoredError):
    pass


class PoleAtLambda(IsoredError):
    def __init__(self, i, j, lambda0):
        super().__init__(f"entry ({i + 1}, {j + 1}) has a pole at lambda = {lambda0}")
        self.i, self.j, self.lambda0 = i, j, lambda0


class DegenerateDeterminant(IsoredError):
    pass
