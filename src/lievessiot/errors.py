"""Exception hierarchy shared by all modules.

Every error carries a stable machine-readable ``code`` used by the CLI.
"""


class ToolkitError(Exception):
    code = "ToolkitError"


class DivisionByZero(ToolkitError, ZeroDivisionError):
    code = "DivisionByZero"


class PoleAtPoint(ToolkitError):
    code = "PoleAtPoint"


class DimensionMismatch(ToolkitError):
    code = "DimensionMismatch"


class Singular(ToolkitError):
    code = "Singular"


class BadBlockSize(ToolkitError):
    code = "BadBlockSize"


class PrincipalMinorVanishes(ToolkitError):
    code = "PrincipalMinorVanishes"

    def __init__(self, k, message=None):
        self.k = k
        super().__init__(message or f"principal minor {k} vanishes")


class ChartMinorVanishes(ToolkitError):
    code = "ChartMinorVanishes"


class ChartDenominatorVanishes(ToolkitError):
    code = "ChartDenominatorVanishes"


class NotOnSphere(ToolkitError, ValueError):
    code = "NotOnSphere"


class DiagonalPoint(ToolkitError):
    code = "DiagonalPoint"


class SingularCurve(ToolkitError):
    code = "SingularCurve"


class NotOnCurve(ToolkitError):
    code = "NotOnCurve"


class PointCollision(ToolkitError):
    code = "PointCollision"


class ZeroCoefficient(ToolkitError):
    code = "ZeroCoefficient"


class RelationViolated(ToolkitError):
    code = "RelationViolated"


class DegenerateEnergy(ToolkitError):
    code = "DegenerateEnergy"


class ExprSyntaxError(ToolkitError):
    code = "SyntaxError"

    def __init__(self, message, position):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class RaggedRows(ToolkitError):
    code = "RaggedRows"


class DivisionByZeroFunction(ToolkitError):
    code = "DivisionByZeroFunction"


class LimitExceeded(ToolkitError):
    """Input beyond a documented size bound (see parsing.py)."""

    code = "LimitExceeded"
