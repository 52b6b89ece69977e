"""Exception types shared across the package."""


class RcholqrError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(RcholqrError):
    """Operand shapes are incompatible."""


class ParamError(RcholqrError):
    """A parameter is outside its valid range."""


class CholeskyBreakdown(RcholqrError):
    """Cholesky hit a non-positive or non-finite pivot.

    ``index`` is the zero-based pivot at which the factorization stopped;
    ``stage`` identifies which factorization of a multi-stage algorithm
    failed (for example "sketch-cholesky").
    """

    def __init__(self, index: int, stage: str | None = None):
        self.index = index
        self.stage = stage
        where = f" during {stage}" if stage else ""
        super().__init__(f"Cholesky breakdown at pivot {index}{where}")


class SingularTriangular(RcholqrError):
    """Triangular solve with a zero on the diagonal."""


class SymmetryError(RcholqrError):
    """Input expected to be symmetric is not, beyond tolerance."""


class RankDeficient(RcholqrError):
    """Smallest singular value is numerically zero."""


class ParseError(RcholqrError):
    """Malformed Matrix Market input; carries the offending line number."""

    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")


class AssumptionViolated(RcholqrError):
    """An embedding quality assumption fails, leaving a bound undefined."""

