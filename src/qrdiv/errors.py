"""Exception types shared across the package."""


class QrdivError(Exception):
    """Base class for all package errors."""


class NonHermitian(QrdivError):
    """Matrix violates conjugate symmetry beyond tolerance."""


class DomainError(QrdivError):
    """Scalar function evaluated outside its domain."""


class DimensionMismatch(QrdivError):
    """Operands live on spaces of different dimensions."""


class NotAResolution(QrdivError):
    """Projection blocks do not sum to the identity."""


class BadFactorization(QrdivError):
    """Dimension does not factor as the declared tensor product."""


class BadRank(QrdivError):
    """Requested rank/environment dimension is not realizable."""


class NotInvertible(QrdivError):
    """Operation requires invertible inputs."""


class InfiniteLimit(QrdivError):
    """Perspective limit does not exist as a finite operator."""


class LengthMismatch(QrdivError):
    """Classical vectors have different lengths."""


class AmbiguousDefinition(QrdivError):
    """Signed-weight multi-variate Q is not uniquely defined for this input."""


class DisjointSupports(QrdivError):
    """Vectors have no common support index."""


class UnsupportedWeights(QrdivError):
    """Weight measure falls in the unsupported signed class."""


class BadParameter(QrdivError):
    """Parameter outside the admissible range."""
