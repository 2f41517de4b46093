"""Shared exception types, and the matrix shape check that raises one."""


class AlgebraError(Exception):
    """Base class for all algebra-level failures."""


class ShapeError(AlgebraError):
    """Dimension or source/target mismatch."""


class RingMismatchError(AlgebraError):
    """Objects live over different rings."""


class MorphismError(AlgebraError):
    """A map fails well-definedness (relations/equivariance/naturality)."""


class ExactnessError(AlgebraError):
    """A precondition about composites or exactness is violated."""


class NonzeroCompositeError(ExactnessError):
    """An exactness test was asked about f, g with g . f nonzero."""


class VerificationFailure(AlgebraError):
    """A verdict of a verification suite does not hold."""


def check_shape(rows, cols, data):
    """Raise ShapeError unless data is a rows x cols list of rows."""
    if len(data) != rows:
        raise ShapeError(f"matrix must have {rows} rows, got {len(data)}")
    for i, r in enumerate(data):
        if len(r) != cols:
            raise ShapeError(f"matrix row {i} must have {cols} entries, "
                             f"got {len(r)}")
