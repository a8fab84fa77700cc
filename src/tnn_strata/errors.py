"""Exception hierarchy.

Math-precondition errors (bad but legal user input) derive from
PreconditionError; InternalInvariantError flags situations that the
underlying theory rules out, so hitting one means a bug in this library.
"""


class TnnStrataError(Exception):
    pass


class PreconditionError(TnnStrataError):
    """Input violates a stated mathematical precondition."""


class NotComparable(PreconditionError):
    """u is not below v in Bruhat order."""


class RankTooLarge(PreconditionError):
    """Request exceeds the desk-scale guard for this operation."""


class NotInG0(PreconditionError):
    """Matrix has no Gaussian (LDU) decomposition.

    ``witness`` is the size of the first vanishing leading principal minor.
    """

    def __init__(self, witness: int):
        self.witness = witness
        super().__init__(f"leading principal {witness}x{witness} minor vanishes")


class NotInG0u(PreconditionError):
    """x * u^-1 has no Gaussian decomposition, i.e. x is outside G_0 u.

    ``witness`` is the size of the first vanishing leading principal minor
    of x * u^-1, or None when a float test found x outside G_0 u.
    """

    def __init__(self, witness: int | None):
        self.witness = witness
        where = f": leading principal {witness}x{witness} minor vanishes" if witness else ""
        super().__init__(f"x*u^-1 outside G_0{where}")


class NotUnipotentUpper(PreconditionError):
    pass


class Singular(PreconditionError):
    pass


class CellMismatch(PreconditionError):
    pass


class NonPositiveParameter(PreconditionError):
    pass


class NonPositiveTau(PreconditionError):
    pass


class ZNotInYgeqV(PreconditionError):
    pass


class InvalidArgument(TnnStrataError, ValueError):
    """A numeric argument is outside its domain (e.g. an epsilon that is
    not finite and positive): a usage error, not a math precondition."""


class FlowError(TnnStrataError):
    """Numerical integration failure."""


class StepUnderflow(FlowError):
    pass


class MaxStepsExceeded(FlowError):
    pass


class StratumEscape(FlowError):
    """A trajectory's stratum label changed: integrator bug signal."""


class UndecidableRank(FlowError):
    """Float rank detection cannot tell a small minor from zero, so the
    cell label of a float matrix is undecidable at working precision."""


class InternalInvariantError(TnnStrataError):
    """An invariant the mathematics guarantees failed; a library bug."""
