"""Exception hierarchy shared by all layers."""


class EssmodError(Exception):
    """Base class for every error raised by this package."""


class NoConvergence(EssmodError):
    """An eigenvalue iteration failed to converge."""


class NotProjection(EssmodError):
    """Element fails p*p = p = p^* within tolerance."""


class ZeroInput(EssmodError):
    """Operation requires a nonzero input."""


class ShapeMismatch(EssmodError):
    """Operands live over different algebra shapes or module ranks."""


class NonFinite(EssmodError):
    """A float matrix holds inf or NaN, as when a product of huge entries overflows."""


class EigenvalueAtThreshold(EssmodError):
    """A spectral cut was requested within tolerance of an eigenvalue."""


class DimensionMismatch(EssmodError):
    """Fiber dimensions of sections or subspace fields disagree."""


class OutOfRange(EssmodError):
    """A rational endpoint lies outside the base interval [0, 1]."""


class IrrationalRoot(EssmodError):
    """A defect boundary polynomial has an irrational root in (0, 1).

    The exact set machinery only represents rational boundary points; perturb
    the coefficients rationally to work around.
    """


class GeneratorsNotSpanning(EssmodError):
    """Field generators fail to span the full fiber off the defect set."""


class NoRoom(EssmodError):
    """No rational interval is available for the requested bump support."""


class PreconditionFailed(EssmodError):
    """A documented operation precondition does not hold for the input."""


class SampleNotInDefect(EssmodError):
    """A requested sample point lies outside the total defect set."""


class NoGeneratorDefect(EssmodError):
    """No generator leaves the subspace at a point of the defect set."""


class SchemaError(EssmodError):
    """A JSON document does not match the expected instance schema."""


class SizeCap(EssmodError):
    """A size past a cap, such as the generator caps or Python's integer printing limit."""
