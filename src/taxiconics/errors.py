"""Exception types raised by the geometry pipeline."""


class TaxiconicsError(Exception):
    """Base class for all library errors."""


class CoincidentPoints(TaxiconicsError):
    """Two points expected to be distinct coincide."""


class IdenticalLines(TaxiconicsError):
    """Two lines expected to be distinct are the same line."""


class ZeroVector(TaxiconicsError):
    """A parameter triple that must be nonzero is the zero vector."""


class ZeroComponent(TaxiconicsError):
    """Wedge membership is undefined when a line parameter component is zero."""


class DegenerateCone(TaxiconicsError):
    """The defining line lies inside the defining plane (A . a = 0)."""


class NonPositiveKappa(TaxiconicsError):
    """kappa must be strictly positive."""


class HorizontalPlane(TaxiconicsError):
    """Operation needs the trace line P^S, which a horizontal plane lacks."""


class HorizontalLineWithHorizontalPlane(TaxiconicsError):
    """A horizontal line and a horizontal plane never meet in one point."""


class NotSteep(TaxiconicsError):
    """Steep-line similarity applies only to (transitionally) steep lines."""


class NotParallel(TaxiconicsError):
    """Plane traces on the slicing plane are not parallel."""


class InconsistentClassification(TaxiconicsError):
    """Strip-based classification disagrees with the perpendicular-case region."""
