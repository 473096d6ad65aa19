"""Exception types shared across the package."""


class EchlabError(Exception):
    """Base class for all package-specific errors."""


class MixedFieldError(EchlabError):
    """Arithmetic would leave the quadratic field Q(sqrt(d)) of the operands."""


class DegenerateAngleError(EchlabError):
    """A rational angle hit an integral multiple, so the operation is undefined."""


class HyperbolicOrbitError(EchlabError):
    """A hyperbolic orbit with positive multiplicity entered an elliptic-only formula."""


class NotNullhomologousError(EchlabError):
    """The generator's weighted homology class is nonzero."""


class IndexParityError(EchlabError):
    """The index came out odd for an all-elliptic generator; the eta inputs are inconsistent."""


class NonTorsionClassError(EchlabError):
    """An orbit's homology class has infinite order."""


class CensusBoundError(EchlabError):
    """Enumeration refused: no quadrant-positivity certificate and no explicit box."""


class UnknownPresetError(EchlabError):
    """Requested preset name is not shipped with the package."""


class RefinementError(EchlabError):
    """A certified refinement loop reached its precision cap without deciding."""
