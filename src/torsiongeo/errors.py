"""Exception hierarchy shared across the package."""


class TorsionGeoError(Exception):
    """Base class for all errors raised by torsiongeo."""


class SingularTriad(TorsionGeoError):
    """Triad determinant below threshold; the chart point is invalid."""


class TriadUnavailable(TorsionGeoError):
    """Geometry was given as a metric only and the operation needs a triad."""


class DerivativeUnavailable(TorsionGeoError):
    """``geometry.covariant_derivative`` was given a tensor field that is not callable."""


class ChartSingularity(TorsionGeoError):
    """A trajectory hit a singular point of the chart (e.g. polar origin)."""


class StepTooLarge(TorsionGeoError):
    """Integrator invariant drift exceeded ten times the tolerance."""


class GridTooCoarse(TorsionGeoError):
    """Grid finite differences are unstable on the supplied sampling."""


class GridMismatch(TorsionGeoError):
    """A field was supplied on a grid that does not match the trajectory."""


class OriginOnContour(TorsionGeoError):
    """A contour vertex sits on (or too near) the branch point at the origin."""


class MetricNotPositiveDefinite(TorsionGeoError):
    """Metric lost positive definiteness at a queried point."""


class NoConvergence(TorsionGeoError):
    """An iterative solve (e.g. two-point shooting) failed to converge."""


class GridResolutionInsufficient(TorsionGeoError):
    """Fewer than the required grid points per kernel width."""


class IllConditionedFit(TorsionGeoError):
    """Spectrum fit residual exceeded the configured threshold."""


class SpectrumUnresolved(TorsionGeoError):
    """Fewer positive transfer-matrix eigenvalues than requested levels."""


class NonFiniteResult(TorsionGeoError):
    """A computed quantity overflowed or became undefined (inf or NaN)."""


class TorsionPresentWarning(UserWarning):
    """Torsion-free closed form applied at a point with nonzero torsion."""


class ConfigError(TorsionGeoError):
    """Base class for configuration problems (exit code 2 in the CLI)."""


class ParseError(ConfigError):
    """Config file missing or not parseable."""


class ValidationError(ConfigError):
    """Config parsed but a key is unknown or out of range."""
