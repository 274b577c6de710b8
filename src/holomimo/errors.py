"""Exception hierarchy for the holomimo package.

Three broad families, matching the CLI exit codes: configuration errors
(exit 2), input-file errors (exit 3), and numerical failures (exit 4).
"""

__all__ = [
    "HolomimoError",
    "ConfigError",
    "NonPositiveInput",
    "NonIntegerGrid",
    "SpreadOutOfRange",
    "NonPositiveDistance",
    "UnknownPreset",
    "InputFileError",
    "EmptyFile",
    "MalformedTableFile",
    "MalformedPatternFile",
    "MalformedSParameterFile",
    "NumericalError",
    "IndexOutsideEllipse",
    "QuadratureNotConverged",
    "DegenerateSpectrum",
    "NonPassive",
    "DimensionMismatch",
    "EmptyGains",
    "ZeroChannel",
    "NonFiniteChannel",
]


class HolomimoError(Exception):
    """Base class for all package errors."""


# ---------------------------------------------------------------- exit code 2


class ConfigError(HolomimoError):
    """Invalid scenario configuration (bad field, unknown key, bad preset)."""


class NonPositiveInput(ConfigError):
    """A length or count that must be strictly positive is not."""


class NonIntegerGrid(ConfigError):
    """Element spacing does not divide the aperture into an integer grid."""


class SpreadOutOfRange(ConfigError):
    """Angular spread outside the validity range (0, 21) degrees."""


class NonPositiveDistance(ConfigError):
    """Pathloss distance must be strictly positive."""


class UnknownPreset(ConfigError):
    """Requested scenario preset does not exist."""


# ---------------------------------------------------------------- exit code 3


class InputFileError(HolomimoError):
    """A required input file is missing, unreadable, or malformed."""


class EmptyFile(InputFileError):
    """Input file or cluster table contains no data rows."""


class MalformedTableFile(InputFileError):
    """Cluster table file cannot be parsed."""


class MalformedPatternFile(InputFileError):
    """Antenna-pattern file cannot be parsed or has an incomplete grid."""


class MalformedSParameterFile(InputFileError):
    """S-parameter file cannot be parsed or has missing entries."""


# ---------------------------------------------------------------- exit code 4


class NumericalError(HolomimoError):
    """Base class for numerical failures."""


class IndexOutsideEllipse(NumericalError):
    """Harmonic index outside the lattice ellipse of the given aperture."""


class QuadratureNotConverged(NumericalError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class DegenerateSpectrum(NumericalError):
    """All spectral integrals vanished; no propagating power captured."""


class NonPassive(NumericalError):
    """S-parameter row power sum exceeds 1; matrix is not passive."""


class DimensionMismatch(NumericalError):
    """Matrix order does not match the array element count."""


class EmptyGains(NumericalError):
    """Water-filling called with no channel gains."""


class ZeroChannel(NumericalError):
    """Channel matrix is numerically zero; capacity undefined."""


class NonFiniteChannel(NumericalError):
    """Channel matrix has NaN or infinite entries; capacity undefined."""
