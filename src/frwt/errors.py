"""Exception types shared across the package.

Every error raised on a contract violation derives from FrwtError so callers
can catch the package's failures with a single except clause.
"""


class FrwtError(Exception):
    """Base class for all package errors."""


class GridMismatch(FrwtError):
    """Two signals were combined but live on different grids."""


class DomainMismatch(FrwtError):
    """The output grid of this transform cannot be formed."""


class DeltaKernel(FrwtError):
    """Kernel evaluation requested at an order where it degenerates to a delta."""


class StepMismatch(FrwtError):
    """Convolution operands have incommensurate grid steps or offsets."""


class ZeroScaleComponent(FrwtError):
    """A scale vector has a component equal to zero."""


class GridTooSmall(FrwtError):
    """A daughter wavelet's support spills past the grid edge."""


class InadmissibleWavelet(FrwtError):
    """Admissibility integral diverges; the wavelet cannot be used here."""


class ZeroCrossAdmissibility(FrwtError):
    """Cross admissibility constant vanishes; reconstruction is impossible."""


class TailDominated(FrwtError):
    """A moment integral draws too much of its value from the grid boundary."""


class InvalidAnglePair(FrwtError):
    """The two transform orders differ by a multiple of pi."""


class ThetaAtBoundary(FrwtError):
    """Moment exponent sits on the n/2 boundary between the two regimes."""


class EmptyScan(FrwtError):
    """A scan configuration contains no centers or no radii."""


class SignalFileError(FrwtError):
    """Malformed signal or coefficient file."""


class InputFileError(FrwtError):
    """A signal, coefficient or configuration file could not be read."""


class OutputFileError(FrwtError):
    """A signal or coefficient file could not be written."""


class NearSingularOrder(UserWarning):
    """Order is close enough to a multiple of pi that conditioning degrades."""
