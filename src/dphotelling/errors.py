"""Exception types shared across the package.

The CLI maps these onto exit codes: bound violations exit 3, numerical
failures exit 4, malformed input exits 2.
"""


class NumericalError(RuntimeError):
    """A numerical routine failed to produce a trustworthy result."""


class ConvergenceError(NumericalError):
    """An iterative routine did not converge or returned non-finite values."""


class SamplerStallError(NumericalError):
    """A rejection sampler exceeded its proposal budget without accepting."""

    def __init__(self, q: int, eps_step: float, spectral_spread: float):
        self.q = q
        self.eps_step = eps_step
        self.spectral_spread = spectral_spread
        super().__init__(
            f"sphere sampler stalled: q={q}, eps_step={eps_step:g}, "
            f"spectral spread={spectral_spread:g}"
        )


class BoundViolationError(ValueError):
    """Data left the declared [-m, m] cube, invalidating noise calibration."""


class CsvFormatError(ValueError):
    """An input CSV file could not be parsed into an n-by-d numeric matrix."""
