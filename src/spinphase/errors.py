"""Exception types shared across the package."""


class SpinPhaseError(Exception):
    """Base class for all domain errors raised by this package."""


class UndefinedPhase(SpinPhaseError):
    """The phase functional was applied to a (numerically) vanishing argument.

    Physically this signals a collapse of the interference visibility: the
    quantity whose phase is requested has no well-defined phase.
    """


class DegenerateSpectrum(SpinPhaseError):
    """Instantaneous spectrum is (numerically) degenerate; eigenbasis undefined."""


class DegenerateFrame(SpinPhaseError):
    """Effective rotating-frame frequency vanishes; the return period is undefined."""


class UnitarityLoss(SpinPhaseError):
    """Integrator drifted too far from the unitary group; increase the step count.

    ``steps_needed`` is the least step count RK4's stability bound allows,
    when the bound was the reason, else None.
    """

    def __init__(self, message: str, steps_needed: float | None = None):
        super().__init__(message)
        self.steps_needed = steps_needed


class InconsistentClassification(SpinPhaseError):
    """Verification classifications flipped across generic grid points."""
