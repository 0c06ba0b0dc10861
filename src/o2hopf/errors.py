"""Exception types shared across the package."""

import numbers


class O2HopfError(Exception):
    """Base class for all package errors."""


def shown(value) -> str:
    """value as an error message names it: its repr, or for an integer or a
    fraction with a term past the float range the terms' sizes, since their
    digits may not print."""
    if isinstance(value, numbers.Rational):
        top, bottom = int(value.numerator).bit_length(), int(value.denominator).bit_length()
        if max(top, bottom) > 1024:
            return (f"an integer of {top} bits" if bottom == 1 else
                    f"a fraction with a {top}-bit numerator and a {bottom}-bit denominator")
    return repr(value)


class NonPositiveParameter(O2HopfError):
    """A model constant that must be a strictly positive real number is not."""

    def __init__(self, name, value, requirement="strictly positive"):
        self.name = name
        self.value = value
        super().__init__(f"parameter '{name}' must be {requirement}, got {shown(value)}")


class InadmissibleRegime(O2HopfError):
    """Parameters outside the regime where the O(2)-Hopf analysis applies."""


class InvalidConfig(O2HopfError, ValueError):
    """A simulation setting outside what the integrator can run."""


class DomainMismatch(O2HopfError):
    """Two spatial objects defined over different periodic domains."""


class NumericalBlowup(O2HopfError):
    """Simulated field norm exceeded the configured bound."""


class WindowTooShort(O2HopfError):
    """Time series too short to estimate an oscillation frequency."""


class NoSaturation(O2HopfError):
    """Amplitude did not settle within the simulation horizon."""


class StepSizeUnderflow(O2HopfError):
    """Integrator step size shrank below the representable minimum."""
