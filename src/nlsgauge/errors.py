"""Shared exception types."""


class NlsGaugeError(Exception):
    """Base class for all library errors."""


class AllBelowFloor(NlsGaugeError):
    """Density is at or below the floor everywhere; the phase is undefined."""


class DomainError(NlsGaugeError):
    """An expression was evaluated outside its domain (e.g. rho <= 0 with a
    negative or logarithmic power, or a parameter out of range)."""


class NotIntegrable(NlsGaugeError):
    """A closed-form antiderivative does not exist inside the expression algebra."""


class PeriodicityViolation(NlsGaugeError):
    """A nonlocal generator on a periodic grid has a loop integral that is not
    a multiple of 2*pi; the transformed field would be discontinuous."""

    def __init__(self, loop_integral: float):
        self.loop_integral = loop_integral
        super().__init__(
            f"loop integral {loop_integral!r} is not congruent to 0 (mod 2*pi)"
        )


class NonConservingModel(NlsGaugeError):
    """The coupled model conserves neither the individual densities nor the
    total density; no transformation generator exists."""


class BlowUp(NlsGaugeError):
    """The solution left the trust region (non-finite values or sup-norm > 1e6)."""

    def __init__(self, t: float, message: str = ""):
        self.t = t
        super().__init__(message or f"solution blew up at t={t}")


class ConfigError(NlsGaugeError):
    """A run configuration file is malformed or violates the schema."""
