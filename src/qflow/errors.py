"""Exception hierarchy shared across the package.

Everything numerical that can fail in a recoverable, diagnosable way raises a
subclass of :class:`NumericalError`; configuration problems raise
:class:`ConfigError`.  The CLI maps the former to exit code 3 and the latter
to exit code 2.
"""

from __future__ import annotations

import math


class QflowError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(QflowError):
    """Invalid or inconsistent run configuration."""


class NumericalError(QflowError):
    """Base class for runtime numerical failures."""


class UnphysicalStateError(NumericalError):
    """An input state violates a hard physicality precondition."""


class PoleError(NumericalError):
    """Rate evaluation requested at (or across) a zero of the amplitude c(t)."""


class DegenerateStateError(NumericalError):
    """The eigenbasis is undefined (state at or crossing the Bloch-ball center)."""


class StepSizeError(NumericalError):
    """Fixed-step integration failed its embedded accuracy check."""


class BracketError(NumericalError):
    """Root bracketing failed: no sign change in the scanned range."""


def require_finite(where: str, **values: float) -> None:
    """Raise :class:`ConfigError` naming the first of ``values`` that is NaN or infinite.

    NaN passes every range check (``nan < 0`` is False), so settings are
    checked for finiteness before their ranges.
    """
    for name, value in values.items():
        if not math.isfinite(value):
            raise ConfigError(f"{where} {name}={value} must be finite")
