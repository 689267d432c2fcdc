"""Global numeric configuration.

All approximate comparisons in the library share one absolute
tolerance, :func:`tolerance`; no function takes one of its own.
:func:`set_tolerance`, :func:`tolerance_override`, the CLI's ``--tol``
and a document check's ``tol`` set it.  The Hom and dual certificates
and the limit-functor squares compare against ``10 * tolerance()``.

The tolerance is context-local (a :class:`contextvars.ContextVar`, PEP
567): a change made in one thread or asyncio task is never seen by
another.
"""

import math
from contextlib import contextmanager
from contextvars import ContextVar

DEFAULT_TOLERANCE = 1e-9

_tolerance: ContextVar[float] = ContextVar("l0limits_tolerance", default=DEFAULT_TOLERANCE)


def tolerance() -> float:
    """Current absolute comparison tolerance."""
    return _tolerance.get()


def _checked(value: float) -> float:
    value = float(value)
    if not 0.0 < value < math.inf:
        raise ValueError(f"tolerance must be finite and positive, got {value}")
    return value


def set_tolerance(value: float) -> None:
    """Replace the tolerance in the current context."""
    _tolerance.set(_checked(value))


@contextmanager
def tolerance_override(value: float):
    """Temporarily replace the tolerance in the current context (mainly for
    tests and CLI)."""
    token = _tolerance.set(_checked(value))
    try:
        yield
    finally:
        _tolerance.reset(token)
