"""Exception hierarchy for the library.

Every error raised by `repro` derives from :class:`ReproError` so callers can
catch library failures without catching unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class TopologyError(ReproError):
    """Invalid topology shape, coordinates, or wiring."""


class OCSError(ReproError):
    """Optical-circuit-switch misconfiguration (port conflicts, capacity)."""


class SchedulingError(ReproError):
    """A slice request cannot be placed on the machine."""


class ShardingError(ReproError):
    """An embedding-table sharding plan is inconsistent."""


class SimulationError(ReproError):
    """The discrete-event simulator reached an inconsistent state."""


class ConfigurationError(ReproError):
    """A model/chip/parallelism configuration is invalid."""


class TraceError(ReproError):
    """A recorded workload trace is malformed or unsupported."""


def brief(value: object, limit: int = 40) -> str:
    """``repr(value)`` bounded for echoing a rejected input in a message.

    An int past 128 bits is named by its digit count: its repr may run to
    thousands of characters, or past the interpreter's int-to-str limit.
    Any other repr longer than `limit` is cut and states its full length.

    >>> brief(1.5), brief(10 ** 4000)
    ('1.5', 'an integer of 4001 digits')
    >>> brief("x" * 100, limit=8)
    "'xxxxxxx... (102 chars)"
    """
    if isinstance(value, int) and value.bit_length() > 128:
        # 2**(b-1) <= |value| < 2**b brackets the digit count to two.
        digits = int((value.bit_length() - 1) * 0.30102999566398120) + 1
        if abs(value) >= 10 ** digits:
            digits += 1
        return f"an integer of {digits} digits"
    text = repr(value)
    if len(text) <= limit:
        return text
    return f"{text[:limit]}... ({len(text)} chars)"
