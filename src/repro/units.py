"""Unit helpers and physical constants.

Internally the library uses SI base units throughout:

* time in **seconds** (float),
* data sizes in **bytes** (int),
* rates in **bits per second** (float).

These helpers exist so that scenario code reads naturally
(``bandwidth=mbps(60)``, ``delay=ms(5)``) and so unit mistakes are
grep-able instead of silent.
"""

from __future__ import annotations

#: Conventional maximum transmission unit used for segmentation (bytes).
DEFAULT_MTU = 1500

#: Bytes of header overhead assumed per packet (IP + transport, rounded).
DEFAULT_HEADER_BYTES = 40

#: Default maximum segment size: MTU minus header overhead (bytes).
DEFAULT_MSS = DEFAULT_MTU - DEFAULT_HEADER_BYTES


def ms(value: float) -> float:
    """Milliseconds to seconds."""
    return value * 1e-3


def to_ms(value_seconds: float) -> float:
    """Seconds to milliseconds."""
    return value_seconds * 1e3


def kbps(value: float) -> float:
    """Kilobits/s to bits/s."""
    return value * 1e3


def mbps(value: float) -> float:
    """Megabits/s to bits/s."""
    return value * 1e6


def to_mbps(bits_per_second: float) -> float:
    """Bits/s to megabits/s."""
    return bits_per_second / 1e6


def kib(value: float) -> int:
    """Kibibytes to bytes."""
    return int(value * 1024)


def kb(value: float) -> int:
    """Kilobytes (10^3) to bytes."""
    return int(value * 1000)
