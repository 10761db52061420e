"""Unit tests for unit helpers."""

from repro import units


def test_time_conversions():
    assert units.ms(250) == 0.25
    assert units.to_ms(0.075) == 75.0


def test_rate_conversions():
    assert units.kbps(400) == 400_000
    assert units.mbps(60) == 60_000_000
    assert units.to_mbps(26_500_000) == 26.5


def test_size_conversions():
    assert units.kib(64) == 65_536
    assert units.kb(5) == 5_000


def test_mss_is_mtu_minus_headers():
    assert units.DEFAULT_MSS == units.DEFAULT_MTU - units.DEFAULT_HEADER_BYTES
